#!/usr/bin/env python3
"""Repo-aware static analyser: determinism, concurrency and hot-path rules.

Generic linters cannot know that src/sim must be bit-deterministic, that
a node thread must never block or that frame buffers come from a pool.
This tool builds a structural model of the whole program — scopes,
classes, members, functions, lambdas, lock sites, call edges — and runs
these checks over it, each within its zone of the tree:

  lock-order           Extracts the mutex acquisition graph (which lock
                       families are taken while which are held, across
                       translation units and through call chains), takes
                       the union with the DAG *declared* via the
                       ACQUIRED_BEFORE/ACQUIRED_AFTER annotations on the
                       lock_order anchors (src/common/
                       thread_annotations.hpp), and reports (a) any
                       cycle — a static lock-order inversion — and (b)
                       any observed edge between two anchored families
                       that the declared DAG does not admit.
  reactor-blocking     Every node thread is the event loop for its own
                       mailbox and sockets, so a node that blocks stalls
                       both. Seeds a "runs on a node loop" taint at the
                       loop's entry points — lambdas handed to
                       PostToNode/RunOnNode or, as completion callbacks,
                       to AsyncWrite/AsyncRead, and the OnFrame/
                       OnBatchEnd/OnTimer overrides of Automaton
                       subclasses — propagates it through the call
                       graph, and flags blocking primitives (unbounded
                       CondVar::Wait, future/condition-variable waits,
                       sleeps, thread joins, blocking syscalls)
                       reachable from them. Calls through std::function
                       values are opaque by design: deferred callbacks
                       run on their executor's thread, not the poster's.
  frame-escape         Flags borrowed BytesView/span payloads that
                       escape their drain scope: stored into a member of
                       a long-lived object, pushed into a member
                       container, or captured by a lambda handed to a
                       deferral sink (Post/PostToNode/Push).
                       Wire-message structs (src/net/message.hpp) hold
                       views *by design* — the hazard this check targets
                       is persisting a view past the frame pool's reuse
                       point, which member stores and deferred captures
                       are exactly.
  wall-clock           Simulated time comes from the World, never the
                       host. The C time APIs (time, gettimeofday,
                       clock_gettime) are flagged on sight. A std::chrono
                       clock read is fine while its value only feeds
                       operator-facing reporting (elapsed/budget
                       arithmetic, count(), comparisons); it is flagged
                       when the value seeds state: passed to a
                       non-reporting call, assigned to a member, or
                       returned other than as a comparison.
  unordered-iteration  Range-for (structured bindings included) or
                       begin() over a std::unordered_* container, resolved
                       against the innermost declaration (locals shadow
                       members): bucket order must not reach traces,
                       verdicts or serialized output.
  nondet-random        Host entropy (random_device, rand, random): all
                       randomness flows from the seeded sbft::Rng.
  thread-id            Thread identity (this_thread::get_id,
                       pthread_self), which varies run to run.
  address-as-value     Pointers cast to integers or hashed: ASLR makes
                       them differ every run.
  raw-alloc            Raw new/malloc/calloc in the hot-path files, which
                       draw from FramePool/SmallVector/reused capacity.

Escape hatches:
  * inline: `// sbft-analyze: allow(<check>)` on the line or the line
    directly above;
  * committed suppression file tools/sbft_analyze_suppress.txt with
    `<path-glob>:<check>[:<substring>]  # rationale` entries.

Usage:
  tools/sbft_analyze.py [--repo-root DIR] [paths...]     # default: src
  tools/sbft_analyze.py --list-checks
  tools/sbft_analyze.py --check-fixture tests/lint/fixtures/analyze/bad_lock_order.cpp
  tools/sbft_analyze.py --frontend {auto,internal,libclang}

Exit codes: 0 clean, 1 findings (or fixture expectation failed),
2 usage/environment error.

Frontend: the internal structural frontend is dependency-free and
authoritative — it is what CI gates on. When the libclang python
bindings are importable (CI pins libclang==18.1.1), `--frontend auto`
additionally cross-checks the unordered-iteration findings against a
real AST walk; `--frontend libclang` makes their absence an error.
"""

from __future__ import annotations

import argparse
import bisect
import fnmatch
import os
import re
import sys
from dataclasses import dataclass, field

# --- Repo layout -----------------------------------------------------------

# Code that must be bit-deterministic: the simulator, the protocol
# automata, labels, baselines and fuzz replay.
DETERMINISTIC_ZONE = (
    "src/sim",
    "src/core",
    "src/labels",
    "src/baselines",
    "src/fuzz",
)
# Plus the checker (verdicts) and the codec (serialized output).
TRACE_ZONE = DETERMINISTIC_ZONE + ("src/spec", "src/net")
# Threaded surface: where the lock-order / reactor-blocking /
# frame-escape families apply.
CONCURRENCY_ZONE = ("src/runtime", "src/core", "src/net", "src/load")
# Files on a measured hot path, whose allocations come from FramePool /
# SmallVector / reused capacity instead of raw new/malloc.
HOT_PATH_FILES = (
    "src/common/buffer_pool.hpp",
    "src/common/frame.hpp",
    "src/common/serialize.hpp",
    "src/common/small_vector.hpp",
    "src/net/message.cpp",
    "src/net/message.hpp",
    "src/core/mux.cpp",
    "src/core/mux.hpp",
    "src/core/mux_flush.cpp",
    "src/core/mux_flush.hpp",
    "src/core/shard_map.cpp",
    "src/core/shard_map.hpp",
    "src/sim/event_queue.hpp",
    "src/runtime/mailbox.hpp",
    "src/runtime/sharded_cluster.cpp",
    "src/runtime/sharded_cluster.hpp",
    "src/runtime/tcp.cpp",
)

SUPPRESS_FILE = os.path.join("tools", "sbft_analyze_suppress.txt")
ANNOTATION_HEADER = os.path.join("src", "common", "thread_annotations.hpp")

CHECKS = {
    "lock-order": "lock acquisition graph has an inversion cycle or an "
                  "edge the declared ACQUIRED_BEFORE DAG does not admit",
    "reactor-blocking": "blocking primitive reachable from a node-loop "
                        "entry point (stalls that node's mailbox and "
                        "sockets)",
    "frame-escape": "borrowed frame payload (BytesView/span) escapes its "
                    "drain scope (member store or deferred capture)",
    "wall-clock": "host time read in the deterministic zone (C time API, "
                  "or a clock value that seeds state; reporting-only "
                  "uses are fine)",
    "unordered-iteration": "iteration over an unordered container feeding "
                           "traces/verdicts/output (scope-resolved)",
    "nondet-random": "non-seeded randomness in the deterministic zone "
                     "(use sbft::Rng)",
    "thread-id": "thread identity in the deterministic zone",
    "address-as-value": "pointer value used as data in the deterministic "
                        "zone (ASLR breaks replay)",
    "raw-alloc": "raw allocation in a hot-path file (use FramePool/"
                 "SmallVector/reuse)",
}

ALLOW_RE = re.compile(
    r"//\s*sbft-analyze:\s*allow\(([a-z-]+(?:\s*,\s*[a-z-]+)*)\)")

# Lambdas handed to these run on a node thread, the event loop of that
# node's mailbox and sockets: posted tasks and completion callbacks.
NODE_LOOP_SINKS = ("PostToNode", "RunOnNode", "AsyncWrite", "AsyncRead")
# Automaton overrides the node loop dispatches into.
NODE_LOOP_METHODS = ("OnFrame", "OnBatchEnd", "OnTimer")
NODE_LOOP_BASE = "Automaton"
# Lambdas handed to these run later, on another thread, after the
# current drain/batch scope is gone.
DEFER_SINKS = ("Post", "PostToNode", "Push")
# Call names treated as blocking when reached from a node loop. `Wait`
# is the exact unbounded CondVar::Wait; `wait`/`wait_for`/`wait_until`
# are the std::future and std::condition_variable waits — a node that
# waits for an operation only its own thread can complete deadlocks
# until the timeout. recv/send/accept4 are excluded: every runtime
# socket is nonblocking (documented limitation, not an oversight).
BLOCKING_CALLS = ("Wait", "wait", "wait_for", "wait_until", "sleep_for",
                  "sleep_until", "usleep", "nanosleep", "sleep", "join",
                  "epoll_wait", "epoll_pwait2", "ppoll", "poll", "select")
# Bounded waits: allowed, and not descended into.
BOUNDED_WAITS = ("WaitFor",)
VIEW_TYPE_RE = re.compile(r"\bBytesView\b|\bstd::span\s*<|\bstring_view\b")
UNORDERED_TYPE_RE = re.compile(r"\bunordered_(?:map|set|multimap|multiset)\b")
MUTEX_TYPE_RE = re.compile(r"(?<!std::)\bMutex\b")

# Checks that match tokens, not structure.
TOKEN_CHECKS = [
    ("nondet-random", re.compile(
        r"std::random_device|\brandom_device\b"
        r"|(?<![:\w])s?rand\s*\(|(?<![:\w])random\s*\(")),
    ("thread-id", re.compile(r"this_thread::get_id|\bpthread_self\s*\(")),
    ("address-as-value", re.compile(
        r"reinterpret_cast<\s*(std::)?u?intptr_t\s*>"
        r"|std::hash<[^>\n]*\*\s*>")),
    ("wall-clock", re.compile(
        r"\bgettimeofday\s*\(|\bclock_gettime\s*\("
        r"|\btime\s*\(\s*(NULL|nullptr|0)?\s*\)")),
    ("raw-alloc", re.compile(
        r"(?<![:\w.])\bnew\b(?!\s*\()|\b(m|c)alloc\s*\(")),
]

CLOCK_NOW_RE = re.compile(
    r"\b(?:steady_clock|system_clock|high_resolution_clock|Clock)\s*::\s*"
    r"now\s*\(")
# Top-level comparison operators (templates are written without spaces
# around their angle brackets, comparisons with them).
COMPARISON_RE = re.compile(r"[<>!=]=|\s[<>]\s")
# Receiver-position methods on a tainted value that only *report* time.
CLOCK_SINKS = ("count", "time_since_epoch", "duration_cast", "now",
               "min", "max", "abs", "wait_for", "wait_until", "WaitFor")

KEYWORDS = {
    "if", "for", "while", "switch", "return", "sizeof", "catch", "new",
    "delete", "static_cast", "dynamic_cast", "reinterpret_cast",
    "const_cast", "alignof", "decltype", "assert", "defined", "move",
    "forward", "swap", "throw", "co_await", "co_return", "else", "do",
}
CONTROL_WORDS = KEYWORDS | {
    "break", "continue", "case", "goto", "using", "typedef", "friend",
    "template", "typename", "namespace", "public", "private",
    "protected", "operator", "try",
}


@dataclass
class Finding:
    path: str
    line: int
    check: str
    message: str
    snippet: str = ""

    def key(self):
        return (self.path, self.line, self.check, self.message)


# --- Preprocessing ---------------------------------------------------------


def blank_comments_and_strings(text: str) -> str:
    """Replace comment/string contents with spaces, preserving newlines
    and column positions so findings report real locations. A ' preceded
    by an identifier character is a C++14 digit separator like
    1'000'000, not a char-literal open — treating it as a quote desyncs
    every brace after it."""
    out = []
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        nxt = text[i + 1] if i + 1 < n else ""
        prev = text[i - 1] if i > 0 else ""
        if c == "/" and nxt == "/":
            j = text.find("\n", i)
            j = n if j < 0 else j
            out.append(" " * (j - i))
            i = j
        elif c == "/" and nxt == "*":
            j = text.find("*/", i + 2)
            j = n if j < 0 else j + 2
            out.append("".join(ch if ch == "\n" else " " for ch in text[i:j]))
            i = j
        elif c == "'" and (prev.isalnum() or prev == "_"):
            out.append(c)  # digit separator
            i += 1
        elif c in "\"'":
            quote = c
            j = i + 1
            while j < n and text[j] != quote:
                j += 2 if text[j] == "\\" else 1
            j = min(j + 1, n)
            out.append(quote + " " * (j - i - 2) + (quote if j - i >= 2 else ""))
            i = j
        else:
            out.append(c)
            i += 1
    return "".join(out)


def blank_preprocessor(blanked: str) -> str:
    """Blank #include/#define/... lines (keeping newlines) so directives
    never look like declarations or calls."""
    out_lines = []
    continued = False
    for line in blanked.split("\n"):
        if continued or line.lstrip().startswith("#"):
            continued = line.rstrip().endswith("\\")
            out_lines.append(" " * len(line))
        else:
            continued = False
            out_lines.append(line)
    return "\n".join(out_lines)


def inline_allows(text: str) -> dict:
    allows: dict = {}
    for lineno, line in enumerate(text.splitlines(), 1):
        m = ALLOW_RE.search(line)
        if m:
            checks = {c.strip() for c in m.group(1).split(",")}
            allows.setdefault(lineno, set()).update(checks)
            allows.setdefault(lineno + 1, set()).update(checks)
    return allows


def strip_templates(s: str) -> str:
    """Iteratively remove <...> groups (for classifying headers)."""
    prev = None
    while prev != s:
        prev = s
        s = re.sub(r"<[^<>]*>", "", s)
    return s


def split_top_level(s: str, sep: str = ",") -> list:
    """Split on sep at zero <>/()/[]/{} depth."""
    parts, depth, cur = [], 0, []
    for ch in s:
        if ch in "<([{":
            depth += 1
        elif ch in ">)]}":
            depth = max(0, depth - 1)
        if ch == sep and depth == 0:
            parts.append("".join(cur))
            cur = []
        else:
            cur.append(ch)
    parts.append("".join(cur))
    return [p.strip() for p in parts if p.strip()]


def balanced_parens(text: str, open_pos: int) -> tuple:
    """Return (content, close_pos) for the paren group opening at
    open_pos, or ("", open_pos) if unbalanced."""
    depth = 0
    for i in range(open_pos, len(text)):
        if text[i] == "(":
            depth += 1
        elif text[i] == ")":
            depth -= 1
            if depth == 0:
                return text[open_pos + 1:i], i
    return "", open_pos


# --- Scope model -----------------------------------------------------------


@dataclass
class Scope:
    kind: str            # root | namespace | class | function | lambda | block
    header: str
    header_start: int    # absolute offset where the header text begins
    start: int           # offset just after '{' (root: 0)
    end: int             # offset of '}' (root: len(text))
    parent: "Scope" = None
    children: list = field(default_factory=list)
    name: str = None     # namespace/class/function simple name
    qname: str = None    # fully qualified (anon namespaces skipped)


LAMBDA_TAIL_RE = re.compile(
    r"\[[^\[\]]*\]\s*(?:\([^()]*\))?\s*(?:mutable\s*)?(?:constexpr\s*)?"
    r"(?:noexcept\s*(?:\([^()]*\))?\s*)?(?:->\s*[\w:<>,\s&*]+?)?\s*$")
CLASS_HEAD_RE = re.compile(
    r"\b(?:class|struct|union)\s+(?:SBFT_\w+\s*\([^)]*\)\s*|"
    r"CAPABILITY\s*\([^)]*\)\s*|SCOPED_CAPABILITY\s+|alignas\s*\([^)]*\)\s*)*"
    r"([A-Za-z_]\w*(?:::\w+)*)")
NAMESPACE_RE = re.compile(r"\bnamespace(?:\s+([A-Za-z_][\w:]*))?\s*$")
FUNC_NAME_RE = re.compile(r"([A-Za-z_~][\w]*(?:::~?\w+)*)\s*\(")


def classify_scope(header: str) -> tuple:
    """Return (kind, name) for a brace scope from its header text."""
    h = header.strip()
    m = NAMESPACE_RE.search(h)
    if m and "=" not in h:
        return "namespace", m.group(1)
    if LAMBDA_TAIL_RE.search(h):
        return "lambda", None
    stripped = strip_templates(h)
    if re.search(r"\benum\b", stripped):
        return "block", None
    cm = CLASS_HEAD_RE.search(stripped)
    if cm and "(" not in stripped[:cm.start()] and "=" not in stripped:
        # `class Foo final : public Bar` — name is the first identifier.
        return "class", cm.group(1).split("::")[-1]
    if re.search(r"=\s*$", h):
        return "block", None     # brace initializer
    for fm in FUNC_NAME_RE.finditer(stripped):
        name = fm.group(1)
        base = name.split("::")[-1].lstrip("~")
        if base in CONTROL_WORDS or name.split("::")[0] in CONTROL_WORDS:
            continue
        return "function", name
    return "block", None


def build_scopes(text: str) -> Scope:
    """Brace-structure scan over blanked text. Paren depth is saved and
    restored across scope push/pop so a lambda body inside a call's
    argument list does not desynchronize the statement-break tracking."""
    root = Scope("root", "", 0, 0, len(text))
    stack = [root]
    saved = []
    paren = 0
    last_break = 0
    for i, c in enumerate(text):
        if c == "(":
            paren += 1
        elif c == ")":
            paren = max(0, paren - 1)
        elif c == ";" and paren == 0:
            last_break = i + 1
        elif c == "{":
            header = text[last_break:i]
            kind, name = classify_scope(header)
            sc = Scope(kind, header, last_break, i + 1, len(text),
                       parent=stack[-1], name=name)
            stack[-1].children.append(sc)
            stack.append(sc)
            saved.append((paren, last_break))
            paren = 0
            last_break = i + 1
        elif c == "}":
            if len(stack) > 1:
                stack[-1].end = i
                stack.pop()
                paren, _ = saved.pop()
                last_break = i + 1
    return root


def assign_qnames(root: Scope):
    """Qualified names from the namespace/class nesting; anonymous
    namespaces contribute nothing to the path (matching how the
    annotation comments spell families)."""

    def walk(scope: Scope, path: tuple):
        for child in scope.children:
            child_path = path
            if child.kind == "namespace":
                if child.name:
                    child_path = path + tuple(child.name.split("::"))
                child.qname = "::".join(child_path) or None
            elif child.kind == "class":
                child_path = path + (child.name,)
                child.qname = "::".join(child_path)
            elif child.kind == "function":
                if "::" in child.name:
                    child.qname = "::".join(path + tuple(child.name.split("::")))
                else:
                    child.qname = "::".join(path + (child.name,))
                child_path = path
            walk(child, child_path)

    walk(root, ())

# --- Symbol model ----------------------------------------------------------


@dataclass
class Member:
    name: str
    type: str
    line: int
    guarded_by: str = None
    acquired_before: tuple = ()
    acquired_after: tuple = ()


@dataclass
class ClassInfo:
    qname: str
    path: str
    members: dict = field(default_factory=dict)  # name -> Member
    bases: tuple = ()    # simple names of the direct base classes


@dataclass
class LockEvent:
    pos: int
    line: int
    expr: str
    scope_end: int
    family: str = None   # resolved later


@dataclass
class CallEvent:
    pos: int
    line: int
    receiver: str        # "a.b->" style chain text, may be ""
    name: str
    args: str


@dataclass
class AssignEvent:
    pos: int
    line: int
    lhs: str             # chain text
    op: str              # "=" or the container-insert method name
    rhs: str


@dataclass
class FunctionInfo:
    qname: str
    path: str
    line: int
    owner_class: str = None      # class qname or None
    is_lambda: bool = False
    params: dict = field(default_factory=dict)      # name -> type
    locals: list = field(default_factory=list)      # (pos, name, type)
    requires: list = field(default_factory=list)    # raw capability exprs
    lock_events: list = field(default_factory=list)
    call_events: list = field(default_factory=list)
    assign_events: list = field(default_factory=list)
    lambdas: list = field(default_factory=list)     # child FunctionInfo
    parent: "FunctionInfo" = None                   # for lambdas
    captures: tuple = ()        # (default, frozenset(by_value), frozenset(by_ref))
    sink: tuple = None          # (receiver_chain, call_name) the lambda is an arg of
    body_text: str = ""
    body_base: int = 0
    scope: Scope = None


class Program:
    def __init__(self):
        self.classes = {}        # qname -> ClassInfo
        self.functions = {}      # qname -> [FunctionInfo]
        self.all_functions = []  # every FunctionInfo incl. lambdas
        self.globals = {}        # simple name -> (qname, type)
        self.anchors = {}        # anchor simple name (kFoo) -> family qname
        self.pending_requires = {}   # (class_qname, method) -> [exprs]
        self.files = {}          # rel path -> (raw, blanked, line_starts)

    def add_function(self, fn: FunctionInfo):
        self.all_functions.append(fn)
        if not fn.is_lambda:
            self.functions.setdefault(fn.qname, []).append(fn)


ANNOT_RE = re.compile(
    r"\b(GUARDED_BY|PT_GUARDED_BY|ACQUIRED_BEFORE|ACQUIRED_AFTER|REQUIRES"
    r"|REQUIRES_SHARED|EXCLUDES|ACQUIRE|ACQUIRE_SHARED|RELEASE"
    r"|RELEASE_SHARED|TRY_ACQUIRE|RETURN_CAPABILITY|ASSERT_CAPABILITY)"
    r"\s*\(")
LOCK_RE = re.compile(
    r"\b(?:const\s+)?(?:MutexLock|std::scoped_lock(?:<[^>]*>)?"
    r"|std::lock_guard(?:<[^>]*>)?|std::unique_lock(?:<[^>]*>)?)\s+"
    r"\w+\s*[({]")
CALL_RE = re.compile(
    r"(?<![\w.>:])((?:\w+(?:\s*(?:\.|->|::)\s*))*)((?:~)?\w+)\s*\(")
DECL_RE = re.compile(
    r"^(?:const\s+|constexpr\s+|static\s+|mutable\s+|inline\s+)*"
    r"((?:::)?[A-Za-z_]\w*(?:::\w+)*(?:\s*<[^;=]*>)?(?:\s+const)?"
    r"(?:\s*[*&]+\s*|\s+))"
    r"([A-Za-z_]\w*)\s*(=|\(|\{|;|$)")
MAKE_RE = re.compile(r"\bmake_(?:unique|shared)\s*<\s*([\w:]+)")
ANCHOR_RE = re.compile(
    r"inline\s+Mutex\s+(k\w+)\s*;\s*//\s*anchor-for:\s*([\w:]+)")
# Range-for head. strip_subscripts turns a structured binding
# `auto& [k, v] : m` into `auto&        : m`, so `&` may stand in for the
# loop variable.
RANGE_FOR_RE = re.compile(
    r"for\s*\(([^;()]*?)([A-Za-z_]\w*|&)\s*:\s*([^);]+)\)")
INSERT_METHODS = ("push_back", "emplace_back", "push", "push_front",
                  "insert", "emplace", "assign")


def lineno_of(line_starts, pos) -> int:
    return bisect.bisect_right(line_starts, pos)


def extract_annotations(stmt: str):
    """Return (stripped_statement, [(annot, content)])."""
    found = []
    out = []
    i = 0
    while i < len(stmt):
        m = ANNOT_RE.search(stmt, i)
        if not m:
            out.append(stmt[i:])
            break
        out.append(stmt[i:m.start()])
        content, close = balanced_parens(stmt, m.end() - 1)
        found.append((m.group(1), content))
        i = close + 1
    return "".join(out), found


def split_statements(text: str, base: int):
    """Yield (offset, stmt) split at ';'/'{'/'}' outside parens."""
    depth = 0
    start = 0
    for i, ch in enumerate(text):
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth = max(0, depth - 1)
        elif ch in ";{}" and depth == 0:
            stmt = text[start:i]
            if stmt.strip():
                yield base + start, stmt
            start = i + 1
    stmt = text[start:]
    if stmt.strip():
        yield base + start, stmt


def masked_region(text: str, scope: Scope, keep_lambda_headers=True) -> str:
    """Text of [scope.start, scope.end) with nested lambda/class/function
    subtrees blanked (block scopes kept). Lambda capture lists stay
    visible so the enclosing call's argument structure survives."""
    chars = list(text[scope.start:scope.end])

    def blank(child: Scope):
        lo = child.start if keep_lambda_headers and child.kind == "lambda" \
            else child.header_start
        lo = max(lo, scope.start)
        for k in range(lo - scope.start, child.end - scope.start):
            if chars[k] != "\n":
                chars[k] = " "

    def walk(s: Scope):
        for child in s.children:
            if child.kind in ("lambda", "class", "function", "namespace"):
                blank(child)
            else:
                walk(child)

    walk(scope)
    return "".join(chars)


def innermost_block_end(scope: Scope, pos: int) -> int:
    """End offset of the innermost block (or the scope itself)
    containing pos, not descending into lambda/class children."""
    end = scope.end
    cur = scope
    progressed = True
    while progressed:
        progressed = False
        for child in cur.children:
            if child.kind == "block" and child.start <= pos < child.end:
                cur = child
                end = child.end
                progressed = True
                break
    return end


def parse_params(header: str, name: str) -> dict:
    params = {}
    m = re.search(re.escape(name) + r"\s*\(", header)
    if not m:
        return params
    content, _ = balanced_parens(header, m.end() - 1)
    for part in split_top_level(content):
        part = split_top_level(part, "=")[0] if "=" in part else part
        part = part.strip()
        pm = re.match(r"^(.*?)([A-Za-z_]\w*)$", part, re.S)
        if pm and pm.group(1).strip():
            params[pm.group(2)] = pm.group(1).strip()
    return params


def parse_captures(header: str):
    m = re.search(r"\[([^\[\]]*)\]\s*(?:\([^()]*\))?\s*(?:mutable\s*)?"
                  r"(?:constexpr\s*)?(?:noexcept\s*(?:\([^()]*\))?\s*)?"
                  r"(?:->\s*[\w:<>,\s&*]+?)?\s*$", header)
    if not m:
        return ("", frozenset(), frozenset()), None
    by_value, by_ref, default = set(), set(), ""
    for item in split_top_level(m.group(1)):
        if item == "=":
            default = "="
        elif item == "&":
            default = "&"
        elif item == "this" or item == "*this":
            pass
        elif item.startswith("&"):
            nm = re.match(r"&\s*(\w+)", item)
            if nm:
                by_ref.add(nm.group(1))
        else:
            nm = re.match(r"(\w+)", item)
            if nm:
                by_value.add(nm.group(1))
    return (default, frozenset(by_value), frozenset(by_ref)), m.start()


def lambda_sink(parent_masked: str, parent_base: int, bracket_abs: int):
    """The call whose still-open '(' encloses the lambda's position:
    (receiver_chain, name) or None if the lambda is not a call argument."""
    upto = parent_masked[:max(0, bracket_abs - parent_base)]
    stack = []
    for i, ch in enumerate(upto):
        if ch == "(":
            stack.append(i)
        elif ch == ")":
            if stack:
                stack.pop()
    if not stack:
        return None
    head = upto[:stack[-1]]
    m = re.search(r"((?:[\w.\->:]|<[^<>]*>)+)\s*$", head)
    if not m:
        return None
    chain = re.sub(r"<[^<>]*>", "", m.group(1))
    parts = re.split(r"->|\.|::", chain)
    parts = [p for p in parts if p]
    if not parts:
        return None
    name = parts[-1]
    receiver = ".".join(parts[:-1])
    tmpl = re.search(r"<\s*([\w:]+)", m.group(1))
    return (receiver, name, tmpl.group(1) if tmpl else None)


# --- Per-file extraction ---------------------------------------------------


def class_bases(header: str) -> tuple:
    """Simple names of the base classes in a class head such as
    `class Foo final : public Bar, private Baz`."""
    h = strip_templates(header)
    cm = CLASS_HEAD_RE.search(h)
    if not cm:
        return ()
    rest = re.sub(r"^\s*final\b", "", h[cm.end():]).strip()
    if not rest.startswith(":") or rest.startswith("::"):
        return ()
    return tuple(part.split()[-1].split("::")[-1]
                 for part in split_top_level(rest[1:]) if part.split())


def parse_class(program: Program, scope: Scope, text: str, path: str,
                line_starts):
    info = program.classes.setdefault(scope.qname,
                                      ClassInfo(scope.qname, path))
    info.bases = info.bases or class_bases(scope.header)
    direct = []
    chars = list(text[scope.start:scope.end])
    for child in scope.children:
        for k in range(child.header_start - scope.start
                       if child.kind in ("function", "class", "namespace")
                       else child.start - scope.start,
                       child.end - scope.start):
            if 0 <= k < len(chars) and chars[k] != "\n":
                chars[k] = ";" if chars[k] == "}" else " "
    direct = "".join(chars)
    for off, stmt in split_statements(direct, scope.start):
        stripped, annots = extract_annotations(stmt)
        stripped = re.sub(r"^\s*(?:public|private|protected)\s*:", " ",
                          stripped)
        first = re.match(r"\s*(\w+)", stripped)
        if first and first.group(1) in ("using", "typedef", "friend",
                                        "static_assert", "template", "enum"):
            continue
        if "(" in stripped:
            # Method declaration: harvest REQUIRES for later merging
            # into the out-of-line definition.
            reqs = [c for (a, c) in annots
                    if a in ("REQUIRES", "REQUIRES_SHARED")]
            if reqs:
                nm = FUNC_NAME_RE.search(strip_templates(stripped))
                if nm:
                    key = (scope.qname, nm.group(1).split("::")[-1])
                    program.pending_requires.setdefault(key, [])
                    for r in reqs:
                        program.pending_requires[key].extend(
                            split_top_level(r))
            continue
        body = split_top_level(stripped, "=")[0] if "=" in stripped \
            else stripped
        body = re.sub(r"\[[^\[\]]*\]\s*$", "", body.strip())
        nm = re.match(r"^(.*?)([A-Za-z_]\w*)$", body, re.S)
        if not nm or not nm.group(1).strip():
            continue
        name, typ = nm.group(2), " ".join(nm.group(1).split())
        if name in CONTROL_WORDS or typ.split()[-1:] == ["return"]:
            continue
        member = Member(name, typ, lineno_of(line_starts, off))
        for annot, content in annots:
            if annot in ("GUARDED_BY", "PT_GUARDED_BY"):
                member.guarded_by = content.strip()
            elif annot == "ACQUIRED_BEFORE":
                member.acquired_before = tuple(split_top_level(content))
            elif annot == "ACQUIRED_AFTER":
                member.acquired_after = tuple(split_top_level(content))
        info.members[name] = member


def parse_namespace_vars(program: Program, scope: Scope, text: str,
                         path: str, line_starts):
    chars = list(text[scope.start:scope.end])
    for child in scope.children:
        for k in range(child.header_start - scope.start,
                       child.end - scope.start):
            if 0 <= k < len(chars) and chars[k] != "\n":
                chars[k] = ";" if chars[k] == "}" else " "
    direct = "".join(chars)
    for off, stmt in split_statements(direct, scope.start):
        stripped, _annots = extract_annotations(stmt)
        if "(" in stripped:
            continue
        first = re.match(r"\s*(\w+)", stripped)
        if first and first.group(1) in ("using", "typedef", "template",
                                        "enum", "extern", "static_assert"):
            continue
        body = split_top_level(stripped, "=")[0] if "=" in stripped \
            else stripped
        body = re.sub(r"\[[^\[\]]*\]\s*$", "", body.strip())
        nm = re.match(r"^(.*?)([A-Za-z_]\w*)$", body, re.S)
        if not nm or not nm.group(1).strip():
            continue
        name, typ = nm.group(2), " ".join(nm.group(1).split())
        if name in CONTROL_WORDS:
            continue
        qual = (scope.qname + "::" + name) if scope.qname else name
        program.globals.setdefault(name, (qual, typ))


def extract_function(program: Program, scope: Scope, text: str, path: str,
                     line_starts, parent_fn=None) -> FunctionInfo:
    header = text[scope.header_start:scope.start - 1]
    fn = FunctionInfo(
        qname=scope.qname or ((parent_fn.qname if parent_fn else "?")
                              + "::$lambda"
                              + str(lineno_of(line_starts, scope.start))),
        path=path,
        line=lineno_of(line_starts, scope.start),
        is_lambda=(scope.kind == "lambda"),
        parent=parent_fn,
        scope=scope,
    )
    # Owner class: lexical parent class scope, or the qualified-name
    # prefix for out-of-class definitions.
    p = scope.parent
    while p is not None and p.kind != "class":
        if p.kind in ("function", "lambda") and parent_fn is not None:
            fn.owner_class = parent_fn.owner_class
            break
        p = p.parent
    if p is not None and p.kind == "class":
        fn.owner_class = p.qname
    if not fn.is_lambda and fn.owner_class is None and scope.name \
            and "::" in scope.name:
        fn.owner_class = fn.qname.rsplit("::", 1)[0]

    if fn.is_lambda:
        captures, bracket_off = parse_captures(header)
        fn.captures = captures
        m = re.search(r"\[([^\[\]]*)\]\s*(\(([^()]*)\))?", header[bracket_off:]
                      if bracket_off is not None else header)
        if m and m.group(3) is not None:
            for part in split_top_level(m.group(3)):
                pm = re.match(r"^(.*?)([A-Za-z_]\w*)$", part.strip(), re.S)
                if pm and pm.group(1).strip():
                    fn.params[pm.group(2)] = pm.group(1).strip()
    else:
        name = scope.name.split("::")[-1] if scope.name else ""
        fn.params = parse_params(header, scope.name or name)
        if not fn.params and name:
            fn.params = parse_params(header, name)

    # REQUIRES on the definition header itself.
    for annot, content in extract_annotations(header)[1]:
        if annot in ("REQUIRES", "REQUIRES_SHARED"):
            fn.requires.extend(split_top_level(content))

    body = strip_subscripts(masked_region(text, scope))
    fn.body_text = body
    fn.body_base = scope.start

    # Range-for variables: typed as the element of the iterated chain
    # (resolved lazily — "$elem:" marker) so `MutexLock l(loop.mutex)`
    # over `for (auto& loop : loops_)` still lands in a family.
    for m in RANGE_FOR_RE.finditer(body):
        fn.locals.append((scope.start + m.start(2), m.group(2),
                          "$elem:" + m.group(3).strip()))

    # Locals (declarations with positions, for shadow-aware lookup).
    for off, stmt in split_statements(body, 0):
        s = stmt.strip()
        dm = DECL_RE.match(s)
        if dm and dm.group(1).split()[0] not in CONTROL_WORDS:
            typ = dm.group(1).strip()
            if typ in ("return", "delete"):
                continue
            if typ.startswith("auto"):
                mk = MAKE_RE.search(stmt)
                typ = (mk.group(1) + "*") if mk else "auto"
            fn.locals.append((scope.start + off + stmt.find(dm.group(2)),
                              dm.group(2), typ))
        # Assignments / container inserts (frame-escape, wall-clock).
        am = re.match(r"^([\w.\->\[\]]+?)\s*=\s*([^=].*)$", s, re.S)
        if am and not dm:
            pos = scope.start + off + len(stmt) - len(stmt.lstrip())
            fn.assign_events.append(AssignEvent(
                pos, lineno_of(line_starts, pos),
                am.group(1).strip(), "=", am.group(2).strip()))

    for m in re.finditer(
            r"([\w]+(?:\s*(?:\.|->)\s*[\w]+)*)\s*\.\s*(" +
            "|".join(INSERT_METHODS) + r")\s*\(", body):
        pos = scope.start + m.start()
        args, _ = balanced_parens(body, m.end() - 1)
        fn.assign_events.append(AssignEvent(
            pos, lineno_of(line_starts, pos), m.group(1), m.group(2),
            args.strip()))

    # Lock events.
    for m in LOCK_RE.finditer(body):
        open_pos = m.end() - 1
        if body[open_pos] == "(":
            content, _ = balanced_parens(body, open_pos)
        else:
            close = body.find("}", open_pos)
            content = body[open_pos + 1:close] if close > 0 else ""
        pos = scope.start + m.start()
        for expr in split_top_level(content):
            fn.lock_events.append(LockEvent(
                pos, lineno_of(line_starts, pos), expr.strip(),
                innermost_block_end(scope, pos)))

    # Call events.
    for m in CALL_RE.finditer(body):
        name = m.group(2)
        if name in KEYWORDS or name in CONTROL_WORDS:
            continue
        pos = scope.start + m.start()
        args, _ = balanced_parens(body, m.end() - 1)
        fn.call_events.append(CallEvent(
            pos, lineno_of(line_starts, pos),
            re.sub(r"\s+", "", m.group(1)), name, args))

    # make_unique<T>/make_shared<T> construct T: surface the ctor call
    # (CALL_RE cannot see through the template-argument syntax, and the
    # ShardedCluster-ctor inversion is exactly a lock held across a
    # make_unique'd constructor).
    for m in re.finditer(r"\bmake_(?:unique|shared)\s*<\s*([\w:]+)", body):
        pos = scope.start + m.start()
        cls = m.group(1)
        fn.call_events.append(CallEvent(
            pos, lineno_of(line_starts, pos), cls + "::",
            cls.split("::")[-1], ""))

    # Child lambdas (top-most ones, wherever they nest in blocks).
    def find_lambdas(s: Scope):
        for child in s.children:
            if child.kind == "lambda":
                sub = extract_function(program, child, text, path,
                                       line_starts, parent_fn=fn)
                _caps, bracket_off = parse_captures(
                    text[child.header_start:child.start - 1])
                if bracket_off is not None:
                    sub.sink = lambda_sink(body, scope.start,
                                           child.header_start + bracket_off)
                fn.lambdas.append(sub)
            elif child.kind == "block":
                find_lambdas(child)

    find_lambdas(scope)
    program.add_function(fn)
    return fn


def parse_file(program: Program, repo_root: str, path: str):
    rel = os.path.relpath(os.path.abspath(path), repo_root).replace(
        os.sep, "/")
    try:
        with open(path, encoding="utf-8", errors="replace") as f:
            raw = f.read()
    except OSError as e:
        print(f"sbft_analyze: cannot read {path}: {e}", file=sys.stderr)
        return
    blanked = blank_preprocessor(blank_comments_and_strings(raw))
    line_starts = [0]
    for i, ch in enumerate(blanked):
        if ch == "\n":
            line_starts.append(i + 1)
    program.files[rel] = (raw, blanked, line_starts)

    for m in ANCHOR_RE.finditer(raw):
        program.anchors[m.group(1)] = m.group(2)

    root = build_scopes(blanked)
    assign_qnames(root)

    def walk(scope: Scope):
        for child in scope.children:
            if child.kind == "namespace":
                parse_namespace_vars(program, child, blanked, rel,
                                     line_starts)
                walk(child)
            elif child.kind == "class":
                parse_class(program, child, blanked, rel, line_starts)
                walk(child)
            elif child.kind == "function":
                extract_function(program, child, blanked, rel, line_starts)
            # blocks/lambdas at namespace scope: nothing to do
    parse_namespace_vars(program, root, blanked, rel, line_starts)
    walk(root)


def strip_subscripts(body: str) -> str:
    """Blank [...] groups (subscripts, capture lists, attributes) so
    receiver chains like mailboxes_[id]->Push parse as chains. Balanced
    parens inside the group are blanked with it, keeping paren depth
    counters consistent."""
    chars = list(body)
    stack = []
    for i, ch in enumerate(body):
        if ch == "[":
            stack.append(i)
        elif ch == "]" and stack:
            lo = stack.pop()
            if not stack:
                for k in range(lo, i + 1):
                    if chars[k] != "\n":
                        chars[k] = " "
    return "".join(chars)


# --- Whole-program resolution ----------------------------------------------

TYPE_WRAPPERS = {
    "vector", "deque", "list", "queue", "stack", "array", "unique_ptr",
    "shared_ptr", "weak_ptr", "optional", "map", "multimap", "set",
    "multiset", "unordered_map", "unordered_set", "pair", "tuple",
    "atomic", "reference_wrapper", "span",
}
CHAIN_SPLIT_RE = re.compile(r"\s*(?:->|\.|::)\s*")


class Resolver:
    def __init__(self, program: Program):
        self.program = program
        self._acquires = {}

    # -- names --------------------------------------------------------

    def resolve_class(self, name: str, context: str):
        classes = self.program.classes
        name = name.strip()
        if not name:
            return None
        if name in classes:
            return name
        cands = sorted(q for q in classes
                       if q == name or q.endswith("::" + name))
        if not cands:
            return None
        if len(cands) == 1:
            return cands[0]
        context = context or ""

        def score(q):
            i = 0
            while i < min(len(q), len(context)) and q[i] == context[i]:
                i += 1
            return (i, -len(q), q)

        return max(cands, key=score)

    def type_to_class(self, t: str, context: str):
        if t is None:
            return None
        if t.startswith("$elem:"):
            return t[len("$elem:"):] if t[len("$elem:"):] in \
                self.program.classes else None
        t = re.sub(r"\b(const|mutable|inline|static|constexpr|typename"
                   r"|struct|class|volatile)\b", " ", t)
        t = t.replace("*", " ").replace("&", " ").strip()
        m = re.match(r"^(?:std::)?(\w+)\s*<(.*)>$", t, re.S)
        while m and m.group(1) in TYPE_WRAPPERS:
            args = split_top_level(m.group(2))
            if not args:
                return None
            t = args[-1].replace("*", " ").replace("&", " ").strip()
            m = re.match(r"^(?:std::)?(\w+)\s*<(.*)>$", t, re.S)
        t = re.sub(r"<.*>$", "", t).strip()
        if " " in t:
            t = t.split()[-1]
        return self.resolve_class(t, context) if t else None

    def lookup_name(self, fn: FunctionInfo, name: str, pos=None):
        """('type', type_str) | ('class', qname) | None. Locals are
        position-aware in the function the use appears in (shadow
        semantics); lambda lookups fall through to the parent chain."""
        f, p = fn, pos
        while f is not None:
            best = None
            for (dpos, n, t) in f.locals:
                if n == name and (p is None or dpos <= p):
                    best = t
            if best is not None:
                if best.startswith("$elem:"):
                    cls = self.resolve_chain_class(f, best[len("$elem:"):],
                                                   None)
                    return ("type", cls) if cls else None
                return ("type", best)
            if name in f.params:
                return ("type", f.params[name])
            if not f.is_lambda:
                break
            f, p = f.parent, None
        oc = fn.owner_class
        while oc:
            ci = self.program.classes.get(oc)
            if ci and name in ci.members:
                return ("type", ci.members[name].type)
            nxt = oc.rsplit("::", 1)[0] if "::" in oc else None
            oc = nxt if nxt in self.program.classes else None
        if name in self.program.globals:
            return ("global", self.program.globals[name])
        cq = self.resolve_class(name, fn.qname)
        if cq:
            return ("class", cq)
        return None

    def resolve_chain_type(self, fn: FunctionInfo, chain: str, pos=None):
        """Final declared type string of a member-access chain, or None."""
        comps = [c for c in CHAIN_SPLIT_RE.split(chain.strip()) if c]
        if not comps:
            return None
        cur_type = None
        cur_class = None
        for i, comp in enumerate(comps):
            if "(" in comp or ")" in comp:
                return None
            if i == 0:
                if comp == "this":
                    cur_class = fn.owner_class
                    cur_type = cur_class
                    continue
                r = self.lookup_name(fn, comp, pos)
                if r is None:
                    return None
                if r[0] == "class":
                    cur_class, cur_type = r[1], r[1]
                else:
                    cur_type = r[1][1] if r[0] == "global" else r[1]
                    cur_class = self.type_to_class(cur_type, fn.qname)
            else:
                ci = self.program.classes.get(cur_class) if cur_class else None
                if not ci or comp not in ci.members:
                    return None
                cur_type = ci.members[comp].type
                cur_class = self.type_to_class(cur_type, cur_class)
        return cur_type

    def resolve_chain_class(self, fn: FunctionInfo, chain: str, pos=None):
        t = self.resolve_chain_type(fn, chain, pos)
        if t is None:
            return None
        if t in self.program.classes:
            return t
        return self.type_to_class(t, fn.qname)

    # -- lock families ------------------------------------------------

    def lock_family(self, fn: FunctionInfo, expr: str, pos=None):
        """Canonical family for a mutex expression: ClassQName::member
        for members, the anchor's mapped family for lock_order::kFoo,
        namespace-qualified name for globals, '<fn>::<name>@local' for
        locals. None when unresolvable (the event is then ignored —
        resolution failure degrades to fewer edges, never false ones)."""
        expr = expr.strip().lstrip("&*").strip()
        comps = [c for c in CHAIN_SPLIT_RE.split(expr) if c]
        if not comps or any("(" in c for c in comps):
            return None
        if comps[-1] in self.program.anchors:
            return self.program.anchors[comps[-1]]
        if len(comps) == 1:
            name = comps[0]
            f, p = fn, pos
            while f is not None:
                for (dpos, n, t) in f.locals:
                    if n == name and not t.startswith("$elem:") \
                            and MUTEX_TYPE_RE.search(t):
                        return f.qname + "::" + name + "@local"
                if name in f.params:
                    return None  # caller's mutex by reference: no family
                if not f.is_lambda:
                    break
                f, p = f.parent, None
            oc = fn.owner_class
            while oc:
                ci = self.program.classes.get(oc)
                if ci and name in ci.members:
                    if MUTEX_TYPE_RE.search(ci.members[name].type):
                        return oc + "::" + name
                    return None
                nxt = oc.rsplit("::", 1)[0] if "::" in oc else None
                oc = nxt if nxt in self.program.classes else None
            if name in self.program.globals:
                qual, typ = self.program.globals[name]
                return qual if MUTEX_TYPE_RE.search(typ) else None
            return None
        owner = self.resolve_chain_class(
            fn, "::".join(comps[:-1]) if "::" in expr and "." not in expr
            and "->" not in expr else ".".join(comps[:-1]), pos)
        if owner is None:
            return None
        member = self.program.classes[owner].members.get(comps[-1])
        if member is None or not MUTEX_TYPE_RE.search(member.type):
            return None
        return owner + "::" + comps[-1]

    def requires_family(self, fn: FunctionInfo, expr: str):
        return self.lock_family(fn, expr, None)

    # -- call graph ---------------------------------------------------

    def callees(self, fn: FunctionInfo, call: CallEvent):
        name = call.name
        fns = self.program.functions
        if call.receiver:
            cls = self.resolve_chain_class(fn, call.receiver, call.pos)
            if cls is None:
                return []
            got = fns.get(cls + "::" + name)
            return got or []
        if fn.owner_class:
            got = fns.get(fn.owner_class + "::" + name)
            if got:
                return got
        q = fn.qname
        while "::" in q:
            q = q.rsplit("::", 1)[0]
            got = fns.get(q + "::" + name)
            if got:
                return got
        got = fns.get(name)
        if got:
            return got
        cq = self.resolve_class(name, fn.qname)
        if cq:  # direct constructor call `Widget w(...)`
            return fns.get(cq + "::" + name, [])
        return []

    def acquires(self, fn: FunctionInfo):
        """Transitive set of lock families a call to fn may acquire
        (REQUIRES-held families excluded: the caller already holds
        them). Memoized; recursion yields the partial set."""
        key = id(fn)
        if key in self._acquires:
            return self._acquires[key]
        self._acquires[key] = set()
        out = set()
        for ev in fn.lock_events:
            fam = self.lock_family(fn, ev.expr, ev.pos)
            if fam:
                out.add(fam)
        for c in fn.call_events:
            for callee in self.callees(fn, c):
                out |= self.acquires(callee)
        self._acquires[key] = out
        return out


# --- Checks ----------------------------------------------------------------

# Zone each check's findings apply to in tree mode (None = whole tree).
ZONE_OF_CHECK = {
    "frame-escape": CONCURRENCY_ZONE,
    "wall-clock": DETERMINISTIC_ZONE,
    "nondet-random": DETERMINISTIC_ZONE,
    "thread-id": DETERMINISTIC_ZONE,
    "address-as-value": DETERMINISTIC_ZONE,
    "unordered-iteration": TRACE_ZONE,
    "raw-alloc": HOT_PATH_FILES,
}


def in_zone(rel: str, zones) -> bool:
    rel = rel.replace(os.sep, "/")
    return any(rel == z or rel.startswith(z + "/") for z in zones)


def merge_requires(program: Program):
    """Attach REQUIRES harvested from in-class declarations to the
    matching out-of-line definitions."""
    for fn in program.all_functions:
        if fn.is_lambda or not fn.owner_class:
            continue
        key = (fn.owner_class, fn.qname.split("::")[-1])
        for expr in program.pending_requires.get(key, ()):
            if expr not in fn.requires:
                fn.requires.append(expr)


def member_of_owner(resolver: Resolver, fn: FunctionInfo, name: str) -> bool:
    oc = fn.owner_class
    while oc:
        ci = resolver.program.classes.get(oc)
        if ci and name in ci.members:
            return True
        nxt = oc.rsplit("::", 1)[0] if "::" in oc else None
        oc = nxt if nxt in resolver.program.classes else None
    return False


def binds_to_local(fn: FunctionInfo, name: str) -> bool:
    f = fn
    while f is not None:
        if name in f.params or any(n == name for (_p, n, _t) in f.locals):
            return True
        if not f.is_lambda:
            return False
        f = f.parent
    return False


# -- lock-order -------------------------------------------------------------


def lock_order_edges(program: Program, resolver: Resolver) -> dict:
    """(held_family, acquired_family) -> (path, line, why) witnesses."""
    observed = {}
    for fn in program.all_functions:
        resolved = []
        for ev in sorted(fn.lock_events, key=lambda e: e.pos):
            fam = resolver.lock_family(fn, ev.expr, ev.pos)
            if fam:
                resolved.append((fam, ev))
        for i, (fa, ea) in enumerate(resolved):
            for fb, eb in resolved[i + 1:]:
                if eb.pos <= ea.scope_end:
                    observed.setdefault((fa, fb), (
                        fn.path, eb.line,
                        f"{fn.qname} acquires {fb} while holding {fa}"))
            for c in fn.call_events:
                if ea.pos < c.pos <= ea.scope_end:
                    for callee in resolver.callees(fn, c):
                        for fb in sorted(resolver.acquires(callee)):
                            observed.setdefault((fa, fb), (
                                fn.path, c.line,
                                f"{fn.qname} holds {fa} across a call to "
                                f"{callee.qname}, which acquires {fb}"))
        req = sorted({f for f in
                      (resolver.lock_family(fn, e) for e in fn.requires) if f})
        if req:
            inner = {f for f, _ in resolved}
            for c in fn.call_events:
                for callee in resolver.callees(fn, c):
                    inner |= resolver.acquires(callee)
            for r in req:
                for fb in sorted(inner):
                    if fb != r:
                        observed.setdefault((r, fb), (
                            fn.path, fn.line,
                            f"{fn.qname} REQUIRES {r} and acquires {fb}"))
    return observed


def anchor_family(program: Program, expr: str):
    m = re.search(r"(k\w+)\s*$", expr.strip())
    return program.anchors.get(m.group(1)) if m else None


def declared_lock_order(program: Program):
    """Edges declared via ACQUIRED_BEFORE/ACQUIRED_AFTER against the
    lock_order anchors, plus the set of anchored families."""
    edges = set()
    anchored = set(program.anchors.values())
    for ci in sorted(program.classes.values(), key=lambda c: c.qname):
        for name in sorted(ci.members):
            mem = ci.members[name]
            if not MUTEX_TYPE_RE.search(mem.type):
                continue
            fam = ci.qname + "::" + name
            for tgt in mem.acquired_before:
                t = anchor_family(program, tgt)
                if t:
                    edges.add((fam, t))
                    anchored.add(fam)
            for tgt in mem.acquired_after:
                t = anchor_family(program, tgt)
                if t:
                    edges.add((t, fam))
                    anchored.add(fam)
    return edges, anchored


def transitive_closure(nodes, edges):
    reach = {n: set() for n in nodes}
    for a, b in edges:
        reach.setdefault(a, set()).add(b)
    changed = True
    while changed:
        changed = False
        for n in sorted(reach):
            add = set()
            for m in reach[n]:
                add |= reach.get(m, set())
            if not add <= reach[n]:
                reach[n] |= add
                changed = True
    return reach


def check_lock_order(program: Program, resolver: Resolver):
    findings = []
    observed = lock_order_edges(program, resolver)
    declared, anchored = declared_lock_order(program)
    union = set(observed) | declared
    nodes = sorted({n for e in union for n in e})
    reach = transitive_closure(nodes, union)
    seen_comps = set()
    for n in nodes:
        if n not in reach.get(n, set()):
            continue
        comp = frozenset(m for m in nodes
                         if m in reach[n] and n in reach.get(m, set()))
        if comp in seen_comps:
            continue
        seen_comps.add(comp)
        wit = None
        for (a, b) in sorted(observed):
            if a in comp and b in comp:
                wit = observed[(a, b)]
                break
        path, line = (wit[0], wit[1]) if wit else (
            ANNOTATION_HEADER.replace(os.sep, "/"), 1)
        detail = wit[2] if wit else "the declared annotations alone form it"
        findings.append(Finding(
            path, line, "lock-order",
            "lock-order inversion cycle among {" + ", ".join(sorted(comp))
            + "}: " + detail))
    dreach = transitive_closure(sorted(anchored), declared)
    for (a, b) in sorted(observed):
        if a == b or a not in anchored or b not in anchored:
            continue
        if b not in dreach.get(a, set()):
            path, line, why = observed[(a, b)]
            findings.append(Finding(
                path, line, "lock-order",
                f"undeclared lock order: {why}; declare the edge with "
                f"ACQUIRED_BEFORE/ACQUIRED_AFTER against the lock_order "
                f"anchors (thread_annotations.hpp) or restructure"))
    return findings


# -- reactor-blocking -------------------------------------------------------


def derives_from(resolver: Resolver, cls, base: str, seen=None) -> bool:
    seen = set() if seen is None else seen
    if cls is None or cls in seen:
        return False
    seen.add(cls)
    ci = resolver.program.classes.get(cls)
    for name in (ci.bases if ci else ()):
        if name == base or derives_from(
                resolver, resolver.resolve_class(name, cls), base, seen):
            return True
    return False


def node_loop_roots(program: Program, resolver: Resolver):
    roots = []
    for fn in program.all_functions:
        if fn.is_lambda:
            if fn.sink and fn.sink[1] in NODE_LOOP_SINKS:
                roots.append(fn)
        elif fn.qname.split("::")[-1] in NODE_LOOP_METHODS and \
                derives_from(resolver, fn.owner_class, NODE_LOOP_BASE):
            roots.append(fn)
    return sorted(roots, key=lambda f: (f.path, f.line, f.qname))


def check_reactor_blocking(program: Program, resolver: Resolver):
    findings = []
    for root in node_loop_roots(program, resolver):
        seen = set()
        work = [(root, (root.qname,))]
        while work:
            fn, chain = work.pop(0)
            if id(fn) in seen:
                continue
            seen.add(id(fn))
            for c in sorted(fn.call_events, key=lambda c: c.pos):
                if c.name in BLOCKING_CALLS:
                    findings.append(Finding(
                        fn.path, c.line, "reactor-blocking",
                        f"blocking call {c.name}() reachable from a "
                        f"node-loop entry point ({' -> '.join(chain)}); a "
                        f"node thread drives its own mailbox and sockets "
                        f"and must never block"))
                if c.name in BOUNDED_WAITS:
                    continue
                for callee in resolver.callees(fn, c):
                    work.append((callee, chain + (callee.qname,)))
    return findings


# -- frame-escape -----------------------------------------------------------


def view_typed(resolver: Resolver, fn: FunctionInfo, expr: str,
               pos=None) -> bool:
    expr = expr.strip()
    m = re.match(r"^(?:std\s*::\s*)?move\s*\((.*)\)$", expr, re.S)
    if m:
        expr = m.group(1).strip()
    if not re.match(r"^[\w.\->:\s]+$", expr) or not expr:
        return False
    t = resolver.resolve_chain_type(fn, expr, pos)
    return bool(t and isinstance(t, str) and VIEW_TYPE_RE.search(t))


def check_frame_escape(program: Program, resolver: Resolver):
    findings = []
    for fn in program.all_functions:
        for ev in fn.assign_events:
            root = re.split(r"->|\.|::", ev.lhs)[0].strip()
            if root != "this":
                if binds_to_local(fn, root) or \
                        not member_of_owner(resolver, fn, root):
                    continue
            if ev.op == "=":
                lt = resolver.resolve_chain_type(fn, ev.lhs, ev.pos)
                is_view_store = (
                    (lt and VIEW_TYPE_RE.search(lt)
                     and re.search(r"[A-Za-z_]", ev.rhs))
                    or view_typed(resolver, fn, ev.rhs, ev.pos))
                if is_view_store:
                    findings.append(Finding(
                        fn.path, ev.line, "frame-escape",
                        f"borrowed view stored into member '{ev.lhs}' in "
                        f"{fn.qname}; the frame backing it is pooled and "
                        f"reused after the drain — copy (ToBytes) instead"))
            else:
                for arg in split_top_level(ev.rhs):
                    if view_typed(resolver, fn, arg, ev.pos):
                        findings.append(Finding(
                            fn.path, ev.line, "frame-escape",
                            f"borrowed view '{arg.strip()}' inserted into "
                            f"member container '{ev.lhs}' via {ev.op}() in "
                            f"{fn.qname}; it outlives the drain scope"))
                        break
        if fn.is_lambda and fn.sink and fn.parent is not None:
            _recv, sname, _tmpl = fn.sink
            if sname in DEFER_SINKS:
                for n, t in captured_views(fn):
                    findings.append(Finding(
                        fn.path, fn.line, "frame-escape",
                        f"lambda deferred via {sname}() captures borrowed "
                        f"view '{n}' ({t}); the frame is reused before the "
                        f"deferred body runs — copy the payload first"))
    return findings


def captured_views(lam: FunctionInfo):
    default, by_value, by_ref = (lam.captures
                                 or (None, frozenset(), frozenset()))
    names = set(by_value) | set(by_ref)
    if default in ("=", "&"):
        for w in set(re.findall(r"\b[A-Za-z_]\w*\b", lam.body_text)):
            if w not in CONTROL_WORDS and w not in lam.params:
                names.add(w)
    out = []
    for n in sorted(names):
        t, f = None, lam.parent
        while f is not None:
            for (_p, nm, ty) in f.locals:
                if nm == n:
                    t = ty
            if t is None and n in f.params:
                t = f.params[n]
            if t is not None or not f.is_lambda:
                break
            f = f.parent
        if t and not t.startswith("$elem:") and VIEW_TYPE_RE.search(t):
            out.append((n, t))
    return out


# -- wall-clock -------------------------------------------------------------


def check_wall_clock(program: Program, resolver: Resolver):
    findings = []

    def scan(fn: FunctionInfo, inherited):
        tainted = set(inherited)

        def source(text):
            if CLOCK_NOW_RE.search(text):
                return "a clock read"
            for t in sorted(tainted):
                if re.search(r"\b%s\b" % re.escape(t), text):
                    return f"clock-derived value '{t}'"
            return None

        stmts = list(split_statements(fn.body_text, 0))
        for _ in range(2):  # two passes: forward refs via loops are rare
            for _off, stmt in stmts:
                s = stmt.strip()
                dm = DECL_RE.match(s)
                if dm and source(s[s.find(dm.group(2)) + len(dm.group(2)):]):
                    tainted.add(dm.group(2))
        for c in sorted(fn.call_events, key=lambda c: c.pos):
            if c.name in CLOCK_SINKS or c.name in CONTROL_WORDS:
                continue
            hit = source(c.args)
            if hit:
                findings.append(Finding(
                    fn.path, c.line, "wall-clock",
                    f"{hit} flows into {c.name}() in the deterministic "
                    f"zone; clock values may only feed reporting "
                    f"(count/comparison/duration_cast)"))
        for ev in fn.assign_events:
            if ev.op != "=":
                continue
            root = re.split(r"->|\.|::", ev.lhs)[0].strip()
            is_member = root == "this" or (
                not binds_to_local(fn, root)
                and member_of_owner(resolver, fn, root))
            if is_member and source(ev.rhs):
                findings.append(Finding(
                    fn.path, ev.line, "wall-clock",
                    f"clock-derived value assigned to member '{ev.lhs}' "
                    f"in the deterministic zone; wall time must not seed "
                    f"state"))
        # A returned clock value reaches the caller as data; a returned
        # comparison (a budget check) is reporting.
        line_starts = program.files[fn.path][2]
        for off, stmt in stmts:
            m = re.search(r"\breturn\b(.*)", stmt, re.S)
            if not m or COMPARISON_RE.search(m.group(1)):
                continue
            hit = source(m.group(1))
            if hit:
                findings.append(Finding(
                    fn.path, lineno_of(line_starts, fn.body_base + off
                                       + m.start()), "wall-clock",
                    f"{hit} returned from {fn.qname} in the deterministic "
                    f"zone; only a comparison on it may leave the "
                    f"function"))
        for lam in fn.lambdas:
            scan(lam, tainted)

    for fn in program.all_functions:
        if not fn.is_lambda:
            scan(fn, set())
    return findings


# -- unordered-iteration (scope-aware) -------------------------------------


def check_unordered_iteration(program: Program, resolver: Resolver):
    findings = []
    for fn in program.all_functions:
        _raw, _blanked, line_starts = program.files[fn.path]
        body = fn.body_text
        sites = []
        for m in RANGE_FOR_RE.finditer(body):
            sites.append((m.start(3), m.group(3).strip(), "range-for over"))
        for c in fn.call_events:
            if c.name in ("begin", "cbegin") and c.receiver:
                sites.append((c.pos - fn.body_base,
                              c.receiver.rstrip(".->:"), "iteration over"))
        for off, chain, how in sites:
            pos = fn.body_base + off
            t = resolver.resolve_chain_type(fn, chain, pos)
            if t and UNORDERED_TYPE_RE.search(t):
                findings.append(Finding(
                    fn.path, lineno_of(line_starts, pos),
                    "unordered-iteration",
                    f"{how} unordered container '{chain}' ({t}) in "
                    f"{fn.qname}; iteration order is not deterministic — "
                    f"sort keys first or use an ordered container"))
    return findings


# -- deterministic-zone token ports ----------------------------------------


def check_tokens(program: Program):
    findings = []
    for rel in sorted(program.files):
        _raw, blanked, line_starts = program.files[rel]
        for check, rx in TOKEN_CHECKS:
            for m in rx.finditer(blanked):
                findings.append(Finding(
                    rel, lineno_of(line_starts, m.start()), check,
                    CHECKS[check]))
    return findings


# --- libclang cross-check (optional frontend) ------------------------------


def libclang_cross_check(repo_root: str, files, internal_unordered):
    """Re-derive unordered-iteration range-for sites with a real AST and
    warn on disagreement. Returns None when the bindings are missing,
    True otherwise. The internal frontend stays authoritative either
    way — this guards against the structural parser drifting."""
    try:
        import clang.cindex as cindex
        index = cindex.Index.create()
    except Exception:
        return None
    ast_sites = set()
    for path in files:
        if not path.endswith((".cpp", ".cc")):
            continue
        try:
            tu = index.parse(path, args=["-std=c++20", "-I",
                                         os.path.join(repo_root, "src")])
        except Exception:
            continue
        rel = os.path.relpath(os.path.abspath(path), repo_root).replace(
            os.sep, "/")
        for node in tu.cursor.walk_preorder():
            if node.kind != cindex.CursorKind.CXX_FOR_RANGE_STMT:
                continue
            if not node.location.file or \
                    os.path.abspath(node.location.file.name) != \
                    os.path.abspath(path):
                continue
            children = list(node.get_children())
            if not children:
                continue
            rng = children[-2] if len(children) >= 2 else children[0]
            if "unordered_" in rng.type.spelling:
                ast_sites.add((rel, node.location.line))
        del tu
    internal = {(f.path, f.line) for f in internal_unordered}
    for site in sorted(ast_sites - internal):
        print(f"sbft_analyze: note: libclang sees an unordered range-for "
              f"at {site[0]}:{site[1]} the internal frontend missed",
              file=sys.stderr)
    return True


# --- Suppressions ----------------------------------------------------------


def load_suppressions(repo_root: str):
    path = os.path.join(repo_root, SUPPRESS_FILE)
    entries = []
    if not os.path.exists(path):
        return entries
    with open(path, encoding="utf-8") as f:
        for ln, line in enumerate(f, 1):
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            parts = line.split(":")
            if len(parts) < 2 or parts[1] not in CHECKS:
                print(f"sbft_analyze: bad suppression entry at "
                      f"{SUPPRESS_FILE}:{ln}", file=sys.stderr)
                sys.exit(2)
            entries.append((parts[0], parts[1],
                            ":".join(parts[2:]) or None))
    return entries


def suppressed(entries, finding: Finding, line_text: str) -> bool:
    for pat, check, sub in entries:
        if check != finding.check:
            continue
        if not fnmatch.fnmatch(finding.path, pat):
            continue
        if sub and sub not in line_text and sub not in finding.message:
            continue
        return True
    return False


# --- Driver ----------------------------------------------------------------


def build_program(repo_root: str, files) -> Program:
    program = Program()
    for path in files:
        parse_file(program, repo_root, path)
    merge_requires(program)
    return program


def run_checks(program: Program, fixture: bool = False):
    resolver = Resolver(program)
    findings = []
    findings += check_lock_order(program, resolver)
    findings += check_reactor_blocking(program, resolver)
    findings += check_frame_escape(program, resolver)
    findings += check_wall_clock(program, resolver)
    findings += check_unordered_iteration(program, resolver)
    findings += check_tokens(program)
    if not fixture:
        findings = [f for f in findings
                    if ZONE_OF_CHECK.get(f.check) is None
                    or in_zone(f.path, ZONE_OF_CHECK[f.check])]
    out, seen = [], set()
    for f in sorted(findings,
                    key=lambda f: (f.path, f.line, f.check, f.message)):
        if f.key() not in seen:
            seen.add(f.key())
            out.append(f)
    return out


def collect_files(paths):
    out = []
    for p in paths:
        if os.path.isdir(p):
            for root, dirs, files in os.walk(p):
                dirs.sort()
                for f in sorted(files):
                    if f.endswith((".cpp", ".hpp", ".cc", ".h")):
                        out.append(os.path.join(root, f))
        elif os.path.exists(p):
            out.append(p)
        else:
            print(f"sbft_analyze: no such path: {p}", file=sys.stderr)
            sys.exit(2)
    return out


def check_fixture(repo_root: str, path: str) -> int:
    base = os.path.basename(path)
    program = build_program(repo_root, [path])
    rel = os.path.relpath(os.path.abspath(path), repo_root).replace(
        os.sep, "/")
    findings = [f for f in run_checks(program, fixture=True)
                if f.path == rel]
    # Inline allows still apply inside fixtures (good_* files may carry
    # intentionally-allowed lines).
    raw = program.files[rel][0]
    allows = inline_allows(raw)
    findings = [f for f in findings
                if f.check not in allows.get(f.line, set())]
    names = sorted(CHECKS, key=len, reverse=True)
    if base.startswith("bad_"):
        stem = base[len("bad_"):].rsplit(".", 1)[0].replace("_", "-")
        expected = next((n for n in names if stem.startswith(n)), None)
        if expected is None:
            print(f"fixture {base}: cannot map name to a check")
            return 1
        hit = [f for f in findings if f.check == expected]
        other = [f for f in findings if f.check != expected]
        if hit and not other:
            print(f"ok: {base} trips {expected} "
                  f"({len(hit)} finding(s)), nothing else")
            return 0
        for f in findings:
            print(f"  {f.path}:{f.line}: [{f.check}] {f.message}")
        print(f"FIXTURE FAIL: {base} expected only {expected} findings "
              f"(got {len(hit)} of it, {len(other)} other)")
        return 1
    if base.startswith("good_"):
        if not findings:
            print(f"ok: {base} is clean")
            return 0
        for f in findings:
            print(f"  {f.path}:{f.line}: [{f.check}] {f.message}")
        print(f"FIXTURE FAIL: {base} expected clean, got "
              f"{len(findings)} finding(s)")
        return 1
    print(f"fixture {base}: name must start with bad_ or good_")
    return 1


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(
        description=__doc__.splitlines()[0])
    ap.add_argument("paths", nargs="*",
                    help="files or directories (default: <repo-root>/src)")
    ap.add_argument("--repo-root", default=".")
    ap.add_argument("--list-checks", action="store_true")
    ap.add_argument("--check-fixture", metavar="FILE",
                    help="fixture protocol: bad_<check>*.cpp must trip "
                         "exactly <check>; good_*.cpp must be clean")
    ap.add_argument("--frontend", choices=("auto", "internal", "libclang"),
                    default="auto",
                    help="internal structural frontend is authoritative; "
                         "libclang (when importable) cross-checks "
                         "unordered-iteration")
    args = ap.parse_args(argv)

    if args.list_checks:
        for name in sorted(CHECKS):
            print(f"{name}: {CHECKS[name]}")
        return 0

    repo_root = os.path.abspath(args.repo_root)
    if args.check_fixture:
        return check_fixture(repo_root, args.check_fixture)

    paths = args.paths or [os.path.join(repo_root, "src")]
    files = collect_files(paths)
    if not files:
        print("sbft_analyze: no input files", file=sys.stderr)
        return 2

    program = build_program(repo_root, files)
    findings = run_checks(program)

    if args.frontend in ("auto", "libclang"):
        ok = libclang_cross_check(
            repo_root, files,
            [f for f in findings if f.check == "unordered-iteration"])
        if ok is None and args.frontend == "libclang":
            print("sbft_analyze: --frontend libclang requested but the "
                  "python clang bindings are not importable "
                  "(pip install libclang)", file=sys.stderr)
            return 2

    entries = load_suppressions(repo_root)
    allow_cache = {}
    kept = []
    for f in findings:
        raw = program.files.get(f.path, ("",))[0]
        if f.path not in allow_cache:
            allow_cache[f.path] = inline_allows(raw)
        if f.check in allow_cache[f.path].get(f.line, set()):
            continue
        lines = raw.splitlines()
        line_text = lines[f.line - 1] if 0 < f.line <= len(lines) else ""
        if suppressed(entries, f, line_text):
            continue
        kept.append(f)

    for f in kept:
        print(f"{f.path}:{f.line}: [{f.check}] {f.message}")
    if kept:
        print(f"sbft_analyze: {len(kept)} finding(s)")
        return 1
    print(f"sbft_analyze: clean ({len(files)} files, "
          f"{len(program.classes)} classes, "
          f"{len(program.all_functions)} functions)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
