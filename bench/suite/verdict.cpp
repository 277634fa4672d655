#include "verdict.hpp"

#include <charconv>
#include <string_view>

#include "load/scenario.hpp"
#include "load/stabilization.hpp"

namespace sbft::suite {
namespace {

/// Parses a decimal u32 written without leading zeros (as ValueFor
/// writes it), so that ValueOf(key, SeqOf(key, v)) == v exactly.
bool ParseU32(std::string_view text, std::uint32_t* out) {
  if (text.empty() || (text.size() > 1 && text.front() == '0')) return false;
  const auto [end, error] =
      std::from_chars(text.data(), text.data() + text.size(), *out);
  return error == std::errc() && end == text.data() + text.size();
}

OpRecord::Result ResultOf(OpState state) {
  switch (state) {
    case OpState::kOk:
      return OpRecord::Result::kOk;
    case OpState::kAborted:
      return OpRecord::Result::kAborted;
    case OpState::kFailed:
      return OpRecord::Result::kFailed;
    case OpState::kPending:
      break;
  }
  return OpRecord::Result::kPending;
}

constexpr std::size_t kMaxReported = 16;

}  // namespace

Value ValueOf(std::uint32_t key, std::uint32_t seq) {
  load::ScheduledOp op;
  op.key = key;
  op.seq = seq;
  return load::ValueFor(op);
}

std::uint32_t SeqOf(std::uint32_t key, const Value& value) {
  if (value.empty()) return kEmptySeq;
  const std::string_view text(reinterpret_cast<const char*>(value.data()),
                              value.size());
  const std::size_t hash = text.find('#');
  std::uint32_t parsed_key = 0;
  std::uint32_t seq = 0;
  if (text.front() != 'k' || hash == std::string_view::npos ||
      !ParseU32(text.substr(1, hash - 1), &parsed_key) || parsed_key != key ||
      !ParseU32(text.substr(hash + 1), &seq) || seq >= kForeignSeq) {
    return kForeignSeq;
  }
  return seq;
}

History ToHistory(std::span<const Op> ops) {
  History history;
  for (const Op& op : ops) {
    OpRecord rec;
    rec.kind = op.is_write ? OpRecord::Kind::kWrite : OpRecord::Kind::kRead;
    rec.result = ResultOf(op.state);
    rec.client = op.key;
    rec.invoked_at = op.submit_us;
    rec.returned_at = op.done_us;
    if (op.is_write) {
      rec.value = ValueOf(op.key, op.seq);
    } else if (op.state == OpState::kOk && op.seq != kEmptySeq) {
      // Any byte string no write produces stands in for foreign bytes.
      rec.value = op.seq == kForeignSeq ? Value{'?'} : ValueOf(op.key, op.seq);
    }
    history.Add(std::move(rec));
  }
  return history;
}

Verdict Judge(const History& history, const Tally& tally,
              std::optional<std::uint64_t> fault_at_us) {
  Verdict verdict;
  if (tally.ok + tally.aborted + tally.failed + tally.unreturned !=
      tally.attempted) {
    verdict.reasons.push_back(
        "accounting: ok + aborted + failed + unreturned != attempted");
  }

  CheckOptions options;
  options.max_violations = kMaxReported;
  CheckReport report;
  if (!fault_at_us) {
    report = load::CheckRegularPerKey(history, options);
  } else {
    // Before the fault the register must be regular as usual: check
    // every read that returned before it, against every write invoked
    // before it.
    History before;
    for (const OpRecord& op : history.ops()) {
      const bool judged = op.kind == OpRecord::Kind::kWrite
                              ? op.invoked_at < *fault_at_us
                              : op.result != OpRecord::Result::kPending &&
                                    op.returned_at < *fault_at_us;
      if (judged) before.Add(op);
    }
    report = load::CheckRegularPerKey(before, options);

    CheckOptions base;
    base.grandfathered_values = {Value{}};
    const load::StabilizationReport stabilization =
        load::MeasureStabilization(history, *fault_at_us, base);
    verdict.stabilized = stabilization.stabilized;
    verdict.stabilized_at_us = stabilization.stabilized_at_us;
    verdict.stabilize_ms =
        static_cast<double>(stabilization.violation_window_us) / 1000.0;
    if (!stabilization.stabilized) {
      verdict.reasons.push_back("the register did not stabilize after the fault");
    }
  }
  verdict.violations = report.violations.size();
  for (const std::string& violation : report.violations) {
    verdict.reasons.push_back("violation: " + violation);
  }
  verdict.correct = verdict.reasons.empty();
  return verdict;
}

}  // namespace sbft::suite
