// The baseline registers of experiments E1 and E5: ABD, the
// unbounded-timestamp BFT register of Kanjani, Lee, Maguffee, Welch
// [14], and a register in the class TM_1R of Theorem 1. All three run
// one quorum protocol, written here once:
//   * write: GET_TS to every server; from a quorum of TS_REPLYs pick a
//     timestamp; WRITE (ts, value) to every server; wait for a quorum
//     of acks;
//   * read: READ to every server; decide from a quorum of READ_REPLYs
//     (one phase, no write-back);
//   * server: answer GET_TS and READ from its (ts, value), adopt a
//     WRITE whose timestamp follows its own, ack every WRITE.
// A protocol is a rule set: its timestamp domain, its quorum, the rule
// that picks a write's timestamp and the read decision.
//
// ABD (AbdRules; crash-only, majority quorums, unbounded timestamps):
// correct under crash faults, but a Byzantine server trivially poisons
// reads (it reports the highest timestamp with a garbage value and wins
// the max-ts rule), and it is not self-stabilizing (corrupted server
// state with a huge timestamp is returned forever).
//
// BFT-unbounded (BuRules; n >= 3f+1, quorum n-f): a read accepts a
// value only when f+1 servers report the identical (ts, value) pair,
// which masks the f Byzantine replies. Correct under f Byzantine
// servers from a clean start, but NOT self-stabilizing: corruption that
// plants near-maximal sequence numbers in correct servers leaves the
// register unable to certify values forever, because unbounded
// timestamps cannot be dominated once corrupted. The paper's bounded
// labels always can be, by next().
//
// TM_1R (Tm1rRules; bounded labels, one-phase reads, the decision a
// deterministic function of the collected timestamp multiset): the
// subject of Theorem 1, which proves that no such protocol implements a
// stabilizing BFT regular register with n <= 5f. lower_bound_replay.hpp
// replays the proof's adversarial execution against it.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <optional>
#include <utility>
#include <vector>

#include "labels/labeling_system.hpp"
#include "labels/unbounded_timestamp.hpp"
#include "net/message.hpp"
#include "sim/world.hpp"

namespace sbft {

// --- Timestamp domains ---------------------------------------------------

/// (seq, writer) timestamps, ordered by <: ABD and BFT-unbounded.
struct UnboundedDomain {
  using Ts = UnboundedTs;

  [[nodiscard]] Ts Initial(ClientId writer) const { return Ts{0, writer}; }
  [[nodiscard]] Ts Sanitize(const Ts& ts) const { return ts; }
  [[nodiscard]] bool Precedes(const Ts& a, const Ts& b) const {
    return a < b;
  }
  /// The signature failure of unbounded timestamps: corruption can
  /// plant a near-maximal sequence number that no legitimate write
  /// exceeds.
  [[nodiscard]] Ts Corrupt(Rng& rng) const;
};

/// Bounded-label timestamps: TM_1R. Every label taken from the network
/// is sanitized first; order is the labeling system's precedence.
class LabelDomain {
 public:
  using Ts = Timestamp;

  explicit LabelDomain(std::uint32_t k) : labels_(k) {}

  [[nodiscard]] Ts Initial(ClientId writer) const {
    return Ts{labels_.Initial(), writer};
  }
  [[nodiscard]] Ts Sanitize(const Ts& ts) const {
    return Ts{labels_.Sanitize(ts.label), ts.writer_id};
  }
  [[nodiscard]] bool Precedes(const Ts& a, const Ts& b) const {
    return sbft::Precedes(a, b, labels_.params());
  }
  [[nodiscard]] Ts Corrupt(Rng& rng) const;
  [[nodiscard]] const LabelingSystem& labels() const { return labels_; }

 private:
  LabelingSystem labels_;
};

// --- Server --------------------------------------------------------------

/// The server of every baseline: one (ts, value), adopted from a WRITE
/// whose sanitized timestamp follows it.
template <typename Domain>
class QuorumServer : public Automaton {
 public:
  using Ts = typename Domain::Ts;

  explicit QuorumServer(Domain domain = Domain())
      : domain_(std::move(domain)), ts_(domain_.Initial(0)) {}

  void OnFrame(NodeId from, BytesView frame, IEndpoint& endpoint) override;
  void CorruptState(Rng& rng) override;

  [[nodiscard]] const Ts& ts() const { return ts_; }
  [[nodiscard]] const Value& value() const { return value_; }
  void SetState(Ts ts, Value value) {
    ts_ = std::move(ts);
    value_ = std::move(value);
  }

 private:
  Domain domain_;
  Ts ts_;
  Value value_;
};

// --- Client --------------------------------------------------------------

template <typename Ts>
struct QuorumReadOutcome {
  bool ok = false;  // false = aborted (BFT-unbounded: no certified pair)
  Value value;
  Ts ts;
};

/// One read's replies, a slot per server index; `present[i]` marks the
/// slots this read filled (the first reply per server wins).
template <typename Ts>
struct ReadReplies {
  std::vector<std::uint8_t> present;
  std::vector<Ts> ts;
  std::vector<Value> values;
};

/// ABD: majority quorums; a write advances the largest collected
/// timestamp; a read returns the largest reported timestamp, the
/// highest server index winning a tie.
struct AbdRules : UnboundedDomain {
  [[nodiscard]] std::size_t Quorum(std::size_t n) const { return n / 2 + 1; }
  [[nodiscard]] Ts WriteTs(std::vector<Ts> collected, ClientId writer) const;
  [[nodiscard]] QuorumReadOutcome<Ts> Decide(
      const ReadReplies<Ts>& replies) const;
};

/// BFT-unbounded for a deployment sized for `f` Byzantine servers
/// (n >= 3f+1): quorum n-f. A write advances the (f+1)-th largest
/// collected timestamp, so f liars cannot inflate it; a read returns the
/// largest (ts, value) that f+1 servers report identically, the lowest
/// server index winning a tie, and aborts when there is none.
struct BuRules : UnboundedDomain {
  explicit BuRules(std::uint32_t f_bound) : f(f_bound) {}

  std::uint32_t f;

  [[nodiscard]] std::size_t Quorum(std::size_t n) const;
  [[nodiscard]] Ts WriteTs(std::vector<Ts> collected, ClientId writer) const;
  [[nodiscard]] QuorumReadOutcome<Ts> Decide(
      const ReadReplies<Ts>& replies) const;
};

/// TM_1R over k-labels: quorum n-f; a write takes next() of the
/// collected labels; a read returns the plurality timestamp, ties broken
/// by canonical representation order, and succeeds on any reply.
struct Tm1rRules : LabelDomain {
  Tm1rRules(std::uint32_t f_bound, std::uint32_t k)
      : LabelDomain(k), f(f_bound) {}

  std::uint32_t f;

  [[nodiscard]] std::size_t Quorum(std::size_t n) const { return n - f; }
  [[nodiscard]] Ts WriteTs(std::vector<Ts> collected, ClientId writer) const;
  [[nodiscard]] QuorumReadOutcome<Ts> Decide(
      const ReadReplies<Ts>& replies) const;
};

/// The client of every baseline, under one protocol's rules. It runs one
/// operation at a time; a corrupted client fails the operation in
/// flight and takes a random operation id, which may collide with stale
/// replies.
template <typename Rules>
class QuorumClient : public Automaton {
 public:
  using Ts = typename Rules::Ts;
  using ReadOutcome = QuorumReadOutcome<Ts>;

  QuorumClient(std::vector<NodeId> servers, Rules rules, ClientId client_id);

  void OnStart(IEndpoint& endpoint) override;
  void OnFrame(NodeId from, BytesView frame, IEndpoint& endpoint) override;
  void CorruptState(Rng& rng) override;

  void StartWrite(Value value, std::function<void(bool)> callback);
  void StartRead(std::function<void(const ReadOutcome&)> callback);
  [[nodiscard]] bool idle() const { return phase_ == Phase::kIdle; }
  /// Timestamp introduced by the most recent write (for replay setup).
  [[nodiscard]] const Ts& last_write_ts() const { return last_write_ts_; }

 private:
  enum class Phase : std::uint8_t { kIdle, kGetTs, kWrite, kRead };

  [[nodiscard]] std::optional<std::size_t> ServerIndex(NodeId node) const;

  std::vector<NodeId> servers_;
  Rules rules_;
  std::size_t quorum_;
  ClientId client_id_;
  IEndpoint* endpoint_ = nullptr;

  Phase phase_ = Phase::kIdle;
  std::uint64_t rid_ = 0;  // unbounded operation identifier
  Value write_value_;
  Ts last_write_ts_;
  std::function<void(bool)> write_callback_;
  std::function<void(const ReadOutcome&)> read_callback_;
  // Index-dense per-server state (vectors sized n + presence bits),
  // walked in ascending server index. First reply per server wins.
  std::vector<Ts> collected_ts_;
  std::vector<std::uint8_t> collected_bits_;
  std::uint32_t collected_count_ = 0;
  std::vector<std::uint8_t> write_acks_;
  std::uint32_t write_ack_count_ = 0;
  ReadReplies<Ts> read_;
  std::uint32_t read_count_ = 0;
};

// The five instantiations, defined in quorum_register.cpp.
extern template class QuorumServer<UnboundedDomain>;
extern template class QuorumServer<LabelDomain>;
extern template class QuorumClient<AbdRules>;
extern template class QuorumClient<BuRules>;
extern template class QuorumClient<Tm1rRules>;

// ABD and BFT-unbounded share the server automaton.
using AbdServer = QuorumServer<UnboundedDomain>;
using AbdClient = QuorumClient<AbdRules>;
using AbdReadOutcome = QuorumReadOutcome<UnboundedTs>;
using BuServer = QuorumServer<UnboundedDomain>;
using BuClient = QuorumClient<BuRules>;
using BuReadOutcome = QuorumReadOutcome<UnboundedTs>;
using NqServer = QuorumServer<LabelDomain>;
using NqClient = QuorumClient<Tm1rRules>;
using NqReadOutcome = QuorumReadOutcome<Timestamp>;

// --- Adversaries -----------------------------------------------------------

/// E5's Byzantine BFT-unbounded server: reports a maximal timestamp with
/// garbage and acks every write.
class BuByzantineServer : public Automaton {
 public:
  explicit BuByzantineServer(std::uint64_t seed) : rng_(seed) {}
  void OnFrame(NodeId from, BytesView frame, IEndpoint& endpoint) override;

 private:
  Rng rng_;
};

/// Fully scripted Byzantine TM_1R server for the Theorem 1 replay:
/// replies to GET_TS with `ts_for_get_ts`, ACKs every write, and answers
/// READs from a queue of scripted (ts, value) pairs (falling back to the
/// last one).
class NqScriptedServer : public Automaton {
 public:
  void OnFrame(NodeId from, BytesView frame, IEndpoint& endpoint) override;

  Timestamp ts_for_get_ts;
  std::deque<std::pair<Timestamp, Value>> read_script;
};

}  // namespace sbft
