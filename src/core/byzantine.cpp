#include "core/byzantine.hpp"

namespace sbft {
namespace {

class SilentServer final : public RegisterServer {
 public:
  using RegisterServer::RegisterServer;
  void OnFrame(NodeId, BytesView, IEndpoint&) override {}
};

class GarbageServer final : public RegisterServer {
 public:
  GarbageServer(const ProtocolConfig& config, std::size_t index,
                std::uint64_t seed)
      : RegisterServer(config, index), noise_(seed) {}

  void OnFrame(NodeId from, BytesView, IEndpoint& endpoint) override {
    // Reply to everything with a burst of random frames. Some will fail
    // to decode, some will decode into random well-formed messages.
    const auto burst = 1 + noise_.NextBelow(3);
    for (std::uint64_t i = 0; i < burst; ++i) {
      endpoint.Send(from, RandomBytes(noise_, 1 + noise_.NextBelow(48)));
    }
  }

 private:
  Rng noise_;
};

// Reports its initial state forever; ACKs writes without adopting them.
class StaleReplayServer final : public RegisterServer {
 public:
  StaleReplayServer(const ProtocolConfig& config, std::size_t index,
                    std::uint64_t seed)
      : RegisterServer(config, index) {
    Rng rng(seed);
    // A plausible stale state: a valid label unrelated to the current run.
    frozen_.value = RandomBytes(rng, 4);
    frozen_.ts = Timestamp{RandomValidLabel(rng, labels().params()),
                           static_cast<ClientId>(rng.NextBelow(8))};
    SetState(frozen_);
  }

 protected:
  void HandleGetTs(NodeId from, const GetTsMsg& msg,
                   IEndpoint& endpoint) override {
    TsReplyMsg reply{frozen_.ts, msg.op_label};
    endpoint.Send(from, EncodeMessage(Message(reply)));
  }
  void HandleWrite(NodeId from, const WriteMsg& msg,
                   IEndpoint& endpoint) override {
    WriteReplyMsg reply{true, msg.op_label};  // lie: "accepted as new"
    endpoint.Send(from, EncodeMessage(Message(reply)));
  }
  void HandleRead(NodeId from, const ReadMsg& msg,
                  IEndpoint& endpoint) override {
    ReplyMsg reply;
    reply.value = frozen_.value;
    reply.ts = frozen_.ts;
    reply.old_vals = {AsWire(frozen_)};
    reply.label = msg.label;
    endpoint.Send(from, EncodeMessage(Message(reply)));
  }

 private:
  VersionedValue frozen_;
};

// Tracks the honest state but reports fabricated values under the
// legitimate timestamp, a different one per destination.
class EquivocateServer final : public RegisterServer {
 public:
  EquivocateServer(const ProtocolConfig& config, std::size_t index,
                   std::uint64_t seed)
      : RegisterServer(config, index), noise_(seed) {}

 protected:
  void HandleRead(NodeId from, const ReadMsg& msg,
                  IEndpoint& endpoint) override {
    // Forged values need owned storage: ReplyMsg carries views, and a
    // view of a temporary would dangle before the encode below.
    const Bytes forged = RandomBytes(noise_, 4);
    const std::vector<VersionedValue> history = old_vals();
    std::vector<Bytes> forged_hist;
    forged_hist.reserve(history.size());
    ReplyMsg reply;
    reply.value = forged;  // forged value, real timestamp
    reply.ts = current().ts;
    for (const VersionedValue& old : history) {
      forged_hist.push_back(RandomBytes(noise_, 4));
      reply.old_vals.push_back(WireVersioned{forged_hist.back(), old.ts});
    }
    reply.label = msg.label;
    endpoint.Send(from, EncodeMessage(Message(reply)));
    (void)from;
  }

 private:
  Rng noise_;
};

// NACKs all writes, exports a fixed private timestamp.
class NackServer final : public RegisterServer {
 public:
  NackServer(const ProtocolConfig& config, std::size_t index,
             std::uint64_t seed)
      : RegisterServer(config, index) {
    Rng rng(seed);
    private_ts_ = Timestamp{RandomValidLabel(rng, labels().params()),
                            static_cast<ClientId>(rng.NextBelow(8))};
  }

 protected:
  void HandleGetTs(NodeId from, const GetTsMsg& msg,
                   IEndpoint& endpoint) override {
    TsReplyMsg reply{private_ts_, msg.op_label};
    endpoint.Send(from, EncodeMessage(Message(reply)));
  }
  void HandleWrite(NodeId from, const WriteMsg& msg,
                   IEndpoint& endpoint) override {
    WriteReplyMsg reply{false, msg.op_label};
    endpoint.Send(from, EncodeMessage(Message(reply)));
  }

 private:
  Timestamp private_ts_;
};

// Answers FLUSH only: sits inside safe sets, then starves the client.
class MuteServer final : public RegisterServer {
 public:
  using RegisterServer::RegisterServer;

 protected:
  void HandleGetTs(NodeId, const GetTsMsg&, IEndpoint&) override {}
  void HandleWrite(NodeId, const WriteMsg&, IEndpoint&) override {}
  void HandleRead(NodeId, const ReadMsg&, IEndpoint&) override {}
};

}  // namespace

std::unique_ptr<RegisterServer> MakeByzantineServer(
    ByzantineStrategy strategy, const ProtocolConfig& config,
    std::size_t server_index, std::uint64_t seed) {
  switch (strategy) {
    case ByzantineStrategy::kSilent:
      return std::make_unique<SilentServer>(config, server_index);
    case ByzantineStrategy::kGarbage:
      return std::make_unique<GarbageServer>(config, server_index, seed);
    case ByzantineStrategy::kStaleReplay:
      return std::make_unique<StaleReplayServer>(config, server_index, seed);
    case ByzantineStrategy::kEquivocate:
      return std::make_unique<EquivocateServer>(config, server_index, seed);
    case ByzantineStrategy::kNack:
      return std::make_unique<NackServer>(config, server_index, seed);
    case ByzantineStrategy::kMute:
      return std::make_unique<MuteServer>(config, server_index);
  }
  return std::make_unique<SilentServer>(config, server_index);
}

const char* ByzantineStrategyName(ByzantineStrategy strategy) {
  switch (strategy) {
    case ByzantineStrategy::kSilent:
      return "silent";
    case ByzantineStrategy::kGarbage:
      return "garbage";
    case ByzantineStrategy::kStaleReplay:
      return "stale-replay";
    case ByzantineStrategy::kEquivocate:
      return "equivocate";
    case ByzantineStrategy::kNack:
      return "nack";
    case ByzantineStrategy::kMute:
      return "mute";
  }
  return "unknown";
}

std::optional<ByzantineStrategy> ByzantineStrategyFromName(
    std::string_view name) {
  for (ByzantineStrategy strategy : kAllByzantineStrategies) {
    if (name == ByzantineStrategyName(strategy)) return strategy;
  }
  return std::nullopt;
}

}  // namespace sbft
