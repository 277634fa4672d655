#include "fuzz/scenario.hpp"

#include <algorithm>
#include <sstream>

#include "common/hash.hpp"
#include "common/serialize.hpp"

namespace sbft::fuzz {
namespace {

constexpr char kTokenPrefix[] = "SBFZ1:";
constexpr std::size_t kTokenPrefixLen = sizeof(kTokenPrefix) - 1;

// Generator/decoder bounds. These are sanity caps on the scenario
// *grammar*, not protocol limits: a token claiming f=1000 is a mangled
// paste, not an interesting execution.
constexpr std::uint32_t kMaxF = 6;
constexpr std::uint32_t kMaxExtra = 8;
constexpr std::uint32_t kMaxClients = 8;
constexpr std::uint32_t kMaxOpsPerClient = 200;
constexpr std::size_t kMaxListLength = 64;

int HexDigit(char c) {
  if (c >= '0' && c <= '9') return c - '0';
  if (c >= 'a' && c <= 'f') return c - 'a' + 10;
  return -1;
}

}  // namespace

ProtocolConfig Scenario::Config() const {
  ProtocolConfig config;
  config.n = n();
  config.f = f;
  config.k = config.n < 2 ? 2 : config.n;
  config.history_window = config.n;
  config.allow_unsafe = sub_resilient();
  config.Validate();
  return config;
}

void Scenario::Normalize() {
  f = std::clamp<std::uint32_t>(f, 1, kMaxF);
  extra = std::min(extra, kMaxExtra);
  n_clients = std::clamp<std::uint32_t>(n_clients, 1, kMaxClients);
  delay_lo = std::max<VirtualTime>(delay_lo, 1);
  delay_hi = std::max(delay_hi, delay_lo);
  ops_per_client = std::clamp<std::uint32_t>(ops_per_client, 1,
                                             kMaxOpsPerClient);
  write_percent = std::min<std::uint32_t>(write_percent, 100);
  max_think_time = std::clamp<VirtualTime>(max_think_time, 1, 1000);
  max_events = std::clamp<std::uint64_t>(max_events, 10'000, 50'000'000);

  // Byzantine servers: in-range, unique, at most f (Deployment enforces
  // the f bound; the map keyed by index enforces uniqueness).
  for (auto& spec : byz_servers) spec.server %= n();
  std::sort(byz_servers.begin(), byz_servers.end(),
            [](const ByzantineServerSpec& x, const ByzantineServerSpec& y) {
              return x.server < y.server;
            });
  byz_servers.erase(
      std::unique(byz_servers.begin(), byz_servers.end(),
                  [](const ByzantineServerSpec& x,
                     const ByzantineServerSpec& y) {
                    return x.server == y.server;
                  }),
      byz_servers.end());
  if (byz_servers.size() > f) byz_servers.resize(f);

  if (byz_clients.size() > kMaxListLength) byz_clients.resize(kMaxListLength);
  for (auto& spec : byz_clients) {
    spec.rounds = std::clamp<std::uint32_t>(spec.rounds, 1, 256);
  }

  if (slowdowns.size() > kMaxListLength) slowdowns.resize(kMaxListLength);
  for (auto& slow : slowdowns) {
    slow.client %= n_clients;
    slow.server %= n();
    slow.delay = std::clamp<VirtualTime>(slow.delay, 1, 10'000);
  }

  mux_window = std::min<std::uint32_t>(mux_window, 32);
  mux_flush_equivocate = mux_window > 0 && mux_flush_equivocate != 0 ? 1 : 0;

  if (faults.size() > kMaxListLength) faults.resize(kMaxListLength);
  for (auto& fault : faults) {
    fault.at = std::min<VirtualTime>(fault.at, 1'000'000);
    switch (fault.kind) {
      case FaultKind::kCorruptServer:
        fault.a %= n();
        fault.b = 0;
        fault.count = 0;
        break;
      case FaultKind::kCorruptClient:
        fault.a %= n_clients;
        fault.b = 0;
        fault.count = 0;
        break;
      case FaultKind::kGarbageFrames:
        fault.a %= n_clients;
        fault.b %= n();
        fault.count = std::clamp<std::uint32_t>(fault.count, 1, 16);
        break;
      case FaultKind::kScrambleChannel:
        fault.a %= n_clients;
        fault.b %= n();
        fault.count = 0;
        break;
    }
  }
}

std::string Scenario::Summary() const {
  std::ostringstream out;
  out << "n=" << n() << " f=" << f << (sub_resilient() ? " (=5f)" : "")
      << " clients=" << n_clients << " byz=" << byz_servers.size()
      << " byzcli=" << byz_clients.size() << " slow=" << slowdowns.size()
      << " faults=" << faults.size() << " ops=" << ops_per_client
      << " seed=" << seed;
  if (mux_window > 0) {
    out << " mux=" << mux_window << (mux_flush_equivocate != 0 ? "+eqv" : "");
  }
  return out.str();
}

std::string Scenario::Describe() const {
  std::ostringstream out;
  out << "scenario " << Summary() << "\n";
  out << "  delay: uniform[" << delay_lo << "," << delay_hi << "]\n";
  for (const auto& spec : byz_servers) {
    out << "  byzantine server s" << spec.server << ": "
        << ByzantineStrategyName(spec.strategy) << "\n";
  }
  for (const auto& spec : byz_clients) {
    out << "  byzantine client: " << ByzantineClientStrategyName(spec.strategy)
        << " (" << spec.rounds << " rounds)\n";
  }
  for (const auto& slow : slowdowns) {
    out << "  slow channel: "
        << (slow.client_to_server ? "c" : "s")
        << (slow.client_to_server ? slow.client : slow.server) << "->"
        << (slow.client_to_server ? "s" : "c")
        << (slow.client_to_server ? slow.server : slow.client)
        << " delay=" << slow.delay << "\n";
  }
  for (const auto& fault : faults) {
    out << "  fault t=" << fault.at << ": ";
    switch (fault.kind) {
      case FaultKind::kCorruptServer:
        out << "corrupt server s" << fault.a;
        break;
      case FaultKind::kCorruptClient:
        out << "corrupt client c" << fault.a;
        break;
      case FaultKind::kGarbageFrames:
        out << "garbage frames c" << fault.a << "<->s" << fault.b << " x"
            << fault.count;
        break;
      case FaultKind::kScrambleChannel:
        out << "scramble channel c" << fault.a << "<->s" << fault.b;
        break;
    }
    out << "\n";
  }
  out << "  workload: " << ops_per_client << " ops/client, "
      << write_percent << "% writes, think<=" << max_think_time
      << ", max_events=" << max_events << "\n";
  if (mux_window > 0) {
    out << "  mux: one MuxClient, batch window " << mux_window
        << ", shared FLUSH rounds"
        << (mux_flush_equivocate != 0
                ? ", Byzantine servers equivocate node-flush acks"
                : "")
        << "\n";
  }
  return out.str();
}

std::string EncodeToken(const Scenario& scenario) {
  BufWriter w;
  w.Put<std::uint64_t>(scenario.seed);
  w.Put<std::uint32_t>(scenario.f);
  w.Put<std::uint32_t>(scenario.extra);
  w.Put<std::uint32_t>(scenario.n_clients);
  w.Put<std::uint64_t>(scenario.delay_lo);
  w.Put<std::uint64_t>(scenario.delay_hi);
  w.PutVector(scenario.slowdowns,
              [](BufWriter& bw, const ChannelSlowdown& s) {
                bw.Put<std::uint32_t>(s.client);
                bw.Put<std::uint32_t>(s.server);
                bw.Put<std::uint8_t>(s.client_to_server ? 1 : 0);
                bw.Put<std::uint64_t>(s.delay);
              });
  w.PutVector(scenario.byz_servers,
              [](BufWriter& bw, const ByzantineServerSpec& s) {
                bw.Put<std::uint32_t>(s.server);
                bw.Put(s.strategy);
              });
  w.PutVector(scenario.byz_clients,
              [](BufWriter& bw, const ByzantineClientSpec& s) {
                bw.Put(s.strategy);
                bw.Put<std::uint32_t>(s.rounds);
              });
  w.PutVector(scenario.faults, [](BufWriter& bw, const FaultInjection& f) {
    bw.Put(f.kind);
    bw.Put<std::uint64_t>(f.at);
    bw.Put<std::uint32_t>(f.a);
    bw.Put<std::uint32_t>(f.b);
    bw.Put<std::uint32_t>(f.count);
  });
  w.Put<std::uint32_t>(scenario.ops_per_client);
  w.Put<std::uint32_t>(scenario.write_percent);
  w.Put<std::uint64_t>(scenario.max_think_time);
  w.Put<std::uint64_t>(scenario.max_events);
  w.Put<std::uint32_t>(scenario.mux_window);
  w.Put<std::uint32_t>(scenario.mux_flush_equivocate);

  Bytes payload = w.Take();
  const std::uint64_t checksum = Fnv1a(payload);

  std::string token = kTokenPrefix;
  static const char* hex = "0123456789abcdef";
  auto put_byte = [&](std::uint8_t b) {
    token.push_back(hex[b >> 4]);
    token.push_back(hex[b & 0xF]);
  };
  for (std::uint8_t b : payload) put_byte(b);
  for (int i = 0; i < 8; ++i) {
    put_byte(static_cast<std::uint8_t>((checksum >> (8 * i)) & 0xFF));
  }
  return token;
}

Result<Scenario> DecodeToken(const std::string& token) {
  using R = Result<Scenario>;
  if (token.rfind(kTokenPrefix, 0) != 0) {
    return R::Err("bad token prefix (expected SBFZ1:)");
  }
  const std::string_view hex_part =
      std::string_view(token).substr(kTokenPrefixLen);
  if (hex_part.size() % 2 != 0 || hex_part.size() < 16) {
    return R::Err("token truncated");
  }
  Bytes raw;
  raw.reserve(hex_part.size() / 2);
  for (std::size_t i = 0; i < hex_part.size(); i += 2) {
    const int hi = HexDigit(hex_part[i]);
    const int lo = HexDigit(hex_part[i + 1]);
    if (hi < 0 || lo < 0) return R::Err("non-hex character in token");
    raw.push_back(static_cast<std::uint8_t>((hi << 4) | lo));
  }
  const std::size_t payload_size = raw.size() - 8;
  std::uint64_t checksum = 0;
  for (int i = 0; i < 8; ++i) {
    checksum |= static_cast<std::uint64_t>(raw[payload_size + i]) << (8 * i);
  }
  const BytesView payload(raw.data(), payload_size);
  if (Fnv1a(payload) != checksum) return R::Err("token checksum mismatch");

  BufReader r(payload);
  Scenario s;
  s.seed = r.Get<std::uint64_t>();
  s.f = r.Get<std::uint32_t>();
  s.extra = r.Get<std::uint32_t>();
  s.n_clients = r.Get<std::uint32_t>();
  s.delay_lo = r.Get<std::uint64_t>();
  s.delay_hi = r.Get<std::uint64_t>();
  // Each spec has a fixed wire size, which is GetVector's minimum.
  s.slowdowns = r.GetVector<ChannelSlowdown>(
      4 + 4 + 1 + 8, [](BufReader& br) {
        ChannelSlowdown slow;
        slow.client = br.Get<std::uint32_t>();
        slow.server = br.Get<std::uint32_t>();
        slow.client_to_server = br.Get<std::uint8_t>() != 0;
        slow.delay = br.Get<std::uint64_t>();
        return slow;
      });
  s.byz_servers = r.GetVector<ByzantineServerSpec>(4 + 1, [](BufReader& br) {
    ByzantineServerSpec spec;
    spec.server = br.Get<std::uint32_t>();
    spec.strategy = br.Get<ByzantineStrategy>();
    return spec;
  });
  s.byz_clients = r.GetVector<ByzantineClientSpec>(1 + 4, [](BufReader& br) {
    ByzantineClientSpec spec;
    spec.strategy = br.Get<ByzantineClientStrategy>();
    spec.rounds = br.Get<std::uint32_t>();
    return spec;
  });
  s.faults = r.GetVector<FaultInjection>(
      1 + 8 + 4 + 4 + 4, [](BufReader& br) {
        FaultInjection fault;
        fault.kind = br.Get<FaultKind>();
        fault.at = br.Get<std::uint64_t>();
        fault.a = br.Get<std::uint32_t>();
        fault.b = br.Get<std::uint32_t>();
        fault.count = br.Get<std::uint32_t>();
        return fault;
      });
  s.ops_per_client = r.Get<std::uint32_t>();
  s.write_percent = r.Get<std::uint32_t>();
  s.max_think_time = r.Get<std::uint64_t>();
  s.max_events = r.Get<std::uint64_t>();
  // Mux extension: pre-extension tokens end here and decode with the
  // fields at their defaults (mux off), so old replay lines keep
  // working; new tokens always carry both fields.
  if (r.remaining() > 0) {
    s.mux_window = r.Get<std::uint32_t>();
    s.mux_flush_equivocate = r.Get<std::uint32_t>();
  }
  if (!r.AtEndOk()) return R::Err("token payload malformed");

  // Enum range validation (Get<> happily materializes any byte).
  if (s.f < 1 || s.f > kMaxF || s.extra > kMaxExtra ||
      s.n_clients < 1 || s.n_clients > kMaxClients) {
    return R::Err("token topology out of range");
  }
  for (const auto& spec : s.byz_servers) {
    if (std::string_view(ByzantineStrategyName(spec.strategy)) == "unknown") {
      return R::Err("unknown byzantine server strategy in token");
    }
  }
  for (const auto& spec : s.byz_clients) {
    if (std::string_view(ByzantineClientStrategyName(spec.strategy)) ==
        "unknown") {
      return R::Err("unknown byzantine client strategy in token");
    }
  }
  for (const auto& fault : s.faults) {
    if (static_cast<std::uint8_t>(fault.kind) >
        static_cast<std::uint8_t>(FaultKind::kScrambleChannel)) {
      return R::Err("unknown fault kind in token");
    }
  }
  s.Normalize();
  return R::Ok(std::move(s));
}

}  // namespace sbft::fuzz
