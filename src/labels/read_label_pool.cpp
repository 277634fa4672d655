#include "labels/read_label_pool.hpp"

#include <algorithm>
#include <bit>

#include "common/error.hpp"

namespace sbft {

namespace {

std::uint64_t Bit(ServerIndex server) { return std::uint64_t{1} << server; }

}  // namespace

ReadLabelPool::ReadLabelPool(std::size_t n_servers, std::size_t n_labels)
    : n_servers_(n_servers), n_labels_(n_labels), pending_(n_labels, 0) {
  SBFT_ASSERT(n_labels >= 2);
  SBFT_ASSERT(n_servers >= 1);
  SBFT_ASSERT(n_servers <= 64);
}

ReadLabel ReadLabelPool::PickCandidate() const {
  ReadLabel best = static_cast<ReadLabel>((last_ + 1) % n_labels_);
  std::size_t best_pending = PendingCount(best);
  for (std::size_t offset = 2; offset < n_labels_; ++offset) {
    const auto candidate =
        static_cast<ReadLabel>((last_ + offset) % n_labels_);
    const std::size_t pending = PendingCount(candidate);
    if (pending < best_pending) {
      best = candidate;
      best_pending = pending;
    }
  }
  return best;
}

void ReadLabelPool::MarkPending(ServerIndex server, ReadLabel label) {
  SBFT_ASSERT(server < n_servers_);
  SBFT_ASSERT(label < n_labels_);
  pending_[label] |= Bit(server);
}

void ReadLabelPool::ClearPending(ServerIndex server, ReadLabel label) {
  if (server >= n_servers_ || label >= n_labels_) return;  // garbage msg
  pending_[label] &= ~Bit(server);
}

bool ReadLabelPool::IsPending(ServerIndex server, ReadLabel label) const {
  SBFT_ASSERT(server < n_servers_);
  SBFT_ASSERT(label < n_labels_);
  return (pending_[label] & Bit(server)) != 0;
}

std::size_t ReadLabelPool::PendingCount(ReadLabel label) const {
  SBFT_ASSERT(label < n_labels_);
  return static_cast<std::size_t>(std::popcount(pending_[label]));
}

void ReadLabelPool::Corrupt(Rng& rng) {
  last_ = static_cast<ReadLabel>(rng());
  std::fill(pending_.begin(), pending_.end(), 0);
  for (ServerIndex server = 0; server < n_servers_; ++server) {
    for (std::size_t label = 0; label < n_labels_; ++label) {
      if (rng.NextBool(0.5)) pending_[label] |= Bit(server);
    }
  }
}

void ReadLabelPool::SanitizeState() {
  last_ %= n_labels_;
  // The matrix itself is structurally always in range; nothing else to fix.
}

}  // namespace sbft
