// SnapshotRegistry: the cluster's live snapshot stamps (mv_read extension).
//
// Every snapshot-isolated read-only family registers its start stamp here
// for the duration of an attempt.  The registry publishes the OLDEST live
// stamp through a fence pointer that every node's PageStore shares
// (PageStore::configure_retention): version-ring GC may drop a retained
// version only when the next-newer retained version already covers every
// stamp at or below the fence, so a pinned version is never reclaimed.
#pragma once

#include <cstdint>
#include <map>

#include "common/error.hpp"

namespace lotec {

class SnapshotRegistry {
 public:
  /// A stamp becomes live; the fence drops to it if it is now the oldest.
  void register_stamp(std::uint64_t stamp) {
    ++live_[stamp];
    update_fence();
  }

  /// The registering family finished (commit or retry) and releases its
  /// claim; the fence advances past the stamp once no one else shares it.
  void release_stamp(std::uint64_t stamp) {
    const auto it = live_.find(stamp);
    if (it == live_.end())
      throw UsageError("SnapshotRegistry: release of unregistered stamp");
    if (--it->second == 0) live_.erase(it);
    update_fence();
  }

  /// Oldest live stamp, or UINT64_MAX with no live snapshot (everything
  /// past the ring bound is then reclaimable).  Shared into PageStores.
  [[nodiscard]] const std::uint64_t* fence() const noexcept {
    return &fence_;
  }

  [[nodiscard]] std::uint64_t oldest() const noexcept { return fence_; }

 private:
  void update_fence() {
    fence_ = live_.empty() ? ~std::uint64_t{0} : live_.begin()->first;
  }

  /// stamp -> live reader count (ordered: begin() is the oldest stamp).
  std::map<std::uint64_t, std::uint32_t> live_;
  std::uint64_t fence_ = ~std::uint64_t{0};
};

}  // namespace lotec
