// GlobalLockCache: the per-site half of the inter-family lock caching
// (callback locking) extension.
//
// When a root family releases and the directory agrees to retain the grant
// (GdoService::retain_release), the site parks the lock here together with
// the grant's page map and — for write-mode entries — the *deferred release
// report*: the exact version this site stamped on each page it committed
// while the release was being cached.  A later family at this site
// re-activates the lock with zero network messages (local_regrant); a
// conflicting remote request reaches the site through the directory's
// callback seam, which extracts the pending report via revoke().
//
// Versioning under deferral: the directory's per-object counter does not
// advance while releases are cached, so the site sequences its own commits
// as max(directory counter at re-grant, max_version) + 1.  The report keeps
// each page at the *latest* version this site gave it; flushing applies the
// records through PageMap::record_current (whose version guard makes stale
// records harmless) and advances the directory counter to max_version.
//
// Locking: the internal mutex is a leaf — it is taken with a GDO partition
// lock held (callback handler) and with a Node::store_mu held (capacity
// checks), and never the other way around.  The token scheduler runs one
// family at a time, so contention is nil.
#pragma once

#include <algorithm>
#include <cstdint>
#include <map>
#include <mutex>
#include <optional>
#include <vector>

#include "check/events.hpp"
#include "common/flat_map.hpp"
#include "common/ids.hpp"
#include "gdo/gdo_service.hpp"

namespace lotec {

/// One cached (idle) global lock held by this site between families.
struct CachedLock {
  LockMode mode = LockMode::kRead;
  /// Page map as of the last grant, kept current by the site across its
  /// deferred commits; the protocols' staleness test runs against this map
  /// after a local re-grant.
  PageMap map;
  /// Deferred release report: page -> exact version stamped at this site
  /// (write-mode entries only; a read-mode entry is always clean and can be
  /// discarded unilaterally).
  std::map<PageIndex, Lsn> report;
  /// Highest version this site assigned while deferring.
  Lsn max_version = 0;
  /// LRU stamp (capacity eviction), maintained by GlobalLockCache.
  std::uint64_t last_use = 0;

  [[nodiscard]] bool clean() const noexcept { return report.empty(); }
};

class GlobalLockCache {
 public:
  /// Attach cluster-wide tallies (cache.retained / cache.revoked); null
  /// handles (standalone tests) leave the cache untallied.
  void set_counters(MetricsCounter* retained, MetricsCounter* revoked) {
    retained_ = retained;
    revoked_ = revoked;
  }

  /// Attach the schedule checker's event sink (oracle 4: no two sites may
  /// simultaneously believe they hold a cached global write lock).  The
  /// cache reports its own puts/drops so every path — retention, callback
  /// revocation, capacity eviction, drain, crash wipe — is covered without
  /// the callers repeating themselves.
  void set_check(CheckSink* sink, NodeId site) {
    check_ = sink;
    site_ = site;
  }

  [[nodiscard]] std::optional<CachedLock> lookup(ObjectId obj) const {
    std::lock_guard<std::mutex> lock(mu_);
    const auto it = entries_.find(obj);
    if (it == entries_.end()) return std::nullopt;
    return it->second;
  }

  [[nodiscard]] bool contains(ObjectId obj) const {
    std::lock_guard<std::mutex> lock(mu_);
    return entries_.count(obj) != 0;
  }

  [[nodiscard]] std::size_t size() const {
    std::lock_guard<std::mutex> lock(mu_);
    return entries_.size();
  }

  void put(ObjectId obj, CachedLock entry) {
    std::lock_guard<std::mutex> lock(mu_);
    entry.last_use = ++use_tick_;
    const LockMode mode = entry.mode;
    entries_.insert_or_assign(obj, std::move(entry));
    if (retained_ != nullptr) retained_->add();
    if (check_ != nullptr) check_->on_cache_put(site_, obj, mode);
  }

  void erase(ObjectId obj) {
    std::lock_guard<std::mutex> lock(mu_);
    if (entries_.erase(obj) != 0 && check_ != nullptr)
      check_->on_cache_drop(site_, obj);
  }

  /// Directory callback: surrender the pending report; a write request
  /// invalidates the entry, a read request downgrades it (the map stays —
  /// the site's pages are still current until someone else writes).
  CachedFlush revoke(ObjectId obj, LockMode requested) {
    std::lock_guard<std::mutex> lock(mu_);
    const auto it = entries_.find(obj);
    if (it == entries_.end()) return {};
    CachedFlush flush = extract_locked(it->second);
    if (requested == LockMode::kWrite) {
      entries_.erase(it);
      if (check_ != nullptr) check_->on_cache_drop(site_, obj);
    } else {
      it->second.mode = LockMode::kRead;
      // A downgrade re-announces the entry at its new mode; the oracle
      // models puts as insert-or-assign.
      if (check_ != nullptr) check_->on_cache_put(site_, obj, LockMode::kRead);
    }
    if (revoked_ != nullptr) revoked_->add();
    return flush;
  }

  /// Site-initiated flush (capacity eviction / end-of-batch drain): extract
  /// the pending report and drop the entry.
  CachedFlush take_flush(ObjectId obj) {
    std::lock_guard<std::mutex> lock(mu_);
    const auto it = entries_.find(obj);
    if (it == entries_.end()) return {};
    CachedFlush flush = extract_locked(it->second);
    entries_.erase(it);
    if (check_ != nullptr) check_->on_cache_drop(site_, obj);
    return flush;
  }

  /// All cached objects, id-sorted (deterministic drain order).
  [[nodiscard]] std::vector<ObjectId> objects() const {
    std::lock_guard<std::mutex> lock(mu_);
    std::vector<ObjectId> out;
    out.reserve(entries_.size());
    for (const auto& [obj, e] : entries_) out.push_back(obj);
    std::sort(out.begin(), out.end());
    return out;
  }

  /// Cached objects, least recently used first (capacity eviction order).
  [[nodiscard]] std::vector<ObjectId> lru_order() const {
    std::lock_guard<std::mutex> lock(mu_);
    std::vector<std::pair<std::uint64_t, ObjectId>> order;
    order.reserve(entries_.size());
    for (const auto& [obj, e] : entries_) order.emplace_back(e.last_use, obj);
    std::sort(order.begin(), order.end());
    std::vector<ObjectId> out;
    out.reserve(order.size());
    for (const auto& [tick, obj] : order) out.push_back(obj);
    return out;
  }

  /// Crash wipe: the site's memory is gone, cached locks included (the
  /// directory reclaims the matching markers by lease).
  void clear() {
    std::lock_guard<std::mutex> lock(mu_);
    if (check_ != nullptr)
      for (const auto& [obj, e] : entries_) check_->on_cache_drop(site_, obj);
    entries_.clear();
  }

 private:
  static CachedFlush extract_locked(CachedLock& e) {
    CachedFlush flush;
    flush.records.assign(e.report.begin(), e.report.end());
    flush.advance_to = e.max_version;
    e.report.clear();
    e.max_version = 0;
    return flush;
  }

  mutable std::mutex mu_;
  // Hot lookup on every global-lock acquisition; iterations either sort
  // (objects, lru_order) or fan out commutative per-object drops (clear).
  FlatMap<ObjectId, CachedLock> entries_;
  std::uint64_t use_tick_ = 0;
  MetricsCounter* retained_ = nullptr;
  MetricsCounter* revoked_ = nullptr;
  CheckSink* check_ = nullptr;
  NodeId site_{};
};

}  // namespace lotec
