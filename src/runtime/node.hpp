// Node: one site of the distributed system — its cached object pages plus
// the bookkeeping for bounded caches (LRU order, lock pins, eviction
// statistics).
#pragma once

#include <list>
#include <unordered_map>

#include "common/ids.hpp"
#include "gdo/page_map.hpp"
#include "page/page_store.hpp"
#include "runtime/lock_cache.hpp"

namespace lotec {

struct Node {
  explicit Node(NodeId id_) : id(id_) {}

  NodeId id;
  PageStore store;

  /// Objects whose lock a family at this site currently holds; their pages
  /// are not evictable.  Reference-counted (read sharing).
  std::unordered_map<ObjectId, int> pins;
  /// LRU order over cached objects, front = most recently acquired.
  std::list<ObjectId> lru;
  std::unordered_map<ObjectId, std::list<ObjectId>::iterator> lru_pos;
  std::uint64_t evicted_pages = 0;

  /// Global locks this site retains between families (callback-locking
  /// extension; empty unless config.lock_cache).
  GlobalLockCache lock_cache;

  /// Snapshot map cache (mv_read): the last directory map this site fetched
  /// per object, tagged with the commit tick it was current as of.  A
  /// reader with stamp S may reuse a cached map with tick >= S — every
  /// publication at or below S is already in it — and otherwise refreshes
  /// via GdoService::snapshot_lookup.
  struct CachedSnapshotMap {
    PageMap map;
    std::uint64_t tick = 0;
  };
  std::unordered_map<ObjectId, CachedSnapshotMap> snapshot_maps;

  void touch(ObjectId obj) {
    const auto it = lru_pos.find(obj);
    if (it != lru_pos.end()) lru.erase(it->second);
    lru.push_front(obj);
    lru_pos[obj] = lru.begin();
  }

  void pin(ObjectId obj) { ++pins[obj]; }

  void unpin(ObjectId obj) {
    const auto it = pins.find(obj);
    if (it == pins.end())
      throw UsageError("Node::unpin: object not pinned");
    if (--it->second == 0) pins.erase(it);
  }

  [[nodiscard]] bool pinned(ObjectId obj) const {
    return pins.count(obj) != 0;
  }

  void forget(ObjectId obj) {
    const auto it = lru_pos.find(obj);
    if (it != lru_pos.end()) {
      lru.erase(it->second);
      lru_pos.erase(it);
    }
  }
};

}  // namespace lotec
