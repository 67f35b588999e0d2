#include "gdo/gdo_service.hpp"

#include <algorithm>
#include <map>

#include "check/events.hpp"
#include "common/logging.hpp"

namespace lotec {

namespace {

/// SplitMix64 finalizer: spreads consecutive object ids over partitions.
std::uint64_t mix(std::uint64_t x) noexcept {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

}  // namespace

GdoService::GdoService(Transport& transport, GdoConfig config,
                       MetricsRegistry* metrics)
    : transport_(transport), config_(config),
      partitions_(transport.num_nodes()) {
  if (partitions_.empty()) throw UsageError("GdoService: no nodes");
  if (metrics == nullptr) {
    owned_metrics_ = std::make_unique<MetricsRegistry>();
    metrics = owned_metrics_.get();
  }
  stats_.resolve(*metrics);
  ring_stats_.resolve(*metrics);
  if (config_.ring.enabled) {
    if (config_.ring.mirror_group == 0 ||
        config_.ring.mirror_group >= partitions_.size())
      throw UsageError(
          "GdoService: ring.mirror_group must lie in [1, nodes-1]; got " +
          std::to_string(config_.ring.mirror_group) + " with " +
          std::to_string(partitions_.size()) + " nodes");
    ring_ = std::make_unique<RingState>();
    HashRing initial(config_.ring.seed, config_.ring.virtual_nodes);
    for (std::size_t n = 0; n < partitions_.size(); ++n)
      initial.add_node(NodeId(static_cast<std::uint32_t>(n)));
    ring_->history.push_back(std::move(initial));
    ring_->view.assign(partitions_.size(), 0);
  }
}

NodeId GdoService::placement_of(ObjectId id) const {
  if (ring_ == nullptr) return home_of(id);
  std::lock_guard<std::mutex> lock(ring_->mu);
  return current_ring().owner_of(id);
}

NodeId GdoService::resident_of(ObjectId id) const {
  if (ring_ == nullptr) return home_of(id);
  std::lock_guard<std::mutex> lock(ring_->mu);
  const auto it = ring_->resident.find(id);
  if (it == ring_->resident.end()) return current_ring().owner_of(id);
  return NodeId(it->second);
}

std::uint64_t GdoService::ring_epoch() const {
  if (ring_ == nullptr) return 0;
  std::lock_guard<std::mutex> lock(ring_->mu);
  return ring_->epoch;
}

std::vector<NodeId> GdoService::ring_members() const {
  if (ring_ == nullptr) return {};
  std::lock_guard<std::mutex> lock(ring_->mu);
  return current_ring().members();
}

std::size_t GdoService::pending_migrations() const {
  if (ring_ == nullptr) return 0;
  std::lock_guard<std::mutex> lock(ring_->mu);
  return ring_->pending.size();
}

std::vector<NodeId> GdoService::failover_chain(ObjectId id) const {
  std::vector<NodeId> chain;
  const std::size_t n = partitions_.size();
  if (ring_ != nullptr) {
    const NodeId resident = resident_of(id);
    std::lock_guard<std::mutex> lock(ring_->mu);
    for (const NodeId cand :
         current_ring().successors(id, current_ring().num_members()))
      if (cand != resident) chain.push_back(cand);
    return chain;
  }
  const NodeId home = home_of(id);
  chain.reserve(n - 1);
  for (std::size_t k = 1; k < n; ++k)
    chain.push_back(NodeId(static_cast<std::uint32_t>(
        (home.value() + k) % n)));
  return chain;
}

std::vector<NodeId> GdoService::mirror_targets(ObjectId id,
                                               NodeId serving) const {
  std::vector<NodeId> targets;
  if (ring_ == nullptr) {
    const NodeId mirror = mirror_of(id);
    if (mirror != serving) targets.push_back(mirror);
    return targets;
  }
  std::lock_guard<std::mutex> lock(ring_->mu);
  // k distinct successors of the object's ring position, skipping the node
  // that serves the entry itself (during migration the resident can sit in
  // the owner's successor list).
  for (const NodeId cand :
       current_ring().successors(id, config_.ring.mirror_group + 1)) {
    if (cand == serving) continue;
    targets.push_back(cand);
    if (targets.size() == config_.ring.mirror_group) break;
  }
  return targets;
}

bool GdoService::ring_set_member(NodeId node, bool joined) {
  if (ring_ == nullptr)
    throw UsageError("GdoService: ring membership change without gdo.ring "
                     "enabled");
  if (!node.valid() || node.value() >= partitions_.size())
    throw UsageError("GdoService: ring member out of range");
  std::lock_guard<std::mutex> lock(ring_->mu);
  HashRing next = current_ring();
  if (joined) {
    if (!next.add_node(node)) return false;
  } else {
    if (next.num_members() <= 1 || !next.remove_node(node)) return false;
  }
  ring_->history.push_back(std::move(next));
  ++ring_->epoch;
  ring_stats_.changes->add();
  // Re-derive the migration queue: exactly the entries whose residency no
  // longer matches the new placement (the minimal set, by ring
  // monotonicity), ascending id for a deterministic pump order.
  ring_->pending.clear();
  for (const auto& [id, res] : ring_->resident)
    if (current_ring().owner_of(id).value() != res)
      ring_->pending.push_back(id);
  std::sort(ring_->pending.begin(), ring_->pending.end(),
            [](ObjectId a, ObjectId b) { return a.value() < b.value(); });
  if (check_ != nullptr) check_->on_ring_change(ring_->epoch, node, joined);
  return true;
}

NodeId GdoService::home_of(ObjectId id) const noexcept {
  return NodeId(static_cast<std::uint32_t>(mix(id.value()) %
                                           partitions_.size()));
}

NodeId GdoService::mirror_of(ObjectId id) const noexcept {
  return NodeId(static_cast<std::uint32_t>((home_of(id).value() + 1) %
                                           partitions_.size()));
}

namespace {

/// Wire payload of a whole entry handoff: lock record + page map + the
/// holder/waiter transaction lists (same unit costs as a grant).
std::uint64_t entry_wire_bytes(const GdoEntry& e) noexcept {
  std::uint64_t txns = 0;
  for (const auto& [fam, h] : e.holders) txns += h.txns.size();
  for (const WaiterFamily& w : e.waiters) txns += w.txns.size();
  return wire::kLockRecordBytes + e.page_map.wire_bytes() +
         txns * wire::kTxnNodePairBytes;
}

}  // namespace

bool GdoService::migrate_entry(ObjectId id) {
  NodeId from, to;
  {
    std::lock_guard<std::mutex> lock(ring_->mu);
    const auto it = ring_->resident.find(id);
    if (it == ring_->resident.end()) return true;  // never registered
    from = NodeId(it->second);
    to = current_ring().owner_of(id);
  }
  if (from == to) return true;  // a later change re-owned it back
  if (!transport_.reachable(to)) return false;  // target down: stay queued

  // Directory-lane span: migration is environment work, not a family's.
  ScopedSpan span(tracer_, SpanPhase::kShardMigrate, 0, to.value(),
                  id.value());
  GdoEntry moved;
  bool have_copy = false;
  if (transport_.reachable(from)) {
    Partition& src = partitions_[from.value()];
    std::lock_guard<std::mutex> lock(src.mu);
    const auto it = src.entries.find(id);
    if (it != src.entries.end()) {
      moved = it->second;
      have_copy = true;
    }
  }
  NodeId source = from;
  if (!have_copy) {
    // Source down (or wiped by a crash): recover the newest surviving
    // mirror copy from any quorum survivor, preferring the chain head on a
    // version tie (lock-state changes do not bump the version counter).
    for (const NodeId cand : failover_chain(id)) {
      if (cand == to || !transport_.reachable(cand)) continue;
      const Partition& part = partitions_[cand.value()];
      std::lock_guard<std::mutex> lock(part.mirror_mu);
      const auto it = part.mirrors.find(id);
      if (it == part.mirrors.end()) continue;
      if (!have_copy ||
          it->second.version_counter > moved.version_counter) {
        moved = it->second;
        source = cand;
        have_copy = true;
      }
    }
    // The target's own mirror map may hold the newest copy (free to adopt).
    {
      const Partition& part = partitions_[to.value()];
      std::lock_guard<std::mutex> lock(part.mirror_mu);
      const auto it = part.mirrors.find(id);
      if (it != part.mirrors.end() &&
          (!have_copy || it->second.version_counter > moved.version_counter)) {
        moved = it->second;
        source = to;
        have_copy = true;
      }
    }
    if (!have_copy) return false;  // nothing recoverable yet: stay queued
  }

  try {
    transport_.send({MessageKind::kShardMigrateRequest, to, source, id,
                     wire::kLockRecordBytes});
    transport_.send({MessageKind::kShardMigrateReply, source, to, id,
                     entry_wire_bytes(moved)});
  } catch (const Error&) {
    return false;  // an endpoint died at this tick: the entry stays put
  }

  // Handoff applied as one unit against crash events, like every directory
  // mutation: erase at the source, install at the target, re-mirror.
  FaultAtomicSection atomic(transport_.fault_hooks());
  std::uint64_t epoch = 0;
  if (source == from && transport_.reachable(from)) {
    Partition& src = partitions_[from.value()];
    std::lock_guard<std::mutex> lock(src.mu);
    src.entries.erase(id);
  }
  {
    Partition& dst = partitions_[to.value()];
    std::lock_guard<std::mutex> lock(dst.mu);
    dst.entries[id] = moved;
  }
  {
    std::lock_guard<std::mutex> lock(ring_->mu);
    ring_->resident[id] = to.value();
    epoch = ring_->epoch;
  }
  ring_stats_.migrations->add();
  if (check_ != nullptr) check_->on_shard_move(id, from, to, epoch);
  // Refresh the new owner's mirror group and retire every other copy: the
  // fenced ex-owner's mirrors freeze the moment the shard moves, and a
  // later rebuild must not resurrect one.
  replicate(id, moved);
  std::vector<NodeId> keep = mirror_targets(id, to);
  for (std::size_t p = 0; p < partitions_.size(); ++p) {
    const NodeId cand(static_cast<std::uint32_t>(p));
    if (cand == to) continue;
    if (std::find(keep.begin(), keep.end(), cand) != keep.end()) continue;
    Partition& part = partitions_[p];
    std::lock_guard<std::mutex> lock(part.mirror_mu);
    part.mirrors.erase(id);
  }
  return true;
}

std::size_t GdoService::pump_migrations(std::size_t budget) {
  if (ring_ == nullptr || budget == 0) return 0;
  std::size_t moved = 0;
  // Entries that refused to move this pump (unreachable endpoint); skipped
  // for the rest of the pump and retried on the next one.
  std::vector<std::uint64_t> blocked;
  for (std::size_t round = 0; round < budget; ++round) {
    ObjectId next;
    {
      std::lock_guard<std::mutex> lock(ring_->mu);
      // Pick the first movable entry (ascending id = deterministic order;
      // migrate_entry re-takes the ring lock, so no cursor survives it).
      bool found = false;
      for (const ObjectId id : ring_->pending) {
        if (std::find(blocked.begin(), blocked.end(), id.value()) !=
            blocked.end())
          continue;
        next = id;
        found = true;
        break;
      }
      if (!found) break;
    }
    if (migrate_entry(next)) {
      ++moved;
      std::lock_guard<std::mutex> lock(ring_->mu);
      std::erase(ring_->pending, next);
    } else {
      blocked.push_back(next.value());
    }
  }
  return moved;
}

void GdoService::drain_migrations() {
  if (ring_ == nullptr) return;
  for (;;) {
    std::size_t pending;
    {
      std::lock_guard<std::mutex> lock(ring_->mu);
      pending = ring_->pending.size();
    }
    if (pending == 0) return;
    if (pump_migrations(pending) == 0) return;  // stuck: nothing reachable
  }
}

void GdoService::ring_catch_up(ObjectId id) {
  if (ring_ == nullptr) return;
  bool queued;
  {
    std::lock_guard<std::mutex> lock(ring_->mu);
    queued = std::binary_search(
        ring_->pending.begin(), ring_->pending.end(), id,
        [](ObjectId a, ObjectId b) { return a.value() < b.value(); });
  }
  if (!queued) return;
  // Priority pull: the operation needs this shard at its true owner now.
  if (migrate_entry(id)) {
    ring_stats_.pulls->add();
    std::lock_guard<std::mutex> lock(ring_->mu);
    std::erase(ring_->pending, id);
  }
}

void GdoService::ring_prep_request(ObjectId id, NodeId requester,
                                   MessageKind kind) {
  if (ring_ == nullptr) return;
  ring_catch_up(id);
  NodeId believed;
  bool stale = false;
  {
    std::lock_guard<std::mutex> lock(ring_->mu);
    std::uint64_t& view = ring_->view[requester.value()];
    if (view != ring_->epoch) {
      believed = ring_->history[view].owner_of(id);
      view = ring_->epoch;
      stale = true;
    }
  }
  if (!stale) return;
  const NodeId actual = resident_of(id);
  // The stale view only costs messages when it would have misrouted this
  // request to a live fenced ex-owner; a down node or a correct guess is
  // caught by the ordinary routing.
  if (believed == actual || believed == requester) return;
  if (!transport_.reachable(believed)) return;
  transport_.send({kind, requester, believed, id, wire::kLockRecordBytes});
  transport_.send({MessageKind::kShardRedirect, believed, requester, id,
                   wire::kLockRecordBytes});
  if (tracer_ != nullptr)
    tracer_->instant(SpanPhase::kShardRedirect, 0, believed.value(),
                     id.value());
  ring_stats_.redirects->add();
  if (check_ != nullptr) check_->on_shard_redirect(id, believed, requester);
}

void GdoService::note_serve(ObjectId id, Route r) {
  if (ring_ == nullptr || check_ == nullptr || r.failover) return;
  std::uint64_t epoch;
  {
    std::lock_guard<std::mutex> lock(ring_->mu);
    epoch = ring_->epoch;
  }
  check_->on_shard_serve(id, NodeId(static_cast<std::uint32_t>(r.partition)),
                         epoch);
}

GdoService::Route GdoService::route(ObjectId id) const {
  if (ring_ != nullptr) {
    const NodeId resident = resident_of(id);
    if (transport_.reachable(resident)) return {resident.value(), false};
    if (config_.replicate)
      for (const NodeId cand : failover_chain(id))
        if (transport_.reachable(cand)) return {cand.value(), true};
    throw NodeUnreachable(resident);
  }
  const NodeId home = home_of(id);
  if (transport_.reachable(home)) return {home.value(), false};
  if (config_.replicate) {
    if (transport_.fault_hooks() != nullptr) {
      // Fault-engine mode: walk the replica chain (home+1, home+2, ...) so
      // service survives the mirror dying too — replicate_failover keeps a
      // copy one hop ahead of every failure.
      const std::size_t n = partitions_.size();
      for (std::size_t k = 1; k < n; ++k) {
        const NodeId cand(
            static_cast<std::uint32_t>((home.value() + k) % n));
        if (transport_.reachable(cand)) return {cand.value(), true};
      }
    } else {
      const NodeId mirror = mirror_of(id);
      if (mirror != home && transport_.reachable(mirror))
        return {mirror.value(), true};
    }
  }
  throw NodeUnreachable(home);
}

GdoEntry& GdoService::find_serving(FlatMap<ObjectId, GdoEntry>& map,
                                   ObjectId id, Route r, const char* op) {
  const auto it = map.find(id);
  if (it == map.end()) {
    if (r.failover && transport_.fault_hooks() != nullptr) {
      // The surviving chain node has no copy of this entry (yet): the
      // object's directory data is temporarily unavailable, not misused.
      // Callers treat this like the home being down and retry.
      const NodeId down = ring_ != nullptr ? resident_of(id) : home_of(id);
      throw NodeUnreachable(down, down);
    }
    throw UsageError(std::string("GdoService::") + op + ": unknown object " +
                     std::to_string(id.value()));
  }
  return it->second;
}

void GdoService::stamp_epoch(WaiterFamily& w) const {
  if (const FaultHooks* hooks = transport_.fault_hooks())
    w.epoch = hooks->crash_count(w.node);
}

void GdoService::reap_dead_locked(ObjectId id, GdoEntry& e, NodeId serving,
                                  bool ignore_leases,
                                  std::vector<Grant>& wakeups) {
  const FaultHooks* hooks = transport_.fault_hooks();
  if (hooks == nullptr) return;
  const std::uint64_t tick = hooks->now();
  // Waiters of dead incarnations can never consume a grant: purge.
  const std::size_t before = e.waiters.size();
  std::erase_if(e.waiters, [&](const WaiterFamily& w) {
    return hooks->crash_count(w.node) > w.epoch;
  });
  stats_.purged->add(before - e.waiters.size());
  // Holders of dead incarnations are reclaimed once their lease runs out.
  // Like an abort release, reclamation carries no dirty-page info: the page
  // map is left untouched (the restart path restores exactly what the map
  // attributes to the node).
  bool freed = false;
  for (auto it = e.holders.begin(); it != e.holders.end();) {
    const HolderFamily& h = it->second;
    if (hooks->crash_count(h.node) > h.epoch &&
        (ignore_leases || tick >= h.lease_expiry)) {
      if (h.mode == LockMode::kRead) --e.read_count;
      it = e.holders.erase(it);
      stats_.reclaimed->add();
      freed = true;
    } else {
      ++it;
    }
  }
  if (e.holders.empty()) {
    e.state = GdoLockState::kFree;
    e.read_count = 0;
  }
  // Cached-holder markers of dead incarnations follow the same lease
  // discipline as live holders: the site's unflushed (cached-committed)
  // updates died with it, so reclamation applies no page report — the map
  // keeps pointing at the last *published* versions, which is what the
  // restart path restores from the durable journal.
  if (!e.cached.empty()) {
    const std::size_t removed =
        std::erase_if(e.cached, [&](const CachedHolder& c) {
          return hooks->crash_count(c.node) > c.epoch &&
                 (ignore_leases || tick >= c.lease_expiry);
        });
    stats_.reclaimed->add(removed);
    if (removed > 0) freed = true;
  }
  if (freed) grant_waiters(id, e, serving, wakeups);
}

bool GdoService::marker_conflicts(const GdoEntry& e, LockMode mode) noexcept {
  for (const CachedHolder& c : e.cached)
    if (conflicts(c.mode, mode)) return true;
  return false;
}

void GdoService::apply_flush(ObjectId id, GdoEntry& e, NodeId site,
                             const std::vector<std::pair<PageIndex, Lsn>>& recs,
                             Lsn advance_to) {
  e.version_counter = std::max(e.version_counter, advance_to);
  // record_current's version guard makes replayed/stale records harmless.
  // Deferred-flush publications carry tick 0: the lock cache defers the
  // stamping itself, which is why validate() rejects lock_cache + mv_read.
  for (const auto& [p, v] : recs) {
    e.page_map.record_current(p, site, v);
    if (check_ != nullptr) check_->on_directory_stamp(id, p, v, site, 0);
  }
}

void GdoService::revoke_conflicting_cached(ObjectId id, GdoEntry& e,
                                           NodeId serving, NodeId requester,
                                           LockMode mode) {
  if (e.cached.empty()) return;
  const FaultHooks* hooks = transport_.fault_hooks();
  // The requester's own marker never needs a callback: the site consults
  // its cache before going remote, so reaching acquire() proves it already
  // flushed (or could not use) the entry.  Drop the marker silently.
  std::erase_if(e.cached,
                [&](const CachedHolder& c) { return c.node == requester; });
  // Deterministic revocation order (markers are appended in request order,
  // which can differ between runs of different configs): by node id.
  std::vector<NodeId> targets;
  for (const CachedHolder& c : e.cached)
    if (conflicts(c.mode, mode)) targets.push_back(c.node);
  std::sort(targets.begin(), targets.end(),
            [](NodeId a, NodeId b) { return a.value() < b.value(); });
  // The revocation round lives on the directory lane (family 0): it is
  // directory-side work triggered by, but not attributable to, the
  // requesting family.
  ScopedSpan round(targets.empty() ? nullptr : tracer_,
                   SpanPhase::kCallbackRound, 0, serving.value(), id.value());
  // One revocation round = one batch window: repeated callbacks from the
  // serving node (and the replica syncs apply_flush triggers) coalesce per
  // destination when batching is on.
  BatchWindow window(transport_);
  for (const NodeId site : targets) {
    const std::size_t i = e.cached_index(site);
    if (i == static_cast<std::size_t>(-1)) continue;
    CachedHolder& c = e.cached[i];
    if (hooks != nullptr && hooks->crash_count(c.node) > c.epoch) {
      // Dead incarnation: its cached updates are already lost, but the
      // lease is the only proof of death a real directory would have —
      // leave the marker to block the request until reap_dead_locked
      // collects it (immediately if the lease already ran out).
      if (hooks->now() >= c.lease_expiry) {
        e.cached.erase(e.cached.begin() + static_cast<std::ptrdiff_t>(i));
        stats_.reclaimed->add();
      }
      continue;
    }
    CachedFlush flush;
    try {
      transport_.send({MessageKind::kLockCallback, serving, site, id,
                       wire::kLockRecordBytes});
      if (callback_handler_) flush = callback_handler_(id, site, mode);
      transport_.send(
          {MessageKind::kCallbackReply, site, serving, id,
           wire::kLockRecordBytes +
               flush.records.size() * wire::kDirtyPageRecordBytes});
    } catch (const Error&) {
      if (hooks != nullptr && hooks->crash_count(site) > c.epoch) {
        // The site died at this very tick: its flush is lost with it, and
        // the crash we just witnessed *is* the proof of death the lease
        // would otherwise have to provide — reclaim the marker now.
        e.cached.erase(e.cached.begin() + static_cast<std::ptrdiff_t>(i));
        stats_.reclaimed->add();
        continue;
      }
      if (hooks == nullptr) {
        // Legacy failover (no fault engine, no leases): an unreachable
        // caching site is simply dead; discard its marker.
        e.cached.erase(e.cached.begin() + static_cast<std::ptrdiff_t>(i));
        continue;
      }
      throw;  // transient (partition/drop): the requester retries
    }
    stats_.cache_callbacks->add();
    apply_flush(id, e, site, flush.records, flush.advance_to);
    if (mode == LockMode::kRead) {
      // A read request only needs writers out of the way: the site keeps
      // its (now flushed, clean) cache entry in read mode.
      c.mode = LockMode::kRead;
    } else {
      e.cached.erase(e.cached.begin() + static_cast<std::ptrdiff_t>(i));
    }
  }
}

void GdoService::register_object(ObjectId id, std::size_t num_pages,
                                 NodeId creator) {
  if (num_pages == 0) throw UsageError("GdoService: object with zero pages");
  const NodeId home = placement_of(id);
  // Ring mode: the new entry starts resident at its placement owner (under
  // failover registration the residency still names the down owner — the
  // mirror chain serves until it returns, exactly like the static home).
  const auto note_resident = [&] {
    if (ring_ == nullptr) return;
    std::lock_guard<std::mutex> lock(ring_->mu);
    ring_->resident[id] = home.value();
  };
  FaultAtomicSection atomic(transport_.fault_hooks());
  if (!transport_.reachable(home) && config_.replicate &&
      transport_.fault_hooks() != nullptr) {
    // Home down at creation time: register at the failover serving node —
    // its mirror map is the authoritative copy until the home restarts and
    // rebuilds from it.  Inserting into the home's map instead would hand
    // the only record to the pending wipe.
    const Route r = route(id);
    const NodeId serving(static_cast<std::uint32_t>(r.partition));
    Partition& part = partitions_[r.partition];
    std::lock_guard<std::mutex> lock(part.mirror_mu);
    auto [it, inserted] = part.mirrors.try_emplace(id);
    if (!inserted)
      throw UsageError("GdoService: object " + std::to_string(id.value()) +
                       " already registered");
    GdoEntry& e = it->second;
    e.num_pages = num_pages;
    e.page_map = PageMap(num_pages, creator);
    e.caching_sites.insert(creator);
    note_resident();
    replicate_failover(id, e, serving);
    return;
  }
  Partition& part = partitions_[home.value()];
  {
    std::lock_guard<std::mutex> lock(part.mu);
    auto [it, inserted] = part.entries.try_emplace(id);
    if (!inserted)
      throw UsageError("GdoService: object " + std::to_string(id.value()) +
                       " already registered");
    GdoEntry& e = it->second;
    e.num_pages = num_pages;
    e.page_map = PageMap(num_pages, creator);
    e.caching_sites.insert(creator);
    note_resident();
    replicate(id, e);
  }
}

AcquireResult GdoService::acquire(ObjectId id, const TxnId& txn,
                                  NodeId requester, LockMode mode) {
  ring_prep_request(id, requester, MessageKind::kLockAcquireRequest);
  const Route r = route(id);
  const NodeId serving(static_cast<std::uint32_t>(r.partition));
  Partition& part = partitions_[r.partition];
  std::unique_lock<std::mutex> lock(r.failover ? part.mirror_mu : part.mu);
  auto& map = r.failover ? part.mirrors : part.entries;
  GdoEntry& e = find_serving(map, id, r, "acquire");
  note_serve(id, r);
  const FamilyId fam = txn.family;

  transport_.send({MessageKind::kLockAcquireRequest, requester, serving, id,
                   wire::kLockRecordBytes});
  // Directory-side serve span: the emulation's call is synchronous, so the
  // requester's context is still on this thread — the span lands on the
  // serving node's directory lane, causally linked to the requester's
  // gdo.round.  Everything the serve does (callback rounds, grant sends)
  // nests inside it.
  ScopedServeSpan serve(tracer_, SpanPhase::kGdoServe, serving.value(),
                        id.value());

  // The request could fail (drop, partition, crash); from here on the
  // mutation and its replica sync are one atomic unit against crash events.
  FaultAtomicSection atomic(transport_.fault_hooks());

  // Fault recovery: before serving, purge dead waiters / expired orphan
  // leases, and reclaim this family's own stale holder immediately — a new
  // request under the same FamilyId proves the incarnation that held the
  // lock is gone (the runner re-acquires from scratch after a crash).
  if (const FaultHooks* hooks = transport_.fault_hooks()) {
    std::vector<Grant> scratch;  // grants reach their sites via the hook
    reap_dead_locked(id, e, serving, /*ignore_leases=*/false, scratch);
    if (const auto self = e.holders.find(fam);
        self != e.holders.end() &&
        hooks->crash_count(self->second.node) > self->second.epoch) {
      if (self->second.mode == LockMode::kRead) --e.read_count;
      e.holders.erase(self);
      stats_.reclaimed->add();
      if (e.holders.empty()) {
        e.state = GdoLockState::kFree;
        e.read_count = 0;
      }
      grant_waiters(id, e, serving, scratch);
    }
  }

  // Lock caching: call back every cached holder whose marker conflicts with
  // this request (no-op — and no cost — while the cache is disabled and the
  // marker list stays empty).  Only lease-protected markers of crashed
  // sites can survive this; the request then queues until the lease runs
  // out.
  revoke_conflicting_cached(id, e, serving, requester, mode);
  const bool marker_blocked = marker_conflicts(e, mode);

  // --- upgrade path: family holds read, wants write ----------------------
  if (e.held_by(fam)) {
    HolderFamily& h = e.holders.at(fam);
    if (!(mode == LockMode::kWrite && h.mode == LockMode::kRead)) {
      if (transport_.fault_hooks() == nullptr)
        throw UsageError(
            "GdoService::acquire: family already holds a covering lock "
            "(intra-family requests belong to the local algorithm)");
      // Idempotent re-grant under fault injection: the holder is this same
      // live incarnation (a crashed one was reclaimed above), so the family
      // restarted an attempt without managing to release — its abort's
      // release message died with a crashed or partitioned serving node.
      // Hand the lock back and renew the lease; the covering mode stands.
      const bool new_txn =
          std::find(h.txns.begin(), h.txns.end(), txn) == h.txns.end();
      transport_.send(
          {MessageKind::kLockAcquireGrant, serving, requester, id,
           grant_payload_bytes(e, h.txns.size() + (new_txn ? 1 : 0))});
      if (new_txn) h.txns.push_back(txn);
      h.node = requester;
      if (const FaultHooks* hooks = transport_.fault_hooks())
        h.lease_expiry = hooks->now() + hooks->lease_term();
      if (!r.failover) replicate(id, e);
      else replicate_failover(id, e, serving);
      AcquireResult res;
      res.status = AcquireStatus::kGranted;
      res.page_map = e.page_map;
      return res;
    }
    if (e.holders.size() == 1 && !marker_blocked) {
      // Sole reader: upgrade in place.  The grant message goes out before
      // the entry mutates so a fault thrown mid-send leaves a clean state.
      const bool new_txn =
          std::find(h.txns.begin(), h.txns.end(), txn) == h.txns.end();
      // Upgrade grants need no page map: the family held the lock
      // throughout, so no other family can have produced newer pages.
      transport_.send({MessageKind::kLockAcquireGrant, serving, requester, id,
                       wire::kLockRecordBytes +
                           (h.txns.size() + (new_txn ? 1 : 0)) *
                               wire::kTxnNodePairBytes});
      h.mode = LockMode::kWrite;
      if (new_txn) h.txns.push_back(txn);
      if (const FaultHooks* hooks = transport_.fault_hooks())
        h.lease_expiry = hooks->now() + hooks->lease_term();  // renewal
      e.state = GdoLockState::kWrite;
      e.read_count = 0;
      if (!r.failover) replicate(id, e);
      else replicate_failover(id, e, serving);
      AcquireResult res;
      res.status = AcquireStatus::kGranted;
      res.upgrade = true;
      return res;
    }
    // Other readers present: queue the upgrade ahead of ordinary waiters
    // (behind any earlier upgraders).
    transport_.send({MessageKind::kLockAcquireQueued, serving, requester, id,
                     wire::kLockRecordBytes});
    WaiterFamily w{fam, requester, LockMode::kWrite, /*upgrade=*/true, {txn}};
    stamp_epoch(w);
    std::size_t pos = 0;
    while (pos < e.waiters.size() && e.waiters[pos].upgrade) ++pos;
    e.waiters.insert(e.waiters.begin() + static_cast<std::ptrdiff_t>(pos),
                     std::move(w));
    if (!r.failover) replicate(id, e);
    else replicate_failover(id, e, serving);
    return AcquireResult{};  // queued
  }

  // --- fresh acquisition --------------------------------------------------
  // A queued *upgrade* always blocks new readers: an upgrader needs the
  // holder set to drain to itself, so admitting fresh readers would starve
  // it (and livelock deadlock-victim retries).  Ordinary queued writers
  // block new readers only under fair_readers; the paper's Algorithm 4.2
  // grants reads whenever the lock is read-held.
  const bool upgrade_pending =
      std::any_of(e.waiters.begin(), e.waiters.end(),
                  [](const auto& w) { return w.upgrade; });
  const bool read_shared =
      e.state == GdoLockState::kRead && mode == LockMode::kRead &&
      !upgrade_pending &&
      (!config_.fair_readers ||
       std::none_of(e.waiters.begin(), e.waiters.end(), [](const auto& w) {
         return w.mode == LockMode::kWrite;
       }));

  if ((!e.held() || read_shared) && !marker_blocked) {
    // Send before mutating: a fault thrown from the grant send (requester
    // crashed at this very tick) must not leave an orphaned holder.
    transport_.send({MessageKind::kLockAcquireGrant, serving, requester, id,
                     grant_payload_bytes(e, 1)});
    WaiterFamily w{fam, requester, mode, false, {txn}};
    stamp_epoch(w);
    install_holder(e, w);
    e.caching_sites.insert(requester);
    if (!r.failover) replicate(id, e);
    else replicate_failover(id, e, serving);
    AcquireResult res;
    res.status = AcquireStatus::kGranted;
    res.page_map = e.page_map;
    return res;
  }

  // --- conflict: enqueue on the NonHolders list ---------------------------
  transport_.send({MessageKind::kLockAcquireQueued, serving, requester, id,
                   wire::kLockRecordBytes});
  const std::size_t idx = e.waiter_index(fam);
  if (idx != static_cast<std::size_t>(-1)) {
    // "IF there is a list ... for the requesting transaction's family THEN
    //  link the requesting transaction into its family's list."
    e.waiters[idx].txns.push_back(txn);
  } else {
    WaiterFamily w{fam, requester, mode, false, {txn}};
    stamp_epoch(w);
    e.waiters.push_back(std::move(w));
  }
  if (!r.failover) replicate(id, e);
  else replicate_failover(id, e, serving);
  return AcquireResult{};  // queued
}

void GdoService::install_holder(GdoEntry& e, const WaiterFamily& w) {
  HolderFamily h{w.family, w.node, w.mode, w.txns};
  if (const FaultHooks* hooks = transport_.fault_hooks()) {
    h.epoch = hooks->crash_count(w.node);
    h.lease_expiry = hooks->now() + hooks->lease_term();
  }
  e.holders.emplace(w.family, std::move(h));
  if (w.mode == LockMode::kRead) {
    ++e.read_count;
    e.state = GdoLockState::kRead;
  } else {
    e.state = GdoLockState::kWrite;
  }
}

Lsn GdoService::apply_release(ObjectId id, GdoEntry& e, FamilyId family,
                              NodeId serving, const ReleaseInfo* info,
                              std::vector<Grant>& wakeups) {
  Lsn stamped = 0;
  const auto hit = e.holders.find(family);
  if (hit == e.holders.end())
    throw UsageError("GdoService::release: family " +
                     std::to_string(family.value()) +
                     " does not hold object " + std::to_string(id.value()));
  const NodeId releasing_node = hit->second.node;

  if (info != nullptr) {
    if (info->advance_to > 0) {
      // Deferred-flush release (lock cache): the site stamped versions
      // itself while releases were cached; apply its explicit records and
      // catch the counter up instead of minting a fresh version.
      apply_flush(id, e, releasing_node, info->stamped, info->advance_to);
      stamped = info->advance_to;
    }
    if (!info->dirty.empty()) {
      stamped = ++e.version_counter;
      e.page_map.record_update(info->dirty, releasing_node, stamped,
                               info->commit_tick);
      if (check_ != nullptr)
        for (const PageIndex p : info->dirty.to_vector())
          check_->on_directory_stamp(id, p, stamped, releasing_node,
                                     info->commit_tick);
    }
    for (const auto& [p, v] : info->current)
      e.page_map.record_current(p, releasing_node, v);
  }

  if (hit->second.mode == LockMode::kRead) --e.read_count;
  e.holders.erase(hit);
  if (e.holders.empty()) e.state = GdoLockState::kFree;

  // Defensive: a releasing (aborting) family must not linger in the queue.
  std::erase_if(e.waiters,
                [&](const WaiterFamily& w) { return w.family == family; });

  grant_waiters(id, e, serving, wakeups);
  return stamped;
}

ReleaseResult GdoService::release_family(ObjectId id, FamilyId family,
                                         NodeId node,
                                         const ReleaseInfo* info) {
  ring_prep_request(id, node, MessageKind::kLockReleaseRequest);
  const Route r = route(id);
  const NodeId serving(static_cast<std::uint32_t>(r.partition));
  Partition& part = partitions_[r.partition];
  std::unique_lock<std::mutex> lock(r.failover ? part.mirror_mu : part.mu);
  auto& map = r.failover ? part.mirrors : part.entries;
  GdoEntry& e = find_serving(map, id, r, "release_family");
  note_serve(id, r);

  const std::uint64_t records = info ? info->record_count() : 0;
  transport_.send({MessageKind::kLockReleaseRequest, node, serving, id,
                   wire::kLockRecordBytes +
                       records * wire::kDirtyPageRecordBytes});
  ScopedServeSpan serve(tracer_, SpanPhase::kGdoServe, serving.value(),
                        id.value());
  if (config_.release_acks)
    transport_.send({MessageKind::kLockReleaseAck, serving, node, id, 0});

  // Release applied + waiters granted + replica synced: atomic against
  // crash events (the request/ack above stay interruptible).
  FaultAtomicSection atomic(transport_.fault_hooks());

  ReleaseResult res;
  res.stamped_version = apply_release(id, e, family, serving, info,
                                      res.wakeups);
  if (!r.failover) replicate(id, e);
  else replicate_failover(id, e, serving);
  return res;
}

BatchReleaseResult GdoService::release_batch(
    FamilyId family, NodeId node, const std::vector<ReleaseItem>& items) {
  // Releases are charged per object: attributing a combined message to a
  // single object would skew the per-object byte accounting the Figure 2-5
  // experiments report, and the locking traffic is identical across the
  // compared protocols anyway.  The batch window below changes none of
  // that — it only lets the per-object release/replica-sync messages bound
  // for the same destination share one physical frame when
  // net.batch_messages is on.
  BatchWindow window(transport_);
  BatchReleaseResult res;
  for (const auto& item : items) {
    ReleaseResult one = release_family(item.object, family, node,
                                       item.info ? &*item.info : nullptr);
    res.stamped_versions[item.object] = one.stamped_version;
    for (auto& g : one.wakeups) res.wakeups.push_back(std::move(g));
  }
  return res;
}

void GdoService::grant_waiters(ObjectId id, GdoEntry& e, NodeId serving,
                               std::vector<Grant>& out) {
  const FaultHooks* hooks = transport_.fault_hooks();
  if (hooks != nullptr) {
    // Never grant to a dead incarnation: its site cannot consume the wakeup.
    const std::size_t before = e.waiters.size();
    std::erase_if(e.waiters, [&](const WaiterFamily& w) {
      return hooks->crash_count(w.node) > w.epoch;
    });
    stats_.purged->add(before - e.waiters.size());
  }
  const auto emit = [&](Grant g) {
    // Stamp the directory-side causal context (the enclosing gdo.serve) so
    // the woken family's lock.grant instant links back across lanes.
    if (tracer_ != nullptr && tracer_->enabled())
      g.trace = tracer_->current_context();
    if (grant_delivery_) grant_delivery_(g);
    out.push_back(std::move(g));
  };
  // Each branch sends the wakeup *before* mutating the entry: a fault event
  // can crash the waiter's node at the send's very tick, and the grant must
  // then not have happened — the waiter is purged and the loop continues.
  const auto send_wakeup = [&](const WaiterFamily& w,
                               std::uint64_t payload) -> bool {
    try {
      transport_.send(
          {MessageKind::kLockGrantWakeup, serving, w.node, id, payload});
      return true;
    } catch (const Error&) {
      if (hooks == nullptr) throw;
      return false;
    }
  };
  while (!e.waiters.empty()) {
    WaiterFamily& w = e.waiters.front();
    // A lingering cached-holder marker (only possible for a crashed site
    // still inside its lease — live conflicts are revoked before a request
    // may queue) blocks grants the same way a live holder would.
    if (marker_conflicts(e, w.upgrade ? LockMode::kWrite : w.mode)) break;
    if (w.upgrade) {
      const bool sole_reader =
          e.holders.size() == 1 && e.holders.count(w.family) == 1;
      if (!sole_reader) break;
      if (!send_wakeup(w, wire::kLockRecordBytes +
                              w.txns.size() * wire::kTxnNodePairBytes)) {
        e.waiters.pop_front();
        stats_.purged->add();
        continue;
      }
      HolderFamily& h = e.holders.at(w.family);
      h.mode = LockMode::kWrite;
      for (const TxnId& t : w.txns)
        if (std::find(h.txns.begin(), h.txns.end(), t) == h.txns.end())
          h.txns.push_back(t);
      if (hooks != nullptr)
        h.lease_expiry = hooks->now() + hooks->lease_term();
      e.state = GdoLockState::kWrite;
      e.read_count = 0;
      emit(Grant{w.family, w.node, w.txns.front(), LockMode::kWrite,
                 /*upgrade=*/true, PageMap{}, id});
      e.waiters.pop_front();
      break;  // write lock granted; nothing further is grantable
    }
    if (w.mode == LockMode::kWrite) {
      if (!e.holders.empty()) break;
      if (!send_wakeup(w, grant_payload_bytes(e, w.txns.size()))) {
        e.waiters.pop_front();
        stats_.purged->add();
        continue;
      }
      Grant g{w.family, w.node, w.txns.front(), LockMode::kWrite,
              /*upgrade=*/false, e.page_map, id};
      install_holder(e, w);
      e.caching_sites.insert(w.node);
      emit(std::move(g));
      e.waiters.pop_front();
      break;
    }
    // Read waiter.
    if (!(e.holders.empty() || e.state == GdoLockState::kRead)) break;
    if (!send_wakeup(w, grant_payload_bytes(e, w.txns.size()))) {
      e.waiters.pop_front();
      stats_.purged->add();
      continue;
    }
    Grant g{w.family, w.node, w.txns.front(), LockMode::kRead,
            /*upgrade=*/false, e.page_map, id};
    install_holder(e, w);
    e.caching_sites.insert(w.node);
    emit(std::move(g));
    e.waiters.pop_front();
    if (!config_.grant_read_batches) break;
  }
}

std::vector<Grant> GdoService::cancel_waiter(ObjectId id, FamilyId family) {
  ring_catch_up(id);
  const Route r = route(id);
  const NodeId serving(static_cast<std::uint32_t>(r.partition));
  Partition& part = partitions_[r.partition];
  std::unique_lock<std::mutex> lock(r.failover ? part.mirror_mu : part.mu);
  auto& map = r.failover ? part.mirrors : part.entries;
  FaultAtomicSection atomic(transport_.fault_hooks());
  GdoEntry& e = find_serving(map, id, r, "cancel_waiter");
  note_serve(id, r);
  std::erase_if(e.waiters,
                [&](const WaiterFamily& w) { return w.family == family; });
  std::vector<Grant> wakeups;
  grant_waiters(id, e, serving, wakeups);
  if (!r.failover) replicate(id, e);
  else replicate_failover(id, e, serving);
  return wakeups;
}

bool GdoService::retain_release(ObjectId id, FamilyId family, NodeId node) {
  ring_catch_up(id);
  const Route r = route(id);
  const NodeId serving(static_cast<std::uint32_t>(r.partition));
  Partition& part = partitions_[r.partition];
  std::unique_lock<std::mutex> lock(r.failover ? part.mirror_mu : part.mu);
  auto& map = r.failover ? part.mirrors : part.entries;
  GdoEntry& e = find_serving(map, id, r, "retain_release");
  note_serve(id, r);
  const auto hit = e.holders.find(family);
  if (hit == e.holders.end()) return false;
  // Retention must never starve a queued family: with anyone waiting the
  // site releases normally (and the waiters are granted).
  if (!e.waiters.empty()) return false;
  FaultAtomicSection atomic(transport_.fault_hooks());
  const LockMode mode = hit->second.mode;
  if (mode == LockMode::kRead) --e.read_count;
  e.holders.erase(hit);
  if (e.holders.empty()) {
    e.state = GdoLockState::kFree;
    e.read_count = 0;
  }
  CachedHolder c{node, mode, 0, 0};
  if (const FaultHooks* hooks = transport_.fault_hooks()) {
    c.epoch = hooks->crash_count(node);
    c.lease_expiry = hooks->now() + hooks->lease_term();
  }
  const std::size_t i = e.cached_index(node);
  if (i == static_cast<std::size_t>(-1)) {
    e.cached.push_back(c);
  } else {
    // The site already has a marker (another of its families retained
    // earlier): keep the strongest mode and renew the lease.
    CachedHolder& old = e.cached[i];
    if (c.mode == LockMode::kWrite) old.mode = LockMode::kWrite;
    old.epoch = c.epoch;
    old.lease_expiry = c.lease_expiry;
  }
  if (!r.failover) replicate(id, e);
  else replicate_failover(id, e, serving);
  return true;
}

std::optional<LockMode> GdoService::local_regrant(ObjectId id,
                                                  const TxnId& txn,
                                                  NodeId node,
                                                  LockMode wanted) {
  ring_catch_up(id);
  const Route r = route(id);
  const NodeId serving(static_cast<std::uint32_t>(r.partition));
  Partition& part = partitions_[r.partition];
  std::unique_lock<std::mutex> lock(r.failover ? part.mirror_mu : part.mu);
  auto& map = r.failover ? part.mirrors : part.entries;
  GdoEntry& e = find_serving(map, id, r, "local_regrant");
  note_serve(id, r);
  const std::size_t i = e.cached_index(node);
  if (i == static_cast<std::size_t>(-1)) return std::nullopt;
  const CachedHolder c = e.cached[i];
  FaultHooks* const hooks = transport_.fault_hooks();
  // A marker left by a dead incarnation of this same site is unusable (the
  // crash wiped the cached pages); fall back to a full acquire, which
  // reclaims it.
  if (hooks != nullptr && hooks->crash_count(node) != c.epoch)
    return std::nullopt;
  // The cached mode must cover the request — regranting at the *cached*
  // mode (not the wanted one) keeps later intra-family upgrades on the
  // standard path.
  if (wanted == LockMode::kWrite && c.mode == LockMode::kRead)
    return std::nullopt;
  FaultAtomicSection atomic(hooks);
  e.cached.erase(e.cached.begin() + static_cast<std::ptrdiff_t>(i));
  WaiterFamily w{txn.family, node, c.mode, /*upgrade=*/false, {txn}};
  stamp_epoch(w);
  install_holder(e, w);
  e.caching_sites.insert(node);
  stats_.cache_regrants->add();
  if (!r.failover) replicate(id, e);
  else replicate_failover(id, e, serving);
  return c.mode;
}

void GdoService::forget_cached(ObjectId id, NodeId node) {
  ring_catch_up(id);
  const Route r = route(id);
  const NodeId serving(static_cast<std::uint32_t>(r.partition));
  Partition& part = partitions_[r.partition];
  std::unique_lock<std::mutex> lock(r.failover ? part.mirror_mu : part.mu);
  auto& map = r.failover ? part.mirrors : part.entries;
  GdoEntry& e = find_serving(map, id, r, "forget_cached");
  note_serve(id, r);
  const std::size_t i = e.cached_index(node);
  if (i == static_cast<std::size_t>(-1)) return;
  FaultAtomicSection atomic(transport_.fault_hooks());
  e.cached.erase(e.cached.begin() + static_cast<std::ptrdiff_t>(i));
  if (!r.failover) replicate(id, e);
  else replicate_failover(id, e, serving);
}

void GdoService::flush_cached(
    ObjectId id, NodeId node,
    const std::vector<std::pair<PageIndex, Lsn>>& records, Lsn advance_to) {
  ring_prep_request(id, node, MessageKind::kLockReleaseRequest);
  const Route r = route(id);
  const NodeId serving(static_cast<std::uint32_t>(r.partition));
  Partition& part = partitions_[r.partition];
  std::unique_lock<std::mutex> lock(r.failover ? part.mirror_mu : part.mu);
  auto& map = r.failover ? part.mirrors : part.entries;
  GdoEntry& e = find_serving(map, id, r, "flush_cached");
  note_serve(id, r);
  // The deferred release finally goes on the wire, at the same cost it
  // would have had at root-commit time.
  transport_.send(
      {MessageKind::kLockReleaseRequest, node, serving, id,
       wire::kLockRecordBytes +
           records.size() * wire::kDirtyPageRecordBytes});
  ScopedServeSpan serve(tracer_, SpanPhase::kGdoServe, serving.value(),
                        id.value());
  if (config_.release_acks)
    transport_.send({MessageKind::kLockReleaseAck, serving, node, id, 0});
  FaultAtomicSection atomic(transport_.fault_hooks());
  apply_flush(id, e, node, records, advance_to);
  const std::size_t i = e.cached_index(node);
  if (i != static_cast<std::size_t>(-1))
    e.cached.erase(e.cached.begin() + static_cast<std::ptrdiff_t>(i));
  stats_.cache_flushes->add();
  if (!r.failover) replicate(id, e);
  else replicate_failover(id, e, serving);
}

PageMap GdoService::lookup_page_map(ObjectId id, NodeId requester) {
  ring_prep_request(id, requester, MessageKind::kGdoLookupRequest);
  const Route r = route(id);
  const NodeId serving(static_cast<std::uint32_t>(r.partition));
  Partition& part = partitions_[r.partition];
  std::unique_lock<std::mutex> lock(r.failover ? part.mirror_mu : part.mu);
  auto& map = r.failover ? part.mirrors : part.entries;
  const GdoEntry& e = find_serving(map, id, r, "lookup_page_map");
  note_serve(id, r);
  transport_.send({MessageKind::kGdoLookupRequest, requester, serving, id,
                   wire::kLockRecordBytes});
  ScopedServeSpan serve(tracer_, SpanPhase::kGdoServe, serving.value(),
                        id.value());
  transport_.send({MessageKind::kGdoLookupReply, serving, requester, id,
                   e.page_map.wire_bytes()});
  return e.page_map;
}

GdoService::SnapshotMap GdoService::snapshot_lookup(ObjectId id,
                                                    NodeId requester) {
  const Route r = route(id);
  const NodeId serving(static_cast<std::uint32_t>(r.partition));
  Partition& part = partitions_[r.partition];
  std::unique_lock<std::mutex> lock(r.failover ? part.mirror_mu : part.mu);
  auto& map = r.failover ? part.mirrors : part.entries;
  const GdoEntry& e = find_serving(map, id, r, "snapshot_lookup");
  // Pure directory read: no lock state consulted or mutated, no queueing
  // behind writers — the whole point of the snapshot path.  The reply
  // carries the map (same entry format as a grant payload) plus the commit
  // tick it is current as of, riding in the reply header.
  transport_.send({MessageKind::kSnapshotMapRequest, requester, serving, id,
                   wire::kLockRecordBytes});
  ScopedServeSpan serve(tracer_, SpanPhase::kGdoServe, serving.value(),
                        id.value());
  transport_.send({MessageKind::kSnapshotMapReply, serving, requester, id,
                   e.page_map.wire_bytes()});
  return SnapshotMap{e.page_map, current_commit_tick()};
}

std::vector<NodeId> GdoService::caching_sites(ObjectId id) const {
  const Route r = route(id);
  const Partition& part = partitions_[r.partition];
  std::unique_lock<std::mutex> lock(r.failover ? part.mirror_mu : part.mu);
  const auto& map = r.failover ? part.mirrors : part.entries;
  const GdoEntry& e = const_cast<GdoService*>(this)->find_serving(
      const_cast<FlatMap<ObjectId, GdoEntry>&>(map), id, r, "caching_sites");
  return {e.caching_sites.begin(), e.caching_sites.end()};
}

void GdoService::note_caching_site(ObjectId id, NodeId node) {
  ring_catch_up(id);
  const Route r = route(id);
  Partition& part = partitions_[r.partition];
  std::unique_lock<std::mutex> lock(r.failover ? part.mirror_mu : part.mu);
  auto& map = r.failover ? part.mirrors : part.entries;
  find_serving(map, id, r, "note_caching_site").caching_sites.insert(node);
}

std::vector<GdoService::WaitEdge> GdoService::wait_edges() const {
  std::vector<WaitEdge> edges;
  for (const auto& part : partitions_) {
    std::lock_guard<std::mutex> lock(part.mu);
    for (const auto& [id, e] : part.entries) {
      for (std::size_t wi = 0; wi < e.waiters.size(); ++wi) {
        const WaiterFamily& w = e.waiters[wi];
        // Wait on conflicting holders (an upgrader waits on every *other*
        // holder regardless of mode — they must all drain first).
        for (const auto& [fam, h] : e.holders) {
          if (fam == w.family) continue;
          if (w.upgrade || conflicts(h.mode, w.mode))
            edges.push_back({w.family, fam, id});
        }
        // Wait on conflicting earlier-queued waiters (FIFO grant order).
        for (std::size_t wj = 0; wj < wi; ++wj) {
          const WaiterFamily& earlier = e.waiters[wj];
          if (earlier.family == w.family) continue;
          if (conflicts(earlier.mode, w.mode))
            edges.push_back({w.family, earlier.family, id});
        }
      }
    }
  }
  return edges;
}

GdoEntry GdoService::snapshot(ObjectId id) const {
  const Route r = route(id);
  const Partition& part = partitions_[r.partition];
  std::unique_lock<std::mutex> lock(r.failover ? part.mirror_mu : part.mu);
  const auto& map = r.failover ? part.mirrors : part.entries;
  return const_cast<GdoService*>(this)->find_serving(
      const_cast<FlatMap<ObjectId, GdoEntry>&>(map), id, r, "snapshot");
}

Lsn GdoService::version_counter(ObjectId id) const {
  const Route r = route(id);
  const Partition& part = partitions_[r.partition];
  std::unique_lock<std::mutex> lock(r.failover ? part.mirror_mu : part.mu);
  const auto& map = r.failover ? part.mirrors : part.entries;
  return const_cast<GdoService*>(this)
      ->find_serving(const_cast<FlatMap<ObjectId, GdoEntry>&>(map), id, r,
                     "version_counter")
      .version_counter;
}

std::size_t GdoService::num_objects() const {
  std::size_t n = 0;
  for (const auto& part : partitions_) {
    std::lock_guard<std::mutex> lock(part.mu);
    n += part.entries.size();
  }
  return n;
}

std::vector<ObjectId> GdoService::objects_homed_at(NodeId node) const {
  if (!node.valid() || node.value() >= partitions_.size())
    throw UsageError("GdoService: node id out of range");
  const Partition& part = partitions_[node.value()];
  std::lock_guard<std::mutex> lock(part.mu);
  std::vector<ObjectId> out;
  out.reserve(part.entries.size());
  for (const auto& [id, e] : part.entries) out.push_back(id);
  return out;
}

void GdoService::replicate(ObjectId id, const GdoEntry& entry) {
  if (!config_.replicate) return;
  if (ring_ != nullptr) {
    // Quorum mirror group: sync the mutation to the k ring successors and
    // count acks.  k+1 copies exist (owner + group); the mutation is
    // quorum-committed on ceil((k+1)/2) acks — the owner's own copy always
    // counts, so k=1 reproduces the classic best-effort single mirror.
    const NodeId serving = resident_of(id);
    const std::size_t required = (config_.ring.mirror_group + 2) / 2;
    std::size_t acks = 1;  // the serving owner's copy
    for (const NodeId t : mirror_targets(id, serving)) {
      if (!transport_.reachable(t)) continue;
      try {
        transport_.send({MessageKind::kGdoReplicaSync, serving, t, id,
                         wire::kLockRecordBytes + entry.page_map.wire_bytes()});
        transport_.send({MessageKind::kGdoReplicaAck, t, serving, id, 0});
      } catch (const Error&) {
        continue;  // endpoint crashed mid-sync: one ack short
      }
      Partition& tp = partitions_[t.value()];
      std::lock_guard<std::mutex> lock(tp.mirror_mu);
      tp.mirrors[id] = entry;
      ++acks;
    }
    if (acks >= required) ring_stats_.quorum_commits->add();
    else ring_stats_.quorum_degrades->add();
    return;
  }
  const NodeId home = home_of(id);
  const NodeId mirror = mirror_of(id);
  if (mirror == home) return;
  if (!transport_.reachable(mirror)) return;  // mirror down: degrade
  try {
    transport_.send({MessageKind::kGdoReplicaSync, home, mirror, id,
                     wire::kLockRecordBytes + entry.page_map.wire_bytes()});
    transport_.send({MessageKind::kGdoReplicaAck, mirror, home, id, 0});
  } catch (const Error&) {
    // A fault event crashed an endpoint at this very tick: degrade exactly
    // as if the mirror had been down before the sync (best-effort copy).
    // Replication runs after the mutation, so the exception must not
    // propagate and unwind an already-applied release/grant.
    return;
  }
  Partition& mpart = partitions_[mirror.value()];
  std::lock_guard<std::mutex> lock(mpart.mirror_mu);
  mpart.mirrors[id] = entry;
}

void GdoService::replicate_failover(ObjectId id, const GdoEntry& entry,
                                    NodeId serving) {
  if (!config_.replicate || transport_.fault_hooks() == nullptr) return;
  if (ring_ != nullptr) {
    // Copy the mutation one hop further down the object's ring chain (the
    // chain already excludes the dead resident), so a second failure still
    // finds a complete entry.
    for (const NodeId cand : failover_chain(id)) {
      if (cand == serving || !transport_.reachable(cand)) continue;
      try {
        transport_.send({MessageKind::kGdoReplicaSync, serving, cand, id,
                         wire::kLockRecordBytes + entry.page_map.wire_bytes()});
        transport_.send({MessageKind::kGdoReplicaAck, cand, serving, id, 0});
      } catch (const Error&) {
        continue;  // candidate crashed mid-sync: try the next survivor
      }
      Partition& cpart = partitions_[cand.value()];
      std::lock_guard<std::mutex> lock(cpart.mirror_mu);
      cpart.mirrors[id] = entry;
      return;
    }
    return;
  }
  const std::size_t n = partitions_.size();
  for (std::size_t k = 1; k < n; ++k) {
    const NodeId cand(
        static_cast<std::uint32_t>((serving.value() + k) % n));
    if (cand == home_of(id)) continue;  // the dead home is no backup
    if (!transport_.reachable(cand)) continue;
    try {
      transport_.send({MessageKind::kGdoReplicaSync, serving, cand, id,
                       wire::kLockRecordBytes + entry.page_map.wire_bytes()});
      transport_.send({MessageKind::kGdoReplicaAck, cand, serving, id, 0});
    } catch (const Error&) {
      continue;  // candidate crashed mid-sync: try the next survivor
    }
    // Both mirror maps may be touched only under their own mirror_mu; under
    // the token scheduler (required with fault hooks) this nesting is safe.
    Partition& cpart = partitions_[cand.value()];
    std::lock_guard<std::mutex> lock(cpart.mirror_mu);
    cpart.mirrors[id] = entry;
    return;
  }
}

void GdoService::on_node_crash(NodeId node) {
  if (!node.valid() || node.value() >= partitions_.size())
    throw UsageError("GdoService: node id out of range");
  Partition& part = partitions_[node.value()];
  {
    std::lock_guard<std::mutex> lock(part.mu);
    part.entries.clear();
  }
  {
    std::lock_guard<std::mutex> lock(part.mirror_mu);
    part.mirrors.clear();
  }
  // The dead site caches nothing and cannot receive eager pushes.
  for (Partition& p : partitions_) {
    {
      std::lock_guard<std::mutex> lock(p.mu);
      for (auto& [id, e] : p.entries) e.caching_sites.erase(node);
    }
    {
      std::lock_guard<std::mutex> lock(p.mirror_mu);
      for (auto& [id, e] : p.mirrors) e.caching_sites.erase(node);
    }
  }
}

std::size_t GdoService::rebuild_node(NodeId node) {
  if (!node.valid() || node.value() >= partitions_.size())
    throw UsageError("GdoService: node id out of range");
  if (!config_.replicate) return 0;
  Partition& mine = partitions_[node.value()];
  if (ring_ != nullptr) return rebuild_node_ring(node);

  // 1. Recover the entries homed here from surviving mirror copies anywhere
  //    in the chain (re-mirroring may have moved them past home+1).  Newest
  //    copy wins, measured by the entry's commit version counter; the scan
  //    walks the chain outward from the home so that on a version tie the
  //    copy nearest the home — the canonical mirror, which every normal
  //    mutation refreshes — beats a stale failover copy further out (lock
  //    state changes do not bump the version counter, so ties are common).
  std::map<ObjectId, std::pair<GdoEntry, NodeId>> best;
  for (std::size_t k = 1; k < partitions_.size(); ++k) {
    const NodeId holder(static_cast<std::uint32_t>(
        (node.value() + k) % partitions_.size()));
    if (!transport_.reachable(holder)) continue;
    const Partition& part = partitions_[holder.value()];
    std::lock_guard<std::mutex> lock(part.mirror_mu);
    for (const auto& [id, e] : part.mirrors) {
      if (home_of(id) != node) continue;
      const auto it = best.find(id);
      if (it == best.end() ||
          e.version_counter > it->second.first.version_counter)
        best[id] = {e, holder};
    }
  }
  std::size_t rebuilt = 0;
  for (auto& [id, copy] : best) {
    try {
      transport_.send({MessageKind::kGdoRebuildRequest, node, copy.second, id,
                       wire::kLockRecordBytes});
      transport_.send(
          {MessageKind::kGdoRebuildReply, copy.second, node, id,
           wire::kLockRecordBytes + copy.first.page_map.wire_bytes()});
    } catch (const Error&) {
      continue;  // source died mid-rebuild; the entry stays missing for now
    }
    {
      std::lock_guard<std::mutex> lock(mine.mu);
      mine.entries[id] = copy.first;
    }
    // Freshen the canonical mirror from the adopted copy and drop every
    // other chain copy: they freeze the moment the home serves again, and
    // a later rebuild must not be able to resurrect one.
    replicate(id, copy.first);
    const NodeId canon = mirror_of(id);
    for (std::size_t p = 0; p < partitions_.size(); ++p) {
      if (p == node.value() || p == canon.value()) continue;
      Partition& part = partitions_[p];
      std::lock_guard<std::mutex> lock(part.mirror_mu);
      part.mirrors.erase(id);
    }
    ++rebuilt;
  }

  // 2. Refresh this node's own mirror copies from the live homes, so it can
  //    serve as a failover target again.
  for (std::size_t p = 0; p < partitions_.size(); ++p) {
    const NodeId home(static_cast<std::uint32_t>(p));
    if (home == node || !transport_.reachable(home)) continue;
    std::map<ObjectId, GdoEntry> to_mirror;
    {
      const Partition& part = partitions_[p];
      std::lock_guard<std::mutex> lock(part.mu);
      for (const auto& [id, e] : part.entries)
        if (mirror_of(id) == node) to_mirror.emplace(id, e);
    }
    for (auto& [id, e] : to_mirror) {
      try {
        transport_.send({MessageKind::kGdoRebuildRequest, node, home, id,
                         wire::kLockRecordBytes});
        transport_.send({MessageKind::kGdoRebuildReply, home, node, id,
                         wire::kLockRecordBytes + e.page_map.wire_bytes()});
      } catch (const Error&) {
        continue;
      }
      std::lock_guard<std::mutex> lock(mine.mirror_mu);
      mine.mirrors[id] = std::move(e);
    }
  }

  // 3. Step 2 could not consult homes that are currently down — yet this
  //    node mirrors some of their objects, and the next failover (or the
  //    next double failover after another crash) will route requests here.
  //    Without a copy it would serve them blind: find_serving turns every
  //    request into a transient NodeUnreachable until the home returns.
  //    Adopt the newest surviving chain copy for each such object (same
  //    version/tie discipline as step 1: chain-outward from the home).
  if (transport_.fault_hooks() != nullptr) {
    struct Candidate {
      GdoEntry entry;
      NodeId holder;
      std::size_t chain_pos = 0;  ///< holder's distance from the home
    };
    std::map<ObjectId, Candidate> orphaned;
    const std::size_t n = partitions_.size();
    for (std::size_t k = 1; k < n; ++k) {
      const NodeId holder(
          static_cast<std::uint32_t>((node.value() + k) % n));
      if (!transport_.reachable(holder)) continue;
      const Partition& part = partitions_[holder.value()];
      std::lock_guard<std::mutex> lock(part.mirror_mu);
      for (const auto& [id, e] : part.mirrors) {
        if (mirror_of(id) != node) continue;
        const NodeId home = home_of(id);
        if (transport_.reachable(home)) continue;  // step 2 covered it
        const std::size_t pos = (holder.value() + n - home.value()) % n;
        const auto it = orphaned.find(id);
        if (it == orphaned.end() ||
            e.version_counter > it->second.entry.version_counter ||
            (e.version_counter == it->second.entry.version_counter &&
             pos < it->second.chain_pos))
          orphaned[id] = {e, holder, pos};
      }
    }
    for (auto& [id, c] : orphaned) {
      try {
        transport_.send({MessageKind::kGdoRebuildRequest, node, c.holder, id,
                         wire::kLockRecordBytes});
        transport_.send(
            {MessageKind::kGdoRebuildReply, c.holder, node, id,
             wire::kLockRecordBytes + c.entry.page_map.wire_bytes()});
      } catch (const Error&) {
        continue;
      }
      std::lock_guard<std::mutex> lock(mine.mirror_mu);
      mine.mirrors[id] = std::move(c.entry);
    }
  }
  return rebuilt;
}

std::size_t GdoService::rebuild_node_ring(NodeId node) {
  Partition& mine = partitions_[node.value()];

  // 1. Re-adopt the entries resident here from the surviving mirror copies.
  //    Newest version wins; on a tie the copy earliest in the object's ring
  //    chain (the canonical first mirror) beats a failover copy further out.
  struct Candidate {
    GdoEntry entry;
    NodeId holder;
    std::size_t chain_pos = 0;
  };
  std::map<ObjectId, Candidate> best;
  for (std::size_t p = 0; p < partitions_.size(); ++p) {
    const NodeId holder(static_cast<std::uint32_t>(p));
    if (holder == node || !transport_.reachable(holder)) continue;
    // Collect ids first: chain-position lookup takes the ring lock, which
    // must nest inside the partition locks, not interleave with them.
    std::vector<std::pair<ObjectId, GdoEntry>> copies;
    {
      const Partition& part = partitions_[p];
      std::lock_guard<std::mutex> lock(part.mirror_mu);
      for (const auto& [id, e] : part.mirrors)
        if (resident_of(id) == node) copies.emplace_back(id, e);
    }
    for (auto& [id, e] : copies) {
      const std::vector<NodeId> chain = failover_chain(id);
      const auto at = std::find(chain.begin(), chain.end(), holder);
      const std::size_t pos = static_cast<std::size_t>(
          at == chain.end() ? chain.size() : at - chain.begin());
      const auto it = best.find(id);
      if (it == best.end() ||
          e.version_counter > it->second.entry.version_counter ||
          (e.version_counter == it->second.entry.version_counter &&
           pos < it->second.chain_pos))
        best[id] = {std::move(e), holder, pos};
    }
  }
  std::size_t rebuilt = 0;
  for (auto& [id, c] : best) {
    try {
      transport_.send({MessageKind::kGdoRebuildRequest, node, c.holder, id,
                       wire::kLockRecordBytes});
      transport_.send({MessageKind::kGdoRebuildReply, c.holder, node, id,
                       wire::kLockRecordBytes + c.entry.page_map.wire_bytes()});
    } catch (const Error&) {
      continue;  // source died mid-rebuild; the entry stays missing for now
    }
    {
      std::lock_guard<std::mutex> lock(mine.mu);
      mine.entries[id] = c.entry;
    }
    // Refresh the quorum group from the adopted copy and retire every other
    // chain copy so a later rebuild cannot resurrect one.
    replicate(id, c.entry);
    const std::vector<NodeId> keep = mirror_targets(id, node);
    for (std::size_t p = 0; p < partitions_.size(); ++p) {
      const NodeId cand(static_cast<std::uint32_t>(p));
      if (cand == node) continue;
      if (std::find(keep.begin(), keep.end(), cand) != keep.end()) continue;
      Partition& part = partitions_[p];
      std::lock_guard<std::mutex> lock(part.mirror_mu);
      part.mirrors.erase(id);
    }
    ++rebuilt;
  }

  // 2. Refresh the mirror copies this node hosts inside other residents'
  //    quorum groups, so it counts toward their quorums again.
  for (std::size_t p = 0; p < partitions_.size(); ++p) {
    const NodeId res(static_cast<std::uint32_t>(p));
    if (res == node || !transport_.reachable(res)) continue;
    std::vector<std::pair<ObjectId, GdoEntry>> copies;
    {
      const Partition& part = partitions_[p];
      std::lock_guard<std::mutex> lock(part.mu);
      for (const auto& [id, e] : part.entries) copies.emplace_back(id, e);
    }
    for (auto& [id, e] : copies) {
      const std::vector<NodeId> group = mirror_targets(id, res);
      if (std::find(group.begin(), group.end(), node) == group.end())
        continue;
      try {
        transport_.send({MessageKind::kGdoRebuildRequest, node, res, id,
                         wire::kLockRecordBytes});
        transport_.send({MessageKind::kGdoRebuildReply, res, node, id,
                         wire::kLockRecordBytes + e.page_map.wire_bytes()});
      } catch (const Error&) {
        continue;
      }
      std::lock_guard<std::mutex> lock(mine.mirror_mu);
      mine.mirrors[id] = std::move(e);
    }
  }
  return rebuilt;
}

void GdoService::reclaim_crashed(bool ignore_leases) {
  if (transport_.fault_hooks() == nullptr) return;
  for (std::size_t p = 0; p < partitions_.size(); ++p) {
    Partition& part = partitions_[p];
    std::vector<ObjectId> ids;
    {
      std::lock_guard<std::mutex> lock(part.mu);
      ids.reserve(part.entries.size());
      for (const auto& [id, e] : part.entries) ids.push_back(id);
    }
    std::sort(ids.begin(), ids.end(),
              [](ObjectId a, ObjectId b) { return a.value() < b.value(); });
    for (const ObjectId id : ids) {
      std::lock_guard<std::mutex> lock(part.mu);
      const auto it = part.entries.find(id);
      if (it == part.entries.end()) continue;
      FaultAtomicSection atomic(transport_.fault_hooks());
      const std::uint64_t before = stats_.reclaimed->value() + stats_.purged->value();
      std::vector<Grant> wakeups;
      reap_dead_locked(id, it->second,
                       NodeId(static_cast<std::uint32_t>(p)), ignore_leases,
                       wakeups);
      // A reap that freed or purged anything diverged from the mirror copy;
      // sync it like any other mutation (a crash right after the reap must
      // not resurrect the reclaimed holder from the stale mirror).
      if (stats_.reclaimed->value() + stats_.purged->value() != before)
        replicate(id, it->second);
    }
  }
}

}  // namespace lotec
