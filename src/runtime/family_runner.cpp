#include "runtime/family_runner.hpp"

#include <algorithm>

#include "common/logging.hpp"

namespace lotec {

namespace {
std::uint64_t mix64(std::uint64_t x) noexcept {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}
}  // namespace

void ClusterCore::enforce_cache_capacity(Node& node) {
  const std::size_t capacity = config.cache_capacity_pages;
  if (capacity == 0) return;
  std::lock_guard<std::mutex> lock(node.store_mu);
  std::size_t resident = node.store.resident_pages();
  if (resident <= capacity) return;
  // Walk from the least recently acquired object; drop every page whose
  // newest copy lives elsewhere (re-fetchable).  Pinned objects (currently
  // locked by a family here) are untouchable, as is any page this site
  // authoritatively owns.
  for (auto it = node.lru.rbegin();
       it != node.lru.rend() && resident > capacity;) {
    const ObjectId obj = *it;
    ++it;  // advance before mutation below invalidates the list position
    if (node.pinned(obj)) continue;
    // A live snapshot reader resolves its fetches against this image and
    // its version ring; eviction under it would strand the reader.
    if (node.store.snapshot_pinned(obj)) continue;
    // A cached global lock's deferred report names this site as the source
    // of its stamped pages — they are the sole copies until the flush.
    if (node.lock_cache.contains(obj)) continue;
    ObjectImage* img = node.store.find(obj);
    if (img == nullptr) {
      node.forget(obj);
      it = node.lru.rbegin();  // restart: forget() edited the list
      continue;
    }
    const GdoEntry entry = gdo.snapshot(obj);
    for (const PageIndex p : img->resident().to_vector()) {
      if (entry.page_map.at(p).node == node.id) continue;  // sole newest copy
      img->evict_page(p);
      ++node.evicted_pages;
      counters.page_evictions->add();
      if (--resident <= capacity) break;
    }
    if (img->resident().empty()) {
      node.store.evict(obj);
      node.forget(obj);
      it = node.lru.rbegin();  // list edited; restart from the tail
    }
  }
}

void ClusterCore::enforce_lock_cache_capacity(Node& node) {
  const std::size_t capacity = config.lock_cache_capacity;
  if (!config.lock_cache || capacity == 0) return;
  while (node.lock_cache.size() > capacity) {
    ObjectId victim{};
    {
      std::lock_guard<std::mutex> lock(node.store_mu);
      for (const ObjectId obj : node.lock_cache.lru_order()) {
        if (node.pinned(obj)) continue;  // re-granted to a live family
        victim = obj;
        break;
      }
    }
    if (!victim.valid()) return;
    const auto entry = node.lock_cache.lookup(victim);
    if (!entry) return;
    const CachedFlush flush = node.lock_cache.take_flush(victim);
    try {
      if (entry->mode == LockMode::kRead)
        gdo.forget_cached(victim, node.id);  // clean: unilateral silent drop
      else
        gdo.flush_cached(victim, node.id, flush.records, flush.advance_to);
    } catch (const Error&) {
      // Directory chain briefly unreachable: the local entry is gone either
      // way; the marker falls to revocation or lease reclamation.
    }
  }
}

void ClusterCore::deliver_grant(Grant grant) {
  FamilyRunner* runner = nullptr;
  {
    std::lock_guard<std::mutex> lock(fam_mu);
    const auto it = runners.find(grant.family);
    if (it == runners.end())
      throw Error("grant delivered to unknown family " +
                  std::to_string(grant.family.value()));
    runner = it->second;
  }
  const std::size_t idx = runner->index();
  runner->deliver(std::move(grant));
  scheduler->wake(idx);
}

FamilyRunner::FamilyRunner(ClusterCore& core, std::size_t index,
                           FamilyId family, NodeId node, RootRequest request)
    : core_(core),
      index_(index),
      family_(family, node, core.config.undo),
      node_(node),
      request_(std::move(request)) {
  family_.locks().set_check(core_.config.check_sink, family_.id());
  snapshot_mode_ =
      core_.config.mv_read && request_.kind == FamilyKind::kReadOnly;
}

void FamilyRunner::run() {
  FaultEngine* const eng = core_.fault.get();
  int attempts = 0;
  for (;;) {
    ++attempts;
    // The attempt span stays open through the catch handlers so undo and
    // retry bookkeeping nest under the attempt they belong to.
    ScopedSpan attempt_span(&core_.obs.tracer, SpanPhase::kFamilyAttempt,
                            family_.id().value(), node_.value());
    if (eng != nullptr) {
      eng->apply_pending();
      if (eng->node_down(node_) && !relocate_family()) {
        result_.committed = false;
        result_.reason = AbortReason::kNodeFailure;
        break;
      }
      crash_epoch_ = eng->crash_count(node_);
    }
    // Elastic directory: every attempt advances the background shard
    // migration by one bounded step (no-op while the ring is off).
    core_.gdo.pump_migrations(core_.config.gdo.ring.migration_batch);
    if (CheckSink* s = check()) s->on_attempt_start(family_.id());
    committing_ = false;
    scratch_.reset();  // previous attempt's gather scratch dies here
    // Re-seed per attempt: a restarted family makes the same decisions.
    rng_ = Rng(mix64(core_.config.seed ^ family_.id().value()));
    if (snapshot_mode_) begin_snapshot_attempt();
    // Every exit from this iteration — commit, any retrying catch, any
    // break — must drop the attempt's snapshot pins and stamp.
    struct SnapshotAttemptGuard {
      FamilyRunner* runner;
      ~SnapshotAttemptGuard() {
        if (runner != nullptr) runner->end_snapshot_attempt();
      }
    } snapshot_guard{snapshot_mode_ ? this : nullptr};
    try {
      const bool ok =
          run_invocation(nullptr, request_.object, request_.method);
      result_.committed = ok;
      if (ok) core_.counters.commits->add();
      if (!ok) result_.reason = last_abort_reason_;
      break;
    } catch (const DeadlockVictimError&) {
      // The stall handler also victimizes blocked families when a crash
      // (not a lock cycle) explains the stall; route those to crash
      // recovery — there is no site state left to abort.
      if (crashed_since_attempt()) {
        if (crash_retry(attempts, committing_)) continue;
        break;
      }
      try {
        abort_family(AbortReason::kDeadlock);
      } catch (const Error&) {
        // The abort's release traffic itself hit a fault (our own node
        // crashed unnoticed, or an object's directory chain is down):
        // reroute to fault recovery instead of leaking from the handler.
        if (crashed_since_attempt()) {
          if (crash_retry(attempts, committing_)) continue;
          break;
        }
        if (transient_retry(attempts)) continue;
        break;
      }
      ++result_.deadlock_retries;
      core_.counters.deadlock_retries->add();
      if (core_.scheduler->cancelled() ||
          attempts >= core_.config.max_retries) {
        result_.committed = false;
        result_.reason = AbortReason::kRetryExhausted;
        break;
      }
      family_.reset();
      // Backoff: yield so the families our abort just unblocked run first.
      // Without this, a deterministic schedule can restart the victim in
      // lockstep with the survivor and re-form the identical deadlock
      // forever (the deterministic analogue of randomized backoff).
      backoff(attempts);
      continue;
    } catch (const NodeCrashedError&) {
      if (crash_retry(attempts, committing_)) continue;
      break;
    } catch (const NodeUnreachable&) {
      if (eng == nullptr) {
        // Legacy (no fault engine): an unreachable node is a configuration
        // error — surface it like any other programming error.
        error_ = std::current_exception();
        try {
          abort_family(AbortReason::kUser);
        } catch (...) {
        }
        result_.committed = false;
        result_.reason = AbortReason::kUser;
        break;
      }
      if (crashed_since_attempt()) {
        if (crash_retry(attempts, committing_)) continue;
      } else if (transient_retry(attempts)) {
        continue;
      }
      break;
    } catch (const MessageDropped&) {
      if (transient_retry(attempts)) continue;
      break;
    } catch (const SnapshotUnavailableError&) {
      // A needed version is gone at its owner (eviction raced our map
      // lookup).  Nothing to undo or release — the snapshot path holds no
      // locks and writes nothing; retry under a fresh stamp, whose newest
      // versions are always resolvable.
      core_.counters.snapshot_retries->add();
      current_ = nullptr;
      if (core_.scheduler->cancelled() ||
          attempts >= core_.config.max_retries) {
        result_.committed = false;
        result_.reason = AbortReason::kRetryExhausted;
        break;
      }
      family_.reset();
      backoff(attempts);
      continue;
    } catch (const Error&) {
      // Programming error (precluded recursion, undeclared access, protocol
      // invariant violation): clean the family up and surface the exception
      // from Cluster::execute once the batch drains.
      error_ = std::current_exception();
      try {
        abort_family(AbortReason::kUser);
      } catch (...) {
        // Cleanup must not mask the original error.
      }
      result_.committed = false;
      result_.reason = AbortReason::kUser;
      break;
    }
  }
  if (CheckSink* s = check())
    s->on_family_outcome(family_.id(), result_.committed);
  result_.attempts = attempts;
  result_.txns_in_tree = family_.num_txns();
}

// --------------------------------------------------------------------------
// Fault recovery
// --------------------------------------------------------------------------

bool FamilyRunner::crashed_since_attempt() const {
  const FaultEngine* const eng = core_.fault.get();
  return eng != nullptr && eng->crash_count(node_) > crash_epoch_;
}

void FamilyRunner::fault_checkpoint() {
  FaultEngine* const eng = core_.fault.get();
  if (eng == nullptr) return;
  eng->apply_pending();
  if (crashed_since_attempt()) throw NodeCrashedError(node_);
}

void FamilyRunner::pin_here(Node& site, ObjectId object) {
  site.pin(object);
  pin_epochs_[object] =
      core_.fault != nullptr ? core_.fault->wipe_count(node_) : 0;
}

void FamilyRunner::unpin_here(Node& site, ObjectId object) {
  const auto it = pin_epochs_.find(object);
  if (it == pin_epochs_.end()) return;
  const std::uint64_t now =
      core_.fault != nullptr ? core_.fault->wipe_count(node_) : 0;
  if (it->second == now) site.unpin(object);
  pin_epochs_.erase(it);
}

void FamilyRunner::discard_local_state() {
  // The site's memory is gone (or being abandoned): no release traffic and
  // no undo — the crash wipe dropped the pre-crash pins, and the GDO
  // reclaims the family's locks by lease expiry.  Pins taken after the site
  // already restarted (the crash goes unnoticed until the next checkpoint)
  // survived the wipe, though, and must be returned here or they leak.
  {
    Node& mine = core_.node(node_);
    std::lock_guard<std::mutex> lock(mine.store_mu);
    const std::uint64_t now =
        core_.fault != nullptr ? core_.fault->wipe_count(node_) : 0;
    for (const auto& [object, epoch] : pin_epochs_)
      if (epoch == now) mine.unpin(object);
  }
  pin_epochs_.clear();
  pending_grant_.reset();
  blocked_on_ = ObjectId{};
  object_maps_.clear();
  family_.locks().clear();
  current_ = nullptr;
}

bool FamilyRunner::relocate_family() {
  const FaultEngine& eng = *core_.fault;
  const std::size_t n = core_.nodes.size();
  for (std::size_t off = 1; off < n; ++off) {
    const NodeId cand(
        static_cast<std::uint32_t>((node_.value() + off) % n));
    if (eng.node_down(cand)) continue;
    discard_local_state();
    node_ = cand;
    family_ = Family(family_.id(), cand, core_.config.undo);
    family_.locks().set_check(core_.config.check_sink, family_.id());
    return true;
  }
  return false;
}

bool FamilyRunner::crash_retry(int attempts, bool was_committing) {
  if (was_committing) result_.crashed_in_commit = true;
  discard_local_state();
  ++result_.fault_retries;
  core_.counters.fault_retries->add();
  // A crash inside commit processing leaves a partially committed family
  // (some objects released with their new versions published, the rest
  // reclaimed by lease).  Re-running it would double-apply the committed
  // prefix, so the family ends here, honestly reported as failed.
  if (was_committing || core_.scheduler->cancelled() ||
      attempts >= core_.config.max_retries) {
    result_.committed = false;
    result_.reason = AbortReason::kNodeFailure;
    return false;
  }
  family_.reset();
  backoff(attempts);
  return true;
}

bool FamilyRunner::transient_retry(int attempts) {
  try {
    abort_family(AbortReason::kNodeFailure);
  } catch (const Error&) {
    // The abort path itself hit an unreachable node (e.g. an object's whole
    // directory chain is down).  Release what is still releasable object by
    // object, then drop the rest locally; the end-of-run reclamation sweep
    // mops up anything left at the directory.
    Node& mine = core_.node(node_);
    for (const ObjectId object : family_.locks().all_objects()) {
      if (core_.config.lock_cache) {
        // A deferred report inherited from earlier (cached) commits must
        // not die with the abort: publish it while the chain may be up.
        const CachedFlush flush = mine.lock_cache.take_flush(object);
        if (!flush.records.empty() || flush.advance_to > 0) {
          try {
            core_.gdo.flush_cached(object, node_, flush.records,
                                   flush.advance_to);
          } catch (...) {
          }
        }
      }
      try {
        (void)core_.gdo.release_family(object, family_.id(), node_, nullptr);
      } catch (...) {
      }
      std::lock_guard<std::mutex> lock(mine.store_mu);
      if (ObjectImage* img = mine.store.find(object)) img->clear_dirty();
      unpin_here(mine, object);
    }
    discard_local_state();
  }
  ++result_.fault_retries;
  core_.counters.fault_retries->add();
  if (core_.scheduler->cancelled() || attempts >= core_.config.max_retries) {
    result_.committed = false;
    result_.reason = AbortReason::kNodeFailure;
    return false;
  }
  family_.reset();
  backoff(attempts);
  return true;
}

void FamilyRunner::backoff(int attempts) {
  for (int back = 0; back < attempts && back < 4; ++back)
    core_.scheduler->preempt(index_);
}

bool FamilyRunner::run_invocation(Transaction* parent, ObjectId object,
                                  MethodId method) {
  fault_checkpoint();
  const ObjectMeta meta = core_.meta_of(object);
  const ClassDef& cls = core_.registry.get(meta.cls);
  const MethodDef& mdef = cls.method(method);
  const AccessSummary& summary = cls.summary(method);

  Transaction& txn = parent
                         ? family_.begin_child(*parent, object, method)
                         : family_.begin_root(object, method);
  if (CheckSink* s = check())
    s->on_txn_begin(family_.id(), txn.id().serial,
                    parent != nullptr ? parent->id().serial
                                      : CheckSink::kNoSerial,
                    object);
  Transaction* const saved = current_;
  current_ = &txn;
  try {
    // Snapshot mode reads a committed past: no prefetch planning (there is
    // no lock round to amortize it into) and no lock acquisition at all —
    // the stamp taken at attempt start replaces both.
    if (parent == nullptr && !snapshot_active_) run_prefetch(txn);
    if (snapshot_active_)
      snapshot_acquire(object);
    else
      acquire_for(txn, object, summary);
    MethodContext ctx(*this, txn, cls, mdef);
    {
      ScopedSpan exec(&core_.obs.tracer, SpanPhase::kMethodExecute,
                      family_.id().value(), node_.value(), object.value());
      mdef.body(ctx);
    }
    if (parent != nullptr) {
      txn.pre_commit();
      core_.obs.tracer.instant(SpanPhase::kLockInherit, family_.id().value(),
                               node_.value(), object.value());
      if (CheckSink* s = check())
        s->on_pre_commit(family_.id(), txn.id().serial, parent->id().serial);
      if (core_.config.test_mutations.break_retention)
        broken_retention_release(txn);
      else
        family_.locks().on_pre_commit(txn);
    } else {
      commit_root(txn);
    }
    current_ = saved;
    return true;
  } catch (const TxnAbort& abort) {
    if (parent != nullptr) {
      abort_subtree(txn);
    } else {
      last_abort_reason_ = abort.reason();
      abort_family(abort.reason());
    }
    current_ = saved;
    return false;
  }
}

void FamilyRunner::acquire_for(const Transaction& txn, ObjectId object,
                               const AccessSummary& summary) {
  ScopedSpan acquire_span(&core_.obs.tracer, SpanPhase::kLockAcquire,
                          family_.id().value(), node_.value(), object.value());
  const LockMode mode =
      summary.needs_write_lock ? LockMode::kWrite : LockMode::kRead;
  const LocalAcquireOutcome outcome =
      family_.locks().try_local_acquire(txn, object, mode);
  // Bring in the predicted pages the (now held) lock's page map marks
  // stale here.
  const auto fetch_predicted = [&] {
    ObjectImage& img = local_image(object);
    const PageSet fetch =
        core_.protocol_for(core_.meta_of(object))
            .pages_to_transfer(node_, img, object_maps_.at(object),
                               summary.predicted_pages);
    fetch_pages(object, img, fetch, /*demand=*/false);
  };

  if (outcome == LocalAcquireOutcome::kGranted) {
    core_.transport.record_local_lock_op();
    ++result_.local_lock_grants;
    core_.counters.local_lock_grants->add();
    if (CheckSink* s = check())
      s->on_local_grant(family_.id(), txn.id().serial, object, mode);
    {
      Node& mine = core_.node(node_);
      std::lock_guard<std::mutex> lock(mine.store_mu);
      mine.touch(object);
    }
    // LOTEC top-up: a later method of the family may predict pages the
    // first transfer skipped; they are still described accurately by the
    // cached page map (no other family can have changed them while the
    // family holds the lock).
    fetch_predicted();
    return;
  }

  // Lock-cache fast path: a compatible cached (idle) global lock at this
  // site re-activates with zero network messages.
  if (outcome == LocalAcquireOutcome::kNeedGlobal &&
      try_cache_regrant(txn, object, mode, /*prefetch=*/false)) {
    fetch_predicted();
    return;
  }

  const bool remote = core_.gdo.home_of(object) != node_;
  ScopedSpan gdo_round(&core_.obs.tracer, SpanPhase::kGdoRound,
                       family_.id().value(), node_.value(), object.value());
  core_.scheduler->preempt(index_);  // interleaving point at a global op
  // Another family of this site may have cached the lock while we were
  // preempted.  The directory drops this site's own marker on acquire, so
  // that entry must be re-granted (or flushed) here, or its deferred
  // report would be lost.
  if (outcome == LocalAcquireOutcome::kNeedGlobal &&
      try_cache_regrant(txn, object, mode, /*prefetch=*/false)) {
    fetch_predicted();
    return;
  }
  AcquireResult res = core_.gdo.acquire(object, txn.id(), node_, mode);
  bool upgrade = outcome == LocalAcquireOutcome::kNeedUpgrade;
  PageMap granted_map;
  if (res.status == AcquireStatus::kQueued) {
    blocked_on_ = object;
    core_.scheduler->block(index_);  // may throw DeadlockVictimError
    blocked_on_ = ObjectId{};
    if (!pending_grant_ || pending_grant_->object != object)
      throw Error("family woken without a matching lock grant");
    Grant g = std::move(*pending_grant_);
    pending_grant_.reset();
    upgrade = g.upgrade;
    granted_map = std::move(g.page_map);
    // The wakeup crossed lanes: link this family's grant instant to the
    // directory-side release/serve span that produced it.
    core_.obs.tracer.instant_linked(SpanPhase::kLockGrant,
                                    family_.id().value(), node_.value(),
                                    g.trace, object.value());
  } else {
    upgrade = res.upgrade;
    granted_map = std::move(res.page_map);
  }
  gdo_round.finish();
  if (remote && !prefetch_batch_) {
    ++result_.remote_round_trips;
    core_.counters.remote_round_trips->add();
  }

  family_.locks().on_global_grant(txn, object, mode, upgrade);
  if (CheckSink* s = check())
    s->on_global_grant(family_.id(), txn.id().serial, object, mode, upgrade,
                       /*cached_regrant=*/false, /*prefetch=*/false);
  if (!upgrade) {
    object_maps_.insert_or_assign(object, std::move(granted_map));
    Node& mine = core_.node(node_);
    std::lock_guard<std::mutex> lock(mine.store_mu);
    pin_here(mine, object);
    mine.touch(object);
  }

  fetch_predicted();
}

void FamilyRunner::run_prefetch(const Transaction& root) {
  if (request_.prefetch.empty()) return;
  const std::uint64_t trips_before = result_.remote_round_trips;
  prefetch_batch_ = true;
  bool any_remote = false;
  for (const auto& [object, method] : request_.prefetch) {
    if (family_.locks().find(object) != nullptr) continue;
    ScopedSpan acquire_span(&core_.obs.tracer, SpanPhase::kLockAcquire,
                            family_.id().value(), node_.value(),
                            object.value());
    const ObjectMeta meta = core_.meta_of(object);
    const AccessSummary& summary =
        core_.registry.get(meta.cls).summary(method);
    const LockMode mode =
        summary.needs_write_lock ? LockMode::kWrite : LockMode::kRead;
    const auto fetch_predicted = [&] {
      ObjectImage& img = local_image(object);
      const PageSet fetch = core_.protocol_for(meta).pages_to_transfer(
          node_, img, object_maps_.at(object), summary.predicted_pages);
      fetch_pages(object, img, fetch, /*demand=*/false);
    };
    if (try_cache_regrant(root, object, mode, /*prefetch=*/true)) {
      fetch_predicted();
      continue;
    }

    core_.scheduler->preempt(index_);
    // As in acquire_for: a lock this site cached while we were preempted
    // is re-granted (or flushed) before the directory drops its marker.
    if (try_cache_regrant(root, object, mode, /*prefetch=*/true)) {
      fetch_predicted();
      continue;
    }
    any_remote = any_remote || core_.gdo.home_of(object) != node_;
    AcquireResult res = core_.gdo.acquire(object, root.id(), node_, mode);
    PageMap granted_map;
    if (res.status == AcquireStatus::kQueued) {
      blocked_on_ = object;
      core_.scheduler->block(index_);
      blocked_on_ = ObjectId{};
      if (!pending_grant_ || pending_grant_->object != object)
        throw Error("family woken without a matching lock grant (prefetch)");
      Grant g = std::move(*pending_grant_);
      pending_grant_.reset();
      granted_map = std::move(g.page_map);
      core_.obs.tracer.instant_linked(SpanPhase::kLockGrant,
                                      family_.id().value(), node_.value(),
                                      g.trace, object.value());
    } else {
      granted_map = std::move(res.page_map);
    }
    family_.locks().on_prefetch_grant(root, object, mode);
    if (CheckSink* s = check())
      s->on_global_grant(family_.id(), root.id().serial, object, mode,
                         /*upgrade=*/false, /*cached_regrant=*/false,
                         /*prefetch=*/true);
    object_maps_.insert_or_assign(object, std::move(granted_map));
    {
      Node& mine = core_.node(node_);
      std::lock_guard<std::mutex> lock(mine.store_mu);
      pin_here(mine, object);
      mine.touch(object);
    }
    ObjectImage& img = local_image(object);
    const PageSet fetch = core_.protocol_for(meta).pages_to_transfer(
        node_, img, object_maps_.at(object), summary.predicted_pages);
    fetch_pages(object, img, fetch, /*demand=*/false);
  }
  prefetch_batch_ = false;
  // The point of pre-acquisition is pipelining: model the whole batch as a
  // single blocking round trip on the family's critical path.
  result_.remote_round_trips = trips_before + (any_remote ? 1 : 0);
  if (any_remote) core_.counters.remote_round_trips->add();
}

bool FamilyRunner::try_cache_regrant(const Transaction& txn, ObjectId object,
                                     LockMode mode, bool prefetch) {
  if (!core_.config.lock_cache) return false;
  Node& mine = core_.node(node_);
  const std::optional<CachedLock> cached = mine.lock_cache.lookup(object);
  if (!cached) return false;
  if (mode == LockMode::kWrite && cached->mode == LockMode::kRead) {
    // The cached mode cannot cover the request.  A read entry is clean by
    // invariant, so drop it unilaterally (zero messages) and go remote.
    mine.lock_cache.erase(object);
    core_.gdo.forget_cached(object, node_);
    return false;
  }
  const std::optional<LockMode> granted =
      core_.gdo.local_regrant(object, txn.id(), node_, cached->mode);
  if (!granted) {
    // No usable marker at the directory (revoked behind our back, or a
    // concurrent family at this site already re-activated it).  Push any
    // deferred report out and fall back to a normal acquisition.
    const CachedFlush flush = mine.lock_cache.take_flush(object);
    if (!flush.records.empty() || flush.advance_to > 0)
      core_.gdo.flush_cached(object, node_, flush.records, flush.advance_to);
    return false;
  }
  // Zero-message re-activation: same bookkeeping as a fresh global grant,
  // at the cached (covering) mode so intra-family upgrades stay standard.
  // The cache entry stays resident — it keeps carrying the deferred report
  // until the release merges into it or a flush publishes it.
  core_.transport.record_local_lock_op();
  ++result_.local_lock_grants;
  core_.counters.local_lock_grants->add();
  if (prefetch)
    family_.locks().on_prefetch_grant(txn, object, *granted);
  else
    family_.locks().on_global_grant(txn, object, *granted, /*upgrade=*/false);
  if (CheckSink* s = check())
    s->on_global_grant(family_.id(), txn.id().serial, object, *granted,
                       /*upgrade=*/false, /*cached_regrant=*/true, prefetch);
  object_maps_.insert_or_assign(object, cached->map);
  {
    std::lock_guard<std::mutex> lock(mine.store_mu);
    pin_here(mine, object);
    mine.touch(object);
  }
  return true;
}

void FamilyRunner::fetch_pages(ObjectId object, ObjectImage& image,
                               PageSet pages, bool demand) {
  if (pages.empty()) return;
  ScopedSpan gather(&core_.obs.tracer, SpanPhase::kPageGather,
                    family_.id().value(), node_.value(), object.value());
  const auto mit = object_maps_.find(object);
  if (mit == object_maps_.end())
    throw Error("fetch_pages without a cached page map");
  PageMap& map = mit->second;

  // Group wanted pages per source site, visited in node-id order — the same
  // deterministic traffic as the sorted map this replaces.  The grouping is
  // a stable counting sort over attempt-scoped arena scratch, so the hot
  // fetch path allocates nothing from the heap.
  const std::vector<PageIndex> wanted_all = pages.to_vector();
  const std::size_t n_nodes = core_.nodes.size();
  auto* counts = scratch_.allocate_array<std::uint32_t>(n_nodes);
  for (std::size_t i = 0; i < n_nodes; ++i) counts[i] = 0;
  for (const PageIndex p : wanted_all) {
    const PageLocation& loc = map.at(p);
    if (loc.node == node_)
      throw Error("fetch_pages: newest copy of the page is already local");
    ++counts[loc.node.value()];
  }
  auto* offsets = scratch_.allocate_array<std::uint32_t>(n_nodes + 1);
  offsets[0] = 0;
  for (std::size_t i = 0; i < n_nodes; ++i)
    offsets[i + 1] = offsets[i] + counts[i];
  auto* grouped = scratch_.allocate_array<PageIndex>(wanted_all.size());
  auto* cursor = scratch_.allocate_array<std::uint32_t>(n_nodes);
  for (std::size_t i = 0; i < n_nodes; ++i) cursor[i] = offsets[i];
  for (const PageIndex p : wanted_all)
    grouped[cursor[map.at(p).node.value()]++] = p;

  // DSD mode (Section 4.2/6): ship only the changed byte ranges for pages
  // whose local copy is exactly one version behind.  The request then
  // carries our cached version per page (8 extra bytes each) so the source
  // can decide delta vs full page.
  const ObjectMeta obj_meta = core_.meta_of(object);
  const std::size_t num_pages = obj_meta.num_pages;
  const bool delta_mode = core_.protocol_for(obj_meta).delta_transfers();
  FlatMap<std::uint32_t, Lsn> my_versions;
  if (delta_mode) {
    Node& mine = core_.node(node_);
    std::lock_guard<std::mutex> lock(mine.store_mu);
    for (const PageIndex p : wanted_all)
      if (image.has_page(p)) my_versions[p.value()] = image.page_version(p);
  }

  for (std::size_t s = 0; s < n_nodes; ++s) {
    if (counts[s] == 0) continue;
    const NodeId source(static_cast<std::uint32_t>(s));
    const std::span<const PageIndex> wanted(grouped + offsets[s], counts[s]);
    core_.transport.send(
        {demand ? MessageKind::kDemandFetchRequest
                : MessageKind::kPageFetchRequest,
         node_, source, object,
         wanted.size() * (wire::kPageRequestEntryBytes +
                          (delta_mode ? 8ULL : 0ULL))});
    // Remote side of the fetch: the source site serving our request, on its
    // directory lane, linked to this family's page.gather.
    ScopedServeSpan serve(&core_.obs.tracer, SpanPhase::kPageServe,
                          source.value(), object.value());
    std::vector<std::pair<PageIndex, Page>> copied;
    std::vector<std::pair<PageIndex, PagePatch>> patched;
    copied.reserve(wanted.size());
    std::uint64_t reply_payload = 0;
    {
      Node& src = core_.node(source);
      std::lock_guard<std::mutex> lock(src.store_mu);
      const ObjectImage& simg = src.store.get(object);
      for (const PageIndex p : wanted) {
        const Page& page = simg.page(p);
        std::optional<std::uint64_t> chain;
        const auto have = my_versions.find(p.value());
        if (delta_mode && have != my_versions.end())
          chain = page.delta_chain_bytes(have->second);
        if (chain && *chain < core_.config.page_size) {
          // Few versions behind: the wire carries only the delta chain, so
          // copy only the changed spans here — a full Page copy would hold
          // the source's store_mu for the whole page payload.
          PagePatch patch;
          patch.version = page.version;
          patch.tick = page.tick;
          patch.history = page.history;
          for (const PageDelta& d : page.history) {
            for (const auto& [off, len] : d.ranges)
              patch.spans.emplace_back(
                  off, std::vector<std::byte>(
                           page.data.begin() + off,
                           page.data.begin() + off + len));
            if (d.from_version == have->second) break;
          }
          patched.emplace_back(p, std::move(patch));
          reply_payload += *chain;
          ++result_.delta_pages;
          core_.counters.delta_pages->add();
        } else {
          reply_payload += core_.config.page_size + 8ULL;
          copied.emplace_back(p, page);
        }
      }
    }
    core_.transport.send(
        {demand ? MessageKind::kDemandFetchReply
                : MessageKind::kPageFetchReply,
         source, node_, object, reply_payload});
    serve.finish();
    {
      Node& mine = core_.node(node_);
      std::lock_guard<std::mutex> lock(mine.store_mu);
      for (auto& [p, page] : copied) {
        // Lock discipline guarantees the owner's content is current even if
        // its version stamp lags a concurrent release; trust the map.
        page.version = std::max(page.version, map.at(p).version);
        map.record_current(p, node_, page.version);
        if (core_.fault != nullptr)
          core_.fault->note_page(node_, object, num_pages, p, page);
        image.install_page(p, std::move(page));
      }
      for (auto& [p, patch] : patched) {
        patch.version = std::max(patch.version, map.at(p).version);
        image.patch_page(p, patch);
        map.record_current(p, node_, image.page_version(p));
        if (core_.fault != nullptr)
          core_.fault->note_page(node_, object, num_pages, p, image.page(p));
      }
    }
    if (!prefetch_batch_) {
      ++result_.remote_round_trips;
      core_.counters.remote_round_trips->add();
    }
    result_.pages_fetched += wanted.size();
    core_.counters.pages_fetched->add(wanted.size());
    if (demand) {
      ++result_.demand_fetches;
      core_.counters.demand_fetches->add();
    }
  }
  core_.enforce_cache_capacity(core_.node(node_));
}

void FamilyRunner::ensure_fresh(ObjectId object, const PageSet& pages) {
  fault_checkpoint();
  const auto mit = object_maps_.find(object);
  if (mit == object_maps_.end())
    throw Error("attribute access without an acquired lock / page map");
  ObjectImage& img = local_image(object);
  PageSet missing(pages.universe_size());
  {
    Node& mine = core_.node(node_);
    std::lock_guard<std::mutex> lock(mine.store_mu);
    for (const PageIndex p : pages.to_vector()) {
      const PageLocation& loc = mit->second.at(p);
      const bool fresh =
          loc.node == node_ ||
          (img.has_page(p) && img.page_version(p) >= loc.version);
      if (!fresh) missing.insert(p);
    }
  }
  if (missing.empty()) return;
  const ConsistencyProtocol& protocol = core_.protocol_for(core_.meta_of(object));
  if (!protocol.allows_demand_fetch())
    throw Error(std::string(protocol.name()) +
                ": method touched a page the transfer plan skipped "
                "(protocol invariant violated)");
  fetch_pages(object, img, missing, /*demand=*/true);
}

// ---------------------------------------------------------------------------
// Snapshot read path (mv_read): a declared read-only family resolves every
// page against the newest committed version at or below the stamp it took at
// attempt start.  No lock table, no GDO lock rounds, no blocking — writers
// never see it.
// ---------------------------------------------------------------------------

void FamilyRunner::begin_snapshot_attempt() {
  snapshot_stamp_ = core_.gdo.current_commit_tick();
  core_.snapshots.register_stamp(snapshot_stamp_);
  snapshot_active_ = true;
}

void FamilyRunner::end_snapshot_attempt() {
  if (!snapshot_active_) return;
  Node& mine = core_.node(node_);
  {
    std::lock_guard<std::mutex> lock(mine.store_mu);
    for (const ObjectId object : snapshot_objects_)
      mine.store.unpin_snapshot(object);
  }
  snapshot_objects_.clear();
  snapshot_versions_.clear();
  core_.snapshots.release_stamp(snapshot_stamp_);
  snapshot_active_ = false;
}

void FamilyRunner::snapshot_acquire(ObjectId object) {
  // Linear scan: snapshot families touch a handful of objects, and this
  // doubles as the pin set released at attempt end.
  for (const ObjectId seen : snapshot_objects_)
    if (seen == object) return;

  Node& mine = core_.node(node_);
  bool have_map = false;
  {
    std::lock_guard<std::mutex> lock(mine.store_mu);
    const auto it = mine.snapshot_maps.find(object);
    // A cached map with tick >= our stamp already contains every
    // publication our snapshot may resolve to.
    have_map = it != mine.snapshot_maps.end() &&
               it->second.tick >= snapshot_stamp_;
  }
  if (!have_map) {
    // One lock-free directory round: where does each page's newest copy
    // live?  This replaces the lock acquisition round — it is the only
    // directory traffic a snapshot family generates per object.
    ScopedSpan round(&core_.obs.tracer, SpanPhase::kSnapshotMapRound,
                     family_.id().value(), node_.value(), object.value());
    core_.scheduler->preempt(index_);
    GdoService::SnapshotMap fetched = core_.gdo.snapshot_lookup(object, node_);
    core_.counters.snapshot_map_refreshes->add();
    if (core_.gdo.home_of(object) != node_) {
      ++result_.remote_round_trips;
      core_.counters.remote_round_trips->add();
    }
    std::lock_guard<std::mutex> lock(mine.store_mu);
    mine.snapshot_maps[object] =
        Node::CachedSnapshotMap{std::move(fetched.map), fetched.tick};
  }
  {
    std::lock_guard<std::mutex> lock(mine.store_mu);
    if (mine.store.find(object) == nullptr) {
      const ObjectMeta meta = core_.meta_of(object);
      mine.store.create(object, meta.num_pages, core_.config.page_size,
                        /*materialize=*/false);
    }
    mine.store.pin_snapshot(object);
    mine.touch(object);
  }
  snapshot_objects_.push_back(object);
}

void FamilyRunner::snapshot_read_bytes(Transaction& txn, ObjectId object,
                                       const PageSet& pages,
                                       std::uint64_t offset,
                                       std::span<std::byte> out) {
  snapshot_acquire(object);  // child invocations reach here un-acquired
  Node& mine = core_.node(node_);
  const std::vector<PageIndex> wanted = pages.to_vector();

  // Pass 1 — decide each page's REQUIRED version: the newest publication at
  // or below the stamp.  A locally resolvable version is not enough — a
  // residual copy from an earlier family can be admissible (old tick) yet
  // older than the version the snapshot must observe.  The cached snapshot
  // map (taken at tick >= stamp, so it covers every publication <= stamp)
  // decides: when a page's last publication is at or below the stamp, the
  // map names the required version outright; when it is above, only the
  // owner's version ring knows which older version tops out at the stamp.
  PageSet missing(pages.universe_size());
  {
    std::lock_guard<std::mutex> lock(mine.store_mu);
    const auto mit = mine.snapshot_maps.find(object);
    if (mit == mine.snapshot_maps.end())
      throw Error("snapshot read without a snapshot map");
    const PageMap& map = mit->second.map;
    const ObjectImage& img = mine.store.get(object);
    for (const PageIndex p : wanted) {
      if (snapshot_versions_.count({object.value(), p.value()}))
        continue;  // resolved earlier in this attempt
      const PageLocation& loc = map.at(p);
      if (loc.node == node_) {
        // We hold the authoritative lineage (live page + ring).
        const std::optional<SnapshotView> v =
            img.snapshot_page(p, snapshot_stamp_);
        if (!v)
          throw SnapshotUnavailableError(
              "snapshot version unresolvable at the owning site, object " +
              std::to_string(object.value()));
        snapshot_versions_[{object.value(), p.value()}] = v->version;
      } else if (loc.tick <= snapshot_stamp_) {
        snapshot_versions_[{object.value(), p.value()}] = loc.version;
        const std::optional<SnapshotView> v =
            img.snapshot_page(p, snapshot_stamp_);
        if (!v || v->version != loc.version) missing.insert(p);
      } else {
        missing.insert(p);
      }
    }
  }
  if (!missing.empty())
    snapshot_fetch(object, missing);
  core_.counters.snapshot_local_hits->add(wanted.size() - missing.count());

  // Pass 2 — resolve and copy under ONE store_mu hold (SnapshotView borrows
  // storage, so the views must stay valid through the byte copy), verifying
  // every page against its required version.
  std::lock_guard<std::mutex> lock(mine.store_mu);
  const ObjectImage& img = mine.store.get(object);
  CheckSink* const s = check();
  for (const PageIndex p : wanted) {
    const auto rit = snapshot_versions_.find({object.value(), p.value()});
    if (rit == snapshot_versions_.end())
      throw SnapshotUnavailableError(
          "snapshot version never resolved for object " +
          std::to_string(object.value()) + " page " +
          std::to_string(p.value()));
    const std::optional<SnapshotView> v = img.snapshot_page(p, snapshot_stamp_);
    if (!v || v->version != rit->second)
      // The version we just adopted (or found) raced an eviction; a fresh
      // stamp resolves against live state, which is always present.
      throw SnapshotUnavailableError(
          "snapshot version unavailable for object " +
          std::to_string(object.value()) + " page " + std::to_string(p.value()));
    core_.counters.snapshot_reads->add();
    if (s != nullptr)
      s->on_snapshot_read(family_.id(), txn.id().serial, object, p, v->version,
                          snapshot_stamp_);
    const std::uint64_t page_size = core_.config.page_size;
    const std::uint64_t lo = std::max<std::uint64_t>(offset,
                                                     p.value() * page_size);
    const std::uint64_t hi = std::min<std::uint64_t>(
        offset + out.size(), (p.value() + 1ULL) * page_size);
    if (lo >= hi) continue;  // declared page outside this attribute span
    std::copy_n(v->data + (lo - p.value() * page_size), hi - lo,
                out.data() + (lo - offset));
  }
}

void FamilyRunner::snapshot_fetch(ObjectId object, const PageSet& missing) {
  PageMap map;
  Node& mine = core_.node(node_);
  {
    std::lock_guard<std::mutex> lock(mine.store_mu);
    const auto it = mine.snapshot_maps.find(object);
    if (it == mine.snapshot_maps.end())
      throw Error("snapshot fetch without a snapshot map");
    map = it->second.map;
  }
  ScopedSpan gather(&core_.obs.tracer, SpanPhase::kSnapshotFetch,
                    family_.id().value(), node_.value(), object.value());

  // Group per owning site, visited in node-id order (same deterministic
  // traffic discipline as fetch_pages).
  const std::vector<PageIndex> wanted_all = missing.to_vector();
  const std::size_t n_nodes = core_.nodes.size();
  auto* counts = scratch_.allocate_array<std::uint32_t>(n_nodes);
  for (std::size_t i = 0; i < n_nodes; ++i) counts[i] = 0;
  for (const PageIndex p : wanted_all) {
    const NodeId owner = map.at(p).node;
    if (owner == node_)
      // The map says the version is already here, but snapshot_page could
      // not resolve it: the ring entry was trimmed before we registered, or
      // the live page moved past our stamp.  Retry under a fresh stamp.
      throw SnapshotUnavailableError(
          "snapshot version owned locally but unresolvable, object " +
          std::to_string(object.value()));
    ++counts[owner.value()];
  }
  auto* offsets = scratch_.allocate_array<std::uint32_t>(n_nodes + 1);
  offsets[0] = 0;
  for (std::size_t i = 0; i < n_nodes; ++i)
    offsets[i + 1] = offsets[i] + counts[i];
  auto* grouped = scratch_.allocate_array<PageIndex>(wanted_all.size());
  auto* cursor = scratch_.allocate_array<std::uint32_t>(n_nodes);
  for (std::size_t i = 0; i < n_nodes; ++i) cursor[i] = offsets[i];
  for (const PageIndex p : wanted_all)
    grouped[cursor[map.at(p).node.value()]++] = p;

  struct Fetched {
    PageIndex page{};
    std::vector<std::byte> data;
    Lsn version = 0;
    std::uint64_t tick = 0;
  };
  for (std::size_t sidx = 0; sidx < n_nodes; ++sidx) {
    if (counts[sidx] == 0) continue;
    const NodeId source(static_cast<std::uint32_t>(sidx));
    const std::span<const PageIndex> wanted(grouped + offsets[sidx],
                                            counts[sidx]);
    core_.scheduler->preempt(index_);
    core_.transport.send({MessageKind::kSnapshotFetchRequest, node_, source,
                          object,
                          wanted.size() * wire::kPageRequestEntryBytes});
    ScopedServeSpan serve(&core_.obs.tracer, SpanPhase::kPageServe,
                          source.value(), object.value());
    std::vector<Fetched> copied;
    copied.reserve(wanted.size());
    std::uint64_t reply_payload = 0;
    {
      Node& src = core_.node(source);
      std::lock_guard<std::mutex> lock(src.store_mu);
      const ObjectImage* simg = src.store.find(object);
      for (const PageIndex p : wanted) {
        const std::optional<SnapshotView> v =
            simg != nullptr ? simg->snapshot_page(p, snapshot_stamp_)
                            : std::nullopt;
        if (!v)
          // The owner's ring dropped the version (it was published before
          // our stamp registered).  Retry under a fresh stamp.
          throw SnapshotUnavailableError(
              "snapshot version gone at owner, object " +
              std::to_string(object.value()) + " page " +
              std::to_string(p.value()));
        copied.push_back(
            Fetched{p,
                    std::vector<std::byte>(v->data,
                                           v->data + core_.config.page_size),
                    v->version, v->tick});
        reply_payload += core_.config.page_size + 8ULL;
      }
    }
    core_.transport.send({MessageKind::kSnapshotFetchReply, source, node_,
                          object, reply_payload});
    serve.finish();
    {
      std::lock_guard<std::mutex> lock(mine.store_mu);
      ObjectImage& img = mine.store.get(object);
      for (Fetched& f : copied) {
        // emplace: a page whose requirement the map already named keeps it;
        // the verify pass cross-checks the owner's resolution against it.
        snapshot_versions_.emplace(
            std::make_pair(object.value(), f.page.value()), f.version);
        img.adopt_version(f.page, std::move(f.data), f.version, f.tick);
      }
    }
    ++result_.remote_round_trips;
    core_.counters.remote_round_trips->add();
    core_.counters.snapshot_fetches->add(wanted.size());
  }
}

void FamilyRunner::commit_root(Transaction& root) {
  // Last chance to notice that our site crashed and restarted under this
  // attempt (a method touching no attributes has no checkpoint in between):
  // committing wiped state would publish garbage versions.
  fault_checkpoint();
  // From here the family's effects begin to become visible (versions
  // stamped, locks released); a crash inside this window must not retry.
  committing_ = true;
  root.commit_root();
  {
    ScopedSpan report(&core_.obs.tracer, SpanPhase::kCommitReport,
                      family_.id().value(), node_.value());
    release_all(/*commit=*/true);
  }
  committing_ = false;
}

void FamilyRunner::abort_subtree(Transaction& txn) {
  ScopedSpan undo(&core_.obs.tracer, SpanPhase::kUndo, family_.id().value(),
                  node_.value(), txn.target().value());
  txn.abort(undo_resolver());
  const std::vector<ObjectId> to_release = family_.locks().on_abort(txn);
  if (CheckSink* s = check())
    s->on_subtree_abort(family_.id(), txn.id().serial,
                        static_cast<std::uint32_t>(family_.num_txns()));
  if (to_release.empty()) return;
  std::vector<ReleaseItem> items;
  items.reserve(to_release.size());
  Node& mine = core_.node(node_);
  for (const ObjectId object : to_release) {
    object_maps_.erase(object);
    {
      std::lock_guard<std::mutex> lock(mine.store_mu);
      if (ObjectImage* img = mine.store.find(object)) img->clear_dirty();
      unpin_here(mine, object);
    }
    items.push_back(ReleaseItem{object, std::nullopt});
  }
  (void)core_.gdo.release_batch(family_.id(), node_, items);
  if (CheckSink* s = check())
    for (const auto& item : items)
      s->on_lock_release(family_.id(), item.object,
                         CheckReleaseReason::kSubtreeAbort);
}

void FamilyRunner::broken_retention_release(Transaction& txn) {
  // Rule-4 disposition applied at pre-commit instead of rule-3 retention:
  // the child's subtree-exclusive locks leave the family early, exposing
  // its (now stamped-as-committed) writes to other families before the
  // root decides.  The lock oracle flags the kSubtreeAbort releases below
  // on every schedule; the serializability oracle additionally finds the
  // non-serializable interleavings this enables.
  const std::vector<ObjectId> to_release = family_.locks().on_abort(txn);
  if (to_release.empty()) return;
  Node& mine = core_.node(node_);
  std::vector<ReleaseItem> items;
  items.reserve(to_release.size());
  for (const ObjectId object : to_release) {
    object_maps_.erase(object);
    const std::size_t npages = core_.meta_of(object).num_pages;
    const Lsn next = core_.gdo.version_counter(object) + 1;
    ReleaseItem item{object, ReleaseInfo{}};
    {
      std::lock_guard<std::mutex> lock(mine.store_mu);
      ObjectImage* img = mine.store.find(object);
      if (img != nullptr) {
        item.info->dirty = img->dirty_pages();
        if (!item.info->dirty.empty()) {
          const PageSet stamped = img->stamp_dirty(next);
          for (const PageIndex p : stamped.to_vector()) {
            if (core_.fault != nullptr)
              core_.fault->note_page(node_, object, npages, p, img->page(p));
            if (CheckSink* s = check())
              s->on_commit_stamp(family_.id(), object, p, next, node_);
          }
        }
      } else {
        item.info->dirty = PageSet(npages);
      }
      unpin_here(mine, object);
    }
    items.push_back(std::move(item));
  }
  (void)core_.gdo.release_batch(family_.id(), node_, items);
  if (CheckSink* s = check())
    for (const auto& item : items)
      s->on_lock_release(family_.id(), item.object,
                         CheckReleaseReason::kSubtreeAbort);
}

void FamilyRunner::abort_family(AbortReason /*reason*/) {
  ScopedSpan undo(&core_.obs.tracer, SpanPhase::kUndo, family_.id().value(),
                  node_.value());
  // UNDO the active path bottom-up (pre-committed children were absorbed
  // into their parents' logs; aborted ones already rolled back).
  const auto resolve = undo_resolver();
  for (Transaction* t = current_; t != nullptr; t = t->parent())
    if (t->state() == TxnState::kActive) t->abort(resolve);

  // Withdraw a queued lock request, if any.
  if (blocked_on_.valid()) {
    (void)core_.gdo.cancel_waiter(blocked_on_, family_.id());
    blocked_on_ = ObjectId{};
  }
  // Fault injection only: when cancel_waiter could not reach the directory
  // entry, transient_retry drops local state with our waiter still queued.
  // Its grant can then land on a later attempt: the GDO already lists us as
  // a holder even though the lock table does not.
  if (pending_grant_) {
    const ObjectId object = pending_grant_->object;
    pending_grant_.reset();
    if (family_.locks().find(object) == nullptr)
      (void)core_.gdo.release_family(object, family_.id(), node_, nullptr);
  }
  release_all(/*commit=*/false);
  current_ = nullptr;
}

void FamilyRunner::release_all(bool commit) {
  const std::vector<ObjectId> objects = family_.locks().all_objects();
  if (objects.empty()) {
    object_maps_.clear();
    family_.locks().clear();
    return;
  }
  Node& mine = core_.node(node_);
  std::vector<ReleaseItem> items;
  items.reserve(objects.size());
  for (const ObjectId object : objects) {
    // Lock-cache path: keep the global lock parked at this site (zero
    // messages) and defer the commit's report into the site cache.
    if (core_.config.lock_cache && try_retain(object, commit)) continue;
    items.push_back(make_release_item(object, commit));
  }

  // Stamp new page versions BEFORE the directory publishes them: the RC
  // push below ships the stamped pages, and the durable journal and the
  // check sink must see each stamp before its release.  The version values
  // must match what the GDO will assign: it increments the per-object
  // counter exactly when the dirty set is non-empty — after catching up to
  // any deferred flush folded into the release — so we pre-compute by
  // peeking the entry's counter.
  struct Stamped {
    ObjectId object;
    std::vector<std::pair<PageIndex, Page>> pages;
    Lsn version;
  };
  std::vector<Stamped> pushes;
  if (commit) {
    // One commit tick per committing family, allocated lazily at the first
    // dirty item and shared by all of them (the family commits atomically).
    // Allocated whether or not mv_read is on: the tick rides the release
    // message and the map entry at zero modeled wire cost, so knob-off
    // traffic stays bit-identical by construction.
    std::uint64_t commit_tick = 0;
    for (auto& item : items) {
      if (!item.info || item.info->dirty.empty()) continue;
      if (commit_tick == 0) commit_tick = core_.gdo.allocate_commit_tick();
      item.info->commit_tick = commit_tick;
      const Lsn next =
          std::max(core_.gdo.version_counter(item.object),
                   item.info->advance_to) + 1;
      const std::size_t npages = core_.meta_of(item.object).num_pages;
      std::lock_guard<std::mutex> lock(mine.store_mu);
      ObjectImage& img = mine.store.get(item.object);
      const PageSet stamped = img.stamp_dirty(next, commit_tick);
      if (core_.fault != nullptr)
        for (const PageIndex p : stamped.to_vector())
          core_.fault->note_page(node_, item.object, npages, p, img.page(p));
      if (CheckSink* s = check())
        for (const PageIndex p : stamped.to_vector())
          s->on_commit_stamp(family_.id(), item.object, p, next, node_);
      if (core_.protocol_for(core_.meta_of(item.object)).eager_push_on_release()) {
        Stamped s{item.object, {}, next};
        for (const PageIndex p : stamped.to_vector())
          s.pages.emplace_back(p, img.page(p));
        pushes.push_back(std::move(s));
      }
    }
  } else {
    for (const auto& item : items) {
      std::lock_guard<std::mutex> lock(mine.store_mu);
      if (ObjectImage* img = mine.store.find(item.object)) img->clear_dirty();
    }
  }

  // RC extension: eagerly push the committed updates to every caching site
  // BEFORE releasing the lock.  Pushing after release races with the next
  // holder: its freshly committed (newer) pages at a caching site could be
  // clobbered by our in-flight (older) push.
  for (const Stamped& s : pushes) push_updates(s.object, s.pages);

  if (!items.empty())
    (void)core_.gdo.release_batch(family_.id(), node_, items);
  if (CheckSink* s = check())
    for (const auto& item : items)
      s->on_lock_release(family_.id(), item.object,
                         commit ? CheckReleaseReason::kRootCommit
                                : CheckReleaseReason::kRootAbort);

  {
    std::lock_guard<std::mutex> lock(mine.store_mu);
    for (const auto& item : items) unpin_here(mine, item.object);
  }
  object_maps_.clear();
  family_.locks().clear();
  core_.enforce_lock_cache_capacity(mine);
}

bool FamilyRunner::try_retain(ObjectId object, bool commit) {
  const auto mit = object_maps_.find(object);
  const LocalLock* lock_state = family_.locks().find(object);
  if (mit == object_maps_.end() || lock_state == nullptr) return false;
  if (!core_.gdo.retain_release(object, family_.id(), node_)) return false;

  // The lock is now parked at the directory as a cached-holder marker;
  // mirror it in the site cache together with the grant's page map and —
  // on commit — the deferred release report.  No RC eager push from here:
  // deferred versions must not propagate to other sites before they are
  // flushed (a crash of this site would orphan them in remote caches).
  Node& mine = core_.node(node_);
  CachedLock entry;
  entry.mode = lock_state->global_mode;
  entry.map = mit->second;
  if (const std::optional<CachedLock> prev = mine.lock_cache.lookup(object)) {
    entry.report = prev->report;
    entry.max_version = prev->max_version;
  }
  const std::size_t npages = core_.meta_of(object).num_pages;
  {
    std::lock_guard<std::mutex> lock(mine.store_mu);
    ObjectImage* img = mine.store.find(object);
    if (img != nullptr && commit) {
      if (entry.mode == LockMode::kWrite) {
        // Residency ("current") reports are deferred like the dirty stamps
        // and applied when the report is flushed.
        const PageSet report =
            core_.protocol_for(core_.meta_of(object)).pages_to_report(*img);
        for (const PageIndex p : report.to_vector()) {
          Lsn& rec = entry.report[p];
          rec = std::max(rec, img->page_version(p));
        }
      }
      if (!img->dirty_pages().empty()) {
        // Deferred version stamping: the directory's counter stands still
        // while releases are cached, so sequence locally above both the
        // counter and our own deferred maximum.
        const Lsn next =
            std::max(core_.gdo.version_counter(object),
                     entry.max_version) + 1;
        const PageSet stamped = img->stamp_dirty(next);
        for (const PageIndex p : stamped.to_vector()) {
          entry.report[p] = next;
          if (core_.fault != nullptr)
            core_.fault->note_page(node_, object, npages, p, img->page(p));
          if (CheckSink* s = check())
            s->on_commit_stamp(family_.id(), object, p, next, node_);
        }
        entry.map.record_update(stamped, node_, next);
        entry.max_version = next;
      }
    } else if (img != nullptr) {
      img->clear_dirty();
    }
    unpin_here(mine, object);
  }
  mine.lock_cache.put(object, std::move(entry));
  return true;
}

ReleaseItem FamilyRunner::make_release_item(ObjectId object, bool commit) {
  Node& mine = core_.node(node_);
  // Fold the deferred report this site may still carry for the object into
  // the release, so versions stamped by earlier (cached) commits publish
  // together with ours.
  CachedFlush pending;
  if (core_.config.lock_cache) pending = mine.lock_cache.take_flush(object);
  if (!commit && pending.records.empty() && pending.advance_to == 0)
    return ReleaseItem{object, std::nullopt};

  ReleaseItem item{object, ReleaseInfo{}};
  if (commit) {
    // Residency ("current") reports move page-map ownership, so they are
    // only safe from WRITE holders: a read lock can be shared, and moving
    // ownership under a concurrent read holder would silently invalidate
    // the map copy that holder received with its grant (its later fetches
    // could then target a site that has since evicted the page).
    const LocalLock* lock_state = family_.locks().find(object);
    const bool exclusive =
        lock_state != nullptr && lock_state->global_mode == LockMode::kWrite;
    std::lock_guard<std::mutex> lock(mine.store_mu);
    if (const ObjectImage* img = mine.store.find(object)) {
      item.info->dirty = img->dirty_pages();
      if (exclusive) {
        const PageSet report =
            core_.protocol_for(core_.meta_of(object)).pages_to_report(*img);
        for (const PageIndex p : report.to_vector())
          item.info->current.emplace_back(p, img->page_version(p));
      }
    } else {
      item.info->dirty = PageSet(core_.meta_of(object).num_pages);
    }
  } else {
    item.info->dirty = PageSet(core_.meta_of(object).num_pages);
  }
  item.info->stamped = std::move(pending.records);
  item.info->advance_to = pending.advance_to;
  return item;
}

void FamilyRunner::push_updates(
    ObjectId object, const std::vector<std::pair<PageIndex, Page>>& pages) {
  if (pages.empty()) return;
  std::vector<NodeId> targets;
  for (const NodeId site : core_.gdo.caching_sites(object))
    if (site != node_) targets.push_back(site);
  if (targets.empty()) return;
  std::sort(targets.begin(), targets.end());

  const ObjectMeta meta = core_.meta_of(object);
  // Partial-failure semantics: unreachable sites are skipped (the push is
  // best-effort; a skipped site's stale pages are caught by the freshness
  // check on its next access) and the updates install only where the
  // multicast actually arrived.
  const std::vector<NodeId> skipped = core_.transport.send_to_all(
      {MessageKind::kUpdatePush, node_, node_, object,
       pages.size() * (core_.config.page_size + 8ULL)},
      targets);
  for (const NodeId site : targets) {
    if (std::find(skipped.begin(), skipped.end(), site) != skipped.end())
      continue;
    Node& target = core_.node(site);
    {
      std::lock_guard<std::mutex> lock(target.store_mu);
      ObjectImage& img = target.store.get_or_create(object, meta.num_pages,
                                                    core_.config.page_size);
      // Defensive version guard: never replace a newer page with an older
      // pushed copy (belt to the push-before-release braces above).
      for (const auto& [p, page] : pages)
        if (!img.has_page(p) || img.page_version(p) < page.version) {
          img.install_page(p, page);
          if (core_.fault != nullptr)
            core_.fault->note_page(site, object, meta.num_pages, p, page);
        }
    }
    core_.enforce_cache_capacity(target);
  }
}

ObjectImage& FamilyRunner::local_image(ObjectId object) {
  Node& mine = core_.node(node_);
  std::lock_guard<std::mutex> lock(mine.store_mu);
  if (ObjectImage* img = mine.store.find(object)) return *img;
  const ObjectMeta meta = core_.meta_of(object);
  return mine.store.create(object, meta.num_pages, core_.config.page_size,
                           /*materialize=*/false);
}

std::function<ObjectImage&(ObjectId)> FamilyRunner::undo_resolver() {
  return [this](ObjectId object) -> ObjectImage& {
    return local_image(object);
  };
}

// ---------------------------------------------------------------------------
// MethodContext
// ---------------------------------------------------------------------------

PageSet MethodContext::check_access(AttrId attr, bool write) const {
  const bool declared = write ? method_.writes.contains(attr)
                              : (method_.reads.contains(attr) ||
                                 method_.writes.contains(attr));
  if (!declared && !method_.may_access_undeclared &&
      runner_.core_.config.strict_access_checks) {
    throw UsageError("method '" + method_.name + "' " +
                     (write ? "writes" : "reads") +
                     " undeclared attribute '" +
                     cls_.layout().attribute(attr).name +
                     "' (the conservative access analysis must cover every "
                     "access; set may_access_undeclared for data-dependent "
                     "methods)");
  }
  return cls_.layout().pages_of(attr);
}

void MethodContext::read_raw(AttrId attr, std::span<std::byte> out) {
  if (out.size() > cls_.layout().attribute(attr).size_bytes)
    throw UsageError("read_raw: larger than attribute");
  const PageSet pages = check_access(attr, /*write=*/false);
  if (runner_.snapshot_active()) {
    runner_.snapshot_read_bytes(txn_, txn_.target(), pages,
                                cls_.layout().offset_of(attr), out);
    return;
  }
  runner_.ensure_fresh(txn_.target(), pages);
  ObjectImage& img = runner_.local_image(txn_.target());
  Node& mine = runner_.core_.node(runner_.node_);
  std::lock_guard<std::mutex> lock(mine.store_mu);
  if (CheckSink* s = runner_.check())
    for (const PageIndex p : pages.to_vector())
      s->on_page_access(runner_.family_.id(), txn_.id().serial, txn_.target(),
                        p, img.has_page(p) ? img.page_version(p) : 0,
                        /*write=*/false);
  img.read_bytes(cls_.layout().offset_of(attr), out);
}

void MethodContext::write_raw(AttrId attr, std::span<const std::byte> in) {
  // Submission-time validation rejects read-only roots whose declared call
  // graph writes; this guards the dynamic escape hatches (invoke through
  // may_access_undeclared reaching a writer at runtime).
  if (runner_.snapshot_active())
    throw UsageError("method '" + method_.name +
                     "' writes inside a read-only (snapshot) family");
  if (in.size() > cls_.layout().attribute(attr).size_bytes)
    throw UsageError("write_raw: larger than attribute");
  const PageSet pages = check_access(attr, /*write=*/true);
  runner_.ensure_fresh(txn_.target(), pages);
  ObjectImage& img = runner_.local_image(txn_.target());
  Node& mine = runner_.core_.node(runner_.node_);
  std::lock_guard<std::mutex> lock(mine.store_mu);
  if (CheckSink* s = runner_.check())
    for (const PageIndex p : pages.to_vector())
      s->on_page_access(runner_.family_.id(), txn_.id().serial, txn_.target(),
                        p, img.has_page(p) ? img.page_version(p) : 0,
                        /*write=*/true);
  const std::uint64_t offset = cls_.layout().offset_of(attr);
  txn_.undo().before_write(img, offset, in.size());
  img.write_bytes(offset, in);
}

bool MethodContext::invoke(ObjectId object, MethodId method) {
  return runner_.run_invocation(&txn_, object, method);
}

bool MethodContext::invoke(ObjectId object, const std::string& method) {
  const ObjectMeta meta = runner_.core_.meta_of(object);
  return invoke(object,
                runner_.core_.registry.get(meta.cls).find_method(method));
}

}  // namespace lotec
