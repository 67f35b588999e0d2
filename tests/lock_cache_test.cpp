// Inter-family lock caching (callback locking): zero-message re-acquires at
// the caching site, callback revocation on remote conflict, read-entry
// downgrade, LRU capacity eviction, inertness when disabled, and
// deterministic chaos runs with the cache on.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "check/oracles.hpp"
#include "runtime/cluster.hpp"
#include "sim/experiment.hpp"
#include "sim/scenarios.hpp"
#include "sim/validate.hpp"

namespace lotec {
namespace {

ClassId define_counter(Cluster& cluster, std::uint32_t page_size) {
  return cluster.define_class(
      ClassBuilder("Counter", page_size)
          .attribute("value", 8)
          .method("increment", {"value"}, {"value"},
                  [](MethodContext& ctx) {
                    ctx.set<std::int64_t>("value",
                                          ctx.get<std::int64_t>("value") + 1);
                  })
          .method("read", {"value"}, {},
                  [](MethodContext& ctx) { ctx.get<std::int64_t>("value"); }));
}

/// `count` requests for `method` on `obj`, all at `site`.
std::vector<RootRequest> batch_at(Cluster& cluster, ObjectId obj,
                                  const char* method, int count, NodeId site) {
  const MethodId m = cluster.method_id(obj, method);
  std::vector<RootRequest> reqs;
  for (int i = 0; i < count; ++i) reqs.push_back({obj, m, site, {}, nullptr});
  return reqs;
}

/// A site that is neither the object's directory home nor its creator, so
/// every acquire and page fetch genuinely crosses the wire.
NodeId remote_site(Cluster& cluster, ObjectId obj, NodeId creator) {
  const NodeId home = cluster.gdo().home_of(obj);
  for (std::uint32_t n = 0; n < cluster.num_nodes(); ++n)
    if (NodeId(n) != home && NodeId(n) != creator) return NodeId(n);
  throw UsageError("remote_site: cluster too small");
}

ClusterConfig cache_config(bool lock_cache) {
  ClusterConfig cfg;
  cfg.nodes = 4;
  cfg.page_size = 256;
  // Families run strictly one after another: an idle release window between
  // them is what gives retention something to do (retain_release refuses
  // while anyone is queued).
  cfg.max_active_families = 1;
  cfg.lock_cache = lock_cache;
  return cfg;
}

TEST(LockCacheTest, ReacquireAtSameSiteSendsNoLockMessages) {
  std::uint64_t acquire_msgs[2];
  std::uint64_t lock_msgs_total[2];
  for (const bool enabled : {false, true}) {
    Cluster cluster(cache_config(enabled));
    const ClassId cls = define_counter(cluster, 256);
    const ObjectId obj = cluster.create_object(cls, NodeId(0));
    const NodeId site = remote_site(cluster, obj, NodeId(0));

    const auto results =
        cluster.execute(batch_at(cluster, obj, "increment", 3, site));
    for (const TxnResult& r : results) ASSERT_TRUE(r.committed);
    EXPECT_EQ(cluster.peek<std::int64_t>(obj, "value"), 3);
    EXPECT_TRUE(validate_quiescent(cluster).empty());

    EXPECT_EQ(cluster.gdo().cache_regrants(), enabled ? 2u : 0u);
    EXPECT_EQ(cluster.gdo().cache_callbacks(), 0u);
    acquire_msgs[enabled] =
        cluster.stats().by_kind(MessageKind::kLockAcquireRequest).messages;
    lock_msgs_total[enabled] =
        acquire_msgs[enabled] +
        cluster.stats().by_kind(MessageKind::kLockAcquireGrant).messages +
        cluster.stats().by_kind(MessageKind::kLockReleaseRequest).messages;
  }
  // With the cache, families 2 and 3 acquire without touching the network:
  // one global acquire total instead of three.
  EXPECT_EQ(acquire_msgs[true], 1u);
  EXPECT_EQ(acquire_msgs[false], 3u);
  EXPECT_LT(lock_msgs_total[true], lock_msgs_total[false]);
}

TEST(LockCacheTest, ConflictingRemoteAcquireTriggersCallbackRound) {
  Cluster cluster(cache_config(true));
  const ClassId cls = define_counter(cluster, 256);
  const ObjectId obj = cluster.create_object(cls, NodeId(0));
  const NodeId a = remote_site(cluster, obj, NodeId(0));
  const NodeId home = cluster.gdo().home_of(obj);
  NodeId b;
  for (std::uint32_t n = 0; n < cluster.num_nodes(); ++n)
    if (NodeId(n) != home && NodeId(n) != a) b = NodeId(n);

  // Two writers at `a` (second is a zero-message re-grant), then a writer at
  // `b`: the directory must call `a`'s cached write lock back, flushing the
  // deferred report, before granting `b`.
  auto reqs = batch_at(cluster, obj, "increment", 2, a);
  auto more = batch_at(cluster, obj, "increment", 1, b);
  reqs.insert(reqs.end(), more.begin(), more.end());
  const auto results = cluster.execute(std::move(reqs));
  for (const TxnResult& r : results) ASSERT_TRUE(r.committed);

  EXPECT_EQ(cluster.peek<std::int64_t>(obj, "value"), 3);
  EXPECT_EQ(cluster.gdo().cache_regrants(), 1u);
  EXPECT_EQ(cluster.gdo().cache_callbacks(), 1u);
  EXPECT_EQ(cluster.stats().by_kind(MessageKind::kLockCallback).messages, 1u);
  EXPECT_EQ(cluster.stats().by_kind(MessageKind::kCallbackReply).messages, 1u);
  // The callback extracted `a`'s entry; nothing of `obj` is cached at `a`.
  EXPECT_FALSE(cluster.node(a).lock_cache.contains(obj));
  EXPECT_TRUE(validate_quiescent(cluster).empty());
}

TEST(LockCacheTest, ReadEntriesShareAndAreDiscardedForFree) {
  Cluster cluster(cache_config(true));
  const ClassId cls = define_counter(cluster, 256);
  const ObjectId obj = cluster.create_object(cls, NodeId(0));
  const NodeId a = remote_site(cluster, obj, NodeId(0));
  const NodeId home = cluster.gdo().home_of(obj);
  NodeId b;
  for (std::uint32_t n = 0; n < cluster.num_nodes(); ++n)
    if (NodeId(n) != home && NodeId(n) != a) b = NodeId(n);

  // Readers at two sites: read markers are compatible, so both sites end up
  // caching a read entry with no callback traffic.
  auto reqs = batch_at(cluster, obj, "read", 2, a);
  auto more = batch_at(cluster, obj, "read", 2, b);
  reqs.insert(reqs.end(), more.begin(), more.end());
  const auto results = cluster.execute(std::move(reqs));
  for (const TxnResult& r : results) ASSERT_TRUE(r.committed);

  EXPECT_EQ(cluster.gdo().cache_regrants(), 2u);  // one re-grant per site
  // Read-mode entries are clean: the end-of-batch drain discards them
  // unilaterally, with no flush message charged.
  EXPECT_EQ(cluster.gdo().cache_flushes(), 0u);
  EXPECT_TRUE(validate_quiescent(cluster).empty());
}

TEST(LockCacheTest, CapacityEvictionFlushesLeastRecentlyUsedEntry) {
  ClusterConfig cfg = cache_config(true);
  cfg.lock_cache_capacity = 1;
  Cluster cluster(cfg);
  const ClassId cls = define_counter(cluster, 256);
  const ObjectId o1 = cluster.create_object(cls, NodeId(0));
  const ObjectId o2 = cluster.create_object(cls, NodeId(0));
  const NodeId site = remote_site(cluster, o1, NodeId(0));

  // Alternating objects at one site with room for a single cached lock:
  // every switch evicts (and flushes) the previous object's entry, so the
  // second visit to o1 cannot be a re-grant.
  auto reqs = batch_at(cluster, o1, "increment", 1, site);
  for (const ObjectId obj : {o2, o1, o2}) {
    auto more = batch_at(cluster, obj, "increment", 1, site);
    reqs.insert(reqs.end(), more.begin(), more.end());
  }
  const auto results = cluster.execute(std::move(reqs));
  for (const TxnResult& r : results) ASSERT_TRUE(r.committed);

  EXPECT_EQ(cluster.peek<std::int64_t>(o1, "value"), 2);
  EXPECT_EQ(cluster.peek<std::int64_t>(o2, "value"), 2);
  EXPECT_EQ(cluster.gdo().cache_regrants(), 0u);
  // Three capacity evictions plus the end-of-batch drain of the survivor.
  EXPECT_EQ(cluster.gdo().cache_flushes(), 4u);
  EXPECT_TRUE(validate_quiescent(cluster).empty());
}

TEST(LockCacheTest, DisabledKnobsAreInertOnTheWire) {
  // An unbounded cache config (capacity 0) with the cache itself off must
  // behave bit-identically to the plain config: same messages, same bytes,
  // same order.  A *bounded* capacity with the cache off is no longer
  // silently ignored — ExperimentOptions::validate() rejects it up front.
  WorkloadSpec spec = scenarios::medium_high_contention();
  spec.num_transactions = 60;
  const Workload workload(spec);

  ExperimentOptions base;
  base.cluster.nodes = 8;
  base.record_trace = true;
  ExperimentOptions knobs = base;
  knobs.cluster.lock_cache = false;
  knobs.cluster.lock_cache_capacity = 0;

  const ScenarioResult a = run_scenario(workload, ProtocolKind::kLotec, base);
  const ScenarioResult b = run_scenario(workload, ProtocolKind::kLotec, knobs);
  EXPECT_EQ(a.trace, b.trace);
  EXPECT_EQ(a.total.messages, b.total.messages);
  EXPECT_EQ(a.total.bytes, b.total.bytes);
  EXPECT_EQ(b.counter("cache.regrants"), 0u);
  EXPECT_EQ(b.counter("cache.callbacks"), 0u);
  EXPECT_EQ(b.counter("cache.flushes"), 0u);

  // The previously inert combination is now a configuration error.
  ExperimentOptions bad = base;
  bad.cluster.lock_cache_capacity = 4;
  EXPECT_THROW(bad.validate(), UsageError);
}

TEST(LockCacheTest, SameSiteRaceKeepsDeferredReport) {
  // A family that misses the site cache and is then preempted at its
  // directory round can resume after a sibling at the same site has cached
  // the lock with a deferred report.  The directory drops the site's own
  // marker on acquire, so the resumed family must re-grant (or flush) that
  // entry first; otherwise the report is lost and the end-of-batch drain
  // leaves the site's pages ahead of the directory.  The seed sweep covers
  // schedules that hit the race.
  for (std::uint64_t seed = 1; seed <= 16; ++seed) {
    ClusterConfig cfg = cache_config(true);
    cfg.max_active_families = 4;
    cfg.seed = seed;
    Cluster cluster(cfg);
    const ClassId cls = define_counter(cluster, cfg.page_size);
    const ObjectId obj = cluster.create_object(cls, NodeId(0));
    const NodeId site = remote_site(cluster, obj, NodeId(0));
    // The reader starts first; the writer is the sibling that may cache
    // the lock while the reader waits at its preemption point.
    std::vector<RootRequest> reqs = batch_at(cluster, obj, "read", 1, site);
    reqs.push_back(batch_at(cluster, obj, "increment", 1, site).front());
    SCOPED_TRACE("cluster seed " + std::to_string(seed));
    for (const auto& r : cluster.execute(std::move(reqs)))
      EXPECT_TRUE(r.committed);
    EXPECT_EQ(cluster.peek<std::int64_t>(obj, "value"), 1);
    for (const auto& v : validate_quiescent(cluster)) ADD_FAILURE() << v;
  }
}

TEST(LockCacheTest, SubtreeAbortAfterCachedRegrantReleasesTheCacheEntry) {
  // A child transaction re-grants a lock from its site's cache and then
  // aborts.  The subtree abort releases the lock, so it must also take the
  // site's cache entry and publish the deferred report that entry carries;
  // otherwise the site keeps a cached write lock the directory no longer
  // records, and a writer at another site is granted with no callback.
  check::CacheEpochOracle cache_oracle;
  ClusterConfig cfg = cache_config(true);
  cfg.check_sink = &cache_oracle;
  Cluster cluster(cfg);
  const ClassId counter = cluster.define_class(
      ClassBuilder("Counter", cfg.page_size)
          .attribute("value", 8)
          .method("increment", {"value"}, {"value"},
                  [](MethodContext& ctx) {
                    ctx.set<std::int64_t>("value",
                                          ctx.get<std::int64_t>("value") + 1);
                  })
          .method("increment_then_abort", {"value"}, {"value"},
                  [](MethodContext& ctx) {
                    ctx.set<std::int64_t>("value",
                                          ctx.get<std::int64_t>("value") + 1);
                    ctx.abort();
                  }));
  const ObjectId obj = cluster.create_object(counter, NodeId(0));
  const NodeId a = remote_site(cluster, obj, NodeId(0));
  const NodeId home = cluster.gdo().home_of(obj);
  NodeId b;
  for (std::uint32_t n = 0; n < cluster.num_nodes(); ++n)
    if (NodeId(n) != home && NodeId(n) != a) b = NodeId(n);
  const ClassId wrapper_cls = cluster.define_class(
      ClassBuilder("Wrapper", cfg.page_size)
          .attribute("tries", 8)
          .method("nested", {"tries"}, {"tries"},
                  [obj](MethodContext& ctx) {
                    EXPECT_FALSE(ctx.invoke(obj, "increment_then_abort"));
                    ctx.set<std::int64_t>("tries",
                                          ctx.get<std::int64_t>("tries") + 1);
                  }));
  const ObjectId wrapper = cluster.create_object(wrapper_cls, a);

  // One at a time: `a` commits and caches its write lock, a nested family
  // at `a` re-grants it in a child that aborts, then `b` writes.
  std::vector<RootRequest> reqs = batch_at(cluster, obj, "increment", 1, a);
  reqs.push_back(batch_at(cluster, wrapper, "nested", 1, a).front());
  reqs.push_back(batch_at(cluster, obj, "increment", 1, b).front());
  for (const TxnResult& r : cluster.execute(std::move(reqs)))
    EXPECT_TRUE(r.committed);

  EXPECT_EQ(cluster.gdo().cache_regrants(), 1u);
  EXPECT_EQ(cluster.peek<std::int64_t>(obj, "value"), 2);
  EXPECT_EQ(cluster.peek<std::int64_t>(wrapper, "tries"), 1);
  if (const auto v = cache_oracle.finish()) ADD_FAILURE() << v->detail;
  for (const auto& v : validate_quiescent(cluster)) ADD_FAILURE() << v;
}

TEST(LockCacheTest, HotSiteWorkloadCutsLockTraffic) {
  // All families pinned to their object's home site: the cache converts
  // repeat acquires into local re-grants and total lock traffic drops.
  WorkloadSpec spec = scenarios::medium_high_contention();
  spec.num_transactions = 80;
  const Workload workload(spec);

  ExperimentOptions options;
  options.cluster.nodes = 8;
  options.cluster.max_active_families = 1;
  options.site_locality = 1.0;

  const ScenarioResult off =
      run_scenario(workload, ProtocolKind::kLotec, options);
  options.cluster.lock_cache = true;
  const ScenarioResult on =
      run_scenario(workload, ProtocolKind::kLotec, options);

  EXPECT_EQ(on.committed, off.committed);
  EXPECT_EQ(on.aborted, off.aborted);
  EXPECT_GT(on.counter("cache.regrants"), 0u);
  EXPECT_LT(on.counter("net.lock_messages"), off.counter("net.lock_messages"));
}

TEST(LockCacheTest, EvictionRacingCallbackRoundLeavesDirectoryConsistent) {
  // The evict-while-callback-pending window: capacity eviction extracts the
  // entry locally (take_flush) *before* its flush reaches the directory.  If
  // the flush never lands, the directory still holds the cached marker and a
  // later conflicting acquire runs a full kLockCallback round against a site
  // whose entry is already gone — revoke() must come back empty-handed and
  // the directory must still erase the marker and grant.  Releases are
  // modeled reliable (cannot be dropped), so the flush is killed the only
  // way a reliable send can die: its destination — o1's directory home —
  // crashes on that exact message, and the replicated failover directory
  // keeps serving the stale marker.
  ClusterConfig cfg = cache_config(true);
  cfg.lock_cache_capacity = 1;
  cfg.gdo.replicate = true;
  FaultEvent crash;  // fell the flush's destination on the flush itself
  crash.action = FaultAction::kCrashNode;
  crash.on_kind = MessageKind::kLockReleaseRequest;
  crash.nth = 1;
  crash.target = FaultTarget::kMessageDst;
  cfg.fault.events.push_back(crash);
  Cluster cluster(cfg);
  const ClassId cls = define_counter(cluster, 256);
  const ObjectId o1 = cluster.create_object(cls, NodeId(0));
  const ObjectId o2 = cluster.create_object(cls, NodeId(0));
  const NodeId a = remote_site(cluster, o1, NodeId(0));
  const NodeId home = cluster.gdo().home_of(o1);
  NodeId b;
  for (std::uint32_t n = 0; n < cluster.num_nodes(); ++n)
    if (NodeId(n) != home && NodeId(n) != a) b = NodeId(n);

  // f1 caches o1's write lock at `a`; f2 (o2 at `a`) overflows the 1-entry
  // cache and evicts o1 — the flush is the batch's first kLockReleaseRequest
  // and the fault schedule kills it, stranding o1's marker at the directory;
  // f3 (o1 at `b`) then collides with that stale marker.
  auto reqs = batch_at(cluster, o1, "increment", 1, a);
  auto more = batch_at(cluster, o2, "increment", 1, a);
  reqs.insert(reqs.end(), more.begin(), more.end());
  more = batch_at(cluster, o1, "increment", 1, b);
  reqs.insert(reqs.end(), more.begin(), more.end());
  const auto results = cluster.execute(std::move(reqs));
  for (const TxnResult& r : results) ASSERT_TRUE(r.committed);

  // Exactly the flush died (its destination crashed on it), and it was o1's.
  ASSERT_GE(cluster.fault_engine()->trace().size(), 1u);
  const FaultRecord& killed = cluster.fault_engine()->trace()[0];
  EXPECT_EQ(killed.action, FaultAction::kCrashNode);
  EXPECT_EQ(killed.kind, MessageKind::kLockReleaseRequest);
  EXPECT_EQ(killed.object, o1);
  EXPECT_EQ(killed.node, home);

  // The collision ran a real callback round (wire messages and all) against
  // the evicted entry, and the empty reply still cleared the marker.
  EXPECT_EQ(cluster.gdo().cache_callbacks(), 1u);
  EXPECT_EQ(cluster.stats().by_kind(MessageKind::kLockCallback).messages, 1u);
  EXPECT_EQ(cluster.stats().by_kind(MessageKind::kCallbackReply).messages, 1u);
  EXPECT_FALSE(cluster.node(a).lock_cache.contains(o1));

  // Writeback semantics: o1's update at `a` was committed under the cached
  // lock and its flush died, so `b` built on the last *published* version —
  // the deferred increment is lost, the directory never serves a torn state.
  EXPECT_EQ(cluster.peek<std::int64_t>(o1, "value"), 1);
  EXPECT_EQ(cluster.peek<std::int64_t>(o2, "value"), 1);
  EXPECT_TRUE(validate_quiescent(cluster).empty());
}

/// One seeded chaos run with the lock cache on: crash + restart the hot
/// object's directory home and the caching site mid-workload.
struct CacheChaosOutcome {
  std::vector<TraceEvent> messages;
  std::int64_t value = 0;
  std::uint64_t crashes = 0;
  std::size_t committed = 0;

  friend bool operator==(const CacheChaosOutcome&,
                         const CacheChaosOutcome&) = default;
};

CacheChaosOutcome run_cache_chaos(std::uint64_t seed, NodeId home,
                                  NodeId holder) {
  ClusterConfig cfg;
  cfg.nodes = 4;
  cfg.page_size = 256;
  cfg.seed = seed;
  cfg.max_active_families = 1;
  cfg.lock_cache = true;
  cfg.gdo.replicate = true;
  cfg.fault = fault_presets::chaos(home, holder, seed,
                                   /*first_crash_tick=*/40, /*window=*/60,
                                   /*drop=*/0.02);
  Cluster cluster(cfg);
  const ClassId cls = define_counter(cluster, cfg.page_size);
  const ObjectId obj = cluster.create_object(cls, holder);
  cluster.stats().enable_trace(1 << 20);

  // Alternate the writer between two sites: every handoff is a callback
  // round plus a flush, which keeps messages (and the fault clock) moving.
  const MethodId m = cluster.method_id(obj, "increment");
  std::vector<RootRequest> reqs;
  for (int i = 0; i < 32; ++i)
    reqs.push_back({obj, m,
                    i % 2 ? NodeId((holder.value() + 1) % 4) : holder,
                    {},
                    nullptr});
  const auto results = cluster.execute(std::move(reqs));

  CacheChaosOutcome out;
  out.messages = cluster.stats().trace();
  out.value = cluster.peek<std::int64_t>(obj, "value");
  out.crashes = cluster.fault_engine()->stats().crashes;
  for (const TxnResult& r : results) out.committed += r.committed ? 1 : 0;
  const auto violations = validate_quiescent(cluster);
  for (const auto& v : violations) ADD_FAILURE() << v;
  return out;
}

TEST(LockCacheTest, ChaosWithCacheIsDeterministicAndRecovers) {
  ClusterConfig probe_cfg;
  probe_cfg.nodes = 4;
  probe_cfg.page_size = 256;
  Cluster probe(probe_cfg);
  const ClassId probe_cls = define_counter(probe, probe_cfg.page_size);
  const ObjectId probe_obj = probe.create_object(probe_cls, NodeId(0));
  const NodeId home = probe.gdo().home_of(probe_obj);
  const NodeId holder((home.value() + 2) % 4);

  const CacheChaosOutcome a = run_cache_chaos(11, home, holder);
  const CacheChaosOutcome b = run_cache_chaos(11, home, holder);
  EXPECT_EQ(a, b);  // same seed: byte-identical run, cache included

  EXPECT_GE(a.crashes, 1u);
  // Crashing the caching site may lose updates committed under a cached
  // lock whose flush never happened (writeback semantics); the directory
  // stays consistent, so the surviving value never exceeds the commits.
  EXPECT_LE(a.value, static_cast<std::int64_t>(a.committed));
  EXPECT_GT(a.value, 0);
}

}  // namespace
}  // namespace lotec
