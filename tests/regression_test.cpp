// Regressions caught by the randomized soak harness, pinned as
// deterministic tests.
#include <gtest/gtest.h>

#include "sim/validate.hpp"
#include "workload/generator.hpp"

namespace lotec {
namespace {

// soak iteration 193 (base seed 1234): RC protocol + a 4-page cache budget
// + read-shared locks.  A read holder's release used to report residency,
// flapping page-map ownership under a concurrent read holder; the old
// owner's copy then became evictable and the surviving holder's late fetch
// (against its now-stale grant map) hit an evicted page.  Residency reports
// are now restricted to write holders.
TEST(SoakRegressionTest, ReadShareOwnershipFlapWithTinyCache) {
  WorkloadSpec spec;
  spec.num_objects = 23;
  spec.min_pages = 2;
  spec.max_pages = 6;
  spec.num_transactions = 82;
  spec.contention_theta = 1.04;
  spec.touched_attr_fraction = 0.4971;
  spec.write_fraction = 0.6;
  spec.read_method_fraction = 0.3;
  spec.max_depth = 3;
  spec.child_probability = 0.4;
  spec.prediction_coverage = 0.85;
  spec.seed = 16419632643958990576ULL;

  ClusterConfig cfg;
  cfg.nodes = 3;
  cfg.page_size = 512;
  cfg.protocol = ProtocolKind::kRc;
  cfg.seed = 5335475164956675514ULL;
  cfg.cache_capacity_pages = 4;
  Cluster cluster(cfg);
  const Workload workload(spec);
  EXPECT_NO_THROW({
    const auto results = cluster.execute(workload.instantiate(cluster));
    for (const auto& r : results) EXPECT_TRUE(r.committed);
  });
  const auto violations = validate_quiescent(cluster);
  for (const auto& v : violations) ADD_FAILURE() << v;
}

// The same mechanism distilled: two families read-share an object while a
// third node owns its pages; the first reader's release must NOT move
// ownership; after cache pressure evicts redundant copies, the second
// reader's (LOTEC) demand fetch must still find the pages.
TEST(SoakRegressionTest, ReadReleaseDoesNotMoveOwnership) {
  ClusterConfig cfg;
  cfg.nodes = 3;
  cfg.page_size = 256;
  cfg.protocol = ProtocolKind::kOtec;
  cfg.seed = 17;
  Cluster cluster(cfg);
  const ClassId cls = cluster.define_class(
      ClassBuilder("C", cfg.page_size)
          .attribute("v", 8)
          .method("write", {"v"}, {"v"},
                  [](MethodContext& ctx) {
                    ctx.set<std::int64_t>("v", ctx.get<std::int64_t>("v") + 1);
                  })
          .method("read", {"v"}, {}, [](MethodContext& ctx) {
            (void)ctx.get<std::int64_t>("v");
          }));
  const ObjectId obj = cluster.create_object(cls, NodeId(0));
  ASSERT_TRUE(cluster.run_root(obj, "write", NodeId(0)).committed);
  const NodeId owner_before =
      cluster.gdo().snapshot(obj).page_map.at(PageIndex(0)).node;
  // Read from another node and release.
  ASSERT_TRUE(cluster.run_root(obj, "read", NodeId(1)).committed);
  const NodeId owner_after =
      cluster.gdo().snapshot(obj).page_map.at(PageIndex(0)).node;
  EXPECT_EQ(owner_before, owner_after)
      << "a read-only release moved page ownership";
  // A write release still reports residency (single-source discipline).
  ASSERT_TRUE(cluster.run_root(obj, "write", NodeId(2)).committed);
  EXPECT_EQ(cluster.gdo().snapshot(obj).page_map.at(PageIndex(0)).node,
            NodeId(2));
}

// soak seed 999 iteration 55: RC used to send its eager pushes AFTER
// releasing the lock; a slow push could then overwrite a caching site's
// freshly committed (newer) pages with the pusher's older ones, leaving the
// directory pointing at a version the owner no longer held.  Pushes now
// happen before release, and installs are version-guarded.  The sweep over
// cluster seeds checks several release/push interleavings; the invariants
// must hold on every one.
TEST(SoakRegressionTest, RcPushesCannotClobberSuccessorCommits) {
  WorkloadSpec spec;
  spec.num_objects = 21;
  spec.min_pages = 2;
  spec.max_pages = 3;
  spec.num_transactions = 132;
  spec.contention_theta = 0.12;
  spec.seed = 7690008944073303017ULL;

  const Workload workload(spec);
  for (std::uint64_t k = 0; k < 8; ++k) {
    ClusterConfig cfg;
    cfg.nodes = 8;
    cfg.page_size = 512;
    cfg.protocol = ProtocolKind::kRc;
    cfg.seed = 4420676621890058471ULL + k;
    cfg.cache_capacity_pages = 19;
    SCOPED_TRACE("cluster seed " + std::to_string(cfg.seed));
    Cluster cluster(cfg);
    const auto results = cluster.execute(workload.instantiate(cluster));
    for (const auto& r : results) EXPECT_TRUE(r.committed);
    const auto violations = validate_quiescent(cluster);
    for (const auto& v : violations) ADD_FAILURE() << v;
  }
}

}  // namespace
}  // namespace lotec
