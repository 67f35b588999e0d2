// validate_quiescent: the system-wide invariants hold after every kind of
// run — commits, aborts, deadlock storms, cache pressure, every protocol.
#include <gtest/gtest.h>

#include "sim/experiment.hpp"
#include "sim/validate.hpp"
#include "workload/generator.hpp"

namespace lotec {
namespace {

void expect_clean(Cluster& cluster) {
  const auto violations = validate_quiescent(cluster);
  for (const auto& v : violations) ADD_FAILURE() << v;
}

class ValidateTest : public ::testing::TestWithParam<ProtocolKind> {};

TEST_P(ValidateTest, AfterPlainWorkload) {
  WorkloadSpec spec;
  spec.num_objects = 10;
  spec.min_pages = 2;
  spec.max_pages = 5;
  spec.num_transactions = 80;
  spec.contention_theta = 0.7;
  spec.seed = 55;
  const Workload workload(spec);

  ClusterConfig cfg;
  cfg.nodes = 4;
  cfg.page_size = 256;
  cfg.protocol = GetParam();
  cfg.seed = 6;
  Cluster cluster(cfg);
  (void)cluster.execute(workload.instantiate(cluster));
  expect_clean(cluster);
}

TEST_P(ValidateTest, AfterInjectedAborts) {
  WorkloadSpec spec;
  spec.num_objects = 8;
  spec.min_pages = 1;
  spec.max_pages = 4;
  spec.num_transactions = 60;
  spec.abort_probability = 0.3;
  spec.seed = 56;
  const Workload workload(spec);

  ClusterConfig cfg;
  cfg.nodes = 4;
  cfg.page_size = 256;
  cfg.protocol = GetParam();
  cfg.seed = 6;
  Cluster cluster(cfg);
  (void)cluster.execute(workload.instantiate(cluster));
  expect_clean(cluster);
}

TEST_P(ValidateTest, AfterCachePressure) {
  WorkloadSpec spec;
  spec.num_objects = 8;
  spec.min_pages = 2;
  spec.max_pages = 5;
  spec.num_transactions = 50;
  spec.contention_theta = 0.6;
  spec.seed = 57;
  const Workload workload(spec);

  ClusterConfig cfg;
  cfg.nodes = 4;
  cfg.page_size = 256;
  cfg.protocol = GetParam();
  cfg.seed = 6;
  cfg.cache_capacity_pages = 6;
  Cluster cluster(cfg);
  (void)cluster.execute(workload.instantiate(cluster));
  expect_clean(cluster);
}

INSTANTIATE_TEST_SUITE_P(AllProtocols, ValidateTest,
                         ::testing::Values(ProtocolKind::kCotec,
                                           ProtocolKind::kOtec,
                                           ProtocolKind::kLotec,
                                           ProtocolKind::kRc,
                                           ProtocolKind::kLotecDsd),
                         [](const auto& info) {
                           std::string name(to_string(info.param));
                           std::erase(name, '-');
                           return name;
                         });

TEST(ValidateTest2, AfterDeadlockStorm) {
  // Non-hierarchical targets + high contention: plenty of deadlock
  // victims; everything must still be released and honest afterwards.
  WorkloadSpec spec;
  spec.num_objects = 6;
  spec.min_pages = 1;
  spec.max_pages = 3;
  spec.num_transactions = 60;
  spec.contention_theta = 0.9;
  spec.hierarchical_targets = false;
  spec.seed = 58;
  const Workload workload(spec);

  ClusterConfig cfg;
  cfg.nodes = 4;
  cfg.page_size = 256;
  cfg.protocol = ProtocolKind::kLotec;
  cfg.seed = 6;
  Cluster cluster(cfg);
  const auto results = cluster.execute(workload.instantiate(cluster));
  std::uint64_t retries = 0;
  for (const auto& r : results)
    retries += static_cast<std::uint64_t>(r.deadlock_retries);
  EXPECT_GT(retries, 0u) << "storm did not storm";
  const auto violations = validate_quiescent(cluster);
  for (const auto& v : violations) ADD_FAILURE() << v;
}

TEST(ValidateTest2, DetectsArtificialViolations) {
  // Sanity: the validator is not a rubber stamp — corrupt state by hand
  // and it must complain.
  ClusterConfig cfg;
  cfg.nodes = 2;
  cfg.page_size = 64;
  Cluster cluster(cfg);
  const ClassId cls = cluster.define_class(
      ClassBuilder("C", cfg.page_size)
          .attribute("v", 8)
          .method("bump", {"v"}, {"v"}, [](MethodContext& ctx) {
            ctx.set<std::int64_t>("v", ctx.get<std::int64_t>("v") + 1);
          }));
  const ObjectId obj = cluster.create_object(cls, NodeId(0));
  ASSERT_TRUE(cluster.run_root(obj, "bump", NodeId(1)).committed);
  EXPECT_TRUE(validate_quiescent(cluster).empty());

  // Violation A: lingering dirty bit.
  {
    Node& n1 = cluster.node(NodeId(1));
    std::vector<std::byte> b{std::byte{9}};
    n1.store.get(obj).write_bytes(0, b);
  }
  EXPECT_FALSE(validate_quiescent(cluster).empty());
  {
    Node& n1 = cluster.node(NodeId(1));
    n1.store.get(obj).clear_dirty();
  }
  EXPECT_TRUE(validate_quiescent(cluster).empty());

  // Violation B: owner no longer resident.
  {
    Node& n1 = cluster.node(NodeId(1));
    n1.store.get(obj).evict_page(PageIndex(0));
  }
  EXPECT_FALSE(validate_quiescent(cluster).empty());
}

// --- elastic-directory knob validation (PROTOCOL.md §15) --------------------
// The ring composes with most of the stack but not all of it; every illegal
// combination must die at validate() with a message that names the fix, not
// surface as a mid-run surprise.

std::string rejection_of(const ClusterConfig& cfg) {
  try {
    cfg.validate();
  } catch (const UsageError& e) {
    return e.what();
  }
  ADD_FAILURE() << "config unexpectedly validated";
  return {};
}

ClusterConfig ring_cfg() {
  ClusterConfig cfg;
  cfg.nodes = 4;
  cfg.gdo.ring.enabled = true;
  return cfg;
}

TEST(RingValidationTest, AcceptsAWellFormedRingConfig) {
  EXPECT_NO_THROW(ring_cfg().validate());
  // Quorum mirror groups are built on replication; the cluster turns it on.
  const Cluster cluster(ring_cfg());
  EXPECT_TRUE(cluster.config().gdo.replicate);
}

TEST(RingValidationTest, RejectsIncompatibleKnobs) {
  ClusterConfig cfg = ring_cfg();
  cfg.wire.enabled = true;
  EXPECT_NE(rejection_of(cfg).find("--distributed"), std::string::npos);

  cfg = ring_cfg();
  cfg.mv_read = true;
  EXPECT_NE(rejection_of(cfg).find("mv_read"), std::string::npos);

  cfg = ring_cfg();
  cfg.lock_cache = true;
  EXPECT_NE(rejection_of(cfg).find("lock_cache"), std::string::npos);
}

TEST(RingValidationTest, RejectsDegenerateRingShapes) {
  ClusterConfig cfg = ring_cfg();
  cfg.gdo.ring.mirror_group = 0;
  EXPECT_NE(rejection_of(cfg).find("mirror_group"), std::string::npos);

  cfg = ring_cfg();
  cfg.gdo.ring.mirror_group = 4;  // == nodes: the group cannot fit
  EXPECT_NE(rejection_of(cfg).find("mirror_group"), std::string::npos);

  cfg = ring_cfg();
  cfg.gdo.ring.virtual_nodes = 0;
  EXPECT_NE(rejection_of(cfg).find("virtual_nodes"), std::string::npos);

  cfg = ring_cfg();
  cfg.nodes = 1;
  cfg.gdo.ring.mirror_group = 1;
  EXPECT_NE(rejection_of(cfg).find("2 nodes"), std::string::npos);
}

TEST(RingValidationTest, RejectsRingFaultEventsWithoutTheRing) {
  ClusterConfig cfg;
  cfg.nodes = 4;
  cfg.fault = fault_presets::rebalance({NodeId(1)}, 1);
  EXPECT_NE(rejection_of(cfg).find("--rebalance"), std::string::npos);

  // And with the ring on, the membership events must name a real node.
  cfg = ring_cfg();
  cfg.fault = fault_presets::rebalance({NodeId(9)}, 1);
  EXPECT_NE(rejection_of(cfg).find("ring member"), std::string::npos);
}

TEST(RingValidationTest, ExperimentOptionsRunTheSameChecks) {
  // The sim-side options funnel through cluster.validate(), so a tool
  // passing --rebalance plus an incompatible flag dies identically.
  ExperimentOptions opt;
  opt.cluster.nodes = 4;
  opt.cluster.gdo.ring.enabled = true;
  EXPECT_NO_THROW(opt.validate());

  opt.cluster.mv_read = true;
  EXPECT_THROW(opt.validate(), UsageError);
  opt.cluster.mv_read = false;

  opt.cluster.wire.enabled = true;
  EXPECT_THROW(opt.validate(), UsageError);
  opt.cluster.wire.enabled = false;

  opt.cluster.lock_cache = true;
  EXPECT_THROW(opt.validate(), UsageError);
}

}  // namespace
}  // namespace lotec
