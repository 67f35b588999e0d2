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

}  // namespace
}  // namespace lotec
