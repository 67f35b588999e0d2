// End-to-end deadlock handling: constructed cross-family deadlocks are
// detected, a victim is aborted and retried, and every family eventually
// commits with intact state.
#include <gtest/gtest.h>

#include "runtime/cluster.hpp"

namespace lotec {
namespace {

/// Payload telling the driver method which two accounts to lock, in order.
struct TwoLockPlan {
  ObjectId first;
  ObjectId second;
};

TEST(DeadlockRuntimeTest, OpposingLockOrdersResolve) {
  ClusterConfig cfg;
  cfg.nodes = 2;
  cfg.protocol = ProtocolKind::kLotec;
  cfg.page_size = 64;
  cfg.seed = 5;
  Cluster cluster(cfg);

  const ClassId cell = cluster.define_class(
      ClassBuilder("Cell", cfg.page_size)
          .attribute("v", 8)
          .method("bump", {"v"}, {"v"}, [](MethodContext& ctx) {
            ctx.set<std::int64_t>("v", ctx.get<std::int64_t>("v") + 1);
          }));
  const ObjectId a = cluster.create_object(cell, NodeId(0));
  const ObjectId b = cluster.create_object(cell, NodeId(1));

  const ClassId driver = cluster.define_class(
      ClassBuilder("Driver", cfg.page_size)
          .attribute("pad", 8)
          .method("run_both", {}, {}, [](MethodContext& ctx) {
            const auto* plan =
                static_cast<const TwoLockPlan*>(ctx.user_data());
            ASSERT_NE(plan, nullptr);
            ASSERT_TRUE(ctx.invoke(plan->first, "bump"));
            ASSERT_TRUE(ctx.invoke(plan->second, "bump"));
          }));
  const ObjectId d0 = cluster.create_object(driver, NodeId(0));
  const ObjectId d1 = cluster.create_object(driver, NodeId(1));

  // Many pairs of families locking (a,b) and (b,a) — a deadlock factory.
  std::vector<RootRequest> reqs;
  const MethodId run_both = cluster.method_id(d0, "run_both");
  for (int i = 0; i < 20; ++i) {
    RootRequest fwd{d0, run_both, NodeId(0), {}, nullptr};
    fwd.user_data = std::make_shared<TwoLockPlan>(TwoLockPlan{a, b});
    RootRequest rev{d1, run_both, NodeId(1), {}, nullptr};
    rev.user_data = std::make_shared<TwoLockPlan>(TwoLockPlan{b, a});
    reqs.push_back(std::move(fwd));
    reqs.push_back(std::move(rev));
  }

  const auto results = cluster.execute(std::move(reqs));
  std::uint64_t retries = 0;
  for (const auto& r : results) {
    EXPECT_TRUE(r.committed);
    retries += static_cast<std::uint64_t>(r.deadlock_retries);
  }
  // Both cells incremented once per committed family.
  EXPECT_EQ(cluster.peek<std::int64_t>(a, "v"), 40);
  EXPECT_EQ(cluster.peek<std::int64_t>(b, "v"), 40);
  // The opposing orders must actually have deadlocked at least once.
  EXPECT_GT(retries, 0u);
}

TEST(DeadlockRuntimeTest, UpgradeDeadlockResolves) {
  ClusterConfig cfg;
  cfg.nodes = 2;
  cfg.protocol = ProtocolKind::kOtec;
  cfg.page_size = 64;
  cfg.seed = 9;
  Cluster cluster(cfg);

  const ClassId cell = cluster.define_class(
      ClassBuilder("Cell", cfg.page_size)
          .attribute("v", 8)
          .method("read", {"v"}, {},
                  [](MethodContext& ctx) { (void)ctx.get<std::int64_t>("v"); })
          .method("write", {"v"}, {"v"}, [](MethodContext& ctx) {
            ctx.set<std::int64_t>("v", ctx.get<std::int64_t>("v") + 1);
          }));
  const ObjectId x = cluster.create_object(cell, NodeId(0));

  const ClassId driver = cluster.define_class(
      ClassBuilder("Driver", cfg.page_size)
          .attribute("pad", 8)
          .method("read_then_write", {}, {}, [x](MethodContext& ctx) {
            ASSERT_TRUE(ctx.invoke(x, "read"));
            ASSERT_TRUE(ctx.invoke(x, "write"));  // upgrade
          }));
  const ObjectId d0 = cluster.create_object(driver, NodeId(0));
  const ObjectId d1 = cluster.create_object(driver, NodeId(1));

  // Two families read-share x, then both try to upgrade: a deadlock only a
  // victim abort can break.
  std::vector<RootRequest> reqs;
  const MethodId m = cluster.method_id(d0, "read_then_write");
  for (int i = 0; i < 10; ++i) {
    reqs.push_back(RootRequest{d0, m, NodeId(0), {}, nullptr});
    reqs.push_back(RootRequest{d1, m, NodeId(1), {}, nullptr});
  }
  const auto results = cluster.execute(std::move(reqs));
  for (const auto& r : results) EXPECT_TRUE(r.committed);
  EXPECT_EQ(cluster.peek<std::int64_t>(x, "v"), 20);
}

}  // namespace
}  // namespace lotec
