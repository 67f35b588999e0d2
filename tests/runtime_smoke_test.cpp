// End-to-end smoke tests of the Cluster runtime: transactions commit, data
// moves between sites, nested invocations work, and the oracle (peek) sees
// committed state.
#include <gtest/gtest.h>

#include "runtime/cluster.hpp"

namespace lotec {
namespace {

ClusterConfig small_config(ProtocolKind protocol) {
  ClusterConfig cfg;
  cfg.nodes = 4;
  cfg.protocol = protocol;
  cfg.page_size = 256;
  cfg.seed = 42;
  return cfg;
}

ClassBuilder counter_class(std::uint32_t page_size) {
  return ClassBuilder("Counter", page_size)
      .attribute("value", 8)
      .attribute("updates", 8)
      .method("increment", {"value", "updates"}, {"value", "updates"},
              [](MethodContext& ctx) {
                ctx.set<std::int64_t>("value",
                                      ctx.get<std::int64_t>("value") + 1);
                ctx.set<std::int64_t>("updates",
                                      ctx.get<std::int64_t>("updates") + 1);
              })
      .method("read", {"value"}, {}, [](MethodContext& ctx) {
        (void)ctx.get<std::int64_t>("value");
      });
}

class RuntimeSmokeTest : public ::testing::TestWithParam<ProtocolKind> {};

TEST_P(RuntimeSmokeTest, SingleIncrementCommits) {
  Cluster cluster(small_config(GetParam()));
  const ClassId cls = cluster.define_class(counter_class(256));
  const ObjectId obj = cluster.create_object(cls, NodeId(0));

  const TxnResult r = cluster.run_root(obj, "increment", NodeId(1));
  EXPECT_TRUE(r.committed);
  EXPECT_EQ(r.attempts, 1);
  EXPECT_EQ(cluster.peek<std::int64_t>(obj, "value"), 1);
}

TEST_P(RuntimeSmokeTest, ManyIncrementsFromAllNodesSerialize) {
  Cluster cluster(small_config(GetParam()));
  const ClassId cls = cluster.define_class(counter_class(256));
  const ObjectId obj = cluster.create_object(cls, NodeId(0));

  constexpr int kTxns = 40;
  std::vector<RootRequest> reqs;
  const MethodId inc = cluster.method_id(obj, "increment");
  for (int i = 0; i < kTxns; ++i)
    reqs.push_back(RootRequest{obj, inc, NodeId(i % 4), {}, nullptr});
  const auto results = cluster.execute(std::move(reqs));

  int committed = 0;
  for (const auto& r : results) committed += r.committed ? 1 : 0;
  EXPECT_EQ(committed, kTxns);
  EXPECT_EQ(cluster.peek<std::int64_t>(obj, "value"), kTxns);
  EXPECT_EQ(cluster.peek<std::int64_t>(obj, "updates"), kTxns);
}

TEST_P(RuntimeSmokeTest, NestedTransferMovesMoney) {
  ClusterConfig cfg = small_config(GetParam());
  Cluster cluster(cfg);
  const ClassId account =
      cluster.define_class(ClassBuilder("Account", cfg.page_size)
                               .attribute("balance", 8)
                               .method("add100",
                                       {"balance"}, {"balance"},
                                       [](MethodContext& ctx) {
                                         ctx.set<std::int64_t>(
                                             "balance",
                                             ctx.get<std::int64_t>("balance") +
                                                 100);
                                       })
                               .method("sub100",
                                       {"balance"}, {"balance"},
                                       [](MethodContext& ctx) {
                                         ctx.set<std::int64_t>(
                                             "balance",
                                             ctx.get<std::int64_t>("balance") -
                                                 100);
                                       }));
  const ObjectId a = cluster.create_object(account, NodeId(0));
  const ObjectId b = cluster.create_object(account, NodeId(2));

  // A "Bank" object whose transfer method nests two sub-transactions.
  const ClassId bank = cluster.define_class(
      ClassBuilder("Bank", cfg.page_size)
          .attribute("transfers", 8)
          .method("transfer", {"transfers"}, {"transfers"},
                  [a, b](MethodContext& ctx) {
                    ASSERT_TRUE(ctx.invoke(a, "sub100"));
                    ASSERT_TRUE(ctx.invoke(b, "add100"));
                    ctx.set<std::int64_t>(
                        "transfers", ctx.get<std::int64_t>("transfers") + 1);
                  }));
  const ObjectId bk = cluster.create_object(bank, NodeId(3));

  for (int i = 0; i < 5; ++i) {
    const TxnResult r = cluster.run_root(bk, "transfer", NodeId(1));
    ASSERT_TRUE(r.committed);
    EXPECT_EQ(r.txns_in_tree, 3u);  // root + two children
  }
  EXPECT_EQ(cluster.peek<std::int64_t>(a, "balance"), -500);
  EXPECT_EQ(cluster.peek<std::int64_t>(b, "balance"), 500);
  EXPECT_EQ(cluster.peek<std::int64_t>(bk, "transfers"), 5);
}

TEST_P(RuntimeSmokeTest, UserAbortRollsBackWholeFamily) {
  ClusterConfig cfg = small_config(GetParam());
  Cluster cluster(cfg);
  const ClassId cls = cluster.define_class(counter_class(cfg.page_size));
  const ObjectId obj = cluster.create_object(cls, NodeId(0));

  const ClassId aborter = cluster.define_class(
      ClassBuilder("Aborter", cfg.page_size)
          .attribute("pad", 8)
          .method("doomed", {}, {},
                  [obj](MethodContext& ctx) {
                    ASSERT_TRUE(ctx.invoke(obj, "increment"));
                    ctx.abort();  // roll back the increment too
                  }));
  const ObjectId ab = cluster.create_object(aborter, NodeId(1));

  const TxnResult r = cluster.run_root(ab, "doomed", NodeId(2));
  EXPECT_FALSE(r.committed);
  EXPECT_EQ(r.reason, AbortReason::kUser);
  EXPECT_EQ(cluster.peek<std::int64_t>(obj, "value"), 0);

  // The aborted family must have released everything: a fresh transaction
  // acquires and commits without contention.
  EXPECT_TRUE(cluster.run_root(obj, "increment", NodeId(3)).committed);
  EXPECT_EQ(cluster.peek<std::int64_t>(obj, "value"), 1);
}

TEST_P(RuntimeSmokeTest, SubTransactionAbortKeepsParentAlive) {
  ClusterConfig cfg = small_config(GetParam());
  Cluster cluster(cfg);

  const ClassId flaky = cluster.define_class(
      ClassBuilder("Flaky", cfg.page_size)
          .attribute("scratch", 8)
          .method("failing_child", {"scratch"}, {"scratch"},
                  [](MethodContext& ctx) {
                    ctx.set<std::int64_t>("scratch", 999);  // undone by abort
                    ctx.abort();
                  }));
  const ObjectId child_obj = cluster.create_object(flaky, NodeId(0));

  const ClassId parent_cls = cluster.define_class(
      ClassBuilder("Parent", cfg.page_size)
          .attribute("done", 8)
          .method("parent", {"done"}, {"done"},
                  [child_obj](MethodContext& ctx) {
                    // Child aborts; parent observes the failure, continues
                    // and commits its own work (Moss: failing sub-txns do
                    // not doom the family).
                    EXPECT_FALSE(ctx.invoke(child_obj, "failing_child"));
                    ctx.set<std::int64_t>("done", 1);
                  }));
  const ObjectId parent_obj = cluster.create_object(parent_cls, NodeId(1));

  const TxnResult r = cluster.run_root(parent_obj, "parent", NodeId(2));
  EXPECT_TRUE(r.committed);
  EXPECT_EQ(cluster.peek<std::int64_t>(parent_obj, "done"), 1);
  EXPECT_EQ(cluster.peek<std::int64_t>(child_obj, "scratch"), 0);
}

TEST_P(RuntimeSmokeTest, MutualRecursionIsPrecluded) {
  ClusterConfig cfg = small_config(GetParam());
  cfg.max_retries = 3;
  Cluster cluster(cfg);
  // parent's method writes the object and then invokes another method on
  // the SAME object: the child needs a lock its ancestor still holds, which
  // the runtime must preclude (Section 3.4).
  const ClassId cls = cluster.define_class(
      ClassBuilder("SelfCaller", cfg.page_size)
          .attribute("x", 8)
          .method("inner", {"x"}, {"x"},
                  [](MethodContext& ctx) { ctx.set<std::int64_t>("x", 2); })
          .method("outer", {"x"}, {"x"}, [](MethodContext& ctx) {
            ctx.set<std::int64_t>("x", 1);
            ctx.invoke(ObjectId(0), "inner");  // same object
          }));
  const ObjectId obj = cluster.create_object(cls, NodeId(0));
  ASSERT_EQ(obj.value(), 0u);

  EXPECT_THROW(cluster.run_root(obj, "outer", NodeId(1)),
               RecursiveInvocationError);
}

// Every family runs on a fixed-size fiber stack: a chain of a few hundred
// nested invocations, with families preempted and blocked deep inside it,
// must fit (no guard-page crash) and commit.
TEST_P(RuntimeSmokeTest, DeepNestingChainCommits) {
  constexpr std::uint64_t kDepth = 400;
  constexpr int kFamilies = 4;
  ClusterConfig cfg = small_config(GetParam());
  Cluster cluster(cfg);
  const ClassId link = cluster.define_class(
      ClassBuilder("Link", cfg.page_size)
          .attribute("visits", 8)
          .method("descend", {"visits"}, {"visits"},
                  [](MethodContext& ctx) {
                    ctx.set<std::int64_t>(
                        "visits", ctx.get<std::int64_t>("visits") + 1);
                    const std::uint64_t next = ctx.target().value() + 1;
                    if (next < kDepth) {
                      ASSERT_TRUE(ctx.invoke(ObjectId(next), "descend"));
                    }
                  }));
  for (std::uint64_t i = 0; i < kDepth; ++i)
    ASSERT_EQ(cluster.create_object(link, NodeId(static_cast<std::uint32_t>(
                                              i % cfg.nodes)))
                  .value(),
              i);

  const MethodId descend = cluster.method_id(ObjectId(0), "descend");
  std::vector<RootRequest> reqs;
  for (int i = 0; i < kFamilies; ++i)
    reqs.push_back(RootRequest{ObjectId(0), descend,
                               NodeId(static_cast<std::uint32_t>(i)), {},
                               nullptr});
  for (const TxnResult& r : cluster.execute(std::move(reqs))) {
    EXPECT_TRUE(r.committed);
    EXPECT_EQ(r.txns_in_tree, kDepth);
  }
  EXPECT_EQ(cluster.peek<std::int64_t>(ObjectId(0), "visits"), kFamilies);
  EXPECT_EQ(cluster.peek<std::int64_t>(ObjectId(kDepth - 1), "visits"),
            kFamilies);
}

INSTANTIATE_TEST_SUITE_P(AllProtocols, RuntimeSmokeTest,
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

}  // namespace
}  // namespace lotec
