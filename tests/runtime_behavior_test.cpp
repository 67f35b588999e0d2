// Runtime behaviours beyond the smoke tests: demand fetching under
// optimistic prediction, strict access checking, lock upgrades, RC eager
// pushes, read sharing across families, per-object byte attribution,
// GDO-replicated clusters, undo-strategy equivalence, and prefetch hints.
#include <gtest/gtest.h>

#include "runtime/cluster.hpp"

namespace lotec {
namespace {

ClusterConfig base_config(ProtocolKind protocol) {
  ClusterConfig cfg;
  cfg.nodes = 4;
  cfg.protocol = protocol;
  cfg.page_size = 64;
  cfg.seed = 11;
  return cfg;
}

TEST(RuntimeBehaviorTest, LotecDemandFetchesMispredictedPages) {
  ClusterConfig cfg = base_config(ProtocolKind::kLotec);
  Cluster cluster(cfg);
  // Three pages; the method reads a0 (page 0) and a2 (page 2) but the
  // optimistic hint covers only a0, so page 2 arrives by demand fetch.
  AttrSet reads({AttrId(0), AttrId(2)});
  AttrSet writes({AttrId(0)});
  AttrSet hint({AttrId(0)});
  ClassBuilder b("C", cfg.page_size);
  b.attribute("a0", 64).attribute("a1", 64).attribute("a2", 64);
  b.method_ids("m", reads, writes,
               [](MethodContext& ctx) {
                 const auto v = ctx.get<std::int64_t>(AttrId(2));
                 ctx.set<std::int64_t>(AttrId(0),
                                       ctx.get<std::int64_t>(AttrId(0)) + v +
                                           1);
               },
               false, hint);
  const ClassId cls = cluster.define_class(b);
  const ObjectId obj = cluster.create_object(cls, NodeId(0));

  // Write from node 1 (pages fetched on demand where mispredicted), then
  // again from node 2.
  const TxnResult r1 = cluster.run_root(obj, "m", NodeId(1));
  ASSERT_TRUE(r1.committed);
  EXPECT_GE(r1.demand_fetches, 1u);
  const TxnResult r2 = cluster.run_root(obj, "m", NodeId(2));
  ASSERT_TRUE(r2.committed);
  EXPECT_EQ(cluster.peek<std::int64_t>(obj, "a0"), 2);
  EXPECT_GE(cluster.stats().by_kind(MessageKind::kDemandFetchReply).messages,
            1u);
}

TEST(RuntimeBehaviorTest, NonLotecProtocolsNeverDemandFetch) {
  for (const auto protocol :
       {ProtocolKind::kCotec, ProtocolKind::kOtec, ProtocolKind::kRc}) {
    ClusterConfig cfg = base_config(protocol);
    Cluster cluster(cfg);
    const ClassId cls = cluster.define_class(
        ClassBuilder("C", cfg.page_size)
            .attribute("a", 64)
            .attribute("b", 64)
            .method("m", {"a", "b"}, {"a"}, [](MethodContext& ctx) {
              ctx.set<std::int64_t>("a", ctx.get<std::int64_t>("b") + 1);
            }));
    const ObjectId obj = cluster.create_object(cls, NodeId(0));
    for (int i = 0; i < 6; ++i)
      ASSERT_TRUE(cluster.run_root(obj, "m", NodeId(1 + i % 3)).committed);
    EXPECT_EQ(cluster.stats().by_kind(MessageKind::kDemandFetchRequest)
                  .messages,
              0u);
  }
}

TEST(RuntimeBehaviorTest, StrictModeRejectsUndeclaredAccess) {
  ClusterConfig cfg = base_config(ProtocolKind::kLotec);
  Cluster cluster(cfg);
  const ClassId cls = cluster.define_class(
      ClassBuilder("C", cfg.page_size)
          .attribute("declared", 8)
          .attribute("secret", 8)
          .method("sneaky", {"declared"}, {"declared"},
                  [](MethodContext& ctx) {
                    (void)ctx.get<std::int64_t>("secret");  // not declared
                  }));
  const ObjectId obj = cluster.create_object(cls, NodeId(0));
  EXPECT_THROW(cluster.run_root(obj, "sneaky", NodeId(1)), UsageError);
  // The failed family must have cleaned up: the object is lockable again.
  const ClassId ok = cluster.define_class(
      ClassBuilder("Ok", cfg.page_size)
          .attribute("x", 8)
          .method("m", {}, {"x"},
                  [](MethodContext& ctx) { ctx.set<std::int64_t>("x", 5); }));
  const ObjectId obj2 = cluster.create_object(ok, NodeId(2));
  EXPECT_TRUE(cluster.run_root(obj2, "m", NodeId(3)).committed);
}

TEST(RuntimeBehaviorTest, MayAccessUndeclaredAllowsDynamicMethods) {
  ClusterConfig cfg = base_config(ProtocolKind::kLotec);
  Cluster cluster(cfg);
  const ClassId cls = cluster.define_class(
      ClassBuilder("C", cfg.page_size)
          .attribute("a", 64)
          .attribute("b", 64)
          .method("dynamic", {}, {},
                  [](MethodContext& ctx) {
                    // Data-dependent access with no declaration.
                    ctx.set<std::int64_t>("b",
                                          ctx.get<std::int64_t>("a") + 9);
                  },
                  /*may_access_undeclared=*/true));
  const ObjectId obj = cluster.create_object(cls, NodeId(0));
  ASSERT_TRUE(cluster.run_root(obj, "dynamic", NodeId(1)).committed);
  EXPECT_EQ(cluster.peek<std::int64_t>(obj, "b"), 9);
}

TEST(RuntimeBehaviorTest, ReadThenWriteUpgradesGlobalLock) {
  // A family whose root reads object X and then a child writes X requires
  // a GDO upgrade of the family's read lock.
  ClusterConfig cfg = base_config(ProtocolKind::kLotec);
  Cluster cluster(cfg);
  const ClassId xcls = cluster.define_class(
      ClassBuilder("X", cfg.page_size)
          .attribute("v", 8)
          .method("read", {"v"}, {},
                  [](MethodContext& ctx) { (void)ctx.get<std::int64_t>("v"); })
          .method("write", {"v"}, {"v"}, [](MethodContext& ctx) {
            ctx.set<std::int64_t>("v", ctx.get<std::int64_t>("v") + 1);
          }));
  const ObjectId x = cluster.create_object(xcls, NodeId(0));

  const ClassId driver = cluster.define_class(
      ClassBuilder("Driver", cfg.page_size)
          .attribute("pad", 8)
          .method("run", {}, {}, [x](MethodContext& ctx) {
            ASSERT_TRUE(ctx.invoke(x, "read"));   // family takes global R
            ASSERT_TRUE(ctx.invoke(x, "write"));  // needs upgrade to W
          }));
  const ObjectId d = cluster.create_object(driver, NodeId(1));
  ASSERT_TRUE(cluster.run_root(d, "run", NodeId(2)).committed);
  EXPECT_EQ(cluster.peek<std::int64_t>(x, "v"), 1);
}

TEST(RuntimeBehaviorTest, RcPushesKeepCachingSitesCurrent) {
  ClusterConfig cfg = base_config(ProtocolKind::kRc);
  Cluster cluster(cfg);
  const ClassId cls = cluster.define_class(
      ClassBuilder("C", cfg.page_size)
          .attribute("v", 8)
          .method("bump", {"v"}, {"v"}, [](MethodContext& ctx) {
            ctx.set<std::int64_t>("v", ctx.get<std::int64_t>("v") + 1);
          }));
  const ObjectId obj = cluster.create_object(cls, NodeId(0));
  // Nodes 1 and 2 cache the object; node 1's commit must push to 0 and 2.
  ASSERT_TRUE(cluster.run_root(obj, "bump", NodeId(1)).committed);
  ASSERT_TRUE(cluster.run_root(obj, "bump", NodeId(2)).committed);
  const std::uint64_t pushes =
      cluster.stats().by_kind(MessageKind::kUpdatePush).messages;
  EXPECT_GE(pushes, 2u);
  // After the pushes every caching site holds the newest page: a third
  // acquisition fetches nothing.
  const auto fetches_before =
      cluster.stats().by_kind(MessageKind::kPageFetchReply).messages;
  ASSERT_TRUE(cluster.run_root(obj, "bump", NodeId(1)).committed);
  EXPECT_EQ(cluster.stats().by_kind(MessageKind::kPageFetchReply).messages,
            fetches_before);
  EXPECT_EQ(cluster.peek<std::int64_t>(obj, "v"), 3);
}

TEST(RuntimeBehaviorTest, ReadersFromDifferentFamiliesShareTheLock) {
  ClusterConfig cfg = base_config(ProtocolKind::kLotec);
  Cluster cluster(cfg);
  const ClassId cls = cluster.define_class(
      ClassBuilder("C", cfg.page_size)
          .attribute("v", 8)
          .method("read", {"v"}, {}, [](MethodContext& ctx) {
            (void)ctx.get<std::int64_t>("v");
          }));
  const ObjectId obj = cluster.create_object(cls, NodeId(0));
  std::vector<RootRequest> reqs;
  const MethodId read = cluster.method_id(obj, "read");
  for (int i = 0; i < 12; ++i)
    reqs.push_back(RootRequest{obj, read, NodeId(i % 4), {}, nullptr});
  const auto results = cluster.execute(std::move(reqs));
  for (const auto& r : results) EXPECT_TRUE(r.committed);
  // Readers never wait: no queue/wakeup traffic at all.
  EXPECT_EQ(cluster.stats().by_kind(MessageKind::kLockGrantWakeup).messages,
            0u);
}

TEST(RuntimeBehaviorTest, PerObjectAttributionSeparatesTraffic) {
  ClusterConfig cfg = base_config(ProtocolKind::kCotec);
  Cluster cluster(cfg);
  // A big object and a small object; the big one must attract more bytes.
  ClassBuilder big("Big", cfg.page_size);
  big.attribute("blob", cfg.page_size * 32);
  big.method("touch", {"blob"}, {"blob"}, [](MethodContext& ctx) {
    ctx.set<std::int64_t>("blob", 1);
  });
  ClassBuilder small("Small", cfg.page_size);
  small.attribute("v", 8);
  small.method("touch", {"v"}, {"v"},
               [](MethodContext& ctx) { ctx.set<std::int64_t>("v", 1); });
  const ObjectId b = cluster.create_object(cluster.define_class(big),
                                           NodeId(0));
  const ObjectId s = cluster.create_object(cluster.define_class(small),
                                           NodeId(0));
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(cluster.run_root(b, "touch", NodeId(1 + i % 3)).committed);
    ASSERT_TRUE(cluster.run_root(s, "touch", NodeId(1 + i % 3)).committed);
  }
  EXPECT_GT(cluster.stats().by_object(b).bytes,
            4 * cluster.stats().by_object(s).bytes);
  // The page-data view isolates the asymmetry even more sharply.
  EXPECT_GT(cluster.stats().page_data_by_object(b).bytes,
            10 * cluster.stats().page_data_by_object(s).bytes);
}

TEST(RuntimeBehaviorTest, ReplicatedGdoClusterWorks) {
  ClusterConfig cfg = base_config(ProtocolKind::kLotec);
  cfg.gdo.replicate = true;
  Cluster cluster(cfg);
  const ClassId cls = cluster.define_class(
      ClassBuilder("C", cfg.page_size)
          .attribute("v", 8)
          .method("bump", {"v"}, {"v"}, [](MethodContext& ctx) {
            ctx.set<std::int64_t>("v", ctx.get<std::int64_t>("v") + 1);
          }));
  const ObjectId obj = cluster.create_object(cls, NodeId(0));
  for (int i = 0; i < 8; ++i)
    ASSERT_TRUE(cluster.run_root(obj, "bump", NodeId(i % 4)).committed);
  EXPECT_EQ(cluster.peek<std::int64_t>(obj, "v"), 8);
  EXPECT_GT(cluster.stats().by_kind(MessageKind::kGdoReplicaSync).messages,
            0u);
}

TEST(RuntimeBehaviorTest, UndoStrategiesProduceIdenticalStates) {
  // The same commit/abort mix must leave identical object state whether
  // rollback uses byte-range undo logs or shadow pages (Section 4.1: "may
  // be done using either local UNDO logs or shadow pages").
  const auto run_with = [](UndoStrategy undo) {
    ClusterConfig cfg = base_config(ProtocolKind::kLotec);
    cfg.undo = undo;
    Cluster cluster(cfg);
    const ClassId cls = cluster.define_class(
        ClassBuilder("C", cfg.page_size)
            .attribute("v", 8)
            .attribute("w", 8)
            .method("bump", {"v", "w"}, {"v", "w"},
                    [](MethodContext& ctx) {
                      ctx.set<std::int64_t>("v",
                                            ctx.get<std::int64_t>("v") + 1);
                      ctx.set<std::int64_t>("w",
                                            ctx.get<std::int64_t>("w") + 10);
                    })
            .method("doomed", {"v", "w"}, {"v", "w"},
                    [](MethodContext& ctx) {
                      ctx.set<std::int64_t>("v", 999);
                      ctx.set<std::int64_t>("w", 999);
                      ctx.abort();
                    }));
    const ObjectId obj = cluster.create_object(cls, NodeId(0));
    for (int i = 0; i < 6; ++i) {
      EXPECT_TRUE(cluster.run_root(obj, "bump", NodeId(i % 4)).committed);
      EXPECT_FALSE(cluster.run_root(obj, "doomed", NodeId((i + 1) % 4))
                       .committed);
    }
    return std::pair(cluster.peek<std::int64_t>(obj, "v"),
                     cluster.peek<std::int64_t>(obj, "w"));
  };
  const auto a = run_with(UndoStrategy::kByteRange);
  const auto b = run_with(UndoStrategy::kShadowPage);
  const std::pair<std::int64_t, std::int64_t> expected(6, 60);
  EXPECT_EQ(a, expected);
  EXPECT_EQ(a, b);
}

TEST(RuntimeBehaviorTest, PrefetchHintsPreAcquireLockSet) {
  ClusterConfig cfg = base_config(ProtocolKind::kLotec);
  Cluster cluster(cfg);
  const ClassId leaf = cluster.define_class(
      ClassBuilder("Leaf", cfg.page_size)
          .attribute("v", 8)
          .method("bump", {"v"}, {"v"}, [](MethodContext& ctx) {
            ctx.set<std::int64_t>("v", ctx.get<std::int64_t>("v") + 1);
          }));
  const ObjectId l1 = cluster.create_object(leaf, NodeId(0));
  const ObjectId l2 = cluster.create_object(leaf, NodeId(1));
  const ClassId driver = cluster.define_class(
      ClassBuilder("Driver", cfg.page_size)
          .attribute("pad", 8)
          .method("run", {}, {}, [l1, l2](MethodContext& ctx) {
            ASSERT_TRUE(ctx.invoke(l1, "bump"));
            ASSERT_TRUE(ctx.invoke(l2, "bump"));
          }));
  const ObjectId d = cluster.create_object(driver, NodeId(2));

  RootRequest req;
  req.object = d;
  req.method = cluster.method_id(d, "run");
  req.node = NodeId(3);
  const MethodId bump = cluster.method_id(l1, "bump");
  req.prefetch = {{d, cluster.method_id(d, "run")}, {l1, bump}, {l2, bump}};
  const auto results = cluster.execute({std::move(req)});
  ASSERT_TRUE(results[0].committed);
  // The whole family cost at most one pipelined blocking round trip.
  EXPECT_LE(results[0].remote_round_trips, 1u);
  EXPECT_EQ(cluster.peek<std::int64_t>(l1, "v"), 1);
  EXPECT_EQ(cluster.peek<std::int64_t>(l2, "v"), 1);
}

}  // namespace
}  // namespace lotec
