// Additional runtime coverage: deep nesting, multi-page attributes,
// fair-reader and release-ack configurations, and script-driven mixed
// workload sanity.
#include <gtest/gtest.h>

#include "sim/experiment.hpp"
#include "sim/validate.hpp"
#include "workload/generator.hpp"

namespace lotec {
namespace {

TEST(RuntimeExtrasTest, DeepNestingChain) {
  ClusterConfig cfg;
  cfg.nodes = 4;
  cfg.page_size = 64;
  cfg.seed = 31;
  Cluster cluster(cfg);

  // A chain of 24 cells, each invoking the next: nesting depth 24.
  constexpr int kChain = 24;
  const ClassId cls = cluster.define_class(
      ClassBuilder("Link", cfg.page_size)
          .attribute("v", 8)
          .method("ripple", {"v"}, {"v"}, [](MethodContext& ctx) {
            ctx.set<std::int64_t>("v", ctx.get<std::int64_t>("v") + 1);
            const auto* chain =
                static_cast<const std::vector<ObjectId>*>(ctx.user_data());
            // Invoke the next link, if any (this object's position is its
            // id's index in the chain).
            for (std::size_t i = 0; i + 1 < chain->size(); ++i) {
              if ((*chain)[i] == ctx.target()) {
                ASSERT_TRUE(ctx.invoke((*chain)[i + 1], "ripple"));
                break;
              }
            }
          }));
  auto chain = std::make_shared<std::vector<ObjectId>>();
  for (int i = 0; i < kChain; ++i)
    chain->push_back(cluster.create_object(cls));

  RootRequest req;
  req.object = chain->front();
  req.method = cluster.method_id(req.object, "ripple");
  req.user_data = chain;
  const auto results = cluster.execute({std::move(req)});
  ASSERT_TRUE(results[0].committed);
  EXPECT_EQ(results[0].txns_in_tree, static_cast<std::uint32_t>(kChain));
  for (const ObjectId link : *chain)
    EXPECT_EQ(cluster.peek<std::int64_t>(link, "v"), 1);
}

TEST(RuntimeExtrasTest, MultiPageAttributeRoundTrip) {
  ClusterConfig cfg;
  cfg.nodes = 3;
  cfg.page_size = 64;
  cfg.seed = 32;
  Cluster cluster(cfg);
  // A 300-byte attribute spanning 5 pages, plus an 8-byte one.
  const ClassId cls = cluster.define_class(
      ClassBuilder("Blob", cfg.page_size)
          .attribute("data", 300)
          .attribute("len", 8)
          .method("fill", {}, {"data", "len"},
                  [](MethodContext& ctx) {
                    std::vector<std::byte> payload(300);
                    for (std::size_t i = 0; i < payload.size(); ++i)
                      payload[i] = static_cast<std::byte>(i % 251);
                    ctx.write_raw(ctx.cls().layout().find("data"), payload);
                    ctx.set<std::int64_t>("len", 300);
                  })
          .method("verify", {"data", "len"}, {},
                  [](MethodContext& ctx) {
                    EXPECT_EQ(ctx.get<std::int64_t>("len"), 300);
                    std::vector<std::byte> payload(300);
                    ctx.read_raw(ctx.cls().layout().find("data"), payload);
                    for (std::size_t i = 0; i < payload.size(); ++i)
                      ASSERT_EQ(payload[i], static_cast<std::byte>(i % 251));
                  }));
  const ObjectId obj = cluster.create_object(cls, NodeId(0));
  ASSERT_TRUE(cluster.run_root(obj, "fill", NodeId(1)).committed);
  ASSERT_TRUE(cluster.run_root(obj, "verify", NodeId(2)).committed);
}

TEST(RuntimeExtrasTest, FairReadersConfigStillCommitsEverything) {
  WorkloadSpec spec;
  spec.num_objects = 8;
  spec.min_pages = 1;
  spec.max_pages = 3;
  spec.num_transactions = 60;
  spec.read_method_fraction = 0.5;
  spec.contention_theta = 0.7;
  spec.seed = 61;
  const Workload workload(spec);

  ClusterConfig cfg;
  cfg.nodes = 4;
  cfg.page_size = 256;
  cfg.protocol = ProtocolKind::kLotec;
  cfg.gdo.fair_readers = true;
  cfg.seed = 8;
  Cluster cluster(cfg);
  for (const auto& r : cluster.execute(workload.instantiate(cluster)))
    EXPECT_TRUE(r.committed);
  EXPECT_TRUE(validate_quiescent(cluster).empty());
}

TEST(RuntimeExtrasTest, ReleaseAcksAddMessagesOnly) {
  const auto run = [](bool acks) {
    ClusterConfig cfg;
    cfg.nodes = 4;
    cfg.page_size = 64;
    cfg.gdo.release_acks = acks;
    cfg.seed = 9;
    Cluster cluster(cfg);
    const ClassId cls = cluster.define_class(
        ClassBuilder("C", 64).attribute("v", 8).method(
            "bump", {"v"}, {"v"}, [](MethodContext& ctx) {
              ctx.set<std::int64_t>("v", ctx.get<std::int64_t>("v") + 1);
            }));
    const ObjectId obj = cluster.create_object(cls, NodeId(0));
    for (int i = 0; i < 6; ++i)
      EXPECT_TRUE(cluster.run_root(obj, "bump", NodeId(1 + i % 3)).committed);
    return std::pair(cluster.peek<std::int64_t>(obj, "v"),
                     cluster.stats()
                         .by_kind(MessageKind::kLockReleaseAck)
                         .messages);
  };
  const auto [v_plain, acks_plain] = run(false);
  const auto [v_acked, acks_acked] = run(true);
  EXPECT_EQ(v_plain, 6);
  EXPECT_EQ(v_acked, 6);
  EXPECT_EQ(acks_plain, 0u);
  EXPECT_GT(acks_acked, 0u);
}

TEST(RuntimeExtrasTest, MulticastOnlyAffectsRcPushTraffic) {
  const auto bytes_for = [](ProtocolKind protocol, bool multicast) {
    WorkloadSpec spec;
    spec.num_objects = 6;
    spec.min_pages = 2;
    spec.max_pages = 4;
    spec.num_transactions = 40;
    spec.seed = 81;
    const Workload workload(spec);
    ExperimentOptions options;
    options.cluster.nodes = 4;
    options.cluster.page_size = 256;
    options.cluster.net.multicast_capable = multicast;
    return run_scenario(workload, protocol, options).total.bytes;
  };
  // Entry-consistency protocols never push one-to-many: multicast is moot.
  EXPECT_EQ(bytes_for(ProtocolKind::kLotec, false),
            bytes_for(ProtocolKind::kLotec, true));
  // RC's pushes collapse.
  EXPECT_GT(bytes_for(ProtocolKind::kRc, false),
            bytes_for(ProtocolKind::kRc, true));
}

}  // namespace
}  // namespace lotec
