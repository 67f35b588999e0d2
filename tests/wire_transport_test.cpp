// End-to-end wire transport tests: real lotec_worker OS processes joined by
// Unix-domain sockets, driven through the public Cluster API.
//
// The build pins the worker binary path in LOTEC_WORKER_BIN (a generator
// expression in tests/CMakeLists.txt), so these tests run from any ctest
// working directory without relying on the launcher's beside-the-binary
// search.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <vector>

#include "runtime/cluster.hpp"
#include "sim/validate.hpp"
#include "wire/wire_transport.hpp"
#include "workload/generator.hpp"

namespace lotec {
namespace {

ClusterConfig wire_config(std::size_t nodes) {
  ClusterConfig cfg;
  cfg.nodes = nodes;
  cfg.wire.enabled = true;
#ifdef LOTEC_WORKER_BIN
  cfg.wire.worker_path = LOTEC_WORKER_BIN;
#endif
  return cfg;
}

const wire::WireTransport& wire_backend(Cluster& cluster) {
  const auto* wt =
      dynamic_cast<const wire::WireTransport*>(&cluster.observe().transport());
  EXPECT_NE(wt, nullptr) << "wire.enabled did not select WireTransport";
  return *wt;
}

TEST(WireTransportTest, ExecutesRealWorkAcrossProcesses) {
  const ClusterConfig cfg = wire_config(3);
  Cluster cluster(cfg);
  const ClassId cls = cluster.define_class(
      ClassBuilder("Counter", cfg.page_size)
          .attribute("value", 8)
          .method("increment", {"value"}, {"value"},
                  [](MethodContext& ctx) {
                    ctx.set<std::int64_t>("value",
                                          ctx.get<std::int64_t>("value") + 1);
                  }));
  const ObjectId obj = cluster.create_object(cls, NodeId(0));
  for (int i = 0; i < 6; ++i)
    ASSERT_TRUE(
        cluster.run_root(obj, "increment", NodeId(i % 3)).committed);
  EXPECT_EQ(cluster.peek<std::int64_t>(obj, "value"), 6);

  const wire::WireTransport& wt = wire_backend(cluster);
  EXPECT_TRUE(wt.ledger_complete());
  // Every remote frame the coordinator shipped was acknowledged as
  // delivered by exactly one worker (the batch-end crosscheck would have
  // thrown otherwise); the fleet really carried traffic.
  EXPECT_GT(cluster.stats().total().messages, 0u);
}

WorkloadSpec golden_spec() {
  WorkloadSpec spec;
  spec.num_objects = 6;
  spec.num_transactions = 25;
  spec.contention_theta = 0.6;
  spec.max_depth = 2;
  spec.child_probability = 0.4;
  spec.seed = 0x517E;
  return spec;
}

/// The golden-counter gate for one socket family: accounted traffic of a
/// wire run must be bit-identical per kind to the in-process run.
void expect_golden_counters(bool tcp) {
  const Workload workload(golden_spec());

  ClusterConfig inproc_cfg;
  inproc_cfg.nodes = 3;
  Cluster inproc(inproc_cfg);
  const auto inproc_results = inproc.execute(workload.instantiate(inproc));

  ClusterConfig wired_cfg = wire_config(3);
  wired_cfg.wire.tcp = tcp;
  Cluster wired(wired_cfg);
  const auto wired_results = wired.execute(workload.instantiate(wired));

  ASSERT_EQ(inproc_results.size(), wired_results.size());
  for (std::size_t i = 0; i < inproc_results.size(); ++i)
    EXPECT_EQ(inproc_results[i].committed, wired_results[i].committed)
        << "txn " << i;

  // The golden-counter gate: accounted traffic must be bit-identical per
  // kind, not merely in total.
  EXPECT_EQ(inproc.stats().total().messages, wired.stats().total().messages);
  EXPECT_EQ(inproc.stats().total().bytes, wired.stats().total().bytes);
  for (std::size_t k = 0;
       k < static_cast<std::size_t>(MessageKind::kNumKinds); ++k) {
    const auto kind = static_cast<MessageKind>(k);
    EXPECT_EQ(inproc.stats().by_kind(kind).messages,
              wired.stats().by_kind(kind).messages)
        << to_string(kind);
    EXPECT_EQ(inproc.stats().by_kind(kind).bytes,
              wired.stats().by_kind(kind).bytes)
        << to_string(kind);
  }
  EXPECT_TRUE(validate_quiescent(wired).empty());
  EXPECT_TRUE(wire_backend(wired).ledger_complete());
}

TEST(WireTransportTest, GoldenCountersMatchInProcess) {
  expect_golden_counters(/*tcp=*/false);
}

TEST(WireTransportTest, GoldenCountersMatchInProcessOverTcp) {
  expect_golden_counters(/*tcp=*/true);
}

TEST(WireTransportTest, NothingOutstandingAfterEachExecute) {
  // Acks come back from several destination workers in any order.  Every
  // batch must still end with each shipped frame acknowledged, no reply
  // left over, and the ledger cross-check holding (execute would throw).
  for (const bool batch : {false, true}) {
    ClusterConfig cfg = wire_config(4);
    cfg.net.batch_messages = batch;
    Cluster cluster(cfg);
    const wire::WireTransport& wt = wire_backend(cluster);
    const auto requests = Workload(golden_spec()).instantiate(cluster);
    for (int round = 0; round < 3; ++round) {
      (void)cluster.execute(requests);
      EXPECT_EQ(wt.deferred_pending(), 0u) << "batch=" << batch;
      EXPECT_EQ(wt.unmatched_replies(), 0u) << "batch=" << batch;
      wire::KindCounts shipped;
      for (const wire::KindCounts& c : wt.shipped()) {
        shipped.messages += c.messages;
        shipped.bytes += c.bytes;
      }
      EXPECT_EQ(shipped, wt.gathered().delivered_total()) << "batch=" << batch;
    }
  }
}

/// Samples the unacked window of every worker connection at each send.
class WindowProbe final : public MessageProbe {
 public:
  explicit WindowProbe(const wire::WireTransport& wt) : wt_(wt) {}
  void on_transport_message(const WireMessage&) override {
    for (std::uint32_t k = 0; k < wt_.num_nodes(); ++k)
      peak = std::max(peak, wt_.deferred_pending(k));
  }
  std::size_t peak = 0;

 private:
  const wire::WireTransport& wt_;
};

TEST(WireTransportTest, UnackedFramesStayWithinTheWindow) {
  Cluster cluster(wire_config(3));
  const wire::WireTransport& wt = wire_backend(cluster);
  WindowProbe probe(wt);
  cluster.transport().set_probe(&probe);
  WorkloadSpec spec = golden_spec();
  spec.num_transactions = 60;
  (void)cluster.execute(Workload(spec).instantiate(cluster));
  cluster.transport().set_probe(nullptr);

  // The batch shipped more frames than one window holds, the window filled
  // (frames did not wait for their acks) and never overflowed, and the
  // ledger cross-check at batch end held.
  EXPECT_GT(cluster.stats().total().messages, 3 * wire::kMaxUnackedFrames);
  EXPECT_EQ(probe.peak, wire::kMaxUnackedFrames);
  EXPECT_TRUE(wt.ledger_complete());
  EXPECT_EQ(wt.deferred_pending(), 0u);
}

TEST(WireTransportTest, KillRightAfterABurstLosesNoShippedFrame) {
  WireConfig cfg;
  cfg.enabled = true;
#ifdef LOTEC_WORKER_BIN
  cfg.worker_path = LOTEC_WORKER_BIN;
#endif
  wire::WireTransport t(4, NetworkConfig{}, cfg);
  const NodeId victim(3);
  // A burst from every worker, much of it to the victim and some of it
  // carrying page payloads, with the acks still in flight at the kill.
  std::uint64_t sent = 0;
  for (int i = 0; i < 40; ++i) {
    for (std::uint32_t src = 0; src < 3; ++src) {
      const NodeId from(src);
      const NodeId to = i % 2 == 0 ? victim : NodeId((src + 1) % 3);
      t.send(WireMessage{MessageKind::kPageFetchReply, from, to, ObjectId(7),
                         static_cast<std::uint64_t>(4096 * (i % 3))});
      ++sent;
    }
  }
  EXPECT_GT(t.deferred_pending(), 0u);
  // The kill collects every ack first: nothing shipped before it is lost,
  // so no NodeUnreachable surfaces for those frames.
  EXPECT_NO_THROW(t.set_node_failed(victim, true));
  EXPECT_EQ(t.deferred_pending(), 0u);
  std::uint64_t shipped = 0;
  for (const wire::KindCounts& c : t.shipped()) shipped += c.messages;
  EXPECT_EQ(shipped, sent);
  EXPECT_EQ(t.supervisor().kills(), 1u);

  // The respawned victim takes traffic again, from every peer.
  t.set_node_failed(victim, false);
  for (std::uint32_t src = 0; src < 3; ++src)
    t.send(WireMessage{MessageKind::kLockAcquireRequest, NodeId(src), victim,
                       ObjectId(7), 0});
  EXPECT_NO_THROW(t.on_batch_complete());
  EXPECT_FALSE(t.ledger_complete());
  EXPECT_EQ(t.worker_ledgers()[victim.value()].delivered_total().messages, 3u);
  EXPECT_EQ(t.unmatched_replies(), 0u);
}

TEST(WireTransportTest, GatheredLedgersAccountEveryShippedFrame) {
  WorkloadSpec spec;
  spec.num_objects = 5;
  spec.num_transactions = 15;
  spec.seed = 0xACC7;
  const Workload workload(spec);

  Cluster cluster(wire_config(3));
  (void)cluster.execute(workload.instantiate(cluster));

  const wire::WireTransport& wt = wire_backend(cluster);
  ASSERT_TRUE(wt.ledger_complete());
  wire::KindCounts shipped_total, delivered_total;
  for (std::size_t k = 0; k < wire::kNumWireKinds; ++k) {
    shipped_total.messages += wt.shipped()[k].messages;
    shipped_total.bytes += wt.shipped()[k].bytes;
  }
  const wire::KindCounts d = wt.gathered().delivered_total();
  delivered_total = d;
  EXPECT_GT(shipped_total.messages, 0u);
  EXPECT_EQ(shipped_total.messages, delivered_total.messages);
  EXPECT_EQ(shipped_total.bytes, delivered_total.bytes);
  // Every ack matched exactly one shipped frame.
  EXPECT_EQ(wt.unmatched_replies(), 0u);
}

TEST(WireTransportTest, ManualFailoverKillsTheRealWorker) {
  // The failover scenario from failover_test: marking the directory home
  // failed must now SIGKILL a real OS process, and the lock service keeps
  // running from the mirror.
  ClusterConfig cfg = wire_config(4);
  cfg.gdo.replicate = true;
  Cluster cluster(cfg);

  const ClassId cls = cluster.define_class(
      ClassBuilder("Counter", cfg.page_size)
          .attribute("value", 8)
          .method("increment", {"value"}, {"value"},
                  [](MethodContext& ctx) {
                    ctx.set<std::int64_t>("value",
                                          ctx.get<std::int64_t>("value") + 1);
                  }));
  const ObjectId obj = cluster.create_object(cls, NodeId(0));
  const NodeId home = cluster.gdo().home_of(obj);
  const NodeId a((home.value() + 2) % 4);
  const NodeId b((home.value() + 3) % 4);

  for (int i = 0; i < 5; ++i)
    ASSERT_TRUE(cluster.run_root(obj, "increment", i % 2 ? a : b).committed);

  cluster.transport().set_node_failed(home, true);
  const wire::WireTransport& wt = wire_backend(cluster);
  EXPECT_EQ(wt.supervisor().kills(), 1u);
  EXPECT_FALSE(wt.supervisor().alive(home.value()));

  for (int i = 0; i < 5; ++i)
    ASSERT_TRUE(cluster.run_root(obj, "increment", i % 2 ? a : b).committed)
        << "increment " << i << " failed during failover";

  EXPECT_EQ(cluster.peek<std::int64_t>(obj, "value"), 10);
}

TEST(WireTransportTest, FaultEngineCrashRestartDrivesRealProcesses) {
  // The PR 1 recovery path end-to-end over the wire: a FaultEngine crash
  // event SIGKILLs a real worker process mid-batch, the restart event
  // respawns one on the same listen socket, and the batch recovers to an
  // honest, quiescent final state.
  ClusterConfig cfg = wire_config(4);
  cfg.gdo.replicate = true;
  FaultEvent crash;
  crash.action = FaultAction::kCrashNode;
  crash.on_kind = MessageKind::kLockAcquireRequest;
  crash.nth = 5;
  crash.node = NodeId(1);
  FaultEvent restart;
  restart.action = FaultAction::kRestartNode;
  restart.at_tick = 80;
  restart.node = NodeId(1);
  cfg.fault.events = {crash, restart};
  Cluster cluster(cfg);

  const ClassId cls = cluster.define_class(
      ClassBuilder("Counter", cfg.page_size)
          .attribute("value", 8)
          .method("increment", {"value"}, {"value"},
                  [](MethodContext& ctx) {
                    ctx.set<std::int64_t>("value",
                                          ctx.get<std::int64_t>("value") + 1);
                  }));
  const ObjectId obj = cluster.create_object(cls, NodeId(0));
  const MethodId m = cluster.method_id(obj, "increment");
  std::vector<RootRequest> reqs;
  for (int i = 0; i < 12; ++i)
    reqs.push_back(
        {obj, m, NodeId(static_cast<std::uint32_t>(i % 4)), {}, nullptr});

  const auto results = cluster.execute(std::move(reqs));

  std::int64_t committed = 0, crashed_in_commit = 0;
  for (const TxnResult& r : results) {
    if (r.committed) ++committed;
    if (r.crashed_in_commit) ++crashed_in_commit;
  }
  EXPECT_GE(committed, 1);
  const std::int64_t value = cluster.peek<std::int64_t>(obj, "value");
  EXPECT_GE(value, committed);
  EXPECT_LE(value, committed + crashed_in_commit);
  EXPECT_TRUE(validate_quiescent(cluster).empty());

  // The crash and restart were real OS-process events, and a killed
  // incarnation's ledger is honestly reported as incomplete.
  EXPECT_EQ(cluster.fault_engine()->stats().crashes, 1u);
  const wire::WireTransport& wt = wire_backend(cluster);
  EXPECT_EQ(wt.supervisor().kills(), 1u);
  EXPECT_GE(wt.supervisor().respawns(), 1u);
  EXPECT_TRUE(wt.supervisor().alive(1));
  EXPECT_FALSE(wt.ledger_complete());
}

}  // namespace
}  // namespace lotec
