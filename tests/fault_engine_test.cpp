// FaultEngine unit behaviour: schedule validation, deterministic message
// chaos, targeted drops, partitions, two-phase crash semantics, and the
// GDO's lock-lease reclamation driven through the FaultHooks seam.
#include <gtest/gtest.h>

#include <tuple>
#include <utility>

#include "fault/fault_engine.hpp"
#include "runtime/cluster.hpp"

namespace lotec {
namespace {

TxnId txn(std::uint64_t family, std::uint32_t serial = 0) {
  return TxnId{FamilyId(family), serial};
}

WireMessage fetch_req(NodeId src, NodeId dst) {
  return {MessageKind::kPageFetchRequest, src, dst, ObjectId(1), 32};
}

class FaultEngineTest : public ::testing::Test {
 protected:
  static constexpr std::size_t kNodes = 4;

  FaultEngineTest() : transport_(kNodes), gdo_(transport_, {}) {
    for (std::size_t i = 0; i < kNodes; ++i)
      nodes_.push_back(
          std::make_unique<Node>(NodeId(static_cast<std::uint32_t>(i))));
  }

  FaultEngine& engine(const FaultConfig& cfg) {
    engine_ = std::make_unique<FaultEngine>(cfg, transport_, gdo_, nodes_,
                                            /*page_size=*/256);
    transport_.set_fault_hooks(engine_.get());
    return *engine_;
  }

  Transport transport_;
  GdoService gdo_;
  std::vector<std::unique_ptr<Node>> nodes_;
  std::unique_ptr<FaultEngine> engine_;
};

// --- schedule validation ----------------------------------------------------

TEST_F(FaultEngineTest, RejectsOutOfRangeProbability) {
  FaultConfig cfg;
  cfg.drop_probability = 1.5;
  EXPECT_THROW(engine(cfg), UsageError);
}

TEST_F(FaultEngineTest, RejectsZeroLeaseTerm) {
  FaultConfig cfg;
  cfg.install_hooks = true;
  cfg.lease_term_ticks = 0;
  EXPECT_THROW(engine(cfg), UsageError);
}

TEST_F(FaultEngineTest, RejectsEventWithBothTriggers) {
  FaultConfig cfg = fault_presets::crash_restart(NodeId(1), 5, 10);
  cfg.events[0].on_kind = MessageKind::kPageFetchRequest;
  EXPECT_THROW(engine(cfg), UsageError);
}

TEST_F(FaultEngineTest, RejectsEventWithNoTrigger) {
  FaultConfig cfg;
  FaultEvent ev;
  ev.action = FaultAction::kCrashNode;
  ev.node = NodeId(1);
  cfg.events = {ev};
  EXPECT_THROW(engine(cfg), UsageError);
}

TEST_F(FaultEngineTest, RejectsCrashTargetOutOfRange) {
  FaultConfig cfg = fault_presets::crash_restart(NodeId(9), 5, 10);
  EXPECT_THROW(engine(cfg), UsageError);
}

TEST_F(FaultEngineTest, RejectsDropOfReliableKind) {
  FaultConfig cfg;
  FaultEvent ev;
  ev.action = FaultAction::kDropMessage;
  ev.on_kind = MessageKind::kLockAcquireGrant;  // grants are reliable
  cfg.events = {ev};
  EXPECT_THROW(engine(cfg), UsageError);
}

TEST_F(FaultEngineTest, RejectsPartitionWithEmptyGroup) {
  FaultConfig cfg = fault_presets::partition_window({NodeId(0)}, {}, 5, 10);
  EXPECT_THROW(engine(cfg), UsageError);
}

// --- targeted events --------------------------------------------------------

TEST_F(FaultEngineTest, TargetedDropKillsExactlyTheNthMessage) {
  FaultConfig cfg;
  FaultEvent ev;
  ev.action = FaultAction::kDropMessage;
  ev.on_kind = MessageKind::kPageFetchRequest;
  ev.nth = 2;
  cfg.events = {ev};
  engine(cfg);

  transport_.send(fetch_req(NodeId(0), NodeId(1)));  // 1st: passes
  EXPECT_THROW(transport_.send(fetch_req(NodeId(0), NodeId(1))),
               MessageDropped);                      // 2nd: killed
  transport_.send(fetch_req(NodeId(0), NodeId(1)));  // one-shot: 3rd passes
  EXPECT_EQ(engine_->stats().dropped, 1u);
  EXPECT_EQ(transport_.stats().total().messages, 2u);
}

TEST_F(FaultEngineTest, TickTriggeredCrashFlipsReachabilityImmediately) {
  engine(fault_presets::crash_restart(NodeId(2), /*crash=*/2, /*restart=*/99));

  transport_.send(fetch_req(NodeId(0), NodeId(1)));  // tick 1
  EXPECT_TRUE(transport_.reachable(NodeId(2)));
  // Tick 2 fires the crash; the triggering message's destination is node 1,
  // which stays up, so the message itself is delivered.
  transport_.send(fetch_req(NodeId(0), NodeId(1)));
  EXPECT_FALSE(transport_.reachable(NodeId(2)));
  EXPECT_EQ(engine_->crash_count(NodeId(2)), 1u);
  EXPECT_EQ(engine_->crash_count(NodeId(0)), 0u);
  // Sends to the dead node now fail with both endpoints identified.
  try {
    transport_.send(fetch_req(NodeId(0), NodeId(2)));
    FAIL() << "expected NodeUnreachable";
  } catch (const NodeUnreachable& e) {
    EXPECT_EQ(e.src(), NodeId(0));
    EXPECT_EQ(e.node(), NodeId(2));
  }
}

TEST_F(FaultEngineTest, CrashWipesStoreOnlyAtApplyPending) {
  {
    Node& victim = *nodes_[2];
    victim.store.create(ObjectId(7), 2, 256, /*materialize=*/true);
    victim.touch(ObjectId(7));
  }
  engine(fault_presets::crash_restart(NodeId(2), 1, 99));
  EXPECT_THROW(transport_.send(fetch_req(NodeId(0), NodeId(2))),
               NodeUnreachable);  // tick 1: crash fires, then dst is down
  {
    // Two-phase: unreachable already, memory still intact until the runtime
    // reaches a checkpoint.
    Node& victim = *nodes_[2];
    EXPECT_NE(victim.store.find(ObjectId(7)), nullptr);
  }
  engine_->apply_pending();
  Node& victim = *nodes_[2];
  EXPECT_EQ(victim.store.find(ObjectId(7)), nullptr);
  EXPECT_TRUE(victim.lru.empty());
}

TEST_F(FaultEngineTest, PartitionCutsOnlyInterruptibleTrafficBothWays) {
  engine(fault_presets::partition_window({NodeId(0)}, {NodeId(2)},
                                         /*start=*/1, /*heal=*/99));
  transport_.send(fetch_req(NodeId(1), NodeId(2)));  // tick 1: cut starts
  EXPECT_THROW(transport_.send(fetch_req(NodeId(0), NodeId(2))),
               NodeUnreachable);
  EXPECT_THROW(transport_.send(fetch_req(NodeId(2), NodeId(0))),
               NodeUnreachable);
  // Unrelated links are unaffected.
  transport_.send(fetch_req(NodeId(1), NodeId(2)));
  // Reliable traffic (a grant) crosses the cut: the substrate retries it.
  transport_.send({MessageKind::kLockAcquireGrant, NodeId(0), NodeId(2),
                   ObjectId(1), 48});
  EXPECT_EQ(engine_->stats().partition_drops, 2u);
}

TEST_F(FaultEngineTest, PartitionHealsAtScheduledTick) {
  engine(fault_presets::partition_window({NodeId(0)}, {NodeId(2)},
                                         /*start=*/1, /*heal=*/3));
  transport_.send(fetch_req(NodeId(1), NodeId(3)));  // tick 1: cut
  EXPECT_THROW(transport_.send(fetch_req(NodeId(0), NodeId(2))),
               NodeUnreachable);  // tick 2
  transport_.send(fetch_req(NodeId(1), NodeId(3)));  // tick 3: heal
  transport_.send(fetch_req(NodeId(0), NodeId(2)));  // tick 4: flows again
}

// --- background chaos -------------------------------------------------------

TEST_F(FaultEngineTest, ChaosSkipsLocalAndReliableMessages) {
  engine(fault_presets::message_chaos(/*seed=*/7, /*drop=*/1.0, 0.0, 0.0));
  // Local (src == dst) and reliable kinds never drop even at p = 1.
  transport_.send({MessageKind::kPageFetchRequest, NodeId(1), NodeId(1),
                   ObjectId(1), 32});
  transport_.send({MessageKind::kLockGrantWakeup, NodeId(0), NodeId(1),
                   ObjectId(1), 48});
  EXPECT_THROW(transport_.send(fetch_req(NodeId(0), NodeId(1))),
               MessageDropped);
  EXPECT_EQ(engine_->stats().dropped, 1u);
}

TEST_F(FaultEngineTest, DuplicationRecordsAnExtraCopy) {
  engine(fault_presets::message_chaos(/*seed=*/7, 0.0, /*dup=*/1.0, 0.0));
  transport_.send(fetch_req(NodeId(0), NodeId(1)));
  EXPECT_EQ(transport_.stats().total().messages, 2u);
  EXPECT_EQ(engine_->stats().duplicated, 1u);
}

TEST_F(FaultEngineTest, DelayAdvancesTheLogicalClock) {
  FaultConfig cfg =
      fault_presets::message_chaos(/*seed=*/7, 0.0, 0.0, /*delay=*/1.0);
  cfg.delay_ticks = 5;
  engine(cfg);
  transport_.send(fetch_req(NodeId(0), NodeId(1)));
  EXPECT_EQ(engine_->now(), 6u);  // 1 message tick + 5 delay ticks
  EXPECT_EQ(engine_->stats().delayed, 1u);
  EXPECT_EQ(engine_->stats().delay_ticks_total, 5u);
}

TEST_F(FaultEngineTest, SameSeedSameChaosDecisions) {
  const auto run = [this](std::uint64_t seed) {
    transport_.stats().reset();
    FaultEngine eng(fault_presets::message_chaos(seed, 0.3, 0.2, 0.2),
                    transport_, gdo_, nodes_, 256);
    transport_.set_fault_hooks(&eng);
    std::vector<bool> outcomes;
    for (int i = 0; i < 200; ++i) {
      try {
        transport_.send(fetch_req(NodeId(i % 3), NodeId(3)));
        outcomes.push_back(true);
      } catch (const MessageDropped&) {
        outcomes.push_back(false);
      }
    }
    transport_.set_fault_hooks(nullptr);
    const FaultStats s = eng.stats();
    return std::tuple(outcomes, s.dropped, s.duplicated, s.delayed,
                      eng.now());
  };
  const auto a = run(42);
  const auto b = run(42);
  const auto c = run(43);
  EXPECT_EQ(a, b);
  EXPECT_NE(std::get<0>(a), std::get<0>(c));  // different seed, different run
  EXPECT_GT(std::get<1>(a), 0u);
  EXPECT_GT(std::get<2>(a), 0u);
  EXPECT_GT(std::get<3>(a), 0u);
}

// --- lock leases ------------------------------------------------------------

/// The two nodes of a 4-node cluster that are neither the object's (hashed)
/// directory home nor its mirror — safe to crash without losing the entry.
std::pair<NodeId, NodeId> bystanders(const GdoService& gdo, ObjectId obj) {
  const NodeId home = gdo.home_of(obj);
  const NodeId mirror = gdo.mirror_of(obj);
  std::vector<NodeId> out;
  for (std::uint32_t n = 0; n < 4; ++n) {
    const NodeId cand(n);
    if (cand != home && cand != mirror) out.push_back(cand);
  }
  return {out.at(0), out.at(1)};
}

TEST_F(FaultEngineTest, OrphanedLockReclaimedOnlyAfterLeaseExpiry) {
  FaultConfig cfg;
  cfg.install_hooks = true;
  cfg.lease_term_ticks = 10;
  engine(cfg);
  const ObjectId obj(1);
  gdo_.register_object(obj, 2, NodeId(0));
  // Crash a node that is neither the entry's home nor its mirror, so the
  // directory entry itself survives and only the lock holder dies.
  const auto [victim, spare] = bystanders(gdo_, obj);
  const NodeId home = gdo_.home_of(obj);

  // Family 1 (at the victim) takes the write lock; its lease starts "now".
  ASSERT_EQ(gdo_.acquire(obj, txn(1), victim, LockMode::kWrite).status,
            AcquireStatus::kGranted);

  // The victim crashes and restarts: family 1's holder record is now from a
  // dead incarnation (live crash epoch 1 > recorded epoch 0).
  engine(fault_presets::crash_restart(victim, 1, 2));
  transport_.send(fetch_req(home, spare));  // tick 1: crash fires
  transport_.send(fetch_req(home, spare));  // tick 2: restart queued
  engine_->apply_pending();

  // Lease still running: a conflicting request queues behind the orphan.
  EXPECT_EQ(gdo_.acquire(obj, txn(2), spare, LockMode::kWrite).status,
            AcquireStatus::kQueued);

  // Burn ticks past the lease, then reap on the next acquisition attempt.
  for (int i = 0; i < 20; ++i) transport_.send(fetch_req(home, spare));
  std::vector<Grant> granted;
  gdo_.set_grant_delivery([&](const Grant& g) { granted.push_back(g); });
  EXPECT_EQ(gdo_.acquire(obj, txn(3), home, LockMode::kWrite).status,
            AcquireStatus::kQueued);
  gdo_.set_grant_delivery(nullptr);

  // The orphan was reclaimed and the FIFO head (family 2) woken.
  ASSERT_EQ(granted.size(), 1u);
  EXPECT_EQ(granted[0].family, FamilyId(2));
  EXPECT_EQ(gdo_.locks_reclaimed(), 1u);
  const GdoEntry e = gdo_.snapshot(obj);
  EXPECT_FALSE(e.held_by(FamilyId(1)));
  EXPECT_TRUE(e.held_by(FamilyId(2)));
}

TEST_F(FaultEngineTest, DeadIncarnationWaiterPurgedBeforeGrant) {
  FaultConfig cfg;
  cfg.install_hooks = true;
  engine(cfg);
  const ObjectId obj(1);
  gdo_.register_object(obj, 2, NodeId(0));
  const auto [victim, spare] = bystanders(gdo_, obj);
  const NodeId home = gdo_.home_of(obj);

  ASSERT_EQ(gdo_.acquire(obj, txn(1), spare, LockMode::kWrite).status,
            AcquireStatus::kGranted);
  // Family 2 at the victim queues, then the victim crashes: its wakeup
  // could never be consumed.
  ASSERT_EQ(gdo_.acquire(obj, txn(2), victim, LockMode::kWrite).status,
            AcquireStatus::kQueued);
  engine(fault_presets::crash_restart(victim, 1, 2));
  transport_.send(fetch_req(home, spare));  // crash
  transport_.send(fetch_req(home, spare));  // restart queued
  engine_->apply_pending();

  // Family 1 releases: the dead waiter must be purged, not granted.
  std::vector<Grant> granted;
  gdo_.set_grant_delivery([&](const Grant& g) { granted.push_back(g); });
  (void)gdo_.release_family(obj, FamilyId(1), spare, nullptr);
  gdo_.set_grant_delivery(nullptr);
  EXPECT_TRUE(granted.empty());
  EXPECT_EQ(gdo_.waiters_purged(), 1u);
  const GdoEntry e = gdo_.snapshot(obj);
  EXPECT_EQ(e.state, GdoLockState::kFree);
  EXPECT_TRUE(e.waiters.empty());
}

// --- cluster construction guards -------------------------------------------

// Directory state must survive its home node, so a cluster with node
// faults replicates the directory whether or not the config asked for it.
TEST(FaultConfigGuards, NodeFaultsRequireGdoReplication) {
  ClusterConfig cfg;
  cfg.fault = fault_presets::crash_restart(NodeId(1), 10, 20);
  ASSERT_FALSE(cfg.gdo.replicate);
  const Cluster cluster(cfg);
  EXPECT_TRUE(cluster.config().gdo.replicate);
}

}  // namespace
}  // namespace lotec
