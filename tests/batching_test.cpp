// Message batching (NetworkConfig::batch_messages) is a physical-only
// optimisation: the logical ledgers — totals, per-kind, per-object — must be
// bit-identical whether the knob is on or off, while the physical frame
// count drops whenever directory rounds coalesce.  These tests pin that
// contract on a real workload, and run the schedule checker's oracles over
// batched schedules to show the protocol semantics are untouched.
#include <gtest/gtest.h>

#include <array>
#include <cstdint>

#include "check/checker.hpp"
#include "sim/experiment.hpp"
#include "sim/validate.hpp"
#include "workload/generator.hpp"

namespace lotec {
namespace {

WorkloadSpec batching_spec() {
  // Multi-object families under contention: root release batches span
  // several objects whose directory homes collide, which is what gives the
  // release/replica-sync rounds something to coalesce.
  WorkloadSpec spec;
  spec.num_objects = 24;
  spec.min_pages = 1;
  spec.max_pages = 3;
  spec.num_transactions = 60;
  spec.max_depth = 3;
  spec.child_probability = 0.7;
  spec.max_children = 3;
  spec.contention_theta = 0.9;
  spec.seed = 404;
  return spec;
}

struct RunLedger {
  TrafficCounter total;
  TrafficCounter physical;
  std::uint64_t joins = 0;
  std::array<TrafficCounter, static_cast<std::size_t>(MessageKind::kNumKinds)>
      by_kind;
  std::size_t committed = 0;
};

RunLedger run_once(bool batching, bool replicate_gdo) {
  ClusterConfig cfg;
  cfg.nodes = 4;
  cfg.page_size = 256;
  cfg.protocol = ProtocolKind::kLotec;
  cfg.seed = 10;
  cfg.net.batch_messages = batching;
  cfg.gdo.replicate = replicate_gdo;
  Cluster cluster(cfg);
  const Workload workload(batching_spec());
  RunLedger ledger;
  for (const auto& r : cluster.execute(workload.instantiate(cluster)))
    ledger.committed += r.committed ? 1 : 0;
  const NetworkStats& stats = cluster.stats();
  ledger.total = stats.total();
  ledger.physical = stats.physical();
  ledger.joins = stats.batched_joins();
  for (std::size_t k = 0; k < ledger.by_kind.size(); ++k)
    ledger.by_kind[k] = stats.by_kind(static_cast<MessageKind>(k));
  const auto violations = validate_quiescent(cluster);
  for (const auto& v : violations) ADD_FAILURE() << v;
  return ledger;
}

TEST(BatchingTest, KnobOffPhysicalLedgerEqualsLogical) {
  const RunLedger off = run_once(/*batching=*/false, /*replicate_gdo=*/false);
  EXPECT_EQ(off.joins, 0u);
  EXPECT_EQ(off.physical.messages, off.total.messages);
  EXPECT_EQ(off.physical.bytes, off.total.bytes);
}

TEST(BatchingTest, KnobOnKeepsLogicalCountersIdenticalAndCutsFrames) {
  const RunLedger off = run_once(/*batching=*/false, /*replicate_gdo=*/true);
  const RunLedger on = run_once(/*batching=*/true, /*replicate_gdo=*/true);

  // Same schedule, same outcomes, same logical traffic — bit for bit.
  EXPECT_EQ(on.committed, off.committed);
  EXPECT_EQ(on.total.messages, off.total.messages);
  EXPECT_EQ(on.total.bytes, off.total.bytes);
  for (std::size_t k = 0; k < off.by_kind.size(); ++k) {
    EXPECT_EQ(on.by_kind[k].messages, off.by_kind[k].messages)
        << to_string(static_cast<MessageKind>(k));
    EXPECT_EQ(on.by_kind[k].bytes, off.by_kind[k].bytes)
        << to_string(static_cast<MessageKind>(k));
  }

  // And a physically cheaper wire: every join is one frame (and most of a
  // header) saved.
  EXPECT_GT(on.joins, 0u);
  EXPECT_EQ(on.physical.messages + on.joins, on.total.messages);
  EXPECT_LT(on.physical.messages, on.total.messages);
  EXPECT_LT(on.physical.bytes, on.total.bytes);
}

TEST(BatchingTest, BatchingRejectsFaultInjection) {
  ClusterConfig cfg;
  cfg.nodes = 2;
  cfg.net.batch_messages = true;
  cfg.fault.drop_probability = 0.1;
  EXPECT_THROW(cfg.validate(), UsageError);
}

TEST(BatchingTest, CheckerOraclesStayGreenOverBatchedSchedules) {
  check::CheckOptions opts;
  opts.scenario = check::check_tiny();
  opts.scenario.cluster.net.batch_messages = true;
  opts.mode = check::ExploreMode::kRandom;
  opts.max_schedules = 40;
  opts.minimize = false;
  check::ScheduleChecker checker(opts);
  const check::CheckReport report = checker.run();
  EXPECT_EQ(report.schedules_run, 40u);
  EXPECT_EQ(report.schedules_with_errors, 0u);
  EXPECT_FALSE(report.violation.has_value()) << report.summary();
}

}  // namespace
}  // namespace lotec
