// Integration tests for the schedule checker (src/check/checker): clean
// exploration finds nothing, the break_retention mutation is caught within
// a bounded schedule budget with a minimized bit-identically-replayable
// counterexample, and the passive CheckSink seam leaves message traffic
// unchanged.
#include <gtest/gtest.h>

#include "check/checker.hpp"
#include "workload/generator.hpp"

using namespace lotec;
using namespace lotec::check;

namespace {

TEST(CheckExploreTest, CleanTinyScenarioHasNoViolations) {
  CheckOptions opts;
  opts.scenario = check_tiny();
  opts.mode = ExploreMode::kRandom;
  opts.max_schedules = 40;
  ScheduleChecker checker(opts);
  const CheckReport report = checker.run();
  EXPECT_EQ(report.schedules_run, 40u);
  EXPECT_EQ(report.schedules_with_errors, 0u);
  EXPECT_FALSE(report.violation.has_value()) << report.summary();
  EXPECT_NE(report.summary().find("no invariant violations"),
            std::string::npos);
}

TEST(CheckExploreTest, PctModeRunsClean) {
  CheckOptions opts;
  opts.scenario = check_tiny();
  opts.mode = ExploreMode::kPct;
  opts.pct_changepoints = 3;
  opts.max_schedules = 25;
  const CheckReport report = ScheduleChecker(opts).run();
  EXPECT_EQ(report.schedules_run, 25u);
  EXPECT_FALSE(report.violation.has_value()) << report.summary();
}

TEST(CheckExploreTest, DfsExhaustsTheBoundedTree) {
  CheckOptions opts;
  opts.scenario = check_tiny();
  opts.mode = ExploreMode::kDfs;
  opts.dfs_max_depth = 6;
  opts.max_schedules = 10000;
  const CheckReport report = ScheduleChecker(opts).run();
  EXPECT_TRUE(report.exhausted);
  EXPECT_GT(report.schedules_run, 1u);  // the tree really branched
  EXPECT_LT(report.schedules_run, 10000u);
  EXPECT_FALSE(report.violation.has_value()) << report.summary();
}

TEST(CheckExploreTest, BudgetStopsExploration) {
  CheckOptions opts;
  opts.scenario = check_tiny();
  opts.max_schedules = 1000000;
  opts.budget_seconds = 1e-9;  // expires by the second iteration at latest
  const CheckReport report = ScheduleChecker(opts).run();
  EXPECT_TRUE(report.budget_expired);
  EXPECT_LE(report.schedules_run, 1u);
}

// The ISSUE acceptance bar: with retention broken via the hidden mutation
// flag, a counterexample must surface within 5,000 schedules on the small
// scenario, minimize, and replay bit-identically twice in a row.
TEST(CheckExploreTest, BreakRetentionYieldsVerifiedCounterexample) {
  CheckOptions opts;
  opts.scenario = check_tiny();
  opts.scenario.cluster.test_mutations.break_retention = true;
  opts.max_schedules = 5000;
  ScheduleChecker checker(opts);
  const CheckReport report = checker.run();

  ASSERT_TRUE(report.violation.has_value()) << report.summary();
  EXPECT_TRUE(report.violation->oracle == "lock-discipline" ||
              report.violation->oracle == "serializability")
      << report.violation->oracle;
  EXPECT_TRUE(report.replay_verified) << report.summary();
  EXPECT_GT(report.counterexample_messages, 0u);

  // An independent replay of the shipped counterexample reproduces the
  // identical violation and message count (and verifies again).
  const CheckReport again = checker.replay(report.counterexample);
  ASSERT_TRUE(again.violation.has_value());
  EXPECT_EQ(*again.violation, *report.violation);
  EXPECT_EQ(again.counterexample_messages, report.counterexample_messages);
  EXPECT_TRUE(again.replay_verified);

  // The trace survives a serialize/parse round trip (the CI artifact path).
  const DecisionTrace parsed =
      DecisionTrace::parse(report.counterexample.serialize());
  EXPECT_EQ(parsed, report.counterexample);
}

TEST(CheckExploreTest, MinimizationOnlyShrinksTheTrace) {
  CheckOptions opts;
  opts.scenario = check_tiny();
  opts.scenario.cluster.test_mutations.break_retention = true;
  opts.max_schedules = 5000;
  opts.minimize = false;
  const CheckReport unminimized = ScheduleChecker(opts).run();
  ASSERT_TRUE(unminimized.violation.has_value());
  EXPECT_EQ(unminimized.minimize_replays, 0u);

  opts.minimize = true;
  const CheckReport minimized = ScheduleChecker(opts).run();
  ASSERT_TRUE(minimized.violation.has_value());
  EXPECT_LE(minimized.counterexample.nonzero_picks(),
            unminimized.counterexample.nonzero_picks());
  EXPECT_TRUE(minimized.replay_verified);
}

TEST(CheckExploreTest, MutationIsAlsoCaughtUnderDfs) {
  CheckOptions opts;
  opts.scenario = check_tiny();
  opts.mode = ExploreMode::kDfs;
  opts.dfs_max_depth = 8;
  opts.scenario.cluster.test_mutations.break_retention = true;
  opts.max_schedules = 5000;
  const CheckReport report = ScheduleChecker(opts).run();
  ASSERT_TRUE(report.violation.has_value()) << report.summary();
  EXPECT_TRUE(report.replay_verified);
}

// With a CheckSink attached but every hook left at its no-op default, the
// cluster's message traffic must be bit-identical to a run with no sink at
// all — the zero-overhead guarantee the seam promises (the bench
// BENCH_check_overhead gates the same property with timing).
TEST(CheckExploreTest, PassiveSinkLeavesTrafficBitIdentical) {
  const CheckScenario scenario = check_tiny();
  const Workload workload(scenario.workload);

  auto run = [&](CheckSink* sink) {
    ClusterConfig cfg = scenario.cluster;
    cfg.check_sink = sink;
    Cluster cluster(cfg);
    (void)cluster.execute(workload.instantiate(cluster));
    return std::pair{cluster.stats().total().messages,
                     cluster.stats().total().bytes};
  };

  CheckSink passive;  // every hook is a default no-op
  const auto without = run(nullptr);
  const auto with = run(&passive);
  EXPECT_EQ(without, with);
}

TEST(CheckExploreTest, ReplayOfEmptyTraceIsDefaultSchedule) {
  // An empty trace replays as "always pick 0" — a legal schedule that runs
  // to completion without violations on the clean scenario.
  CheckOptions opts;
  opts.scenario = check_tiny();
  ScheduleChecker checker(opts);
  const CheckReport report = checker.replay(DecisionTrace{});
  EXPECT_FALSE(report.violation.has_value());
  EXPECT_TRUE(report.replay_verified);
  EXPECT_GT(report.counterexample_messages, 0u);
}

}  // namespace
