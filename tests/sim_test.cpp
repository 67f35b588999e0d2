// sim/: report tables, experiment harness, scenario presets.
#include <gtest/gtest.h>

#include <sstream>

#include "sim/experiment.hpp"
#include "sim/report.hpp"
#include "sim/scenarios.hpp"

namespace lotec {
namespace {

TEST(ReportTest, TableAlignsColumns) {
  Table t({"name", "value"});
  t.row({"a", "1"}).row({"longer", "22"});
  std::ostringstream oss;
  t.print(oss);
  const std::string out = oss.str();
  EXPECT_NE(out.find("name"), std::string::npos);
  EXPECT_NE(out.find("longer"), std::string::npos);
  EXPECT_NE(out.find("---"), std::string::npos);
  // Four lines: header, rule, two rows.
  EXPECT_EQ(std::count(out.begin(), out.end(), '\n'), 4);
}

TEST(ReportTest, CsvIsCommaSeparated) {
  Table t({"a", "b"});
  t.row({"1", "2"});
  std::ostringstream oss;
  t.print_csv(oss);
  EXPECT_EQ(oss.str(), "a,b\n1,2\n");
}

TEST(ReportTest, Formatters) {
  EXPECT_EQ(fmt_u64(1234), "1234");
  EXPECT_EQ(fmt_double(2.456, 1), "2.5");
  EXPECT_EQ(fmt_percent(0.256), "25.6%");
}

TEST(ReportTest, ShortRowsPadWithEmptyCells) {
  Table t({"a", "b", "c"});
  t.row({"1"});
  std::ostringstream oss;
  EXPECT_NO_THROW(t.print(oss));
}

TEST(ScenariosTest, PresetsMatchPaperGeometry) {
  const WorkloadSpec fig2 = scenarios::medium_high_contention();
  EXPECT_EQ(fig2.num_objects, 20u);
  EXPECT_EQ(fig2.min_pages, 1u);
  EXPECT_EQ(fig2.max_pages, 5u);
  const WorkloadSpec fig3 = scenarios::large_high_contention();
  EXPECT_EQ(fig3.min_pages, 10u);
  EXPECT_EQ(fig3.max_pages, 20u);
  const WorkloadSpec fig4 = scenarios::medium_moderate_contention();
  EXPECT_EQ(fig4.num_objects, 100u);
  EXPECT_LT(fig4.contention_theta, fig2.contention_theta);
  const WorkloadSpec fig5 = scenarios::large_moderate_contention();
  EXPECT_EQ(fig5.num_objects, 100u);
  EXPECT_EQ(fig5.min_pages, 10u);
}

TEST(ExperimentTest, ScenarioResultIsComplete) {
  WorkloadSpec spec;
  spec.num_objects = 6;
  spec.min_pages = 1;
  spec.max_pages = 3;
  spec.num_transactions = 25;
  spec.seed = 13;
  const Workload workload(spec);
  ExperimentOptions options;
  options.cluster.nodes = 4;
  options.cluster.page_size = 512;
  const ScenarioResult r =
      run_scenario(workload, ProtocolKind::kOtec, options);
  EXPECT_EQ(r.protocol, ProtocolKind::kOtec);
  EXPECT_EQ(r.object_ids.size(), 6u);
  EXPECT_EQ(r.committed + r.aborted, 25u);
  EXPECT_GT(r.total.messages, 0u);
  EXPECT_GT(r.counter("net.lock_messages"), 0u);
  EXPECT_GT(r.counter("net.page_messages"), 0u);
  // Per-object rows are queryable for every object.
  for (const ObjectId id : r.object_ids)
    EXPECT_LE(r.page_data.at(id).bytes, r.object_traffic(id).bytes);
}

TEST(ExperimentTest, SuiteRunsProtocolsIndependently) {
  WorkloadSpec spec;
  spec.num_objects = 5;
  spec.min_pages = 2;
  spec.max_pages = 4;
  spec.num_transactions = 20;
  spec.seed = 14;
  const Workload workload(spec);
  ExperimentOptions options;
  options.cluster.nodes = 4;
  options.cluster.page_size = 512;
  const auto results = run_protocol_suite(
      workload, {ProtocolKind::kCotec, ProtocolKind::kLotec}, options);
  ASSERT_EQ(results.size(), 2u);
  EXPECT_EQ(results[0].protocol, ProtocolKind::kCotec);
  EXPECT_EQ(results[1].protocol, ProtocolKind::kLotec);
  EXPECT_EQ(results[0].committed, results[1].committed);
}

TEST(ExperimentTest, PrefetchOptionReducesRoundTrips) {
  WorkloadSpec spec;
  spec.num_objects = 8;
  spec.min_pages = 2;
  spec.max_pages = 4;
  spec.num_transactions = 40;
  spec.contention_theta = 0.5;
  spec.seed = 15;
  const Workload workload(spec);
  ExperimentOptions plain;
  plain.cluster.nodes = 4;
  plain.cluster.page_size = 512;
  ExperimentOptions hinted = plain;
  hinted.prefetch_hints = true;
  const ScenarioResult without =
      run_scenario(workload, ProtocolKind::kLotec, plain);
  const ScenarioResult with =
      run_scenario(workload, ProtocolKind::kLotec, hinted);
  EXPECT_EQ(without.committed, with.committed);
  EXPECT_LT(with.counter("net.round_trips"), without.counter("net.round_trips"));
}

}  // namespace
}  // namespace lotec
