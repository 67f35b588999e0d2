// PR 10 tentpole: the time-series telemetry plane (PROTOCOL.md §16).
// Covers the windowed-histogram edge cases (empty merge is a no-op, bucket
// counts saturate instead of wrapping), the collector's logical-tick
// windowing / retention ring / JSONL stream, the Prometheus text writer
// (golden output, hostile-name escaping, round-trip through the parser),
// and the population tail attribution — including the central identity:
// every root attempt's exclusive phase buckets sum to its sojourn ticks,
// on a real deterministic-scheduler run AND on synthetic corrupt input.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <tuple>
#include <vector>

#include "common/error.hpp"
#include "obs/chrome_trace.hpp"
#include "obs/metrics.hpp"
#include "obs/tail_attribution.hpp"
#include "obs/timeseries.hpp"
#include "runtime/cluster.hpp"
#include "sim/experiment.hpp"
#include "sim/scenarios.hpp"
#include "workload/generator.hpp"

namespace lotec {
namespace {

WindowHistogram window_of(std::initializer_list<std::uint64_t> samples) {
  LatencyHistogram h;
  for (const std::uint64_t s : samples) h.record(s);
  return WindowHistogram::delta(h.snapshot(), HistogramSnapshot{});
}

// --- WindowHistogram edge cases ------------------------------------------

TEST(WindowHistogramTest, EmptyMergeIsAStrictNoOp) {
  WindowHistogram w = window_of({1, 5, 100, 9000});
  const WindowHistogram before = w;
  w.merge(WindowHistogram{});
  EXPECT_EQ(w, before);
  // Percentiles in particular must be unperturbed (min/max of an empty
  // window are zero — a careless merge would drag min down to 0).
  for (const double p : {0.0, 50.0, 99.0, 99.9, 100.0})
    EXPECT_EQ(w.percentile(p), before.percentile(p)) << "p" << p;
}

TEST(WindowHistogramTest, MergingIntoAnEmptyWindowCopies) {
  const WindowHistogram src = window_of({7, 42});
  WindowHistogram dst;
  dst.merge(src);
  EXPECT_EQ(dst, src);
}

TEST(WindowHistogramTest, MergeCombinesCountsSumAndExtremes) {
  WindowHistogram a = window_of({1, 100});
  const WindowHistogram b = window_of({5000});
  a.merge(b);
  EXPECT_EQ(a.count, 3u);
  EXPECT_EQ(a.sum, 5101u);
  EXPECT_LE(a.min, 1u);
  EXPECT_GE(a.max, 5000u);
}

TEST(WindowHistogramTest, BucketCountsSaturateInsteadOfWrapping) {
  EXPECT_EQ(saturating_add_u32(0, 0), 0u);
  EXPECT_EQ(saturating_add_u32(1, 2), 3u);
  EXPECT_EQ(saturating_add_u32(0xFFFFFFFFu, 1), 0xFFFFFFFFu);
  EXPECT_EQ(saturating_add_u32(0xFFFFFFFEu, 5), 0xFFFFFFFFu);
  EXPECT_EQ(saturating_add_u32(5, ~std::uint64_t{0} - 4), 0xFFFFFFFFu);

  WindowHistogram a = window_of({100});
  WindowHistogram b = window_of({100});
  a.buckets[6] = 0xFFFFFFFFu;  // 100 lands in bucket 6: [63, 127)
  a.merge(b);
  EXPECT_EQ(a.buckets[6], 0xFFFFFFFFu) << "bucket wrapped on overflow";
  // The percentile walk stays monotonic on the pinned histogram.
  EXPECT_LE(a.percentile(50), a.percentile(99));
}

TEST(WindowHistogramTest, DeltaSubtractsCumulativeSnapshots) {
  LatencyHistogram h;
  h.record(3);
  h.record(9);
  const HistogramSnapshot prev = h.snapshot();
  h.record(100);
  const WindowHistogram w = WindowHistogram::delta(h.snapshot(), prev);
  EXPECT_EQ(w.count, 1u);
  EXPECT_EQ(w.sum, 100u);
  // min/max are bucket-resolution approximations clamped to the cumulative
  // max; the one recorded sample must lie inside them.
  EXPECT_LE(w.min, 100u);
  EXPECT_GE(w.max, 100u);
}

TEST(WindowHistogramTest, DeltaDegradesGracefullyAcrossARegistryReset) {
  LatencyHistogram before;
  for (int i = 0; i < 5; ++i) before.record(50);
  const HistogramSnapshot prev = before.snapshot();
  LatencyHistogram after;  // "reset": fewer cumulative samples than prev
  after.record(7);
  after.record(8);
  const WindowHistogram w = WindowHistogram::delta(after.snapshot(), prev);
  EXPECT_EQ(w, WindowHistogram::delta(after.snapshot(), HistogramSnapshot{}));
  EXPECT_EQ(w.count, 2u);
}

TEST(WindowHistogramTest, PercentileIsTotalOnAnyInput) {
  const WindowHistogram empty;
  EXPECT_EQ(empty.percentile(50), 0.0);
  const WindowHistogram w = window_of({10, 20, 30});
  EXPECT_EQ(w.percentile(std::nan("")), 0.0);
  EXPECT_EQ(w.percentile(-5), w.percentile(0));
  EXPECT_EQ(w.percentile(1e9), w.percentile(100));
}

// --- TimeseriesCollector --------------------------------------------------

TEST(TimeseriesCollectorTest, LogicalIntervalClosesWindowsWithDeltas) {
  MetricsRegistry registry;
  MetricsCounter& commits = registry.counter("txn.commits");
  TimeseriesConfig cfg;
  cfg.tick_interval = 10;
  TimeseriesCollector ts(registry, cfg);

  for (int i = 0; i < 25; ++i) {
    commits.add(2);
    ts.on_message();
  }
  EXPECT_EQ(ts.windows_closed(), 2u);
  ts.close_window();  // flush the trailing partial window
  EXPECT_EQ(ts.windows_closed(), 3u);

  const std::vector<std::string> names = ts.counter_names();
  std::ptrdiff_t commits_at = -1;
  for (std::size_t i = 0; i < names.size(); ++i)
    if (names[i] == "txn.commits") commits_at = static_cast<std::ptrdiff_t>(i);
  ASSERT_GE(commits_at, 0);

  const std::vector<TimeseriesWindow> windows = ts.windows();
  ASSERT_EQ(windows.size(), 3u);
  EXPECT_EQ(windows[0].open_tick, 0u);
  EXPECT_EQ(windows[0].close_tick, 10u);
  EXPECT_EQ(windows[1].close_tick, 20u);
  // 2 commits per message: 20 per full window, 10 in the 5-message tail.
  EXPECT_EQ(windows[0].counter_deltas[commits_at], 20u);
  EXPECT_EQ(windows[1].counter_deltas[commits_at], 20u);
  EXPECT_EQ(windows[2].counter_deltas[commits_at], 10u);
}

TEST(TimeseriesCollectorTest, RingRetainsOnlyTheLastNWindows) {
  MetricsRegistry registry;
  TimeseriesConfig cfg;
  cfg.tick_interval = 1;
  cfg.retain = 4;
  TimeseriesCollector ts(registry, cfg);
  for (int i = 0; i < 10; ++i) ts.on_message();
  EXPECT_EQ(ts.windows_closed(), 10u);
  const std::vector<TimeseriesWindow> windows = ts.windows();
  ASSERT_EQ(windows.size(), 4u);
  for (std::size_t i = 0; i < windows.size(); ++i)
    EXPECT_EQ(windows[i].index, 6u + i) << "oldest-first order";
}

TEST(TimeseriesCollectorTest, MetricsRegisteredLaterJoinLaterWindows) {
  MetricsRegistry registry;
  registry.counter("a").add(1);
  TimeseriesConfig cfg;
  cfg.tick_interval = 0;  // explicit closes only
  TimeseriesCollector ts(registry, cfg);
  ts.close_window();
  EXPECT_EQ(ts.counter_names().size(), 1u);
  registry.counter("b").add(5);  // generation bump
  ts.close_window();
  const std::vector<std::string> names = ts.counter_names();
  EXPECT_EQ(names.size(), 2u);
  const std::vector<TimeseriesWindow> windows = ts.windows();
  ASSERT_EQ(windows.size(), 2u);
  // The later window carries the new counter's full value as its delta.
  std::ptrdiff_t b_at = -1;
  for (std::size_t i = 0; i < names.size(); ++i)
    if (names[i] == "b") b_at = static_cast<std::ptrdiff_t>(i);
  ASSERT_GE(b_at, 0);
  EXPECT_EQ(windows[1].counter_deltas[b_at], 5u);
}

TEST(TimeseriesCollectorTest, JsonlStreamWritesOneWellFormedLinePerWindow) {
  const std::string path = "timeseries_test_stream.jsonl";
  {
    MetricsRegistry registry;
    registry.counter("txn.commits");
    registry.histogram("span.family.attempt");
    TimeseriesConfig cfg;
    cfg.tick_interval = 5;
    cfg.jsonl_path = path;
    TimeseriesCollector ts(registry, cfg);
    for (int i = 0; i < 10; ++i) {
      registry.counter("txn.commits").add(1);
      registry.histogram("span.family.attempt").record(4 + i);
      ts.on_message();
    }
  }
  std::ifstream in(path);
  ASSERT_TRUE(in.is_open());
  std::string line;
  std::size_t lines = 0;
  while (std::getline(in, line)) {
    EXPECT_TRUE(json_wellformed(line)) << line;
    EXPECT_NE(line.find("\"window\":" + std::to_string(lines)),
              std::string::npos)
        << line;
    EXPECT_NE(line.find("txn.commits"), std::string::npos);
    ++lines;
  }
  EXPECT_EQ(lines, 2u);
  std::remove(path.c_str());
}

// --- Prometheus text exposition ------------------------------------------

TEST(PrometheusTest, MetricNamesSanitizeToTheAllowedAlphabet) {
  EXPECT_EQ(prom_metric_name("txn.commits"), "lotec_txn_commits");
  EXPECT_EQ(prom_metric_name("lotec_already"), "lotec_already");
  const std::string evil = prom_metric_name("9 evil{name}\"\n");
  EXPECT_EQ(evil.rfind("lotec_", 0), 0u);
  for (const char c : evil)
    EXPECT_TRUE((c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                (c >= '0' && c <= '9') || c == '_' || c == ':')
        << "char " << static_cast<int>(c) << " in " << evil;
}

TEST(PrometheusTest, GoldenExpositionOutput) {
  std::map<std::string, std::uint64_t> counters{{"txn.commits", 42}};
  LatencyHistogram h;
  h.record(1);
  h.record(5);
  std::map<std::string, HistogramSnapshot> hists{
      {"span.family.attempt", h.snapshot()}};
  std::ostringstream os;
  write_prometheus_text(counters, hists, {{"node", "3"}}, os);
  const std::string text = os.str();
  EXPECT_NE(text.find("# TYPE lotec_txn_commits counter\n"),
            std::string::npos);
  EXPECT_NE(text.find("lotec_txn_commits_total{node=\"3\"} 42\n"),
            std::string::npos);
  EXPECT_NE(text.find("# TYPE lotec_span_family_attempt histogram\n"),
            std::string::npos);
  // Bucket upper bounds follow the power-of-two layout (bucket i holds
  // [2^i - 1, 2^(i+1) - 1), le = 2^(i+1) - 2): the sample 1 lands in
  // bucket 1 (le="2"), the sample 5 in bucket 2 (le="6"), +Inf closes.
  EXPECT_NE(text.find("_bucket{node=\"3\",le=\"2\"} 1\n"), std::string::npos);
  EXPECT_NE(text.find("_bucket{node=\"3\",le=\"6\"} 2\n"), std::string::npos);
  EXPECT_NE(text.find("_bucket{node=\"3\",le=\"+Inf\"} 2\n"),
            std::string::npos);
  EXPECT_NE(text.find("lotec_span_family_attempt_sum{node=\"3\"} 6\n"),
            std::string::npos);
  EXPECT_NE(text.find("lotec_span_family_attempt_count{node=\"3\"} 2\n"),
            std::string::npos);
}

TEST(PrometheusTest, HostileLabelValuesEscapeAndRoundTrip) {
  // The json_escape hostile table, adapted: whatever lands in a label
  // value, the exposition must stay parseable and the value must survive
  // the round trip.
  const std::string hostile_cases[] = {
      "plain",
      "with \"quotes\" inside",
      "back\\slash",
      "newline\nin the middle",
      "trailing backslash\\",
      "\"} 999\nlotec_injected_total{x=\"y",  // tries to forge a sample
  };
  for (const std::string& value : hostile_cases) {
    std::ostringstream os;
    write_prometheus_text({{"m", 7}}, {}, {{"transport", value}}, os);
    const std::vector<PromSample> samples = parse_prometheus_text(os.str());
    ASSERT_EQ(samples.size(), 1u) << "hostile value forged a sample: "
                                  << value;
    EXPECT_EQ(samples[0].name, "lotec_m_total");
    EXPECT_EQ(samples[0].value, 7.0);
    ASSERT_EQ(samples[0].labels.size(), 1u);
    EXPECT_EQ(samples[0].labels[0].first, "transport");
    EXPECT_EQ(samples[0].labels[0].second, value) << "lossy escaping";
  }
}

TEST(PrometheusTest, WriterOutputRoundTripsThroughTheParser) {
  std::map<std::string, std::uint64_t> counters{
      {"a.one", 1}, {"b.two", 200}, {"c.three", 0}};
  LatencyHistogram h;
  for (const std::uint64_t v : {1ull, 7ull, 300ull, 9000ull}) h.record(v);
  std::map<std::string, HistogramSnapshot> hists{{"lat", h.snapshot()}};
  std::ostringstream os;
  write_prometheus_text(counters, hists, {{"node", "0"}, {"t", "uds"}}, os);
  const std::vector<PromSample> samples = parse_prometheus_text(os.str());

  std::map<std::string, double> by_name;
  for (const PromSample& s : samples) {
    by_name[s.name] += s.value;
    ASSERT_EQ(s.labels.size(), s.name.find("_bucket") == std::string::npos
                                   ? 2u
                                   : 3u);  // + le
  }
  EXPECT_EQ(by_name["lotec_a_one_total"], 1.0);
  EXPECT_EQ(by_name["lotec_b_two_total"], 200.0);
  EXPECT_EQ(by_name["lotec_c_three_total"], 0.0);
  EXPECT_EQ(by_name["lotec_lat_count"], 4.0);
  EXPECT_EQ(by_name["lotec_lat_sum"], 9308.0);
}

TEST(PrometheusTest, ParserRejectsGarbageLines) {
  EXPECT_THROW((void)parse_prometheus_text("{\"json\": true}"), Error);
  EXPECT_THROW((void)parse_prometheus_text("name_without_value\n"), Error);
  EXPECT_THROW((void)parse_prometheus_text("m{unclosed=\"x} 1\n"), Error);
  EXPECT_THROW((void)parse_prometheus_text("m not_a_number\n"), Error);
  // Comments and blank lines are fine.
  EXPECT_TRUE(parse_prometheus_text("# HELP x\n\n# TYPE x counter\n").empty());
}

// --- collector exposition ------------------------------------------------

TEST(TimeseriesCollectorTest, PrometheusViewCarriesWindowGauges) {
  MetricsRegistry registry;
  registry.counter("txn.commits").add(3);
  registry.histogram("span.family.attempt").record(12);
  TimeseriesConfig cfg;
  TimeseriesCollector ts(registry, cfg);
  ts.close_window();
  std::ostringstream os;
  ts.write_prometheus(os, {{"node", "coordinator"}});
  const std::vector<PromSample> samples = parse_prometheus_text(os.str());
  double window_deltas = 0, cumulative = 0, window_meta = 0;
  for (const PromSample& s : samples) {
    if (s.name == "lotec_window_delta") ++window_deltas;
    if (s.name == "lotec_window") ++window_meta;
    if (s.name == "lotec_txn_commits_total") cumulative = s.value;
  }
  EXPECT_EQ(cumulative, 3.0);
  EXPECT_GT(window_meta, 0.0) << "no lotec_window index/open/close gauges";
  EXPECT_GT(window_deltas, 0.0) << "no per-window delta gauges";
}

// --- tail attribution -----------------------------------------------------

SpanRecord make_span(std::uint64_t id, std::uint64_t parent, SpanPhase phase,
                     std::uint64_t begin, std::uint64_t end) {
  SpanRecord s;
  s.id = id;
  s.parent = parent;
  s.phase = phase;
  s.family = 1;
  s.node = 0;
  s.begin = begin;
  s.end = end;
  s.trace = 77;
  return s;
}

TEST(TailAttributionTest, ClippedDecompositionOnSyntheticOverlaps) {
  // Root [0,100) with: lock [10,50), gdo [40,80) (overlaps the lock — the
  // earlier sibling wins the shared ticks), a wire child [90,150) spilling
  // past the root (clipped), and an orphan pointing at an unknown parent
  // (never reached, never counted).
  std::vector<SpanRecord> spans;
  spans.push_back(make_span(1, 0, SpanPhase::kFamilyAttempt, 0, 100));
  spans.push_back(make_span(2, 1, SpanPhase::kLockAcquire, 10, 50));
  spans.push_back(make_span(3, 1, SpanPhase::kGdoRound, 40, 80));
  spans.push_back(make_span(4, 1, SpanPhase::kWireDeliver, 90, 150));
  spans.push_back(make_span(5, 999, SpanPhase::kUndo, 0, 1000));

  const TailAttribution ta = analyze_tail_attribution(spans);
  ASSERT_EQ(ta.attempts.size(), 1u);
  const AttemptAttribution& a = ta.attempts[0];
  EXPECT_EQ(a.sojourn, 100u);

  const auto at = [&](TailBucket b) {
    return a.buckets[static_cast<std::size_t>(b)];
  };
  EXPECT_EQ(at(TailBucket::kLockWait), 40u);   // [10,50)
  EXPECT_EQ(at(TailBucket::kGdoRound), 30u);   // [50,80) after the clip
  EXPECT_EQ(at(TailBucket::kWire), 10u);       // [90,100), overflow clipped
  EXPECT_EQ(at(TailBucket::kUndo), 0u);        // orphan never attributed
  EXPECT_EQ(at(TailBucket::kOther), 20u);      // root self time
  std::uint64_t sum = 0;
  for (const std::uint64_t b : a.buckets) sum += b;
  EXPECT_EQ(sum, a.sojourn);
}

TEST(TailAttributionTest, BucketsSumToSojournOnADeterministicRun) {
  WorkloadSpec spec = scenarios::medium_high_contention();
  spec.num_transactions = 60;
  const Workload workload(spec);
  ExperimentOptions options;
  options.cluster.nodes = 8;
  options.cluster.obs.trace_spans = true;
  const ScenarioResult r =
      run_scenario(workload, ProtocolKind::kLotec, options);
  ASSERT_FALSE(r.spans.empty());

  const TailAttribution ta = analyze_tail_attribution(r.spans);
  ASSERT_FALSE(ta.empty());

  // The §16 identity, for EVERY attempt in the population — not only the
  // slowest one the critical path analyzes.
  std::uint64_t population_sojourn = 0;
  for (const AttemptAttribution& a : ta.attempts) {
    std::uint64_t sum = 0;
    for (const std::uint64_t b : a.buckets) sum += b;
    EXPECT_EQ(sum, a.sojourn) << "attempt " << a.root;
    population_sojourn += a.sojourn;
  }

  // Bands partition the population exactly.
  std::uint64_t band_attempts = 0, band_sojourn = 0;
  for (const TailBand& band : ta.bands) {
    band_attempts += band.attempts;
    band_sojourn += band.sojourn;
    std::uint64_t bucket_sum = 0;
    for (const std::uint64_t b : band.buckets) bucket_sum += b;
    EXPECT_EQ(bucket_sum, band.sojourn) << band.label;
  }
  EXPECT_EQ(band_attempts, ta.attempts.size());
  EXPECT_EQ(band_sojourn, population_sojourn);

  // Attempts are sorted by sojourn, so the band split is meaningful.
  for (std::size_t i = 1; i < ta.attempts.size(); ++i)
    EXPECT_GE(ta.attempts[i].sojourn, ta.attempts[i - 1].sojourn);

  // On a contended run, real protocol work (not just "other") shows up.
  const TailBand& p0 = ta.bands[0];
  std::uint64_t protocol_ticks = 0;
  for (std::size_t k = 0; k + 1 < kNumTailBuckets; ++k)
    protocol_ticks += p0.buckets[k];
  EXPECT_GT(protocol_ticks, 0u) << "no span-covered work in the p0-50 band";

  // The report renders without touching the stream's error state.
  std::ostringstream os;
  write_tail_attribution(ta, os);
  EXPECT_NE(os.str().find("p99.9-100"), std::string::npos);
}

TEST(TimeseriesCollectorTest, TelemetryOffAndOnAreBitIdentical) {
  // The ablation_obs gating discipline, asserted at unit level: installing
  // the collector changes NOTHING the protocol can see — accounted traffic
  // and the span stream are byte-for-byte identical, because the collector
  // only ever reads counters at the transport choke point.
  auto run = [](bool telemetry) {
    WorkloadSpec spec = scenarios::medium_high_contention();
    spec.num_transactions = 40;
    const Workload workload(spec);
    ClusterConfig cfg;
    cfg.nodes = 4;
    cfg.obs.trace_spans = true;
    cfg.obs.timeseries = telemetry;
    cfg.obs.timeseries_interval = 64;
    Cluster cluster(cfg);
    const auto results = cluster.execute(workload.instantiate(cluster));
    std::size_t committed = 0;
    for (const TxnResult& r : results) committed += r.committed ? 1 : 0;
    return std::tuple(committed, cluster.stats().total().messages,
                      cluster.stats().total().bytes,
                      cluster.observe().spans());
  };
  const auto [c_off, m_off, b_off, spans_off] = run(false);
  const auto [c_on, m_on, b_on, spans_on] = run(true);
  EXPECT_EQ(c_off, c_on);
  EXPECT_EQ(m_off, m_on);
  EXPECT_EQ(b_off, b_on);
  ASSERT_EQ(spans_off.size(), spans_on.size());
  for (std::size_t i = 0; i < spans_off.size(); ++i)
    ASSERT_EQ(spans_off[i], spans_on[i]) << "span " << i << " diverged";
}

TEST(TailAttributionTest, EmptyInputYieldsEmptyReport) {
  const TailAttribution ta = analyze_tail_attribution({});
  EXPECT_TRUE(ta.empty());
  std::ostringstream os;
  write_tail_attribution(ta, os);
  EXPECT_NE(os.str().find("0 root family attempts"), std::string::npos);
}

}  // namespace
}  // namespace lotec
