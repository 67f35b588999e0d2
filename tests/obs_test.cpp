// Observability layer: MetricsRegistry semantics, span tracer nesting and
// determinism, the JSONL / Chrome-trace serializations, and the golden
// span-tree properties of the fig2 scenario.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <map>
#include <sstream>

#include "obs/chrome_trace.hpp"
#include "obs/metrics.hpp"
#include "obs/span.hpp"
#include "sim/experiment.hpp"
#include "sim/scenarios.hpp"

namespace lotec {
namespace {

TEST(MetricsRegistryTest, CountersAreRegisteredOnceAndQueriedByName) {
  MetricsRegistry registry;
  MetricsCounter& a = registry.counter("net.round_trips");
  a.add();
  a.add(4);
  // Same name -> same handle.
  EXPECT_EQ(&registry.counter("net.round_trips"), &a);
  EXPECT_EQ(registry.value("net.round_trips"), 5u);
  EXPECT_EQ(registry.value("never.registered"), 0u);

  registry.counter("txn.deadlock_retries").add(2);
  const auto snapshot = registry.counters();
  ASSERT_EQ(snapshot.size(), 2u);
  EXPECT_EQ(snapshot.at("net.round_trips"), 5u);
  EXPECT_EQ(snapshot.at("txn.deadlock_retries"), 2u);

  registry.reset();
  EXPECT_EQ(registry.value("net.round_trips"), 0u);
  // Registration survives a reset.
  EXPECT_EQ(registry.counters().size(), 2u);
}

TEST(MetricsRegistryTest, HistogramTracksCountSumExtremesAndPercentiles) {
  MetricsRegistry registry;
  LatencyHistogram& h = registry.histogram("span.lock.acquire");
  for (const std::uint64_t v : {1u, 2u, 4u, 8u, 100u}) h.record(v);
  const HistogramSnapshot snap = h.snapshot();
  EXPECT_EQ(snap.count, 5u);
  EXPECT_EQ(snap.sum, 115u);
  EXPECT_EQ(snap.min, 1u);
  EXPECT_EQ(snap.max, 100u);
  EXPECT_DOUBLE_EQ(snap.mean(), 23.0);
  EXPECT_DOUBLE_EQ(snap.percentile(0), 1.0);
  EXPECT_DOUBLE_EQ(snap.percentile(100), 100.0);
  EXPECT_LE(snap.percentile(50), snap.percentile(95));

  const auto all = registry.histograms();
  ASSERT_TRUE(all.contains("span.lock.acquire"));
  EXPECT_EQ(all.at("span.lock.acquire").count, 5u);

  const HistogramSnapshot empty;
  EXPECT_DOUBLE_EQ(empty.mean(), 0.0);
  EXPECT_DOUBLE_EQ(empty.percentile(50), 0.0);
}

TEST(MetricsRegistryTest, PercentileIsTotalOnAnyInput) {
  // An empty histogram yields 0.0 for EVERY p — including NaN and values
  // far outside [0, 100]; a populated one clamps out-of-range p and maps
  // NaN to 0.0.  Never NaN out, never UB (std::clamp on NaN is UB).
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const HistogramSnapshot empty;
  EXPECT_DOUBLE_EQ(empty.percentile(0), 0.0);
  EXPECT_DOUBLE_EQ(empty.percentile(100), 0.0);
  EXPECT_DOUBLE_EQ(empty.percentile(-40), 0.0);
  EXPECT_DOUBLE_EQ(empty.percentile(1e9), 0.0);
  EXPECT_DOUBLE_EQ(empty.percentile(nan), 0.0);

  MetricsRegistry registry;
  LatencyHistogram& h = registry.histogram("span.any");
  for (const std::uint64_t v : {3u, 5u, 9u}) h.record(v);
  const HistogramSnapshot snap = h.snapshot();
  EXPECT_DOUBLE_EQ(snap.percentile(-10), snap.percentile(0));
  EXPECT_DOUBLE_EQ(snap.percentile(250), snap.percentile(100));
  EXPECT_DOUBLE_EQ(snap.percentile(nan), 0.0);
  EXPECT_FALSE(std::isnan(snap.percentile(nan)));
}

TEST(SpanTracerTest, DisabledTracerRecordsNothingAndHoldsTheClock) {
  SpanTracer tracer;
  EXPECT_FALSE(tracer.enabled());
  tracer.tick_message();
  EXPECT_EQ(tracer.now(), 0u);
  EXPECT_EQ(tracer.begin(SpanPhase::kLockAcquire, 1, 0), 0u);
  tracer.instant(SpanPhase::kFaultEvent, 0, 0);
  { ScopedSpan s(&tracer, SpanPhase::kMethodExecute, 1, 0); }
  { ScopedSpan s(nullptr, SpanPhase::kMethodExecute, 1, 0); }
  EXPECT_TRUE(tracer.spans().empty());
}

TEST(SpanTracerTest, SpansNestPerFamilyLaneWithIncreasingTicks) {
  SpanTracer tracer;
  MetricsRegistry registry;
  tracer.set_registry(&registry);
  tracer.add_sink(std::make_unique<InMemorySink>());
  tracer.enable();

  const std::uint64_t outer = tracer.begin(SpanPhase::kFamilyAttempt, 7, 2);
  tracer.tick_message();
  const std::uint64_t inner =
      tracer.begin(SpanPhase::kLockAcquire, 7, 2, /*object=*/11);
  // A different family lane opens independently.
  const std::uint64_t other = tracer.begin(SpanPhase::kFamilyAttempt, 8, 3);
  tracer.instant(SpanPhase::kLockInherit, 7, 2, 11);
  tracer.end(inner, 7);
  tracer.end(outer, 7);
  tracer.end(other, 8);

  const auto spans = tracer.spans();
  ASSERT_EQ(spans.size(), 4u);  // 2 nested + 1 other-lane + 1 instant

  std::map<std::uint64_t, SpanRecord> by_id;
  for (const SpanRecord& s : spans) by_id[s.id] = s;
  EXPECT_EQ(by_id.at(outer).parent, 0u);
  EXPECT_EQ(by_id.at(inner).parent, outer);
  EXPECT_EQ(by_id.at(other).parent, 0u);  // different lane: not nested
  EXPECT_EQ(by_id.at(inner).object, 11u);
  EXPECT_EQ(by_id.at(inner).node, 2u);

  // Child contained in parent; every edge consumed a distinct tick.
  EXPECT_GT(by_id.at(inner).begin, by_id.at(outer).begin);
  EXPECT_LT(by_id.at(inner).end, by_id.at(outer).end);
  EXPECT_LT(by_id.at(inner).begin, by_id.at(inner).end);

  // The instant rode the open lock.acquire span.
  const auto instant =
      std::find_if(spans.begin(), spans.end(), [](const SpanRecord& s) {
        return s.phase == SpanPhase::kLockInherit;
      });
  ASSERT_NE(instant, spans.end());
  EXPECT_EQ(instant->parent, inner);
  EXPECT_EQ(instant->begin, instant->end);

  // Span durations fed the per-phase histograms.
  const auto hists = registry.histograms();
  EXPECT_EQ(hists.at("span.family.attempt").count, 2u);
  EXPECT_EQ(hists.at("span.lock.acquire").count, 1u);
}

TEST(SpanTracerTest, EndingAnOuterSpanClosesAbandonedChildren) {
  // Exception unwinding destroys ScopedSpans in LIFO order, but a child
  // whose end() was never reached must still be closed when the parent
  // ends — the tracer pops the lane stack down to the matching id.
  SpanTracer tracer;
  tracer.enable();
  const std::uint64_t outer = tracer.begin(SpanPhase::kFamilyAttempt, 1, 0);
  (void)tracer.begin(SpanPhase::kLockAcquire, 1, 0);
  (void)tracer.begin(SpanPhase::kGdoRound, 1, 0);
  tracer.end(outer, 1);
  const auto spans = tracer.spans();
  ASSERT_EQ(spans.size(), 3u);
  for (const SpanRecord& s : spans) EXPECT_LE(s.begin, s.end);
}

TEST(SpanSerializationTest, JsonlRoundTripPreservesEveryField) {
  SpanTracer tracer;
  tracer.enable();
  const std::uint64_t outer = tracer.begin(SpanPhase::kFamilyAttempt, 3, 1);
  const std::uint64_t inner = tracer.begin(SpanPhase::kPageGather, 3, 1, 42);
  tracer.instant(SpanPhase::kFaultEvent, 0, 2);  // directory lane, no object
  tracer.end(inner, 3);
  tracer.end(outer, 3);
  const auto spans = tracer.spans();
  ASSERT_EQ(spans.size(), 3u);

  std::stringstream ss;
  write_spans_jsonl(spans, ss);
  const auto parsed = load_spans_jsonl(ss);
  EXPECT_EQ(parsed, spans);
}

TEST(SpanSerializationTest, JsonlLoaderRejectsMalformedInput) {
  {
    std::stringstream ss("{\"id\":1,\"parent\":0}\n");  // missing fields
    EXPECT_THROW((void)load_spans_jsonl(ss), std::runtime_error);
  }
  {
    std::stringstream ss(
        "{\"id\":1,\"parent\":0,\"phase\":\"not.a.phase\",\"family\":1,"
        "\"node\":0,\"begin\":1,\"end\":2}\n");
    EXPECT_THROW((void)load_spans_jsonl(ss), std::runtime_error);
  }
}

TEST(SpanSerializationTest, JsonEscapeNeutralizesHostileStrings) {
  // Quotes, backslashes, control characters, embedded newlines: whatever
  // lands in a name, the emitted document must stay structurally valid.
  const std::string hostile_cases[] = {
      "plain",
      "with \"quotes\" inside",
      "back\\slash",
      std::string("nul\0byte", 8),
      "newline\nand\ttab\rand\x01\x1f controls",
      "trailing backslash\\",
      "}]\",\"injected\":\"x",  // attempts to escape the string literal
  };
  for (const std::string& s : hostile_cases) {
    const std::string escaped = json_escape(s);
    // No raw control characters or unescaped quotes survive.
    for (const char c : escaped)
      EXPECT_GE(static_cast<unsigned char>(c), 0x20u);
    const std::string doc = "{\"k\":\"" + escaped + "\"}";
    EXPECT_TRUE(json_wellformed(doc)) << "hostile input: " << s;
  }
  EXPECT_FALSE(json_wellformed("{\"k\":\"unterminated"));
  EXPECT_FALSE(json_wellformed("{\"k\":1"));
}

TEST(SpanSerializationTest, ObsStreamRoundTripsSpansAndMessages) {
  // The full observability stream — span lines interleaved with "msg"
  // lines — re-parses into the identical records, causal fields included.
  SpanTracer tracer;
  tracer.enable();
  const std::uint64_t outer = tracer.begin(SpanPhase::kFamilyAttempt, 9, 2);
  TraceContext ctx = tracer.current_context();
  tracer.note_message("LockAcquireRequest", 2, 0, 17, 96, ctx);
  const std::uint64_t serve =
      tracer.begin_remote(SpanPhase::kGdoServe, 0, ctx, 17);
  tracer.end(serve, 0);
  tracer.note_message("LockAcquireGrant", 0, 2, 17, 64, ctx);
  tracer.end(outer, 9);

  const auto spans = tracer.spans();
  const auto messages = tracer.messages();
  ASSERT_EQ(spans.size(), 2u);
  ASSERT_EQ(messages.size(), 2u);
  // The serve span carries the causal fields the round trip must keep.
  const SpanRecord& s = spans.front();
  EXPECT_EQ(s.phase, SpanPhase::kGdoServe);
  EXPECT_NE(s.trace, 0u);
  EXPECT_EQ(s.link, outer);

  std::stringstream ss;
  for (const SpanRecord& span : spans) write_span_jsonl(span, ss);
  for (const MessageRecord& m : messages) write_message_jsonl(m, ss);
  for (std::string line; std::getline(ss, line);)
    EXPECT_TRUE(json_wellformed(line)) << line;
  ss.clear();
  ss.seekg(0);

  std::vector<SpanRecord> spans_back;
  std::vector<MessageRecord> messages_back;
  load_obs_jsonl(ss, spans_back, messages_back);
  EXPECT_EQ(spans_back, spans);
  EXPECT_EQ(messages_back, messages);
}

TEST(SpanSerializationTest, ChromeTraceDrawsFlowArrowsForCausalLinks) {
  SpanTracer tracer;
  tracer.enable();
  const std::uint64_t outer = tracer.begin(SpanPhase::kFamilyAttempt, 4, 1);
  const TraceContext ctx = tracer.current_context();
  const std::uint64_t serve =
      tracer.begin_remote(SpanPhase::kGdoServe, 0, ctx, 3);
  tracer.end(serve, 0);
  tracer.end(outer, 4);

  std::stringstream ss;
  write_chrome_trace(tracer.spans(), ss);
  const std::string json = ss.str();
  EXPECT_TRUE(json_wellformed(json));
  // One flow start ("s") / finish ("f") pair, bound to the enclosing
  // slices, so Perfetto draws the cross-lane arrow.
  EXPECT_NE(json.find("\"ph\":\"s\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"f\""), std::string::npos);
  EXPECT_NE(json.find("\"bp\":\"e\""), std::string::npos);
  EXPECT_NE(json.find("\"gdo.serve\""), std::string::npos);
}

TEST(SpanSerializationTest, ChromeTraceEmitsValidEventsAndMetadata) {
  SpanTracer tracer;
  tracer.enable();
  const std::uint64_t outer = tracer.begin(SpanPhase::kFamilyAttempt, 5, 1);
  tracer.instant(SpanPhase::kLockInherit, 5, 1, 9);
  tracer.end(outer, 5);
  tracer.instant(SpanPhase::kFaultEvent, 0, 0);  // directory lane

  std::stringstream ss;
  write_chrome_trace(tracer.spans(), ss);
  const std::string json = ss.str();

  // Schema: a traceEvents array of "M" metadata, "X" complete and "i"
  // instant events (the subset Perfetto needs).
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"M\""), std::string::npos);
  EXPECT_NE(json.find("\"process_name\""), std::string::npos);
  EXPECT_NE(json.find("\"thread_name\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(json.find("\"family.attempt\""), std::string::npos);
  // Instants carry thread scope.
  EXPECT_NE(json.find("\"ph\":\"i\""), std::string::npos);
  EXPECT_NE(json.find("\"s\":\"t\""), std::string::npos);
  // The family-0 lane is labeled as the directory.
  EXPECT_NE(json.find("\"directory\""), std::string::npos);
  // Balanced braces/brackets (cheap well-formedness check).
  EXPECT_EQ(std::count(json.begin(), json.end(), '{'),
            std::count(json.begin(), json.end(), '}'));
  EXPECT_EQ(std::count(json.begin(), json.end(), '['),
            std::count(json.begin(), json.end(), ']'));
}

/// Golden span-tree test on the fig2 scenario: the traced run's span forest
/// must be non-empty, properly nested per family, deterministic across
/// reruns, and consistent with the registry counters.
TEST(SpanTracerTest, GoldenSpanTreeOnFig2Scenario) {
  const Workload workload(scenarios::medium_high_contention());
  ExperimentOptions options;
  options.cluster.obs.trace_spans = true;
  const ScenarioResult r =
      run_scenario(workload, ProtocolKind::kLotec, options);
  ASSERT_FALSE(r.spans.empty());

  std::map<std::uint64_t, const SpanRecord*> by_id;
  std::map<SpanPhase, std::uint64_t> phase_count;
  for (const SpanRecord& s : r.spans) {
    EXPECT_LE(s.begin, s.end);
    by_id[s.id] = &s;
    ++phase_count[s.phase];
  }
  // Ids are unique.
  EXPECT_EQ(by_id.size(), r.spans.size());

  // Every non-root span nests inside its parent, and the parent shares the
  // family lane (instants on the directory lane aside, nothing crosses).
  for (const SpanRecord& s : r.spans) {
    if (s.parent == 0) continue;
    const auto it = by_id.find(s.parent);
    ASSERT_NE(it, by_id.end()) << "span " << s.id << " orphaned";
    EXPECT_GE(s.begin, it->second->begin);
    EXPECT_LE(s.end, it->second->end);
    EXPECT_EQ(s.family, it->second->family);
  }

  // The phases the fig2 run must exercise.
  EXPECT_GT(phase_count[SpanPhase::kFamilyAttempt], 0u);
  EXPECT_GT(phase_count[SpanPhase::kLockAcquire], 0u);
  EXPECT_GT(phase_count[SpanPhase::kGdoRound], 0u);
  EXPECT_GT(phase_count[SpanPhase::kPageGather], 0u);
  EXPECT_GT(phase_count[SpanPhase::kMethodExecute], 0u);
  EXPECT_GT(phase_count[SpanPhase::kCommitReport], 0u);
  // No lock cache, no faults configured.
  EXPECT_EQ(phase_count[SpanPhase::kCallbackRound], 0u);
  EXPECT_EQ(phase_count[SpanPhase::kFaultEvent], 0u);

  // One attempt span per execution attempt: every commit plus every retry.
  EXPECT_EQ(phase_count[SpanPhase::kFamilyAttempt],
            r.committed + r.aborted + r.counter("txn.deadlock_retries") +
                r.counter("txn.fault_retries"));
  // One commit-report round per committed family.
  EXPECT_EQ(phase_count[SpanPhase::kCommitReport], r.committed);

  // Histograms mirror the span counts.
  ASSERT_TRUE(r.histograms.contains("span.method.execute"));
  EXPECT_EQ(r.histograms.at("span.method.execute").count,
            phase_count[SpanPhase::kMethodExecute]);

  // Deterministic: the same run produces the identical span forest.
  const ScenarioResult again =
      run_scenario(workload, ProtocolKind::kLotec, options);
  EXPECT_EQ(again.spans, r.spans);
}

TEST(SpanTracerTest, TracingIsBitIdenticalOnTheWire) {
  // The acceptance property, at unit-test scale: a traced run carries the
  // exact same message traffic as an untraced one.
  WorkloadSpec spec = scenarios::medium_high_contention();
  spec.num_transactions = 40;
  const Workload workload(spec);
  ExperimentOptions off;
  off.cluster.nodes = 8;
  off.record_trace = true;
  ExperimentOptions on = off;
  on.cluster.obs.trace_spans = true;

  const ScenarioResult a = run_scenario(workload, ProtocolKind::kLotec, off);
  const ScenarioResult b = run_scenario(workload, ProtocolKind::kLotec, on);
  EXPECT_EQ(a.trace, b.trace);
  EXPECT_EQ(a.total.messages, b.total.messages);
  EXPECT_EQ(a.total.bytes, b.total.bytes);
  EXPECT_TRUE(a.spans.empty());
  EXPECT_FALSE(b.spans.empty());
}

}  // namespace
}  // namespace lotec
