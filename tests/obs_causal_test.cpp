// PR 5 tentpole: causal cross-node propagation, critical-path analysis and
// the always-on flight recorder.  Covers the span-lane fault-injection
// satellites: crashes close abandoned spans, retries mint fresh trace ids,
// and the recorder produces a Perfetto-loadable post-mortem.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <map>
#include <set>
#include <sstream>

#include "fault/fault_schedule.hpp"
#include "obs/chrome_trace.hpp"
#include "obs/critical_path.hpp"
#include "obs/flight_recorder.hpp"
#include "runtime/cluster.hpp"
#include "sim/experiment.hpp"
#include "sim/scenarios.hpp"

namespace lotec {
namespace {

/// One traced fig2-style run, shared by the causal-propagation tests (the
/// scenario is deterministic, so every test sees the identical forest).
ScenarioResult traced_fig2() {
  WorkloadSpec spec = scenarios::medium_high_contention();
  spec.num_transactions = 60;
  const Workload workload(spec);
  ExperimentOptions options;
  options.nodes = 8;
  options.trace_spans = true;
  return run_scenario(workload, ProtocolKind::kLotec, options);
}

TEST(CausalPropagationTest, ServeSpansInheritTheRequestersTraceViaLink) {
  const ScenarioResult r = traced_fig2();
  ASSERT_FALSE(r.spans.empty());

  std::map<std::uint64_t, const SpanRecord*> by_id;
  for (const SpanRecord& s : r.spans) by_id[s.id] = &s;

  std::size_t serve_spans = 0, linked = 0;
  for (const SpanRecord& s : r.spans) {
    if (s.phase != SpanPhase::kGdoServe && s.phase != SpanPhase::kPageServe)
      continue;
    ++serve_spans;
    // Remote-side work lives on the directory lane, never a family lane.
    EXPECT_EQ(s.family, 0u) << "serve span " << s.id;
    if (s.link == 0) continue;  // requester had no open span (reclaim paths)
    ++linked;
    const auto it = by_id.find(s.link);
    ASSERT_NE(it, by_id.end())
        << "serve span " << s.id << " links to unknown span " << s.link;
    // The causal edge carries the requesting family's trace across lanes.
    EXPECT_EQ(s.trace, it->second->trace) << "serve span " << s.id;
    EXPECT_NE(s.trace, 0u);
  }
  EXPECT_GT(serve_spans, 0u) << "fig2 run produced no gdo/page serve spans";
  EXPECT_GT(linked, 0u) << "no serve span carried a causal link";
}

TEST(CausalPropagationTest, EveryFamilyAttemptMintsAFreshTraceId) {
  const ScenarioResult r = traced_fig2();
  std::set<std::uint64_t> traces;
  std::size_t attempts = 0;
  for (const SpanRecord& s : r.spans) {
    if (s.phase != SpanPhase::kFamilyAttempt) continue;
    ++attempts;
    EXPECT_NE(s.trace, 0u);
    EXPECT_TRUE(traces.insert(s.trace).second)
        << "trace id " << s.trace << " reused across attempts";
  }
  ASSERT_GT(attempts, 0u);
  // Retries are separate causal domains: one trace id per attempt, so the
  // set is exactly as large as the attempt count.
  EXPECT_EQ(traces.size(), attempts);
}

TEST(CausalPropagationTest, MessagesCarryTheSendersContext) {
  const ScenarioResult r = traced_fig2();
  ASSERT_FALSE(r.messages.empty());

  std::set<std::uint64_t> family_traces;
  std::set<std::uint64_t> span_ids;
  for (const SpanRecord& s : r.spans) {
    if (s.trace != 0) family_traces.insert(s.trace);
    span_ids.insert(s.id);
  }

  std::size_t stamped = 0;
  for (const MessageRecord& m : r.messages) {
    if (m.trace == 0) continue;
    ++stamped;
    EXPECT_TRUE(family_traces.contains(m.trace))
        << m.kind << " message stamped with unknown trace " << m.trace;
    if (m.span != 0) {
      EXPECT_TRUE(span_ids.contains(m.span))
          << m.kind << " message stamped with unknown span " << m.span;
    }
  }
  EXPECT_GT(stamped, 0u) << "no message carried a causal stamp";
}

TEST(CriticalPathTest, PerPhaseSelfTimeSumsToTheRootsWallTime) {
  const ScenarioResult r = traced_fig2();
  const CriticalPath cp = analyze_critical_path(r.spans, r.messages);
  ASSERT_TRUE(cp.valid());
  EXPECT_GT(cp.wall_ticks, 0u);
  EXPECT_NE(cp.trace_id, 0u);

  // The attribution identity: self time across the causal tree accounts
  // for the root's whole wall time, no tick double-counted or lost.
  EXPECT_EQ(cp.phase_self_total(), cp.wall_ticks);

  // The blocking chain starts at the root attempt and only descends.
  ASSERT_FALSE(cp.chain.empty());
  EXPECT_EQ(cp.chain.front().phase, SpanPhase::kFamilyAttempt);
  EXPECT_EQ(cp.chain.front().id, cp.root);
  for (std::size_t i = 1; i < cp.chain.size(); ++i)
    EXPECT_LE(cp.chain[i].duration, cp.chain[i - 1].duration);

  // Message attribution found this trace's traffic.
  EXPECT_FALSE(cp.by_kind.empty());
}

TEST(CriticalPathTest, EmptyOrRootlessTraceIsInvalidNotUB) {
  EXPECT_FALSE(analyze_critical_path({}).valid());
  SpanRecord lone;
  lone.id = 1;
  lone.phase = SpanPhase::kLockAcquire;
  lone.begin = 1;
  lone.end = 5;
  EXPECT_FALSE(analyze_critical_path({lone}).valid());
}

TEST(SpanFaultTest, CrashesCloseAbandonedSpansAndRetriesGetFreshTraces) {
  WorkloadSpec spec = scenarios::medium_high_contention();
  spec.num_transactions = 50;
  const Workload workload(spec);

  ClusterConfig cfg;
  cfg.nodes = 6;
  cfg.gdo.replicate = true;
  cfg.fault = fault_presets::chaos(NodeId(1), NodeId(4), /*seed=*/7);
  cfg.obs.trace_spans = true;

  Cluster cluster(cfg);
  (void)cluster.execute(workload.instantiate(cluster));

  ClusterObservation obs = cluster.observe();
  ASSERT_NE(obs.fault_engine(), nullptr);
  EXPECT_GT(obs.fault_engine()->stats().crashes, 0u);

  // No orphan open spans: every lane (family and directory) unwound, even
  // through the crash/retry paths.
  EXPECT_EQ(obs.tracer().open_count(), 0u);

  const std::vector<SpanRecord> spans = obs.spans();
  ASSERT_FALSE(spans.empty());
  std::set<std::uint64_t> attempt_traces;
  std::size_t attempts = 0;
  for (const SpanRecord& s : spans) {
    EXPECT_LE(s.begin, s.end);
    if (s.phase == SpanPhase::kFamilyAttempt) {
      ++attempts;
      attempt_traces.insert(s.trace);
    }
  }
  // Fault retries mint fresh trace ids, exactly like deadlock retries.
  EXPECT_EQ(attempt_traces.size(), attempts);
  // The run actually exercised the fault paths.
  const auto counters = obs.metrics().counters();
  const auto it = counters.find("txn.fault_retries");
  EXPECT_TRUE(it != counters.end() && it->second > 0)
      << "chaos schedule caused no fault retries";
}

TEST(SpanFaultTest, MiniChaosSoakLeavesNoOpenSpans) {
  // A handful of seeded chaos runs: whatever the fault schedule does to the
  // span lanes, execute() returns with every span closed.
  WorkloadSpec spec = scenarios::medium_high_contention();
  spec.num_transactions = 25;
  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    const Workload workload(spec);
    ClusterConfig cfg;
    cfg.nodes = 5;
    cfg.gdo.replicate = true;
    cfg.fault = fault_presets::chaos(NodeId(2), NodeId(3), seed,
                                     /*first_crash_tick=*/40 + seed * 17,
                                     /*window=*/80, /*drop=*/0.02);
    cfg.obs.trace_spans = true;
    Cluster cluster(cfg);
    (void)cluster.execute(workload.instantiate(cluster));
    EXPECT_EQ(cluster.observe().tracer().open_count(), 0u)
        << "seed " << seed << " left open spans";
  }
}

TEST(FlightRecorderTest, RecordsMessagesEvenWithTracingOff) {
  WorkloadSpec spec = scenarios::medium_high_contention();
  spec.num_transactions = 20;
  const Workload workload(spec);
  ClusterConfig cfg;
  cfg.nodes = 4;
  // No obs.trace_spans: the recorder must be armed regardless.
  Cluster cluster(cfg);
  (void)cluster.execute(workload.instantiate(cluster));

  FlightRecorder* rec = cluster.observe().flight_recorder();
  ASSERT_NE(rec, nullptr);
  EXPECT_EQ(rec->num_nodes(), 4u);

  std::size_t message_events = 0;
  for (std::uint32_t n = 0; n < 4; ++n)
    for (const FlightEvent& e : rec->events(n))
      if (e.kind == FlightEvent::Kind::kMessage) ++message_events;
  EXPECT_GT(message_events, 0u);

  // And the tracer recorded nothing: spans stayed off.
  EXPECT_TRUE(cluster.observe().spans().empty());

  std::ostringstream os;
  rec->dump(os);
  EXPECT_TRUE(json_wellformed(os.str()));
}

TEST(FlightRecorderTest, CrashDumpIsPerfettoLoadableAndMarksTheVictim) {
  const std::string path = "flight_recorder_test_dump.json";
  std::remove(path.c_str());

  WorkloadSpec spec = scenarios::medium_high_contention();
  spec.num_transactions = 40;
  const Workload workload(spec);
  ClusterConfig cfg;
  cfg.nodes = 5;
  cfg.gdo.replicate = true;
  cfg.fault = fault_presets::chaos(NodeId(1), NodeId(3), /*seed=*/11);
  cfg.obs.trace_spans = true;  // span events land in the ring too
  cfg.obs.flight_dump = path;

  Cluster cluster(cfg);
  (void)cluster.execute(workload.instantiate(cluster));
  ASSERT_GT(cluster.observe().fault_engine()->stats().crashes, 0u);

  std::ifstream in(path);
  ASSERT_TRUE(in.good()) << "crash produced no flight dump at " << path;
  std::stringstream ss;
  ss << in.rdbuf();
  const std::string dump = ss.str();

  EXPECT_TRUE(json_wellformed(dump));
  EXPECT_NE(dump.find("\"traceEvents\""), std::string::npos);
  // The victim is called out and its crash marker is in the ring.
  EXPECT_NE(dump.find("CRASH"), std::string::npos);
  EXPECT_NE(dump.find("CRASH VICTIM"), std::string::npos);
  // Messages show up as instants ("msg <Kind>").
  EXPECT_NE(dump.find("msg "), std::string::npos);

  std::remove(path.c_str());
  // The second crash of the chaos schedule went to path.2 — clean that up
  // too (its existence is the uniquified-dump behaviour working).
  std::remove((path + ".2").c_str());
}

TEST(FlightRecorderTest, RingOverwritesOldestAndKeepsGlobalOrder) {
  FlightRecorder rec(/*nodes=*/2, /*capacity=*/4);
  TraceContext ctx;
  for (int i = 0; i < 10; ++i)
    rec.note_message("Ping", /*src=*/0, /*dst=*/0, SpanRecord::kNoObject,
                     /*bytes=*/64, ctx);
  const std::vector<FlightEvent> events = rec.events(0);
  ASSERT_EQ(events.size(), 4u);  // capacity bounds the ring
  for (std::size_t i = 1; i < events.size(); ++i)
    EXPECT_GT(events[i].seq, events[i - 1].seq);
  // The survivors are the NEWEST four.
  EXPECT_EQ(events.back().seq, 10u);
  EXPECT_TRUE(rec.events(1).empty());
}

}  // namespace
}  // namespace lotec
