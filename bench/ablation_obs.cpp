// Observability zero-overhead ablation: the fig2 scenario run with span
// tracing ON must produce byte-identical message traffic to the same run
// with tracing OFF — the tracer reads the logical clock and buffers span
// records but never sends a message or perturbs the schedule.  Exits
// non-zero on any divergence, so CI can gate on it.
//
// PR 10 adds the telemetry-plane gate (PROTOCOL.md §16): a run with the
// timeseries collector installed must ALSO be bit-identical (trace,
// accounted messages/bytes, full counter snapshot) and must cost < 2%
// wall clock over the untelemetered baseline.
#include <algorithm>
#include <chrono>
#include <iostream>
#include <map>

#include "json_out.hpp"
#include "obs/chrome_trace.hpp"
#include "obs/critical_path.hpp"
#include "sim/experiment.hpp"
#include "sim/report.hpp"
#include "sim/scenarios.hpp"

using namespace lotec;

namespace {

/// Spans nest properly per (node, family) lane: every parent id closes at
/// or after its children and interval spans have end >= begin.
bool spans_well_formed(const std::vector<SpanRecord>& spans) {
  std::map<std::uint64_t, const SpanRecord*> by_id;
  for (const SpanRecord& s : spans) {
    if (s.end < s.begin) {
      std::cerr << "FAIL: span " << s.id << " ends before it begins\n";
      return false;
    }
    by_id[s.id] = &s;
  }
  for (const SpanRecord& s : spans) {
    if (s.parent == 0) continue;
    const auto it = by_id.find(s.parent);
    if (it == by_id.end()) {
      std::cerr << "FAIL: span " << s.id << " has unknown parent "
                << s.parent << "\n";
      return false;
    }
    const SpanRecord& p = *it->second;
    if (s.begin < p.begin || s.end > p.end) {
      std::cerr << "FAIL: span " << s.id << " [" << s.begin << "," << s.end
                << "] escapes parent " << p.id << " [" << p.begin << ","
                << p.end << "]\n";
      return false;
    }
  }
  return true;
}

}  // namespace

int main() {
  const Workload workload(scenarios::medium_high_contention());

  ExperimentOptions off;
  off.record_trace = true;
  ExperimentOptions on = off;
  on.cluster.obs.trace_spans = true;

  print_section(
      "Observability ablation: traced vs untraced fig2 run (LOTEC)");
  const ScenarioResult plain =
      run_scenario(workload, ProtocolKind::kLotec, off);
  const ScenarioResult traced =
      run_scenario(workload, ProtocolKind::kLotec, on);

  Table table({"Variant", "Messages", "Bytes", "Committed", "Spans"});
  table.row({"tracing off", fmt_u64(plain.total.messages),
             fmt_u64(plain.total.bytes), fmt_u64(plain.committed),
             fmt_u64(plain.spans.size())});
  table.row({"tracing on", fmt_u64(traced.total.messages),
             fmt_u64(traced.total.bytes), fmt_u64(traced.committed),
             fmt_u64(traced.spans.size())});
  table.print();

  bool ok = true;
  if (plain.trace != traced.trace) {
    std::cerr << "FAIL: span tracing changed the message trace ("
              << plain.trace.size() << " vs " << traced.trace.size()
              << " events)\n";
    ok = false;
  }
  // The causal-propagation sub-gate: the TraceContext header rides in the
  // fixed frame's padding, so the traced run must cost exactly zero extra
  // messages and zero extra accounted bytes — and the untraced run carries
  // no header at all (its trace above is the seed-identical baseline).
  const std::uint64_t extra_messages =
      traced.total.messages - plain.total.messages;
  const std::uint64_t extra_bytes = traced.total.bytes - plain.total.bytes;
  if (extra_messages != 0 || extra_bytes != 0) {
    std::cerr << "FAIL: causal header cost " << extra_messages
              << " extra messages / " << extra_bytes << " extra bytes\n";
    ok = false;
  }
  if (traced.spans.empty()) {
    std::cerr << "FAIL: traced run recorded no spans\n";
    ok = false;
  } else if (!spans_well_formed(traced.spans)) {
    ok = false;
  }

  // Critical-path analysis over the traced run's causal DAG: the per-phase
  // self times must account for (nearly) all of the slowest root family's
  // wall time.
  const CriticalPath cp =
      analyze_critical_path(traced.spans, traced.messages);
  if (!cp.valid()) {
    std::cerr << "FAIL: no family.attempt span to analyze\n";
    ok = false;
  } else {
    std::cout << "\ncritical path: family " << cp.family << " on node "
              << cp.node << ", wall " << cp.wall_ticks << " ticks, self-time "
              << cp.phase_self_total() << " ticks, chain depth "
              << cp.chain.size() << "\n";
    if (cp.phase_self_total() > cp.wall_ticks) {
      std::cerr << "FAIL: critical-path self time ("
                << cp.phase_self_total() << ") exceeds wall time ("
                << cp.wall_ticks << ")\n";
      ok = false;
    }
  }

  // Telemetry-plane gate (§16): the timeseries collector counts transport
  // messages and snapshots the registry at window boundaries, but it never
  // sends a message, never registers a metric of its own, and never
  // perturbs the schedule — so a collector-on run must reproduce the
  // baseline bit for bit: same message trace, same accounted totals, same
  // end-of-run counter snapshot.
  print_section("Telemetry plane: timeseries collector on vs off");
  ExperimentOptions tson = off;
  tson.cluster.obs.timeseries = true;
  tson.cluster.obs.timeseries_interval = 128;
  const ScenarioResult tsrun =
      run_scenario(workload, ProtocolKind::kLotec, tson);
  if (plain.trace != tsrun.trace) {
    std::cerr << "FAIL: the timeseries collector changed the message trace ("
              << plain.trace.size() << " vs " << tsrun.trace.size()
              << " events)\n";
    ok = false;
  }
  const std::uint64_t ts_extra_messages =
      tsrun.total.messages - plain.total.messages;
  const std::uint64_t ts_extra_bytes = tsrun.total.bytes - plain.total.bytes;
  if (ts_extra_messages != 0 || ts_extra_bytes != 0) {
    std::cerr << "FAIL: timeseries cost " << ts_extra_messages
              << " extra messages / " << ts_extra_bytes << " extra bytes\n";
    ok = false;
  }
  if (plain.counters != tsrun.counters) {
    std::cerr << "FAIL: the timeseries collector perturbed the counter "
                 "snapshot\n";
    ok = false;
  }

  // Wall-clock overhead: alternate paired runs and compare the best (the
  // minimum is the noise-robust estimator — every slowdown source is
  // additive).  The gate is < 2% relative with a 10 ms absolute floor:
  // run-to-run jitter on the ~100 ms fig2 scenario reaches several ms even
  // on minimums, while a genuine per-message hook regression scales with
  // all ~11k messages and clears the floor easily.  A noise burst (CPU
  // frequency shift, a background daemon) can outlast one whole measurement
  // pass, so a tripped gate is remeasured from scratch — only an overhead
  // that persists across every attempt fails.
  const auto wall_seconds = [&](const ExperimentOptions& o) {
    const auto t0 = std::chrono::steady_clock::now();
    (void)run_scenario(workload, ProtocolKind::kLotec, o);
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         t0)
        .count();
  };
  const auto measure = [&] {
    double off_best = wall_seconds(off), on_best = wall_seconds(tson);
    for (int rep = 0; rep < 6; ++rep) {
      off_best = std::min(off_best, wall_seconds(off));
      on_best = std::min(on_best, wall_seconds(tson));
    }
    return std::pair(off_best, on_best);
  };
  const auto tripped = [](double off_s, double on_s) {
    return on_s > off_s * 1.02 && on_s - off_s > 0.010;
  };
  auto [off_best, on_best] = measure();
  for (int retry = 0; retry < 2 && tripped(off_best, on_best); ++retry)
    std::tie(off_best, on_best) = measure();
  const double overhead = on_best / off_best - 1.0;
  std::cout << "timeseries wall clock: off " << off_best * 1e3 << " ms, on "
            << on_best * 1e3 << " ms (" << overhead * 100.0
            << "% overhead, gate < 2%)\n";
  if (tripped(off_best, on_best)) {
    std::cerr << "FAIL: timeseries overhead " << overhead * 100.0
              << "% exceeds the 2% budget\n";
    ok = false;
  }

  bench::BenchJson json("ablation_obs");
  json.row("LOTEC")
      .field("messages", plain.total.messages)
      .field("bytes", plain.total.bytes)
      .field("spans", traced.spans.size())
      .field("trace_identical",
             std::uint64_t(plain.trace == traced.trace ? 1 : 0))
      .field("causal_header_extra_messages", extra_messages)
      .field("causal_header_extra_bytes", extra_bytes)
      .field("critical_path_wall_ticks", cp.wall_ticks)
      .field("critical_path_self_ticks", cp.phase_self_total())
      .field("critical_path_chain_depth",
             static_cast<std::uint64_t>(cp.chain.size()))
      .field("timeseries_trace_identical",
             std::uint64_t(plain.trace == tsrun.trace ? 1 : 0))
      .field("timeseries_extra_messages", ts_extra_messages)
      .field("timeseries_extra_bytes", ts_extra_bytes)
      .counters(traced.counters);
  json.write();

  std::cout << "\nbit-identity: "
            << (plain.trace == traced.trace ? "byte-identical traffic"
                                            : "MISMATCH")
            << "; causal header +" << extra_messages << " msgs / +"
            << extra_bytes << " bytes; " << traced.spans.size()
            << " spans recorded\n";
  return ok ? 0 : 1;
}
