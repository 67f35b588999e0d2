// Open-loop throughput harness: drives a configurable Zipfian transaction
// mix at a configurable offered arrival rate and reports sustained txn/s
// plus sojourn latency (p50/p99/p999, measured from each root's *scheduled*
// arrival — not its dispatch — so a saturated system shows queueing delay
// instead of hiding it, the classic coordinated-omission correction).
//
// Every mode runs twice, batching off and on, and the bench is the gate for
// the batching contract:
//   - the logical ledgers (per-kind messages/bytes, commits) must be
//     bit-identical across the knob — batching is physical-only;
//   - with the knob on, physical frame count must drop by at least
//     --min-savings (default 15%) on this mix.
// Either failure exits non-zero, so CI catches both a semantic leak and a
// batching path that silently stopped coalescing.
//
// Determinism: the logical schedule does not depend on wall time (pacing
// only sleeps between blocking execute() waves), so committed counts,
// traffic ledgers, and the span-histogram percentiles (logical ticks) are
// byte-identical across reruns — those are the fields the committed
// baseline in bench/baselines/ gates.  Wall-clock txn/s and microsecond
// latencies are reported but deliberately absent from the baseline.
//
//   throughput [--objects N] [--txns N] [--theta Z] [--arrival-rate R]
//              [--nodes N] [--seed S] [--distributed]
//              [--timeseries [--window MSGS] [--timeseries-jsonl PATH]]
//
// --timeseries installs the PROTOCOL.md §16 telemetry plane on the
// in-process rows: per-window txn / p50/p99/p999 rows land in the BenchJson,
// the window stream lands in --timeseries-jsonl (tail it with
// `lotec_top --jsonl`), and a population tail-attribution table decomposes
// every root attempt's sojourn into exclusive phase buckets (the bench
// fails if any attempt's buckets do not sum to its sojourn).
//
// --objects scales the object population (millions are fine: object state
// is materialised lazily per page, the directory is a flat map), --theta
// the Zipf skew, --arrival-rate the offered load in roots/sec (0 = unpaced,
// dispatch waves back to back).  --distributed adds wire-transport rows
// (real worker processes over Unix-domain sockets) when the lotec_worker
// binary is resolvable.
#include <algorithm>
#include <array>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <iostream>
#include <string>
#include <thread>
#include <vector>

#include "json_out.hpp"
#include "obs/metrics.hpp"
#include "obs/tail_attribution.hpp"
#include "obs/timeseries.hpp"
#include "runtime/cluster.hpp"
#include "wire/launcher.hpp"
#include "workload/generator.hpp"

using namespace lotec;

namespace {

struct Options {
  std::size_t objects = 2048;
  std::size_t txns = 300;
  double theta = 0.9;
  double arrival_rate = 0.0;  // roots/sec offered; 0 = unpaced
  std::size_t nodes = 8;
  std::uint64_t seed = 10;
  bool distributed = false;
  /// When positive, add a paired read-heavy row set: the same mix with this
  /// share of families submitted read-only, run with mv_read off and on
  /// (in-process, unbatched).  The base rows are unaffected — they always
  /// run at fraction 0 — so the committed baseline stays comparable.
  double read_fraction = 0.0;
  /// Acceptance floor for the batching rows: physical sends must come in
  /// at least this fraction below logical sends.  The default holds on the
  /// canonical Zipfian mix; exploratory runs (e.g. cold multi-million
  /// object populations dominated by unbatchable page fetches) can relax
  /// it with --min-savings.
  double min_savings = 0.15;
  /// Telemetry plane (PROTOCOL.md §16): install a TimeseriesCollector on
  /// the in-process runs, stream the inproc batch=off run's windows to
  /// --timeseries-jsonl, emit per-window BenchJson rows, and print a
  /// population tail-attribution table.  Off by default; the base rows are
  /// bit-identical either way (the collector never sends).
  bool timeseries = false;
  /// Logical window length in transport messages.
  std::uint64_t window = 2048;
  std::string timeseries_jsonl = "BENCH_throughput_timeseries.jsonl";
};

Options parse_args(int argc, char** argv) {
  Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) {
        std::cerr << arg << " needs a value\n";
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "--objects") opt.objects = std::stoull(value());
    else if (arg == "--txns") opt.txns = std::stoull(value());
    else if (arg == "--theta") opt.theta = std::stod(value());
    else if (arg == "--arrival-rate") opt.arrival_rate = std::stod(value());
    else if (arg == "--nodes") opt.nodes = std::stoull(value());
    else if (arg == "--seed") opt.seed = std::stoull(value());
    else if (arg == "--distributed") opt.distributed = true;
    else if (arg == "--read-fraction") opt.read_fraction = std::stod(value());
    else if (arg == "--min-savings") opt.min_savings = std::stod(value());
    else if (arg == "--timeseries") opt.timeseries = true;
    else if (arg == "--window") opt.window = std::stoull(value());
    else if (arg == "--timeseries-jsonl") opt.timeseries_jsonl = value();
    else {
      std::cerr << "unknown option " << arg << '\n';
      std::exit(2);
    }
  }
  return opt;
}

WorkloadSpec make_spec(const Options& opt) {
  WorkloadSpec spec;
  spec.num_objects = opt.objects;
  spec.num_transactions = opt.txns;
  spec.contention_theta = opt.theta;
  spec.min_pages = 1;
  spec.max_pages = 3;
  spec.max_depth = 3;
  spec.child_probability = 0.7;
  spec.max_children = 3;
  spec.seed = 404;
  return spec;
}

struct ModeOutcome {
  std::size_t committed = 0;
  TrafficCounter total;
  TrafficCounter physical;
  std::uint64_t joins = 0;
  std::uint64_t lock_messages = 0;
  std::uint64_t snapshot_reads = 0;
  double elapsed_seconds = 0;
  std::vector<double> sojourn_us;  // scheduled arrival -> completion
  // Logical-tick percentiles of the family.attempt span histogram:
  // deterministic, so these carry the latency shape into the baseline.
  double span_p50 = 0, span_p99 = 0, span_p999 = 0;
  // --timeseries extras (empty otherwise): closed windows plus the name
  // tables their vectors are parallel to, and the population tail
  // decomposition over every root attempt's spans.
  std::vector<TimeseriesWindow> windows;
  std::vector<std::string> window_counter_names;
  std::vector<std::string> window_histogram_names;
  TailAttribution tail;
};

double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double idx = p / 100.0 * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(idx));
  const auto hi = static_cast<std::size_t>(std::ceil(idx));
  return v[lo] + (v[hi] - v[lo]) * (idx - static_cast<double>(lo));
}

ModeOutcome run_mode(const Workload& workload, const Options& opt,
                     bool batching, bool wire, const std::string& worker_path,
                     double read_fraction = 0.0, bool mv_read = false,
                     bool telemetry = false,
                     const std::string& telemetry_jsonl = {}) {
  ClusterConfig cfg;
  cfg.nodes = opt.nodes;
  cfg.seed = opt.seed;
  cfg.gdo.replicate = true;  // the paper's GDO is replicated; gives the
                             // release rounds replica-sync fan-out to batch
  cfg.net.batch_messages = batching;
  cfg.obs.trace_spans = true;
  cfg.wire.enabled = wire;
  cfg.wire.worker_path = worker_path;
  cfg.mv_read = mv_read;
  if (telemetry) {
    cfg.obs.timeseries = true;
    cfg.obs.timeseries_interval = opt.window;
    cfg.obs.timeseries_jsonl = telemetry_jsonl;
  }

  Cluster cluster(cfg);
  std::vector<RootRequest> requests =
      workload.instantiate(cluster, read_fraction);

  // Open-loop dispatch: roots arrive at t_i = i / rate; they are admitted
  // in waves of max_active_families so the scheduler keeps its usual
  // concurrency, and each wave is dispatched no earlier than its last
  // root's arrival time, so no root is served before it arrives.  The wave
  // partition is time-independent, so the logical schedule (and all gated
  // counters) never depends on the pacing.
  const std::size_t wave = std::max<std::size_t>(1, cfg.max_active_families);
  ModeOutcome out;
  out.sojourn_us.reserve(requests.size());

  const auto bench_start = std::chrono::steady_clock::now();
  for (std::size_t begin = 0; begin < requests.size(); begin += wave) {
    const std::size_t end = std::min(begin + wave, requests.size());
    if (opt.arrival_rate > 0) {
      const double due_s = static_cast<double>(end - 1) / opt.arrival_rate;
      const auto due = bench_start + std::chrono::duration_cast<
                                         std::chrono::steady_clock::duration>(
                                         std::chrono::duration<double>(due_s));
      std::this_thread::sleep_until(due);
    }
    std::vector<RootRequest> batch(requests.begin() + begin,
                                   requests.begin() + end);
    const std::vector<TxnResult> results = cluster.execute(std::move(batch));
    const auto done = std::chrono::steady_clock::now();
    for (std::size_t i = 0; i < results.size(); ++i) {
      out.committed += results[i].committed ? 1 : 0;
      const double arrival_s =
          opt.arrival_rate > 0
              ? static_cast<double>(begin + i) / opt.arrival_rate
              : 0.0;
      const double sojourn =
          std::chrono::duration<double, std::micro>(done - bench_start)
              .count() -
          arrival_s * 1e6;
      out.sojourn_us.push_back(sojourn);
    }
  }
  out.elapsed_seconds = std::chrono::duration<double>(
                            std::chrono::steady_clock::now() - bench_start)
                            .count();

  out.total = cluster.stats().total();
  out.physical = cluster.stats().physical();
  out.joins = cluster.stats().batched_joins();
  for (const MessageKind k :
       {MessageKind::kLockAcquireRequest, MessageKind::kLockAcquireGrant,
        MessageKind::kLockReleaseRequest, MessageKind::kLockCallback,
        MessageKind::kCallbackReply})
    out.lock_messages += cluster.stats().by_kind(k).messages;
  out.snapshot_reads = cluster.observe().metrics().value("snapshot.reads");
  const HistogramSnapshot hist =
      cluster.observe().metrics().histogram("span.family.attempt").snapshot();
  out.span_p50 = hist.percentile(50);
  out.span_p99 = hist.percentile(99);
  out.span_p999 = hist.percentile(99.9);
  if (telemetry) {
    if (TimeseriesCollector* ts = cluster.observe().timeseries()) {
      ts->close_window();  // flush the trailing partial window
      out.windows = ts->windows();
      out.window_counter_names = ts->counter_names();
      out.window_histogram_names = ts->histogram_names();
    }
    out.tail = analyze_tail_attribution(cluster.observe().spans());
  }
  return out;
}

void emit_row(bench::BenchJson& json, const std::string& label,
              const ModeOutcome& m) {
  json.row(label)
      .field("committed", static_cast<std::uint64_t>(m.committed))
      .field("messages", m.total.messages)
      .field("bytes", m.total.bytes)
      .field("physical_messages", m.physical.messages)
      .field("physical_bytes", m.physical.bytes)
      .field("batched_joins", m.joins)
      .field("span_attempt_p50_ticks", m.span_p50)
      .field("span_attempt_p99_ticks", m.span_p99)
      .field("span_attempt_p999_ticks", m.span_p999)
      .field("txn_per_sec", m.elapsed_seconds > 0
                                ? static_cast<double>(m.committed) /
                                      m.elapsed_seconds
                                : 0.0)
      .field("sojourn_p50_us", percentile(m.sojourn_us, 50))
      .field("sojourn_p99_us", percentile(m.sojourn_us, 99))
      .field("sojourn_p999_us", percentile(m.sojourn_us, 99.9));
}

/// Per-window BenchJson rows ("window_<k>"): per-window txn count is the
/// txn.commits delta, the latency shape the family.attempt window
/// percentiles.  These are the rows bench_check diffs with per-file
/// tolerance when a baseline lists them.
void emit_window_rows(bench::BenchJson& json, const ModeOutcome& m) {
  auto index_of = [](const std::vector<std::string>& names,
                     const std::string& want) -> std::ptrdiff_t {
    const auto it = std::find(names.begin(), names.end(), want);
    return it == names.end() ? -1 : it - names.begin();
  };
  const std::ptrdiff_t commits =
      index_of(m.window_counter_names, "txn.commits");
  const std::ptrdiff_t sends =
      index_of(m.window_counter_names, "net.logical_sends");
  const std::ptrdiff_t attempt =
      index_of(m.window_histogram_names, "span.family.attempt");
  for (const TimeseriesWindow& w : m.windows) {
    json.row("window_" + std::to_string(w.index))
        .field("open_tick", w.open_tick)
        .field("close_tick", w.close_tick);
    if (commits >= 0)
      json.field("txn", w.counter_deltas[static_cast<std::size_t>(commits)]);
    if (sends >= 0)
      json.field("logical_sends",
                 w.counter_deltas[static_cast<std::size_t>(sends)]);
    if (attempt >= 0) {
      const WindowHistogram& h =
          w.hist_deltas[static_cast<std::size_t>(attempt)];
      json.field("attempts", h.count)
          .field("p50_ticks", h.percentile(50))
          .field("p99_ticks", h.percentile(99))
          .field("p999_ticks", h.percentile(99.9));
    }
  }
}

/// Tail-attribution table + BenchJson rows, and the §16 identity check:
/// every attempt's phase buckets must sum to its sojourn ticks exactly.
int emit_tail(bench::BenchJson& json, const ModeOutcome& m) {
  int failures = 0;
  for (const AttemptAttribution& a : m.tail.attempts) {
    std::uint64_t sum = 0;
    for (const std::uint64_t b : a.buckets) sum += b;
    if (sum != a.sojourn) {
      std::cerr << "FAIL [tail]: attempt " << a.root << " buckets sum to "
                << sum << " but sojourn is " << a.sojourn << " ticks\n";
      ++failures;
      break;
    }
  }
  write_tail_attribution(m.tail, std::cout);
  for (const TailBand& band : m.tail.bands) {
    json.row("tail_" + std::string(band.label))
        .field("attempts", band.attempts)
        .field("sojourn_ticks", band.sojourn);
    for (std::size_t k = 0; k < kNumTailBuckets; ++k)
      json.field(std::string(to_string(static_cast<TailBucket>(k))) + "_ticks",
                 band.buckets[k]);
  }
  return failures;
}

/// Print one mode's summary line.  Returns 1 when a sojourn is negative (a
/// root finished before its scheduled arrival: the pacing is broken), else 0.
int report(const std::string& label, const ModeOutcome& m) {
  std::cout << label << ": " << m.committed << " committed in "
            << m.elapsed_seconds << " s ("
            << (m.elapsed_seconds > 0 ? m.committed / m.elapsed_seconds : 0)
            << " txn/s), " << m.total.messages << " logical msgs, "
            << m.physical.messages << " physical frames, " << m.joins
            << " joins, sojourn p50/p99/p999 = "
            << percentile(m.sojourn_us, 50) << "/"
            << percentile(m.sojourn_us, 99) << "/"
            << percentile(m.sojourn_us, 99.9) << " us\n";
  const double earliest =
      m.sojourn_us.empty()
          ? 0.0
          : *std::min_element(m.sojourn_us.begin(), m.sojourn_us.end());
  if (earliest >= 0.0) return 0;
  std::cerr << "FAIL [" << label << "]: a root finished " << -earliest
            << " us before its scheduled arrival (negative sojourn)\n";
  return 1;
}

/// The batching contract, checked per transport.  Returns the number of
/// violations (0 = clean).
int check_pair(const std::string& transport, const ModeOutcome& off,
               const ModeOutcome& on, double min_savings) {
  int failures = 0;
  if (on.committed != off.committed || on.total.messages != off.total.messages ||
      on.total.bytes != off.total.bytes) {
    std::cerr << "FAIL [" << transport << "]: logical ledger changed with "
              << "batching on: " << off.committed << "/" << off.total.messages
              << "/" << off.total.bytes << " vs " << on.committed << "/"
              << on.total.messages << "/" << on.total.bytes << '\n';
    ++failures;
  }
  if (off.joins != 0 || off.physical.messages != off.total.messages) {
    std::cerr << "FAIL [" << transport << "]: knob off but physical ledger "
              << "diverged from logical\n";
    ++failures;
  }
  const double savings =
      on.total.messages > 0
          ? 1.0 - static_cast<double>(on.physical.messages) /
                      static_cast<double>(on.total.messages)
          : 0.0;
  if (savings < min_savings) {
    std::cerr << "FAIL [" << transport << "]: batching saved only "
              << savings * 100.0 << "% of sends (< "
              << min_savings * 100.0 << "% floor): "
              << on.physical.messages << " frames for " << on.total.messages
              << " logical messages\n";
    ++failures;
  } else {
    std::cout << transport << ": batching saved " << savings * 100.0
              << "% of physical sends (" << on.total.messages << " -> "
              << on.physical.messages << " frames)\n";
  }
  return failures;
}

}  // namespace

int main(int argc, char** argv) {
  const Options opt = parse_args(argc, argv);
  const Workload workload(make_spec(opt));

  const ModeOutcome off =
      run_mode(workload, opt, false, false, "", 0.0, false, opt.timeseries,
               opt.timeseries ? opt.timeseries_jsonl : std::string());
  int failures = report("inproc batch=off", off);
  const ModeOutcome on = run_mode(workload, opt, true, false, "", 0.0, false,
                                  opt.timeseries);
  failures += report("inproc batch=on ", on);

  failures += check_pair("inproc", off, on, opt.min_savings);

  bench::BenchJson json("throughput");
  emit_row(json, "inproc_batch_off", off);
  emit_row(json, "inproc_batch_on", on);

  if (opt.timeseries) {
    std::cout << "timeseries: " << off.windows.size() << " windows of "
              << opt.window << " msgs -> " << opt.timeseries_jsonl << '\n';
    emit_window_rows(json, off);
    failures += emit_tail(json, off);
  }

  bool wire_ran = false;
  if (opt.distributed) {
    std::string worker_path;
    try {
      worker_path = wire::find_worker_binary(WireConfig{});
    } catch (const Error& e) {
      std::cout << "wire rows skipped: " << e.what() << '\n';
    }
    if (!worker_path.empty()) {
      const ModeOutcome woff = run_mode(workload, opt, false, true,
                                        worker_path);
      failures += report("wire   batch=off", woff);
      const ModeOutcome won = run_mode(workload, opt, true, true,
                                       worker_path);
      failures += report("wire   batch=on ", won);
      failures += check_pair("wire", woff, won, opt.min_savings);
      // The wire transport must account the same logical traffic as the
      // in-process one — the walltime bench's cross-transport gate, upheld
      // here too.
      if (woff.total.messages != off.total.messages ||
          woff.total.bytes != off.total.bytes) {
        std::cerr << "FAIL: accounted traffic diverged between transports\n";
        ++failures;
      }
      emit_row(json, "wire_batch_off", woff);
      emit_row(json, "wire_batch_on", won);
      wire_ran = true;
    }
  }
  if (opt.read_fraction > 0.0) {
    // Read-heavy pair: the same mix with a read-only population, lock path
    // vs snapshot path.  Gated on the snapshot contract, not on batching:
    // same outcomes, strictly less lock traffic, snapshot reads happening.
    const ModeOutcome roff = run_mode(workload, opt, false, false, "",
                                      opt.read_fraction, /*mv_read=*/false);
    failures += report("readfrac mv=off ", roff);
    const ModeOutcome ron = run_mode(workload, opt, false, false, "",
                                     opt.read_fraction, /*mv_read=*/true);
    failures += report("readfrac mv=on  ", ron);
    if (ron.committed != roff.committed) {
      std::cerr << "FAIL [readfrac]: mv_read changed outcomes ("
                << ron.committed << " vs " << roff.committed << ")\n";
      ++failures;
    }
    if (ron.snapshot_reads == 0 || ron.lock_messages >= roff.lock_messages) {
      std::cerr << "FAIL [readfrac]: snapshot path inactive or lock traffic "
                << "not reduced (" << ron.snapshot_reads << " snapshot reads, "
                << ron.lock_messages << " vs " << roff.lock_messages
                << " lock messages)\n";
      ++failures;
    }
    emit_row(json, "readfrac_mv_off", roff);
    emit_row(json, "readfrac_mv_on", ron);
    json.row("readfrac_meta")
        .field("read_fraction", opt.read_fraction)
        .field("lock_messages_off", roff.lock_messages)
        .field("lock_messages_on", ron.lock_messages)
        .field("snapshot_reads", ron.snapshot_reads);
  }

  json.row("meta")
      .field("objects", static_cast<std::uint64_t>(opt.objects))
      .field("txns", static_cast<std::uint64_t>(opt.txns))
      .field("theta", opt.theta)
      .field("arrival_rate", opt.arrival_rate)
      .field("wire_ran", static_cast<std::uint64_t>(wire_ran ? 1 : 0));
  json.write();
  return failures == 0 ? 0 : 1;
}
