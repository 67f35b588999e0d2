// soak: long-running randomized stress with invariant validation.
//
// Each iteration generates a fresh random workload (random geometry,
// contention, abort injection, protocol, cache budget), runs it,
// and validates the quiescent-state invariants plus cross-protocol final-
// state equivalence.  Any violation aborts with a reproduction line.
//
// With --faults each iteration additionally runs a randomized seeded fault
// schedule (crash + restart of two sites, a partition window, background
// message chaos) through the deterministic fault engine and checks the same
// invariants after recovery.
//
//   soak [iterations=50] [base-seed=1] [--faults] [--only N]
//        [--flight-dump PREFIX] [--transport=wire [--socket-dir DIR]]
//
// --transport=wire runs every iteration on the cross-process wire
// transport (src/wire): one lotec_worker OS process per node.  Chaos is
// restricted to crash/restart (and partitions) — worker processes really
// get SIGKILLed and respawned — and each faulted iteration asserts the
// transport observed matching kill/respawn counts, i.e. worker-death
// recovery actually exercised the process lifecycle.
//
// --only N draws every iteration's configuration (keeping the random
// stream identical) but executes only iteration N — cheap reproduction of
// a failure report.
//
// --flight-dump PREFIX arms the always-on flight recorder: every crash
// event of iteration i dumps a Perfetto-loadable post-mortem to
// PREFIX.<i>.json (CI uploads these when a soak fails).
//
// Exit codes: 0 every iteration clean, 1 an iteration failed, 2 usage
// error (unknown flag, non-numeric count/seed/--only, extra argument).
#include <algorithm>
#include <cctype>
#include <cerrno>
#include <climits>
#include <cstdlib>
#include <iostream>
#include <string>

#include "sim/validate.hpp"
#include "wire/wire_transport.hpp"
#include "workload/generator.hpp"

using namespace lotec;

namespace {

struct Draw {
  WorkloadSpec spec;
  ClusterConfig cfg;
  double read_only_fraction = 0.0;
};

/// Chaos-mode draws.  Every family must survive long enough to see the
/// restart (bounded retry budget stays the default); the cluster itself
/// replicates the directory for node faults.
void add_random_faults(Draw& d, Rng& rng) {
  const auto node = [&] {
    return NodeId(static_cast<std::uint32_t>(rng.below(d.cfg.nodes)));
  };
  const NodeId first = node();
  NodeId second = node();
  if (second == first)
    second = NodeId((first.value() + 1) % d.cfg.nodes);
  d.cfg.fault = fault_presets::chaos(first, second, rng.next(),
                                     /*first_crash_tick=*/30 + rng.below(80),
                                     /*window=*/60 + rng.below(120),
                                     /*drop=*/rng.uniform() * 0.03);
  if (rng.chance(0.4)) {
    const std::uint64_t start = 20 + rng.below(100);
    FaultConfig cut = fault_presets::partition_window(
        {node()}, {node()}, start, start + 20 + rng.below(60));
    // A node may not partition against itself; redraw collisions cheaply by
    // skipping the window for this iteration.
    if (cut.events[0].group_a[0] != cut.events[0].group_b[0])
      d.cfg.fault.events.insert(d.cfg.fault.events.end(),
                                cut.events.begin(), cut.events.end());
  }
  d.cfg.fault.duplicate_probability = rng.uniform() * 0.02;
  d.cfg.fault.delay_probability = rng.uniform() * 0.05;
  // Snapshot reads sit out fault runs (read-only families still ride the
  // ordinary lock path under read_only_fraction).
  d.cfg.mv_read = false;
}

Draw random_setup(Rng& rng) {
  Draw d;
  d.spec.num_objects = 4 + rng.below(20);
  d.spec.min_pages = 1 + rng.below(3);
  d.spec.max_pages = d.spec.min_pages + rng.below(8);
  d.spec.num_transactions = 30 + rng.below(120);
  d.spec.contention_theta = rng.uniform() * 1.1;
  d.spec.touched_attr_fraction = 0.15 + rng.uniform() * 0.5;
  d.spec.write_fraction = 0.3 + rng.uniform() * 0.6;
  d.spec.read_method_fraction = rng.uniform() * 0.4;
  d.spec.max_depth = 1 + rng.below(4);
  d.spec.child_probability = rng.uniform() * 0.6;
  d.spec.abort_probability = rng.chance(0.4) ? rng.uniform() * 0.3 : 0.0;
  d.spec.prediction_coverage = rng.chance(0.3) ? 0.4 + rng.uniform() * 0.6
                                               : 1.0;
  d.spec.hierarchical_targets = !rng.chance(0.2);
  d.spec.seed = rng.next();

  d.cfg.nodes = 2 + rng.below(7);
  d.cfg.page_size = 256u << rng.below(3);  // 256 / 512 / 1024
  d.cfg.seed = rng.next();
  d.cfg.undo = rng.chance(0.5) ? UndoStrategy::kByteRange
                               : UndoStrategy::kShadowPage;
  d.cfg.cache_capacity_pages = rng.chance(0.25) ? 4 + rng.below(24) : 0;
  d.cfg.gdo.replicate = rng.chance(0.3);
  d.cfg.gdo.fair_readers = rng.chance(0.3);
  static const ProtocolKind kinds[] = {
      ProtocolKind::kCotec, ProtocolKind::kOtec, ProtocolKind::kLotec,
      ProtocolKind::kRc, ProtocolKind::kLotecDsd};
  d.cfg.protocol = kinds[rng.below(5)];
  // Sticky lock caching rides along in a third of the runs.
  const bool want_lock_cache = rng.chance(0.3);
  const std::size_t cache_cap = 1 + rng.below(8);
  if (want_lock_cache) {
    // A capacity without the cache is no longer silently inert — Cluster
    // construction rejects it — so the capacity draw only lands when the
    // cache itself is on (drawn regardless, so the stream stays identical).
    d.cfg.lock_cache = true;
    d.cfg.lock_cache_capacity = cache_cap;
  }
  // Read-intent and snapshot reads: a third of the runs submit a share of
  // their families as declared read-only; mv_read additionally rides along
  // when the drawn config supports it (no lock cache — fault and wire modes
  // strip it again below).  Everything drawn before gating so the stream
  // stays identical across modes.
  const bool want_read_only = rng.chance(0.35);
  const double read_only_fraction = 0.2 + rng.uniform() * 0.6;
  const bool want_mv = rng.chance(0.6);
  const std::size_t ring_depth = 2 + rng.below(6);
  if (want_read_only) {
    d.read_only_fraction = read_only_fraction;
    if (want_mv && !d.cfg.lock_cache) {
      d.cfg.mv_read = true;
      d.cfg.mv_version_ring = ring_depth;
    }
  }
  return d;
}

/// Constrain one drawn iteration to what the wire transport supports: no
/// message chaos (drop/duplicate/delay), no drop events — crash/restart and partitions stay, as real process kills.
/// Applied AFTER the draws so the random stream is identical with and
/// without --transport=wire.
void constrain_for_wire(Draw& d) {
  d.cfg.wire.enabled = true;
  d.cfg.fault.drop_probability = 0.0;
  d.cfg.fault.duplicate_probability = 0.0;
  d.cfg.fault.delay_probability = 0.0;
  std::erase_if(d.cfg.fault.events, [](const FaultEvent& e) {
    return e.action == FaultAction::kDropMessage;
  });
  d.cfg.mv_read = false;  // snapshot fetches are not wired yet
}

/// The whole of `text` as an unsigned integer, read like strtoull with
/// base 0 (decimal, 0x hex); no sign, no surrounding space.
bool parse_unsigned(const char* text, std::uint64_t& out) {
  if (!std::isdigit(static_cast<unsigned char>(text[0]))) return false;
  char* end = nullptr;
  errno = 0;
  out = std::strtoull(text, &end, 0);
  return *end == '\0' && errno == 0;
}

bool parse_int(const char* text, int& out) {
  std::uint64_t v = 0;
  if (!parse_unsigned(text, v) || v > static_cast<std::uint64_t>(INT_MAX))
    return false;
  out = static_cast<int>(v);
  return true;
}

int usage(const std::string& why) {
  std::cerr << "soak: " << why << "\n"
            << "usage: soak [iterations=50] [base-seed=1] [--faults] "
               "[--only N]\n"
               "            [--flight-dump PREFIX] [--transport=wire "
               "[--socket-dir DIR]]\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  bool with_faults = false;
  bool wire_transport = false;
  int only = -1;
  std::string flight_prefix;
  std::string socket_dir;
  int iterations = 50;
  std::uint64_t base_seed = 1;
  int positional = 0;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const bool has_value = i + 1 < argc;
    if (arg == "--faults") {
      with_faults = true;
    } else if (arg == "--transport=wire") {
      wire_transport = true;
    } else if (arg == "--only" && has_value) {
      if (!parse_int(argv[++i], only))
        return usage("--only needs an iteration number, got '" +
                     std::string(argv[i]) + "'");
    } else if (arg == "--flight-dump" && has_value) {
      flight_prefix = argv[++i];
    } else if (arg == "--socket-dir" && has_value) {
      socket_dir = argv[++i];
    } else if (arg.rfind("-", 0) == 0) {
      return usage("unknown flag or missing value: " + arg);
    } else if (positional == 0) {
      if (!parse_int(argv[i], iterations))
        return usage("iterations must be a number, got '" + arg + "'");
      ++positional;
    } else if (positional == 1) {
      if (!parse_unsigned(argv[i], base_seed))
        return usage("base-seed must be a number, got '" + arg + "'");
      ++positional;
    } else {
      return usage("unexpected argument '" + arg + "'");
    }
  }
  Rng rng(base_seed);

  for (int i = 0; i < iterations; ++i) {
    Draw d = random_setup(rng);
    if (with_faults) add_random_faults(d, rng);
    if (wire_transport) {
      constrain_for_wire(d);
      // Pin the worker sockets so `lotec_top --dir <dir> --nodes N` can
      // scrape this soak live (PROTOCOL.md §16); a fresh temp dir per
      // iteration would leave the watcher nothing stable to connect to.
      d.cfg.wire.socket_dir = socket_dir;
    }
    if (only >= 0 && i != only) continue;
    if (!flight_prefix.empty())
      d.cfg.obs.flight_dump = flight_prefix + "." + std::to_string(i) + ".json";
    try {
      const Workload workload(d.spec);
      Cluster cluster(d.cfg);
      const auto results =
          cluster.execute(workload.instantiate(cluster, d.read_only_fraction));
      std::size_t committed = 0, exhausted = 0, node_failed = 0;
      std::uint64_t fault_retries = 0;
      for (const auto& r : results) {
        if (r.committed) ++committed;
        else if (r.reason == AbortReason::kRetryExhausted) ++exhausted;
        else if (r.reason == AbortReason::kNodeFailure) ++node_failed;
        fault_retries += static_cast<std::uint64_t>(r.fault_retries);
      }
      const auto violations = validate_quiescent(cluster);
      if (!violations.empty()) {
        std::cerr << "iteration " << i << " FAILED (workload seed "
                  << d.spec.seed << ", cluster seed " << d.cfg.seed
                  << ", protocol " << to_string(d.cfg.protocol) << "):\n";
        for (const auto& v : violations) std::cerr << "  " << v << "\n";
        return 1;
      }
      std::cout << "iter " << i << ": " << to_string(d.cfg.protocol) << " "
                << d.spec.num_transactions << " txns on " << d.cfg.nodes
                << " nodes -> " << committed << " committed";
      if (exhausted) std::cout << ", " << exhausted << " retry-exhausted";
      if (node_failed) std::cout << ", " << node_failed << " node-failure";
      if (with_faults) {
        const FaultStats fs = cluster.observe().fault_engine()->stats();
        std::cout << " [faults: " << fs.crashes << " crashes, " << fs.dropped
                  << " dropped, " << fault_retries << " retries, "
                  << fs.locks_reclaimed << " leases reclaimed, "
                  << fs.pages_restored << " pages restored]";
        if (wire_transport) {
          // Worker-death recovery must have really happened: every crash
          // event SIGKILLed a worker process and every restart respawned
          // one (finalize() restarts stragglers, so counts balance).
          const auto* wt = dynamic_cast<const wire::WireTransport*>(
              &cluster.observe().transport());
          if (wt == nullptr) {
            std::cerr << "iteration " << i
                      << " FAILED: --transport=wire did not select the "
                         "WireTransport backend\n";
            return 1;
          }
          const std::uint64_t kills = wt->supervisor().kills();
          const std::uint64_t respawns = wt->supervisor().respawns();
          std::cout << " [wire: " << kills << " worker kills, " << respawns
                    << " respawns]";
          if (kills != fs.crashes || respawns != kills) {
            std::cerr << "\niteration " << i << " FAILED: wire transport saw "
                      << kills << " kills / " << respawns << " respawns but "
                      << "the fault engine reports " << fs.crashes
                      << " crashes — worker-death recovery out of sync\n";
            return 1;
          }
        }
      }
      std::cout << ", invariants OK\n";
    } catch (const std::exception& e) {
      std::cerr << "iteration " << i << " CRASHED (workload seed "
                << d.spec.seed << ", cluster seed " << d.cfg.seed
                << "): " << e.what() << "\n";
      return 1;
    }
  }
  std::cout << "soak complete: " << iterations << " iterations clean\n";
  return 0;
}
