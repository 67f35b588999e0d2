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
//   soak [iterations=50] [base-seed=1] [--faults] [--rebalance] [--only N]
//        [--flight-dump PREFIX] [--transport=wire [--socket-dir DIR]]
//
// --rebalance turns every iteration into an elastic-directory chaos run
// (PROTOCOL.md §15): the consistent-hash ring is on with a randomized
// geometry (virtual nodes, quorum mirror group), and at least three
// leave/join membership cycles fire mid-batch, migrating shards under live
// load.  The full oracle set (serializability, lock discipline, coherence,
// cache epochs, ring ownership) rides along as the check sink and must
// finish clean.  Combined with --faults the background message chaos
// (drop/duplicate/delay) stays, but crash and partition events are
// stripped: a crash wipes a site's committed state, and the version-based
// oracles are only sound on rollback-free histories (CoherenceOracle
// disarms itself on the first crash for the same reason) — membership
// churn is the chaos under test here, crash recovery has its own soak.
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
#include <algorithm>
#include <cstring>
#include <iostream>
#include <string>

#include "check/oracles.hpp"
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

/// Chaos-mode constraints: node faults need a replicated directory, and
/// every family must survive long enough to see the restart (bounded retry
/// budget stays the default).
void add_random_faults(Draw& d, Rng& rng) {
  d.cfg.gdo.replicate = true;

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

/// Constrain one drawn iteration to the elastic directory's envelope and
/// schedule the membership churn.  Applied AFTER the normal draws (and after
/// add_random_faults) so the random stream is identical with and without
/// --rebalance.
void constrain_for_rebalance(Draw& d, Rng& rng) {
  d.cfg.gdo.replicate = true;
  d.cfg.mv_read = false;     // ring + snapshot reads are rejected
  d.cfg.lock_cache = false;  // ring + cached-holder leases are rejected
  d.cfg.lock_cache_capacity = 0;
  if (d.cfg.nodes < 4) d.cfg.nodes = 4;  // room for a group and a leaver

  d.cfg.gdo.ring.enabled = true;
  d.cfg.gdo.ring.virtual_nodes = std::size_t{8} << rng.below(3);  // 8/16/32
  d.cfg.gdo.ring.mirror_group =
      1 + rng.below(std::min<std::size_t>(3, d.cfg.nodes - 1));
  d.cfg.gdo.ring.migration_batch = 1 + rng.below(4);

  // Crash and partition events roll state back (see the header comment);
  // keep only the delivery-neutral message chaos from --faults.
  std::erase_if(d.cfg.fault.events, [](const FaultEvent& e) {
    return e.action != FaultAction::kRingLeave &&
           e.action != FaultAction::kRingJoin;
  });
  d.cfg.fault.drop_probability = 0.0;

  // At least three leave/join cycles over two distinct victims, early
  // enough that the batch's message stream reaches every event.
  const NodeId first(static_cast<std::uint32_t>(rng.below(d.cfg.nodes)));
  const NodeId second((first.value() + 1 + rng.below(d.cfg.nodes - 1)) %
                      d.cfg.nodes);
  const FaultConfig churn = fault_presets::rebalance(
      {first, second}, /*cycles=*/3 + rng.below(2),
      /*first_tick=*/15 + rng.below(30), /*window=*/25 + rng.below(35));
  d.cfg.fault.events.insert(d.cfg.fault.events.end(), churn.events.begin(),
                            churn.events.end());
  // Enough traffic that the logical clock reaches the whole churn schedule.
  if (d.spec.num_transactions < 80) d.spec.num_transactions = 80;
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

}  // namespace

int main(int argc, char** argv) {
  bool with_faults = false;
  bool wire_transport = false;
  bool rebalance = false;
  int only = -1;
  std::string flight_prefix;
  std::string socket_dir;
  std::vector<const char*> positional;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--faults") == 0)
      with_faults = true;
    else if (std::strcmp(argv[i], "--rebalance") == 0)
      rebalance = true;
    else if (std::strcmp(argv[i], "--transport=wire") == 0)
      wire_transport = true;
    else if (std::strcmp(argv[i], "--only") == 0 && i + 1 < argc)
      only = std::atoi(argv[++i]);
    else if (std::strcmp(argv[i], "--flight-dump") == 0 && i + 1 < argc)
      flight_prefix = argv[++i];
    else if (std::strcmp(argv[i], "--socket-dir") == 0 && i + 1 < argc)
      socket_dir = argv[++i];
    else
      positional.push_back(argv[i]);
  }
  const int iterations =
      positional.size() > 0 ? std::atoi(positional[0]) : 50;
  const std::uint64_t base_seed =
      positional.size() > 1 ? std::strtoull(positional[1], nullptr, 0) : 1;
  if (rebalance && wire_transport) {
    std::cerr << "soak: --rebalance cannot run on --transport=wire (shard "
                 "migration is in-process state; see ClusterConfig "
                 "validation)\n";
    return 2;
  }
  Rng rng(base_seed);

  for (int i = 0; i < iterations; ++i) {
    Draw d = random_setup(rng);
    if (with_faults) add_random_faults(d, rng);
    if (rebalance) constrain_for_rebalance(d, rng);
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
      // Rebalance mode runs the full oracle set through the check sink;
      // the sinks must outlive the cluster.
      check::SerializabilityOracle ser_oracle;
      check::LockDisciplineOracle lock_oracle;
      check::CoherenceOracle coherence_oracle;
      check::CacheEpochOracle cache_oracle;
      check::RingOwnershipOracle ring_oracle;
      check::FanoutSink fanout;
      if (rebalance) {
        fanout.add(&ser_oracle);
        fanout.add(&lock_oracle);
        fanout.add(&coherence_oracle);
        fanout.add(&cache_oracle);
        fanout.add(&ring_oracle);
        d.cfg.check_sink = &fanout;
      }
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
      if (rebalance) {
        check::OracleBase* oracles[] = {&ser_oracle, &lock_oracle,
                                        &coherence_oracle, &cache_oracle,
                                        &ring_oracle};
        for (check::OracleBase* o : oracles) {
          if (const auto v = o->finish()) {
            std::cerr << "iteration " << i << " FAILED (workload seed "
                      << d.spec.seed << ", cluster seed " << d.cfg.seed
                      << ", protocol " << to_string(d.cfg.protocol)
                      << "): oracle " << v->oracle << ": " << v->detail
                      << "\n";
            return 1;
          }
        }
        if (cluster.gdo().ring_epoch() == 0) {
          std::cerr << "iteration " << i << " FAILED (workload seed "
                    << d.spec.seed << ", cluster seed " << d.cfg.seed
                    << "): membership churn never fired — the batch's "
                       "logical clock never reached the schedule\n";
          return 1;
        }
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
      if (rebalance) {
        const auto& counters = cluster.observe().metrics().counters();
        const auto count = [&](const char* key) -> std::uint64_t {
          const auto it = counters.find(key);
          return it == counters.end() ? 0 : it->second;
        };
        std::cout << " [ring: epoch " << cluster.gdo().ring_epoch() << ", "
                  << count("ring.migrations") << " migrations, "
                  << count("ring.redirects") << " redirects, "
                  << ring_oracle.serves() << " serves checked]";
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
