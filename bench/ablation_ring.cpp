// Elastic-directory ablation (PROTOCOL.md §15): what does the consistent-
// hash ring cost when it is idle, and what does membership churn cost when
// it is not?
//
// Three regimes over the fig2 medium/high-contention mix:
//   * static        — the ring knob off: hash-mod placement, no mirrors
//                     (the production default every golden figure pins);
//   * ring, idle    — ring on with quorum mirror groups of 1 and 2 but no
//                     membership change: placement moves to ring order and
//                     every directory mutation pays its quorum sync, but no
//                     entry ever migrates;
//   * ring, churn   — leave/join cycles fire mid-batch (1, 2, 4 cycles):
//                     shards migrate under load and stale views bounce, all
//                     charged as real messages.
//
// The bench doubles as a regression gate (nonzero exit on failure):
//   * knob-off inertness: a run with the ring struct populated but DISABLED
//     must be message-for-message identical to a default run — the elastic
//     machinery may not perturb a single golden byte while off;
//   * idle ring: zero migrations and zero redirects — nothing moves unless
//     membership does;
//   * churn: every commit survives (membership change never kills a
//     family), migrations actually happen, and each shard handoff is
//     charged exactly one request/reply pair on the wire.
#include <iostream>

#include "json_out.hpp"
#include "sim/experiment.hpp"
#include "sim/report.hpp"
#include "sim/scenarios.hpp"

using namespace lotec;

namespace {

WorkloadSpec ablation_spec() {
  WorkloadSpec spec = scenarios::medium_high_contention();
  spec.num_transactions = 80;
  return spec;
}

ExperimentOptions base_options() {
  ExperimentOptions options;
  options.cluster.nodes = 8;
  return options;
}

}  // namespace

int main() {
  const Workload workload(ablation_spec());

  print_section(
      "Elastic-directory ablation: static map vs consistent-hash ring "
      "(idle and under membership churn)");

  bool failed = false;
  bench::BenchJson json("ablation_ring");
  Table table({"Config", "Msgs", "Bytes", "Events", "Migrations",
               "Redirects", "Quorum syncs", "Committed"});

  const auto emit = [&](const std::string& label, const ScenarioResult& r) {
    table.row({label, fmt_u64(r.total.messages), fmt_u64(r.total.bytes),
               fmt_u64(r.counter("ring.changes")),
               fmt_u64(r.counter("ring.migrations")),
               fmt_u64(r.counter("ring.redirects")),
               fmt_u64(r.counter("ring.quorum_commits")),
               fmt_u64(static_cast<std::uint64_t>(r.committed))});
    json.row(label)
        .field("total_messages", r.total.messages)
        .field("membership_events", r.counter("ring.changes"))
        .field("total_bytes", r.total.bytes)
        .field("migrations", r.counter("ring.migrations"))
        .field("redirects", r.counter("ring.redirects"))
        .field("quorum_commits", r.counter("ring.quorum_commits"))
        .field("migrate_requests",
               r.counter("net.kind.ShardMigrateRequest.messages"))
        .field("committed", r.committed);
  };

  const ScenarioResult baseline =
      run_scenario(workload, ProtocolKind::kLotec, base_options());
  emit("static", baseline);

  // Idle ring: elasticity priced in, not exercised.
  for (const std::size_t group : {std::size_t{1}, std::size_t{2}}) {
    ExperimentOptions options = base_options();
    options.cluster.gdo.ring.enabled = true;
    options.cluster.gdo.ring.mirror_group = group;
    const ScenarioResult r =
        run_scenario(workload, ProtocolKind::kLotec, options);
    emit("ring_idle_g" + std::to_string(group), r);
    if (r.counter("ring.migrations") != 0 ||
        r.counter("ring.redirects") != 0) {
      std::cerr << "FAIL: idle ring (group " << group << ") moved "
                << r.counter("ring.migrations") << " shards and bounced "
                << r.counter("ring.redirects")
                << " requests with membership fixed (both must be 0)\n";
      failed = true;
    }
    if (r.committed != baseline.committed || r.aborted != baseline.aborted) {
      std::cerr << "FAIL: idle ring (group " << group
                << ") changed outcomes: " << r.committed << "/" << r.aborted
                << " vs static " << baseline.committed << "/"
                << baseline.aborted << "\n";
      failed = true;
    }
  }

  // Churn: leave/join cycles over two members while the batch runs.
  for (const std::size_t cycles : {std::size_t{1}, std::size_t{2},
                                   std::size_t{4}}) {
    ExperimentOptions options = base_options();
    options.cluster.gdo.ring.enabled = true;
    options.cluster.gdo.ring.mirror_group = 2;
    // Wide windows: the migration pump advances once per family attempt,
    // so the departed member must stay out long enough for its shards to
    // actually move before the join folds them back.
    options.cluster.fault =
        fault_presets::rebalance({NodeId(1), NodeId(2)}, cycles,
                                 /*first_tick=*/30, /*window=*/250);
    const ScenarioResult r =
        run_scenario(workload, ProtocolKind::kLotec, options);
    emit("churn_" + std::to_string(cycles), r);
    if (r.committed != baseline.committed) {
      std::cerr << "FAIL: churn (" << cycles << " cycles) lost commits: "
                << r.committed << " vs " << baseline.committed
                << " — membership change must never kill a family\n";
      failed = true;
    }
    if (r.counter("ring.migrations") == 0) {
      std::cerr << "FAIL: churn (" << cycles
                << " cycles) migrated nothing — the chaos never bit\n";
      failed = true;
    }
    const std::uint64_t reqs =
        r.counter("net.kind.ShardMigrateRequest.messages");
    const std::uint64_t replies =
        r.counter("net.kind.ShardMigrateReply.messages");
    if (reqs != replies || reqs < r.counter("ring.migrations")) {
      std::cerr << "FAIL: churn (" << cycles << " cycles) charged " << reqs
                << " migrate requests / " << replies << " replies for "
                << r.counter("ring.migrations")
                << " migrations — a handoff must cost one pair each\n";
      failed = true;
    }
  }
  table.print();

  // Knob-off inertness gate: a disabled ring struct (with every sub-knob
  // away from its default) may not perturb one message of the golden
  // static run.
  {
    ExperimentOptions plain = base_options();
    plain.record_trace = true;
    ExperimentOptions armed = plain;
    armed.cluster.gdo.ring.virtual_nodes = 64;
    armed.cluster.gdo.ring.mirror_group = 3;
    armed.cluster.gdo.ring.seed = 0xDEAD;
    armed.cluster.gdo.ring.migration_batch = 7;  // enabled stays false
    const ScenarioResult a = run_scenario(workload, ProtocolKind::kLotec,
                                          plain);
    const ScenarioResult b = run_scenario(workload, ProtocolKind::kLotec,
                                          armed);
    if (a.trace != b.trace || a.total.messages != b.total.messages ||
        a.total.bytes != b.total.bytes) {
      std::cerr << "FAIL: a disabled ring is not inert on the wire ("
                << a.total.messages << "/" << a.total.bytes << " msgs/B vs "
                << b.total.messages << "/" << b.total.bytes << ")\n";
      failed = true;
    } else {
      std::cout << "\nknob-off inertness: " << a.total.messages
                << " messages, " << a.total.bytes
                << " bytes — bit-identical with the ring struct armed but "
                   "disabled\n";
    }
  }

  json.write();
  if (failed) return 1;
  std::cout << "\nExpectation: the idle ring pays quorum syncs per directory "
               "mutation and nothing\nelse; churn adds one charged "
               "request/reply pair per migrated shard plus a\nredirect per "
               "stale-view request, and never costs a commit.\n";
  return 0;
}
