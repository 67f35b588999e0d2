// Fault-engine ablation.
//
// Part 1 — zero overhead when disabled: the Transport consults the fault
// hooks on every message, so the ablation runs the same workload (a) with
// no engine and (b) with the engine installed but every fault off
// (install_hooks = true), and asserts the traffic is byte-identical —
// message for message, via the recorded trace.  The disabled engine must be
// invisible on the wire.
//
// Part 2 — seeded chaos: the acceptance scenario (crash + restart of two
// sites mid-workload with background message drop) under every protocol,
// reporting what the recovery machinery did: retries, reclaimed leases,
// rebuilt directory entries, restored pages — and that two same-seed runs
// produce identical traffic.
#include <iostream>

#include "sim/experiment.hpp"
#include "sim/report.hpp"
#include "sim/scenarios.hpp"

using namespace lotec;

namespace {

constexpr std::uint64_t kChaosSeed = 11;

bool check_zero_overhead(const Workload& workload) {
  print_section("Disabled-engine overhead (must be zero)");
  Table table({"Protocol", "Messages (off)", "Messages (hooked)",
               "Bytes (off)", "Bytes (hooked)", "Trace"});
  bool ok = true;
  for (const ProtocolKind p :
       {ProtocolKind::kCotec, ProtocolKind::kOtec, ProtocolKind::kLotec,
        ProtocolKind::kRc}) {
    ExperimentOptions off;
    off.record_trace = true;
    ExperimentOptions hooked = off;
    // Full pipeline, every fault off.
    hooked.cluster.fault.install_hooks = true;

    const ScenarioResult a = run_scenario(workload, p, off);
    const ScenarioResult b = run_scenario(workload, p, hooked);
    const bool identical = a.trace == b.trace &&
                           a.total.messages == b.total.messages &&
                           a.total.bytes == b.total.bytes;
    ok = ok && identical;
    table.row({std::string(to_string(p)), fmt_u64(a.total.messages),
               fmt_u64(b.total.messages), fmt_u64(a.total.bytes),
               fmt_u64(b.total.bytes),
               identical ? "identical" : "MISMATCH"});
  }
  table.print();
  return ok;
}

ScenarioResult run_chaos(const Workload& workload, ProtocolKind p) {
  ExperimentOptions opts;
  opts.record_trace = true;
  opts.cluster.fault = fault_presets::chaos(NodeId(0), NodeId(1), kChaosSeed);
  return run_scenario(workload, p, opts);
}

bool run_chaos_suite(const Workload& workload) {
  print_section("Seeded chaos (crash+restart x2, 1% message drop)");
  Table table({"Protocol", "Committed", "Aborted", "Fault retries",
               "Crashes", "Leases reclaimed", "GDO rebuilt",
               "Pages restored", "Dropped"});
  bool deterministic = true;
  for (const ProtocolKind p :
       {ProtocolKind::kCotec, ProtocolKind::kOtec, ProtocolKind::kLotec,
        ProtocolKind::kRc}) {
    const ScenarioResult r = run_chaos(workload, p);
    const ScenarioResult again = run_chaos(workload, p);
    deterministic = deterministic && r.trace == again.trace &&
                    r.committed == again.committed;
    const FaultStats& fs = r.fault_stats;
    table.row({std::string(to_string(p)), fmt_u64(r.committed),
               fmt_u64(r.aborted), fmt_u64(r.counter("txn.fault_retries")),
               fmt_u64(fs.crashes), fmt_u64(fs.locks_reclaimed),
               fmt_u64(fs.gdo_entries_rebuilt), fmt_u64(fs.pages_restored),
               fmt_u64(fs.dropped)});
  }
  table.print();
  std::cout << "Same-seed reproducibility: "
            << (deterministic ? "byte-identical" : "MISMATCH") << "\n";
  return deterministic;
}

}  // namespace

int main() {
  const Workload workload(scenarios::medium_high_contention());

  const bool zero_overhead = check_zero_overhead(workload);
  const bool deterministic = run_chaos_suite(workload);

  std::cout << "\nExpectation: with the engine installed but idle the wire "
               "traffic is byte-identical\nto a run without it (the hooks "
               "cost one pointer comparison per message), and two\nchaos "
               "runs with the same seed replay the same fault and message "
               "trace bit for bit.\n";
  if (!zero_overhead || !deterministic) {
    std::cerr << "ablation_faults: FAILED ("
              << (!zero_overhead ? "overhead " : "")
              << (!deterministic ? "nondeterminism" : "") << ")\n";
    return 1;
  }
  return 0;
}
