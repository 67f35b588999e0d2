// Section 6 extension: "the implementation of a simulated version of
// Release Consistency for nested objects ... will allow us to compare the
// results of using that protocol to the results offered by COTEC, OTEC and
// LOTEC."
//
// RC eagerly pushes committed updates to every caching site at root
// release; entry-consistency protocols move data lazily to the one site
// known to need it.  We run the high-contention scenarios under all four
// protocols, with and without a multicast-capable network (a second
// Section 6 extension: multicast collapses RC's N unicast pushes into one).
#include <iostream>

#include "sim/experiment.hpp"
#include "sim/report.hpp"
#include "sim/scenarios.hpp"

using namespace lotec;

namespace {

void run(const std::string& name, const WorkloadSpec& spec) {
  const Workload workload(spec);
  const std::vector<ProtocolKind> protocols = {
      ProtocolKind::kCotec, ProtocolKind::kOtec, ProtocolKind::kLotec,
      ProtocolKind::kRc};

  print_section(name + ": RC vs entry-consistency protocols");
  Table table({"Protocol", "Multicast", "Messages", "Bytes", "vs LOTEC bytes"});
  ExperimentOptions unicast;
  ExperimentOptions multicast;
  multicast.cluster.net.multicast_capable = true;

  const auto uni = run_protocol_suite(workload, protocols, unicast);
  const double lotec_bytes = static_cast<double>(uni[2].total.bytes);
  for (const auto& r : uni)
    table.row({std::string(to_string(r.protocol)), "no",
               fmt_u64(r.total.messages), fmt_u64(r.total.bytes),
               fmt_percent(static_cast<double>(r.total.bytes) / lotec_bytes)});
  // Multicast only changes push traffic, i.e. RC.
  const ScenarioResult rc_mc =
      run_scenario(workload, ProtocolKind::kRc, multicast);
  table.row({"RC", "yes", fmt_u64(rc_mc.total.messages),
             fmt_u64(rc_mc.total.bytes),
             fmt_percent(static_cast<double>(rc_mc.total.bytes) /
                         lotec_bytes)});
  table.print();
}

}  // namespace

int main() {
  run("Medium objects, high contention", scenarios::medium_high_contention());
  run("Large objects, high contention", scenarios::large_high_contention());
  std::cout << "\nExpectation (paper, Section 4.1): eager RC pushes updates "
               "to all caching sites at\nrelease time, so it moves more data "
               "than entry consistency, which transfers\nonly to the "
               "acquiring site; multicast recovers some of RC's message "
               "count.\n";
  return 0;
}
