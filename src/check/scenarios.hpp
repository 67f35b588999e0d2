// Checking scenarios: deliberately tiny workloads whose schedule space is
// small enough for systematic exploration while still exercising the whole
// protocol stack — nesting, contention, sub-transaction aborts, upgrades.
//
// These are distinct from sim/scenarios.hpp (the paper-scale benchmark
// scenarios): a model checker wants few families over few hot objects so
// that a bounded DFS covers a meaningful fraction of interleavings and a
// random walk hits rare orderings within thousands of schedules, not
// billions.
#pragma once

#include <string>
#include <vector>

#include "common/error.hpp"
#include "runtime/config.hpp"
#include "workload/spec.hpp"

namespace lotec::check {

struct CheckScenario {
  std::string name;
  WorkloadSpec workload;
  /// Share of families submitted as declared read-only (shadow reader
  /// scripts).  With cluster.mv_read they take the snapshot path, and the
  /// extended serializability oracle validates every snapshot read against
  /// the commit-tick publication order.
  double read_only_fraction = 0.0;
  /// The cluster every explored schedule builds afresh.  Small pages keep
  /// objects multi-page at checking scale; the seed also seeds the random
  /// and PCT exploration strategies.
  ClusterConfig cluster = [] {
    ClusterConfig c;
    c.nodes = 2;
    c.page_size = 256;
    c.seed = 42;
    return c;
  }();
};

/// "tiny": 6 families of depth <= 2 over 3 hot objects on 2 nodes, with a
/// dash of injected sub-transaction aborts so clean runs exercise rule 4.
inline CheckScenario check_tiny() {
  CheckScenario s;
  s.name = "tiny";
  s.workload.num_objects = 3;
  s.workload.min_pages = 1;
  s.workload.max_pages = 2;
  s.workload.attrs_per_page = 2;
  s.workload.methods_per_class = 3;
  s.workload.touched_attr_fraction = 0.6;
  s.workload.write_fraction = 0.7;
  s.workload.read_method_fraction = 0.15;
  s.workload.num_transactions = 6;
  s.workload.max_depth = 2;
  s.workload.child_probability = 0.6;
  s.workload.max_children = 2;
  s.workload.contention_theta = 0.8;
  s.workload.abort_probability = 0.15;
  s.workload.seed = 11;
  return s;
}

/// "small": 10 families of depth <= 3 over 4 objects on 3 nodes under high
/// contention and a high write fraction — the adversarial end of what a
/// bounded exploration can still cover.
inline CheckScenario check_small() {
  CheckScenario s;
  s.name = "small";
  s.cluster.nodes = 3;
  s.workload.num_objects = 4;
  s.workload.min_pages = 1;
  s.workload.max_pages = 3;
  s.workload.attrs_per_page = 2;
  s.workload.methods_per_class = 4;
  s.workload.touched_attr_fraction = 0.5;
  s.workload.write_fraction = 0.8;
  s.workload.read_method_fraction = 0.1;
  s.workload.num_transactions = 10;
  s.workload.max_depth = 3;
  s.workload.child_probability = 0.5;
  s.workload.max_children = 2;
  s.workload.contention_theta = 0.9;
  s.workload.abort_probability = 0.1;
  s.workload.seed = 23;
  return s;
}

/// "mixed": the tiny contention core plus a read-only population, run with
/// snapshot reads on — exploration interleaves snapshot readers against
/// in-flight writers, the regime where a wrong version resolution (a read
/// above its stamp, or a torn pre/post-commit mix) is actually reachable.
inline CheckScenario check_mixed() {
  CheckScenario s = check_tiny();
  s.name = "mixed";
  s.workload.num_transactions = 8;
  s.workload.seed = 31;
  s.read_only_fraction = 0.5;
  s.cluster.mv_read = true;
  return s;
}

inline CheckScenario check_scenario(const std::string& name) {
  if (name == "tiny") return check_tiny();
  if (name == "small") return check_small();
  if (name == "mixed") return check_mixed();
  throw UsageError("unknown check scenario '" + name +
                   "' (expected tiny, small or mixed)");
}

}  // namespace lotec::check
