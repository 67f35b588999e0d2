// Cross-protocol property tests — the central correctness claim of the
// reproduction: all four consistency protocols execute the same workload to
// the same final state (they differ only in what traffic they generate),
// and the byte ordering bytes(LOTEC) <= bytes(OTEC) <= bytes(COTEC) holds.
//
// Parameterized over seeds: each seed generates a different randomized
// nested-object workload (different schemas, scripts, contention).
#include <gtest/gtest.h>

#include "sim/experiment.hpp"
#include "workload/generator.hpp"

namespace lotec {
namespace {

WorkloadSpec property_spec(std::uint64_t seed) {
  WorkloadSpec spec;
  spec.num_objects = 12;
  spec.min_pages = 2;
  spec.max_pages = 6;
  spec.num_transactions = 60;
  spec.max_depth = 3;
  spec.child_probability = 0.45;
  spec.contention_theta = 0.7;
  spec.touched_attr_fraction = 0.4;
  spec.write_fraction = 0.6;
  spec.read_method_fraction = 0.25;
  spec.seed = seed;
  return spec;
}

/// Snapshot of every attribute of every workload object after the run.
std::vector<std::int64_t> final_state(const Workload& workload,
                                      ProtocolKind protocol,
                                      std::uint64_t cluster_seed) {
  ClusterConfig cfg;
  cfg.nodes = 4;
  cfg.page_size = 256;
  cfg.protocol = protocol;
  cfg.seed = cluster_seed;
  Cluster cluster(cfg);
  const auto results = cluster.execute(workload.instantiate(cluster));
  for (const auto& r : results) {
    if (!r.committed) return {};  // signal: property requires full commit
  }
  std::vector<std::int64_t> state;
  for (std::size_t obj = 0; obj < workload.num_objects(); ++obj) {
    const ObjectId id(obj);
    const ClassDef& cls =
        cluster.class_def(cluster.meta_of(id).cls);
    for (std::size_t a = 0; a < cls.layout().num_attributes(); ++a) {
      const std::string& name =
          cls.layout().attribute(AttrId(static_cast<std::uint32_t>(a))).name;
      state.push_back(cluster.peek<std::int64_t>(id, name));
    }
  }
  return state;
}

class CrossProtocolTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(CrossProtocolTest, AllProtocolsReachTheSameFinalState) {
  const Workload workload(property_spec(GetParam()));
  const auto cotec = final_state(workload, ProtocolKind::kCotec, 1);
  ASSERT_FALSE(cotec.empty()) << "workload did not fully commit";
  for (const auto protocol :
       {ProtocolKind::kOtec, ProtocolKind::kLotec, ProtocolKind::kRc,
        ProtocolKind::kLotecDsd}) {
    const auto state = final_state(workload, protocol, 1);
    EXPECT_EQ(cotec, state) << "divergent state under "
                            << to_string(protocol);
  }
}

TEST_P(CrossProtocolTest, ByteOrderingHolds) {
  const Workload workload(property_spec(GetParam()));
  ExperimentOptions options;
  options.nodes = 4;
  options.page_size = 256;
  const auto results = run_protocol_suite(
      workload,
      {ProtocolKind::kCotec, ProtocolKind::kOtec, ProtocolKind::kLotec},
      options);
  // The sound invariant is about page-data PAYLOAD: LOTEC never moves more
  // page bytes than OTEC, which never moves more than COTEC.  Total bytes
  // including fixed per-message headers can wobble by a few hundred bytes
  // because LOTEC deliberately splits the same payload across more, smaller
  // messages (scattered sources + demand fetches).
  const auto page_payload = [](const ScenarioResult& r) {
    std::uint64_t sum = 0;
    for (const auto& [id, c] : r.page_data)
      sum += c.bytes - c.messages * wire::kHeaderBytes;
    return sum;
  };
  EXPECT_LE(page_payload(results[2]), page_payload(results[1]))
      << "LOTEC must not exceed OTEC";
  EXPECT_LE(page_payload(results[1]), page_payload(results[0]))
      << "OTEC must not exceed COTEC";
  // All protocols commit the same transactions (identical lock behaviour).
  EXPECT_EQ(results[0].committed, results[1].committed);
  EXPECT_EQ(results[1].committed, results[2].committed);
}

TEST_P(CrossProtocolTest, PageDataOrderingHoldsPerObject) {
  const Workload workload(property_spec(GetParam()));
  ExperimentOptions options;
  options.nodes = 4;
  options.page_size = 256;
  const auto results = run_protocol_suite(
      workload,
      {ProtocolKind::kCotec, ProtocolKind::kOtec, ProtocolKind::kLotec},
      options);
  // Page-data PAYLOAD (the protocols' actual policy surface) must be
  // ordered object by object.  Headers are excluded: LOTEC deliberately
  // splits the same payload over more, smaller messages (scattered sources
  // and demand fetches), so its header overhead can exceed OTEC's — that is
  // the paper's "many more messages (albeit small ones)" observation, not a
  // protocol violation.
  const auto payload = [](const TrafficCounter& c) {
    return c.bytes - c.messages * wire::kHeaderBytes;
  };
  for (const ObjectId id : results[0].object_ids) {
    const auto c = payload(results[0].page_data.at(id));
    const auto o = payload(results[1].page_data.at(id));
    const auto l = payload(results[2].page_data.at(id));
    EXPECT_LE(o, c) << "object " << id.value();
    EXPECT_LE(l, o) << "object " << id.value();
  }
}

TEST_P(CrossProtocolTest, DeterministicRunsAreBitIdentical) {
  const Workload workload(property_spec(GetParam()));
  ExperimentOptions options;
  options.nodes = 4;
  options.page_size = 256;
  const ScenarioResult a =
      run_scenario(workload, ProtocolKind::kLotec, options);
  const ScenarioResult b =
      run_scenario(workload, ProtocolKind::kLotec, options);
  EXPECT_EQ(a.total.messages, b.total.messages);
  EXPECT_EQ(a.total.bytes, b.total.bytes);
  EXPECT_EQ(a.committed, b.committed);
  EXPECT_EQ(a.counter("txn.deadlock_retries"), b.counter("txn.deadlock_retries"));
  for (const ObjectId id : a.object_ids)
    EXPECT_EQ(a.object_traffic(id).bytes, b.object_traffic(id).bytes);
}

INSTANTIATE_TEST_SUITE_P(Seeds, CrossProtocolTest,
                         ::testing::Values(101, 202, 303, 404, 505, 606));

TEST(CrossProtocolAbortTest, InjectedAbortsStayConsistent) {
  WorkloadSpec spec = property_spec(909);
  spec.abort_probability = 0.2;
  const Workload workload(spec);
  const auto cotec = final_state(workload, ProtocolKind::kCotec, 1);
  ASSERT_FALSE(cotec.empty());
  const auto lotec = final_state(workload, ProtocolKind::kLotec, 1);
  EXPECT_EQ(cotec, lotec);
}

}  // namespace
}  // namespace lotec
