// ExperimentOptions::validate(): every incoherent knob combination is
// rejected up front with an actionable UsageError (run_scenario calls it
// before building a cluster).
#include <gtest/gtest.h>

#include "check/events.hpp"
#include "sim/experiment.hpp"
#include "sim/scenarios.hpp"

namespace lotec {
namespace {

/// The validation error for `options` must mention every `needles` substring
/// (the message has to tell the user what to change, not just say "invalid").
void expect_rejected(const ExperimentOptions& options,
                     std::initializer_list<const char*> needles) {
  try {
    options.validate();
    FAIL() << "expected UsageError";
  } catch (const UsageError& e) {
    const std::string what = e.what();
    for (const char* needle : needles)
      EXPECT_NE(what.find(needle), std::string::npos)
          << "message '" << what << "' lacks '" << needle << "'";
  }
}

TEST(ExperimentOptionsTest, DefaultsValidate) {
  const ExperimentOptions options;
  EXPECT_NO_THROW(options.validate());
}

TEST(ExperimentOptionsTest, RejectsEmptyCluster) {
  ExperimentOptions options;
  options.cluster.nodes = 0;
  expect_rejected(options, {"nodes"});

  options = {};
  options.cluster.page_size = 0;
  expect_rejected(options, {"page_size"});

  options = {};
  options.cluster.max_active_families = 0;
  expect_rejected(options, {"max_active_families"});
}

TEST(ExperimentOptionsTest, RejectsLockCacheCapacityWithoutLockCache) {
  ExperimentOptions options;
  options.cluster.lock_cache_capacity = 8;
  expect_rejected(options, {"lock_cache_capacity", "enable lock_cache"});

  options.cluster.lock_cache = true;
  EXPECT_NO_THROW(options.validate());
}

TEST(ExperimentOptionsTest, RejectsSiteLocalityOutsideUnitRange) {
  ExperimentOptions options;
  options.site_locality = 1.5;
  expect_rejected(options, {"site_locality", "[-1, 1]"});

  options.site_locality = -2.0;
  expect_rejected(options, {"site_locality"});

  options.site_locality = -1.0;  // negative within range disables the knob
  EXPECT_NO_THROW(options.validate());
  options.site_locality = 1.0;
  EXPECT_NO_THROW(options.validate());
}

TEST(ExperimentOptionsTest, RejectsFaultProbabilitiesOutsideUnitRange) {
  ExperimentOptions options;
  options.cluster.fault.drop_probability = 1.5;
  expect_rejected(options, {"drop_probability", "[0, 1]"});

  options = {};
  options.cluster.fault.duplicate_probability = -0.1;
  expect_rejected(options, {"duplicate_probability"});

  options = {};
  options.cluster.fault.delay_probability = 2.0;
  expect_rejected(options, {"delay_probability"});
}

TEST(ExperimentOptionsTest, RejectsFaultsAgainstNonexistentNodes) {
  // Crash targeting a node outside the cluster.
  ExperimentOptions options;
  options.cluster.nodes = 4;
  FaultEvent crash;
  crash.action = FaultAction::kCrashNode;
  crash.at_tick = 10;
  crash.node = NodeId(7);
  options.cluster.fault.events.push_back(crash);
  expect_rejected(options, {"node 7", "no such node"});

  // Crash with no target node at all.
  options.cluster.fault.events[0].node = NodeId{};
  expect_rejected(options, {"no such node"});

  // A valid target passes.
  options.cluster.fault.events[0].node = NodeId(3);
  EXPECT_NO_THROW(options.validate());

  // Partition naming a node outside the cluster.
  options = {};
  options.cluster.nodes = 4;
  FaultEvent part;
  part.action = FaultAction::kPartitionStart;
  part.at_tick = 10;
  part.group_a = {NodeId(0), NodeId(9)};
  part.group_b = {NodeId(1)};
  options.cluster.fault.events.push_back(part);
  expect_rejected(options, {"partitions node 9"});
}

TEST(ExperimentOptionsTest, MessageTargetedFaultsNeedNoFixedNode) {
  // kMessageSrc/kMessageDst crashes resolve their node at fire time — the
  // fixed-node check must not reject them.
  ExperimentOptions options;
  options.cluster.nodes = 4;
  FaultEvent crash;
  crash.action = FaultAction::kCrashNode;
  crash.on_kind = MessageKind::kLockAcquireRequest;
  crash.target = FaultTarget::kMessageDst;
  options.cluster.fault.events.push_back(crash);
  EXPECT_NO_THROW(options.validate());
}

TEST(ExperimentOptionsTest, RejectsSpanFilesWithoutTracing) {
  ExperimentOptions options;
  options.cluster.obs.spans_jsonl = "spans.jsonl";
  expect_rejected(options, {"trace_spans"});

  options = {};
  options.cluster.obs.chrome_trace = "trace.json";
  expect_rejected(options, {"trace_spans"});

  options.cluster.obs.trace_spans = true;
  EXPECT_NO_THROW(options.validate());
}

TEST(ExperimentOptionsTest, RunScenarioValidatesBeforeBuildingACluster) {
  WorkloadSpec spec = scenarios::medium_high_contention();
  spec.num_transactions = 1;
  const Workload workload(spec);
  ExperimentOptions options;
  options.site_locality = 2.0;
  EXPECT_THROW((void)run_scenario(workload, ProtocolKind::kLotec, options),
               UsageError);
}

// run_scenario builds its cluster from options.cluster with only the
// protocol replaced, so a run through the harness and a direct run of the
// same cluster and requests move identical traffic.
TEST(ExperimentOptionsTest, RunScenarioRunsTheOptionsClusterUnderItsProtocol) {
  WorkloadSpec spec = scenarios::medium_high_contention();
  spec.num_transactions = 20;
  const Workload workload(spec);
  ExperimentOptions options;
  options.cluster.nodes = 7;
  options.cluster.page_size = 512;
  options.cluster.seed = 99;
  options.cluster.max_active_families = 3;
  options.cluster.net.multicast_capable = true;
  options.cluster.undo = UndoStrategy::kShadowPage;
  options.cluster.cache_capacity_pages = 11;
  options.cluster.lock_cache = true;
  options.cluster.lock_cache_capacity = 5;
  options.cluster.protocol = ProtocolKind::kCotec;  // replaced by the run's
  options.site_locality = 0.5;
  const ScenarioResult r = run_scenario(workload, ProtocolKind::kRc, options);
  EXPECT_EQ(r.protocol, ProtocolKind::kRc);

  ClusterConfig cfg = options.cluster;
  cfg.protocol = ProtocolKind::kRc;
  Cluster cluster(cfg);
  (void)cluster.execute(scenario_requests(workload, cluster, options));
  EXPECT_EQ(cluster.stats().total().messages, r.total.messages);
  EXPECT_EQ(cluster.stats().total().bytes, r.total.bytes);
}

// Node faults need a replicated directory; the cluster switches it on
// itself, so neither the options nor the config has to ask for it.
TEST(ExperimentOptionsTest, NodeFaultsImplyGdoReplication) {
  ExperimentOptions options;
  FaultEvent crash;
  crash.action = FaultAction::kCrashNode;
  crash.at_tick = 10;
  crash.node = NodeId(1);
  options.cluster.fault.events.push_back(crash);
  EXPECT_FALSE(options.cluster.gdo.replicate);
  EXPECT_NO_THROW(options.validate());
  const Cluster cluster(options.cluster);
  EXPECT_TRUE(cluster.config().gdo.replicate);
}

// The previously missing test: a directly-constructed Cluster rejects the
// same incoherent configs run_scenario rejects — validation happens in
// ClusterCore construction, not only in the experiment harness.
TEST(ExperimentOptionsTest, ClusterConstructionValidates) {
  const auto expect_ctor_rejected = [](const ClusterConfig& cfg,
                                       const char* needle) {
    try {
      Cluster cluster(cfg);
      FAIL() << "expected UsageError mentioning '" << needle << "'";
    } catch (const UsageError& e) {
      EXPECT_NE(std::string(e.what()).find(needle), std::string::npos)
          << e.what();
    }
  };

  ClusterConfig cfg;
  cfg.nodes = 0;
  expect_ctor_rejected(cfg, "nodes must be >= 1");

  cfg = {};
  cfg.lock_cache_capacity = 4;
  expect_ctor_rejected(cfg, "enable lock_cache");

  cfg = {};
  cfg.fault.drop_probability = 1.5;
  expect_ctor_rejected(cfg, "[0, 1]");

  cfg = {};
  FaultEvent crash;
  crash.action = FaultAction::kCrashNode;
  crash.at_tick = 1;
  crash.node = NodeId(99);
  cfg.fault.events.push_back(crash);
  cfg.gdo.replicate = true;
  expect_ctor_rejected(cfg, "no such node");

  cfg = {};
  FaultEvent part;
  part.action = FaultAction::kPartitionStart;
  part.at_tick = 1;
  part.group_a = {NodeId(99)};
  cfg.fault.events.push_back(part);
  expect_ctor_rejected(cfg, "partitions node");

  cfg = {};
  cfg.obs.chrome_trace = "trace.json";
  expect_ctor_rejected(cfg, "trace_spans");

  cfg = {};
  EXPECT_NO_THROW(Cluster{cfg});
}

// --- wire transport (--distributed) composition rules ----------------------
// The wire backend keeps the deterministic coordinator in charge; every
// mode that wants to intercept or reorder individual in-process messages
// (schedule exploration, the serializability checker's sink, FaultEngine
// message chaos) is meaningless across real sockets and must be rejected
// up front with a message that says what to drop.

TEST(ExperimentOptionsTest, WireDefaultsValidate) {
  ExperimentOptions options;
  options.cluster.wire.enabled = true;
  EXPECT_NO_THROW(options.validate());
}

TEST(ExperimentOptionsTest, RejectsWireWithMessageChaos) {
  ExperimentOptions options;
  options.cluster.wire.enabled = true;
  options.cluster.fault.drop_probability = 0.01;
  expect_rejected(options, {"--distributed", "crash/restart"});

  options.cluster.fault.drop_probability = 0.0;
  options.cluster.fault.duplicate_probability = 0.5;
  expect_rejected(options, {"--distributed"});

  options.cluster.fault.duplicate_probability = 0.0;
  options.cluster.fault.delay_probability = 0.2;
  expect_rejected(options, {"--distributed"});
}

TEST(ExperimentOptionsTest, RejectsWireWithDropMessageEvents) {
  ExperimentOptions options;
  options.cluster.wire.enabled = true;
  FaultEvent drop;
  drop.action = FaultAction::kDropMessage;
  drop.on_kind = MessageKind::kLockAcquireRequest;
  options.cluster.fault.events.push_back(drop);
  expect_rejected(options, {"--distributed", "event #0"});

  // Crash/restart events stay legal: they map onto real worker kills.
  options = {};
  options.cluster.wire.enabled = true;
  options.cluster.nodes = 4;
  FaultEvent crash;
  crash.action = FaultAction::kCrashNode;
  crash.at_tick = 10;
  crash.node = NodeId(1);
  options.cluster.fault.events.push_back(crash);
  EXPECT_NO_THROW(options.validate());
}

TEST(ExperimentOptionsTest, WireClusterConfigRejectsCheckAndExploreModes) {
  // schedule_picker / check_sink live on ClusterConfig (the check and explore tools build one directly), so the
  // rules are asserted there; validate() runs before any worker spawns.
  const auto expect_cfg_rejected = [](const ClusterConfig& cfg,
                                      const char* needle) {
    try {
      cfg.validate();
      FAIL() << "expected UsageError mentioning '" << needle << "'";
    } catch (const UsageError& e) {
      EXPECT_NE(std::string(e.what()).find(needle), std::string::npos)
          << e.what();
    }
  };

  ClusterConfig cfg;
  cfg.wire.enabled = true;
  cfg.schedule_picker = [](const std::vector<std::size_t>&, std::size_t) {
    return std::size_t{0};
  };
  expect_cfg_rejected(cfg, "schedule exploration");

  cfg = {};
  cfg.wire.enabled = true;
  CheckSink sink;
  cfg.check_sink = &sink;
  expect_cfg_rejected(cfg, "check sink");
}

TEST(ExperimentOptionsTest, ProtocolTracePathInsertsTagBeforeExtension) {
  EXPECT_EQ(protocol_trace_path("trace.json", ProtocolKind::kLotec),
            "trace_LOTEC.json");
  EXPECT_EQ(protocol_trace_path("out/spans.jsonl", ProtocolKind::kCotec),
            "out/spans_COTEC.jsonl");
  EXPECT_EQ(protocol_trace_path("spans", ProtocolKind::kRc), "spans_RC");
  // A dot inside a directory name is not an extension.
  EXPECT_EQ(protocol_trace_path("run.d/spans", ProtocolKind::kOtec),
            "run.d/spans_OTEC");
}

}  // namespace
}  // namespace lotec
