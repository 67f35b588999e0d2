// ClusterCore: the shared state of a cluster, bundled so the family
// executor does not depend on the public Cluster facade.
#pragma once

#include <array>
#include <memory>
#include <vector>

#include "check/events.hpp"
#include "common/flat_map.hpp"
#include "fault/fault_engine.hpp"
#include "gdo/gdo_service.hpp"
#include "method/registry.hpp"
#include "net/transport.hpp"
#include "obs/observability.hpp"
#include "obs/stats_macros.hpp"
#include "protocol/protocol.hpp"
#include "runtime/config.hpp"
#include "runtime/node.hpp"
#include "runtime/scheduler.hpp"
#include "runtime/snapshot_registry.hpp"

namespace lotec {

/// Placement and schema of one shared object.
struct ObjectMeta {
  ClassId cls{};
  NodeId creator{};
  std::size_t num_pages = 0;
  /// Resolved consistency protocol (class override or cluster default) —
  /// Section 6's per-class protocol extension.
  ProtocolKind protocol = ProtocolKind::kLotec;
};

class FamilyRunner;

/// Build the transport backend for `cfg`: the in-process accounting
/// Transport by default, or the cross-process WireTransport (src/wire)
/// when cfg.wire.enabled spawns one worker process per node.  Defined in
/// transport_factory.cpp so this header stays socket-free.
[[nodiscard]] std::unique_ptr<Transport> make_cluster_transport(
    const ClusterConfig& cfg);

/// Registry handles the family runners bump on their hot paths, resolved
/// once at cluster construction (a runner never touches the name map).
// clang-format off
#define LOTEC_CORE_COUNTERS(COUNTER)                      \
  COUNTER(commits, "txn.commits")                         \
  COUNTER(deadlock_retries, "txn.deadlock_retries")       \
  COUNTER(fault_retries, "txn.fault_retries")             \
  COUNTER(demand_fetches, "page.demand_fetches")          \
  COUNTER(pages_fetched, "page.fetched")                  \
  COUNTER(delta_pages, "page.delta")                      \
  COUNTER(remote_round_trips, "net.round_trips")          \
  COUNTER(page_evictions, "page.evicted")                 \
  COUNTER(local_lock_grants, "lock.local_grants")         \
  COUNTER(snapshot_reads, "snapshot.reads")               \
  COUNTER(snapshot_map_refreshes, "snapshot.map_refreshes") \
  COUNTER(snapshot_fetches, "snapshot.fetches")           \
  COUNTER(snapshot_local_hits, "snapshot.local_hits")     \
  COUNTER(snapshot_retries, "snapshot.retries")
// clang-format on
LOTEC_DEFINE_STATS_STRUCT(CoreCounters, LOTEC_CORE_COUNTERS);

/// `cfg` as a cluster runs it: node faults need a replicated directory
/// (directory state must survive its home node), so they switch
/// gdo.replicate on.
[[nodiscard]] inline ClusterConfig with_required_replication(
    ClusterConfig cfg) {
  if (cfg.fault.has_node_faults()) cfg.gdo.replicate = true;
  return cfg;
}

struct ClusterCore {
  explicit ClusterCore(const ClusterConfig& cfg)
      // validate() before any member sees the config: an incoherent config
      // must produce its UsageError, not whatever a member ctor does with
      // nonsense values.
      : config(with_required_replication((cfg.validate(), cfg))),
        transport_owner(make_cluster_transport(cfg)),
        transport(*transport_owner), gdo(transport, config.gdo, &obs.metrics),
        scheduler({.max_active = cfg.max_active_families,
                   .picker = cfg.schedule_picker},
                  obs.tracer) {
    obs.configure(cfg.obs, cfg.nodes);
    transport.set_tracer(&obs.tracer);
    transport.set_flight_recorder(obs.recorder.get());
    transport.set_timeseries(obs.timeseries.get());
    transport.set_send_counters(&obs.metrics.counter("net.logical_sends"),
                                &obs.metrics.counter("net.physical_sends"));
    gdo.set_tracer(&obs.tracer);
    if (cfg.check_sink != nullptr) {
      transport.set_probe(cfg.check_sink);
      gdo.set_check_sink(cfg.check_sink);
    }
    counters.resolve(obs.metrics);
    for (std::size_t k = 0; k < protocols.size(); ++k)
      protocols[k] = make_protocol(static_cast<ProtocolKind>(k));
    protocol = protocols[static_cast<std::size_t>(cfg.protocol)].get();
    nodes.reserve(cfg.nodes);
    for (std::size_t i = 0; i < cfg.nodes; ++i)
      nodes.push_back(
          std::make_unique<Node>(NodeId(static_cast<std::uint32_t>(i))));
    if (cfg.mv_read)
      for (auto& n : nodes)
        n->store.configure_retention(cfg.mv_version_ring, snapshots.fence());
    {
      MetricsCounter* retained = &obs.metrics.counter("cache.retained");
      MetricsCounter* revoked = &obs.metrics.counter("cache.revoked");
      for (auto& n : nodes) {
        n->lock_cache.set_counters(retained, revoked);
        if (cfg.check_sink != nullptr)
          n->lock_cache.set_check(cfg.check_sink, n->id);
      }
    }
    if (cfg.fault.enabled()) {
      fault = std::make_unique<FaultEngine>(cfg.fault, transport, gdo, nodes,
                                            cfg.page_size);
      fault->set_tracer(&obs.tracer);
      fault->set_flight_recorder(obs.recorder.get());
      fault->set_flight_dump(cfg.obs.flight_dump);
      if (cfg.check_sink != nullptr) fault->set_check_sink(cfg.check_sink);
      transport.set_fault_hooks(fault.get());
    }
    if (cfg.lock_cache) {
      // Revocation seam: the directory calls back into the caching site's
      // lock cache to collect the deferred release report and
      // erase/downgrade the entry.
      gdo.set_callback_handler(
          [this](ObjectId obj, NodeId site, LockMode requested) {
            return node(site).lock_cache.revoke(obj, requested);
          });
    }
  }

  /// The protocol governing one object (its class's override, or the
  /// cluster default).
  [[nodiscard]] const ConsistencyProtocol& protocol_for(
      const ObjectMeta& meta) const {
    return *protocols[static_cast<std::size_t>(meta.protocol)];
  }

  [[nodiscard]] Node& node(NodeId id) {
    if (!id.valid() || id.value() >= nodes.size())
      throw UsageError("ClusterCore: node id out of range");
    return *nodes[id.value()];
  }

  [[nodiscard]] ObjectMeta meta_of(ObjectId id) const {
    const auto it = objects.find(id);
    if (it == objects.end())
      throw UsageError("unknown object " + std::to_string(id.value()));
    return it->second;
  }

  /// Route a grant wakeup to the waiting family's runner (defined in
  /// family_runner.cpp — needs the complete FamilyRunner type).
  void deliver_grant(Grant grant);

  /// Evict LRU unpinned pages beyond the configured per-node cache budget
  /// (never the authoritative newest copy of a page).
  void enforce_cache_capacity(Node& node);

  /// Flush LRU cached global locks beyond config.lock_cache_capacity back
  /// to the directory (inter-family lock caching extension).
  void enforce_lock_cache_capacity(Node& node);

  /// Pages evicted across all nodes (cache-pressure metric).
  [[nodiscard]] std::uint64_t total_evicted_pages() const {
    std::uint64_t n = 0;
    for (const auto& node : nodes) {
      n += node->evicted_pages;
    }
    return n;
  }

  ClusterConfig config;
  /// Declared before transport/gdo: both capture pointers into it.
  Observability obs;
  CoreCounters counters;
  /// Owner + reference pair: the owner holds whichever backend the config
  /// selected; the reference keeps every `core.transport.` call site
  /// working unchanged against the polymorphic interface.
  std::unique_ptr<Transport> transport_owner;
  Transport& transport;
  GdoService gdo;
  /// Runs each execute() batch's families as fibers on the caller's
  /// thread; its stack pool lives as long as the cluster.
  TokenScheduler scheduler;
  ClassRegistry registry;
  /// One instance of every protocol (stateless policies).
  std::array<std::unique_ptr<ConsistencyProtocol>, kNumProtocols> protocols;
  /// The cluster default (== protocols[config.protocol]).
  ConsistencyProtocol* protocol = nullptr;
  /// Live snapshot stamps (mv_read).  Declared before `nodes`: every
  /// node's PageStore shares its fence pointer, so it must be destroyed
  /// after them.
  SnapshotRegistry snapshots;
  std::vector<std::unique_ptr<Node>> nodes;
  /// Deterministic fault engine (null when cfg.fault is empty).  Declared
  /// after `nodes` so it can capture references to them at construction.
  std::unique_ptr<FaultEngine> fault;

  FlatMap<ObjectId, ObjectMeta> objects;
  std::uint64_t next_object_id = 0;

  /// FamilyId -> runner, for wakeup delivery during a run.
  FlatMap<FamilyId, FamilyRunner*> runners;
};

}  // namespace lotec
