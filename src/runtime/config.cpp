#include "runtime/config.hpp"

#include <string>

namespace lotec {

void ClusterConfig::validate() const {
  if (nodes == 0) throw UsageError("ClusterConfig: nodes must be >= 1");
  if (page_size == 0) throw UsageError("ClusterConfig: page_size must be > 0");
  if (max_active_families == 0)
    throw UsageError("ClusterConfig: max_active_families must be >= 1");
  if (lock_cache_capacity > 0 && !lock_cache)
    throw UsageError(
        "ClusterConfig: lock_cache_capacity = " +
        std::to_string(lock_cache_capacity) +
        " but lock_cache is off — enable lock_cache or drop the capacity");
  const auto check_probability = [](double p, const char* name) {
    if (p < 0.0 || p > 1.0)
      throw UsageError(std::string("ClusterConfig: fault.") + name +
                       " must be a probability in [0, 1]; got " +
                       std::to_string(p));
  };
  check_probability(fault.drop_probability, "drop_probability");
  check_probability(fault.duplicate_probability, "duplicate_probability");
  check_probability(fault.delay_probability, "delay_probability");
  const auto in_cluster = [&](NodeId n) {
    return n.valid() && n.value() < nodes;
  };
  for (std::size_t i = 0; i < fault.events.size(); ++i) {
    const FaultEvent& ev = fault.events[i];
    const bool node_action = ev.action == FaultAction::kCrashNode ||
                             ev.action == FaultAction::kRestartNode;
    if (node_action && ev.target == FaultTarget::kFixed &&
        !in_cluster(ev.node))
      throw UsageError(
          "ClusterConfig: fault event #" + std::to_string(i) +
          " crashes/restarts node " +
          (ev.node.valid() ? std::to_string(ev.node.value()) : "<invalid>") +
          " but the cluster has nodes 0.." + std::to_string(nodes - 1) +
          " — there is no such node to fault");
    for (const NodeId n : ev.group_a)
      if (!in_cluster(n))
        throw UsageError(
            "ClusterConfig: fault event #" + std::to_string(i) +
            " partitions node " + std::to_string(n.value()) +
            " outside the cluster (nodes 0.." + std::to_string(nodes - 1) +
            ")");
    for (const NodeId n : ev.group_b)
      if (!in_cluster(n))
        throw UsageError(
            "ClusterConfig: fault event #" + std::to_string(i) +
            " partitions node " + std::to_string(n.value()) +
            " outside the cluster (nodes 0.." + std::to_string(nodes - 1) +
            ")");
  }
  if (!obs.trace_spans &&
      (!obs.spans_jsonl.empty() || !obs.chrome_trace.empty()))
    throw UsageError(
        "ClusterConfig: spans_jsonl/chrome_trace name span output files "
        "but trace_spans is off — set trace_spans = true to record spans");
  if (fault.has_node_faults() && !gdo.replicate)
    throw UsageError(
        "ClusterConfig: node crash/restart faults require gdo.replicate "
        "(directory state must survive its home node)");
  if (mv_read) {
    if (lock_cache)
      throw UsageError(
          "ClusterConfig: mv_read cannot be combined with lock_cache — "
          "deferred (cached) releases publish versions without commit "
          "ticks, so a snapshot reader could miss a committed write that "
          "precedes its stamp; run one or the other");
    if (wire.enabled)
      throw UsageError(
          "ClusterConfig: mv_read cannot be combined with the wire "
          "transport (--distributed) — snapshot fetches are defined over "
          "the in-process transport only");
    if (fault.enabled())
      throw UsageError(
          "ClusterConfig: mv_read cannot be combined with fault injection "
          "— lease reclamation rolls published versions back, which would "
          "break snapshot-stamp monotonicity");
    if (mv_version_ring == 0)
      throw UsageError(
          "ClusterConfig: mv_read requires mv_version_ring >= 1 (a reader "
          "overlapping a writer needs at least the before-image retained)");
  }
  if (net.batch_messages && fault.enabled())
    throw UsageError(
        "ClusterConfig: net.batch_messages cannot be combined with fault "
        "injection — batched tails defer their delivery acknowledgement, "
        "which would mask per-message fault verdicts; run faults with "
        "batching off");
  if (gdo.ring.enabled) {
    if (!gdo.replicate)
      throw UsageError(
          "ClusterConfig: the elastic directory (gdo.ring) requires "
          "gdo.replicate — quorum mirror groups are built on the "
          "replication machinery; enable gdo.replicate");
    if (nodes < 2)
      throw UsageError(
          "ClusterConfig: the elastic directory (gdo.ring) needs at least "
          "2 nodes (a mirror group must have somewhere to live)");
    if (gdo.ring.mirror_group == 0 || gdo.ring.mirror_group >= nodes)
      throw UsageError(
          "ClusterConfig: gdo.ring.mirror_group must lie in [1, nodes-1]; "
          "got " + std::to_string(gdo.ring.mirror_group) + " with " +
          std::to_string(nodes) + " nodes");
    if (gdo.ring.virtual_nodes == 0)
      throw UsageError(
          "ClusterConfig: gdo.ring.virtual_nodes must be >= 1 (a member "
          "needs at least one token on the ring)");
    if (wire.enabled)
      throw UsageError(
          "ClusterConfig: the elastic directory (gdo.ring) cannot be "
          "combined with the wire transport (--distributed) — shard "
          "migration moves directory entries through in-process state the "
          "worker fleet does not mirror; run --rebalance without "
          "--distributed");
    if (mv_read)
      throw UsageError(
          "ClusterConfig: the elastic directory (gdo.ring) cannot be "
          "combined with mv_read — a snapshot reader resolves its map at "
          "the static home, and a mid-read shard migration would serve it "
          "two different owners; run one or the other");
    if (lock_cache)
      throw UsageError(
          "ClusterConfig: the elastic directory (gdo.ring) cannot be "
          "combined with lock_cache — cached-holder markers are leased "
          "against a fixed serving node and do not survive a shard "
          "handoff; run one or the other");
  }
  for (std::size_t i = 0; i < fault.events.size(); ++i) {
    const FaultEvent& ev = fault.events[i];
    if (ev.action != FaultAction::kRingLeave &&
        ev.action != FaultAction::kRingJoin)
      continue;
    if (!gdo.ring.enabled)
      throw UsageError(
          "ClusterConfig: fault event #" + std::to_string(i) +
          " changes ring membership but the elastic directory is off — "
          "enable gdo.ring.enabled (soak: pass --rebalance)");
    if (ev.target != FaultTarget::kFixed || !in_cluster(ev.node))
      throw UsageError(
          "ClusterConfig: fault event #" + std::to_string(i) +
          " needs a fixed ring member inside the cluster (nodes 0.." +
          std::to_string(nodes - 1) + ")");
  }
  if (wire.enabled) {
    if (schedule_picker)
      throw UsageError(
          "ClusterConfig: the wire transport (--distributed) cannot be "
          "combined with schedule exploration — controlled schedules are "
          "defined over the in-process transport only; run --explore/"
          "--schedule without --distributed");
    if (check_sink != nullptr)
      throw UsageError(
          "ClusterConfig: the wire transport (--distributed) cannot be "
          "combined with a check sink — the serializability checker "
          "observes the in-process transport only; run --check without "
          "--distributed");
    if (fault.drop_probability > 0.0 || fault.duplicate_probability > 0.0 ||
        fault.delay_probability > 0.0)
      throw UsageError(
          "ClusterConfig: the wire transport (--distributed) cannot be "
          "combined with FaultEngine message chaos (drop/duplicate/delay "
          "probabilities) — the wire has its own loss handling; use "
          "crash/restart and partition events instead");
    for (std::size_t i = 0; i < fault.events.size(); ++i)
      if (fault.events[i].action == FaultAction::kDropMessage)
        throw UsageError(
            "ClusterConfig: fault event #" + std::to_string(i) +
            " drops a message, which the wire transport (--distributed) "
            "does not support — use crash/restart or partition events");
  }
}

}  // namespace lotec
