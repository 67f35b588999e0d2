// Transport: the single choke point for cross-node communication.
//
// Nodes in this reproduction live in one process, so "sending" a message is
// a direct call into the destination's service object — but every such call
// must pass its WireMessage(s) through the Transport, which (a) accounts
// them in NetworkStats, (b) enforces reachability (a node can be marked
// failed to exercise GDO replica failover), (c) knows whether the network
// is multicast-capable (Section 6 extension), and (d) consults the
// installed FaultHooks, the seam through which the fault-injection engine
// (src/fault) drops, duplicates and delays messages and advances its
// logical clock.  With no hooks installed the fault paths cost one pointer
// comparison — the disabled engine is free.
//
// Local operations (src == dst) are free: the paper's model charges network
// cost only for inter-site messages, and the locking-overhead analysis of
// Section 5.1 counts them separately.
#pragma once

#include <cstddef>
#include <vector>

#include "common/error.hpp"
#include "net/net_stats.hpp"
#include "obs/flight_recorder.hpp"
#include "obs/span.hpp"
#include "obs/timeseries.hpp"

namespace lotec {

/// A message could not be delivered because a node is failed (crashed) or
/// the link between src and dst is partitioned.  Carries both endpoints:
/// the sender needs to know *which* side failed to pick a recovery path
/// (relocate itself vs retry against another copy).  `src` may be invalid
/// when the failure is detected outside a concrete send (directory routing).
class NodeUnreachable : public Error {
 public:
  explicit NodeUnreachable(NodeId dst)
      : Error("node " + std::to_string(dst.value()) + " unreachable"),
        dst_(dst) {}
  NodeUnreachable(NodeId src, NodeId dst)
      : Error("node " + std::to_string(dst.value()) + " unreachable from " +
              (src.valid() ? std::to_string(src.value()) : "?")),
        src_(src),
        dst_(dst) {}

  [[nodiscard]] NodeId src() const noexcept { return src_; }
  /// The unreachable node (kept as `node()` for pre-fault-engine callers).
  [[nodiscard]] NodeId node() const noexcept { return dst_; }

 private:
  NodeId src_{};
  NodeId dst_;
};

/// A message was lost in transit by the fault engine.  Distinct from
/// NodeUnreachable (both endpoints are up); the runtime treats both as
/// transient and retries with backoff.
class MessageDropped : public Error {
 public:
  explicit MessageDropped(const WireMessage& m)
      : Error(std::string("message ") + std::string(to_string(m.kind)) +
              " " + std::to_string(m.src.value()) + "->" +
              std::to_string(m.dst.value()) + " dropped by fault injection"),
        kind_(m.kind) {}
  [[nodiscard]] MessageKind kind() const noexcept { return kind_; }

 private:
  MessageKind kind_;
};

/// The seam between the network substrate and the fault-injection engine
/// (src/fault implements this; net stays dependency-free).  `on_message` is
/// consulted for every send *before* reachability checks: it advances the
/// engine's logical clock, fires due schedule events (which may flip node
/// reachability via Transport::set_node_failed), and decides message fate —
/// it may throw MessageDropped / NodeUnreachable (partition), and returns
/// the number of EXTRA copies to account (duplication).
///
/// The query surface (now / crash_count / lease_term) is what the GDO's
/// lock-lease machinery reads to detect orphaned locks: a holder installed
/// at crash epoch E whose node is now at epoch > E belongs to a dead
/// incarnation and may be reclaimed once its lease expires.
class FaultHooks {
 public:
  virtual ~FaultHooks() = default;

  /// May throw MessageDropped or NodeUnreachable; returns extra copies to
  /// record (message duplication).
  virtual std::size_t on_message(const WireMessage& m) = 0;

  /// Logical time: messages consulted so far (the deterministic clock all
  /// schedule triggers and leases are expressed in).
  [[nodiscard]] virtual std::uint64_t now() const = 0;

  /// How many times `node` has crashed so far (its crash epoch).
  [[nodiscard]] virtual std::uint64_t crash_count(NodeId node) const = 0;

  /// Lease term (in logical ticks) granted with every global lock.
  [[nodiscard]] virtual std::uint64_t lease_term() const = 0;

  /// Atomic sections.  While at least one is open, due schedule events are
  /// deferred to the first message after the last section closes (the clock
  /// and background chaos still run).  The directory opens a section around
  /// each entry mutation *and its replica sync*: a crash event landing
  /// between the two would strand the mutation on the dying home alone —
  /// the caller keeps a grant (or loses a registration) that no surviving
  /// copy records.  A real primary acks only after the backup does; this is
  /// the synchronous emulation's equivalent of that ordering.
  virtual void begin_atomic() noexcept {}
  virtual void end_atomic() noexcept {}
};

/// RAII guard for FaultHooks atomic sections; no-op without hooks.
class FaultAtomicSection {
 public:
  explicit FaultAtomicSection(FaultHooks* hooks) noexcept : hooks_(hooks) {
    if (hooks_ != nullptr) hooks_->begin_atomic();
  }
  ~FaultAtomicSection() {
    if (hooks_ != nullptr) hooks_->end_atomic();
  }
  FaultAtomicSection(const FaultAtomicSection&) = delete;
  FaultAtomicSection& operator=(const FaultAtomicSection&) = delete;

 private:
  FaultHooks* hooks_;
};

/// Passive observation seam on the same choke point FaultHooks uses.  The
/// schedule checker (src/check) listens here to count delivery steps and
/// drive PCT priority changepoints.  A probe sees every message BEFORE the
/// fault engine's verdict — dropped or delayed messages still count as
/// steps, so step numbering is stable across fault outcomes — and it must
/// never send, mutate cluster state, or throw.  Disabled cost: one pointer
/// comparison per send (mirrors the fault and tracer seams).
class MessageProbe {
 public:
  virtual ~MessageProbe() = default;
  virtual void on_transport_message(const WireMessage& m) = 0;
};

struct NetworkConfig {
  bool multicast_capable = false;
  /// Coalesce same-round directory traffic (release, replica-sync, callback
  /// rounds) to one destination into one physical batch frame.  Off by
  /// default: the figures' logical per-kind counters are identical either
  /// way, but the physical ledger and wire-transport framing change, so the
  /// knob must be explicit.  Incompatible with the fault engine;
  /// ClusterConfig::validate enforces that.
  bool batch_messages = false;
};

/// Which message kinds may join a batch frame: round traffic the directory
/// emits in bursts to the same destination within one protocol action.
/// Grants, wakeups and fetches stay unbatched — their recipients act on
/// them immediately and reordering relative to the round would change the
/// schedule.
[[nodiscard]] constexpr bool batch_eligible(MessageKind k) noexcept {
  switch (k) {
    case MessageKind::kLockReleaseRequest:
    case MessageKind::kLockReleaseAck:
    case MessageKind::kGdoReplicaSync:
    case MessageKind::kGdoReplicaAck:
    case MessageKind::kLockCallback:
    case MessageKind::kCallbackReply:
      return true;
    default:
      return false;
  }
}

class Transport {
 public:
  explicit Transport(std::size_t num_nodes, NetworkConfig config = {})
      : config_(config), failed_(num_nodes, false) {}

  /// Polymorphic: the wire transport (src/wire) overrides the
  /// behavioral entry points below to ship each accounted message through
  /// real worker processes.  Not copyable, so slicing is not a hazard.
  virtual ~Transport() = default;
  Transport(const Transport&) = delete;
  Transport& operator=(const Transport&) = delete;

  [[nodiscard]] std::size_t num_nodes() const noexcept {
    return failed_.size();
  }
  [[nodiscard]] NetworkStats& stats() noexcept { return stats_; }
  [[nodiscard]] const NetworkStats& stats() const noexcept { return stats_; }
  [[nodiscard]] bool multicast_capable() const noexcept {
    return config_.multicast_capable;
  }

  /// Install (or clear) the fault-injection seam.  Owned by the caller.
  void set_fault_hooks(FaultHooks* hooks) noexcept { hooks_ = hooks; }
  [[nodiscard]] FaultHooks* fault_hooks() const noexcept { return hooks_; }

  /// Install (or clear) the span tracer whose logical clock advances once
  /// per message.  Owned by the caller.  Like the fault seam, a disabled
  /// tracer costs one pointer comparison plus one bool check per send.
  void set_tracer(SpanTracer* tracer) noexcept { tracer_ = tracer; }
  [[nodiscard]] SpanTracer* tracer() const noexcept { return tracer_; }

  /// Install (or clear) the passive message probe.  Owned by the caller.
  void set_probe(MessageProbe* probe) noexcept { probe_ = probe; }
  [[nodiscard]] MessageProbe* probe() const noexcept { return probe_; }

  /// Install (or clear) the timeseries collector whose logical window
  /// clock advances once per accounted message.  Owned by the caller.
  /// Same contract as the tracer seam: the collector never sends, so a
  /// run with telemetry on carries bit-identical traffic; when off the
  /// cost is one pointer comparison per send.
  void set_timeseries(TimeseriesCollector* collector) noexcept {
    timeseries_ = collector;
  }
  [[nodiscard]] TimeseriesCollector* timeseries() const noexcept {
    return timeseries_;
  }

  /// Install (or clear) the always-on logical/physical send tallies (the
  /// registry counters `net.logical_sends` / `net.physical_sends`), so the
  /// timeseries can rate batching effectiveness per window.  Owned by the
  /// caller (ClusterCore resolves them at construction).
  void set_send_counters(MetricsCounter* logical,
                         MetricsCounter* physical) noexcept {
    logical_sends_ = logical;
    physical_sends_ = physical;
  }

  /// Install (or clear) the always-on flight recorder; every send is
  /// mirrored into both endpoints' rings.  Owned by the caller.
  void set_flight_recorder(FlightRecorder* recorder) noexcept {
    recorder_ = recorder;
  }
  [[nodiscard]] FlightRecorder* flight_recorder() const noexcept {
    return recorder_;
  }

  /// Account one message.  Messages where src == dst are local and free.
  /// Throws NodeUnreachable if either endpoint is failed (a crashed sender
  /// cannot put anything on the wire) and propagates fault-engine verdicts
  /// (MessageDropped, partition NodeUnreachable).
  virtual void send(const WireMessage& m) {
    if (tracer_ != nullptr) tracer_->tick_message();
    stamp_and_record(m);
    if (probe_ != nullptr) probe_->on_transport_message(m);
    check_node(m.src);
    check_node(m.dst);
    std::size_t extra = 0;
    if (hooks_ != nullptr) extra = hooks_->on_message(m);
    if (failed_[m.src.value()]) throw NodeUnreachable(m.src, m.src);
    if (failed_[m.dst.value()]) throw NodeUnreachable(m.src, m.dst);
    if (m.src == m.dst) return;  // local, no network traffic
    // Batching decides the PHYSICAL fate only, after every per-message
    // semantic above (tick, stamp, probe, fault verdict, reachability) has
    // run unchanged — which is why the logical ledgers and the checker's
    // schedules are bit-identical whether the knob is on or off.
    const bool joined = note_batch(m);
    stats_.record(m, joined);
    for (std::size_t i = 0; i < extra; ++i) stats_.record(m);
    if (joined) ++window_joins_;
    if (logical_sends_ != nullptr) {
      logical_sends_->add(1 + extra);
      physical_sends_->add((joined ? 0 : 1) + extra);
    }
    if (timeseries_ != nullptr) timeseries_->on_message();
  }

  /// Open/close a batch window.  Within a window, the second and later
  /// batch-eligible messages to the same (src, dst) pair join the pair's
  /// open batch frame instead of paying a physical send.  Windows are
  /// opened around one protocol round (a release batch, a callback round);
  /// nesting is allowed and coalescing spans the outermost window.  No-ops
  /// when batching is off.
  void begin_batch_window() {
    if (!config_.batch_messages) return;
    ++batch_depth_;
  }
  void end_batch_window() {
    if (!config_.batch_messages || batch_depth_ == 0) return;
    if (--batch_depth_ == 0) {
      // Mark the flush point in the trace when the window actually
      // coalesced something (object carries the join count); instants send
      // nothing, so traffic stays identical.
      if (tracer_ != nullptr && window_joins_ > 0)
        tracer_->instant(SpanPhase::kBatchFlush, 0, 0, window_joins_);
      window_joins_ = 0;
      open_batches_.clear();
    }
  }

  [[nodiscard]] bool batching_enabled() const noexcept {
    return config_.batch_messages;
  }

  /// Account a one-to-many push (RC extension).  `destinations` that equal
  /// src are skipped.  With multicast the network carries one copy.
  ///
  /// Partial-failure semantics: failed destinations are SKIPPED and
  /// returned; stats record the successfully reached subset (with multicast
  /// one wire copy as long as at least one destination is reachable).  The
  /// caller must not apply the push's effects at the returned nodes.  A
  /// failed *source* still throws: a crashed node sends nothing.
  virtual std::vector<NodeId> send_to_all(
      const WireMessage& m, const std::vector<NodeId>& destinations) {
    if (tracer_ != nullptr) tracer_->tick_message();
    stamp_and_record(m);
    if (probe_ != nullptr) probe_->on_transport_message(m);
    check_node(m.src);
    if (hooks_ != nullptr) (void)hooks_->on_message(m);
    if (failed_[m.src.value()]) throw NodeUnreachable(m.src, m.src);
    std::vector<NodeId> unreachable;
    std::size_t remote = 0;
    for (const NodeId dst : destinations) {
      check_node(dst);
      if (dst == m.src) continue;
      if (failed_[dst.value()]) {
        unreachable.push_back(dst);
        continue;
      }
      ++remote;
    }
    if (remote > 0) {
      stats_.record_multicast(m, remote, config_.multicast_capable);
      const std::size_t copies = config_.multicast_capable ? 1 : remote;
      if (logical_sends_ != nullptr) {
        logical_sends_->add(copies);
        physical_sends_->add(copies);
      }
    }
    if (timeseries_ != nullptr) timeseries_->on_message();
    return unreachable;
  }

  /// Count a purely local lock operation (Section 5.1 accounting).
  void record_local_lock_op() { stats_.record_local_lock_op(); }

  [[nodiscard]] bool reachable(NodeId node) const {
    check_node(node);
    return !failed_[node.value()];
  }

  /// Mark a node failed/recovered (GDO failover tests and the fault
  /// engine's crash/restart events).  The wire transport overrides this to
  /// kill/respawn the corresponding worker process.
  virtual void set_node_failed(NodeId node, bool failed) {
    check_node(node);
    failed_[node.value()] = failed;
  }

  /// Called once by Cluster::execute after a batch drains, before results
  /// are assembled.  The wire transport gathers every worker's delivery
  /// ledger here and cross-checks it against what it shipped; the
  /// in-process transport has nothing to reconcile.
  virtual void on_batch_complete() {}

 protected:
  /// Decide whether `m` joins an open batch.  Returns false (and opens a
  /// batch head for the pair when eligible) outside that case.
  [[nodiscard]] bool note_batch(const WireMessage& m) {
    if (batch_depth_ == 0 || !batch_eligible(m.kind)) return false;
    const std::uint64_t pair =
        (static_cast<std::uint64_t>(m.src.value()) << 32) | m.dst.value();
    for (const std::uint64_t open : open_batches_)
      if (open == pair) return true;
    open_batches_.push_back(pair);  // m becomes the pair's batch head
    return false;
  }
  /// Stamp the sender's causal context into the frame padding and mirror
  /// the message into the tracer's record and the flight recorder.  Runs
  /// BEFORE the probe and the fault hooks so remote-side spans, checker
  /// probes and fault redeliveries all see the stamped context.  The stamp
  /// rides in WireMessage padding (`mutable TraceContext trace`) — zero
  /// accounted bytes, zero extra messages, and the checker's fingerprint
  /// hashes explicit fields only, so traffic stays bit-identical.
  void stamp_and_record(const WireMessage& m) {
    const bool traced = tracer_ != nullptr && tracer_->enabled();
    if (traced) m.trace = tracer_->current_context();
    if (!traced && recorder_ == nullptr) return;
    const std::uint64_t object =
        m.object.valid() ? m.object.value() : SpanRecord::kNoObject;
    if (traced) {
      tracer_->note_message(to_string(m.kind), m.src.value(), m.dst.value(),
                            object, m.total_bytes(), m.trace);
    }
    if (recorder_ != nullptr) {
      recorder_->note_message(to_string(m.kind), m.src.value(),
                              m.dst.value(), object, m.total_bytes(),
                              m.trace);
    }
  }

  void check_node(NodeId node) const {
    if (!node.valid() || node.value() >= failed_.size())
      throw UsageError("Transport: node id out of range");
  }

  NetworkConfig config_;
  NetworkStats stats_;
  std::vector<bool> failed_;
  FaultHooks* hooks_ = nullptr;
  SpanTracer* tracer_ = nullptr;
  MessageProbe* probe_ = nullptr;
  FlightRecorder* recorder_ = nullptr;
  TimeseriesCollector* timeseries_ = nullptr;
  MetricsCounter* logical_sends_ = nullptr;
  MetricsCounter* physical_sends_ = nullptr;
  /// Joins coalesced in the current batch window (batch.flush instant).
  std::uint64_t window_joins_ = 0;
  /// (src << 32 | dst) pairs with an open batch head in the current window.
  /// A round touches a handful of destinations, so a linear scan beats any
  /// map; cleared when the outermost window closes.
  std::vector<std::uint64_t> open_batches_;
  std::size_t batch_depth_ = 0;
};

/// RAII batch window (no-op when batching is disabled).
class BatchWindow {
 public:
  explicit BatchWindow(Transport& transport) noexcept
      : transport_(transport) {
    transport_.begin_batch_window();
  }
  ~BatchWindow() { transport_.end_batch_window(); }
  BatchWindow(const BatchWindow&) = delete;
  BatchWindow& operator=(const BatchWindow&) = delete;

 private:
  Transport& transport_;
};

}  // namespace lotec
