// Cluster: the public API of the LOTEC distributed object runtime.
//
// A Cluster is an in-process emulation of the paper's target system — a set
// of nodes with private memories joined by an accounted message transport,
// a partitioned/replicated GDO, and a DSM consistency protocol (COTEC /
// OTEC / LOTEC / RC) driven by nested object two-phase locking.
//
// Typical use:
//
//   ClusterConfig cfg;
//   cfg.nodes = 4;
//   cfg.protocol = ProtocolKind::kLotec;
//   Cluster cluster(cfg);
//
//   ClassId account = cluster.define_class(
//       ClassBuilder("Account", cfg.page_size)
//           .attribute("balance", 8)
//           .method("deposit", {"balance"}, {"balance"},
//                   [](MethodContext& ctx) {
//                     ctx.set<std::int64_t>("balance",
//                         ctx.get<std::int64_t>("balance") + 100);
//                   }));
//
//   ObjectId a = cluster.create_object(account);
//   TxnResult r = cluster.run_root(a, "deposit");
//
// Every run_root/execute call runs whole transaction families — locking,
// page transfer and undo are automatic; user code never writes a
// synchronization operation.
//
// Execution model: one thread.  execute() runs the batch's families as
// fibers on the calling thread, one at a time.  A Cluster is not
// thread-safe; use one Cluster per thread (separate Clusters on separate
// threads are fine).
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "runtime/family_runner.hpp"

namespace lotec {

/// Read-mostly introspection facade returned by Cluster::observe(): one
/// handle bundling the network stats, directory, fault engine and the
/// observability layer, so examples and tools stop collecting views through
/// four separate getters.  Cheap to construct (wraps a ClusterCore&); valid
/// as long as the Cluster is.
class ClusterObservation {
 public:
  explicit ClusterObservation(ClusterCore& core) noexcept : core_(core) {}

  [[nodiscard]] const ClusterConfig& config() const noexcept {
    return core_.config;
  }
  [[nodiscard]] NetworkStats& stats() noexcept {
    return core_.transport.stats();
  }
  [[nodiscard]] GdoService& gdo() noexcept { return core_.gdo; }
  [[nodiscard]] Transport& transport() noexcept { return core_.transport; }
  /// Null when the fault engine is not configured.
  [[nodiscard]] FaultEngine* fault_engine() noexcept {
    return core_.fault.get();
  }
  [[nodiscard]] MetricsRegistry& metrics() noexcept {
    return core_.obs.metrics;
  }
  [[nodiscard]] SpanTracer& tracer() noexcept { return core_.obs.tracer; }
  /// All spans recorded so far (empty unless config().obs.trace_spans).
  [[nodiscard]] std::vector<SpanRecord> spans() const {
    return core_.obs.tracer.spans();
  }
  /// All messages recorded so far (empty unless config().obs.trace_spans).
  [[nodiscard]] std::vector<MessageRecord> messages() const {
    return core_.obs.tracer.messages();
  }
  /// The always-on flight recorder (never null).
  [[nodiscard]] FlightRecorder* flight_recorder() noexcept {
    return core_.obs.recorder.get();
  }
  /// Null unless config().obs.timeseries (PROTOCOL.md §16).
  [[nodiscard]] TimeseriesCollector* timeseries() noexcept {
    return core_.obs.timeseries.get();
  }
  /// Pages evicted under cache pressure across all nodes.
  [[nodiscard]] std::uint64_t evicted_pages() const {
    return core_.total_evicted_pages();
  }

 private:
  ClusterCore& core_;
};

class Cluster {
 public:
  explicit Cluster(ClusterConfig config);

  Cluster(const Cluster&) = delete;
  Cluster& operator=(const Cluster&) = delete;

  // --- schema & objects ----------------------------------------------------

  /// Register a class; the schema is replicated to all nodes.
  ClassId define_class(const ClassBuilder& builder) {
    return core_.registry.register_class(builder);
  }

  [[nodiscard]] const ClassDef& class_def(ClassId id) const {
    return core_.registry.get(id);
  }
  [[nodiscard]] ClassId find_class(const std::string& name) const {
    return core_.registry.find(name);
  }

  /// Create a shared object of class `cls` whose pages initially live
  /// (zero-filled) at `where` (default: round-robin placement).
  ObjectId create_object(ClassId cls, NodeId where = NodeId{});

  [[nodiscard]] ObjectMeta meta_of(ObjectId id) const {
    return core_.meta_of(id);
  }
  [[nodiscard]] MethodId method_id(ObjectId object,
                                   const std::string& method) const {
    return core_.registry.get(core_.meta_of(object).cls).find_method(method);
  }

  // --- execution -------------------------------------------------------------

  /// Execute a batch of root transactions (one family each), each family a
  /// fiber on the calling thread.  Results are positionally aligned with
  /// requests.
  std::vector<TxnResult> execute(std::vector<RootRequest> requests);

  /// Convenience: run one root transaction to completion.
  TxnResult run_root(ObjectId object, const std::string& method,
                     NodeId node = NodeId{});

  // --- oracle access (tests / examples; NOT charged to the network) --------

  /// Read an attribute's newest committed value by consulting the GDO page
  /// map directly.  Only meaningful while no transactions are running.
  template <PlainValue T>
  [[nodiscard]] T peek(ObjectId object, const std::string& attr) const {
    const ClassDef& cls = core_.registry.get(core_.meta_of(object).cls);
    const AttrId a = cls.layout().find(attr);
    std::vector<std::byte> buf(sizeof(T));
    peek_raw(object, cls.layout().offset_of(a), buf);
    return decode_value<T>(buf);
  }

  [[nodiscard]] std::string peek_string(ObjectId object,
                                        const std::string& attr) const {
    const ClassDef& cls = core_.registry.get(core_.meta_of(object).cls);
    const AttrId a = cls.layout().find(attr);
    std::vector<std::byte> buf(cls.layout().attribute(a).size_bytes);
    peek_raw(object, cls.layout().offset_of(a), buf);
    return decode_string(buf);
  }

  /// Read the newest committed content of one whole page (gathered from the
  /// owning site per the GDO page map).  Snapshot/persistence support; only
  /// meaningful while quiescent.
  void peek_page(ObjectId object, PageIndex page,
                 std::span<std::byte> out) const;

  /// Overwrite one page of a freshly created object (snapshot restore).
  /// The page must still reside, unmodified (version 0), at its creating
  /// site — i.e. no transaction has touched the object yet.
  void restore_page(ObjectId object, PageIndex page,
                    std::span<const std::byte> in);

  // --- introspection ---------------------------------------------------------

  /// The unified introspection facade (stats / gdo / fault engine / metrics
  /// / spans); prefer this over the individual getters below, which are
  /// kept for existing call sites.
  [[nodiscard]] ClusterObservation observe() noexcept {
    return ClusterObservation(core_);
  }

  [[nodiscard]] const ClusterConfig& config() const noexcept {
    return core_.config;
  }
  [[nodiscard]] NetworkStats& stats() noexcept {
    return core_.transport.stats();
  }
  [[nodiscard]] const NetworkStats& stats() const noexcept {
    return core_.transport.stats();
  }
  [[nodiscard]] GdoService& gdo() noexcept { return core_.gdo; }
  [[nodiscard]] Transport& transport() noexcept { return core_.transport; }
  [[nodiscard]] Node& node(NodeId id) { return core_.node(id); }
  [[nodiscard]] std::size_t num_nodes() const noexcept {
    return core_.nodes.size();
  }
  /// Pages evicted under cache pressure across all nodes.
  [[nodiscard]] std::uint64_t total_evicted_pages() const {
    return core_.total_evicted_pages();
  }
  /// The fault engine, when cfg.fault is non-empty (else nullptr).
  [[nodiscard]] FaultEngine* fault_engine() noexcept {
    return core_.fault.get();
  }
  [[nodiscard]] const FaultEngine* fault_engine() const noexcept {
    return core_.fault.get();
  }

 private:
  /// Gather `out.size()` bytes of `object` starting at `offset` from the
  /// sites the page map says hold the newest copies.
  void peek_raw(ObjectId object, std::uint64_t offset,
                std::span<std::byte> out) const;

  ClusterCore core_;
  std::uint64_t next_family_ = 1;
  std::uint64_t execute_count_ = 0;
  std::uint32_t placement_rr_ = 0;
};

}  // namespace lotec
