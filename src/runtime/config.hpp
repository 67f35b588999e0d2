// Cluster configuration and per-root-transaction results.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "common/error.hpp"
#include "common/ids.hpp"
#include "fault/fault_schedule.hpp"
#include "gdo/gdo_service.hpp"
#include "net/transport.hpp"
#include "net/wire_config.hpp"
#include "obs/observability.hpp"
#include "page/undo_log.hpp"
#include "protocol/protocol.hpp"
#include "runtime/scheduler.hpp"

namespace lotec {

class CheckSink;

/// Declared intent of a root family, validated at submission (a declared
/// read-only family whose root method writes — or *may* write, via
/// may_access_undeclared — is rejected before it runs).  With
/// ClusterConfig::mv_read on, read-only families take the snapshot path:
/// no locks, no GDO lock rounds, never blocking or aborting writers.  With
/// it off the kind is inert — purely a validated annotation — so traffic
/// stays bit-identical.
enum class FamilyKind : std::uint8_t { kReadWrite, kReadOnly };

[[nodiscard]] constexpr const char* to_string(FamilyKind k) noexcept {
  switch (k) {
    case FamilyKind::kReadWrite: return "read-write";
    case FamilyKind::kReadOnly: return "read-only";
  }
  return "?";
}

struct ClusterConfig {
  /// Number of nodes (sites) in the distributed system.
  std::size_t nodes = 4;
  /// Which consistency protocol maintains the DSM.
  ProtocolKind protocol = ProtocolKind::kLotec;
  /// DSM page size in bytes.
  std::uint32_t page_size = 4096;
  /// UNDO implementation (Section 4.1: "local UNDO logs or shadow pages").
  UndoStrategy undo = UndoStrategy::kByteRange;
  GdoConfig gdo;
  NetworkConfig net;
  /// Deterministic fault injection (crashes, restarts, partitions, message
  /// chaos).  Node faults require gdo.replicate so directory state
  /// survives its home.
  FaultConfig fault;
  /// Cross-process wire transport (src/wire): run one lotec_worker OS
  /// process per node and ship every accounted message over real sockets.
  /// Incompatible with schedule exploration, check sinks and FaultEngine
  /// *message* faults (crash/restart and partitions work — worker processes
  /// really die).
  WireConfig wire;
  /// Seed for every random decision (scheduling, workload bodies).
  std::uint64_t seed = 1;
  /// Families concurrently active (threads).
  std::size_t max_active_families = 16;
  /// Restart budget for deadlock victims.
  int max_retries = 50;
  /// Reject method accesses outside the declared attribute sets (the
  /// compiler's conservative analysis must cover every access; methods with
  /// data-dependent accesses set MethodDef::may_access_undeclared).
  bool strict_access_checks = true;
  /// Inter-family lock caching (callback locking): a site retains its
  /// global locks across family lifetimes and re-grants them locally with
  /// zero messages; conflicting remote requests revoke them via a callback
  /// round.  Off by default — the paper's figures are produced without it.
  bool lock_cache = false;
  /// Cached global locks kept per site; 0 = unbounded.  Beyond the budget
  /// the least-recently-used cached lock is flushed back to the directory.
  std::size_t lock_cache_capacity = 0;
  /// Multi-version snapshot reads: declared read-only families resolve
  /// every page against the newest committed version at or below a start
  /// stamp instead of locking.  Commit ticks are allocated and published
  /// unconditionally (they ride existing frames and map entries at zero
  /// modeled wire cost, like the PR 5 trace context in frame padding), so
  /// with this off the wire traffic is bit-identical — only the read path
  /// is gated.  Incompatible with lock_cache (deferred stamping publishes
  /// versions without ticks), the wire transport, and fault injection.
  bool mv_read = false;
  /// Committed versions retained per page beyond the live one when mv_read
  /// is on (the paper-side bound on snapshot lag).  GC additionally fences
  /// on the oldest live snapshot stamp, so a pinned version is never
  /// reclaimed even past this bound.
  std::size_t mv_version_ring = 4;
  /// Per-node cache budget in pages; 0 = unbounded.  Under pressure the
  /// least-recently-acquired unpinned objects lose the pages whose
  /// authoritative newest copy lives elsewhere (a site never discards the
  /// only up-to-date copy of a page).  Evicted pages are simply re-fetched
  /// by the normal transfer/demand machinery on the next acquisition.
  std::size_t cache_capacity_pages = 0;
  /// Observability: span tracing config (metrics counters are always on).
  ObsConfig obs;
  /// Controlled scheduling (src/check): when set, replaces the token
  /// scheduler's seeded RNG at every decision point with more than one
  /// choice.
  SchedulePicker schedule_picker;
  /// Invariant-oracle event sink (src/check).  Not owned; must outlive the
  /// cluster.  Null (the default) costs one pointer comparison per emission
  /// point and leaves message traffic bit-identical.
  CheckSink* check_sink = nullptr;
  /// Test-only correctness mutations, hidden behind this struct so no
  /// production path flips them by accident.  The mutation tests in
  /// tests/check_*.cpp break an invariant on purpose and assert the
  /// checker's oracles produce a counterexample.
  struct TestMutations {
    /// Break Moss retained-lock inheritance: a pre-committing
    /// sub-transaction RELEASES the global locks only its subtree touched
    /// (publishing its writes) instead of passing them up retained.
    bool break_retention = false;
  } test_mutations;

  /// Reject incoherent knob combinations with an actionable UsageError.
  /// Called by ClusterCore construction (so directly-built clusters get the
  /// same errors as run_scenario) and by ExperimentOptions::validate().
  void validate() const;
};

/// Outcome and per-family metrics of one root transaction.
struct TxnResult {
  bool committed = false;
  /// Final abort reason when !committed.
  AbortReason reason = AbortReason::kUser;
  /// Execution attempts (1 + deadlock restarts).
  int attempts = 0;
  int deadlock_retries = 0;
  /// Restarts forced by injected faults (crashes / dropped messages).
  int fault_retries = 0;
  /// The family's site crashed after commit processing had begun; the
  /// outcome at the directory is undefined-but-consistent (some locks
  /// released and pages stamped, the rest reclaimed by lease), so the
  /// family is reported failed without retry.
  bool crashed_in_commit = false;
  /// Transactions in the family's tree (last attempt).
  std::uint32_t txns_in_tree = 0;
  std::uint64_t demand_fetches = 0;
  std::uint64_t pages_fetched = 0;
  /// Pages whose transfer was satisfied by a sub-page delta (DSD mode).
  std::uint64_t delta_pages = 0;
  /// Blocking remote round trips on the family's critical path (lock
  /// acquisitions that left the site, page-fetch batches per source site,
  /// demand fetches).  The Section 5.1 prefetch ablation reduces these.
  std::uint64_t remote_round_trips = 0;
  std::uint64_t local_lock_grants = 0;
};

/// One root transaction to execute: the user invokes `method` on `object`.
struct RootRequest {
  ObjectId object{};
  MethodId method{};
  /// Site where the family executes; invalid = round-robin placement.
  NodeId node{};
  /// Section 5.1 extension: objects whose locks (and predicted pages) are
  /// optimistically pre-acquired at family start, pipelined as one batch.
  /// Each entry names the method that will later run on that object so the
  /// lock mode and page prediction can be derived.
  std::vector<std::pair<ObjectId, MethodId>> prefetch;
  /// Opaque per-family payload retrievable via MethodContext::user_data()
  /// (the workload generator hangs each family's invocation script here).
  std::shared_ptr<const void> user_data;
  /// Declared intent (see FamilyKind): kReadOnly is validated against the
  /// root method's declaration at submission and, under mv_read, routes the
  /// family through the lock-free snapshot path.
  FamilyKind kind = FamilyKind::kReadWrite;
};

}  // namespace lotec
