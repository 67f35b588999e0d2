// Event seam between the runtime and the schedule checker (src/check).
//
// The runtime layers (FamilyRunner, FamilyLockTable, GdoService,
// GlobalLockCache, FaultEngine, Transport) report semantically meaningful
// steps through this interface so the checker's invariant oracles can
// reconstruct what each explored schedule actually did — which transaction
// held which lock in which mode, which page versions each method body read,
// which versions the directory published — without the oracles reaching
// into runtime internals.
//
// Layering: this header is intentionally dependency-light (common ids,
// LockMode, the net-layer MessageProbe) so every producing layer can
// include it without a library cycle; the checker library proper
// (strategies, oracles, driver) links *against* the runtime, not the other
// way around.  A null sink costs one pointer comparison at each emission
// point; CheckSink's defaults are all no-ops so sinks override only what
// they consume.
//
// Sinks must be append-only observers — never call back into the cluster,
// never block.  Families run as fibers on one thread and exactly one runs
// at a time, so a sink sees a single linearized event stream.
#pragma once

#include <cstdint>

#include "common/ids.hpp"
#include "gdo/lock_mode.hpp"
#include "net/transport.hpp"

namespace lotec {

/// Why a global lock left a family (release-time classification).
enum class CheckReleaseReason : std::uint8_t {
  kRootCommit,   // end-of-family release with committed results
  kRootAbort,    // end-of-attempt release discarding results
  kSubtreeAbort  // mid-family release after a sub-transaction abort (Moss
                 // rule 4: only legal when no ancestor holds or retains)
};

[[nodiscard]] constexpr const char* to_string(CheckReleaseReason r) noexcept {
  switch (r) {
    case CheckReleaseReason::kRootCommit: return "root-commit";
    case CheckReleaseReason::kRootAbort: return "root-abort";
    case CheckReleaseReason::kSubtreeAbort: return "subtree-abort";
  }
  return "?";
}

class CheckSink : public MessageProbe {
 public:
  /// parent_serial for root transactions.
  static constexpr std::uint32_t kNoSerial = ~std::uint32_t{0};

  // -- transport ----------------------------------------------------------
  /// Every Transport::send / send_to_all, before fault verdicts (from
  /// MessageProbe).  Local src==dst sends included: the probe counts
  /// *steps*, the wire counters count traffic.
  void on_transport_message(const WireMessage& /*m*/) override {}

  // -- family lifecycle ---------------------------------------------------
  /// A family (re)starts an attempt; per-attempt oracle state resets here.
  virtual void on_attempt_start(FamilyId /*family*/) {}
  /// A (sub-)transaction begins; `parent_serial` is kNoSerial for roots.
  virtual void on_txn_begin(FamilyId /*family*/, std::uint32_t /*serial*/,
                            std::uint32_t /*parent_serial*/,
                            ObjectId /*target*/) {}
  /// A sub-transaction pre-commits: its locks pass to `parent_serial` as
  /// retained locks (Moss rule 3).
  virtual void on_pre_commit(FamilyId /*family*/, std::uint32_t /*serial*/,
                             std::uint32_t /*parent_serial*/) {}
  /// Serials [first_serial, end_serial) abort and drop out of the lock
  /// table (emitted before the corresponding kSubtreeAbort releases).
  virtual void on_subtree_abort(FamilyId /*family*/,
                                std::uint32_t /*first_serial*/,
                                std::uint32_t /*end_serial*/) {}
  /// Final outcome after the retry loop; accesses and stamps recorded
  /// during this family only "count" when committed is true.
  virtual void on_family_outcome(FamilyId /*family*/, bool /*committed*/) {}

  // -- locks --------------------------------------------------------------
  /// The family already held a compatible global lock; this serial joined
  /// locally (zero messages).
  virtual void on_local_grant(FamilyId /*family*/, std::uint32_t /*serial*/,
                              ObjectId /*object*/, LockMode /*mode*/) {}
  /// A global grant reached this serial.  `upgrade`: read→write on a held
  /// lock.  `cached_regrant`: satisfied by the site's GlobalLockCache
  /// without a directory round.  `prefetch`: granted to the family root by
  /// the prefetch batch rather than an on-demand acquire.
  virtual void on_global_grant(FamilyId /*family*/, std::uint32_t /*serial*/,
                               ObjectId /*object*/, LockMode /*mode*/,
                               bool /*upgrade*/, bool /*cached_regrant*/,
                               bool /*prefetch*/) {}
  /// A global lock left the family (after the directory processed it).
  virtual void on_lock_release(FamilyId /*family*/, ObjectId /*object*/,
                               CheckReleaseReason /*reason*/) {}
  /// The mutual-recursion preclusion rule fired (a write-involved
  /// invocation re-entered an object a distinct ancestor still holds).
  virtual void on_recursion_precluded(FamilyId /*family*/,
                                      std::uint32_t /*serial*/,
                                      ObjectId /*object*/) {}

  // -- pages --------------------------------------------------------------
  /// A method body touched `page` of `object` at local version `version`
  /// (0 = never written).  Emitted per page, after freshness enforcement.
  virtual void on_page_access(FamilyId /*family*/, std::uint32_t /*serial*/,
                              ObjectId /*object*/, PageIndex /*page*/,
                              Lsn /*version*/, bool /*write*/) {}
  /// The releasing site stamped a dirty page with its commit version
  /// (before the release publishes it; site-local until then).
  virtual void on_commit_stamp(FamilyId /*family*/, ObjectId /*object*/,
                               PageIndex /*page*/, Lsn /*version*/,
                               NodeId /*site*/) {}
  /// The directory recorded `version` as the newest copy of `page` at
  /// `site` — the publication step every later grant must observe.  `tick`
  /// is the global commit tick published with the version (0 for residency
  /// re-records that introduce no new version).
  virtual void on_directory_stamp(ObjectId /*object*/, PageIndex /*page*/,
                                  Lsn /*version*/, NodeId /*site*/,
                                  std::uint64_t /*tick*/) {}
  /// A snapshot-isolated read-only family resolved `page` of `object` to
  /// committed `version` under its start stamp (mv_read extension; no lock,
  /// no on_page_access).  The serializability oracle checks `version` is
  /// the newest publication with tick <= `stamp` and folds the read into
  /// the conflict graph.
  virtual void on_snapshot_read(FamilyId /*family*/, std::uint32_t /*serial*/,
                                ObjectId /*object*/, PageIndex /*page*/,
                                Lsn /*version*/, std::uint64_t /*stamp*/) {}

  // -- lock cache / faults ------------------------------------------------
  /// `site` now holds (or downgraded to) a cached inter-family lock.
  virtual void on_cache_put(NodeId /*site*/, ObjectId /*object*/,
                            LockMode /*mode*/) {}
  /// `site` no longer holds a cached lock on `object` (eviction,
  /// revocation, drain, or crash wipe).
  virtual void on_cache_drop(NodeId /*site*/, ObjectId /*object*/) {}
  /// `node` crashed; `crash_count` is its post-increment epoch.
  virtual void on_node_crash(NodeId /*node*/, std::uint64_t /*crash_count*/) {}
  virtual void on_node_restart(NodeId /*node*/) {}
};

}  // namespace lotec
