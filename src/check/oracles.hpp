// Invariant oracles: event-sourced checkers that watch one schedule through
// the CheckSink seam and report the first invariant violation they can
// prove from the event stream.
//
//   SerializabilityOracle  committed root families must be conflict-
//                          serializable: the wr/ww/rw conflict graph over
//                          (object, page, version) accesses and commit
//                          stamps must be acyclic (Section 3's correctness
//                          target for nested families).  Snapshot reads
//                          (mv_read) join the graph as plain reads and are
//                          additionally checked against version order: each
//                          must observe the newest ticked publication at or
//                          below its stamp.
//   LockDisciplineOracle   shadow-Moss lock accounting: rule-3 retention at
//                          pre-commit, rule-1 ancestor-only retainers at
//                          grant, and no mid-family (kSubtreeAbort) release
//                          while an ancestor still holds or retains — the
//                          invariant the break_retention mutation violates.
//   CoherenceOracle        a method body must never execute against a page
//                          version older than the newest committed write
//                          the directory has published for that page (all
//                          four protocols), and every directory publication
//                          must trace back to a site-side commit stamp.
//   CacheEpochOracle       no two sites may simultaneously believe they
//                          hold a cached global lock on the same object in
//                          conflicting modes (lock-cache / lease safety).
//
// All oracles are passive CheckSinks; the FanoutSink multiplexes the
// cluster's single sink slot across them and feeds the strategy (message
// steps for PCT, lock footprints for DFS).  Violation details are built
// from ids only, so a replayed schedule reproduces the identical string —
// the property the minimizer and the bit-identity verifier rely on.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "check/events.hpp"

namespace lotec::check {

class Strategy;

struct Violation {
  std::string oracle;
  std::string detail;

  friend bool operator==(const Violation&, const Violation&) = default;
};

class OracleBase : public CheckSink {
 public:
  [[nodiscard]] virtual const char* name() const noexcept = 0;
  /// End-of-schedule verdict; event-time violations are latched and
  /// returned here too (first one wins).
  [[nodiscard]] virtual std::optional<Violation> finish() = 0;

 protected:
  void flag(const std::string& detail) {
    if (!violation_) violation_ = Violation{name(), detail};
  }
  std::optional<Violation> violation_;
};

class SerializabilityOracle final : public OracleBase {
 public:
  [[nodiscard]] const char* name() const noexcept override {
    return "serializability";
  }
  [[nodiscard]] std::optional<Violation> finish() override;

  void on_attempt_start(FamilyId family) override;
  void on_page_access(FamilyId family, std::uint32_t serial, ObjectId object,
                      PageIndex page, Lsn version, bool write) override;
  void on_commit_stamp(FamilyId family, ObjectId object, PageIndex page,
                       Lsn version, NodeId site) override;
  void on_directory_stamp(ObjectId object, PageIndex page, Lsn version,
                          NodeId site, std::uint64_t tick) override;
  void on_snapshot_read(FamilyId family, std::uint32_t serial, ObjectId object,
                        PageIndex page, Lsn version,
                        std::uint64_t stamp) override;
  void on_subtree_abort(FamilyId family, std::uint32_t first_serial,
                        std::uint32_t end_serial) override;
  void on_family_outcome(FamilyId family, bool committed) override;

 private:
  struct Access {
    std::uint32_t serial;
    std::uint64_t object;
    std::uint32_t page;
    Lsn version;
    bool write;
  };
  struct Stamp {
    std::uint64_t object;
    std::uint32_t page;
    Lsn version;
  };
  struct SnapRead {
    std::uint32_t serial;
    std::uint64_t object;
    std::uint32_t page;
    Lsn version;
    std::uint64_t stamp;
  };
  struct Fam {
    std::vector<Access> accesses;
    std::vector<Stamp> stamps;
    std::vector<SnapRead> snapshot_reads;
    bool committed = false;
  };
  std::map<std::uint64_t, Fam> fams_;
  /// Ticked directory publications per (object, page): the version order a
  /// snapshot read must be consistent with.  Residency re-records (tick 0)
  /// introduce no version and are excluded.
  std::map<std::pair<std::uint64_t, std::uint32_t>,
           std::vector<std::pair<std::uint64_t, Lsn>>> ticked_pubs_;
};

class LockDisciplineOracle final : public OracleBase {
 public:
  [[nodiscard]] const char* name() const noexcept override {
    return "lock-discipline";
  }
  [[nodiscard]] std::optional<Violation> finish() override {
    return violation_;
  }

  void on_attempt_start(FamilyId family) override;
  void on_txn_begin(FamilyId family, std::uint32_t serial,
                    std::uint32_t parent_serial, ObjectId target) override;
  void on_local_grant(FamilyId family, std::uint32_t serial, ObjectId object,
                      LockMode mode) override;
  void on_global_grant(FamilyId family, std::uint32_t serial, ObjectId object,
                       LockMode mode, bool upgrade, bool cached_regrant,
                       bool prefetch) override;
  void on_pre_commit(FamilyId family, std::uint32_t serial,
                     std::uint32_t parent_serial) override;
  void on_subtree_abort(FamilyId family, std::uint32_t first_serial,
                        std::uint32_t end_serial) override;
  void on_lock_release(FamilyId family, ObjectId object,
                       CheckReleaseReason reason) override;
  void on_family_outcome(FamilyId family, bool committed) override;

  /// Mutual-recursion preclusions observed (the checker reports how often
  /// the Section 3.4 rule actually fired across explored schedules).
  void on_recursion_precluded(FamilyId /*family*/, std::uint32_t /*serial*/,
                              ObjectId /*object*/) override {
    ++recursion_preclusions_;
  }
  [[nodiscard]] std::uint64_t recursion_preclusions() const noexcept {
    return recursion_preclusions_;
  }

 private:
  struct ShadowLock {
    std::map<std::uint32_t, LockMode> holders;
    std::set<std::uint32_t> retainers;
  };
  struct Fam {
    std::map<std::uint32_t, std::uint32_t> parent;  // serial -> parent
    std::map<std::uint64_t, ShadowLock> locks;      // by object value
    /// A subtree abort was reported and its rule-4 releases are expected.
    bool abort_pending = false;
  };
  [[nodiscard]] static bool is_self_or_ancestor(const Fam& fam,
                                                std::uint32_t serial,
                                                std::uint32_t candidate);
  void grant(FamilyId family, std::uint32_t serial, ObjectId object,
             LockMode mode, bool as_retainer);

  std::map<std::uint64_t, Fam> fams_;
  std::uint64_t recursion_preclusions_ = 0;
};

class CoherenceOracle final : public OracleBase {
 public:
  [[nodiscard]] const char* name() const noexcept override {
    return "page-coherence";
  }
  [[nodiscard]] std::optional<Violation> finish() override {
    return violation_;
  }

  void on_page_access(FamilyId family, std::uint32_t serial, ObjectId object,
                      PageIndex page, Lsn version, bool write) override;
  void on_commit_stamp(FamilyId family, ObjectId object, PageIndex page,
                       Lsn version, NodeId site) override;
  void on_directory_stamp(ObjectId object, PageIndex page, Lsn version,
                          NodeId site, std::uint64_t tick) override;
  void on_node_crash(NodeId /*node*/, std::uint64_t /*crash_count*/) override {
    // Crash recovery legitimately rolls published state back (lease
    // reclamation, partition rebuild); the staleness check is only sound on
    // crash-free schedules.
    saw_crash_ = true;
  }

 private:
  /// Newest version the directory has published per (object, page).
  std::map<std::pair<std::uint64_t, std::uint32_t>, Lsn> published_;
  /// Every site-side commit stamp (any family), for the publication
  /// cross-check.
  std::set<std::tuple<std::uint64_t, std::uint32_t, Lsn>> commit_stamps_;
  bool saw_crash_ = false;
};

class CacheEpochOracle final : public OracleBase {
 public:
  [[nodiscard]] const char* name() const noexcept override {
    return "cache-epoch";
  }
  [[nodiscard]] std::optional<Violation> finish() override {
    return violation_;
  }

  void on_cache_put(NodeId site, ObjectId object, LockMode mode) override;
  void on_cache_drop(NodeId site, ObjectId object) override;
  void on_node_crash(NodeId node, std::uint64_t crash_count) override;

 private:
  /// Live cached entries: object value -> (site value -> mode).
  std::map<std::uint64_t, std::map<std::uint32_t, LockMode>> live_;
};

/// Multiplexes the cluster's single CheckSink slot across the oracles and
/// feeds the active strategy.  Owns nothing.
class FanoutSink final : public CheckSink {
 public:
  void add(CheckSink* sink) { sinks_.push_back(sink); }
  void set_strategy(Strategy* strategy) noexcept { strategy_ = strategy; }
  [[nodiscard]] std::uint64_t messages() const noexcept { return messages_; }
  /// FNV-1a over every message's (kind, src, dst, object, payload) in send
  /// order — the cheap bit-identity fingerprint the replay verifier
  /// compares (equal hash + equal count == same message sequence, modulo
  /// hash collisions).
  [[nodiscard]] std::uint64_t message_hash() const noexcept { return hash_; }

  void on_transport_message(const WireMessage& m) override;
  void on_attempt_start(FamilyId family) override;
  void on_txn_begin(FamilyId family, std::uint32_t serial,
                    std::uint32_t parent_serial, ObjectId target) override;
  void on_pre_commit(FamilyId family, std::uint32_t serial,
                     std::uint32_t parent_serial) override;
  void on_subtree_abort(FamilyId family, std::uint32_t first_serial,
                        std::uint32_t end_serial) override;
  void on_family_outcome(FamilyId family, bool committed) override;
  void on_local_grant(FamilyId family, std::uint32_t serial, ObjectId object,
                      LockMode mode) override;
  void on_global_grant(FamilyId family, std::uint32_t serial, ObjectId object,
                       LockMode mode, bool upgrade, bool cached_regrant,
                       bool prefetch) override;
  void on_lock_release(FamilyId family, ObjectId object,
                       CheckReleaseReason reason) override;
  void on_recursion_precluded(FamilyId family, std::uint32_t serial,
                              ObjectId object) override;
  void on_page_access(FamilyId family, std::uint32_t serial, ObjectId object,
                      PageIndex page, Lsn version, bool write) override;
  void on_commit_stamp(FamilyId family, ObjectId object, PageIndex page,
                       Lsn version, NodeId site) override;
  void on_directory_stamp(ObjectId object, PageIndex page, Lsn version,
                          NodeId site, std::uint64_t tick) override;
  void on_snapshot_read(FamilyId family, std::uint32_t serial, ObjectId object,
                        PageIndex page, Lsn version,
                        std::uint64_t stamp) override;
  void on_cache_put(NodeId site, ObjectId object, LockMode mode) override;
  void on_cache_drop(NodeId site, ObjectId object) override;
  void on_node_crash(NodeId node, std::uint64_t crash_count) override;
  void on_node_restart(NodeId node) override;

 private:
  std::vector<CheckSink*> sinks_;
  Strategy* strategy_ = nullptr;
  std::uint64_t messages_ = 0;
  std::uint64_t hash_ = 0xcbf29ce484222325ULL;
};

}  // namespace lotec::check
