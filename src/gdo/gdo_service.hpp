// GdoService: the partitioned, replicated Global Directory of Objects.
//
// Implements the *global* halves of the paper's lock protocol:
//   Algorithm 4.2 (GlobalLockAcquisition)  -> acquire()
//   Algorithm 4.4 (GlobalLockRelease)      -> release_family() / wakeups
//
// Entries are hash-partitioned over the nodes ("to ensure efficiency and
// reliability, the GDO design is partitioned and replicated", Section 4.1);
// with replication enabled every mutation is synchronously copied to a
// mirror node and requests fail over to the mirror when the home is down.
//
// The GDO operates at *family* granularity: a family holds an object's lock
// from the first grant to one of its member transactions until its root
// releases it.  Intra-family lock disposition (holding vs retention,
// inheritance at pre-commit) is local to the family's execution site and
// lives in the txn library.
//
// All cross-node traffic generated here is charged through the Transport.
#pragma once

#include <functional>
#include <optional>
#include <unordered_map>
#include <vector>

#include "common/flat_map.hpp"
#include "gdo/gdo_entry.hpp"
#include "net/transport.hpp"
#include "obs/metrics.hpp"
#include "obs/stats_macros.hpp"

namespace lotec {

class CheckSink;

struct GdoConfig {
  /// Mirror every entry on a second node and fail over to it.  A cluster
  /// switches it on itself when node faults need it (ClusterCore).
  bool replicate = false;
  /// If true, a read request is queued behind waiting writers even when the
  /// lock is currently read-held (writer fairness).  The paper's Algorithm
  /// 4.2 grants such reads immediately; that is the default.
  bool fair_readers = false;
  /// Acknowledge global release messages (adds one small message per
  /// release; off by default — the paper piggybacks dirty info on a one-way
  /// release message).
  bool release_acks = false;
};

enum class AcquireStatus : std::uint8_t { kGranted, kQueued };

/// Result of a (possibly deferred) grant, delivered either as the reply to
/// acquire() or as a wakeup after a release.
struct Grant {
  FamilyId family{};
  NodeId node{};
  TxnId txn{};
  LockMode mode = LockMode::kRead;
  bool upgrade = false;
  /// Copy of the object's page map sent to the acquiring site ("a site map
  /// containing the locations of the most up-to-date object pages may be
  /// sent during global lock acquisition").
  PageMap page_map;
  ObjectId object{};
  /// Causal context of the directory-side work that produced the grant
  /// (stamped by grant_waiters while tracing; zero otherwise).  Trailing
  /// member: the seven fields above stay positionally brace-initializable.
  TraceContext trace{};
};

struct AcquireResult {
  AcquireStatus status = AcquireStatus::kQueued;
  /// Valid when granted.
  PageMap page_map;
  bool upgrade = false;
};

/// What a releasing site reports about one object (piggybacked on the
/// global release message).
struct ReleaseInfo {
  /// Pages the family updated; the GDO stamps them with a fresh version and
  /// points the page map at the releasing site (Algorithm 4.4).
  PageSet dirty;
  /// Additional pages current at the releasing site with their (unchanged)
  /// versions.  COTEC/OTEC report these so the directory records the site
  /// as a source of the whole object (their transfer discipline keeps a
  /// holder's copy complete); LOTEC reports only dirty pages, which is what
  /// lets up-to-date pages scatter across sites.
  std::vector<std::pair<PageIndex, Lsn>> current;
  /// Lock-cache flush path only (empty otherwise): explicit per-page
  /// <page, version> records stamped at the site while releases were being
  /// deferred.  The site assigns versions itself during deferral
  /// (max(directory counter, pending max) + 1 per commit), so the directory
  /// must apply the *site's* versions instead of minting a fresh one.
  std::vector<std::pair<PageIndex, Lsn>> stamped;
  /// Highest version the site assigned while deferring (0 = not a deferred
  /// flush); the entry's version counter advances to at least this.
  Lsn advance_to = 0;
  /// Global commit tick the releasing family's stamps were published under
  /// (mv_read extension; allocated once per committing family).  Piggybacks
  /// on the release message like the dirty records — no extra wire bytes.
  std::uint64_t commit_tick = 0;

  [[nodiscard]] std::uint64_t record_count() const noexcept {
    return dirty.count() + current.size() + stamped.size();
  }
};

struct ReleaseResult {
  /// Families whose queued requests were granted by this release; the
  /// runtime delivers these to the respective sites (the GDO has already
  /// sent and charged the wakeup messages).
  std::vector<Grant> wakeups;
  /// Version stamped on the released dirty pages (0 when none).
  Lsn stamped_version = 0;
};

/// One object being released in a batch.
struct ReleaseItem {
  ObjectId object{};
  /// Present on commit (dirty/current report); absent on abort ("no dirty
  /// page info", Algorithm 4.3).
  std::optional<ReleaseInfo> info;
};

/// Result of a batched root release: per-object stamped versions plus all
/// wakeups triggered.
struct BatchReleaseResult {
  std::vector<Grant> wakeups;
  std::unordered_map<ObjectId, Lsn> stamped_versions;
};

/// What a caching site surrenders when its cached lock is called back:
/// the per-page versions it stamped while deferring releases, and the
/// highest version it assigned (the directory's counter catches up to it).
/// Both empty/zero for a clean (read-mode) cache entry.
struct CachedFlush {
  std::vector<std::pair<PageIndex, Lsn>> records;
  Lsn advance_to = 0;
};

// clang-format off
#define LOTEC_GDO_STATS(COUNTER)              \
  COUNTER(reclaimed, "lease.reclaimed")       \
  COUNTER(purged, "lease.purged")             \
  COUNTER(cache_regrants, "cache.regrants")   \
  COUNTER(cache_callbacks, "cache.callbacks") \
  COUNTER(cache_flushes, "cache.flushes")
// clang-format on
LOTEC_DEFINE_STATS_STRUCT(GdoStats, LOTEC_GDO_STATS);

class GdoService {
 public:
  /// `metrics` is the cluster-wide registry the directory's tallies
  /// (cache.*, lease.*) live in; when null (standalone directory tests) the
  /// service owns a private registry so the accessors still work.
  GdoService(Transport& transport, GdoConfig config = {},
             MetricsRegistry* metrics = nullptr);

  /// Install (or clear) the span tracer; callback revocation rounds are
  /// recorded on the directory lane (family 0).  Owned by the caller.
  void set_tracer(SpanTracer* tracer) noexcept { tracer_ = tracer; }

  /// Install (or clear) the schedule checker's event sink.  The directory
  /// reports every page-version *publication* (release stamping, deferred
  /// cache flushes) so the coherence oracle can compare what acquirers read
  /// against what was actually published — independently of what the
  /// releasing runner believes it stamped.  Owned by the caller.
  void set_check_sink(CheckSink* sink) noexcept { check_ = sink; }

  /// Install a delivery hook invoked for every Grant produced by a release
  /// or cancellation, inside the serve that produced it, so a deadlock
  /// victim cannot miss a grant issued before its cancellation.  When set,
  /// callers must NOT also act on the Grants returned from release/cancel
  /// calls.
  void set_grant_delivery(std::function<void(const Grant&)> hook) {
    grant_delivery_ = std::move(hook);
  }

  [[nodiscard]] NodeId home_of(ObjectId id) const noexcept;
  [[nodiscard]] NodeId mirror_of(ObjectId id) const noexcept;

  /// Create the directory entry for a new object whose pages all reside at
  /// `creator` (version 0).
  void register_object(ObjectId id, std::size_t num_pages, NodeId creator);

  /// Global lock acquisition on behalf of transaction `txn` (of family
  /// txn.family) executing at `requester`.  Returns a grant with the page
  /// map, or kQueued (the caller must block until the wakeup).
  /// A request for kWrite by a family currently holding kRead is an
  /// *upgrade*; upgraders queue ahead of ordinary waiters.
  AcquireResult acquire(ObjectId id, const TxnId& txn, NodeId requester,
                        LockMode mode);

  /// Global lock release for one object (Algorithm 4.4).  `info` carries
  /// the piggybacked page report; nullptr on abort.  Grants to waiting
  /// families are performed and returned.
  ReleaseResult release_family(ObjectId id, FamilyId family, NodeId node,
                               const ReleaseInfo* info);

  /// Root-commit/abort release of the family's whole lock set ("lock
  /// release processing ... potentially deals with multiple objects").
  /// Charged as one message per object so per-object byte attribution stays
  /// exact.
  BatchReleaseResult release_batch(FamilyId family, NodeId node,
                                   const std::vector<ReleaseItem>& items);

  /// The entry's version_counter alone, read through the same route as
  /// snapshot() without copying the entry (the commit path's hot read).
  [[nodiscard]] Lsn version_counter(ObjectId id) const;

  /// Remove a family's queued request (deadlock victim / cancelled txn).
  /// May unblock other waiters, which are granted and returned.
  std::vector<Grant> cancel_waiter(ObjectId id, FamilyId family);

  // --- inter-family lock caching (callback-locking extension) -------------

  /// Install the revocation seam: when a conflicting acquire must call back
  /// a site's cached lock, the directory invokes this handler — between
  /// the (charged) kLockCallback and kCallbackReply messages — and the site returns its pending flush
  /// records while erasing/downgrading its cache entry for `object`.
  void set_callback_handler(
      std::function<CachedFlush(ObjectId, NodeId, LockMode)> handler) {
    callback_handler_ = std::move(handler);
  }

  /// Try to retain `family`'s released lock at its site instead of
  /// releasing it: the holder converts to a cached-holder marker with a
  /// renewed lease, at zero message cost (the site simply never sends the
  /// release).  Refused (returns false; caller must release normally) when
  /// any family is queued — retention must never starve a waiter — or when
  /// the family does not hold the lock.
  bool retain_release(ObjectId id, FamilyId family, NodeId node);

  /// Zero-message re-activation of a cached lock: convert `node`'s
  /// cached-holder marker back into a live holder for `txn`'s family at the
  /// marker's (covering) mode.  Returns the granted mode, or nullopt when
  /// no usable marker exists (revoked, crashed incarnation, or mode not
  /// covering `wanted`) — the caller falls back to a full acquire().
  std::optional<LockMode> local_regrant(ObjectId id, const TxnId& txn,
                                        NodeId node, LockMode wanted);

  /// Unilateral zero-message discard of `node`'s cached marker (clean
  /// read-mode entries only — dropping an unflushed write cache would lose
  /// committed updates).  Tolerates a missing marker.
  void forget_cached(ObjectId id, NodeId node);

  /// Site-initiated flush of a cached lock (capacity eviction, end-of-batch
  /// drain, or pre-acquire cleanup): charged like a release message, applies
  /// the deferred flush records and drops the marker.  Tolerates a missing
  /// marker (it may have been revoked or reclaimed meanwhile).
  void flush_cached(ObjectId id, NodeId node,
                    const std::vector<std::pair<PageIndex, Lsn>>& records,
                    Lsn advance_to);

  [[nodiscard]] std::uint64_t cache_regrants() const noexcept {
    return stats_.cache_regrants->value();
  }
  [[nodiscard]] std::uint64_t cache_callbacks() const noexcept {
    return stats_.cache_callbacks->value();
  }
  [[nodiscard]] std::uint64_t cache_flushes() const noexcept {
    return stats_.cache_flushes->value();
  }

  /// Read-only page-map lookup (charged as a lookup round trip when remote).
  [[nodiscard]] PageMap lookup_page_map(ObjectId id, NodeId requester);

  // --- commit ticks & snapshot reads (mv_read extension) ------------------

  /// Allocate the global commit tick a committing family publishes its
  /// version stamps under.  Monotone across the cluster; under the
  /// deterministic scheduler the allocating family's release path runs
  /// without preemption, so allocation and publication are atomic with
  /// respect to every other family.
  [[nodiscard]] std::uint64_t allocate_commit_tick() noexcept {
    return ++commit_tick_;
  }

  /// Newest published commit tick — the stamp a starting read-only family
  /// adopts.  Disseminated by piggybacking on existing frames (like the
  /// PR 5 causal header), so reading it costs no messages.
  [[nodiscard]] std::uint64_t current_commit_tick() const noexcept {
    return commit_tick_;
  }

  /// A snapshot map: the object's page map plus the commit tick it is
  /// current as of — every publication with tick <= `tick` is reflected.
  struct SnapshotMap {
    PageMap map;
    std::uint64_t tick = 0;
  };

  /// Lock-free directory read for a snapshot reader: copy the page map
  /// without touching lock state or queueing behind writers.  Charged as a
  /// kSnapshotMapRequest/Reply round trip when the requester is not the
  /// serving node (free when local, like every src==dst send).
  [[nodiscard]] SnapshotMap snapshot_lookup(ObjectId id, NodeId requester);

  /// Sites caching any part of the object (RC extension push targets).
  [[nodiscard]] std::vector<NodeId> caching_sites(ObjectId id) const;

  /// Note that `node` now holds cached pages of `id` (updated internally on
  /// grants; exposed for the RC push path after an eager update install).
  void note_caching_site(ObjectId id, NodeId node);

  // --- crash recovery (fault engine integration) --------------------------

  /// A node died: drop its partition's cached directory state (entries and
  /// mirror copies) and forget it as a caching site everywhere.  Requests
  /// for objects homed there fail over along the replica chain; the locks
  /// its families held are reclaimed lazily by lease timeout.
  void on_node_crash(NodeId node);

  /// A crashed node rejoined: pull its partition's entries back from the
  /// surviving mirror copies (charged as rebuild request/reply pairs) and
  /// refresh its own mirror copies from live homes.  Returns the number of
  /// home entries rebuilt.
  std::size_t rebuild_node(NodeId node);

  /// Sweep the whole directory for locks and queued requests left behind by
  /// crashed family incarnations.  With `ignore_leases` the sweep reclaims
  /// immediately (end-of-batch cleanup); otherwise expired leases only.
  /// No-op without fault hooks installed.
  void reclaim_crashed(bool ignore_leases);

  [[nodiscard]] std::uint64_t locks_reclaimed() const noexcept {
    return stats_.reclaimed->value();
  }
  [[nodiscard]] std::uint64_t waiters_purged() const noexcept {
    return stats_.purged->value();
  }

  // --- deadlock support ---------------------------------------------------

  struct WaitEdge {
    FamilyId waiter{};
    FamilyId holder{};
    ObjectId object{};
  };
  /// All waiter->holder edges across the directory.
  [[nodiscard]] std::vector<WaitEdge> wait_edges() const;

  // --- introspection (tests / metrics) ------------------------------------

  [[nodiscard]] GdoEntry snapshot(ObjectId id) const;
  [[nodiscard]] std::size_t num_objects() const;
  /// Objects homed at `node` (partitioning test support).
  [[nodiscard]] std::vector<ObjectId> objects_homed_at(NodeId node) const;

 private:
  /// One node's share of the directory: `entries` are the objects homed
  /// here, `mirrors` the replicas of entries homed elsewhere.
  struct Partition {
    // FlatMap: the entry lookup is on every acquire/release/lookup path —
    // the single hottest table in the system.  All iteration over these
    // maps is order-insensitive (wait_edges feeds a sorting detector,
    // rebuild/reclaim collect into ordered sets first).
    FlatMap<ObjectId, GdoEntry> entries;
    FlatMap<ObjectId, GdoEntry> mirrors;
  };

  /// Which partition serves `id` right now (home, or mirror on failover) —
  /// and whether we are in failover.
  struct Route {
    std::size_t partition;
    bool failover;
  };
  [[nodiscard]] Route route(ObjectId id) const;

  GdoEntry& entry_at(Route r, ObjectId id);
  [[nodiscard]] const GdoEntry& entry_at(Route r, ObjectId id) const;

  /// Apply the lock/page-map effects of one object's release (no message
  /// accounting; callers charge the release message, batched or not).
  /// Returns the version stamped on dirty pages (0 if none).
  Lsn apply_release(ObjectId id, GdoEntry& entry, FamilyId family,
                    NodeId serving, const ReleaseInfo* info,
                    std::vector<Grant>& wakeups);

  /// Grant as many waiters as the state allows; appends to `out` and sends
  /// + charges the wakeup messages.
  void grant_waiters(ObjectId id, GdoEntry& entry, NodeId serving_node,
                     std::vector<Grant>& out);

  /// Apply one grant to the entry's holder bookkeeping (stamps the lease
  /// when fault hooks are installed).
  void install_holder(GdoEntry& entry, const WaiterFamily& w);

  /// Stamp a fresh waiter/request with its node's current crash epoch.
  void stamp_epoch(WaiterFamily& w) const;

  /// Purge waiters from dead incarnations and reclaim orphaned holders and
  /// cached-holder markers whose lease has expired (or all orphans with
  /// `ignore_leases`); grants freed waiters.  No-op without fault hooks.
  void reap_dead(ObjectId id, GdoEntry& entry, NodeId serving,
                 bool ignore_leases, std::vector<Grant>& wakeups);

  /// Revoke every cached-holder marker that conflicts with `mode` before a
  /// request from `requester` is served: the requester's own marker is
  /// dropped silently (its site flushed before re-acquiring), live markers
  /// get a callback round (flush + erase, or downgrade to read when the
  /// request is a read), dead markers wait out their lease.
  void revoke_conflicting_cached(ObjectId id, GdoEntry& entry, NodeId serving,
                                 NodeId requester, LockMode mode);

  /// Does any cached-holder marker conflict with a request for `mode`?
  /// (Only lease-protected markers of crashed sites can conflict after
  /// revoke_conflicting_cached ran; grants wait for their lease to expire.)
  [[nodiscard]] static bool marker_conflicts(const GdoEntry& entry,
                                             LockMode mode) noexcept;

  /// Apply a deferred flush (records stamped at the site) to the entry.
  void apply_flush(ObjectId id, GdoEntry& entry, NodeId site,
                          const std::vector<std::pair<PageIndex, Lsn>>& recs,
                          Lsn advance_to);

  /// Serving-side entry lookup.  During failover a missing copy is a
  /// *transient* condition (the surviving chain has not seen this object's
  /// entry yet) and surfaces as NodeUnreachable so callers retry; at the
  /// home it is a usage error.
  [[nodiscard]] GdoEntry& find_serving(FlatMap<ObjectId, GdoEntry>& map,
                                       ObjectId id, Route r, const char* op);

  /// Synchronously copy the (mutated) entry to the mirror and charge the
  /// replication traffic.  Degrades (skips) if the mirror is down or crashes mid-sync.
  void replicate(ObjectId id, const GdoEntry& entry);

  /// Failover counterpart of replicate(): while the home is down, the
  /// serving mirror copies mutations one hop further down the replica
  /// chain, so a second failure still finds a complete entry.  Fault-hooks
  /// mode only (legacy failover keeps its exact message counts).
  void replicate_failover(ObjectId id, const GdoEntry& entry, NodeId serving);

  [[nodiscard]] std::uint64_t grant_payload_bytes(const GdoEntry& entry,
                                                  std::size_t txn_list_len)
      const noexcept {
    return wire::kLockRecordBytes +
           txn_list_len * wire::kTxnNodePairBytes + entry.page_map.wire_bytes();
  }

  Transport& transport_;
  GdoConfig config_;
  std::function<void(const Grant&)> grant_delivery_;
  std::function<CachedFlush(ObjectId, NodeId, LockMode)> callback_handler_;
  std::vector<Partition> partitions_;
  SpanTracer* tracer_ = nullptr;
  CheckSink* check_ = nullptr;
  /// Fallback registry for standalone use (null when the cluster owns one).
  std::unique_ptr<MetricsRegistry> owned_metrics_;
  /// Registry handles.
  GdoStats stats_;
  /// Global monotone commit tick (mv_read): one per committing family,
  /// allocated at release-stamp time.
  std::uint64_t commit_tick_ = 0;
};

}  // namespace lotec
