// FamilyRunner: executes one transaction family at its site, driving the
// whole protocol stack — nested O2PL (local + global), page transfer per
// the configured consistency protocol, undo, commit/abort processing and
// deadlock-victim restart.
//
// MethodContext is the object a method body sees: typed attribute access on
// the target object (with automatic locking already done by the runner,
// freshness checks, undo capture and LOTEC demand fetching) plus nested
// invocation of further methods, each of which becomes a sub-transaction.
#pragma once

#include <map>
#include <optional>
#include <span>
#include <utility>

#include "common/arena.hpp"
#include "common/flat_map.hpp"
#include "method/value.hpp"
#include "runtime/core.hpp"
#include "txn/family.hpp"

namespace lotec {

class MethodContext;

/// Internal control flow (mv_read): a snapshot attempt could not resolve a
/// page version under its stamp (the owner site no longer retains it, e.g.
/// after a capacity eviction raced the map lookup).  The runner retries the
/// attempt with a fresh stamp, under which the newest versions are always
/// resolvable.
class SnapshotUnavailableError : public Error {
 public:
  explicit SnapshotUnavailableError(const std::string& what) : Error(what) {}
};

class FamilyRunner {
 public:
  FamilyRunner(ClusterCore& core, std::size_t index, FamilyId family,
               NodeId node, RootRequest request);

  /// Scheduler body: run the root transaction to completion, retrying on
  /// deadlock victimization.  Never throws.
  void run();

  [[nodiscard]] const TxnResult& result() const noexcept { return result_; }
  [[nodiscard]] std::size_t index() const noexcept { return index_; }
  [[nodiscard]] FamilyId family_id() const noexcept { return family_.id(); }

  /// Programming error (e.g. precluded mutual recursion, undeclared
  /// attribute access) that aborted this family; rethrown by
  /// Cluster::execute after the batch drains.
  [[nodiscard]] std::exception_ptr error() const noexcept { return error_; }

  /// Wakeup delivery (called from another family / the GDO path).
  void deliver(Grant grant) { pending_grant_ = std::move(grant); }

  /// Is this runner parked on a queued global lock request?  Used by the
  /// stall handler to pick a fault victim when no deadlock cycle explains a
  /// stall (e.g. the lock holder's node crashed).
  [[nodiscard]] bool blocked() const noexcept { return blocked_on_.valid(); }

  /// Is the current attempt running on the snapshot-isolated read path
  /// (mv_read on + declared read-only family)?
  [[nodiscard]] bool snapshot_active() const noexcept {
    return snapshot_active_;
  }

 private:
  friend class MethodContext;

  /// Execute one invocation as a [sub-]transaction; true on [pre-]commit,
  /// false if the transaction aborted (TxnAbort).  DeadlockVictimError
  /// propagates to run().
  bool run_invocation(Transaction* parent, ObjectId object, MethodId method);

  /// Acquire the object's lock for `txn` (Algorithm 4.1 entry point) and
  /// make the predicted pages resident per the consistency protocol.
  void acquire_for(const Transaction& txn, ObjectId object,
                   const AccessSummary& summary);

  /// Optimistic pre-acquisition of the hinted locks/pages (Section 5.1
  /// extension), pipelined as one round-trip batch.
  void run_prefetch(const Transaction& root);

  /// Lock-cache fast path: if this site holds a cached (idle) global lock
  /// on `object` in a mode covering `mode`, re-activate it for `txn` with
  /// zero network messages.  Returns true when the grant happened (lock
  /// table, page map and pins set up exactly as after a global grant).
  bool try_cache_regrant(const Transaction& txn, ObjectId object,
                         LockMode mode, bool prefetch);

  /// Lock-cache release path: try to park the family's lock on `object` at
  /// this site (GdoService::retain_release) instead of releasing it.  On
  /// success the commit's version stamping and page report are deferred
  /// into the site cache entry.  Returns false when retention was refused
  /// (caller releases normally).
  bool try_retain(ObjectId object, bool commit);

  /// Build the ReleaseItem for one object, folding in any deferred report
  /// this site still carries for it.
  ReleaseItem make_release_item(ObjectId object, bool commit);

  /// Fetch `pages` of `object` from the sites the cached page map names,
  /// grouped per source site.  Updates the cached map to point here.
  void fetch_pages(ObjectId object, ObjectImage& image, PageSet pages,
                   bool demand);

  /// Demand-side freshness guarantee for an attribute access (Section 4's
  /// "if additional parts turn out to be needed, these can be fetched on
  /// demand").
  void ensure_fresh(ObjectId object, const PageSet& pages);

  // --- snapshot read path (mv_read) ---------------------------------------

  /// Take the attempt's snapshot stamp (newest published commit tick) and
  /// register it so version-ring GC fences on it.
  void begin_snapshot_attempt();

  /// Drop the attempt's snapshot pins and stamp registration.  Idempotent;
  /// called on every attempt exit (commit, retry, error).
  void end_snapshot_attempt();

  /// Lock-free "acquisition" of `object` for the snapshot path: make the
  /// node's snapshot map for the object at least as new as our stamp
  /// (refreshing via GdoService::snapshot_lookup when not), ensure a local
  /// image exists and pin it against eviction.  No lock-table or directory
  /// lock state is touched.
  void snapshot_acquire(ObjectId object);

  /// Resolve every page of `pages` to its newest committed version at or
  /// below the attempt stamp — fetching remote versions from the owning
  /// sites into the local ring as needed — and copy the attribute bytes at
  /// `offset` out of the resolved views.  Emits on_snapshot_read per page.
  void snapshot_read_bytes(Transaction& txn, ObjectId object,
                           const PageSet& pages, std::uint64_t offset,
                           std::span<std::byte> out);

  /// Fetch the newest-<=-stamp versions of `missing` from the sites the
  /// snapshot map names, grouped per source, adopting them into the local
  /// version ring.  Throws SnapshotUnavailableError when a named owner can
  /// no longer produce an admissible version.
  void snapshot_fetch(ObjectId object, const PageSet& missing);

  /// Root commit: Algorithm 4.3 "root transaction commits" + 4.4, then
  /// page-version stamping and (RC) eager pushes.
  void commit_root(Transaction& root);

  /// Sub-transaction abort (family continues): undo + rule 4 disposition.
  void abort_subtree(Transaction& txn);

  /// Whole-family abort (root abort or deadlock victim).
  void abort_family(AbortReason reason);

  /// TEST MUTATION (ClusterConfig::test_mutations.break_retention): at
  /// sub-transaction pre-commit, instead of retaining the child's locks at
  /// the parent (rule 3), treat them like an abort's rule-4 disposition and
  /// release the subtree-exclusive ones to other families — with the
  /// child's uncommitted writes stamped as if committed.  Exists solely so
  /// the schedule checker can demonstrate it catches broken retention.
  void broken_retention_release(Transaction& txn);

  /// Release every object the family holds.  `commit` selects dirty/current
  /// reporting vs "no dirty page info".
  void release_all(bool commit);

  /// RC extension: eager push of committed pages to all caching sites.
  void push_updates(ObjectId object,
                    const std::vector<std::pair<PageIndex, Page>>& pages);

  // --- fault recovery -----------------------------------------------------

  /// Did this family's own site crash since the current attempt started?
  [[nodiscard]] bool crashed_since_attempt() const;

  /// Apply pending crash/restart work and, if our own site died under us,
  /// unwind the attempt (throws NodeCrashedError).  Called at invocation
  /// entry and before attribute accesses — the points where a method body
  /// would observe wiped memory.
  void fault_checkpoint();

  /// Crash recovery: the family's site lost its memory, so there is nothing
  /// to undo or release locally — drop all local bookkeeping without
  /// generating release traffic (the GDO reclaims our locks by lease).
  void discard_local_state();

  /// Our execution site is down at attempt start: move the family to the
  /// first reachable node.  False if every node is unreachable.
  bool relocate_family();

  /// What ended an attempt early (recorded in run()'s catch handlers).
  enum class Failure : std::uint8_t {
    kDeadlock,
    kCrash,
    kUnreachable,
    kDropped,
    kSnapshotGone,
    kError,
  };

  /// Recover from a failed attempt outside the catch handler that recorded
  /// it (recovery may switch fibers).  True = retry the loop.
  bool recover(Failure failure, int attempts);

  /// Reset and back off for another attempt unless the run is cancelled or
  /// the retry budget is spent (then record kRetryExhausted).  True = retry.
  bool retry_after_backoff(int attempts);

  /// abort_family(), reporting an Error from its release traffic as false.
  bool try_abort_family(AbortReason reason);

  /// Handle a crash of our own site mid-attempt.  True = retry the loop.
  bool crash_retry(int attempts, bool was_committing);

  /// Handle a transient remote failure (unreachable peer / dropped
  /// message): abort the family and retry.  True = retry the loop.
  bool transient_retry(int attempts);

  /// Deterministic backoff: yield `attempts` (capped) token slots.
  void backoff(int attempts);

  /// Pin `object` at our site, remembering the site's wipe count: a crash
  /// wipe clears the whole pin table, so only pins that survived every wipe
  /// may later be returned.  (The wipe count, not the crash epoch — the
  /// epoch flips the instant a crash fires, but the wipe lands later, and a
  /// pin taken in between dies in the wipe despite its fresh epoch.)
  void pin_here(Node& site, ObjectId object);

  /// Return our pin on `object` unless a wipe since pin_here cleared it
  /// (unpinning then would throw or steal another family's refcount).
  void unpin_here(Node& site, ObjectId object);

  [[nodiscard]] ObjectImage& local_image(ObjectId object);
  [[nodiscard]] std::function<ObjectImage&(ObjectId)> undo_resolver();

  /// The schedule checker's event sink (nullptr when checking is off; every
  /// emission site guards on it, so the disabled cost is a pointer test).
  [[nodiscard]] CheckSink* check() const noexcept {
    return core_.config.check_sink;
  }

  ClusterCore& core_;
  std::size_t index_;
  Family family_;
  NodeId node_;
  RootRequest request_;
  Rng rng_{0};

  Transaction* current_ = nullptr;
  /// Object whose global lock this family is blocked on (for waiter
  /// cancellation on victimization).
  ObjectId blocked_on_{};
  std::optional<Grant> pending_grant_;
  /// Page maps received with global grants, kept current as pages arrive.
  FlatMap<ObjectId, PageMap> object_maps_;
  /// Attempt-scoped bump arena for transient scratch (page-gather grouping
  /// buffers); reset wholesale when the next attempt starts.
  Arena scratch_;
  /// Site wipe count at the time each currently-held pin was taken.
  /// (Iterated only to unpin each entry — order-insensitive.)
  FlatMap<ObjectId, std::uint64_t> pin_epochs_;
  /// Inside run_prefetch: suppress per-operation round-trip counting (the
  /// batch is modeled as one pipelined round trip).
  bool prefetch_batch_ = false;
  AbortReason last_abort_reason_ = AbortReason::kUser;
  std::exception_ptr error_;
  /// True from the first root-commit action until release completes; a
  /// crash inside this window leaves a partially committed family that must
  /// not be retried (its released objects already expose the new state).
  bool committing_ = false;
  /// Our site's crash epoch at the start of the current attempt.
  std::uint64_t crash_epoch_ = 0;

  /// mv_read + declared read-only: this family runs on the snapshot path.
  bool snapshot_mode_ = false;
  /// A snapshot attempt is live (stamp registered, pins held).
  bool snapshot_active_ = false;
  /// The attempt's stamp: reads resolve to the newest version <= this.
  std::uint64_t snapshot_stamp_ = 0;
  /// Objects snapshot-pinned at our site this attempt (doubles as the
  /// "already prepared" set — families touch few objects, linear scan).
  std::vector<ObjectId> snapshot_objects_;
  /// (object, page) -> the version this attempt's snapshot MUST observe
  /// (newest publication at or below the stamp), resolved from the snapshot
  /// map or the owning site's ring; every read verifies against it.
  std::map<std::pair<std::uint64_t, std::uint32_t>, Lsn> snapshot_versions_;

  TxnResult result_;
};

/// The interface a method body programs against.  Automatic synchronization
/// is the point: by the time the body runs, the runner has acquired the
/// object's lock and transferred the protocol's page set; every attribute
/// access below re-checks freshness and captures undo.
class MethodContext {
 public:
  MethodContext(FamilyRunner& runner, Transaction& txn, const ClassDef& cls,
                const MethodDef& method)
      : runner_(runner), txn_(txn), cls_(cls), method_(method) {}

  // --- typed attribute access on the target object -----------------------

  template <PlainValue T>
  [[nodiscard]] T get(const std::string& attr) {
    return get<T>(cls_.layout().find(attr));
  }

  template <PlainValue T>
  [[nodiscard]] T get(AttrId attr) {
    std::vector<std::byte> buf(sizeof(T));
    read_raw(attr, buf);
    return decode_value<T>(buf);
  }

  template <PlainValue T>
  void set(const std::string& attr, const T& value) {
    set<T>(cls_.layout().find(attr), value);
  }

  template <PlainValue T>
  void set(AttrId attr, const T& value) {
    std::vector<std::byte> buf(sizeof(T));
    encode_value(std::span<std::byte>(buf), value);
    write_raw(attr, buf);
  }

  [[nodiscard]] std::string get_string(const std::string& attr) {
    const AttrId a = cls_.layout().find(attr);
    std::vector<std::byte> buf(cls_.layout().attribute(a).size_bytes);
    read_raw(a, buf);
    return decode_string(buf);
  }

  void set_string(const std::string& attr, const std::string& value) {
    const AttrId a = cls_.layout().find(attr);
    std::vector<std::byte> buf(cls_.layout().attribute(a).size_bytes);
    encode_string(buf, value);
    write_raw(a, buf);
  }

  /// Read the raw bytes of an attribute (out.size() <= attribute size).
  void read_raw(AttrId attr, std::span<std::byte> out);

  /// Overwrite the leading bytes of an attribute.
  void write_raw(AttrId attr, std::span<const std::byte> in);

  // --- nested invocation --------------------------------------------------

  /// Invoke `method` on another shared object as a sub-transaction.
  /// Returns false if the sub-transaction aborted (its effects are undone
  /// and, per rule 4, its unretained locks released); the caller may retry
  /// or abort itself.
  bool invoke(ObjectId object, const std::string& method);
  bool invoke(ObjectId object, MethodId method);

  // --- control -------------------------------------------------------------

  /// Abort the current [sub-]transaction.
  [[noreturn]] void abort() { throw TxnAbort(AbortReason::kUser); }

  /// Abort attributed to injected failure (workload generator use).
  [[noreturn]] void fail_injected() { throw TxnAbort(AbortReason::kInjected); }

  [[nodiscard]] const TxnId& txn() const noexcept { return txn_.id(); }
  [[nodiscard]] ObjectId target() const noexcept { return txn_.target(); }
  [[nodiscard]] std::size_t depth() const noexcept { return txn_.depth(); }
  [[nodiscard]] NodeId node() const noexcept { return runner_.node_; }
  [[nodiscard]] const ClassDef& cls() const noexcept { return cls_; }

  /// Deterministic per-family random stream for workload bodies.
  [[nodiscard]] Rng& rng() noexcept { return runner_.rng_; }

  /// The RootRequest::user_data payload of this family (nullptr if none).
  [[nodiscard]] const void* user_data() const noexcept {
    return runner_.request_.user_data.get();
  }

 private:
  /// Enforce the declared access sets (the compiler's analysis must cover
  /// every access) and return the attribute's pages.
  PageSet check_access(AttrId attr, bool write) const;

  FamilyRunner& runner_;
  Transaction& txn_;
  const ClassDef& cls_;
  const MethodDef& method_;
};

}  // namespace lotec
