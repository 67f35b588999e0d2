// FamilyLockTable: the locally cached lock state of one transaction family.
//
// This is "the locally cached portion of a GDO entry ... exactly the
// information needed to manage the current holding transaction's family's
// access to the object" (Section 4.1).  It implements:
//
//  * the local fast path of Algorithm 4.1 (LocalLockAcquisition) — grants
//    that never touch the network,
//  * the lock-disposition rules 1-5 of Section 4.1 at sub-transaction
//    pre-commit and abort (Algorithm 4.3's lock handling),
//  * the run-time preclusion of mutually recursive invocations (Section
//    3.4): a request that would wait on a lock *held* by an ancestor is a
//    programming error, because the ancestor cannot release it until the
//    descendant finishes.
//
// The table is confined to the family's execution site and is accessed only
// by the family's own fiber.
#pragma once

#include <optional>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "common/ids.hpp"
#include "gdo/lock_mode.hpp"
#include "txn/transaction.hpp"

namespace lotec {
class CheckSink;
}

namespace lotec {

/// What the local algorithm decided about an acquisition request.
enum class LocalAcquireOutcome : std::uint8_t {
  kGranted,      ///< granted locally, no network traffic
  kNeedGlobal,   ///< family does not hold the object: GlobalLockAcquisition
  kNeedUpgrade,  ///< family holds global Read, Write requested: GDO upgrade
};

/// Local lock record for one object the family holds.
struct LocalLock {
  /// Mode the *family* holds at the GDO.
  LockMode global_mode = LockMode::kRead;
  /// Transactions currently holding the lock (serial, mode).  Sequential
  /// family execution keeps this to the active path: at most one writer, or
  /// readers that are ancestors of the running transaction.
  std::vector<std::pair<std::uint32_t, LockMode>> holders;
  /// Transactions retaining the lock (serials); populated by inheritance at
  /// pre-commit (Moss retention extended per Section 3.4).
  std::unordered_set<std::uint32_t> retainers;

  [[nodiscard]] bool held() const noexcept { return !holders.empty(); }
  [[nodiscard]] bool held_for_write() const noexcept {
    for (const auto& [s, m] : holders)
      if (m == LockMode::kWrite) return true;
    return false;
  }
  [[nodiscard]] bool holds(std::uint32_t serial) const noexcept {
    for (const auto& [s, m] : holders)
      if (s == serial) return true;
    return false;
  }
};

class FamilyLockTable {
 public:
  /// Local half of Algorithm 4.1.  Returns kGranted when served locally
  /// (the caller counts it as a local lock operation), or tells the caller
  /// which global interaction is required.  Throws RecursiveInvocationError
  /// when the request can only be satisfied after an ancestor releases a
  /// lock it still holds.
  LocalAcquireOutcome try_local_acquire(const Transaction& txn, ObjectId obj,
                                        LockMode mode);

  /// Record a successful global grant (fresh acquisition or upgrade).
  void on_global_grant(const Transaction& txn, ObjectId obj, LockMode mode,
                       bool upgrade);

  /// Record an optimistic pre-acquisition (Section 5.1 extension): the
  /// family holds the global lock but no transaction has touched it yet;
  /// the root *retains* it so any descendant may acquire it locally.
  void on_prefetch_grant(const Transaction& root, ObjectId obj,
                         LockMode mode);

  /// Rule 3: at pre-commit the parent inherits and retains all of the
  /// child's locks, both held and retained.
  void on_pre_commit(const Transaction& txn);

  /// Rule 4: at abort the transaction's locks are released unless retained
  /// by an ancestor (who continues retaining them).  Returns the objects
  /// whose global lock the family must now release (Algorithm 4.3's
  /// "Forward request to GlobalLockRelease, no dirty page info").
  std::vector<ObjectId> on_abort(const Transaction& txn);

  /// Rule 5: objects to release globally when the root finishes.
  [[nodiscard]] std::vector<ObjectId> all_objects() const;

  [[nodiscard]] const LocalLock* find(ObjectId obj) const {
    const auto it = locks_.find(obj);
    return it == locks_.end() ? nullptr : &it->second;
  }

  [[nodiscard]] std::size_t size() const noexcept { return locks_.size(); }
  void clear() { locks_.clear(); }

  /// Attach the schedule checker's event sink (survives clear()).  The
  /// table reports mutual-recursion preclusions so the checker can confirm
  /// the Section 3.4 rule actually fires under adversarial schedules.
  void set_check(CheckSink* sink, FamilyId family) {
    check_ = sink;
    family_ = family;
  }

 private:
  std::unordered_map<ObjectId, LocalLock> locks_;
  CheckSink* check_ = nullptr;
  FamilyId family_{};
};

}  // namespace lotec
