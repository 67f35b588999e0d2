// Family: one transaction family — a root transaction, its tree of
// sub-transactions, and the family's locally cached lock state.
//
// Per the paper's execution model, "individual transaction families execute
// locally at a single site"; a Family object therefore lives on exactly one
// node and is driven by one fiber.
#pragma once

#include <memory>

#include "common/ids.hpp"
#include "txn/family_lock_table.hpp"
#include "txn/transaction.hpp"

namespace lotec {

class Family {
 public:
  Family(FamilyId id, NodeId node, UndoStrategy undo_strategy)
      : id_(id), node_(node), undo_strategy_(undo_strategy) {}

  [[nodiscard]] FamilyId id() const noexcept { return id_; }
  [[nodiscard]] NodeId node() const noexcept { return node_; }
  [[nodiscard]] UndoStrategy undo_strategy() const noexcept {
    return undo_strategy_;
  }

  /// Start the root transaction (the user's method invocation).
  Transaction& begin_root(ObjectId target, MethodId method) {
    if (root_) throw UsageError("Family: root already started");
    root_ = std::make_unique<Transaction>(TxnId{id_, 0}, nullptr, target,
                                          method, undo_strategy_);
    next_serial_ = 1;
    return *root_;
  }

  /// Start a sub-transaction (a sub-invocation made from `parent`).
  Transaction& begin_child(Transaction& parent, ObjectId target,
                           MethodId method) {
    return parent.add_child(TxnId{id_, next_serial_++}, target, method,
                            undo_strategy_);
  }

  [[nodiscard]] Transaction* root() noexcept { return root_.get(); }
  [[nodiscard]] const Transaction* root() const noexcept {
    return root_.get();
  }
  [[nodiscard]] FamilyLockTable& locks() noexcept { return locks_; }
  [[nodiscard]] const FamilyLockTable& locks() const noexcept {
    return locks_;
  }

  /// Transactions created so far (root + sub-transactions).
  [[nodiscard]] std::uint32_t num_txns() const noexcept {
    return next_serial_;
  }

  /// Discard the tree and lock table for a retry (deadlock victim restart).
  /// The FamilyId is retained so a repeatedly restarted family ages into a
  /// non-victim (victims are the youngest on the cycle), avoiding livelock.
  void reset() {
    root_.reset();
    locks_.clear();
    next_serial_ = 0;
  }

 private:
  FamilyId id_;
  NodeId node_;
  UndoStrategy undo_strategy_;
  std::unique_ptr<Transaction> root_;
  std::uint32_t next_serial_ = 0;
  FamilyLockTable locks_;
};

}  // namespace lotec
