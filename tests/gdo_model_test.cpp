// Model-based testing of GdoService: thousands of random acquire / release
// / cancel operations are mirrored against a tiny reference lock model;
// after every step the directory's observable state (holder sets, modes,
// grant events) must match the model exactly.
//
// The reference model implements the multiple-readers/single-writer rules
// with FIFO queues, upgrade priority, upgrade-blocks-new-readers and read
// batch grants — the same semantics the production GdoService promises.
#include <gtest/gtest.h>

#include <deque>
#include <map>
#include <set>

#include "common/rng.hpp"
#include "gdo/gdo_service.hpp"

namespace lotec {
namespace {

struct ModelWaiter {
  std::uint64_t family;
  LockMode mode;
  bool upgrade;
};

/// Reference implementation of one object's lock.
class ModelLock {
 public:
  explicit ModelLock(bool fair_readers) : fair_readers_(fair_readers) {}

  /// Returns granted families in grant order (possibly several for read
  /// batches; empty if the request queued).
  std::vector<std::uint64_t> acquire(std::uint64_t family, LockMode mode) {
    if (holders_.count(family)) {
      // Must be an upgrade (read -> write).
      EXPECT_EQ(holders_.at(family), LockMode::kRead);
      if (holders_.size() == 1) {
        holders_[family] = LockMode::kWrite;
        return {family};
      }
      // Queue ahead of non-upgraders.
      std::size_t pos = 0;
      while (pos < queue_.size() && queue_[pos].upgrade) ++pos;
      queue_.insert(queue_.begin() + static_cast<std::ptrdiff_t>(pos),
                    {family, LockMode::kWrite, true});
      return {};
    }
    const bool upgrade_pending =
        std::any_of(queue_.begin(), queue_.end(),
                    [](const ModelWaiter& w) { return w.upgrade; });
    const bool writer_pending =
        std::any_of(queue_.begin(), queue_.end(), [](const ModelWaiter& w) {
          return w.mode == LockMode::kWrite;
        });
    const bool read_held =
        !holders_.empty() &&
        std::all_of(holders_.begin(), holders_.end(), [](const auto& h) {
          return h.second == LockMode::kRead;
        });
    if (holders_.empty() ||
        (read_held && mode == LockMode::kRead && !upgrade_pending &&
         !(fair_readers_ && writer_pending))) {
      holders_[family] = mode;
      return {family};
    }
    queue_.push_back({family, mode, false});
    return {};
  }

  std::vector<std::uint64_t> release(std::uint64_t family) {
    EXPECT_EQ(holders_.count(family), 1u);
    holders_.erase(family);
    std::erase_if(queue_,
                  [&](const ModelWaiter& w) { return w.family == family; });
    return pump();
  }

  std::vector<std::uint64_t> cancel(std::uint64_t family) {
    std::erase_if(queue_,
                  [&](const ModelWaiter& w) { return w.family == family; });
    return pump();
  }

  [[nodiscard]] bool holds(std::uint64_t family) const {
    return holders_.count(family) != 0;
  }
  [[nodiscard]] bool waits(std::uint64_t family) const {
    return std::any_of(queue_.begin(), queue_.end(), [&](const auto& w) {
      return w.family == family;
    });
  }
  [[nodiscard]] const std::map<std::uint64_t, LockMode>& holders() const {
    return holders_;
  }
  [[nodiscard]] std::size_t queue_size() const { return queue_.size(); }

 private:
  std::vector<std::uint64_t> pump() {
    std::vector<std::uint64_t> granted;
    while (!queue_.empty()) {
      const ModelWaiter w = queue_.front();
      if (w.upgrade) {
        if (holders_.size() == 1 && holders_.count(w.family)) {
          holders_[w.family] = LockMode::kWrite;
          granted.push_back(w.family);
          queue_.pop_front();
        }
        break;
      }
      if (w.mode == LockMode::kWrite) {
        if (holders_.empty()) {
          holders_[w.family] = LockMode::kWrite;
          granted.push_back(w.family);
          queue_.pop_front();
        }
        break;
      }
      const bool read_held =
          holders_.empty() ||
          std::all_of(holders_.begin(), holders_.end(), [](const auto& h) {
            return h.second == LockMode::kRead;
          });
      if (!read_held) break;
      holders_[w.family] = LockMode::kRead;
      granted.push_back(w.family);
      queue_.pop_front();
    }
    return granted;
  }

  bool fair_readers_;
  std::map<std::uint64_t, LockMode> holders_;
  std::deque<ModelWaiter> queue_;
};

/// (seed, fair_readers, read-batch grants).  The third value is always
/// true: a maximal read batch is the only grant policy GdoService has.
class GdoModelTest
    : public ::testing::TestWithParam<std::tuple<std::uint64_t, bool, bool>> {
};

TEST_P(GdoModelTest, RandomOpsMatchReferenceModel) {
  const std::uint64_t seed = std::get<0>(GetParam());
  const bool fair_readers = std::get<1>(GetParam());
  Transport transport(4);
  GdoConfig config;
  config.fair_readers = fair_readers;
  GdoService gdo(transport, config);
  const ObjectId obj(1);
  gdo.register_object(obj, 2, NodeId(0));

  std::vector<std::uint64_t> grant_events;
  gdo.set_grant_delivery(
      [&](const Grant& g) { grant_events.push_back(g.family.value()); });

  ModelLock model(fair_readers);
  Rng rng(seed);
  constexpr std::uint64_t kFamilies = 6;
  // Each family's serial counter (GDO wants distinct txn ids per request).
  std::map<std::uint64_t, std::uint32_t> serial;

  for (int step = 0; step < 2000; ++step) {
    const std::uint64_t fam = 1 + rng.below(kFamilies);
    const int op = static_cast<int>(rng.below(3));
    grant_events.clear();

    if (op == 0) {
      // Acquire (read, write or upgrade) — only legal transitions.
      if (model.waits(fam)) continue;  // one outstanding request per family
      LockMode mode;
      if (model.holds(fam)) {
        if (model.holders().at(fam) == LockMode::kWrite) continue;
        mode = LockMode::kWrite;  // upgrade
      } else {
        mode = rng.chance(0.5) ? LockMode::kRead : LockMode::kWrite;
      }
      const auto expected = model.acquire(fam, mode);
      const AcquireResult got = gdo.acquire(
          obj, TxnId{FamilyId(fam), serial[fam]++},
          NodeId(static_cast<std::uint32_t>(fam % 4)), mode);
      if (expected.empty()) {
        EXPECT_EQ(got.status, AcquireStatus::kQueued) << "step " << step;
      } else {
        ASSERT_EQ(expected.size(), 1u);
        EXPECT_EQ(expected[0], fam);
        EXPECT_EQ(got.status, AcquireStatus::kGranted) << "step " << step;
      }
    } else if (op == 1) {
      // Release (only if holding and not mid-upgrade).
      if (!model.holds(fam) || model.waits(fam)) continue;
      const auto expected = model.release(fam);
      (void)gdo.release_family(obj, FamilyId(fam),
                               NodeId(static_cast<std::uint32_t>(fam % 4)),
                               nullptr);
      EXPECT_EQ(grant_events, expected) << "step " << step;
    } else {
      // Cancel a queued request.
      if (!model.waits(fam)) continue;
      const bool was_upgrade = model.holds(fam);
      const auto expected = model.cancel(fam);
      (void)gdo.cancel_waiter(obj, FamilyId(fam));
      EXPECT_EQ(grant_events, expected) << "step " << step;
      (void)was_upgrade;
    }

    // Cross-check holder sets after every step.
    const GdoEntry entry = gdo.snapshot(obj);
    ASSERT_EQ(entry.holders.size(), model.holders().size())
        << "step " << step;
    for (const auto& [mfam, mmode] : model.holders()) {
      const auto it = entry.holders.find(FamilyId(mfam));
      ASSERT_NE(it, entry.holders.end()) << "step " << step;
      EXPECT_EQ(it->second.mode, mmode) << "step " << step;
    }
    EXPECT_EQ(entry.waiters.size(), model.queue_size()) << "step " << step;
  }
}

INSTANTIATE_TEST_SUITE_P(
    SeedsAndConfigs, GdoModelTest,
    ::testing::Combine(::testing::Values(1, 2, 3, 4, 5, 6, 7, 8),
                       ::testing::Bool(), ::testing::Values(true)),
    [](const auto& info) {
      return "s" + std::to_string(std::get<0>(info.param)) +
             (std::get<1>(info.param) ? "_fair" : "_paper") + "_batch";
    });

}  // namespace
}  // namespace lotec
