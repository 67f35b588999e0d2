// Family scheduler.
//
// A transaction family executes as straight-line code (method bodies with
// nested invocations) that can *block* mid-stack on a queued global lock
// request, so each active family gets a dedicated thread.  TokenScheduler
// drives those threads cooperatively: exactly one family runs at a time; at
// every preemption point (global lock operations) a seeded RNG picks the
// next runnable family.  Identical seeds yield identical interleavings,
// which is what makes the benchmark traces and property tests reproducible.
// When every active family is blocked, the stall callback picks a deadlock
// victim, which is woken with DeadlockVictimError thrown from its block()
// call.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/error.hpp"
#include "common/rng.hpp"

namespace lotec {

/// Thrown from TokenScheduler::block() in the blocked family's context when
/// it is chosen as a deadlock victim.  The family executor catches it, rolls
/// the family back and retries.
class DeadlockVictimError {
 public:
  explicit DeadlockVictimError(std::size_t family_index) noexcept
      : index_(family_index) {}
  [[nodiscard]] std::size_t family_index() const noexcept { return index_; }

 private:
  std::size_t index_;
};

/// Controlled-scheduling hook (src/check): replaces the TokenScheduler's
/// seeded RNG at every *real* decision point (two or more choices).
/// `runnable` lists the family indices that could take the token next;
/// `spawn_candidate` is the index of the next not-yet-started family when a
/// thread slot is free, or TokenScheduler::kNoSpawn.  Return a value in
/// [0, runnable.size()]: values below runnable.size() hand the token to that
/// runnable family, exactly runnable.size() (only legal when a spawn
/// candidate exists) starts the spawn candidate.  Forced moves (one choice)
/// and stall/victim resolution never consult the picker, so a recorded
/// decision sequence is exactly the schedule's branching structure.  The
/// picker runs under the scheduler mutex: it must not touch the scheduler
/// or the cluster, only its own state.
using SchedulePicker = std::function<std::size_t(
    const std::vector<std::size_t>& runnable, std::size_t spawn_candidate)>;

class TokenScheduler {
 public:
  /// Resolve a stall: return the family index to victimize (it must be a
  /// currently blocked family), or kNoVictim if the stall is unexplainable
  /// (fatal).  Runs with no family executing.
  using StallHandler = std::function<std::size_t()>;
  static constexpr std::size_t kNoVictim = static_cast<std::size_t>(-1);
  /// spawn_candidate value when no thread slot is free (see SchedulePicker).
  static constexpr std::size_t kNoSpawn = static_cast<std::size_t>(-1);

  struct Config {
    std::uint64_t seed = 1;
    /// Maximum families with live threads at once; further families start
    /// as earlier ones finish.
    std::size_t max_active = 16;
    /// When set, consulted instead of the seeded RNG at every decision
    /// point with more than one choice.
    SchedulePicker picker;
  };

  explicit TokenScheduler(Config config) : config_(config) {
    if (config_.max_active == 0)
      throw UsageError("TokenScheduler: max_active must be >= 1");
  }

  /// Run all family bodies to completion.  `bodies[i]` executes family i;
  /// bodies must not leak exceptions (the executor catches everything).
  void run(std::vector<std::function<void()>> bodies, StallHandler on_stall);

  /// Called from family `idx`'s own thread: give up the token until
  /// wake(idx) and a later pick.  Throws DeadlockVictimError if victimized
  /// while blocked.
  void block(std::size_t idx);

  /// Make a blocked family runnable (called from another family's thread
  /// while it delivers lock-grant wakeups).  Idempotent.
  void wake(std::size_t idx);

  /// Preemption point (called at global lock operations): hand the token
  /// to a seeded pick among the runnable families, possibly this one.
  void preempt(std::size_t idx);

  /// True after an internal failure: executors should stop retrying and
  /// finish so the scheduler can drain.
  [[nodiscard]] bool cancelled() const {
    return cancelled_.load(std::memory_order_relaxed);
  }

 private:
  enum class State : std::uint8_t {
    kNotStarted,
    kRunnable,
    kRunning,
    kBlocked,
    kDone
  };

  /// Pick and hand the token to the next family (spawning a fresh thread
  /// when a slot is free).  Requires mu_ held and no current runner.
  void schedule_next_locked();

  /// Wait until this family holds the token; returns with state kRunning.
  /// Throws DeadlockVictimError if flagged as victim.
  void await_token_locked(std::unique_lock<std::mutex>& lock,
                          std::size_t idx);

  Config config_;
  std::mutex mu_;
  std::condition_variable cv_;
  std::vector<std::function<void()>> bodies_;
  std::vector<State> states_;
  std::vector<bool> victim_;
  std::vector<std::thread> threads_;
  StallHandler on_stall_;
  std::size_t current_ = kNone;
  std::size_t next_unstarted_ = 0;
  std::size_t active_ = 0;
  std::size_t done_ = 0;
  Rng rng_{1};
  std::atomic<bool> cancelled_{false};
  std::string failure_;

  static constexpr std::size_t kNone = static_cast<std::size_t>(-1);
};

}  // namespace lotec
