// Family scheduler.
//
// A transaction family executes as straight-line code (method bodies with
// nested invocations) that can *block* mid-stack on a queued global lock
// request, so each active family runs as a fiber: its own stack and
// ucontext, switched on the thread that called run().  TokenScheduler
// drives those fibers cooperatively: exactly one family runs at a time; at
// every preemption point (global lock operations) a seeded RNG picks the
// next runnable family.  Identical seeds yield identical interleavings,
// which is what makes the benchmark traces and property tests reproducible.
// When every active family is blocked, the stall callback picks a deadlock
// victim, which is woken with DeadlockVictimError thrown from its block()
// call.
//
// Everything runs on one thread, so no state behind the scheduler needs a
// lock.  A scheduler (like the Cluster that owns one) is not thread-safe:
// use one per thread.
//
// Fibers never switch inside a catch handler: the C++ runtime keeps the
// caught-exception stack per thread, so a switch there would hand one
// family's std::current_exception() to another.  block() and preempt()
// throw UsageError when called from a handler.  run() itself may be called
// from a handler: the fibers only push and pop their exceptions above the
// caller's.
#pragma once

#include <ucontext.h>

#include <cstdint>
#include <exception>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "obs/span.hpp"

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
/// fiber slot is free, or TokenScheduler::kNoSpawn.  Return a value in
/// [0, runnable.size()]: values below runnable.size() hand the token to that
/// runnable family, exactly runnable.size() (only legal when a spawn
/// candidate exists) starts the spawn candidate.  Forced moves (one choice)
/// and stall/victim resolution never consult the picker, so a recorded
/// decision sequence is exactly the schedule's branching structure.  The
/// picker must not touch the scheduler or the cluster, only its own state.
using SchedulePicker = std::function<std::size_t(
    const std::vector<std::size_t>& runnable, std::size_t spawn_candidate)>;

class TokenScheduler {
 public:
  /// Resolve a stall: return the family index to victimize (it must be a
  /// currently blocked family), or kNoVictim if the stall is unexplainable
  /// (fatal).  Runs with no family executing.
  using StallHandler = std::function<std::size_t()>;
  static constexpr std::size_t kNoVictim = static_cast<std::size_t>(-1);
  /// spawn_candidate value when no fiber slot is free (see SchedulePicker).
  static constexpr std::size_t kNoSpawn = static_cast<std::size_t>(-1);
  /// Usable stack of every family fiber (plus one guard page below it):
  /// the usual default thread stack size (RLIMIT_STACK), so a family nests
  /// as deep as it would on a thread of its own.  Nesting depth is up to
  /// the workload; one nesting level takes a few KiB (more under
  /// AddressSanitizer).  The mapping is MAP_NORESERVE, so only the pages a
  /// family touches become resident.
  static constexpr std::size_t kStackBytes = std::size_t{8} << 20;

  struct Config {
    /// Maximum families started and not yet finished at once; further
    /// families start as earlier ones finish.
    std::size_t max_active = 16;
    /// When set, consulted instead of the seeded RNG at every decision
    /// point with more than one choice.
    SchedulePicker picker;
  };

  /// `tracer`'s open-span context follows the running fiber: each family
  /// fiber (and the caller of run()) keeps its own span stack.
  TokenScheduler(Config config, SpanTracer& tracer);
  ~TokenScheduler();
  TokenScheduler(const TokenScheduler&) = delete;
  TokenScheduler& operator=(const TokenScheduler&) = delete;

  /// Run all family bodies to completion on the calling thread, with
  /// interleavings drawn from `seed`.  `bodies[i]` executes family i;
  /// bodies must not leak exceptions (the executor catches everything).
  void run(std::uint64_t seed, std::vector<std::function<void()>> bodies,
           StallHandler on_stall);

  /// Called from family `idx`'s own fiber: give up the token until
  /// wake(idx) and a later pick.  Throws DeadlockVictimError if victimized
  /// while blocked.
  void block(std::size_t idx);

  /// Make a blocked family runnable (called from another family while it
  /// delivers lock-grant wakeups).  Idempotent.
  void wake(std::size_t idx);

  /// Preemption point (called at global lock operations): hand the token
  /// to a seeded pick among the runnable families, possibly this one.
  void preempt(std::size_t idx);

  /// True after an internal failure: executors should stop retrying and
  /// finish so the scheduler can drain.
  [[nodiscard]] bool cancelled() const noexcept { return cancelled_; }

 private:
  enum class State : std::uint8_t {
    kNotStarted,
    kRunnable,
    kRunning,
    kBlocked,
    kDone
  };

  /// One fiber slot: a guard-paged stack reused by the families that run
  /// in it one after another, and the open spans of its current family.
  struct Slot {
    void* mapping = nullptr;  ///< guard page + stack
    ucontext_t ctx{};
    void* fake_stack = nullptr;  ///< AddressSanitizer fake-stack handle
    std::vector<SpanContextEntry> spans;
  };

  static constexpr std::size_t kNone = static_cast<std::size_t>(-1);

  /// Pick the next family and record it in current_ (starting a fresh
  /// fiber when a slot is free).  Requires no current runner.
  void schedule_next();
  /// Give up the token from family `self` (kNone = the caller of run())
  /// and return once it is handed back.  Throws DeadlockVictimError if
  /// `self` was flagged as victim meanwhile.
  void yield_from(std::size_t self);
  /// Switch from the running context to family current_'s fiber, or to the
  /// caller of run() when current_ is kNone.  `exiting` marks the last
  /// switch away from a finished family's fiber.
  void switch_to_current(bool exiting = false);
  /// First thing a context does when it (re)gains the CPU: finish the
  /// sanitizer switch and learn the caller's stack bounds from it.
  void arrived(void* fake_stack);
  void start_fiber(std::size_t idx);
  void fiber_main();
  static void fiber_entry(unsigned hi, unsigned lo);
  void fail(std::string why);
  void require_token(std::size_t idx, const char* op) const;

  [[nodiscard]] ucontext_t& ctx_of(std::size_t family) {
    return family == kNone ? caller_ctx_ : slots_[slot_of_[family]]->ctx;
  }

  Config config_;
  SpanTracer& tracer_;
  std::vector<std::function<void()>> bodies_;
  std::vector<State> states_;
  std::vector<bool> victim_;
  std::vector<std::size_t> slot_of_;
  std::vector<std::unique_ptr<Slot>> slots_;
  std::vector<std::size_t> free_slots_;
  ucontext_t caller_ctx_{};
  void* caller_fake_stack_ = nullptr;
  /// The exception the caller of run() is handling, if any: fibers see it
  /// as theirs too, so only a different one means a fiber is in a handler.
  std::exception_ptr caller_exception_;
  const void* caller_stack_bottom_ = nullptr;
  std::size_t caller_stack_size_ = 0;
  StallHandler on_stall_;
  /// Family holding the token (kNone between picks).
  std::size_t current_ = kNone;
  /// Context executing right now (kNone = the caller of run()).
  std::size_t running_ = kNone;
  /// Context that made the latest switch.
  std::size_t switched_from_ = kNone;
  std::size_t next_unstarted_ = 0;
  /// Started, unfinished families in index order (at most max_active).
  std::vector<std::size_t> active_;
  /// Scratch for schedule_next's runnable list.
  std::vector<std::size_t> runnable_;
  std::size_t done_ = 0;
  Rng rng_{1};
  bool cancelled_ = false;
  std::string failure_;
};

}  // namespace lotec
