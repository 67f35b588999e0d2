#include "runtime/scheduler.hpp"

#include <sys/mman.h>
#include <unistd.h>

#include <cstdlib>
#include <exception>

#if defined(__SANITIZE_ADDRESS__)
#include <sanitizer/common_interface_defs.h>
#endif

namespace lotec {

namespace {

// AddressSanitizer tracks one stack per thread; every fiber switch must
// tell it which stack comes next, or it reports the fiber stacks as
// overflows.  No-ops in uninstrumented builds.
#if defined(__SANITIZE_ADDRESS__)
void start_switch(void** fake_stack, const void* bottom, std::size_t size) {
  __sanitizer_start_switch_fiber(fake_stack, bottom, size);
}
void finish_switch(void* fake_stack, const void** bottom_old,
                   std::size_t* size_old) {
  __sanitizer_finish_switch_fiber(fake_stack, bottom_old, size_old);
}
#else
void start_switch(void**, const void*, std::size_t) {}
void finish_switch(void*, const void**, std::size_t*) {}
#endif

std::size_t guard_bytes() {
  return static_cast<std::size_t>(sysconf(_SC_PAGESIZE));
}

void* stack_base(void* mapping) {
  return static_cast<char*>(mapping) + guard_bytes();
}

}  // namespace

TokenScheduler::TokenScheduler(Config config, SpanTracer& tracer)
    : config_(std::move(config)), tracer_(tracer) {
  if (config_.max_active == 0)
    throw UsageError("TokenScheduler: max_active must be >= 1");
}

TokenScheduler::~TokenScheduler() {
  for (const auto& slot : slots_)
    munmap(slot->mapping, guard_bytes() + kStackBytes);
}

void TokenScheduler::run(std::uint64_t seed,
                         std::vector<std::function<void()>> bodies,
                         StallHandler on_stall) {
  if (running_ != kNone)
    throw UsageError("TokenScheduler::run called from a family fiber");
  bodies_ = std::move(bodies);
  const std::size_t n = bodies_.size();
  states_.assign(n, State::kNotStarted);
  victim_.assign(n, false);
  slot_of_.assign(n, kNone);
  on_stall_ = std::move(on_stall);
  current_ = kNone;
  next_unstarted_ = 0;
  active_.clear();
  done_ = 0;
  rng_ = Rng(seed);
  cancelled_ = false;
  failure_.clear();
  caller_exception_ = std::current_exception();
  // Control comes back here only when a family finishes; every other
  // handoff switches from one family's fiber straight to the next.
  while (done_ < n) {
    schedule_next();
    if (current_ == kNone)
      throw Error("TokenScheduler: families left but none can run");
    switch_to_current();
  }
  bodies_.clear();
  on_stall_ = nullptr;
  caller_exception_ = nullptr;
  if (cancelled_) throw Error("TokenScheduler: run failed: " + failure_);
}

void TokenScheduler::fail(std::string why) {
  if (cancelled_) return;
  cancelled_ = true;
  failure_ = std::move(why);
}

void TokenScheduler::schedule_next() {
  if (current_ != kNone) return;
  // Only started families can be runnable or blocked, and active_ lists
  // them in index order, so this is the same list a scan of every family
  // would build.
  runnable_.clear();
  for (const std::size_t i : active_)
    if (states_[i] == State::kRunnable) runnable_.push_back(i);
  const bool can_spawn = next_unstarted_ < states_.size() &&
                         active_.size() < config_.max_active;

  if (runnable_.empty() && !can_spawn) {
    if (done_ == states_.size()) return;
    // Stall: every active family is blocked.  Ask the runtime for a
    // deadlock victim.
    std::size_t victim = kNoVictim;
    if (on_stall_ && !cancelled_) victim = on_stall_();
    if (victim == kNoVictim || victim >= states_.size() ||
        states_[victim] != State::kBlocked) {
      // Unresolvable stall (an internal bug): cancel the run and drain by
      // victimizing blocked families one at a time; executors observe
      // cancelled() and stop retrying.
      fail("stall with no resolvable deadlock victim");
      victim = kNoVictim;
      for (const std::size_t i : active_)
        if (states_[i] == State::kBlocked) {
          victim = i;
          break;
        }
      if (victim == kNoVictim) return;
    }
    victim_[victim] = true;
    states_[victim] = State::kRunnable;
    current_ = victim;
    return;
  }

  const std::size_t k = runnable_.size() + (can_spawn ? 1 : 0);
  std::size_t pick = 0;
  if (k > 1) {
    if (config_.picker) {
      pick = config_.picker(runnable_,
                            can_spawn ? next_unstarted_ : kNoSpawn);
      if (pick >= k) {
        // Cancel and drain rather than throw: this runs inside a family.
        fail("picker returned choice " + std::to_string(pick) + " of " +
             std::to_string(k));
        pick = 0;
      }
    } else {
      pick = rng_.below(k);
    }
  }
  if (pick < runnable_.size()) {
    current_ = runnable_[pick];
    return;
  }
  const std::size_t idx = next_unstarted_++;
  active_.push_back(idx);
  states_[idx] = State::kRunnable;
  current_ = idx;
  start_fiber(idx);
}

void TokenScheduler::start_fiber(std::size_t idx) {
  std::size_t s = 0;
  if (!free_slots_.empty()) {
    s = free_slots_.back();
    free_slots_.pop_back();
  } else {
    void* mapping = mmap(nullptr, guard_bytes() + kStackBytes,
                         PROT_READ | PROT_WRITE,
                         MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE |
                             MAP_STACK,
                         -1, 0);
    if (mapping == MAP_FAILED)
      throw Error("TokenScheduler: cannot map a fiber stack");
    if (mprotect(mapping, guard_bytes(), PROT_NONE) != 0) {
      munmap(mapping, guard_bytes() + kStackBytes);
      throw Error("TokenScheduler: cannot protect a fiber guard page");
    }
    s = slots_.size();
    slots_.push_back(std::make_unique<Slot>());
    slots_.back()->mapping = mapping;
  }
  slot_of_[idx] = s;
  Slot& slot = *slots_[s];
  slot.spans.clear();
  getcontext(&slot.ctx);
  slot.ctx.uc_stack.ss_sp = stack_base(slot.mapping);
  slot.ctx.uc_stack.ss_size = kStackBytes;
  slot.ctx.uc_link = nullptr;
  // makecontext passes int-sized arguments: split the pointer in two.
  const auto self = reinterpret_cast<std::uintptr_t>(this);
  makecontext(&slot.ctx, reinterpret_cast<void (*)()>(&fiber_entry), 2,
              static_cast<unsigned>(self >> 32),
              static_cast<unsigned>(self & 0xffffffffu));
}

void TokenScheduler::fiber_entry(unsigned hi, unsigned lo) {
  const auto self = (std::uintptr_t{hi} << 32) | std::uintptr_t{lo};
  reinterpret_cast<TokenScheduler*>(self)->fiber_main();
}

void TokenScheduler::fiber_main() {
  arrived(nullptr);
  const std::size_t idx = running_;
  states_[idx] = State::kRunning;
  // Record a leaked exception and leave the handler before switching away.
  std::string leaked;
  try {
    bodies_[idx]();
  } catch (const std::exception& e) {
    leaked = std::string("family body leaked exception: ") + e.what();
  } catch (...) {
    leaked = "family body leaked a non-std exception";
  }
  if (!leaked.empty()) fail(std::move(leaked));
  states_[idx] = State::kDone;
  ++done_;
  std::erase(active_, idx);
  // The slot is reused only by a start_fiber() on the caller's stack,
  // after the switch below has left this one for good.
  free_slots_.push_back(slot_of_[idx]);
  current_ = kNone;
  switch_to_current(/*exiting=*/true);
  std::abort();  // a finished fiber is never resumed
}

void TokenScheduler::arrived(void* fake_stack) {
  const void* bottom = nullptr;
  std::size_t size = 0;
  finish_switch(fake_stack, &bottom, &size);
  if (switched_from_ == kNone) {
    caller_stack_bottom_ = bottom;
    caller_stack_size_ = size;
  }
}

void TokenScheduler::switch_to_current(bool exiting) {
  const std::size_t from = running_;
  const std::size_t to = current_;
  if (from == to) return;
  const void* bottom = caller_stack_bottom_;
  std::size_t size = caller_stack_size_;
  std::vector<SpanContextEntry>* spans = nullptr;
  if (to != kNone) {
    Slot& next = *slots_[slot_of_[to]];
    bottom = stack_base(next.mapping);
    size = kStackBytes;
    spans = &next.spans;
  }
  tracer_.set_context_stack(spans);
  void** fake_stack = from == kNone ? &caller_fake_stack_
                                    : &slots_[slot_of_[from]]->fake_stack;
  switched_from_ = from;
  running_ = to;
  start_switch(exiting ? nullptr : fake_stack, bottom, size);
  swapcontext(&ctx_of(from), &ctx_of(to));
  // Resumed: another context handed the token back to `from`.
  arrived(*fake_stack);
}

void TokenScheduler::yield_from(std::size_t self) {
  current_ = kNone;
  schedule_next();
  switch_to_current();
  states_[self] = State::kRunning;
  if (victim_[self]) {
    victim_[self] = false;
    throw DeadlockVictimError(self);
  }
}

void TokenScheduler::require_token(std::size_t idx, const char* op) const {
  if (current_ != idx || running_ != idx)
    throw UsageError(std::string("TokenScheduler::") + op +
                     " called without the token");
  if (std::current_exception() != caller_exception_)
    throw UsageError(std::string("TokenScheduler::") + op +
                     " called inside a catch handler (fibers must not "
                     "switch while an exception is being handled)");
}

void TokenScheduler::block(std::size_t idx) {
  require_token(idx, "block");
  states_[idx] = State::kBlocked;
  yield_from(idx);
}

void TokenScheduler::wake(std::size_t idx) {
  if (idx >= states_.size())
    throw UsageError("TokenScheduler::wake: index out of range");
  if (states_[idx] == State::kBlocked) states_[idx] = State::kRunnable;
}

void TokenScheduler::preempt(std::size_t idx) {
  require_token(idx, "preempt");
  states_[idx] = State::kRunnable;
  yield_from(idx);
}

}  // namespace lotec
