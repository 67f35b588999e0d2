#include "runtime/scheduler.hpp"

#include "common/logging.hpp"

namespace lotec {

void TokenScheduler::run(std::vector<std::function<void()>> bodies,
                         StallHandler on_stall) {
  {
    std::unique_lock<std::mutex> lock(mu_);
    bodies_ = std::move(bodies);
    const std::size_t n = bodies_.size();
    states_.assign(n, State::kNotStarted);
    victim_.assign(n, false);
    threads_.clear();
    threads_.reserve(n);
    on_stall_ = std::move(on_stall);
    current_ = kNone;
    next_unstarted_ = 0;
    active_ = 0;
    done_ = 0;
    rng_ = Rng(config_.seed);
    cancelled_.store(false);
    failure_.clear();
    if (n > 0) schedule_next_locked();
  }
  {
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait(lock, [&] { return done_ == states_.size(); });
  }
  for (auto& t : threads_) t.join();
  if (cancelled_.load())
    throw Error("TokenScheduler: run failed: " + failure_);
}

void TokenScheduler::schedule_next_locked() {
  if (current_ != kNone) return;
  std::vector<std::size_t> runnable;
  for (std::size_t i = 0; i < states_.size(); ++i)
    if (states_[i] == State::kRunnable) runnable.push_back(i);
  const bool can_spawn = next_unstarted_ < states_.size() &&
                         active_ < config_.max_active;

  if (runnable.empty() && !can_spawn) {
    if (done_ == states_.size()) {
      cv_.notify_all();
      return;
    }
    // Stall: every active family is blocked.  Ask the runtime for a
    // deadlock victim.
    std::size_t victim = kNoVictim;
    if (on_stall_ && !cancelled_.load()) victim = on_stall_();
    if (victim == kNoVictim || victim >= states_.size() ||
        states_[victim] != State::kBlocked) {
      // Unresolvable stall (an internal bug): cancel the run and drain by
      // victimizing blocked families one at a time; executors observe
      // cancelled() and stop retrying.
      if (!cancelled_.load()) {
        cancelled_.store(true);
        failure_ = "stall with no resolvable deadlock victim";
      }
      victim = kNoVictim;
      for (std::size_t i = 0; i < states_.size(); ++i)
        if (states_[i] == State::kBlocked) {
          victim = i;
          break;
        }
      if (victim == kNoVictim) {
        cv_.notify_all();  // nothing to drain; let run() fail on join
        return;
      }
    }
    victim_[victim] = true;
    states_[victim] = State::kRunnable;
    current_ = victim;
    cv_.notify_all();
    return;
  }

  const std::size_t k = runnable.size() + (can_spawn ? 1 : 0);
  std::size_t pick = 0;
  if (k > 1) {
    if (config_.picker) {
      pick = config_.picker(runnable,
                            can_spawn ? next_unstarted_ : kNoSpawn);
      if (pick >= k) {
        // Cancel and drain rather than throw: this runs on family threads.
        if (!cancelled_.load()) {
          cancelled_.store(true);
          failure_ = "picker returned choice " + std::to_string(pick) +
                     " of " + std::to_string(k);
        }
        pick = 0;
      }
    } else {
      pick = rng_.below(k);
    }
  }
  if (pick < runnable.size()) {
    current_ = runnable[pick];
    cv_.notify_all();
    return;
  }
  // Spawn the next family.
  const std::size_t idx = next_unstarted_++;
  ++active_;
  states_[idx] = State::kRunnable;
  current_ = idx;
  threads_.emplace_back([this, idx] {
    {
      std::unique_lock<std::mutex> lock(mu_);
      // The token was handed to us at spawn time.
      states_[idx] = State::kRunning;
    }
    try {
      bodies_[idx]();
    } catch (const std::exception& e) {
      std::unique_lock<std::mutex> lock(mu_);
      if (!cancelled_.load()) {
        cancelled_.store(true);
        failure_ = std::string("family body leaked exception: ") + e.what();
      }
    } catch (...) {
      std::unique_lock<std::mutex> lock(mu_);
      if (!cancelled_.load()) {
        cancelled_.store(true);
        failure_ = "family body leaked a non-std exception";
      }
    }
    {
      std::unique_lock<std::mutex> lock(mu_);
      states_[idx] = State::kDone;
      ++done_;
      --active_;
      current_ = kNone;
      schedule_next_locked();
      cv_.notify_all();
    }
  });
}

void TokenScheduler::await_token_locked(std::unique_lock<std::mutex>& lock,
                                        std::size_t idx) {
  cv_.wait(lock, [&] { return current_ == idx; });
  states_[idx] = State::kRunning;
  if (victim_[idx]) {
    victim_[idx] = false;
    throw DeadlockVictimError(idx);
  }
}

void TokenScheduler::block(std::size_t idx) {
  std::unique_lock<std::mutex> lock(mu_);
  if (current_ != idx)
    throw UsageError("TokenScheduler::block called without the token");
  states_[idx] = State::kBlocked;
  current_ = kNone;
  schedule_next_locked();
  await_token_locked(lock, idx);
}

void TokenScheduler::wake(std::size_t idx) {
  std::unique_lock<std::mutex> lock(mu_);
  if (idx >= states_.size())
    throw UsageError("TokenScheduler::wake: index out of range");
  if (states_[idx] == State::kBlocked) states_[idx] = State::kRunnable;
}

void TokenScheduler::preempt(std::size_t idx) {
  std::unique_lock<std::mutex> lock(mu_);
  if (current_ != idx)
    throw UsageError("TokenScheduler::preempt called without the token");
  states_[idx] = State::kRunnable;
  current_ = kNone;
  schedule_next_locked();
  await_token_locked(lock, idx);
}

}  // namespace lotec
