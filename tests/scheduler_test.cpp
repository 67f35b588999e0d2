// Token scheduler: token-passing determinism, block/wake, victim delivery,
// stall handling, and the fiber invariants (one thread, per-fiber span
// context, no switch inside a catch handler).
#include <gtest/gtest.h>

#include <atomic>
#include <stdexcept>
#include <thread>

#include "obs/span.hpp"
#include "runtime/scheduler.hpp"

namespace lotec {
namespace {

class TokenSchedulerTest : public ::testing::Test {
 protected:
  SpanTracer tracer_;
};

TEST_F(TokenSchedulerTest, RunsEveryBodyOnce) {
  TokenScheduler sched({.max_active = 2, .picker = {}}, tracer_);
  std::vector<int> counts(5, 0);
  std::vector<std::function<void()>> bodies;
  for (int i = 0; i < 5; ++i)
    bodies.emplace_back([&counts, i] { counts[static_cast<size_t>(i)]++; });
  sched.run(1, std::move(bodies), nullptr);
  for (const int c : counts) EXPECT_EQ(c, 1);
}

TEST_F(TokenSchedulerTest, EmptyRunCompletes) {
  TokenScheduler sched({.max_active = 4, .picker = {}}, tracer_);
  EXPECT_NO_THROW(sched.run(1, {}, nullptr));
}

TEST_F(TokenSchedulerTest, InterleavingIsDeterministicPerSeed) {
  const auto trace_for = [this](std::uint64_t seed) {
    TokenScheduler sched({.max_active = 4, .picker = {}}, tracer_);
    std::vector<int> trace;
    std::vector<std::function<void()>> bodies;
    for (int i = 0; i < 6; ++i)
      bodies.emplace_back([&sched, &trace, i] {
        for (int k = 0; k < 3; ++k) {
          trace.push_back(i);
          sched.preempt(static_cast<std::size_t>(i));
        }
      });
    sched.run(seed, std::move(bodies), nullptr);
    return trace;
  };
  const auto a = trace_for(7);
  const auto b = trace_for(7);
  const auto c = trace_for(8);
  EXPECT_EQ(a, b);
  EXPECT_NE(a, c);  // different seed, different interleaving
  EXPECT_EQ(a.size(), 18u);
}

TEST_F(TokenSchedulerTest, OnlyOneFamilyRunsAtATime) {
  TokenScheduler sched({.max_active = 8, .picker = {}}, tracer_);
  std::atomic<int> running{0};
  std::atomic<bool> overlap{false};
  std::vector<std::function<void()>> bodies;
  for (int i = 0; i < 8; ++i)
    bodies.emplace_back([&, i] {
      for (int k = 0; k < 5; ++k) {
        if (running.fetch_add(1) != 0) overlap.store(true);
        running.fetch_sub(1);
        sched.preempt(static_cast<std::size_t>(i));
      }
    });
  sched.run(3, std::move(bodies), nullptr);
  EXPECT_FALSE(overlap.load());
}

TEST_F(TokenSchedulerTest, BlockWakeHandshake) {
  TokenScheduler sched({.max_active = 2, .picker = {}}, tracer_);
  std::vector<int> order;
  std::vector<std::function<void()>> bodies(2);
  bodies[0] = [&] {
    order.push_back(0);
    sched.block(0);  // family 1 will wake us
    order.push_back(2);
  };
  bodies[1] = [&] {
    order.push_back(1);
    sched.wake(0);
  };
  sched.run(1, std::move(bodies), nullptr);
  ASSERT_EQ(order.size(), 3u);
  EXPECT_EQ(order[0], 0);
  EXPECT_EQ(order[1], 1);
  EXPECT_EQ(order[2], 2);
}

TEST_F(TokenSchedulerTest, StallPicksVictimWhichThrows) {
  TokenScheduler sched({.max_active = 2, .picker = {}}, tracer_);
  bool victimized = false;
  int stalls = 0;
  std::vector<std::function<void()>> bodies(2);
  bodies[0] = [&] {
    try {
      sched.block(0);  // nobody will wake us
    } catch (const DeadlockVictimError& e) {
      EXPECT_EQ(e.family_index(), 0u);
      victimized = true;
    }
  };
  bodies[1] = [&] { /* finishes immediately */ };
  sched.run(1, std::move(bodies), [&]() -> std::size_t {
    ++stalls;
    return 0;  // victimize family 0
  });
  EXPECT_TRUE(victimized);
  EXPECT_EQ(stalls, 1);
}

TEST_F(TokenSchedulerTest, UnresolvableStallCancelsRun) {
  TokenScheduler sched({.max_active = 1, .picker = {}}, tracer_);
  bool saw_victim_error = false;
  std::vector<std::function<void()>> bodies(1);
  bodies[0] = [&] {
    try {
      sched.block(0);
    } catch (const DeadlockVictimError&) {
      saw_victim_error = true;  // drain path victimizes us
      EXPECT_TRUE(sched.cancelled());
    }
  };
  EXPECT_THROW(
      sched.run(1, std::move(bodies),
                []() -> std::size_t { return TokenScheduler::kNoVictim; }),
      Error);
  EXPECT_TRUE(saw_victim_error);
}

TEST_F(TokenSchedulerTest, MaxActiveBoundsConcurrentFamilies) {
  TokenScheduler sched({.max_active = 2, .picker = {}}, tracer_);
  // With max_active=2 and bodies that block until woken by a later body,
  // progress requires the scheduler to only admit 2 at a time and still
  // finish: body i wakes body i-1.
  constexpr std::size_t kN = 6;
  std::vector<std::function<void()>> bodies(kN);
  for (std::size_t i = 0; i < kN; ++i)
    bodies[i] = [&sched, i] {
      if (i + 1 < kN) {
        // All but the last block; each is woken by the next admitted body.
      }
      if (i > 0) sched.wake(i - 1);
      if (i + 1 < kN) sched.block(i);
    };
  EXPECT_NO_THROW(sched.run(2, std::move(bodies), nullptr));
}

TEST_F(TokenSchedulerTest, BodiesRunOnCallerThread) {
  TokenScheduler sched({.max_active = 3, .picker = {}}, tracer_);
  const std::thread::id caller = std::this_thread::get_id();
  std::vector<std::thread::id> seen;
  std::vector<std::function<void()>> bodies;
  for (int i = 0; i < 4; ++i)
    bodies.emplace_back([&sched, &seen, i] {
      for (int k = 0; k < 3; ++k) {
        seen.push_back(std::this_thread::get_id());
        sched.preempt(static_cast<std::size_t>(i));
      }
    });
  sched.run(5, std::move(bodies), nullptr);
  ASSERT_EQ(seen.size(), 12u);
  for (const std::thread::id id : seen) EXPECT_EQ(id, caller);
}

TEST_F(TokenSchedulerTest, SwitchInsideCatchHandlerFailsLoudly) {
  TokenScheduler sched({.max_active = 1, .picker = {}}, tracer_);
  int refused = 0;
  std::vector<std::function<void()>> bodies(1);
  bodies[0] = [&] {
    try {
      throw std::runtime_error("in flight");
    } catch (const std::exception&) {
      EXPECT_THROW(sched.preempt(0), UsageError);
      EXPECT_THROW(sched.block(0), UsageError);
      ++refused;
    }
    sched.preempt(0);  // outside the handler: fine
  };
  sched.run(1, std::move(bodies), nullptr);
  EXPECT_EQ(refused, 1);
}

// The caller of run() may itself be handling an exception: the fibers see
// it below their own, so switching is still safe and allowed, while a
// family's own handler is still refused.
TEST_F(TokenSchedulerTest, RunFromCallerCatchHandler) {
  TokenScheduler sched({.max_active = 2, .picker = {}}, tracer_);
  int preempts = 0;
  int refused = 0;
  try {
    throw std::runtime_error("caller's");
  } catch (const std::exception&) {
    std::vector<std::function<void()>> bodies;
    for (int i = 0; i < 3; ++i)
      bodies.emplace_back([&, i] {
        const auto idx = static_cast<std::size_t>(i);
        sched.preempt(idx);
        ++preempts;
        try {
          throw std::runtime_error("family's");
        } catch (const std::exception&) {
          EXPECT_THROW(sched.preempt(idx), UsageError);
          ++refused;
        }
      });
    EXPECT_NO_THROW(sched.run(1, std::move(bodies), nullptr));
  }
  EXPECT_EQ(preempts, 3);
  EXPECT_EQ(refused, 3);
}

TEST_F(TokenSchedulerTest, ReusedAcrossRunsWithFreshSeed) {
  TokenScheduler sched({.max_active = 2, .picker = {}}, tracer_);
  const auto trace = [&sched](std::uint64_t seed) {
    std::vector<int> out;
    std::vector<std::function<void()>> bodies;
    for (int i = 0; i < 4; ++i)
      bodies.emplace_back([&sched, &out, i] {
        for (int k = 0; k < 3; ++k) {
          out.push_back(i);
          sched.preempt(static_cast<std::size_t>(i));
        }
      });
    sched.run(seed, std::move(bodies), nullptr);
    return out;
  };
  const std::vector<int> first = trace(7);
  EXPECT_EQ(trace(7), first);  // same seed, same interleaving
  EXPECT_NE(trace(8), first);
  EXPECT_EQ(trace(7), first);
}

// Family A opens a span and blocks; family B opens its own span meanwhile.
// Each family's current context (what stamps its messages and links its
// serve spans) must name its own span, never the other fiber's.
TEST_F(TokenSchedulerTest, EachFiberKeepsItsOwnSpanContext) {
  SpanTracer& tracer = tracer_;
  tracer.enable();
  TokenScheduler sched({.max_active = 2, .picker = {}}, tracer);
  std::uint64_t span_a = 0;
  std::uint64_t span_b = 0;
  std::vector<std::function<void()>> bodies(2);
  bodies[0] = [&] {
    ScopedSpan outer(&tracer, SpanPhase::kFamilyAttempt, /*family=*/1, 0);
    span_a = tracer.current_context().parent_span;
    sched.block(0);  // family B runs and opens its span
    EXPECT_EQ(tracer.current_context().parent_span, span_a);
    ScopedServeSpan serve(&tracer, SpanPhase::kGdoServe, /*node=*/0);
    ScopedSpan inner(&tracer, SpanPhase::kLockAcquire, /*family=*/1, 0);
    sched.wake(1);
  };
  bodies[1] = [&] {
    ScopedSpan outer(&tracer, SpanPhase::kFamilyAttempt, /*family=*/2, 1);
    span_b = tracer.current_context().parent_span;
    EXPECT_NE(span_b, span_a);
    sched.wake(0);
    sched.block(1);  // family A resumes with our span still open
    EXPECT_EQ(tracer.current_context().parent_span, span_b);
    ScopedServeSpan serve(&tracer, SpanPhase::kGdoServe, /*node=*/1);
  };
  sched.run(1, std::move(bodies), nullptr);
  EXPECT_EQ(tracer.current_context().parent_span, 0u);
  EXPECT_EQ(tracer.open_count(), 0u);

  std::size_t serves = 0;
  for (const SpanRecord& s : tracer.spans()) {
    if (s.phase == SpanPhase::kGdoServe) {
      ++serves;
      EXPECT_EQ(s.link, s.node == 0 ? span_a : span_b);
    } else if (s.phase == SpanPhase::kLockAcquire) {
      EXPECT_EQ(s.parent, span_a);
    } else {
      EXPECT_EQ(s.parent, 0u);
    }
  }
  EXPECT_EQ(serves, 2u);
}

}  // namespace
}  // namespace lotec
