// Token scheduler: token-passing determinism, block/wake, victim delivery
// and stall handling.
#include <gtest/gtest.h>

#include <atomic>

#include "runtime/scheduler.hpp"

namespace lotec {
namespace {

TEST(TokenSchedulerTest, RunsEveryBodyOnce) {
  TokenScheduler sched({.seed = 1, .max_active = 2, .picker = {}});
  std::vector<int> counts(5, 0);
  std::vector<std::function<void()>> bodies;
  for (int i = 0; i < 5; ++i)
    bodies.emplace_back([&counts, i] { counts[static_cast<size_t>(i)]++; });
  sched.run(std::move(bodies), nullptr);
  for (const int c : counts) EXPECT_EQ(c, 1);
}

TEST(TokenSchedulerTest, EmptyRunCompletes) {
  TokenScheduler sched({.seed = 1, .max_active = 4, .picker = {}});
  EXPECT_NO_THROW(sched.run({}, nullptr));
}

TEST(TokenSchedulerTest, InterleavingIsDeterministicPerSeed) {
  const auto trace_for = [](std::uint64_t seed) {
    TokenScheduler sched({.seed = seed, .max_active = 4, .picker = {}});
    std::vector<int> trace;
    std::vector<std::function<void()>> bodies;
    for (int i = 0; i < 6; ++i)
      bodies.emplace_back([&sched, &trace, i] {
        for (int k = 0; k < 3; ++k) {
          trace.push_back(i);
          sched.preempt(static_cast<std::size_t>(i));
        }
      });
    sched.run(std::move(bodies), nullptr);
    return trace;
  };
  const auto a = trace_for(7);
  const auto b = trace_for(7);
  const auto c = trace_for(8);
  EXPECT_EQ(a, b);
  EXPECT_NE(a, c);  // different seed, different interleaving
  EXPECT_EQ(a.size(), 18u);
}

TEST(TokenSchedulerTest, OnlyOneFamilyRunsAtATime) {
  TokenScheduler sched({.seed = 3, .max_active = 8, .picker = {}});
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
  sched.run(std::move(bodies), nullptr);
  EXPECT_FALSE(overlap.load());
}

TEST(TokenSchedulerTest, BlockWakeHandshake) {
  TokenScheduler sched({.seed = 1, .max_active = 2, .picker = {}});
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
  sched.run(std::move(bodies), nullptr);
  ASSERT_EQ(order.size(), 3u);
  EXPECT_EQ(order[0], 0);
  EXPECT_EQ(order[1], 1);
  EXPECT_EQ(order[2], 2);
}

TEST(TokenSchedulerTest, StallPicksVictimWhichThrows) {
  TokenScheduler sched({.seed = 1, .max_active = 2, .picker = {}});
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
  sched.run(std::move(bodies), [&]() -> std::size_t {
    ++stalls;
    return 0;  // victimize family 0
  });
  EXPECT_TRUE(victimized);
  EXPECT_EQ(stalls, 1);
}

TEST(TokenSchedulerTest, UnresolvableStallCancelsRun) {
  TokenScheduler sched({.seed = 1, .max_active = 1, .picker = {}});
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
      sched.run(std::move(bodies),
                []() -> std::size_t { return TokenScheduler::kNoVictim; }),
      Error);
  EXPECT_TRUE(saw_victim_error);
}

TEST(TokenSchedulerTest, MaxActiveBoundsConcurrentFamilies) {
  TokenScheduler sched({.seed = 2, .max_active = 2, .picker = {}});
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
  EXPECT_NO_THROW(sched.run(std::move(bodies), nullptr));
}

}  // namespace
}  // namespace lotec
