#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include "fiber/fiber.hpp"
#include "fiber/ready_set.hpp"
#include "fiber/stack_pool.hpp"
#include "support/common.hpp"

namespace alge::fiber {
namespace {

TEST(Fiber, RunsToCompletion) {
  Scheduler s;
  int ran = 0;
  s.spawn([&] { ++ran; });
  s.run();
  EXPECT_EQ(ran, 1);
  EXPECT_EQ(s.live_count(), 0u);
}

TEST(Fiber, RoundRobinInterleavesYields) {
  Scheduler s;
  std::string order;
  s.spawn([&] {
    order += 'a';
    Scheduler::active()->yield();
    order += 'A';
  });
  s.spawn([&] {
    order += 'b';
    Scheduler::active()->yield();
    order += 'B';
  });
  s.run();
  EXPECT_EQ(order, "abAB");
}

TEST(Fiber, BlockUnblock) {
  Scheduler s;
  std::vector<int> events;
  Scheduler::FiberId waiter = s.spawn([&] {
    events.push_back(1);
    Scheduler::active()->block("waiting for go");
    events.push_back(3);
  });
  s.spawn([&] {
    events.push_back(2);
    Scheduler::active()->unblock(waiter);
  });
  s.run();
  ASSERT_EQ(events.size(), 3u);
  EXPECT_EQ(events[0], 1);
  EXPECT_EQ(events[1], 2);
  EXPECT_EQ(events[2], 3);
}

TEST(Fiber, DeadlockDetectedWithReasons) {
  Scheduler s;
  s.spawn([] { Scheduler::active()->block("rank 0 waiting for rank 1"); });
  s.spawn([] { Scheduler::active()->block("rank 1 waiting for rank 0"); });
  try {
    s.run();
    FAIL() << "expected DeadlockError";
  } catch (const DeadlockError& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("rank 0 waiting for rank 1"), std::string::npos);
    EXPECT_NE(msg.find("rank 1 waiting for rank 0"), std::string::npos);
  }
}

TEST(Fiber, ExceptionPropagatesAndOthersUnwind) {
  Scheduler s;
  bool other_destroyed = false;
  struct Sentinel {
    bool* flag;
    ~Sentinel() { *flag = true; }
  };
  s.spawn([&] {
    Sentinel guard{&other_destroyed};
    Scheduler::active()->block("never woken");
    FAIL() << "must not resume normally";
  });
  s.spawn([] { throw std::runtime_error("boom"); });
  EXPECT_THROW(s.run(), std::runtime_error);
  EXPECT_TRUE(other_destroyed) << "blocked fiber stack must be unwound";
}

TEST(Fiber, CancellationIsNotAnError) {
  // A fiber that exits via FiberCancelled counts as finished, not failed.
  Scheduler s;
  s.spawn([&] { Scheduler::active()->block("forever"); });
  s.spawn([] { throw std::logic_error("primary"); });
  EXPECT_THROW(s.run(), std::logic_error);
}

TEST(Fiber, ManyFibersDeepInterleaving) {
  Scheduler s;
  constexpr int kN = 100;
  constexpr int kYields = 25;
  std::vector<int> progress(kN, 0);
  for (int i = 0; i < kN; ++i) {
    s.spawn([&, i] {
      for (int k = 0; k < kYields; ++k) {
        ++progress[static_cast<std::size_t>(i)];
        Scheduler::active()->yield();
      }
    });
  }
  s.run();
  for (int i = 0; i < kN; ++i) EXPECT_EQ(progress[static_cast<std::size_t>(i)], kYields);
}

TEST(Fiber, SpawnValidatesArguments) {
  Scheduler s;
  EXPECT_THROW(s.spawn(nullptr), invalid_argument_error);
  EXPECT_THROW(s.spawn([] {}, 1024), invalid_argument_error);
}

TEST(Fiber, NestedFunctionCallsCanBlock) {
  // Blocking works deep in a call stack, which is what the simulator relies
  // on (recv inside collectives inside algorithms).
  Scheduler s;
  Scheduler::FiberId waiter = -1;
  int depth_reached = 0;
  std::function<void(int)> deep = [&](int d) {
    if (d == 0) {
      Scheduler::active()->block("deep block");
      depth_reached = 42;
      return;
    }
    deep(d - 1);
  };
  waiter = s.spawn([&] { deep(20); });
  s.spawn([&] { Scheduler::active()->unblock(waiter); });
  s.run();
  EXPECT_EQ(depth_reached, 42);
}

TEST(Fiber, CurrentIdMatchesSpawnOrder) {
  Scheduler s;
  std::vector<int> ids;
  for (int i = 0; i < 3; ++i) {
    s.spawn([&] { ids.push_back(Scheduler::active()->current()); });
  }
  s.run();
  ASSERT_EQ(ids.size(), 3u);
  EXPECT_EQ(ids[0], 0);
  EXPECT_EQ(ids[1], 1);
  EXPECT_EQ(ids[2], 2);
}

TEST(Fiber, DestructorUnwindsUnfinishedFibers) {
  bool destroyed = false;
  struct Sentinel {
    bool* flag;
    ~Sentinel() { *flag = true; }
  };
  {
    Scheduler s;
    s.spawn([&] {
      Sentinel guard{&destroyed};
      Scheduler::active()->block("never");
    });
    // run() never called for the blocked fiber to finish; give it a start:
    s.spawn([] {});
    try {
      s.run();
    } catch (const DeadlockError&) {
      // expected
    }
  }
  EXPECT_TRUE(destroyed);
}


TEST(Fiber, LazyBlockDescriberOnlyRunsOnDeadlock) {
  static int describer_calls = 0;
  describer_calls = 0;
  struct Ctx {
    int id;
  };
  Scheduler::BlockDescriber describe = [](const void* arg) {
    ++describer_calls;
    return std::string("custom wait on widget ") +
           std::to_string(static_cast<const Ctx*>(arg)->id);
  };

  // Normal block/unblock round trip: the describer must never run.
  {
    Scheduler s;
    Scheduler::FiberId sleeper = -1;
    sleeper = s.spawn([&] {
      Ctx ctx{3};
      Scheduler::active()->block(describe, &ctx);
    });
    s.spawn([&] { Scheduler::active()->unblock(sleeper); });
    s.run();
    EXPECT_EQ(describer_calls, 0);
  }

  // Deadlock: the describer materializes the reason into the diagnosis.
  {
    Scheduler s;
    s.spawn([&] {
      Ctx ctx{42};
      Scheduler::active()->block(describe, &ctx);
    });
    try {
      s.run();
      FAIL() << "expected DeadlockError";
    } catch (const DeadlockError& e) {
      EXPECT_NE(std::string(e.what()).find("custom wait on widget 42"),
                std::string::npos);
    }
    EXPECT_GE(describer_calls, 1);
  }
}

TEST(ReadySet, InsertEraseContains) {
  ReadySet r;
  r.resize(10);
  EXPECT_TRUE(r.empty());
  r.insert(3);
  r.insert(7);
  r.insert(3);  // idempotent
  EXPECT_EQ(r.size(), 2u);
  EXPECT_TRUE(r.contains(3));
  EXPECT_TRUE(r.contains(7));
  EXPECT_FALSE(r.contains(4));
  r.erase(3);
  r.erase(3);  // idempotent
  EXPECT_EQ(r.size(), 1u);
  EXPECT_FALSE(r.contains(3));
  r.erase(7);
  EXPECT_TRUE(r.empty());
  EXPECT_EQ(r.next_cyclic(0), -1);
}

TEST(ReadySet, NextCyclicMatchesRoundRobinScan) {
  // Reference model: the linear scan it replaced — first member at or
  // after the cursor, wrapping to the smallest member.
  const std::size_t n = 300;  // spans several leaf words
  ReadySet r;
  r.resize(n);
  const std::vector<std::size_t> members = {0, 1, 63, 64, 65, 127, 128,
                                            200, 299};
  for (std::size_t m : members) r.insert(m);
  for (std::size_t start = 0; start <= n; ++start) {
    const std::size_t s = start >= n ? 0 : start;
    std::ptrdiff_t want = static_cast<std::ptrdiff_t>(members.front());
    for (std::size_t m : members) {
      if (m >= s) {
        want = static_cast<std::ptrdiff_t>(m);
        break;
      }
    }
    EXPECT_EQ(r.next_cyclic(start), want) << "start=" << start;
  }
}

TEST(ReadySet, WrapAroundFindsLowIds) {
  ReadySet r;
  r.resize(256);
  r.insert(5);
  EXPECT_EQ(r.next_cyclic(0), 5);
  EXPECT_EQ(r.next_cyclic(5), 5);
  EXPECT_EQ(r.next_cyclic(6), 5);    // wraps the whole bitmap
  EXPECT_EQ(r.next_cyclic(255), 5);  // from the last id
  EXPECT_EQ(r.next_cyclic(256), 5);  // off-the-end cursor treated as 0
  r.insert(250);
  EXPECT_EQ(r.next_cyclic(6), 250);
  EXPECT_EQ(r.next_cyclic(251), 5);
}

TEST(ReadySet, SparseLargeCapacity) {
  // Capacity beyond one summary block (> 4096 ids) still wraps correctly.
  ReadySet r;
  r.resize(5000);
  r.insert(4999);
  EXPECT_EQ(r.next_cyclic(0), 4999);
  EXPECT_EQ(r.next_cyclic(4999), 4999);
  r.insert(10);
  EXPECT_EQ(r.next_cyclic(5000), 10);  // off-the-end cursor
  EXPECT_EQ(r.next_cyclic(11), 4999);
  r.erase(4999);
  EXPECT_EQ(r.next_cyclic(11), 10);
  EXPECT_EQ(r.size(), 1u);
}

TEST(ReadySet, ResizeGrowsAndKeepsMembers) {
  ReadySet r;
  r.resize(2);
  r.insert(0);
  r.insert(1);
  r.resize(130);
  EXPECT_TRUE(r.contains(0));
  EXPECT_TRUE(r.contains(1));
  r.insert(129);
  EXPECT_EQ(r.next_cyclic(2), 129);
  EXPECT_EQ(r.next_cyclic(0), 0);
  EXPECT_EQ(r.size(), 3u);
  r.resize(10);  // never shrinks
  EXPECT_EQ(r.capacity(), 130u);
  EXPECT_TRUE(r.contains(129));
}

// --- Stack pool -------------------------------------------------------------

/// Address of a local in the calling fiber's frame: fibers running the same
/// code sit at the same offset from their stack's top, so two such
/// addresses are equal iff the fibers ran on the same stack.
[[gnu::noinline]] std::uintptr_t frame_address() {
  volatile char marker = 0;
  return reinterpret_cast<std::uintptr_t>(&marker);
}

std::vector<std::uintptr_t> run_and_record_frames(int fibers) {
  std::vector<std::uintptr_t> frames(static_cast<std::size_t>(fibers));
  Scheduler s;
  for (int i = 0; i < fibers; ++i) {
    s.spawn([&frames, i] {
      frames[static_cast<std::size_t>(i)] = frame_address();
    });
  }
  s.run();
  std::sort(frames.begin(), frames.end());
  return frames;
}

TEST(StackPool, ReleasedStacksAreReusedLastInFirstOut) {
  const std::size_t bytes = Scheduler::kDefaultStackBytes;
  char* a = acquire_stack(bytes);
  char* b = acquire_stack(bytes);
  EXPECT_NE(a, b);
  release_stack(a, bytes);
  release_stack(b, bytes);
  char* first = acquire_stack(bytes);
  char* second = acquire_stack(bytes);
  EXPECT_EQ(first, b);
  EXPECT_EQ(second, a);
  release_stack(second, bytes);
  release_stack(first, bytes);
}

TEST(StackPool, TwoSchedulersInARowRunOnTheSameStacks) {
  const std::vector<std::uintptr_t> first = run_and_record_frames(8);
  const std::vector<std::uintptr_t> second = run_and_record_frames(8);
  EXPECT_EQ(std::adjacent_find(first.begin(), first.end()), first.end())
      << "two live fibers shared a stack";
  EXPECT_EQ(first, second);
}

constexpr std::size_t kDeepTouchBytes = 480 * 1024;

/// Write one byte per 512 of a 480 KiB frame (every page of it) and return
/// the frame's lowest address.
[[gnu::noinline]] std::uintptr_t touch_deep() {
  volatile char buf[kDeepTouchBytes];
  for (std::size_t i = 0; i < kDeepTouchBytes; i += 512) {
    buf[i] = static_cast<char>(i >> 9);
  }
  for (std::size_t i = 0; i < kDeepTouchBytes; i += 512) {
    if (buf[i] != static_cast<char>(i >> 9)) return 0;
  }
  return reinterpret_cast<std::uintptr_t>(&buf[0]);
}

TEST(StackPool, FiberCanTouchMostOfItsStackAndTheStackIsReused) {
  std::uintptr_t deep = 0;
  {
    Scheduler s;
    s.spawn([&] { deep = touch_deep(); });
    s.run();
  }
  ASSERT_NE(deep, 0u);
  // The next fiber takes the same stack (last in, first out), and runs on
  // it — deep again — as on a fresh one.
  std::uintptr_t again = 0;
  Scheduler s;
  s.spawn([&] { again = touch_deep(); });
  s.run();
  EXPECT_EQ(again, deep);
}

TEST(StackPool, StackSizesAreNeverMixed) {
  const std::size_t small = 64 * 1024;
  const std::size_t big = Scheduler::kDefaultStackBytes;
  char* s1 = acquire_stack(small);
  release_stack(s1, small);
  char* b1 = acquire_stack(big);
  EXPECT_NE(b1, s1);
  const auto lo = [](char* p) { return reinterpret_cast<std::uintptr_t>(p); };
  EXPECT_TRUE(lo(b1) + big <= lo(s1) || lo(s1) + small <= lo(b1))
      << "a " << big << "-byte stack overlaps a free " << small
      << "-byte one";
  char* s2 = acquire_stack(small);
  EXPECT_EQ(s2, s1);
  release_stack(b1, big);
  char* s3 = acquire_stack(small);
  EXPECT_NE(s3, b1);
  release_stack(s3, small);
  release_stack(s2, small);

  // Through the Scheduler: fibers of two sizes alive at once never share.
  std::vector<std::uintptr_t> frames;
  Scheduler s;
  for (int i = 0; i < 8; ++i) {
    s.spawn([&] { frames.push_back(frame_address()); },
            i % 2 == 0 ? small : big);
  }
  s.run();
  std::sort(frames.begin(), frames.end());
  for (std::size_t i = 1; i < frames.size(); ++i) {
    EXPECT_GE(frames[i] - frames[i - 1], small) << "fibers " << i - 1
                                                << " and " << i;
  }
}

TEST(StackPool, SchedulersOnFourThreadsShareThePool) {
  // Every fiber stamps a block of its own stack, yields to the other 255
  // on its thread, and checks the stamp survived: a stack handed to two
  // live fibers (on any thread) would show as a torn stamp.
  constexpr int kThreads = 4;
  constexpr int kRounds = 4;
  constexpr int kFibers = 256;
  std::array<int, kThreads> torn{};
  std::array<int, kThreads> finished{};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int round = 0; round < kRounds; ++round) {
        Scheduler s;
        for (int i = 0; i < kFibers; ++i) {
          s.spawn([&, t, i] {
            const unsigned stamp = static_cast<unsigned>(t * kFibers + i);
            volatile unsigned block[64];
            for (volatile unsigned& w : block) w = stamp;
            for (int k = 0; k < 4; ++k) Scheduler::active()->yield();
            for (volatile unsigned& w : block) {
              if (w != stamp) ++torn[static_cast<std::size_t>(t)];
            }
            ++finished[static_cast<std::size_t>(t)];
          });
        }
        s.run();
      }
    });
  }
  for (std::thread& th : threads) th.join();
  for (int t = 0; t < kThreads; ++t) {
    EXPECT_EQ(torn[static_cast<std::size_t>(t)], 0) << "thread " << t;
    EXPECT_EQ(finished[static_cast<std::size_t>(t)], kRounds * kFibers)
        << "thread " << t;
  }
}

TEST(StackPool, ThousandFibersMapAtMostSixteenSlabs) {
  // A stack size no other test (or earlier --gtest_repeat pass) used, so
  // the pool holds no free stacks of it and must carve all 1000.
  static std::size_t pass = 0;
  const std::size_t kBytes = (40 + 4 * pass++) * 1024;
  constexpr int kFibers = 1000;
  constexpr std::size_t kMaxSlabs =
      (kFibers + kStacksPerSlab - 1) / kStacksPerSlab;  // 16
  const auto run = [&] {
    Scheduler s;
    for (int i = 0; i < kFibers; ++i) {
      s.spawn([] { Scheduler::active()->yield(); }, kBytes);
    }
    s.run();
  };
  const std::size_t before = stack_slabs_mapped();
  run();
  const std::size_t after_first = stack_slabs_mapped();
  EXPECT_LE(after_first - before, kMaxSlabs);
  EXPECT_GT(after_first - before, 0u);
  run();
  EXPECT_EQ(stack_slabs_mapped(), after_first)
      << "the second run must reuse the first run's stacks";
}

}  // namespace
}  // namespace alge::fiber
