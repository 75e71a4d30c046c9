// Stress and contract tests for the lock-free dispatch primitives
// (common/mpmc_queue.hpp, common/spsc_queue.hpp, common/object_pool.hpp)
// and the SPNF_DISPATCH mode plumbing (common/dispatch.hpp). The
// multi-threaded cases are the ones the CI TSan job leans on: every
// acquire/release handshake in the queues is exercised under real
// contention, including ring wraparound, full/empty boundaries and pool
// exhaustion.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <set>
#include <thread>
#include <vector>

#include "common/dispatch.hpp"
#include "common/error.hpp"
#include "common/mpmc_queue.hpp"
#include "common/object_pool.hpp"
#include "common/spsc_queue.hpp"

namespace spnerf {
namespace {

TEST(MpmcQueue, FifoSingleThread) {
  MpmcQueue<int> q(8);
  EXPECT_TRUE(q.Empty());
  for (int i = 0; i < 8; ++i) EXPECT_TRUE(q.TryPush(i));
  EXPECT_FALSE(q.TryPush(99));  // full
  for (int i = 0; i < 8; ++i) {
    int v = -1;
    ASSERT_TRUE(q.TryPop(v));
    EXPECT_EQ(v, i);
  }
  int v = -1;
  EXPECT_FALSE(q.TryPop(v));  // empty
  EXPECT_TRUE(q.Empty());
}

TEST(MpmcQueue, CapacityRoundsUpToPowerOfTwo) {
  MpmcQueue<int> q(5);
  EXPECT_EQ(q.Capacity(), 8u);
  for (int i = 0; i < 8; ++i) EXPECT_TRUE(q.TryPush(i));
  EXPECT_FALSE(q.TryPush(8));
}

TEST(MpmcQueue, WraparoundManyLaps) {
  // A tiny ring forced through many laps: the per-cell sequence handshake
  // must keep FIFO order across every wrap.
  MpmcQueue<int> q(4);
  int next_push = 0;
  int next_pop = 0;
  for (int lap = 0; lap < 1000; ++lap) {
    while (q.TryPush(next_push)) ++next_push;
    int v = -1;
    while (q.TryPop(v)) {
      ASSERT_EQ(v, next_pop);
      ++next_pop;
    }
  }
  EXPECT_EQ(next_push, next_pop);
  EXPECT_GE(next_push, 4000);
}

TEST(MpmcQueue, MultiProducerMultiConsumerStress) {
  // N producers push tagged sequences through a small ring while N
  // consumers drain it: nothing lost, nothing duplicated, and each
  // producer's values arrive in its own order (tickets are claimed in
  // push order).
  constexpr int kProducers = 4;
  constexpr int kConsumers = 4;
  constexpr int kPerProducer = 20000;
  MpmcQueue<int> q(64);
  std::atomic<int> consumed{0};
  std::vector<std::vector<int>> seen(kConsumers);

  std::vector<std::thread> threads;
  for (int c = 0; c < kConsumers; ++c) {
    threads.emplace_back([&, c] {
      int v = -1;
      while (consumed.load(std::memory_order_relaxed) <
             kProducers * kPerProducer) {
        if (q.TryPop(v)) {
          seen[static_cast<std::size_t>(c)].push_back(v);
          consumed.fetch_add(1, std::memory_order_relaxed);
        } else {
          std::this_thread::yield();
        }
      }
    });
  }
  for (int p = 0; p < kProducers; ++p) {
    threads.emplace_back([&, p] {
      for (int i = 0; i < kPerProducer; ++i) {
        const int tagged = p * kPerProducer + i;
        while (!q.TryPush(tagged)) std::this_thread::yield();
      }
    });
  }
  for (std::thread& t : threads) t.join();

  // Exactly every tagged value, once.
  std::vector<int> all;
  for (const std::vector<int>& s : seen) {
    all.insert(all.end(), s.begin(), s.end());
  }
  ASSERT_EQ(all.size(),
            static_cast<std::size_t>(kProducers * kPerProducer));
  std::sort(all.begin(), all.end());
  for (int i = 0; i < kProducers * kPerProducer; ++i) {
    ASSERT_EQ(all[static_cast<std::size_t>(i)], i);
  }
  // Per-producer order within each consumer's stream.
  for (const std::vector<int>& s : seen) {
    std::vector<int> last(kProducers, -1);
    for (int v : s) {
      const int p = v / kPerProducer;
      ASSERT_GT(v, last[static_cast<std::size_t>(p)]);
      last[static_cast<std::size_t>(p)] = v;
    }
  }
}

TEST(SpscQueue, FifoAndBoundaries) {
  SpscQueue<int> q(4);
  EXPECT_GE(q.Capacity(), 4u);
  const std::size_t cap = q.Capacity();
  for (std::size_t i = 0; i < cap; ++i) {
    EXPECT_TRUE(q.TryPush(static_cast<int>(i)));
  }
  EXPECT_FALSE(q.TryPush(-1));  // full
  for (std::size_t i = 0; i < cap; ++i) {
    int v = -1;
    ASSERT_TRUE(q.TryPop(v));
    EXPECT_EQ(v, static_cast<int>(i));
  }
  int v = -1;
  EXPECT_FALSE(q.TryPop(v));  // empty
}

TEST(SpscQueue, ProducerConsumerStressWrapsInOrder) {
  constexpr int kItems = 200000;
  SpscQueue<int> q(8);  // tiny: forces constant wraparound
  std::thread consumer([&] {
    int expect = 0;
    int v = -1;
    while (expect < kItems) {
      if (q.TryPop(v)) {
        ASSERT_EQ(v, expect);
        ++expect;
      } else {
        std::this_thread::yield();
      }
    }
  });
  for (int i = 0; i < kItems; ++i) {
    while (!q.TryPush(i)) std::this_thread::yield();
  }
  consumer.join();
}

TEST(ObjectPool, RecyclesSlabSlots) {
  ObjectPool<std::vector<int>> pool(2);
  std::vector<int>* a = pool.TryAcquire();
  std::vector<int>* b = pool.TryAcquire();
  ASSERT_NE(a, nullptr);
  ASSERT_NE(b, nullptr);
  EXPECT_TRUE(pool.Owns(a));
  EXPECT_TRUE(pool.Owns(b));
  EXPECT_EQ(pool.TryAcquire(), nullptr);  // exhausted

  // Recycling, not destruction: the grown capacity survives the
  // release/acquire round trip (the pool's entire reason to exist).
  a->reserve(1024);
  const std::size_t grown = a->capacity();
  pool.Release(a);
  std::vector<int>* again = pool.TryAcquire();
  ASSERT_EQ(again, a);
  EXPECT_GE(again->capacity(), grown);
  pool.Release(again);
  pool.Release(b);
}

TEST(ObjectPool, ExhaustionFallsBackToHeapGracefully) {
  ObjectPool<int> pool(2);
  int* a = pool.Acquire();
  int* b = pool.Acquire();
  EXPECT_EQ(pool.HeapFallbacks(), 0u);
  int* c = pool.Acquire();  // slab exhausted -> heap, never nullptr
  ASSERT_NE(c, nullptr);
  EXPECT_FALSE(pool.Owns(c));
  EXPECT_EQ(pool.HeapFallbacks(), 1u);
  // Release routes by address: the heap stray is deleted, slab slots go
  // back to the freelist and can be acquired again.
  pool.Release(c);
  pool.Release(a);
  pool.Release(b);
  int* again = pool.Acquire();
  EXPECT_TRUE(pool.Owns(again));
  EXPECT_EQ(pool.HeapFallbacks(), 1u);
  pool.Release(again);
}

TEST(ObjectPool, DoubleReleaseDetectedWhileRingHasRoom) {
  // The freelist ring has room for the second push (only one of the two
  // slots is back), so only the per-slot flag can tell it is a double
  // release.
  ObjectPool<int> pool(2);
  int* a = pool.Acquire();
  int* b = pool.Acquire();
  pool.Release(a);
  EXPECT_THROW(pool.Release(a), SpnerfError);
  pool.Release(b);
  // The rejected release left the freelist intact: both slots come back
  // exactly once.
  int* x = pool.TryAcquire();
  int* y = pool.TryAcquire();
  ASSERT_NE(x, nullptr);
  ASSERT_NE(y, nullptr);
  EXPECT_NE(x, y);
  EXPECT_EQ(pool.TryAcquire(), nullptr);
  pool.Release(x);
  pool.Release(y);
}

TEST(ObjectPool, ConcurrentAcquireReleaseStress) {
  // Churn a small pool from many threads at once: every handed-out pointer
  // is exclusively owned between acquire and release (write/verify a tag),
  // and the slab never double-vends a slot.
  struct Slot {
    std::atomic<int> owner{-1};
  };
  constexpr int kThreads = 4;
  constexpr int kIters = 20000;
  ObjectPool<Slot> pool(8);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kIters; ++i) {
        Slot* s = pool.Acquire();
        const int prev = s->owner.exchange(t, std::memory_order_relaxed);
        ASSERT_EQ(prev, -1) << "slot vended to two threads at once";
        s->owner.store(-1, std::memory_order_relaxed);
        pool.Release(s);
      }
    });
  }
  for (std::thread& t : threads) t.join();
  // All slots are back: the slab can be fully drained again.
  std::vector<Slot*> drained;
  for (Slot* s = nullptr; (s = pool.TryAcquire()) != nullptr;) {
    drained.push_back(s);
  }
  EXPECT_EQ(drained.size(), pool.Capacity());
  std::set<Slot*> unique(drained.begin(), drained.end());
  EXPECT_EQ(unique.size(), drained.size());
  for (Slot* s : drained) pool.Release(s);
}

TEST(Dispatch, ModeNamesRoundTrip) {
  EXPECT_STREQ(dispatch::ModeName(dispatch::Mode::kLocked), "locked");
  EXPECT_STREQ(dispatch::ModeName(dispatch::Mode::kLockFree), "lockfree");
  dispatch::Mode mode = dispatch::Mode::kLocked;
  EXPECT_TRUE(dispatch::ParseModeName("lockfree", mode));
  EXPECT_EQ(mode, dispatch::Mode::kLockFree);
  EXPECT_TRUE(dispatch::ParseModeName("locked", mode));
  EXPECT_EQ(mode, dispatch::Mode::kLocked);
  EXPECT_FALSE(dispatch::ParseModeName("mutex", mode));
  EXPECT_FALSE(dispatch::ParseModeName("", mode));
  EXPECT_EQ(mode, dispatch::Mode::kLocked);  // unchanged on failure
}

TEST(Dispatch, SetActiveModeSwitchesAndRestores) {
  const dispatch::Mode before = dispatch::ActiveMode();
  const dispatch::Mode prev = dispatch::SetActiveMode(dispatch::Mode::kLocked);
  EXPECT_EQ(prev, before);
  EXPECT_EQ(dispatch::ActiveMode(), dispatch::Mode::kLocked);
  dispatch::SetActiveMode(dispatch::Mode::kLockFree);
  EXPECT_EQ(dispatch::ActiveMode(), dispatch::Mode::kLockFree);
  dispatch::SetActiveMode(before);
  EXPECT_EQ(dispatch::ActiveMode(), before);
}

}  // namespace
}  // namespace spnerf
