// Stress and contract tests for the lock-free dispatch primitives
// (common/mpmc_queue.hpp, common/spsc_queue.hpp). The multi-threaded cases
// are the ones the CI TSan job leans on: every acquire/release handshake in
// the queues is exercised under real contention, including ring wraparound
// and full/empty boundaries.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <thread>
#include <vector>

#include "common/mpmc_queue.hpp"
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

}  // namespace
}  // namespace spnerf
