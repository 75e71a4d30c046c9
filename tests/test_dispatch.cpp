// Stress and contract tests for the single-producer single-consumer ring
// (common/spsc_queue.hpp) that backs the per-thread trace rings. The
// threaded case is one the CI TSan job leans on: the acquire/release
// handshake is exercised under real contention, including ring wraparound
// and full/empty boundaries.
#include <gtest/gtest.h>

#include <cstddef>
#include <thread>

#include "common/spsc_queue.hpp"

namespace spnerf {
namespace {

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
