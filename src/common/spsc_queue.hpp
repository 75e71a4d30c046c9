// Bounded single-producer single-consumer ring queue. The cheapest possible
// handoff between exactly two threads: one plain index per side, one
// acquire/release pair per transfer, no CAS at all. Use it when the
// topology is a fixed pipe (one producer thread, one consumer thread), as
// in the per-thread trace rings of obs/trace.cpp.
//
// Memory-order contract (every operation annotated):
//   * `tail_` is written only by the producer, `head_` only by the
//     consumer. Each side reads its own index relaxed (it is the only
//     writer) and the other side's index with acquire, pairing with that
//     side's release store — which is what publishes the pushed value
//     (producer releases tail_) or the vacated slot (consumer releases
//     head_).
//   * Each side caches its last view of the other index and refreshes it
//     only when the cached view says full/empty, so the steady-state cost
//     is one shared-variable release store per operation.
#pragma once

#include <atomic>
#include <cstddef>
#include <memory>
#include <utility>

#include "common/error.hpp"

namespace spnerf {

/// Cache-line stride used to keep the producer and consumer indices off each
/// other's line (the classic false-sharing hazard of ring queues).
inline constexpr std::size_t kCacheLineSize = 64;

template <typename T>
class SpscQueue {
 public:
  /// `capacity` usable slots; rounded up to a power of two (minimum 2). One
  /// slot of the ring is sacrificed to distinguish full from empty.
  explicit SpscQueue(std::size_t capacity) {
    SPNERF_CHECK_MSG(capacity > 0, "spsc queue capacity must be positive");
    std::size_t cap = 2;
    while (cap < capacity + 1) cap <<= 1;
    mask_ = cap - 1;
    slots_ = std::make_unique<T[]>(cap);
  }

  SpscQueue(const SpscQueue&) = delete;
  SpscQueue& operator=(const SpscQueue&) = delete;

  /// Producer side only. Returns false when the ring is full.
  bool TryPush(T value) {
    // relaxed: tail_ has a single writer — this thread.
    const std::size_t tail = tail_.load(std::memory_order_relaxed);
    const std::size_t next = (tail + 1) & mask_;
    if (next == head_cache_) {
      // acquire: pairs with the consumer's release of head_ — the slot we
      // are about to overwrite must have been vacated.
      head_cache_ = head_.load(std::memory_order_acquire);
      if (next == head_cache_) return false;  // genuinely full
    }
    slots_[tail] = std::move(value);
    // release: publishes the slot write to the consumer's acquire of tail_.
    tail_.store(next, std::memory_order_release);
    return true;
  }

  /// Consumer side only. Returns false when the ring is empty.
  bool TryPop(T& out) {
    // relaxed: head_ has a single writer — this thread.
    const std::size_t head = head_.load(std::memory_order_relaxed);
    if (head == tail_cache_) {
      // acquire: pairs with the producer's release of tail_ — makes the
      // pushed value visible before we read the slot.
      tail_cache_ = tail_.load(std::memory_order_acquire);
      if (head == tail_cache_) return false;  // genuinely empty
    }
    out = std::move(slots_[head]);
    // release: publishes the vacancy to the producer's acquire of head_.
    head_.store((head + 1) & mask_, std::memory_order_release);
    return true;
  }

  /// Consumer-side emptiness check (exact for the consumer thread).
  [[nodiscard]] bool Empty() const {
    return head_.load(std::memory_order_relaxed) ==
           tail_.load(std::memory_order_acquire);
  }

  [[nodiscard]] std::size_t Capacity() const { return mask_; }

 private:
  std::unique_ptr<T[]> slots_;
  std::size_t mask_ = 0;
  // Producer line: its own index plus its cached view of the consumer's.
  alignas(kCacheLineSize) std::atomic<std::size_t> tail_{0};
  std::size_t head_cache_ = 0;
  // Consumer line, symmetric.
  alignas(kCacheLineSize) std::atomic<std::size_t> head_{0};
  std::size_t tail_cache_ = 0;
};

}  // namespace spnerf
