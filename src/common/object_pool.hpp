// Fixed-slab recycling object pool with a lock-free freelist. The dispatch
// path's answer to per-request heap allocation: job/batch/request state is
// acquired from a slab that was allocated once, and released back without
// ever touching the allocator on the hot path.
//
// Design:
//   * One contiguous slab of `capacity` default-constructed objects,
//     allocated at pool construction and freed at destruction. Objects are
//     RECYCLED, not destroyed: Acquire hands out a T* in whatever state the
//     previous user left it (callers reset the fields they use — which is
//     what lets a pooled std::vector member keep its grown capacity across
//     uses, the actual allocation win).
//   * The freelist is a Vyukov MPMC ring of slot pointers (common/
//     mpmc_queue.hpp), so Acquire/Release are lock-free from any thread and
//     ABA-safe by construction (a pointer re-enters the ring only after its
//     slot was released, and ring cells handshake per lap). The ring holds
//     exactly the slab, so it is never really full; a push can still find
//     its cell not yet vacated by a consumer that has claimed it but not
//     finished its pop, and Release waits that window out.
//   * Each slot carries an atomic in-freelist flag, set on release and
//     cleared on acquire; a release that finds it already set is a double
//     release and fails the check.
//   * Exhaustion degrades gracefully: Acquire() falls back to `new T()` and
//     Release() routes by address — slab pointers return to the freelist,
//     heap pointers are deleted. A saturated pool gets slower, never wrong.
//     TryAcquire() exposes the no-fallback flavor for callers that want to
//     shed instead of allocate.
//
// Lifetime contract: the pool must outlive every object it handed out.
// Destroying the pool destroys the slab (all slab objects, acquired or
// not); outstanding heap-fallback objects still route through Release.
#pragma once

#include <atomic>
#include <cstddef>
#include <memory>
#include <thread>
#include <typeinfo>

#include "common/error.hpp"
#include "common/mpmc_queue.hpp"

namespace spnerf {

template <typename T>
class ObjectPool {
 public:
  explicit ObjectPool(std::size_t capacity)
      : slab_(std::make_unique<T[]>(capacity)),
        in_freelist_(std::make_unique<std::atomic<bool>[]>(capacity)),
        capacity_(capacity),
        free_(capacity) {
    SPNERF_CHECK_MSG(capacity > 0, "object pool capacity must be positive");
    for (std::size_t i = 0; i < capacity; ++i) {
      in_freelist_[i].store(true, std::memory_order_relaxed);
      const bool pushed = free_.TryPush(&slab_[i]);
      SPNERF_CHECK_MSG(pushed, "object pool freelist must hold the slab");
    }
  }

  ObjectPool(const ObjectPool&) = delete;
  ObjectPool& operator=(const ObjectPool&) = delete;

  /// Lock-free; nullptr when the slab is exhausted. The object is in the
  /// state its previous user left it — reset what you use.
  [[nodiscard]] T* TryAcquire() {
    T* p = nullptr;
    if (!free_.TryPop(p)) return nullptr;
    // relaxed: the ring's cell handshake already orders this slot's
    // release before its pop; the flag only has to be exact per slot.
    in_freelist_[Index(p)].store(false, std::memory_order_relaxed);
    return p;
  }

  /// Like TryAcquire, but falls back to the heap when the slab is exhausted
  /// (graceful degradation — never nullptr). Release() routes either kind.
  [[nodiscard]] T* Acquire() {
    if (T* p = TryAcquire()) return p;
    heap_fallbacks_.fetch_add(1, std::memory_order_relaxed);
    return new T();
  }

  /// Returns `p` to the freelist (slab pointers) or deletes it (heap
  /// fallbacks). Lock-free for slab pointers; safe from any thread.
  void Release(T* p) {
    if (p == nullptr) return;
    if (!Owns(p)) {
      delete p;
      return;
    }
    const bool was_free =
        in_freelist_[Index(p)].exchange(true, std::memory_order_relaxed);
    SPNERF_CHECK_MSG(!was_free,
                     "object pool double release: " << typeid(T).name());
    // Each slab pointer is in the ring at most once, so the ring always has
    // room; a failed push means the cell at the ticket is still being
    // vacated by a consumer mid-pop. Wait for it to finish.
    while (!free_.TryPush(p)) std::this_thread::yield();
  }

  /// True when `p` points into the slab (as opposed to a heap fallback).
  [[nodiscard]] bool Owns(const T* p) const {
    return p >= slab_.get() && p < slab_.get() + capacity_;
  }

  [[nodiscard]] std::size_t Capacity() const { return capacity_; }

  /// Number of Acquire() calls that fell back to the heap (observability
  /// for tests and benches: a hot pool sized right reports 0).
  [[nodiscard]] std::size_t HeapFallbacks() const {
    return heap_fallbacks_.load(std::memory_order_relaxed);
  }

 private:
  [[nodiscard]] std::size_t Index(const T* p) const {
    return static_cast<std::size_t>(p - slab_.get());
  }

  std::unique_ptr<T[]> slab_;
  std::unique_ptr<std::atomic<bool>[]> in_freelist_;  // per slab slot
  std::size_t capacity_ = 0;
  MpmcQueue<T*> free_;
  std::atomic<std::size_t> heap_fallbacks_{0};
};

}  // namespace spnerf
