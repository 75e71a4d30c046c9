// Persistent task-scheduler thread pool and the parallel-for primitives
// built on it. The pool keeps its workers alive across calls (no per-call
// thread spawn) and schedules *regions* — fork-join parallel sections — so
// independent threads can have several regions in flight at once: each
// region keeps its own claim cursor and completion latch, and a region
// finishing never blocks another from starting. Parallel regions hand out
// contiguous index chunks from an atomic cursor, so load balances
// dynamically while every index is visited exactly once. Results must be
// written to disjoint, pre-sized outputs so runs are bit-reproducible
// regardless of the worker count, the schedule, or what other regions the
// pool is running concurrently.
//
// Workers pull region tokens from a bounded Vyukov MPMC ring
// (common/mpmc_queue.hpp) and claim slots through per-region atomic
// cursors. The pool mutex+condvar survive only as the sleep/wake slow path
// (eventcount-style spin-then-park), so dispatching onto an already-awake
// pool takes zero lock acquisitions. See ARCHITECTURE.md, "Dispatch path",
// for the full memory-order and liveness argument.
#pragma once

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <type_traits>
#include <vector>

#include "common/mpmc_queue.hpp"
#include "common/types.hpp"

namespace spnerf {

/// A fixed set of worker threads executing parallel regions. Blocking
/// regions (RunOnWorkers) are driven jointly by the pool threads and the
/// dispatching thread, which claims slots of its own region alongside the
/// workers; detached regions (Submit) run entirely on pool threads and
/// report completion through a callback. Regions from independent threads
/// interleave on the shared workers instead of serialising — the pool is
/// work-conserving across concurrent dispatchers.
///
/// Use the process-wide lazy singleton via Global() for rendering and
/// preprocessing; construct explicit instances in tests or when isolating
/// workloads. Regions dispatched from inside a pool worker run inline on
/// that worker (no nested fan-out, no deadlock).
class ThreadPool {
 public:
  /// `workers = 0` sizes the pool to std::thread::hardware_concurrency().
  /// `token_capacity` bounds the lock-free work-token ring; tokens beyond
  /// it spill to a mutex-guarded overflow list (correct, slower — tests
  /// shrink the ring to force that path).
  explicit ThreadPool(unsigned workers = 0,
                      std::size_t token_capacity = kDefaultTokenCapacity);
  /// Waits for every live region (blocking and detached) to finish, then
  /// joins the workers. Detached completions always run before destruction
  /// returns.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Parallel slots available to a region (pool threads + calling thread).
  [[nodiscard]] unsigned WorkerCount() const { return worker_count_; }

  /// Parallelism a worker cap resolves to: 0 means every worker, anything
  /// else clamps to WorkerCount(). The one rule shared by ParallelFor, the
  /// render engine and the bench reporting.
  [[nodiscard]] unsigned ResolveWorkers(unsigned cap) const {
    return cap ? std::min(cap, worker_count_) : worker_count_;
  }

  /// Process-wide pool, created on first use.
  static ThreadPool& Global();

  /// Invokes fn(slot) for every slot in [0, slots), each exactly once, and
  /// returns when all slots finish. `slots` is clamped to WorkerCount().
  /// The calling thread participates by claiming slots of its own region
  /// alongside the pool workers (so progress never depends on a free pool
  /// thread); which thread runs which slot is unspecified. Regions
  /// dispatched from inside a running region (any slot) execute inline on
  /// that thread; concurrent dispatches from independent threads interleave
  /// on the shared workers. If any slot body throws, every slot still runs
  /// and the first exception is rethrown here once the region completes —
  /// a throw never unwinds the scheduler or kills a pool worker.
  template <typename Fn>
  void RunOnWorkers(unsigned slots, Fn&& fn) {
    using Callable = std::remove_reference_t<Fn>;
    Dispatch(
        [](void* ctx, unsigned slot) { (*static_cast<Callable*>(ctx))(slot); },
        const_cast<std::remove_const_t<Callable>*>(&fn), slots);
  }

  /// Detached region: enqueues fn(slot) for every slot in [0, slots) on the
  /// pool threads and returns immediately; `on_complete` (if any) runs on
  /// the worker that finishes the last slot, after every slot has returned.
  /// `slots` is clamped to WorkerCount(), exactly like RunOnWorkers — slots
  /// are parallelism seats, not work items; hand out work inside fn via a
  /// shared cursor. The region record is heap-allocated and freed by the
  /// worker that finishes its last slot, before `on_complete` runs.
  /// When the pool has no worker threads (WorkerCount() == 1) the region —
  /// completion included — runs inline on the calling thread before Submit
  /// returns: the sequential fallback, same results, no asynchrony.
  void Submit(unsigned slots, std::function<void(unsigned)> fn,
              std::function<void()> on_complete = {});

  static constexpr std::size_t kDefaultTokenCapacity = 1024;

 private:
  /// One live parallel region. The claim cursor, the completion latch and
  /// the token refcount are raced on directly by the dispatcher and the
  /// workers.
  struct Region {
    void (*invoke)(void*, unsigned) = nullptr;  // blocking regions
    void* ctx = nullptr;
    std::function<void(unsigned)> body;    // detached regions own their fn
    std::function<void()> on_complete;     // detached only
    unsigned slots = 0;
    std::atomic<unsigned> next_slot{0};    // claim cursor
    std::atomic<unsigned> remaining{0};    // completion latch
    /// Work tokens in flight that still name this region.
    /// A blocking region's stack frame may not be abandoned until every
    /// token was consumed (tokens the dispatcher raced past go stale and
    /// are dropped on pop, but the pop itself dereferences the region).
    std::atomic<unsigned> token_refs{0};
    bool detached = false;
    /// Trace-clock stamp of the detached region's submission; 0 = tracing
    /// off. The last finisher emits the region-lifetime span from it.
    u64 trace_start_ns = 0;
    /// First exception a slot body threw (claimed via `error_claimed`).
    /// Blocking dispatchers rethrow it after the region completes; detached
    /// regions drop it (their submitters guard their own bodies).
    std::atomic<bool> error_claimed{false};
    std::exception_ptr error;

    void Run(unsigned slot) { invoke ? invoke(ctx, slot) : body(slot); }
  };

  void Dispatch(void (*invoke)(void*, unsigned), void* ctx, unsigned slots);
  void WorkerLoop();
  /// Pushes `count` work tokens naming `region` (ring first, mutex-guarded
  /// overflow when full) and wakes sleeping workers.
  void PushTokens(Region* region, unsigned count);
  /// Pops one token (ring first, then overflow). False when no work.
  bool PopToken(Region*& region);
  /// Claims and runs one slot of `region` (drops the token if the cursor
  /// is already exhausted), then finishes the slot.
  void ProcessToken(Region* region);
  void FinishSlot(Region* region);
  void DropTokenRef(Region* region);
  /// Decrements the live-region count; wakes region waiters on zero.
  void DropLiveRegion();
  /// Wakes threads parked on region_done_ (blocking dispatchers and the
  /// destructor) if any are parked. Callers must not touch the region that
  /// triggered the wake afterwards — its owner may already be freeing it.
  void WakeRegionWaiters();

  unsigned worker_count_ = 1;
  std::vector<std::thread> threads_;  // worker_count_ - 1 entries

  std::mutex mutex_;
  std::condition_variable work_ready_;   // workers: work exists
  std::condition_variable region_done_;  // dispatchers + destructor
  std::atomic<std::size_t> live_regions_{0};  // enqueued, not fully finished
  std::atomic<bool> stopping_{false};

  // The token ring carries all steady-state work distribution; `overflow_`
  // (guarded by mutex_) absorbs pushes when the ring is full; the two
  // counters below drive the eventcount sleep/wake protocol (see
  // parallel.cpp for the fence argument).
  MpmcQueue<Region*> tokens_;
  std::deque<Region*> overflow_;               // guarded by mutex_
  std::atomic<std::size_t> overflow_count_{0};
  std::atomic<int> sleepers_{0};          // workers parked / about to park
  std::atomic<int> region_waiters_{0};    // parked on region_done_
};

/// Invokes fn(begin, end) on contiguous chunks of [0, n) across the pool's
/// workers (ThreadPool::Global() unless `pool` is given). fn must only touch
/// state disjoint per index. `max_threads` caps the parallelism; 0 uses
/// every worker. Safe to call from any number of threads concurrently: each
/// call is its own region with its own cursor, and the chunk decomposition
/// depends only on (n, workers) — never on what else the pool is running —
/// so outputs stay bit-identical to a sequential run.
template <typename Fn>
void ParallelFor(std::size_t n, Fn&& fn, unsigned max_threads = 0,
                 ThreadPool* pool = nullptr) {
  if (n == 0) return;
  ThreadPool& tp = pool ? *pool : ThreadPool::Global();
  unsigned workers = static_cast<unsigned>(
      std::min<std::size_t>(tp.ResolveWorkers(max_threads), n));
  if (workers <= 1) {
    fn(std::size_t{0}, n);
    return;
  }
  // ~4 chunks per worker: coarse enough to amortise the atomic cursor, fine
  // enough to balance uneven per-index cost.
  const std::size_t chunk =
      std::max<std::size_t>(1, n / (static_cast<std::size_t>(workers) * 4));
  std::atomic<std::size_t> cursor{0};
  tp.RunOnWorkers(workers, [&](unsigned) {
    for (;;) {
      const std::size_t begin = cursor.fetch_add(chunk);
      if (begin >= n) break;
      fn(begin, std::min(n, begin + chunk));
    }
  });
}

}  // namespace spnerf
