#include "common/parallel.hpp"

#include <memory>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace spnerf {
namespace {

// The pool whose region this thread is currently executing (or whose worker
// it permanently is). Dispatching onto the same pool from such a thread runs
// inline instead of re-entering the busy scheduler; dispatching onto a
// different, idle pool still fans out.
thread_local ThreadPool* tls_current_pool = nullptr;

// Idle iterations (each a yield) a worker burns before parking, and a
// blocking dispatcher burns before parking on region completion. Short: the
// point is to absorb the common "work arrives immediately" window, not to
// busy-wait through real gaps.
constexpr int kWorkerSpinIters = 64;
constexpr int kDispatchSpinIters = 128;

/// Pool-layer metric handles, resolved once per process. Every record site
/// is gated on obs::CountersEnabled() — the off level costs one relaxed
/// load per site.
struct PoolMetrics {
  obs::Counter& regions = obs::MetricsRegistry::Global().GetCounter(
      "pool/regions");
  obs::Counter& parks = obs::MetricsRegistry::Global().GetCounter(
      "pool/parks");
  obs::Counter& wakes = obs::MetricsRegistry::Global().GetCounter(
      "pool/wakes");
  obs::Counter& token_overflow = obs::MetricsRegistry::Global().GetCounter(
      "pool/token-overflow");
  obs::Gauge& tokens = obs::MetricsRegistry::Global().GetGauge(
      "pool/tokens");
};

PoolMetrics& Metrics() {
  static PoolMetrics metrics;
  return metrics;
}

}  // namespace

ThreadPool::ThreadPool(unsigned workers, std::size_t token_capacity)
    : tokens_(token_capacity) {
  if (workers == 0) workers = std::max(1u, std::thread::hardware_concurrency());
  worker_count_ = workers;
  threads_.reserve(workers - 1);
  for (unsigned i = 0; i + 1 < workers; ++i) {
    threads_.emplace_back([this] { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() {
  // seq_cst store: the Dekker partner of Submit's live_regions_ increment —
  // every later Submit observes it and runs inline, every earlier Submit's
  // region is covered by the live-region wait below.
  stopping_.store(true, std::memory_order_seq_cst);
  {
    std::lock_guard<std::mutex> lock(mutex_);
    work_ready_.notify_all();
  }
  // Drain every live region — blocking dispatchers finish on their own, and
  // detached completions must run before the workers join. Workers keep
  // pulling tokens until the live count hits zero (their exit condition),
  // so queued regions drain even during shutdown.
  region_waiters_.fetch_add(1, std::memory_order_seq_cst);
  {
    std::unique_lock<std::mutex> lock(mutex_);
    region_done_.wait(lock, [this] {
      return live_regions_.load(std::memory_order_seq_cst) == 0;
    });
  }
  region_waiters_.fetch_sub(1, std::memory_order_relaxed);
  {
    std::lock_guard<std::mutex> lock(mutex_);
    work_ready_.notify_all();  // parked workers wake to observe stopping_
  }
  for (std::thread& t : threads_) t.join();
}

ThreadPool& ThreadPool::Global() {
  static ThreadPool pool;
  return pool;
}

void ThreadPool::Submit(unsigned slots, std::function<void(unsigned)> fn,
                        std::function<void()> on_complete) {
  slots = std::min(std::max(slots, 1u), worker_count_);
  if (obs::CountersEnabled()) Metrics().regions.Add();
  if (!threads_.empty()) {
    // Allocated before the live increment below, so a failed allocation
    // leaves no live region for the destructor to wait on forever.
    auto region = std::make_unique<Region>();
    // Shutdown Dekker: expose the region in the live count with a seq_cst
    // RMW *before* checking stopping_. Either this increment is
    // seq_cst-before the destructor's stopping_ store — then the
    // destructor's live-region wait covers the region — or the store came
    // first and the load below observes it, and the region runs inline.
    live_regions_.fetch_add(1, std::memory_order_seq_cst);
    if (!stopping_.load(std::memory_order_seq_cst)) {
      region->body = std::move(fn);
      region->on_complete = std::move(on_complete);
      region->slots = slots;
      region->remaining.store(slots, std::memory_order_relaxed);
      region->detached = true;
      region->trace_start_ns =
          obs::FullTracingEnabled() ? obs::TraceNowNs() : 0;
      // Exactly one token per slot: detached regions have no dispatcher
      // racing the cursor, so no token ever goes stale and the last
      // finisher can free the record with nothing else referencing it.
      PushTokens(region.release(), slots);
      return;
    }
    DropLiveRegion();
  }
  // No workers to hand the region to (single-threaded pool, or shutdown
  // already draining): run it inline, completion included — the sequential
  // fallback.
  for (unsigned s = 0; s < slots; ++s) fn(s);
  if (on_complete) on_complete();
}

// ---------------------------------------------------------------------------
// Work distribution is a bounded Vyukov MPMC ring of region tokens plus
// per-region atomic claim cursors; the pool mutex survives only as the
// condvar guard of the two park/wake slow paths (idle workers on
// work_ready_, blocking dispatchers and the destructor on region_done_).
// Both slow paths use the eventcount discipline: the would-be sleeper
// announces itself with a seq_cst RMW, re-checks the condition, then parks
// under the mutex; the producer publishes its event, runs a seq_cst fence,
// and takes the lock to notify only when the announce counter is non-zero.
// Whichever side's seq_cst step comes first in the total order, the other
// side observes it — a lost wakeup would need the sleeper to miss the event
// AND the producer to miss the announcement, which seq_cst forbids.
// ---------------------------------------------------------------------------

void ThreadPool::PushTokens(Region* region, unsigned count) {
  if (count == 0) return;
  // relaxed: the refs travel to consumers through the ring's release/acquire
  // handshake; RMW coherence on token_refs rules out underflow.
  region->token_refs.fetch_add(count, std::memory_order_relaxed);
  if (obs::CountersEnabled()) Metrics().tokens.Add(static_cast<i64>(count));
  unsigned spilled = 0;
  for (unsigned i = 0; i < count; ++i) {
    if (!tokens_.TryPush(region)) ++spilled;
  }
  if (spilled > 0) {
    if (obs::CountersEnabled()) Metrics().token_overflow.Add(spilled);
    // Ring full: spill to the mutex-guarded overflow list. Notifying under
    // the same mutex the workers' wait predicate runs under makes this leg
    // lost-wakeup-free by construction (no eventcount subtlety needed).
    std::lock_guard<std::mutex> lock(mutex_);
    for (unsigned i = 0; i < spilled; ++i) overflow_.push_back(region);
    overflow_count_.fetch_add(spilled, std::memory_order_relaxed);
    work_ready_.notify_all();
  }
  // Eventcount producer side: publish (the pushes above), fence, then check
  // for sleepers. Locking to notify only when someone is parked is what
  // makes dispatch onto an awake pool lock-free.
  std::atomic_thread_fence(std::memory_order_seq_cst);
  if (sleepers_.load(std::memory_order_relaxed) > 0) {
    if (obs::CountersEnabled()) Metrics().wakes.Add();
    std::lock_guard<std::mutex> lock(mutex_);
    work_ready_.notify_all();
  }
}

bool ThreadPool::PopToken(Region*& region) {
  if (tokens_.TryPop(region)) return true;
  if (overflow_count_.load(std::memory_order_relaxed) != 0) {
    std::lock_guard<std::mutex> lock(mutex_);
    if (!overflow_.empty()) {
      region = overflow_.front();
      overflow_.pop_front();
      overflow_count_.fetch_sub(1, std::memory_order_relaxed);
      return true;
    }
  }
  return false;
}

void ThreadPool::DropTokenRef(Region* region) {
  if (obs::CountersEnabled()) Metrics().tokens.Add(-1);
  // acq_rel: a blocking dispatcher's acquire load of token_refs == 0 must
  // order after every token consumer's accesses to the region.
  if (region->token_refs.fetch_sub(1, std::memory_order_acq_rel) == 1) {
    // This drop may be the last event the region's owner is waiting on
    // (all slots already finished, this token was stale).
    WakeRegionWaiters();
  }
}

void ThreadPool::ProcessToken(Region* region) {
  // relaxed: the cursor only partitions slots between claimants; every
  // cross-thread data handoff rides the completion latch below.
  const unsigned slot =
      region->next_slot.fetch_add(1, std::memory_order_relaxed);
  if (slot >= region->slots) {
    // Stale token: the dispatcher (and/or other workers) drained the cursor
    // before this token was popped. Only blocking regions produce stale
    // tokens — detached regions get exactly one token per slot.
    DropTokenRef(region);
    return;
  }
  // The claimed slot keeps `remaining` above zero, which keeps the region
  // alive past this point; the token ref itself can be returned already.
  DropTokenRef(region);
  std::exception_ptr error;
  try {
    region->Run(slot);
  } catch (...) {
    error = std::current_exception();
  }
  if (error &&
      !region->error_claimed.exchange(true, std::memory_order_relaxed)) {
    // Publication to the dispatcher rides the release decrement below.
    region->error = error;
  }
  FinishSlot(region);
}

void ThreadPool::FinishSlot(Region* region) {
  const bool detached = region->detached;  // read before the frame can die
  // acq_rel release-side: publishes this slot's body effects (and any error
  // store) to whoever observes the latch hit zero; acquire side: the last
  // decrementer inherits every other slot's effects before running the
  // completion. All decrements form one release sequence, so the observer
  // synchronizes with every slot, not just the last.
  if (region->remaining.fetch_sub(1, std::memory_order_acq_rel) != 1) return;
  if (!detached) {
    // Blocking region: the dispatcher owns the frame and may free it the
    // instant it observes the zero — no region access past the decrement.
    WakeRegionWaiters();
    return;
  }
  // Last slot of a detached region: every body has returned, so nothing
  // else references the record. Free it before the completion runs, so a
  // completion that re-submits never holds two records at once.
  if (region->trace_start_ns != 0 && obs::FullTracingEnabled()) {
    // Submission-to-last-slot lifetime of the detached region.
    obs::TraceEvent ev;
    ev.category = "pool";
    ev.name = "region-detached";
    ev.start_ns = region->trace_start_ns;
    ev.end_ns = obs::TraceNowNs();
    ev.AddArg("slots", static_cast<i64>(region->slots));
    obs::Emit(ev);
  }
  std::function<void()> completion = std::move(region->on_complete);
  delete region;
  if (completion) {
    // Same contract as detached slot bodies: an escaped exception is
    // dropped, never propagated into the worker loop.
    try {
      completion();
    } catch (...) {
    }
  }
  DropLiveRegion();
}

void ThreadPool::DropLiveRegion() {
  // seq_cst: partners with the stopping_/live_regions_ handshakes in
  // Submit, the destructor and the worker exit condition.
  if (live_regions_.fetch_sub(1, std::memory_order_seq_cst) == 1) {
    WakeRegionWaiters();
  }
}

void ThreadPool::WakeRegionWaiters() {
  // Eventcount producer side (see the banner above). The caller's
  // event — latch zero, refs zero or live-count zero — is already
  // published; a parked waiter re-checks its predicate under the mutex.
  std::atomic_thread_fence(std::memory_order_seq_cst);
  if (region_waiters_.load(std::memory_order_relaxed) > 0) {
    std::lock_guard<std::mutex> lock(mutex_);
    region_done_.notify_all();
  }
}

void ThreadPool::WorkerLoop() {
  tls_current_pool = this;
  int idle = 0;
  Region* region = nullptr;
  for (;;) {
    if (PopToken(region)) {
      idle = 0;
      ProcessToken(region);
      continue;
    }
    if (++idle < kWorkerSpinIters) {
      std::this_thread::yield();
      continue;
    }
    idle = 0;
    // Eventcount consumer side: announce, fence, re-check, then park.
    if (obs::CountersEnabled()) Metrics().parks.Add();
    sleepers_.fetch_add(1, std::memory_order_seq_cst);
    std::atomic_thread_fence(std::memory_order_seq_cst);
    if (PopToken(region)) {
      sleepers_.fetch_sub(1, std::memory_order_relaxed);
      ProcessToken(region);
      continue;
    }
    // Exit order matters: observe stopping_ first, then the live count —
    // any Submit that slipped past the shutdown Dekker has its live
    // increment seq_cst-before the stopping_ store, so a worker that reads
    // stopping_ == true and then live == 0 knows that region completed.
    if (stopping_.load(std::memory_order_seq_cst) &&
        live_regions_.load(std::memory_order_seq_cst) == 0) {
      sleepers_.fetch_sub(1, std::memory_order_relaxed);
      return;
    }
    {
      std::unique_lock<std::mutex> lock(mutex_);
      work_ready_.wait(lock, [this] {
        return stopping_.load(std::memory_order_relaxed) ||
               !tokens_.Empty() ||
               overflow_count_.load(std::memory_order_relaxed) != 0;
      });
    }
    sleepers_.fetch_sub(1, std::memory_order_relaxed);
  }
}

void ThreadPool::Dispatch(void (*invoke)(void*, unsigned), void* ctx,
                          unsigned slots) {
  slots = std::min(std::max(slots, 1u), worker_count_);
  if (slots == 1 || threads_.empty() || tls_current_pool == this) {
    // Sequential fallback; nested regions on the same pool also land here
    // so they cannot re-enter the scheduler from inside a slot. A different
    // pool's worker dispatching here still fans out.
    for (unsigned s = 0; s < slots; ++s) invoke(ctx, s);
    return;
  }
  if (obs::CountersEnabled()) Metrics().regions.Add();
  obs::TraceSpan region_span("pool", "region");
  region_span.AddArg("slots", static_cast<i64>(slots));
  Region region;  // lives on the dispatcher's stack — see token_refs
  region.invoke = invoke;
  region.ctx = ctx;
  region.slots = slots;
  region.remaining.store(slots, std::memory_order_relaxed);
  live_regions_.fetch_add(1, std::memory_order_seq_cst);

  // One token per slot the workers may help with; the dispatcher drives its
  // own cursor directly, so tokens it races past simply go stale.
  PushTokens(&region, slots - 1);

  ThreadPool* const previous = tls_current_pool;
  tls_current_pool = this;
  for (;;) {
    const unsigned slot =
        region.next_slot.fetch_add(1, std::memory_order_relaxed);
    if (slot >= slots) break;
    std::exception_ptr error;
    try {
      invoke(ctx, slot);
    } catch (...) {
      error = std::current_exception();
    }
    if (error &&
        !region.error_claimed.exchange(true, std::memory_order_relaxed)) {
      region.error = error;
    }
    // No wake needed: the only thread that ever waits on this region is
    // this one, and it is not waiting yet.
    region.remaining.fetch_sub(1, std::memory_order_acq_rel);
  }
  tls_current_pool = previous;

  // The frame may not leave this scope until every slot finished AND every
  // ring token naming it was consumed (stale tokens still dereference the
  // region when dropped).
  const auto quiescent = [&region] {
    return region.remaining.load(std::memory_order_acquire) == 0 &&
           region.token_refs.load(std::memory_order_acquire) == 0;
  };
  for (int spin = 0; spin < kDispatchSpinIters && !quiescent(); ++spin) {
    std::this_thread::yield();
  }
  if (!quiescent()) {
    // Eventcount consumer side, mirroring the worker park.
    region_waiters_.fetch_add(1, std::memory_order_seq_cst);
    {
      std::unique_lock<std::mutex> lock(mutex_);
      region_done_.wait(lock, quiescent);
    }
    region_waiters_.fetch_sub(1, std::memory_order_relaxed);
  }
  DropLiveRegion();
  // Rethrow only after every slot finished: the Region leaves the scheduler
  // intact whichever thread threw.
  if (region.error) std::rethrow_exception(region.error);
}

}  // namespace spnerf
