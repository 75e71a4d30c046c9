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

/// Pool-layer metric handle, resolved once per process. Every record site
/// is gated on obs::CountersEnabled() — the off level costs one relaxed
/// load per site.
obs::Counter& RegionsCounter() {
  static obs::Counter& regions =
      obs::MetricsRegistry::Global().GetCounter("pool/regions");
  return regions;
}

}  // namespace

ThreadPool::ThreadPool(unsigned workers) {
  if (workers == 0) workers = std::max(1u, std::thread::hardware_concurrency());
  worker_count_ = workers;
  threads_.reserve(workers - 1);
  for (unsigned i = 0; i + 1 < workers; ++i) {
    threads_.emplace_back([this] { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    // Drain every queued region before the workers leave: they keep
    // claiming until open_ is empty, and each detached completion runs
    // exactly once before the wait below returns. Submits from here on run
    // inline.
    std::unique_lock<std::mutex> lock(mutex_);
    stopping_ = true;
    region_done_.wait(lock, [this] { return live_detached_ == 0; });
  }
  work_ready_.notify_all();  // idle workers wake to observe stopping_
  for (std::thread& t : threads_) t.join();
}

ThreadPool& ThreadPool::Global() {
  static ThreadPool pool;
  return pool;
}

unsigned ThreadPool::ClaimSlotLocked(Region* region) {
  const unsigned slot = region->next_slot++;
  if (region->next_slot == region->slots) {
    // Fully claimed regions leave the queue at once, so the front region
    // always has a slot to hand out.
    open_.erase(std::find(open_.begin(), open_.end(), region));
  }
  return slot;
}

void ThreadPool::WakeWorkersLocked(unsigned count) {
  // Only workers wait on work_ready_, and a woken worker claims until open_
  // is empty, so one wake per slot the workers may take is enough.
  for (unsigned i = 0; i < count && i < threads_.size(); ++i) {
    work_ready_.notify_one();
  }
}

void ThreadPool::RunSlot(Region* region, unsigned slot,
                         std::unique_lock<std::mutex>& lock) {
  lock.unlock();
  // A throwing body must not unwind the scheduler or escape a worker
  // (std::terminate): capture it for the region's dispatcher to rethrow.
  std::exception_ptr error;
  try {
    region->Run(slot);
  } catch (...) {
    error = std::current_exception();
  }
  lock.lock();
  if (error && !region->error) region->error = error;
}

void ThreadPool::FinishSlotLocked(Region* region,
                                  std::unique_lock<std::mutex>& lock) {
  if (--region->remaining != 0) return;
  if (!region->detached) {
    // The dispatcher owns the frame and may free it once it sees the zero.
    region_done_.notify_all();
    return;
  }
  // Last slot of a detached region: every body has returned and the region
  // has left open_, so nothing else references the record. Free it before
  // the completion runs, so a completion that re-submits never holds two
  // records at once.
  lock.unlock();
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
  lock.lock();
  // Only the destructor waits for the detached count, and it sets stopping_
  // under this lock before waiting.
  if (--live_detached_ == 0 && stopping_) region_done_.notify_all();
}

void ThreadPool::WorkerLoop() {
  tls_current_pool = this;
  std::unique_lock<std::mutex> lock(mutex_);
  for (;;) {
    work_ready_.wait(lock, [this] { return stopping_ || !open_.empty(); });
    // Queued regions drain even during shutdown; a worker leaves only once
    // nothing is left to claim.
    if (open_.empty()) return;
    Region* region = open_.front();
    const unsigned slot = ClaimSlotLocked(region);
    RunSlot(region, slot, lock);
    FinishSlotLocked(region, lock);
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
  if (obs::CountersEnabled()) RegionsCounter().Add();
  obs::TraceSpan region_span("pool", "region");
  region_span.AddArg("slots", static_cast<i64>(slots));
  Region region;  // lives on the dispatcher's stack until every slot is done
  region.invoke = invoke;
  region.ctx = ctx;
  region.slots = slots;
  region.remaining = slots;

  std::unique_lock<std::mutex> lock(mutex_);
  open_.push_back(&region);
  WakeWorkersLocked(slots - 1);
  // The dispatching thread claims slots of its own region alongside the
  // workers: progress never depends on a free pool thread, and a second
  // dispatcher arriving while the pool is busy still drives its own region.
  // It may itself belong to another pool; mark it as ours for the duration
  // so same-pool nesting stays inline, then restore.
  ThreadPool* const previous = tls_current_pool;
  tls_current_pool = this;
  while (region.next_slot < region.slots) {
    const unsigned slot = ClaimSlotLocked(&region);
    RunSlot(&region, slot, lock);
    --region.remaining;  // no wake needed: this thread is the only waiter
  }
  tls_current_pool = previous;
  region_done_.wait(lock, [&region] { return region.remaining == 0; });
  lock.unlock();
  // Rethrow only after every slot finished: the Region leaves the scheduler
  // intact whichever thread threw.
  if (region.error) std::rethrow_exception(region.error);
}

void ThreadPool::Submit(unsigned slots, std::function<void(unsigned)> fn,
                        std::function<void()> on_complete) {
  slots = std::min(std::max(slots, 1u), worker_count_);
  if (obs::CountersEnabled()) RegionsCounter().Add();
  if (!threads_.empty()) {
    auto region = std::make_unique<Region>();
    std::lock_guard<std::mutex> lock(mutex_);
    if (!stopping_) {
      region->body = std::move(fn);
      region->on_complete = std::move(on_complete);
      region->slots = slots;
      region->remaining = slots;
      region->detached = true;
      region->trace_start_ns =
          obs::FullTracingEnabled() ? obs::TraceNowNs() : 0;
      open_.push_back(region.release());
      ++live_detached_;
      WakeWorkersLocked(slots);
      return;
    }
  }
  // No workers to hand the region to (single-threaded pool, or shutdown
  // already draining): run it inline, completion included — the sequential
  // fallback.
  for (unsigned s = 0; s < slots; ++s) fn(s);
  if (on_complete) on_complete();
}

}  // namespace spnerf
