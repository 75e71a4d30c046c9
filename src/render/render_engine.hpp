// Batched tile-based render engine: the single scheduling seam every
// rendering caller goes through (benches, examples, the per-scene pipeline,
// VolumeRenderer::Render itself and the serving layer).
//
// A RenderJob names what to render (field source, MLP, camera, options); the
// engine splits every job of a batch into square pixel tiles and feeds the
// flattened (job, tile) list to the persistent ThreadPool through an atomic
// cursor. Batches can be issued two ways: SubmitBatch enqueues the tiles as
// a detached pool region and returns per-job futures immediately, so a
// caller can keep several independent batches in flight on one pool;
// RenderBatch is the blocking wrapper (submit, help render, wait). Tile
// decomposition and per-job reduction order depend only on the image sizes
// — never on the worker count, the schedule, or what other batches are in
// flight — so a stats-on render is bit-identical from 1 thread to N.
#pragma once

#include <functional>
#include <future>
#include <memory>
#include <vector>

#include "common/image.hpp"
#include "common/parallel.hpp"
#include "render/camera.hpp"
#include "render/volume_renderer.hpp"

namespace spnerf {

/// One view to render. `source` and `mlp` are non-owning and must outlive
/// the batch — for SubmitBatch that means until every returned future is
/// ready; one source instance may back many jobs of a batch.
struct RenderJob {
  const FieldSource* source = nullptr;
  const Mlp* mlp = nullptr;
  Camera camera;
  RenderOptions options;
  /// Collect RenderStats and DecodeCounters for this view. Stats-on tiles
  /// render at full parallelism (per-tile shards, ordered reduction).
  bool collect_stats = false;
  /// Trace correlation id (obs/trace.hpp flow). Layers above set it to their
  /// request id so engine tile/job spans land on the request's timeline;
  /// 0 means uncorrelated.
  u64 trace_flow = 0;
};

struct RenderResult {
  Image image;
  RenderStats stats;        // zero unless the job collected stats
  DecodeCounters counters;  // zero unless the job collected stats
  /// Wall-clock from this batch's issue (the SubmitBatch/RenderBatch call)
  /// to the moment this job's last tile finished and its stats reduced —
  /// the batch's own issue-to-completion span. Under concurrent batches
  /// each batch reports its own clock (time spent interleaving with other
  /// in-flight batches included); jobs of one batch may report slightly
  /// different values because they complete tile-by-tile.
  double wall_ms = 0.0;
};

struct RenderEngineOptions {
  /// Square tile edge in pixels. Also the stat-shard granularity.
  int tile_size = 32;
  /// Cap on parallel workers; 0 uses every pool worker. A value above the
  /// global pool size builds a dedicated pool for the call — explicit
  /// oversubscription for machines where the detected core count is wrong
  /// (cgroup-limited containers under-report it).
  unsigned max_threads = 0;
  /// Pool to schedule on; nullptr uses ThreadPool::Global() (or a dedicated
  /// pool when max_threads exceeds its size, see above).
  ThreadPool* pool = nullptr;
};

class RenderEngine {
 public:
  explicit RenderEngine(RenderEngineOptions options = {});

  [[nodiscard]] const RenderEngineOptions& Options() const { return options_; }

  /// Process-wide default engine (default options, global pool) — the one
  /// VolumeRenderer::Render schedules on when the caller passes no engine,
  /// so convenience renders never construct a throwaway engine per call.
  [[nodiscard]] static const RenderEngine& Shared();

  /// The pool this engine schedules batches on (the explicit options pool,
  /// the engine's dedicated oversubscription pool, or the global pool).
  /// Exposed so layers above can co-schedule their own detached work — the
  /// serving layer runs batch issue (pipeline acquisition, job setup) here.
  [[nodiscard]] ThreadPool& Pool() const { return SchedulePool(); }

  /// Renders one view. Equivalent to a one-job batch.
  [[nodiscard]] RenderResult Render(const RenderJob& job) const;

  /// Renders N views through one tile queue, blocking until every job is
  /// done: tiles of all jobs interleave across the workers (the calling
  /// thread helps), so short jobs do not leave the pool idle while a long
  /// job finishes. A wrapper over SubmitBatch.
  [[nodiscard]] std::vector<RenderResult> RenderBatch(
      const std::vector<RenderJob>& jobs) const;

  /// Asynchronous submission: enqueues the batch's tiles as a detached pool
  /// region and returns one future per job, each becoming ready when that
  /// job's last tile finishes. Several batches can be in flight at once;
  /// later batches overlap with earlier ones — their tiles start as soon
  /// as any worker seat frees up (small batches interleave fully; a long
  /// batch's tail no longer idles the pool). A job whose render throws
  /// delivers the exception through its future (get() rethrows) instead of
  /// terminating a pool worker. On a pool with no worker threads
  /// (WorkerCount() == 1) the batch renders inline before SubmitBatch
  /// returns — the sequential fallback; the futures still behave
  /// identically.
  [[nodiscard]] std::vector<std::future<RenderResult>> SubmitBatch(
      std::vector<RenderJob> jobs) const;

  /// Callback flavor of the async path: delivers the batch's per-job
  /// futures — every one already ready — to `on_complete` once the whole
  /// batch finished. get() on each future returns the job's result or
  /// rethrows its render error. The callback runs on a pool worker (inline
  /// on the calling thread when the pool has no worker threads — callers
  /// must tolerate completion before SubmitBatch returns). Futures arrive
  /// in job order.
  void SubmitBatch(
      std::vector<RenderJob> jobs,
      std::function<void(std::vector<std::future<RenderResult>>)> on_complete)
      const;

 private:
  struct BatchState;

  [[nodiscard]] ThreadPool& SchedulePool() const;
  [[nodiscard]] std::shared_ptr<BatchState> PrepareBatch(
      std::vector<RenderJob> jobs) const;

  RenderEngineOptions options_;
  // Owned pool for explicit oversubscription (max_threads beyond the global
  // pool), built once per engine rather than per render call.
  std::unique_ptr<ThreadPool> dedicated_;
};

}  // namespace spnerf
