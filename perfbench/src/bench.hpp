// Shared pieces of the repository benchmark (see perfbench/README.md): the
// workload definitions, the per-run context, sample statistics, the metric
// sink and the span log of the traced run.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <vector>

#include "common/image.hpp"
#include "common/parallel.hpp"
#include "core/pipeline_repository.hpp"
#include "render/field_source.hpp"
#include "render/quality.hpp"
#include "serve/render_service.hpp"

namespace perfbench {

using spnerf::u64;
using Clock = std::chrono::steady_clock;

inline double MsBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

// ------------------------------------------------------------ workloads --

/// Every workload renders 64^3 grids with default SPNF_* modes on a pool of
/// this many workers; only the traffic differs.
inline constexpr int kGridResolution = 64;
inline constexpr unsigned kWorkers = 4;
inline constexpr int kViews = 8;

enum class Traffic {
  kOrbitStream,  // closed loop, one viewer, RenderEngine::RenderBatch
  kServe,        // open-loop Poisson arrivals into RenderService
};

struct WorkloadSpec {
  std::string name;
  Traffic traffic = Traffic::kServe;
  std::vector<spnerf::SceneId> scenes;
  int frame_size = 64;
  /// Serve only: fixed offered rate and trace shape. Never derived from a
  /// measurement, so a faster commit faces the same load as its parent.
  double rate_rps = 0.0;
  std::size_t hot_scenes = 2;
  bool interactive_heavy = false;
  /// Constant frame time handed to InteractiveHeavyTrace (ms).
  double deadline_frame_ms = 0.0;
  /// Deadline of every request the trace leaves without one (ms).
  double flat_deadline_ms = 0.0;
  /// latency_tail_ms is the median, over this many equal windows of the run
  /// (by due time), of each window's tail. Under overload the slowest
  /// frames are batch-class frames, and which load burst the few slowest
  /// fall into moves a whole-run tail between seeds: its interquartile
  /// spread was 0.13 of the median over twelve seeds and 0.25 in one set of
  /// ten, at the largest bound a metric may have. The median of four
  /// quarter-run tails spread 0.07 over the same twelve runs.
  int tail_windows = 1;
};

inline constexpr spnerf::QualityRung kRungs[] = {
    spnerf::QualityRung::kFull, spnerf::QualityRung::kCoarse,
    spnerf::QualityRung::kHalf, spnerf::QualityRung::kPreview};
/// Metric-name suffix of a rung ("full", "coarse", "half", "preview").
const char* RungKey(spnerf::QualityRung rung);

/// Looks up a workload by name; nullptr when unknown.
const WorkloadSpec* FindWorkload(const std::string& name);

/// The one service configuration every serve workload runs against.
spnerf::RenderServiceOptions ServiceOptions(spnerf::ThreadPool& pool,
                                            spnerf::PipelineRepository& repo);

/// The pipeline config of one workload scene (64^3 grid, default options;
/// renders scheduled on `pool`).
spnerf::PipelineConfig SceneConfig(spnerf::SceneId id,
                                   spnerf::ThreadPool& pool);

// ------------------------------------------------------------ statistics --

/// Linear-interpolated percentile of `values` (p in [0, 100]); 0 if empty.
double Percentile(std::vector<double> values, double p);

/// The tail the choosing-metrics rule allows: the highest percentile that
/// leaves at least 10 samples beyond it, i.e. the 11th-largest sample. Its
/// percentile, 100 * (n - 10) / n, moves continuously with n, so a change in
/// throughput never makes the reported tail jump to another percentile. With
/// 10 or fewer samples it falls back to the median.
struct Tail {
  double percentile = 50.0;
  double value = 0.0;
  std::size_t n = 0;
};
Tail TailOf(std::vector<double> values);

/// The window, of `windows` equal ones over a run of `seconds`, holding a
/// sample `ms` after the run's start.
int WindowOf(double ms, double seconds, int windows);

/// Process CPU time (user + system) in ms.
double ProcessCpuMs();
/// CPU time of the calling thread in ns. Stage shares use CPU time, not wall
/// time, so time the hypervisor steals from a busy thread does not count.
u64 ThreadCpuNs();
/// Peak resident set size of the process in MB.
double PeakRssMb();

// ---------------------------------------------------------------- output --

/// Ordered name -> (value, unit) sink for the result line.
class MetricSink {
 public:
  void Set(const std::string& name, double value, const std::string& unit);
  [[nodiscard]] std::string Json() const;

 private:
  std::map<std::string, std::pair<double, std::string>> metrics_;
};

/// JSON number with every significant digit (non-finite values become 0).
std::string JsonNumber(double v);
std::string JsonString(const std::string& s);

// ----------------------------------------------------------------- spans --

/// In-memory span log of the traced run. Recording is lock-free per thread
/// (each thread appends to its own buffer, registered once under a mutex),
/// so pool workers can record SampleBatch spans concurrently. Spans are
/// written out only when the run ends.
struct Span {
  u64 id = 0;
  u64 parent = 0;   // 0 = root
  u64 request = 0;  // request / frame id shared by one request's spans
  const char* name = "";
  Clock::time_point start;
  Clock::time_point end;
  u64 items = 0;    // work items the span covered (samples, evals, ...)
  u64 cpu_ns = 0;   // CPU time of the recording thread inside the span
  int thread = 0;
};

class SpanLog {
 public:
  [[nodiscard]] u64 NextId() { return next_id_.fetch_add(1) + 1; }
  void Record(const Span& span);
  /// Every span recorded so far. Call only once recording threads are
  /// quiescent (all renders returned, all futures ready).
  [[nodiscard]] std::vector<Span> Collect() const;

 private:
  struct Buffer {
    int thread = 0;
    std::vector<Span> spans;
  };
  Buffer& Local();

  std::atomic<u64> next_id_{0};
  mutable std::mutex mutex_;
  std::vector<std::unique_ptr<Buffer>> buffers_;  // guarded by mutex_
};

/// Per-name span totals: count, summed duration and summed self time (the
/// span's duration minus the part of it covered by its children).
struct SpanTotals {
  u64 count = 0;
  u64 items = 0;
  double total_ms = 0.0;
  double self_ms = 0.0;
};
std::map<std::string, SpanTotals> SummarizeSpans(const std::vector<Span>& spans);

/// Writes the spans as Chrome trace_event JSON plus the per-name summary.
void WriteSpans(const std::string& path, const std::vector<Span>& spans,
                const std::map<std::string, SpanTotals>& summary);

/// FieldSource decorator timing every SampleBatch call into a SpanLog; all
/// sampling forwards to the wrapped source, so pixels, stats and counters
/// are unchanged. The parent span and request id are read from atomics the
/// (single) frame loop sets before each render.
class TimingFieldSource final : public spnerf::FieldSource {
 public:
  TimingFieldSource(const spnerf::FieldSource& inner, SpanLog& log,
                    const std::atomic<u64>& parent,
                    const std::atomic<u64>& request)
      : inner_(inner), log_(log), parent_(parent), request_(request) {}

  [[nodiscard]] spnerf::FieldSample Sample(spnerf::Vec3f world) const override {
    return inner_.Sample(world);
  }
  [[nodiscard]] spnerf::FieldSample Sample(
      spnerf::Vec3f world, spnerf::DecodeCounters* counters) const override {
    return inner_.Sample(world, counters);
  }
  void SampleBatch(std::span<const spnerf::Vec3f> positions,
                   std::span<spnerf::FieldSample> out,
                   spnerf::DecodeCounters* counters) const override;
  [[nodiscard]] const char* Name() const override { return inner_.Name(); }

 private:
  const spnerf::FieldSource& inner_;
  SpanLog& log_;
  const std::atomic<u64>& parent_;
  const std::atomic<u64>& request_;
};

// ------------------------------------------------------------------- run --

struct RunArgs {
  const WorkloadSpec* workload = nullptr;
  u64 seed = 0;
  double seconds = 0.0;
  bool trace = false;
  std::string out_dir;
  std::string commit;
};

/// Reference frames of every (scene, view, rung) the workload can deliver,
/// rendered directly through ScenePipeline + ApplyRung + UpsampleBilinear
/// before timing, and the PSNR of each against RenderGroundTruth.
struct ReferenceTable {
  std::vector<spnerf::SceneId> scenes;
  // index: ((scene * kViews) + view) * kQualityRungCount + rung
  std::vector<spnerf::Image> frames;
  std::vector<double> psnr_db;
  [[nodiscard]] std::size_t Index(std::size_t scene, int view,
                                  spnerf::QualityRung rung) const;
  [[nodiscard]] std::size_t SceneIndex(spnerf::SceneId id) const;
};

/// True when the two images have identical dimensions and bytes.
bool BitIdentical(const spnerf::Image& a, const spnerf::Image& b);

/// State shared by the phases of one run.
struct RunContext {
  RunArgs args;
  spnerf::ThreadPool* pool = nullptr;
  // Declared cache first so the repository (which references it) dies
  // first; both are replaced by every SetupOnce.
  std::unique_ptr<spnerf::AssetCache> cache;
  std::unique_ptr<spnerf::PipelineRepository> repository;
  std::vector<std::shared_ptr<const spnerf::ScenePipeline>> pipelines;
  ReferenceTable reference;
  SpanLog spans;
};

/// What a timed phase measured, before reduction to metrics.
struct PhaseResult {
  u64 attempted = 0;
  u64 failed = 0;      // errored, unresolved or wrong-image operations
  bool correct = true;
  std::vector<double> latency_ms;  // delivered frames
  std::vector<int> latency_window;  // WindowOf each latency sample
  u64 completed = 0;
  u64 good = 0;        // correct and within deadline
  double psnr_sum = 0.0;
  double wall_s = 0.0;
  double cpu_ms = 0.0;
};

/// Reduces a phase to the end-to-end metrics shared by every workload
/// (setup_s and peak_rss_mb are added by the caller).
void EmitEndToEnd(const PhaseResult& r, int tail_windows, MetricSink& sink,
                  std::string& notes);

// Phases (defined in setup.cpp, orbit.cpp, serve.cpp).

/// What one cold setup measured.
struct SetupSample {
  double seconds = 0.0;
  double cpu_s = 0.0;  // process CPU time over the same window
  std::map<std::string, double> build_ms;  // per asset kind, summed
  std::vector<double> acquire_ms;
  double store_mb = 0.0;
};
/// One cold setup: a fresh asset store at `store_dir`, a fresh repository,
/// and one Acquire per workload scene; the pipelines replace ctx's.
SetupSample SetupOnce(RunContext& ctx, const std::string& store_dir);
void BuildReference(RunContext& ctx);
void EmitEncodingMetrics(const RunContext& ctx, MetricSink& sink);
/// Direct per-rung renders of the workload's scenes at its frame size,
/// through the timing decorator: render.rung_ms.* and render.rung_tiles.*.
void RungProbe(RunContext& ctx, MetricSink& sink);

/// The timed loops. A non-null `layers` makes the pass traced: spans are
/// recorded and the loop's per-layer metrics go to `layers`.
PhaseResult RunOrbit(RunContext& ctx, MetricSink* layers);
PhaseResult RunServe(RunContext& ctx, MetricSink* layers);

/// Render/decode/MLP per-layer metrics from a traced set of frames: the
/// frames' stats, their RenderBatch span ids (SampleBatch spans hang off
/// them) and the process CPU and wall time they took.
struct RenderLayerInput {
  spnerf::RenderStats stats;
  spnerf::DecodeCounters counters;
  std::vector<u64> frame_spans;
  std::vector<double> frame_ms;
  double cpu_ms = 0.0;
  double wall_ms = 0.0;
  int frame_size = 0;
};
void EmitRenderLayers(RunContext& ctx, const RenderLayerInput& in,
                      MetricSink& sink);

}  // namespace perfbench
