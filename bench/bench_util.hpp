// Shared helpers for the paper-reproduction bench binaries. Each bench is a
// standalone executable that prints the rows/series of one table or figure.
// All benches accept `key=value` overrides, e.g.:
//   ./bench_fig6b_psnr scenes=2 res=96 img=64     # quick smoke run
//
// Next to the human-readable tables every bench writes its timing entries
// to a machine-readable BENCH_<id>.json (one file per run, overwritten) so
// wall-time trajectories can be collected per commit.
#pragma once

#include <chrono>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include <algorithm>

#include "common/config.hpp"
#include "common/image.hpp"
#include "common/parallel.hpp"
#include "common/simd.hpp"
#include "common/ssim.hpp"
#include "common/units.hpp"
#include "core/experiments.hpp"
#include "core/pipeline_repository.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace spnerf::bench {

/// Compile-target architecture tag for the bench host metadata.
inline const char* HostArchName() {
#if defined(__x86_64__)
  return "x86_64";
#elif defined(__aarch64__)
  return "aarch64";
#elif defined(__i386__)
  return "x86";
#else
  return "unknown";
#endif
}

/// Builds the default paper-scale experiment configuration, with optional
/// command-line overrides:
///   scenes=N   use only the first N zoo scenes (default all 8)
///   res=R      override the voxel-grid resolution (default: paper scale)
///   img=S      PSNR raster size (default 100)
///   tile=S     workload-measurement tile (default 96)
///   threads=N  render worker cap (default 0 = every pool worker)
inline ExperimentConfig MakeConfig(int argc, const char* const* argv) {
  const Config c = Config::FromArgs(argc, argv);
  ExperimentConfig cfg;
  const int nscenes = c.GetInt("scenes", static_cast<int>(cfg.scenes.size()));
  if (nscenes > 0 && nscenes < static_cast<int>(cfg.scenes.size())) {
    cfg.scenes.resize(static_cast<std::size_t>(nscenes));
  }
  cfg.resolution_override = c.GetInt("res", 0);
  cfg.psnr_image_size = c.GetInt("img", 100);
  cfg.tile_size = c.GetInt("tile", 96);
  cfg.threads = static_cast<unsigned>(c.GetInt("threads", 0));
  return cfg;
}

/// Render parallelism a config resolves to (the JSON `threads` field).
/// Matches RenderEngine semantics: an explicit cap is honoured even past
/// the global pool size (dedicated-pool oversubscription).
inline unsigned EffectiveThreads(const ExperimentConfig& cfg) {
  return cfg.threads ? cfg.threads : ThreadPool::Global().WorkerCount();
}

inline void PrintHeader(const char* id, const char* title) {
  std::printf("==============================================================\n");
  std::printf("%s — %s\n", id, title);
  std::printf("==============================================================\n");
}

inline void PrintRule() {
  std::printf("--------------------------------------------------------------\n");
}

/// Wall-clock stopwatch for bench phases.
class WallTimer {
 public:
  WallTimer() : start_(std::chrono::steady_clock::now()) {}
  [[nodiscard]] double ElapsedMs() const {
    return std::chrono::duration<double, std::milli>(
               std::chrono::steady_clock::now() - start_)
        .count();
  }

 private:
  std::chrono::steady_clock::time_point start_;
};

/// Machine-readable timing report, written (overwriting any previous run)
/// as BENCH_<id>.json on destruction. Four entry shapes share the file:
/// wall-time phases {name, wall_ms, threads}, serving percentiles
/// {name, p50_ms, p95_ms, p99_ms, throughput_rps, threads}, serving
/// outcome counts {name, completed, rejected, expired, threads} and image
/// quality {name, psnr_db, ssim, wall_ms, threads}, so latency
/// distributions, shed counts and degraded-render quality land in the same
/// per-commit trajectory as batch timings.
class JsonReport {
 public:
  explicit JsonReport(std::string bench_id) : bench_id_(std::move(bench_id)) {}

  JsonReport(const JsonReport&) = delete;
  JsonReport& operator=(const JsonReport&) = delete;

  void Add(const std::string& name, double wall_ms, unsigned threads) {
    Entry e;
    e.name = name;
    e.wall_ms = wall_ms;
    e.threads = threads;
    entries_.push_back(std::move(e));
  }

  /// Tail-latency entry for a serving phase.
  void AddPercentiles(const std::string& name, double p50_ms, double p95_ms,
                      double p99_ms, double throughput_rps, unsigned threads) {
    Entry e;
    e.name = name;
    e.threads = threads;
    e.kind = Entry::kPercentiles;
    e.p50_ms = p50_ms;
    e.p95_ms = p95_ms;
    e.p99_ms = p99_ms;
    e.throughput_rps = throughput_rps;
    entries_.push_back(std::move(e));
  }

  /// Overhead ratio entry for the observability contract (e.g.
  /// "render/trace-overhead[full]" = wall_off / wall_full). Written into
  /// the `obs` block so trajectory tooling can track the tracing contract
  /// (>= 0.95 full, >= 0.99 counters-only) per commit.
  void AddObsRatio(const std::string& name, double ratio) {
    obs_ratios_.push_back({name, ratio});
  }

  /// Repeated-measurement flavour: the median ratio over several rounds,
  /// written with the rounds' min and max so the spread is on record.
  void AddObsRatio(const std::string& name, double median, double min,
                   double max) {
    obs_ratios_.push_back({name, median, min, max, true});
  }

  /// Captures the process metrics registry into the report's `obs` block
  /// (call once, after the measured phases). Every BENCH_*.json then embeds
  /// the run's counter/gauge/histogram snapshot next to its timings.
  void CaptureObsSnapshot() {
    obs_snapshot_ = obs::MetricsRegistry::Global().Snapshot();
    have_obs_snapshot_ = true;
  }

  /// Request-outcome counts for a serving phase (or one priority class of
  /// it): completed vs explicitly shed. Tracking sheds per commit makes a
  /// shedding regression — or a priority inversion starving one class —
  /// visible in the trajectory, not just in aggregate latency.
  void AddCounts(const std::string& name, unsigned long long completed,
                 unsigned long long rejected, unsigned long long expired,
                 unsigned threads) {
    Entry e;
    e.name = name;
    e.threads = threads;
    e.kind = Entry::kCounts;
    e.completed = completed;
    e.rejected = rejected;
    e.expired = expired;
    entries_.push_back(std::move(e));
  }

  /// Quality-vs-cost entry for a degraded render (e.g. "quality/rung2"):
  /// PSNR/SSIM against the full-quality reference next to the measured
  /// per-frame wall time, so the PSNR-vs-deadline tradeoff curve lands in
  /// the per-commit trajectory.
  void AddQuality(const std::string& name, double psnr_db, double ssim,
                  double wall_ms, unsigned threads) {
    Entry e;
    e.name = name;
    e.threads = threads;
    e.kind = Entry::kQuality;
    e.psnr_db = psnr_db;
    e.ssim = ssim;
    e.wall_ms = wall_ms;
    entries_.push_back(std::move(e));
  }

  ~JsonReport() {
    const std::string path = "BENCH_" + bench_id_ + ".json";
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (!f) return;
    // Host metadata: numbers from different machines / dispatch paths must
    // never be compared as one trajectory, so every report says where it
    // came from. `simd_detected` is what auto-detection would pick on this
    // host; `simd_path` is what the wavefront kernels actually dispatched
    // on when the report was written (tests/benches may have forced it).
    std::fprintf(f,
                 "{\n  \"bench\": \"%s\",\n"
                 "  \"host\": {\"arch\": \"%s\", \"simd_detected\": \"%s\", "
                 "\"simd_path\": \"%s\", \"compiler\": \"%s\"},\n"
                 "  \"entries\": [\n",
                 bench_id_.c_str(), HostArchName(),
                 simd::PathName(simd::BestSupportedPath()),
                 simd::PathName(simd::ActivePath()), simd::CompilerName());
    for (std::size_t i = 0; i < entries_.size(); ++i) {
      const Entry& e = entries_[i];
      const char* sep = i + 1 < entries_.size() ? "," : "";
      if (e.kind == Entry::kPercentiles) {
        std::fprintf(f,
                     "    {\"name\": \"%s\", \"p50_ms\": %.3f, "
                     "\"p95_ms\": %.3f, \"p99_ms\": %.3f, "
                     "\"throughput_rps\": %.2f, \"threads\": %u}%s\n",
                     e.name.c_str(), e.p50_ms, e.p95_ms, e.p99_ms,
                     e.throughput_rps, e.threads, sep);
      } else if (e.kind == Entry::kQuality) {
        std::fprintf(f,
                     "    {\"name\": \"%s\", \"psnr_db\": %.3f, "
                     "\"ssim\": %.4f, \"wall_ms\": %.3f, "
                     "\"threads\": %u}%s\n",
                     e.name.c_str(), e.psnr_db, e.ssim, e.wall_ms, e.threads,
                     sep);
      } else if (e.kind == Entry::kCounts) {
        std::fprintf(f,
                     "    {\"name\": \"%s\", \"completed\": %llu, "
                     "\"rejected\": %llu, \"expired\": %llu, "
                     "\"threads\": %u}%s\n",
                     e.name.c_str(), e.completed, e.rejected, e.expired,
                     e.threads, sep);
      } else {
        std::fprintf(f,
                     "    {\"name\": \"%s\", \"wall_ms\": %.3f, "
                     "\"threads\": %u}%s\n",
                     e.name.c_str(), e.wall_ms, e.threads, sep);
      }
    }
    std::fprintf(f, "  ],\n");
    // The observability block: the run's trace level, any recorded
    // tracing-overhead ratios, and (when captured) the full metrics
    // snapshot. Metric names are repo-chosen identifiers (no escaping
    // needed).
    std::fprintf(f, "  \"obs\": {\n    \"trace_level\": \"%s\"",
                 obs::TraceLevelName(obs::ActiveTraceLevel()));
    if (!obs_ratios_.empty()) {
      std::fprintf(f, ",\n    \"ratios\": [\n");
      for (std::size_t i = 0; i < obs_ratios_.size(); ++i) {
        const ObsRatio& r = obs_ratios_[i];
        std::fprintf(f, "      {\"name\": \"%s\", \"ratio\": %.4f",
                     r.name.c_str(), r.ratio);
        if (r.spread) {
          std::fprintf(f, ", \"min\": %.4f, \"max\": %.4f", r.min, r.max);
        }
        std::fprintf(f, "}%s\n", i + 1 < obs_ratios_.size() ? "," : "");
      }
      std::fprintf(f, "    ]");
    }
    if (have_obs_snapshot_) {
      std::fprintf(f, ",\n    \"counters\": [\n");
      for (std::size_t i = 0; i < obs_snapshot_.counters.size(); ++i) {
        const auto& c = obs_snapshot_.counters[i];
        std::fprintf(f, "      {\"name\": \"%s\", \"value\": %llu}%s\n",
                     c.name.c_str(), static_cast<unsigned long long>(c.value),
                     i + 1 < obs_snapshot_.counters.size() ? "," : "");
      }
      std::fprintf(f, "    ],\n    \"gauges\": [\n");
      for (std::size_t i = 0; i < obs_snapshot_.gauges.size(); ++i) {
        const auto& g = obs_snapshot_.gauges[i];
        std::fprintf(f, "      {\"name\": \"%s\", \"value\": %lld}%s\n",
                     g.name.c_str(), static_cast<long long>(g.value),
                     i + 1 < obs_snapshot_.gauges.size() ? "," : "");
      }
      std::fprintf(f, "    ],\n    \"histograms\": [\n");
      for (std::size_t i = 0; i < obs_snapshot_.histograms.size(); ++i) {
        const auto& h = obs_snapshot_.histograms[i];
        std::fprintf(
            f,
            "      {\"name\": \"%s\", \"count\": %llu, \"sum\": %llu, "
            "\"p50\": %llu, \"p99\": %llu, \"max\": %llu}%s\n",
            h.name.c_str(), static_cast<unsigned long long>(h.hist.count),
            static_cast<unsigned long long>(h.hist.sum),
            static_cast<unsigned long long>(h.hist.Percentile(50.0)),
            static_cast<unsigned long long>(h.hist.Percentile(99.0)),
            static_cast<unsigned long long>(h.hist.max),
            i + 1 < obs_snapshot_.histograms.size() ? "," : "");
      }
      std::fprintf(f, "    ]");
    }
    std::fprintf(f, "\n  }\n}\n");
    std::fclose(f);
    std::printf("[json] wrote %s (%zu entries)\n", path.c_str(),
                entries_.size());
  }

 private:
  struct Entry {
    enum Kind { kWallTime, kPercentiles, kCounts, kQuality };
    std::string name;
    double wall_ms = 0.0;
    unsigned threads = 0;
    Kind kind = kWallTime;
    double p50_ms = 0.0;
    double p95_ms = 0.0;
    double p99_ms = 0.0;
    double throughput_rps = 0.0;
    double psnr_db = 0.0;
    double ssim = 0.0;
    unsigned long long completed = 0;
    unsigned long long rejected = 0;
    unsigned long long expired = 0;
  };
  std::string bench_id_;
  std::vector<Entry> entries_;
  struct ObsRatio {
    std::string name;
    double ratio = 0.0;
    double min = 0.0;
    double max = 0.0;
    bool spread = false;  // min/max come from repeated rounds
  };
  std::vector<ObsRatio> obs_ratios_;
  obs::MetricsSnapshot obs_snapshot_;
  bool have_obs_snapshot_ = false;
};

/// Reference-vs-candidate image quality pair for degraded-rendering
/// entries. PSNR is capped at 99 dB so bit-identical pairs (infinite PSNR)
/// stay finite in the JSON trajectory.
struct ImageQuality {
  double psnr_db = 0.0;
  double ssim = 0.0;
};

inline ImageQuality MeasureQuality(const Image& reference,
                                   const Image& candidate) {
  ImageQuality q;
  q.psnr_db = std::min(Psnr(reference, candidate), 99.0);
  q.ssim = Ssim(reference, candidate);
  return q;
}

/// Drains the build/preprocess phase timings accumulated by the pipeline
/// repository (cold builds, disk loads, memory hits) into the JSON report,
/// one `{name, wall_ms, threads}` entry per acquired asset — e.g.
/// "build/dataset/lego[cold]" — so the build-path trajectory is tracked
/// alongside the render phases. Also prints a one-line cache summary.
inline void AddBuildTimings(JsonReport& json) {
  u64 cold = 0, disk = 0, mem = 0;
  for (const AssetTimingEntry& e :
       PipelineRepository::Global().DrainTimings()) {
    json.Add("build/" + e.name + "[" + AssetOriginName(e.origin) + "]",
             e.wall_ms, e.threads);
    switch (e.origin) {
      case AssetOrigin::kBuilt: ++cold; break;
      case AssetOrigin::kDisk: ++disk; break;
      case AssetOrigin::kMemory: ++mem; break;
    }
  }
  if (cold + disk + mem) {
    std::printf("[assets] %llu cold build(s), %llu disk load(s), "
                "%llu memory hit(s)\n",
                static_cast<unsigned long long>(cold),
                static_cast<unsigned long long>(disk),
                static_cast<unsigned long long>(mem));
  }
}

}  // namespace spnerf::bench
