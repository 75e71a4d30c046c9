// Top-level per-scene pipeline: builds the dataset (procedural scene ->
// dense grid -> VQRF model), runs the SpNeRF preprocessing, and exposes the
// three rendering paths the paper compares:
//   ground truth (analytic), VQRF (restored dense grid), SpNeRF (online
//   decode, with or without bitmap masking).
//
// The heavy state (dataset, codec, coarse skip) is held as shared immutable
// assets (src/assets), so pipelines built through PipelineRepository share
// them rather than rebuilding; Build() remains the direct, uncached path.
#pragma once

#include <memory>
#include <mutex>
#include <optional>

#include "assets/asset_cache.hpp"
#include "common/image.hpp"
#include "encoding/spnerf_codec.hpp"
#include "grid/occupancy.hpp"
#include "render/camera.hpp"
#include "render/mlp.hpp"
#include "render/render_engine.hpp"
#include "scene/dataset.hpp"
#include "sim/workload.hpp"

namespace spnerf {

struct PipelineConfig {
  SceneId scene_id = SceneId::kChair;
  DatasetParams dataset;
  SpNeRFParams spnerf;
  u64 mlp_seed = 2025;
  RenderOptions render;
  /// Tile scheduler configuration for every render this pipeline issues.
  RenderEngineOptions engine;
  /// Fine voxels per coarse skip cell.
  int coarse_factor = 4;
  float camera_radius = 1.35f;
  float camera_elevation_deg = 25.0f;
  float camera_fov_deg = 35.0f;
};

class ScenePipeline {
 public:
  /// Builds every asset directly (no cache). PipelineRepository::Acquire is
  /// the cached path every bench/example/experiment goes through.
  static ScenePipeline Build(const PipelineConfig& config);

  /// Assembles a pipeline onto already-built (cached) assets. The assets
  /// must match the config's build parameters — the repository guarantees
  /// this by deriving both from the same key fields.
  static ScenePipeline FromAssets(const PipelineConfig& config,
                                  PipelineAssets assets);

  [[nodiscard]] const PipelineConfig& Config() const { return config_; }
  [[nodiscard]] const SceneDataset& Dataset() const { return *assets_.dataset; }
  [[nodiscard]] const SpNeRFModel& Codec() const { return *assets_.codec; }
  [[nodiscard]] const Mlp& GetMlp() const { return mlp_; }
  [[nodiscard]] const CoarseOccupancy& Skip() const { return *assets_.coarse; }
  [[nodiscard]] const OccupancyOctree& Octree() const {
    return *assets_.octree;
  }

  /// Orbit camera `view` of `n_views` at the configured radius/elevation.
  [[nodiscard]] Camera MakeCamera(int width, int height, int view = 0,
                                  int n_views = 8) const;

  /// Tile engine configured from PipelineConfig::engine; all pipeline
  /// renders go through it.
  [[nodiscard]] RenderEngine MakeEngine() const {
    return RenderEngine(config_.engine);
  }
  /// Render options with this pipeline's occupancy octree attached for
  /// empty-space skipping. Callers building their own RenderJobs (orbit
  /// sweeps, codec A/B batches) use this so every path marches identical
  /// rays.
  [[nodiscard]] RenderOptions RenderOptionsWithSkip() const;

  [[nodiscard]] Image RenderGroundTruth(const Camera& camera) const;
  /// Renders from the restored dense grid (the original VQRF flow). The
  /// restored grid is materialised on first use and cached.
  [[nodiscard]] Image RenderVqrf(const Camera& camera) const;
  /// Renders via online decoding; stats/counter collection is fully
  /// parallel (per-tile shards, ordered reduction).
  [[nodiscard]] Image RenderSpnerf(const Camera& camera, bool bitmap_masking,
                                   RenderStats* stats = nullptr,
                                   DecodeCounters* counters = nullptr) const;
  /// Renders the paper's compared paths for one camera as a single engine
  /// batch. Null output pointers skip that path (a null `vqrf` also skips
  /// materialising the restored grid). Returns the batch wall time in ms
  /// (issue to the slowest job's completion).
  double RenderComparison(const Camera& camera, Image* gt, Image* vqrf,
                          Image* spnerf_premask, Image* spnerf_postmask) const;
  /// Restored dense grid, materialised on first use (large: FP32).
  /// Materialisation is mutex-guarded; renders pin the grid through a
  /// shared_ptr, so a concurrent ReleaseRestored() only drops this
  /// pipeline's reference. The raw reference returned here is for
  /// inspection — do not hold it across a ReleaseRestored().
  [[nodiscard]] const DenseGrid& RestoredGrid() const {
    return *RestoredShared();
  }

  /// Tile-render with statistics and scale to a full frame (sim input).
  [[nodiscard]] FrameWorkload MeasureWorkload(int tile_size = 96,
                                              int frame_width = 800,
                                              int frame_height = 800) const;
  /// Same measurement mapped onto the VQRF GPU flow.
  [[nodiscard]] GpuFrameWorkload MeasureGpuWorkload(int tile_size = 96,
                                                    int frame_width = 800,
                                                    int frame_height = 800) const;

  /// Drops the cached restored grid (it is large: full-resolution FP32).
  void ReleaseRestored() const;

 private:
  /// Materialise-once accessor; the returned pointer keeps the grid alive
  /// even if ReleaseRestored() runs concurrently.
  [[nodiscard]] std::shared_ptr<const DenseGrid> RestoredShared() const;

  PipelineConfig config_;
  PipelineAssets assets_;  // shared immutable heavy state
  Mlp mlp_;
  // Lazily-materialised restored grid, guarded against concurrent
  // materialisation (two RenderVqrf calls racing). The mutex lives behind a
  // shared_ptr so the pipeline stays movable/copyable.
  std::shared_ptr<std::mutex> restored_mutex_ =
      std::make_shared<std::mutex>();
  mutable std::shared_ptr<DenseGrid> restored_;
};

}  // namespace spnerf
