// Volume rendering with alpha compositing, empty-space skipping and early
// ray termination — the per-frame loop the SpNeRF accelerator executes
// (ray sampling -> online decode -> trilinear interpolation -> MLP ->
// compositing). Rendering statistics feed the hardware workload model.
#pragma once

#include <array>

#include "common/image.hpp"
#include "common/stats.hpp"
#include "grid/occupancy_octree.hpp"
#include "render/camera.hpp"
#include "render/field_source.hpp"
#include "render/mlp.hpp"

namespace spnerf {

struct RenderOptions {
  /// Ray-march step in world units ([0,1]^3 scene box). ~half a voxel at
  /// 160^3 resolution.
  float step_size = 0.003f;
  /// Samples whose alpha falls below this skip the MLP (DVGO's
  /// fast_color_thres); their contribution is negligible by construction.
  float alpha_threshold = 2e-3f;
  /// Stop marching when transmittance falls below this.
  float termination_transmittance = 2e-3f;
  /// Composite over this background (Synthetic-NeRF uses white).
  Vec3f background{1.0f, 1.0f, 1.0f};
  /// Use the FP16 systolic-array MLP path.
  bool fp16_mlp = false;
  /// Optional occupancy octree for empty-space skipping (non-owning). All
  /// compared pipelines use the same skip structure, as DVGO/VQRF do. The
  /// march jumps whole cached empty octree nodes; null tests every sample.
  /// Either way sample k of a ray sits at `t_near + k * step_size`, so the
  /// skip structure decides which samples are taken, never where they are.
  const OccupancyOctree* octree_skip = nullptr;
};

/// Per-frame statistics. `mlp_evals` and the per-ray distributions drive the
/// cycle-level simulator's workload.
struct RenderStats {
  u64 rays = 0;
  u64 steps = 0;           // field samples taken
  u64 coarse_skips = 0;    // sample indices in [t_near, t_far) not sampled
  u64 mlp_evals = 0;       // samples that passed the alpha threshold
  u64 terminated_rays = 0; // rays stopped by early termination
  u64 missed_rays = 0;     // rays that never hit the scene box
  RunningStats steps_per_ray;
  RunningStats evals_per_ray;

  void Reset() { *this = RenderStats{}; }

  /// Accumulates another shard. Counters merge exactly; the per-ray
  /// distributions merge with Welford's pairwise formula, which is
  /// deterministic for a fixed merge order (the engine always reduces tile
  /// shards in tile order).
  void Merge(const RenderStats& other) {
    rays += other.rays;
    steps += other.steps;
    coarse_skips += other.coarse_skips;
    mlp_evals += other.mlp_evals;
    terminated_rays += other.terminated_rays;
    missed_rays += other.missed_rays;
    steps_per_ray.Merge(other.steps_per_ray);
    evals_per_ray.Merge(other.evals_per_ray);
  }
};

class RenderEngine;

class VolumeRenderer {
 public:
  explicit VolumeRenderer(RenderOptions options = {}) : options_(options) {}

  [[nodiscard]] const RenderOptions& Options() const { return options_; }

  /// Renders one view through the tile engine (all workers, with or without
  /// stats). `stats`, when given, accumulates the workload counters of this
  /// view; the totals are identical for any worker count (per-tile shards,
  /// ordered reduction). Schedules on `engine` when given, else on the
  /// process-wide shared engine (RenderEngine::Shared()) — a per-call
  /// engine is never constructed.
  [[nodiscard]] Image Render(const FieldSource& source, const Mlp& mlp,
                             const Camera& camera,
                             RenderStats* stats = nullptr,
                             const RenderEngine* engine = nullptr) const;

  /// Renders one pixel tile [x0,x1) x [y0,y1) of `camera`'s image into
  /// `out` — the unit of work the tile engine schedules — with the
  /// wavefront marcher: per iteration the active rays' next sample
  /// positions go through one FieldSource::SampleBatch call and the alpha
  /// survivors shade through Mlp::ForwardBatch in full blocks, the
  /// software mirror of the accelerator's decode->TIU->systolic dataflow.
  /// Pixels, stats and counters are bit-identical to a per-ray march with
  /// a flat CoarseOccupancy skip chain (the oracle in
  /// tests/support/reference_render.hpp). `stats`/`counters` are this
  /// tile's shard accumulators (may be null).
  void RenderTile(const FieldSource& source, const Mlp& mlp,
                  const Camera& camera, int x0, int y0, int x1, int y1,
                  Image& out, RenderStats* stats = nullptr,
                  DecodeCounters* counters = nullptr) const;

 private:
  RenderOptions options_;
};

namespace render_detail {

/// One ray's march over its sample grid: sample k sits at
/// `t_near + float(k) * step` for every k with that t below `t_far`.
struct RayMarch {
  Ray ray;
  float t_near = 0.f;
  float t_far = 0.f;
  u32 k = 0;            // next sample index to test
  u64 skips = 0;        // indices passed over unsampled
  OctreeRayCache node;  // the cached empty octree node the ray is crossing

  [[nodiscard]] float SampleT(u32 j, float step) const {
    return t_near + static_cast<float>(j) * step;
  }
};

/// Empty-space iterations of the octree march, by the level of the empty
/// node crossed and outside the box; tallied per tile for the obs
/// registry. Deeper levels fold into the last bucket — 12 levels already
/// cover a 2048^3 coarse grid.
struct SkipTally {
  static constexpr int kMaxLevels = 12;
  std::array<u32, kMaxLevels> level{};
  u32 outside = 0;
};

/// Empty-space skipping: moves `march.k` to the first index at or after
/// it whose sample the per-sample occupancy test takes (the point is in
/// the box and its leaf cell is occupied) and returns true, or moves it
/// past `t_far` and returns false. Every index passed over counts into
/// `march.skips`. An empty sample jumps the whole cached empty node, and
/// each jump is checked, so it never passes over a sample the per-sample
/// test would take. `tree` null takes every index; `tally` may be null.
bool AdvanceToOccupied(const OccupancyOctree* tree, float step,
                       RayMarch& march, SkipTally* tally);

}  // namespace render_detail

}  // namespace spnerf
