// Volume rendering with alpha compositing, empty-space skipping and early
// ray termination — the per-frame loop the SpNeRF accelerator executes
// (ray sampling -> online decode -> trilinear interpolation -> MLP ->
// compositing). Rendering statistics feed the hardware workload model.
#pragma once

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
  /// march crosses empty leaf cells through the octree's cached-node DDA
  /// path; null marches every sample.
  const OccupancyOctree* octree_skip = nullptr;
  /// Degraded-preview skip granularity (quality ladder, render/quality.hpp):
  /// when > 0, the empty-space march answers occupancy this many octree
  /// levels ABOVE the leaves — the capped level's OR-reduced bit is
  /// conservative (true whenever any descendant leaf is occupied), so no
  /// occupied sample is ever skipped; empty space is crossed in
  /// capped-level cells, which are 2^cap wider per axis, so a sparse ray
  /// pays far fewer skip iterations. 0 (the default, and rung 0) is the
  /// exact leaf-level chain.
  int octree_level_cap = 0;
};

/// Per-frame statistics. `mlp_evals` and the per-ray distributions drive the
/// cycle-level simulator's workload.
struct RenderStats {
  u64 rays = 0;
  u64 steps = 0;           // field samples taken
  u64 coarse_skips = 0;    // supervoxels jumped over without sampling
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

/// Forward-progress bump added past every empty-cell exit distance before
/// resuming the march: `t = max(exit_t + kSkipForwardEpsilon, t + step)`.
/// For grazing rays travelling along a cell face — where the exit boundary
/// is the very plane the ray rides on — the bump alone guarantees strictly
/// monotone progress. Shared by the octree march and the flat reference
/// chain; it is part of the bit-exactness contract, not a tunable.
inline constexpr float kSkipForwardEpsilon = 1e-5f;

/// Direction components with |d| below this are treated as parallel to the
/// axis: their boundary planes can never be crossed and would divide by
/// ~zero. Shared by every exit-distance computation.
inline constexpr float kDegenerateDirectionEpsilon = 1e-12f;

/// Distance along `ray` at which it exits coarse cell `cell` of a
/// `dims`-sized grid spanning [0,1]^3, entered at parameter `t`. Only the
/// (at most 3) boundary planes the ray can exit through are computed, with
/// the exact CoarseOccupancy::CellBounds expressions, so it is
/// bit-identical to the exit of that cell's Aabb. Always strictly greater
/// than `t`: a ray grazing a face, or with no boundary ahead, would
/// otherwise return `t` unchanged and stall the empty-space march.
float CellExitTDda(const Ray& ray, Vec3i cell, const GridDims& dims, float t);

}  // namespace render_detail

}  // namespace spnerf
