// Bit-exactness oracle for the production renderer, kept in test support
// because nothing ships it. It marches one ray at a time over the uniform
// sample grid `t_near + float(k) * step` and tests CoarseOccupancy at every
// sample: an unoccupied sample is counted as skipped and never sampled. It
// samples through the scalar FieldSource::Sample and shades through the
// scalar Mlp::Forward / ForwardFp16, so it shares none of the wavefront
// marcher's batching, SIMD kernels or octree node jumps.
// VolumeRenderer::RenderTile must match it bit for bit: pixels, RenderStats
// (including the Welford moments) and DecodeCounters. Written only against
// public APIs.
#pragma once

#include <algorithm>
#include <cmath>

#include "grid/occupancy.hpp"
#include "render/embedding.hpp"
#include "render/render_engine.hpp"

namespace spnerf::test {

/// Renders one ray; `coarse` null samples every index. Stats and counters
/// accumulate into the given shards (may be null).
inline Vec3f ReferenceRay(const RenderOptions& opt,
                          const CoarseOccupancy* coarse,
                          const FieldSource& source, const Mlp& mlp,
                          const Ray& ray, RenderStats* stats,
                          DecodeCounters* counters) {
  const Aabb scene_box{{0.f, 0.f, 0.f}, {1.f, 1.f, 1.f}};
  float t_near = 0.f, t_far = 0.f;
  if (stats) ++stats->rays;
  if (!IntersectAabb(ray, scene_box, t_near, t_far)) {
    if (stats) {
      ++stats->missed_rays;
      stats->steps_per_ray.Add(0.0);
      stats->evals_per_ray.Add(0.0);
    }
    return opt.background;
  }

  const ViewEmbedding view = EmbedViewDirection(ray.direction);
  Vec3f color{0.f, 0.f, 0.f};
  float transmittance = 1.0f;
  u64 steps = 0, evals = 0, skips = 0;
  bool terminated = false;
  for (u32 k = 0;; ++k) {
    const float t = t_near + static_cast<float>(k) * opt.step_size;
    if (!(t < t_far)) break;
    const Vec3f p = ray.At(t);
    if (coarse != nullptr && !coarse->OccupiedAtWorld(p)) {
      ++skips;
      continue;
    }
    ++steps;
    const FieldSample s = source.Sample(p, counters);
    const float sigma = s.density > 0.0f ? s.density : 0.0f;
    const float alpha = 1.0f - std::exp(-sigma * opt.step_size);
    if (alpha <= opt.alpha_threshold) continue;
    ++evals;
    const auto in = AssembleMlpInput(s.features, view);
    const Vec3f rgb = opt.fp16_mlp ? mlp.ForwardFp16(in) : mlp.Forward(in);
    color += rgb * (transmittance * alpha);
    transmittance *= 1.0f - alpha;
    if (transmittance < opt.termination_transmittance) {
      terminated = true;
      break;
    }
  }

  color += opt.background * transmittance;
  if (stats) {
    stats->steps += steps;
    stats->coarse_skips += skips;
    stats->mlp_evals += evals;
    if (terminated) ++stats->terminated_rays;
    stats->steps_per_ray.Add(static_cast<double>(steps));
    stats->evals_per_ray.Add(static_cast<double>(evals));
  }
  return color;
}

/// Renders `job` one ray at a time, testing `coarse` at every sample
/// (job.options.octree_skip is ignored). Pixels walk row-major tiles of
/// `tile_size`, row-major inside each tile, and the per-tile stat shards
/// merge in tile order — the engine's decomposition — so the Welford
/// moments are comparable exactly, not just to rounding.
inline RenderResult ReferenceRender(const RenderJob& job,
                                    const CoarseOccupancy* coarse,
                                    int tile_size = 32) {
  const Camera& cam = job.camera;
  RenderResult result;
  result.image = Image(cam.Width(), cam.Height());
  for (int y0 = 0; y0 < cam.Height(); y0 += tile_size) {
    for (int x0 = 0; x0 < cam.Width(); x0 += tile_size) {
      RenderStats stats;
      DecodeCounters counters;
      for (int y = y0; y < std::min(y0 + tile_size, cam.Height()); ++y) {
        for (int x = x0; x < std::min(x0 + tile_size, cam.Width()); ++x) {
          result.image.At(x, y) =
              ReferenceRay(job.options, coarse, *job.source, *job.mlp,
                           cam.PixelRay(x, y), &stats, &counters);
        }
      }
      if (job.collect_stats) {
        result.stats.Merge(stats);
        result.counters.Merge(counters);
      }
    }
  }
  return result;
}

}  // namespace spnerf::test
