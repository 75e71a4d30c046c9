// Bit-exactness oracle for the production renderer, kept in test support
// because nothing ships it. It marches one ray at a time with the flat
// empty-space chain: probe the CoarseOccupancy bit at the sample point, and
// on an empty cell jump to `max(exit_t + kSkipForwardEpsilon, t + step)`
// with the exit taken from the cell's Aabb. It samples through the scalar
// FieldSource::Sample and shades through the scalar Mlp::Forward /
// ForwardFp16, so it shares none of the wavefront marcher's batching, SIMD
// kernels or octree cache. VolumeRenderer::RenderTile must match it bit for
// bit: pixels, RenderStats (including the Welford moments) and
// DecodeCounters. Written only against public APIs.
#pragma once

#include <algorithm>
#include <cmath>
#include <limits>

#include "grid/occupancy.hpp"
#include "render/embedding.hpp"
#include "render/render_engine.hpp"

namespace spnerf::test {

/// Distance along `ray` at which it exits `cell` (entered at parameter `t`).
/// Always strictly greater than `t`: a degenerate (zero-area) cell, or a ray
/// grazing a face, would otherwise return `t` unchanged and stall the march.
inline float CellExitT(const Ray& ray, const Aabb& cell, float t) {
  float exit_t = std::numeric_limits<float>::max();
  for (int axis = 0; axis < 3; ++axis) {
    const float d = ray.direction[axis];
    if (std::fabs(d) < render_detail::kDegenerateDirectionEpsilon) continue;
    const float boundary = d > 0.f ? cell.hi[axis] : cell.lo[axis];
    const float tx = (boundary - ray.origin[axis]) / d;
    if (tx > t && tx < exit_t) exit_t = tx;
  }
  if (exit_t == std::numeric_limits<float>::max()) {
    return std::nextafter(t, std::numeric_limits<float>::infinity());
  }
  return exit_t;
}

/// One step of the flat skip chain at parameter `t`. Sets `occupied` and
/// returns `t` unchanged when the coarse cell there is occupied; otherwise
/// returns the parameter just past the cell.
inline float FlatStep(const CoarseOccupancy& coarse, const Ray& ray, float t,
                      float step, bool& occupied) {
  const Vec3f p = ray.At(t);
  occupied = coarse.OccupiedAtWorld(p);
  if (occupied) return t;
  const Aabb cell = coarse.CellBounds(coarse.CellOfWorld(p));
  return std::max(CellExitT(ray, cell, t) + render_detail::kSkipForwardEpsilon,
                  t + step);
}

/// Renders one ray; `coarse` null marches every sample. Stats and counters
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
  float t = t_near;
  while (t < t_far) {
    if (coarse != nullptr) {
      bool occupied = false;
      const float next = FlatStep(*coarse, ray, t, opt.step_size, occupied);
      if (!occupied) {
        t = next;
        ++skips;
        continue;
      }
    }
    ++steps;
    const FieldSample s = source.Sample(ray.At(t), counters);
    t += opt.step_size;
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

/// Renders `job` one ray at a time with the flat chain over `coarse`
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
