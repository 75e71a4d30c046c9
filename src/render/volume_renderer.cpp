#include "render/volume_renderer.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <string>

#include "common/aligned.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "render/embedding.hpp"
#include "render/render_engine.hpp"

namespace spnerf {

namespace render_detail {

float CellExitTDda(const Ray& ray, Vec3i cell, const GridDims& dims, float t) {
  float exit_t = std::numeric_limits<float>::max();
  for (int axis = 0; axis < 3; ++axis) {
    const float d = ray.direction[axis];
    if (std::fabs(d) < kDegenerateDirectionEpsilon) continue;
    const int n = axis == 0 ? dims.nx : axis == 1 ? dims.ny : dims.nz;
    const int c = axis == 0 ? cell.x : axis == 1 ? cell.y : cell.z;
    // The exact CellBounds expressions for the one face ahead of the ray:
    // identical operands, identical division, so the float is identical.
    const float boundary = d > 0.f
                               ? static_cast<float>(c + 1) / static_cast<float>(n)
                               : static_cast<float>(c) / static_cast<float>(n);
    const float tx = (boundary - ray.origin[axis]) / d;
    if (tx > t && tx < exit_t) exit_t = tx;
  }
  if (exit_t == std::numeric_limits<float>::max()) {
    return std::nextafter(t, std::numeric_limits<float>::infinity());
  }
  return exit_t;
}

}  // namespace render_detail

namespace {

/// Pre-resolved metric handles for the skip instrumentation (handle lookup
/// takes the registry mutex; resolving once keeps the march wait-free).
/// Octrees deeper than kMaxLevels fold into the last bucket — 12 levels
/// already covers a 2048^3 coarse grid.
struct SkipObsHandles {
  static constexpr int kMaxLevels = 12;
  std::array<obs::Counter*, kMaxLevels> level{};
  obs::Counter* outside = nullptr;
  obs::Histogram* cells_per_ray = nullptr;

  SkipObsHandles() {
    auto& reg = obs::MetricsRegistry::Global();
    for (int l = 0; l < kMaxLevels; ++l) {
      level[static_cast<std::size_t>(l)] =
          &reg.GetCounter("render/skip-l" + std::to_string(l));
    }
    outside = &reg.GetCounter("render/skip-outside");
    cells_per_ray = &reg.GetHistogram("render/skipped-cells-per-ray");
  }
};

SkipObsHandles& SkipObs() {
  static SkipObsHandles handles;
  return handles;
}

/// Local accumulator for the per-level skip counters; flushed to the
/// registry once per tile.
struct SkipShard {
  std::array<u32, SkipObsHandles::kMaxLevels> level{};
  u32 outside = 0;

  void Flush() const {
    SkipObsHandles& h = SkipObs();
    for (std::size_t l = 0; l < level.size(); ++l) {
      if (level[l] != 0) h.level[l]->Add(level[l]);
    }
    if (outside != 0) h.outside->Add(outside);
  }
};

/// CellExitTDda with the boundary divisions replaced by the octree's
/// precomputed plane tables (table[i] is bitwise float(i)/float(n)): an
/// empty iteration pays 3 divisions where an Aabb exit pays 9. Only the
/// boundary operand's provenance changes, never its value.
float CellExitTCached(const Ray& ray, Vec3i cell, const float* bx,
                      const float* by, const float* bz, float t) {
  float exit_t = std::numeric_limits<float>::max();
  for (int axis = 0; axis < 3; ++axis) {
    const float d = ray.direction[axis];
    if (std::fabs(d) < render_detail::kDegenerateDirectionEpsilon) continue;
    const float* table = axis == 0 ? bx : axis == 1 ? by : bz;
    const int c = axis == 0 ? cell.x : axis == 1 ? cell.y : cell.z;
    const float boundary = table[c + (d > 0.f ? 1 : 0)];
    const float tx = (boundary - ray.origin[axis]) / d;
    if (tx > t && tx < exit_t) exit_t = tx;
  }
  if (exit_t == std::numeric_limits<float>::max()) {
    return std::nextafter(t, std::numeric_limits<float>::infinity());
  }
  return exit_t;
}

/// Empty-space skipping: moves `t` forward to the ray's next occupied
/// sample position (returns true) or past `t_far` (returns false),
/// counting skipped cells into `skips`. The leaf-level march replays the
/// flat per-cell chain `t = max(exit_t + eps, t + step)` bit for bit; the
/// octree only answers the occupancy question cheaper (a cached empty node
/// covers whole regions with six integer compares, no bitmap probe).
bool AdvanceToOccupied(const RenderOptions& opt, const Ray& ray, float t_far,
                       float& t, u64& skips, OctreeRayCache& cache,
                       SkipShard* shard) {
  if (opt.octree_skip == nullptr) return t < t_far;
  const OccupancyOctree& tree = *opt.octree_skip;
  if (opt.octree_level_cap > 0) {
    // Degraded-preview march (quality ladder): occupancy is answered `cap`
    // levels above the leaves. The capped bit ORs every descendant leaf, so
    // it is conservative — a region is only skipped when every leaf under
    // it is empty — and the march crosses empty space in capped-level cells
    // (2^cap wider per axis), so the skip loop runs far fewer iterations on
    // sparse rays. Exit distances use the division DDA on the capped grid;
    // this path trades the leaf chain's bit-identity for cost, so it never
    // engages at rung 0 (octree_level_cap stays 0 there).
    const int leaf_level = tree.Levels() - 1;
    const int cap = std::min(opt.octree_level_cap, leaf_level);
    const int level = leaf_level - cap;
    const BitGrid& bits = tree.Level(level);
    const GridDims& dims = bits.Dims();
    while (t < t_far) {
      const Vec3f p = ray.At(t);
      const bool inside = !(p.x < 0.f || p.x > 1.f || p.y < 0.f ||
                            p.y > 1.f || p.z < 0.f || p.z > 1.f);
      const Vec3i leaf = tree.LeafCellOfWorld(p);
      const Vec3i cell{leaf.x >> cap, leaf.y >> cap, leaf.z >> cap};
      if (inside && bits.Test(cell)) return true;
      if (shard != nullptr) {
        if (inside) {
          ++shard->level[static_cast<std::size_t>(
              std::min(level, SkipObsHandles::kMaxLevels - 1))];
        } else {
          ++shard->outside;
        }
      }
      const float exit_t = render_detail::CellExitTDda(ray, cell, dims, t);
      t = std::max(exit_t + render_detail::kSkipForwardEpsilon,
                   t + opt.step_size);
      ++skips;
    }
    return false;
  }
  const float* bx = tree.BoundaryX();
  const float* by = tree.BoundaryY();
  const float* bz = tree.BoundaryZ();
  while (t < t_far) {
    const Vec3f p = ray.At(t);
    // OccupiedAtWorld's out-of-box rule, inlined: outside points are
    // unoccupied but still march through their clamped boundary cell.
    const bool inside = !(p.x < 0.f || p.x > 1.f || p.y < 0.f || p.y > 1.f ||
                          p.z < 0.f || p.z > 1.f);
    const Vec3i cell = tree.LeafCellOfWorld(p);
    if (inside && tree.OccupiedAt(cell, cache)) return true;
    if (shard != nullptr) {
      if (inside) {
        ++shard->level[static_cast<std::size_t>(
            std::min(cache.level, SkipObsHandles::kMaxLevels - 1))];
      } else {
        ++shard->outside;
      }
    }
    const float exit_t = CellExitTCached(ray, cell, bx, by, bz, t);
    t = std::max(exit_t + render_detail::kSkipForwardEpsilon,
                 t + opt.step_size);
    ++skips;
  }
  return false;
}

/// Per-ray march state of the wavefront tile marcher. The sample/shade
/// buffers of the front are SoA (see WavefrontScratch); this is the per-ray
/// bookkeeping that survives between wavefront iterations.
struct WavefrontRay {
  Ray ray;
  ViewEmbedding view{};
  Vec3f color{0.f, 0.f, 0.f};
  float transmittance = 1.0f;
  float t = 0.0f;
  float t_far = 0.0f;
  u64 steps = 0;
  u64 evals = 0;
  u64 skips = 0;
  OctreeRayCache dda;  // cached empty-node range of the octree march
  bool missed = false;
  bool terminated = false;
};

/// Reusable SoA buffers of one wavefront tile; thread_local so a pool
/// worker's buffers warm up once and are reused across every tile it
/// renders, with no cross-thread sharing. 64-byte aligned (AlignedVector)
/// so the SIMD wavefront kernels can use natural aligned vector accesses
/// on every front buffer.
struct WavefrontScratch {
  std::vector<WavefrontRay> rays;      // per tile pixel, row-major
  AlignedVector<u32> active;           // ray indices still marching
  AlignedVector<u32> next_active;
  AlignedVector<Vec3f> positions;      // front: sample positions
  AlignedVector<u32> front_ray;        // front: owning ray index
  AlignedVector<FieldSample> samples;  // front: SampleBatch output
  // Shade queue: alpha survivors waiting for the MLP, in gate order.
  AlignedVector<u32> shade_ray;        // owning ray index
  AlignedVector<float> shade_weight;   // compositing weight T * alpha
  AlignedVector<std::array<float, kMlpInputDim>> mlp_in;
  AlignedVector<Vec3f> mlp_out;
};

/// Queue length at which the wavefront marcher shades: eight full 32-sample
/// MLP blocks.
constexpr std::size_t kShadeBatch = 256;

}  // namespace

void VolumeRenderer::RenderTile(const FieldSource& source, const Mlp& mlp,
                                const Camera& camera, int x0, int y0, int x1,
                                int y1, Image& out, RenderStats* stats,
                                DecodeCounters* counters) const {
  thread_local WavefrontScratch s;
  const Aabb scene_box{{0.f, 0.f, 0.f}, {1.f, 1.f, 1.f}};
  const int width = x1 - x0;
  const bool count_obs = obs::CountersEnabled();
  SkipShard skip_shard;
  SkipShard* skip_shard_ptr =
      (count_obs && options_.octree_skip != nullptr) ? &skip_shard : nullptr;

  // Ray setup, row-major over the tile (every per-ray quantity below
  // reduces in this order).
  s.rays.clear();
  s.active.clear();
  for (int y = y0; y < y1; ++y) {
    for (int x = x0; x < x1; ++x) {
      WavefrontRay r;
      r.ray = camera.PixelRay(x, y);
      float t_near = 0.f, t_far = 0.f;
      if (!IntersectAabb(r.ray, scene_box, t_near, t_far)) {
        r.missed = true;
      } else {
        r.view = EmbedViewDirection(r.ray.direction);
        r.t = t_near;
        r.t_far = t_far;
        s.active.push_back(static_cast<u32>(s.rays.size()));
      }
      s.rays.push_back(r);
    }
  }

  // Shades the queued survivors through one ForwardBatch and adds each
  // rgb * weight to its ray. The queue is in gate order, so a ray's
  // contributions land in t order: a per-ray compositing chain, deferred.
  const auto shade = [&] {
    if (count_obs) {
      static obs::Histogram& shade_batch =
          obs::MetricsRegistry::Global().GetHistogram("render/shade-batch");
      shade_batch.Record(s.mlp_in.size());
    }
    s.mlp_out.resize(s.mlp_in.size());
    if (options_.fp16_mlp) {
      mlp.ForwardFp16Batch(s.mlp_in, s.mlp_out);
    } else {
      mlp.ForwardBatch(s.mlp_in, s.mlp_out);
    }
    for (std::size_t k = 0; k < s.mlp_in.size(); ++k) {
      s.rays[s.shade_ray[k]].color += s.mlp_out[k] * s.shade_weight[k];
    }
    s.shade_ray.clear();
    s.shade_weight.clear();
    s.mlp_in.clear();
  };

  // Wavefront march: each iteration advances every active ray to its next
  // in-volume sample (empty-space skipping is per-ray control flow and
  // needs no field access), gathers the front into one SampleBatch and
  // gates it on the alpha threshold. Transmittance and termination depend
  // only on alpha, so the gate composites them at once and queues the
  // survivor's colour for shading in full blocks. A ray contributes at
  // most one sample per iteration, so its compositing chain runs in strict
  // t order with exactly a per-ray march's arithmetic.
  // (A tile that threw mid-march may have left this thread's queue full.)
  s.shade_ray.clear();
  s.shade_weight.clear();
  s.mlp_in.clear();
  while (!s.active.empty()) {
    s.positions.clear();
    s.front_ray.clear();
    for (const u32 idx : s.active) {
      WavefrontRay& r = s.rays[idx];
      // Advance to the next sample position.
      if (!AdvanceToOccupied(options_, r.ray, r.t_far, r.t, r.skips, r.dda,
                             skip_shard_ptr)) {
        continue;  // marched out of the box: ray retires
      }
      ++r.steps;
      s.positions.push_back(r.ray.At(r.t));
      s.front_ray.push_back(idx);
      r.t += options_.step_size;
    }

    // Decode + interpolate the whole front in one call.
    if (obs::CountersEnabled()) {
      static obs::Histogram& front_size =
          obs::MetricsRegistry::Global().GetHistogram("render/front-size");
      front_size.Record(s.positions.size());
    }
    s.samples.resize(s.positions.size());
    source.SampleBatch(s.positions, s.samples, counters);

    // Alpha gate: survivors take their compositing weight, update
    // transmittance and termination, and queue their MLP inputs; the rest
    // keep marching without shading.
    for (std::size_t e = 0; e < s.samples.size(); ++e) {
      const FieldSample& smp = s.samples[e];
      const float sigma = smp.density > 0.0f ? smp.density : 0.0f;
      const float alpha = 1.0f - std::exp(-sigma * options_.step_size);
      if (alpha <= options_.alpha_threshold) continue;
      WavefrontRay& r = s.rays[s.front_ray[e]];
      ++r.evals;
      s.shade_ray.push_back(s.front_ray[e]);
      s.shade_weight.push_back(r.transmittance * alpha);
      s.mlp_in.push_back(AssembleMlpInput(smp.features, r.view));
      r.transmittance *= 1.0f - alpha;
      if (r.transmittance < options_.termination_transmittance) {
        r.terminated = true;
      }
      if (s.mlp_in.size() == kShadeBatch) shade();
    }

    // Next front: rays that sampled this round and neither terminated nor
    // marched out. Front order preserves active order, so the active list
    // stays in tile row-major order (determinism is not affected either
    // way; rays are independent).
    s.next_active.clear();
    for (const u32 idx : s.front_ray) {
      if (!s.rays[idx].terminated) s.next_active.push_back(idx);
    }
    s.active.swap(s.next_active);
  }
  if (!s.mlp_in.empty()) shade();

  // Finalize in row-major order: pixels, then the per-ray stat reductions
  // in row-major Add() order (RunningStats merges are order-sensitive;
  // integer counters are not).
  for (int y = y0; y < y1; ++y) {
    for (int x = x0; x < x1; ++x) {
      const WavefrontRay& r =
          s.rays[static_cast<std::size_t>(y - y0) *
                     static_cast<std::size_t>(width) +
                 static_cast<std::size_t>(x - x0)];
      if (r.missed) {
        out.At(x, y) = options_.background;
        if (stats) {
          ++stats->rays;
          ++stats->missed_rays;
          stats->steps_per_ray.Add(0.0);
          stats->evals_per_ray.Add(0.0);
        }
        continue;
      }
      out.At(x, y) = r.color + options_.background * r.transmittance;
      if (count_obs) SkipObs().cells_per_ray->Record(r.skips);
      if (stats) {
        ++stats->rays;
        stats->steps += r.steps;
        stats->mlp_evals += r.evals;
        stats->coarse_skips += r.skips;
        if (r.terminated) ++stats->terminated_rays;
        stats->steps_per_ray.Add(static_cast<double>(r.steps));
        stats->evals_per_ray.Add(static_cast<double>(r.evals));
      }
    }
  }
  if (skip_shard_ptr != nullptr) skip_shard_ptr->Flush();
}

Image VolumeRenderer::Render(const FieldSource& source, const Mlp& mlp,
                             const Camera& camera, RenderStats* stats,
                             const RenderEngine* engine) const {
  RenderJob job;
  job.source = &source;
  job.mlp = &mlp;
  job.camera = camera;
  job.options = options_;
  job.collect_stats = stats != nullptr;
  const RenderEngine& eng = engine != nullptr ? *engine : RenderEngine::Shared();
  RenderResult result = eng.Render(job);
  if (stats) stats->Merge(result.stats);
  return std::move(result.image);
}

}  // namespace spnerf
