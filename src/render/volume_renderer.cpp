#include "render/volume_renderer.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <limits>
#include <string>

#include "common/aligned.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "render/embedding.hpp"
#include "render/render_engine.hpp"

namespace spnerf {

namespace {

/// Pre-resolved metric handles for the skip instrumentation (handle lookup
/// takes the registry mutex; resolving once keeps the march wait-free).
struct SkipObsHandles {
  std::array<obs::Counter*, render_detail::SkipTally::kMaxLevels> level{};
  obs::Counter* outside = nullptr;
  obs::Histogram* samples_per_ray = nullptr;

  SkipObsHandles() {
    auto& reg = obs::MetricsRegistry::Global();
    for (std::size_t l = 0; l < level.size(); ++l) {
      level[l] = &reg.GetCounter("render/skip-l" + std::to_string(l));
    }
    outside = &reg.GetCounter("render/skip-outside");
    samples_per_ray = &reg.GetHistogram("render/skipped-samples-per-ray");
  }
};

SkipObsHandles& SkipObs() {
  static SkipObsHandles handles;
  return handles;
}

/// Adds one tile's skip tally to the registry.
void FlushSkipTally(const render_detail::SkipTally& tally) {
  SkipObsHandles& h = SkipObs();
  for (std::size_t l = 0; l < tally.level.size(); ++l) {
    if (tally.level[l] != 0) h.level[l]->Add(tally.level[l]);
  }
  if (tally.outside != 0) h.outside->Add(tally.outside);
}

/// Distance along `ray` at which it leaves the box of the leaf-cell range
/// [lo, hi) of `node`. Only an estimate, which AdvanceToOccupied checks, so
/// axes the ray runs parallel to are left out.
float NodeExitT(const Ray& ray, const OctreeRayCache& node,
                const GridDims& dims) {
  float exit_t = std::numeric_limits<float>::infinity();
  for (int axis = 0; axis < 3; ++axis) {
    const float d = ray.direction[axis];
    if (d == 0.f) continue;
    const int n = axis == 0 ? dims.nx : axis == 1 ? dims.ny : dims.nz;
    const int face = d > 0.f ? node.hi[axis] : node.lo[axis];
    const float boundary = static_cast<float>(face) / static_cast<float>(n);
    exit_t = std::min(exit_t, (boundary - ray.origin[axis]) / d);
  }
  return exit_t;
}

/// Per-ray march state of the wavefront tile marcher. The sample/shade
/// buffers of the front are SoA (see WavefrontScratch); this is the per-ray
/// bookkeeping that survives between wavefront iterations.
struct WavefrontRay {
  render_detail::RayMarch march;
  ViewEmbedding view{};
  Vec3f color{0.f, 0.f, 0.f};
  float transmittance = 1.0f;
  u64 steps = 0;
  u64 evals = 0;
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

namespace render_detail {

bool AdvanceToOccupied(const OccupancyOctree* tree, float step,
                       RayMarch& march, SkipTally* tally) {
  for (;;) {
    const float t = march.SampleT(march.k, step);
    if (!(t < march.t_far)) return false;
    if (tree == nullptr) return true;
    const Vec3f p = march.ray.At(t);
    // OccupiedAtWorld's out-of-box rule, inlined: outside points are
    // unoccupied.
    if (p.x < 0.f || p.x > 1.f || p.y < 0.f || p.y > 1.f || p.z < 0.f ||
        p.z > 1.f) {
      if (tally != nullptr) ++tally->outside;
      ++march.k;
      ++march.skips;
      continue;
    }
    if (tree->OccupiedAt(tree->LeafCellOfWorld(p), march.node)) return true;
    if (tally != nullptr) {
      ++tally->level[static_cast<std::size_t>(
          std::min(march.node.level, SkipTally::kMaxLevels - 1))];
    }
    // Jump the cached empty node: pass over every index up to `last`, the
    // last one before the ray leaves the node (or the box), then test the
    // next. Along each axis the leaf cell of sample j is monotone in j
    // (every float step from j to the cell index rounds monotonically), so
    // the samples in the node form one run of indices from k: when sample
    // `last` is in the node, so is every sample before it, each one empty
    // or outside the box, and none is one the per-sample test takes. The
    // exit is a float estimate, so `last` is checked, and halved towards k
    // until the check holds (float rounding at a face, grazing rays).
    const auto in_node = [&](u32 j) {
      const float tj = march.SampleT(j, step);
      return tj < march.t_far &&
             march.node.Covers(tree->LeafCellOfWorld(march.ray.At(tj)));
    };
    const float span =
        (std::min(NodeExitT(march.ray, march.node, tree->LeafDims()),
                  march.t_far) -
         t) /
        step;
    u32 last = march.k;
    if (span > 1.f) {
      // The cap only keeps the cast defined for near-degenerate rays.
      last += static_cast<u32>(std::ceil(std::min(span, 1e9f))) - 1;
    }
    while (last > march.k && !in_node(last)) {
      last = march.k + (last - march.k) / 2;
    }
    march.skips += last + 1 - march.k;
    march.k = last + 1;
  }
}

}  // namespace render_detail

void VolumeRenderer::RenderTile(const FieldSource& source, const Mlp& mlp,
                                const Camera& camera, int x0, int y0, int x1,
                                int y1, Image& out, RenderStats* stats,
                                DecodeCounters* counters) const {
  thread_local WavefrontScratch s;
  const Aabb scene_box{{0.f, 0.f, 0.f}, {1.f, 1.f, 1.f}};
  const int width = x1 - x0;
  const bool count_obs = obs::CountersEnabled();
  render_detail::SkipTally tally;
  render_detail::SkipTally* tally_ptr =
      (count_obs && options_.octree_skip != nullptr) ? &tally : nullptr;

  // Ray setup, row-major over the tile (every per-ray quantity below
  // reduces in this order).
  s.rays.clear();
  s.active.clear();
  for (int y = y0; y < y1; ++y) {
    for (int x = x0; x < x1; ++x) {
      WavefrontRay r;
      r.march.ray = camera.PixelRay(x, y);
      if (!IntersectAabb(r.march.ray, scene_box, r.march.t_near,
                         r.march.t_far)) {
        r.missed = true;
      } else {
        r.view = EmbedViewDirection(r.march.ray.direction);
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
      if (!render_detail::AdvanceToOccupied(options_.octree_skip,
                                            options_.step_size, r.march,
                                            tally_ptr)) {
        continue;  // marched out of the box: ray retires
      }
      ++r.steps;
      s.positions.push_back(
          r.march.ray.At(r.march.SampleT(r.march.k, options_.step_size)));
      s.front_ray.push_back(idx);
      ++r.march.k;
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
      if (count_obs) SkipObs().samples_per_ray->Record(r.march.skips);
      if (stats) {
        ++stats->rays;
        stats->steps += r.steps;
        stats->mlp_evals += r.evals;
        stats->coarse_skips += r.march.skips;
        if (r.terminated) ++stats->terminated_rays;
        stats->steps_per_ray.Add(static_cast<double>(r.steps));
        stats->evals_per_ray.Add(static_cast<double>(r.evals));
      }
    }
  }
  if (tally_ptr != nullptr) FlushSkipTally(tally);
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
