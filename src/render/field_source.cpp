#include "render/field_source.hpp"

#include <algorithm>
#include <climits>
#include <cmath>
#include <limits>
#include <utility>

#include "common/aligned.hpp"
#include "common/error.hpp"
#include "common/half.hpp"
#include "render/wavefront_kernels.hpp"

namespace spnerf {

namespace {

/// Open-addressing map from flattened vertex index to decoded-table slot,
/// the dedup table of SpNeRFFieldSource::SampleBatch. Power-of-two capacity
/// sized from the references of one front (not the grid), linear probing,
/// and an epoch stamp per entry so that Reset() never sweeps the table.
class VertexSlotTable {
 public:
  /// Prepares the table for at most `keys` distinct keys (load <= 1/2).
  void Reset(std::size_t keys) {
    int bits = 4;
    while ((std::size_t{1} << bits) < 2 * keys) ++bits;
    if ((std::size_t{1} << bits) > entries_.size()) {
      entries_.assign(std::size_t{1} << bits, Entry{});
      epoch_ = 0;
    }
    shift_ = 64 - bits;
    mask_ = (std::size_t{1} << bits) - 1;
    if (++epoch_ == 0) {  // stamp wrapped: stale entries could alias it
      std::fill(entries_.begin(), entries_.end(), Entry{});
      epoch_ = 1;
    }
  }

  /// The slot of `key`, inserting it with `fresh_slot` when absent; the
  /// flag is true on insertion.
  std::pair<u32, bool> FindOrInsert(VoxelIndex key, u32 fresh_slot) {
    // Fibonacci hashing: the top bits of key * 2^64/phi spread the
    // z-fastest flattened indices of a front evenly.
    std::size_t h = static_cast<std::size_t>(
        (key * 0x9E3779B97F4A7C15ull) >> shift_);
    for (;; h = (h + 1) & mask_) {
      Entry& e = entries_[h];
      if (e.epoch != epoch_) {
        e = {key, fresh_slot, epoch_};
        return {fresh_slot, true};
      }
      if (e.key == key) return {e.slot, false};
    }
  }

 private:
  struct Entry {
    VoxelIndex key = 0;
    u32 slot = 0;
    u32 epoch = 0;  // 0 never matches a live epoch
  };
  std::vector<Entry> entries_;
  std::size_t mask_ = 0;
  int shift_ = 64;
  u32 epoch_ = 0;
};

}  // namespace

void FieldSource::SampleBatch(std::span<const Vec3f> positions,
                              std::span<FieldSample> out,
                              DecodeCounters* counters) const {
  SPNERF_CHECK_MSG(out.size() == positions.size(),
                   "SampleBatch span sizes must match");
  for (std::size_t i = 0; i < positions.size(); ++i) {
    out[i] = Sample(positions[i], counters);
  }
}

FieldSample AnalyticFieldSource::Sample(Vec3f world) const {
  FieldSample s;
  s.density = scene_->Density(world);
  if (s.density > 0.0f) s.features = scene_->ColorFeature(world);
  return s;
}

void AnalyticFieldSource::SampleBatch(std::span<const Vec3f> positions,
                                      std::span<FieldSample> out,
                                      DecodeCounters* counters) const {
  SPNERF_CHECK_MSG(out.size() == positions.size(),
                   "SampleBatch span sizes must match");
  (void)counters;  // no decode stage
  for (std::size_t i = 0; i < positions.size(); ++i) {
    FieldSample s;
    s.density = scene_->Density(positions[i]);
    if (s.density > 0.0f) s.features = scene_->ColorFeature(positions[i]);
    out[i] = s;
  }
}

FieldSample GridFieldSource::Sample(Vec3f world) const {
  FieldSample out;
  Vec3i base;
  Vec3f frac;
  if (!detail::SetupTrilinear(grid_->Dims(), world, base, frac)) return out;

  for (int corner = 0; corner < 8; ++corner) {
    const Vec3i v{base.x + (corner & 1), base.y + ((corner >> 1) & 1),
                  base.z + ((corner >> 2) & 1)};
    // Eq. (2): w = (1-|xp-xg|)(1-|yp-yg|)(1-|zp-zg|) in grid units.
    const float wx = (corner & 1) ? frac.x : 1.0f - frac.x;
    const float wy = ((corner >> 1) & 1) ? frac.y : 1.0f - frac.y;
    const float wz = ((corner >> 2) & 1) ? frac.z : 1.0f - frac.z;
    const float w = wx * wy * wz;
    if (w == 0.0f) continue;
    const VoxelIndex idx = grid_->Dims().Flatten(v);
    out.density += w * grid_->Density(idx);
    const float* f = grid_->Features(idx);
    for (int c = 0; c < kColorFeatureDim; ++c) out.features[c] += w * f[c];
  }
  return out;
}

void GridFieldSource::SampleBatch(std::span<const Vec3f> positions,
                                  std::span<FieldSample> out,
                                  DecodeCounters* counters) const {
  SPNERF_CHECK_MSG(out.size() == positions.size(),
                   "SampleBatch span sizes must match");
  (void)counters;  // no decode stage
  struct Scratch {
    AlignedVector<Vec3i> base;
    AlignedVector<Vec3f> frac;
    AlignedVector<u8> inside;
  };
  thread_local Scratch s;
  const std::size_t n = positions.size();
  s.base.resize(n);
  s.frac.resize(n);
  s.inside.resize(n);

  const GridDims& dims = grid_->Dims();
  for (std::size_t i = 0; i < n; ++i) {
    s.inside[i] =
        detail::SetupTrilinear(dims, positions[i], s.base[i], s.frac[i]) ? 1
                                                                         : 0;
  }
  // Gather pass, vectorised across samples when a SIMD kernel is active.
  // The kernels use 32-bit gather indices, so oversized grids (flattened
  // feature index would overflow i32) take the scalar loop below instead.
  if (const wavefront::KernelTable* kt = wavefront::Active();
      kt != nullptr && kt->grid_trilinear != nullptr && n > 0 &&
      dims.VoxelCount() * kColorFeatureDim <= static_cast<u64>(INT_MAX)) {
    wavefront::GridTrilinearArgs args;
    args.base = s.base.data();
    args.frac = s.frac.data();
    args.inside = s.inside.data();
    args.density = grid_->DensityRaw().data();
    args.features = grid_->FeaturesRaw().data();
    args.ny = dims.ny;
    args.nz = dims.nz;
    args.out = out.data();
    args.n = n;
    kt->grid_trilinear(args);
    return;
  }
  // Scalar reference gather pass (also the SIMD bit-exactness oracle): the
  // scalar corner loop per sample, against precomputed bases/fractions.
  // Identical corner enumeration and accumulation order keep every sample
  // bit-identical to Sample().
  for (std::size_t i = 0; i < n; ++i) {
    FieldSample acc;
    if (s.inside[i]) {
      const Vec3i base = s.base[i];
      const Vec3f frac = s.frac[i];
      for (int corner = 0; corner < 8; ++corner) {
        const Vec3i v{base.x + (corner & 1), base.y + ((corner >> 1) & 1),
                      base.z + ((corner >> 2) & 1)};
        const float wx = (corner & 1) ? frac.x : 1.0f - frac.x;
        const float wy = ((corner >> 1) & 1) ? frac.y : 1.0f - frac.y;
        const float wz = ((corner >> 2) & 1) ? frac.z : 1.0f - frac.z;
        const float w = wx * wy * wz;
        if (w == 0.0f) continue;
        const VoxelIndex idx = dims.Flatten(v);
        acc.density += w * grid_->Density(idx);
        const float* f = grid_->Features(idx);
        for (int c = 0; c < kColorFeatureDim; ++c) acc.features[c] += w * f[c];
      }
    }
    out[i] = acc;
  }
}

FieldSample SpNeRFFieldSource::Sample(Vec3f world,
                                      DecodeCounters* counters) const {
  FieldSample out;
  Vec3i base;
  Vec3f frac;
  if (!detail::SetupTrilinear(model_->Dims(), world, base, frac)) return out;

  if (!fp16_tiu_) {
    for (int corner = 0; corner < 8; ++corner) {
      const Vec3i v{base.x + (corner & 1), base.y + ((corner >> 1) & 1),
                    base.z + ((corner >> 2) & 1)};
      const float wx = (corner & 1) ? frac.x : 1.0f - frac.x;
      const float wy = ((corner >> 1) & 1) ? frac.y : 1.0f - frac.y;
      const float wz = ((corner >> 2) & 1) ? frac.z : 1.0f - frac.z;
      const float w = wx * wy * wz;
      if (w == 0.0f) continue;
      const VoxelData d = model_->Decode(v, masking_, counters);
      out.density += w * d.density;
      for (int c = 0; c < kColorFeatureDim; ++c)
        out.features[c] += w * d.features[c];
    }
    return out;
  }

  // FP16 TIU path: weights from the GID's FP16 multipliers, accumulation via
  // FP16 FMAs (C_interp = sum_i w_i * (s * C_i), paper IV-B).
  Half density_acc(0.0f);
  Half feat_acc[kColorFeatureDim] = {};
  for (int corner = 0; corner < 8; ++corner) {
    const Vec3i v{base.x + (corner & 1), base.y + ((corner >> 1) & 1),
                  base.z + ((corner >> 2) & 1)};
    const Half wx((corner & 1) ? frac.x : 1.0f - frac.x);
    const Half wy(((corner >> 1) & 1) ? frac.y : 1.0f - frac.y);
    const Half wz(((corner >> 2) & 1) ? frac.z : 1.0f - frac.z);
    const Half w = wx * wy * wz;
    if (w.IsZero()) continue;
    const VoxelData d = model_->Decode(v, masking_, counters);
    density_acc = Half::Fma(w, Half(d.density), density_acc);
    for (int c = 0; c < kColorFeatureDim; ++c)
      feat_acc[c] = Half::Fma(w, Half(d.features[c]), feat_acc[c]);
  }
  out.density = density_acc.ToFloat();
  for (int c = 0; c < kColorFeatureDim; ++c)
    out.features[c] = feat_acc[c].ToFloat();
  return out;
}

void SpNeRFFieldSource::SampleBatch(std::span<const Vec3f> positions,
                                    std::span<FieldSample> out,
                                    DecodeCounters* counters) const {
  SPNERF_CHECK_MSG(out.size() == positions.size(),
                   "SampleBatch span sizes must match");
  SPNERF_CHECK_MSG(positions.size() <= std::numeric_limits<u32>::max() / 8,
                   "SampleBatch front too large for 32-bit references");
  constexpr u32 kNoRef = wavefront::kNoVertexRef;
  // Slot 0 of the decoded table is the shared zero vertex every zero-bit
  // corner references; unique hash-decoded vertices take slots 1..U.
  constexpr u32 kZeroSlot = 0;
  struct Scratch {
    // Per live sample (one with an occupied corner), packed in front order.
    AlignedVector<Vec3i> base;
    AlignedVector<Vec3f> frac;
    AlignedVector<u32> sample;  // index into the front
    AlignedVector<u32> refs;    // 8 per sample: decoded-table slot or kNoRef
    AlignedVector<u8> inside;   // all 1: every packed sample is live
    // Per occupied reference, then per unique vertex.
    std::vector<u32> pending;     // refs entries bound for hash decode
    VertexSlotTable vertex_slot;  // flattened index -> slot
    std::vector<Vec3i> unique;
    std::vector<u32> ref_count;  // per unique vertex: (sample, corner) refs
    AlignedVector<VoxelData> decoded;
    std::vector<DecodeClass> classes;
  };
  thread_local Scratch s;
  const std::size_t n = positions.size();
  s.base.resize(n);
  s.frac.resize(n);
  s.sample.resize(n);
  s.refs.resize(n * 8);
  s.pending.clear();
  s.unique.clear();
  s.ref_count.clear();

  const GridDims& dims = model_->Dims();
  const BitGrid& bitmap = model_->Bitmap();
  const VoxelIndex stride_y = static_cast<VoxelIndex>(dims.nz);
  const VoxelIndex stride_x = static_cast<VoxelIndex>(dims.ny) * stride_y;
  u64 zero_refs = 0;

  // Setup + classify pass: every corner the scalar path would decode
  // (non-zero Eq. (2) weight under the active arithmetic mode) is settled
  // by its occupancy bit first, as the BLU does. A zero bit retires the
  // corner to the shared zero slot; only occupied corners (all of them
  // with masking off) go on to dedup and hash decode. Samples outside the
  // volume or with every corner retired are not packed: their output is
  // FieldSample{}, the +0 the scalar corner sum gives them.
  std::size_t live = 0;
  for (std::size_t i = 0; i < n; ++i) {
    Vec3i base;
    Vec3f frac;
    if (!detail::SetupTrilinear(dims, positions[i], base, frac)) continue;
    u32* refs = &s.refs[live * 8];
    const VoxelIndex base_idx = dims.Flatten(base);
    bool occupied = false;
    for (int corner = 0; corner < 8; ++corner) {
      const float wx = (corner & 1) ? frac.x : 1.0f - frac.x;
      const float wy = ((corner >> 1) & 1) ? frac.y : 1.0f - frac.y;
      const float wz = ((corner >> 2) & 1) ? frac.z : 1.0f - frac.z;
      // Replicate the scalar skip test exactly: float product for the FP32
      // path, binary16 product for the TIU path (which may flush where the
      // float product is tiny-but-non-zero).
      const bool skip = fp16_tiu_ ? (Half(wx) * Half(wy) * Half(wz)).IsZero()
                                  : (wx * wy * wz) == 0.0f;
      if (skip) {
        refs[corner] = kNoRef;
        continue;
      }
      const VoxelIndex idx = base_idx + (corner & 1) * stride_x +
                             ((corner >> 1) & 1) * stride_y +
                             ((corner >> 2) & 1);
      if (masking_ && !bitmap.Test(idx)) {
        refs[corner] = kZeroSlot;
        ++zero_refs;
        continue;
      }
      s.pending.push_back(static_cast<u32>(live * 8) +
                          static_cast<u32>(corner));
      occupied = true;
    }
    if (!occupied) continue;  // the next live sample reuses these refs
    s.base[live] = base;
    s.frac[live] = frac;
    s.sample[live] = static_cast<u32>(i);
    ++live;
  }

  // Dedup pass: adjacent samples of a wavefront share corners, so the
  // unique-vertex list is much shorter than the occupied references.
  s.vertex_slot.Reset(s.pending.size());
  for (const u32 ref : s.pending) {
    const Vec3i base = s.base[ref / 8];
    const u32 corner = ref % 8;
    const Vec3i v{base.x + static_cast<i32>(corner & 1),
                  base.y + static_cast<i32>((corner >> 1) & 1),
                  base.z + static_cast<i32>((corner >> 2) & 1)};
    const auto [slot, fresh] = s.vertex_slot.FindOrInsert(
        dims.Flatten(v), static_cast<u32>(s.unique.size()) + 1);
    if (fresh) {
      s.unique.push_back(v);
      s.ref_count.push_back(0);
    }
    ++s.ref_count[slot - 1];
    s.refs[ref] = slot;
  }

  // Decode pass: each unique vertex runs bitmap/hash/18-bit lookup once;
  // counters replicate per reference, so totals match scalar sampling
  // exactly (integer adds commute). Zero-bit references are all
  // kBitmapZero, the class a scalar decode of them reports.
  s.decoded.resize(s.unique.size() + 1);
  s.decoded[kZeroSlot] = VoxelData{};
  s.classes.resize(s.unique.size());
  model_->DecodeBatch(s.unique, masking_,
                      std::span<VoxelData>(s.decoded).subspan(1), s.classes);
  if (counters) {
    counters->AddQueries(DecodeClass::kBitmapZero, zero_refs);
    for (std::size_t k = 0; k < s.unique.size(); ++k) {
      counters->AddQueries(s.classes[k], s.ref_count[k]);
    }
  }

  // Blend pass over the live samples into out[0, live), vectorised across
  // samples when a SIMD kernel is active (32-bit gather indices: fall back
  // to scalar if the decoded table could overflow them — practically
  // unreachable for wavefront fronts).
  if (const wavefront::KernelTable* kt = wavefront::Active();
      kt != nullptr && kt->spnerf_blend_fp32 != nullptr && live > 0 &&
      s.decoded.size() * (1 + kColorFeatureDim) <=
          static_cast<std::size_t>(INT_MAX)) {
    s.inside.assign(live, 1);
    wavefront::SpnerfBlendArgs args;
    args.frac = s.frac.data();
    args.inside = s.inside.data();
    args.refs = s.refs.data();
    args.decoded = s.decoded.data();
    args.out = out.data();
    args.n = live;
    (fp16_tiu_ ? kt->spnerf_blend_fp16 : kt->spnerf_blend_fp32)(args);
  } else {
    // Scalar reference blend (also the SIMD bit-exactness oracle): the
    // scalar corner loop per sample against the decoded table — same
    // corner order, same accumulation order, same arithmetic mode, hence
    // bit-identical blended samples.
    for (std::size_t j = 0; j < live; ++j) {
      const Vec3f frac = s.frac[j];
      const u32* refs = &s.refs[j * 8];
      FieldSample acc;
      if (!fp16_tiu_) {
        for (int corner = 0; corner < 8; ++corner) {
          if (refs[corner] == kNoRef) continue;
          const float wx = (corner & 1) ? frac.x : 1.0f - frac.x;
          const float wy = ((corner >> 1) & 1) ? frac.y : 1.0f - frac.y;
          const float wz = ((corner >> 2) & 1) ? frac.z : 1.0f - frac.z;
          const float w = wx * wy * wz;
          const VoxelData& d = s.decoded[refs[corner]];
          acc.density += w * d.density;
          for (int c = 0; c < kColorFeatureDim; ++c)
            acc.features[c] += w * d.features[c];
        }
      } else {
        Half density_acc(0.0f);
        Half feat_acc[kColorFeatureDim] = {};
        for (int corner = 0; corner < 8; ++corner) {
          if (refs[corner] == kNoRef) continue;
          const Half wx((corner & 1) ? frac.x : 1.0f - frac.x);
          const Half wy(((corner >> 1) & 1) ? frac.y : 1.0f - frac.y);
          const Half wz(((corner >> 2) & 1) ? frac.z : 1.0f - frac.z);
          const Half w = wx * wy * wz;
          const VoxelData& d = s.decoded[refs[corner]];
          density_acc = Half::Fma(w, Half(d.density), density_acc);
          for (int c = 0; c < kColorFeatureDim; ++c)
            feat_acc[c] = Half::Fma(w, Half(d.features[c]), feat_acc[c]);
        }
        acc.density = density_acc.ToFloat();
        for (int c = 0; c < kColorFeatureDim; ++c)
          acc.features[c] = feat_acc[c].ToFloat();
      }
      out[j] = acc;
    }
  }
  // Scatter the packed samples to their front positions, last first:
  // sample[j] >= j, so no packed sample is overwritten before it moves.
  for (std::size_t i = n, j = live; i-- > 0;) {
    out[i] = (j > 0 && s.sample[j - 1] == i) ? out[--j] : FieldSample{};
  }
}

}  // namespace spnerf
