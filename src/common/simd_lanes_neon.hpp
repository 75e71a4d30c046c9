// AArch64 NEON instance of the lane-ops concept (4 lanes). Advanced SIMD
// is architectural baseline on ARMv8-A, so no extra compile flags are
// needed; the TU still builds with -ffp-contract=off (project-wide for
// spnerf_core) so an intrinsic mul feeding an intrinsic add is never fused.
//
// NEON has no gather instruction: GatherMasked is per-lane scalar loads,
// which keeps the op's semantics (masked lanes read nothing) at the cost
// of serialising the loads — still a win because the surrounding weight
// arithmetic and accumulation chains run 4 lanes wide.
#pragma once

#if defined(__aarch64__)

#include <arm_neon.h>

#include "common/types.hpp"

namespace spnerf::simd {

struct LanesNeon {
  static constexpr int kWidth = 4;
  using F32 = float32x4_t;
  using I32 = int32x4_t;

  static F32 Zero() { return vdupq_n_f32(0.0f); }
  static F32 Set1(float v) { return vdupq_n_f32(v); }
  static F32 Load(const float* p) { return vld1q_f32(p); }
  static void Store(float* p, F32 v) { vst1q_f32(p, v); }
  static F32 LoadU(const float* p) { return vld1q_f32(p); }
  static void StoreU(float* p, F32 v) { vst1q_f32(p, v); }

  static F32 Add(F32 a, F32 b) { return vaddq_f32(a, b); }
  static F32 Sub(F32 a, F32 b) { return vsubq_f32(a, b); }
  static F32 Mul(F32 a, F32 b) { return vmulq_f32(a, b); }

  static F32 CmpEq(F32 a, F32 b) {
    return vreinterpretq_f32_u32(vceqq_f32(a, b));
  }
  static F32 CmpGt(F32 a, F32 b) {
    return vreinterpretq_f32_u32(vcgtq_f32(a, b));
  }
  static F32 Select(F32 mask, F32 a, F32 b) {
    return vbslq_f32(vreinterpretq_u32_f32(mask), a, b);
  }
  static F32 And(F32 a, F32 b) {
    return vreinterpretq_f32_u32(
        vandq_u32(vreinterpretq_u32_f32(a), vreinterpretq_u32_f32(b)));
  }
  static F32 AndNot(F32 mask, F32 v) {
    return vreinterpretq_f32_u32(
        vbicq_u32(vreinterpretq_u32_f32(v), vreinterpretq_u32_f32(mask)));
  }
  static unsigned MoveMask(F32 mask) {
    const uint32x4_t sign = vshrq_n_u32(vreinterpretq_u32_f32(mask), 31);
    const int32x4_t shift = {0, 1, 2, 3};
    return vaddvq_u32(vshlq_u32(sign, shift));
  }

  static I32 LoadI(const i32* p) { return vld1q_s32(p); }
  static F32 GatherMasked(const float* base, I32 idx, F32 mask) {
    const uint32x4_t m = vreinterpretq_u32_f32(mask);
    alignas(16) i32 ix[4];
    alignas(16) u32 mm[4];
    vst1q_s32(ix, idx);
    vst1q_u32(mm, m);
    alignas(16) float out[4];
    for (int lane = 0; lane < 4; ++lane) {
      out[lane] = mm[lane] ? base[ix[lane]] : 0.0f;
    }
    return vld1q_f32(out);
  }

  /// binary16 lane IO; AArch64 half<->float converts are IEEE RNE under the
  /// default FPCR, matching the software Half conversions on finite values.
  static F32 FromHalf(const u16* p) {
    return vcvt_f32_f16(vreinterpret_f16_u16(vld1_u16(p)));
  }
  static void ToHalf(u16* p, F32 v) {
    vst1_u16(p, vreinterpret_u16_f16(vcvt_f16_f32(v)));
  }
  static F32 RoundHalfValues(F32 v) {
    return vcvt_f32_f16(vcvt_f16_f32(v));
  }

  /// float(double(a)*double(b) + double(c)) per lane; see the AVX2 twin for
  /// why this reproduces Half::Fma's pre-round chain exactly.
  static F32 DoubleMulAdd(F32 a, F32 b, F32 c) {
    const float64x2_t alo = vcvt_f64_f32(vget_low_f32(a));
    const float64x2_t ahi = vcvt_high_f64_f32(a);
    const float64x2_t blo = vcvt_f64_f32(vget_low_f32(b));
    const float64x2_t bhi = vcvt_high_f64_f32(b);
    const float64x2_t clo = vcvt_f64_f32(vget_low_f32(c));
    const float64x2_t chi = vcvt_high_f64_f32(c);
    const float32x2_t rlo = vcvt_f32_f64(vaddq_f64(vmulq_f64(alo, blo), clo));
    const float32x2_t rhi = vcvt_f32_f64(vaddq_f64(vmulq_f64(ahi, bhi), chi));
    return vcombine_f32(rlo, rhi);
  }
};

}  // namespace spnerf::simd

#endif  // __aarch64__
