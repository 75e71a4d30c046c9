// AVX2 + F16C instance of the lane-ops concept the generic wavefront
// kernels (render/wavefront_kernels_impl.inl) are written against. Only
// include from a translation unit compiled with -mavx2 -mf16c
// -ffp-contract=off; the contract-off flag is part of the correctness
// contract (an intrinsic mul feeding an intrinsic add must never be fused
// into an FMA, or lanes would diverge from the scalar reference bits).
//
// Every op is a single IEEE-754 operation per lane in the same precision
// the scalar reference uses, so a lane-major kernel built from these ops
// reproduces the scalar per-sample chain bit-for-bit.
#pragma once

#include <immintrin.h>

#include "common/types.hpp"

namespace spnerf::simd {

struct LanesAvx2 {
  static constexpr int kWidth = 8;
  using F32 = __m256;
  using I32 = __m256i;

  static F32 Zero() { return _mm256_setzero_ps(); }
  static F32 Set1(float v) { return _mm256_set1_ps(v); }
  /// Aligned load/store: the kernels only touch 64-byte-aligned scratch
  /// (AlignedVector / AlignedArena / alignas stack arrays) at lane-multiple
  /// offsets, so the aligned forms are safe and never split a cache line.
  static F32 Load(const float* p) { return _mm256_load_ps(p); }
  static void Store(float* p, F32 v) { _mm256_store_ps(p, v); }
  static F32 LoadU(const float* p) { return _mm256_loadu_ps(p); }
  static void StoreU(float* p, F32 v) { _mm256_storeu_ps(p, v); }

  static F32 Add(F32 a, F32 b) { return _mm256_add_ps(a, b); }
  static F32 Sub(F32 a, F32 b) { return _mm256_sub_ps(a, b); }
  static F32 Mul(F32 a, F32 b) { return _mm256_mul_ps(a, b); }

  /// Ordered compares producing all-ones/all-zero float masks.
  static F32 CmpEq(F32 a, F32 b) { return _mm256_cmp_ps(a, b, _CMP_EQ_OQ); }
  static F32 CmpGt(F32 a, F32 b) { return _mm256_cmp_ps(a, b, _CMP_GT_OQ); }
  /// mask ? a : b, bit-selecting whole lanes (mask lanes are all-ones/0).
  static F32 Select(F32 mask, F32 a, F32 b) {
    return _mm256_blendv_ps(b, a, mask);
  }
  static F32 And(F32 a, F32 b) { return _mm256_and_ps(a, b); }
  /// v with the lanes selected by `mask` cleared to +0.
  static F32 AndNot(F32 mask, F32 v) { return _mm256_andnot_ps(mask, v); }
  /// One bit per lane (bit l = lane l's sign bit): a compare mask's set
  /// lanes as an integer.
  static unsigned MoveMask(F32 mask) {
    return static_cast<unsigned>(_mm256_movemask_ps(mask));
  }

  static I32 LoadI(const i32* p) {
    return _mm256_load_si256(reinterpret_cast<const __m256i*>(p));
  }
  /// Gather of base[idx[lane]] where mask is set; masked-off lanes read
  /// nothing (no fault even on wild indices) and produce +0.
  static F32 GatherMasked(const float* base, I32 idx, F32 mask) {
    return _mm256_mask_i32gather_ps(_mm256_setzero_ps(), base, idx, mask, 4);
  }

  /// binary16 lane IO. Hardware F16C converts are IEEE round-to-nearest-
  /// even in both directions (and ignore MXCSR FTZ/DAZ), matching the
  /// software Half conversions bit-for-bit on all finite values and zeros.
  static F32 FromHalf(const u16* p) {
    return _mm256_cvtph_ps(_mm_load_si128(reinterpret_cast<const __m128i*>(p)));
  }
  static void ToHalf(u16* p, F32 v) {
    _mm_store_si128(reinterpret_cast<__m128i*>(p),
                    _mm256_cvtps_ph(v, _MM_FROUND_TO_NEAREST_INT |
                                           _MM_FROUND_NO_EXC));
  }
  /// Quantizes float lanes through binary16 (value of Half(x).ToFloat()).
  static F32 RoundHalfValues(F32 v) {
    return _mm256_cvtph_ps(
        _mm256_cvtps_ph(v, _MM_FROUND_TO_NEAREST_INT | _MM_FROUND_NO_EXC));
  }

  /// float(double(a)*double(b) + double(c)) per lane — the exact op chain
  /// of Half::Fma before its final round-to-half (float->double converts
  /// are exact; the double multiply, double add and double->float round
  /// each match the scalar code's single IEEE operations).
  static F32 DoubleMulAdd(F32 a, F32 b, F32 c) {
    const __m256d alo = _mm256_cvtps_pd(_mm256_castps256_ps128(a));
    const __m256d ahi = _mm256_cvtps_pd(_mm256_extractf128_ps(a, 1));
    const __m256d blo = _mm256_cvtps_pd(_mm256_castps256_ps128(b));
    const __m256d bhi = _mm256_cvtps_pd(_mm256_extractf128_ps(b, 1));
    const __m256d clo = _mm256_cvtps_pd(_mm256_castps256_ps128(c));
    const __m256d chi = _mm256_cvtps_pd(_mm256_extractf128_ps(c, 1));
    const __m128 rlo =
        _mm256_cvtpd_ps(_mm256_add_pd(_mm256_mul_pd(alo, blo), clo));
    const __m128 rhi =
        _mm256_cvtpd_ps(_mm256_add_pd(_mm256_mul_pd(ahi, bhi), chi));
    return _mm256_set_m128(rhi, rlo);
  }
};

}  // namespace spnerf::simd
