/// \file eq4_simd.cpp
/// AVX2+FMA bodies of the exact vector kernels (see eq4_simd.hpp for the
/// bit-identity contract). This file is compiled with
/// -mavx2 -mfma -ffp-contract=off (CMake per-source options) on x86-64
/// GCC/Clang builds and defines COREDIS_EQ4_AVX2 there; elsewhere the
/// Eq. 4 entry point compiles to the scalar expression, which the
/// process self-check then validates like any other path, and the
/// EndLocal kernels are never called (eq4_simd_active() is false).

#include "core/detail/eq4_simd.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdlib>

#include "util/contracts.hpp"

#if defined(COREDIS_EQ4_AVX2)
#include <immintrin.h>
#endif

namespace coredis::core::detail {

bool eq4_simd_compiled() noexcept {
#if defined(COREDIS_EQ4_AVX2)
  return true;
#else
  return false;
#endif
}

bool eq4_simd_cpu_supported() noexcept {
#if defined(COREDIS_EQ4_AVX2)
  return __builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma");
#else
  return false;
#endif
}

namespace {

/// Scalar Eq. 4 body over the lane arrays — the raw_kernel expression
/// term for term (this TU is built with -ffp-contract=off, so the bits
/// match the baseline build, which has no FMA to contract into). Used
/// for residual vector tails and as the whole body on non-AVX2 builds.
inline double eq4_scalar(const Eq4Lanes& lanes, double alpha,
                         std::size_t k) {
  const double work = alpha * lanes.t_ij[k];
  const double period_work = lanes.tau[k] - lanes.cost[k];  // tau - C
  const double n_ff = std::floor(work / period_work);        // Eq. 2
  const double tau_last = work - n_ff * period_work;         // Eq. 3
  COREDIS_ASSERT(tau_last >= -1e-9);
  return lanes.factor[k] *
         (n_ff * lanes.expm1_tau[k] +
          std::expm1(lanes.lambda_j[k] * std::max(tau_last, 0.0)));  // Eq. 4
}

#if defined(COREDIS_EQ4_AVX2)

// fdlibm expm1 rational-approximation constants, shared by every glibc
// build of the k == 0 branch.
constexpr double kQ1 = -3.33333333333331316428e-02;
constexpr double kQ2 = 1.58730158725481460165e-03;
constexpr double kQ3 = -7.93650757867487942473e-05;
constexpr double kQ4 = 4.00821782732936239552e-06;
constexpr double kQ5 = -2.01099218183624371326e-07;

/// 4-wide expm1. In-domain lanes (glibc's k == 0 branch: high-word
/// absolute value in [0x3c900000, 0x3fd62e42], i.e. 2^-54 <= |x| below
/// 0.5 ln 2) evaluate the exact Estrin/FMA operation sequence of glibc's
/// FMA-multiarch __expm1: every fused step below mirrors one vfmadd in
/// that routine, so the lane result carries the same bits. Any other
/// lane — zero, denormal, >= 0.5 ln 2, non-finite — calls std::expm1
/// itself. The process self-check retires this whole path if the local
/// libm disagrees (a non-FMA multiarch resolution, a different glibc).
inline __m256d expm1_4(__m256d x) {
  const __m256i bits = _mm256_castpd_si256(x);
  const __m256i hx = _mm256_and_si256(_mm256_srli_epi64(bits, 32),
                                      _mm256_set1_epi64x(0x7fffffff));
  const __m256i below = _mm256_cmpgt_epi64(_mm256_set1_epi64x(0x3c900000), hx);
  const __m256i above = _mm256_cmpgt_epi64(hx, _mm256_set1_epi64x(0x3fd62e42));
  const int out_mask =
      _mm256_movemask_pd(_mm256_castsi256_pd(_mm256_or_si256(below, above)));

  const __m256d half = _mm256_set1_pd(0.5);
  const __m256d hfx = _mm256_mul_pd(half, x);
  const __m256d hxs = _mm256_mul_pd(x, hfx);
  const __m256d u = _mm256_mul_pd(hxs, hxs);
  const __m256d w = _mm256_mul_pd(u, u);
  const __m256d r1 = _mm256_fmadd_pd(
      w, _mm256_fmadd_pd(hxs, _mm256_set1_pd(kQ5), _mm256_set1_pd(kQ4)),
      _mm256_fmadd_pd(
          u, _mm256_fmadd_pd(hxs, _mm256_set1_pd(kQ3), _mm256_set1_pd(kQ2)),
          _mm256_fmadd_pd(hxs, _mm256_set1_pd(kQ1), _mm256_set1_pd(1.0))));
  const __m256d t = _mm256_fnmadd_pd(hfx, r1, _mm256_set1_pd(3.0));
  const __m256d num = _mm256_sub_pd(r1, t);
  const __m256d den = _mm256_fnmadd_pd(x, t, _mm256_set1_pd(6.0));
  const __m256d e = _mm256_mul_pd(hxs, _mm256_div_pd(num, den));
  __m256d result = _mm256_sub_pd(x, _mm256_fmsub_pd(e, x, hxs));

  if (out_mask != 0) [[unlikely]] {
    alignas(32) double xs[4];
    alignas(32) double rs[4];
    _mm256_store_pd(xs, x);
    _mm256_store_pd(rs, result);
    for (int lane = 0; lane < 4; ++lane)
      if (out_mask & (1 << lane)) rs[lane] = std::expm1(xs[lane]);
    result = _mm256_load_pd(rs);
  }
  return result;
}

/// 4-wide Eq. 4 body. The outer arithmetic uses *separate*
/// multiply/add/subtract intrinsics — no FMA — because the scalar
/// raw_kernel build has none to fuse; only the replicated libm
/// polynomial above carries FMAs.
void eq4_avx2(const Eq4Lanes& lanes, double alpha, std::size_t count,
              double* out) {
  const __m256d zero = _mm256_setzero_pd();
  const __m256d va = _mm256_set1_pd(alpha);
  std::size_t k = 0;
  for (; k + 4 <= count; k += 4) {
    const __m256d t_ij = _mm256_loadu_pd(lanes.t_ij + k);
    // tau - C, the fill's own subtraction.
    const __m256d tmc = _mm256_sub_pd(_mm256_loadu_pd(lanes.tau + k),
                                      _mm256_loadu_pd(lanes.cost + k));
    const __m256d work = _mm256_mul_pd(va, t_ij);
    const __m256d n_ff = _mm256_floor_pd(_mm256_div_pd(work, tmc));
    const __m256d tau_last = _mm256_sub_pd(work, _mm256_mul_pd(n_ff, tmc));
    COREDIS_ASSERT(_mm256_movemask_pd(_mm256_cmp_pd(
                       tau_last, _mm256_set1_pd(-1e-9), _CMP_LT_OQ)) == 0);
    // std::max(tau_last, 0.0) replicated branch for branch:
    // tau_last < 0 ? 0 : tau_last (keeps -0.0, unlike vmaxpd).
    const __m256d clamped = _mm256_blendv_pd(
        tau_last, zero, _mm256_cmp_pd(tau_last, zero, _CMP_LT_OQ));
    const __m256d em =
        expm1_4(_mm256_mul_pd(_mm256_loadu_pd(lanes.lambda_j + k), clamped));
    const __m256d res = _mm256_mul_pd(
        _mm256_loadu_pd(lanes.factor + k),
        _mm256_add_pd(_mm256_mul_pd(n_ff, _mm256_loadu_pd(lanes.expm1_tau + k)),
                      em));
    _mm256_storeu_pd(out + k, res);
  }
  for (; k < count; ++k) out[k] = eq4_scalar(lanes, alpha, k);
}

/// 4-wide scan_targets body: the scalar loop's operations, lane by lane.
/// Eq. 9's rounds max(min(from, j), j - from) are exact small integers,
/// and 1 / j and C_i / j are correctly rounded divides.
template <Stop kStop>
std::size_t scan_targets_avx2(const TargetPass& p, std::size_t count) {
  const __m256d t = _mm256_set1_pd(p.t);
  const __m256d m_over = _mm256_set1_pd(p.m_over_from);
  const __m256d tU = _mm256_set1_pd(p.tU);
  const __m256d seq = _mm256_set1_pd(p.seq_ckpt);
  const __m256d from = _mm256_set1_pd(static_cast<double>(p.from));
  const __m256d one = _mm256_set1_pd(1.0);
  const auto first = static_cast<double>(p.first);
  __m256d j = _mm256_setr_pd(first, first + 2.0, first + 4.0, first + 6.0);
  for (std::size_t k = 0; k < count; k += 4) {
    __m256d rc = _mm256_setzero_pd();
    if (!p.zero_rc) {
      const __m256d rounds = _mm256_max_pd(from, _mm256_sub_pd(j, from));
      rc = _mm256_mul_pd(_mm256_mul_pd(rounds, _mm256_div_pd(one, j)),
                         m_over);
    }
    const __m256d x = _mm256_add_pd(
        _mm256_add_pd(_mm256_add_pd(t, rc), _mm256_div_pd(seq, j)),
        _mm256_loadu_pd(p.col + k));
    __m256d stops;
    if constexpr (kStop == Stop::Below)
      stops = _mm256_cmp_pd(x, tU, _CMP_LT_OQ);
    else
      stops = _mm256_cmp_pd(x, tU, _CMP_NGE_UQ);
    if (const int mask = _mm256_movemask_pd(stops); mask != 0)
      return k + static_cast<std::size_t>(
                     __builtin_ctz(static_cast<unsigned>(mask)));
    j = _mm256_add_pd(j, _mm256_set1_pd(8.0));
  }
  return count;
}

#endif  // COREDIS_EQ4_AVX2

}  // namespace

void eq4_probe_row(const Eq4Lanes& lanes, double alpha, std::size_t count,
                   double* out) {
#if defined(COREDIS_EQ4_AVX2)
  eq4_avx2(lanes, alpha, count, out);
#else
  for (std::size_t k = 0; k < count; ++k) out[k] = eq4_scalar(lanes, alpha, k);
#endif
}

std::size_t scan_targets_row(const TargetPass& pass, std::size_t count) {
  COREDIS_EXPECTS(count % 4 == 0 && count > 0 && pass.first > pass.from);
#if defined(COREDIS_EQ4_AVX2)
  return pass.stop == Stop::Below
             ? scan_targets_avx2<Stop::Below>(pass, count)
             : scan_targets_avx2<Stop::NotAtLeast>(pass, count);
#else
  (void)pass;
  (void)count;
  std::abort();  // unreachable: eq4_simd_active() is false on this build
#endif
}

}  // namespace coredis::core::detail
