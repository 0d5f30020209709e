#pragma once

/// \file eq4_simd.hpp
/// Vector-lane kernel over the coefficient lanes (DESIGN.md section 6.6).
/// Internal to core: core/*.cpp and white-box tests call the kernel, and
/// core/expected_time.hpp borrows the Eq4Lanes view for its rows.
///
/// The exported kernel is *exact*: for every input it must produce the
/// same bits as the scalar expression it replaces
/// (ExpectedTimeModel::raw_kernel). The floating-point body is therefore
/// pinned down twice:
///
///  - This translation unit is compiled with -ffp-contract=off, so the
///    compiler cannot fuse the explicit multiply/add intrinsics into
///    FMAs the scalar build never performs; every FMA in the kernel is
///    spelled out by hand, and only where the replicated libm routine
///    itself uses one.
///  - eq4_simd_active() (expected_time.cpp) runs a one-time process-wide
///    self-check of the kernel against its scalar counterpart over a
///    deterministic probe set; any mismatch — another libm, another
///    multiarch dispatch, another architecture — permanently disables
///    the vector path, and callers fall back to the scalar loops. That
///    is the exact-fallback contract: the vector path is an opt-in
///    optimization that proves itself on the running machine first.
///
/// Lane width is 4 (AVX2 + FMA, runtime-dispatched). The expm1 inside
/// Eq. 4 is vectorized only over glibc's k == 0 polynomial domain
/// (2^-54 <= |x| <= 0.5 ln 2); lanes outside it — zero, denormal, large
/// and non-finite arguments — are delegated to std::expm1 itself, so
/// extreme lambda·tau corners inherit the libm bits by construction.
/// Residual tails (count mod 4) run a scalar loop in this same
/// translation unit, term for term the raw_kernel expression.
///
/// This header declares no inline function on purpose: the -mavx2
/// translation unit includes it, and an inline function it shared with
/// the baseline build could reach the linker as an AVX2 copy.

#include <cstddef>

namespace coredis::core::detail {

/// The six coefficient lanes of Eqs. 1-4, everything except alpha: entry
/// k of every lane describes the same (task, j). Pointers alias one
/// ExpectedTimeModel row, so a task's even row is read here in place.
struct Eq4Lanes {
  const double* t_ij;       ///< fault-free time t_{i,j}
  const double* tau;        ///< checkpointing period tau_{i,j} (Eq. 1)
  const double* cost;       ///< C_{i,j}, which is also R_{i,j}
  const double* lambda_j;   ///< j * lambda
  const double* factor;     ///< e^{lambda_j R} (1/lambda_j + D)
  const double* expm1_tau;  ///< e^{lambda_j tau} - 1
};

/// True when this TU was built with the AVX2+FMA code path at all
/// (x86-64 with a compiler that honours per-file -mavx2).
[[nodiscard]] bool eq4_simd_compiled() noexcept;

/// True when the running CPU supports AVX2 and FMA. Only meaningful if
/// eq4_simd_compiled(); safe to call regardless.
[[nodiscard]] bool eq4_simd_cpu_supported() noexcept;

/// Whether the vector kernel is live in this process: compiled in,
/// CPU-supported, not disabled via COREDIS_NO_SIMD=1, and the one-time
/// bitwise self-check against the scalar path passed. Defined in
/// expected_time.cpp next to the scalar reference it checks against.
[[nodiscard]] bool eq4_simd_active();

/// Batched exact Eq. 4 at one alpha over lanes [0, count):
/// out[k] = raw_kernel(alpha, lanes, k), bit for bit. Requires
/// eq4_simd_compiled() && eq4_simd_cpu_supported(); callers gate on
/// eq4_simd_active().
void eq4_probe_row(const Eq4Lanes& lanes, double alpha, std::size_t count,
                   double* out);

}  // namespace coredis::core::detail
