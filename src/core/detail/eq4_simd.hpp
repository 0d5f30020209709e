#pragma once

/// \file eq4_simd.hpp
/// Vector-lane kernels of the coefficient row and of EndLocal's target
/// scans (DESIGN.md section 6.6). Internal to core: core/*.cpp and
/// white-box tests call the kernels, and core/expected_time.hpp borrows
/// the Eq4Lanes view for its rows.
///
/// Every exported kernel is *exact*: for every input it must produce the
/// same bits as the scalar loop it replaces. The EndLocal kernel
/// (scan_targets_row) uses only correctly rounded or exact IEEE
/// operations — add, subtract, multiply, divide, compares — so it matches
/// its scalar loop in heuristics.cpp by construction, on any x86-64 with
/// AVX2, and needs no self-check (DESIGN.md section 6.6). The Eq. 4
/// kernel (eq4_probe_row) must also reproduce libm's expm1, and its
/// floating-point body is therefore pinned down twice:
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
/// Eq. 4's residual tails (count mod 4) run a scalar loop in this same
/// translation unit, term for term the raw_kernel expression. The
/// EndLocal kernel takes whole blocks of 4 only: its scalar loop in
/// heuristics.cpp, built with the baseline flags (no FMA to contract
/// into on x86-64), runs the tails.
///
/// This header declares no inline function on purpose: the -mavx2
/// translation unit includes it, and an inline function it shared with
/// the baseline build could reach the linker as an AVX2 copy.

#include <cstddef>

namespace coredis::core::detail {

/// The six coefficient lanes of Eqs. 1-4, everything except alpha: entry
/// k of every lane describes the same (task, j). Pointers alias the
/// lanes of one ExpectedTimeModel row, in this order, so a task's even
/// row is read here in place.
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

/// Which probe ends a pass over EndLocal targets.
enum class Stop {
  Below,       ///< the first x_k < tU: a scan's improving target
  NotAtLeast,  ///< the first !(x_k >= tU): a bound pass's refusal (NaN too)
};

/// One EndLocal pass over the consecutive even targets j_k = first + 2k
/// of a task (DESIGN.md section 6.5). Each probe is
///
///   x_k = ((t + RC_k) + C_k) + col_k,
///
/// term for term as CandidateProber adds them: RC_k is Eq. 9 from
/// sigma_init = from to j_k (ProbeBase::rc), C_k = C_i / j_k with
/// ProbeBase::checkpoint's (and checkpoint::Model::cost's) correctly
/// rounded divide, and col_k a column entry (the exact Eq. 6 prefix-min)
/// or its fault-free lower bound.
struct TargetPass {
  double t;            ///< probe time
  double m_over_from;  ///< m_i / sigma_init, Eq. 9's cached factor
  double tU;           ///< the task's expected finish
  double seq_ckpt;     ///< C_i (0 in the fault-free context)
  const double* col;   ///< col_k = col[k]
  int first;           ///< j_0: even and above `from`
  int from;            ///< sigma_init
  bool zero_rc;        ///< RC_k = 0 (Theorem 2 ablation)
  Stop stop;
};

/// Vector body of scan_targets (heuristics.cpp) over entries [0, count),
/// count a multiple of 4: the scalar loop's result — the entry that
/// ended the pass, or count if none did — bit for bit. Requires
/// eq4_simd_active().
[[nodiscard]] std::size_t scan_targets_row(const TargetPass& pass,
                                           std::size_t count);

}  // namespace coredis::core::detail
