/// Bitwise-equivalence wall for the vector Eq. 4 pass (DESIGN.md
/// section 6.6): the SIMD probe_many must produce the exact bits of its
/// scalar reference, probe_many_reference, over randomized grids,
/// fault-aware and fault-free resilience, denormal/extreme lambda·tau
/// corners, and every residual vector-tail length. The same contract is
/// asserted against the detail kernel directly on hand-built lanes, and
/// for EndLocal's target scan against its scalar loop, on model rows and
/// on edge lanes.
///
/// Every test here passes on any build: when the vector path is not
/// live (non-x86-64 build, unsupported CPU, COREDIS_NO_SIMD=1, or a
/// failed process self-check) the batched entry point is the scalar
/// loop and equality is trivial. The suite prints which case it
/// exercised so a CI log shows whether the vector lanes were actually
/// under test.

#include <algorithm>
#include <cmath>
#include <cstring>
#include <gtest/gtest.h>
#include <limits>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/detail/engine_state.hpp"
#include "core/detail/eq4_simd.hpp"
#include "core/expected_time.hpp"
#include "speedup/synthetic.hpp"
#include "util/rng.hpp"
#include "util/units.hpp"

namespace coredis::core {
namespace {

Pack make_pack(std::vector<double> sizes) {
  std::vector<TaskSpec> tasks;
  for (double m : sizes) tasks.push_back({m});
  return Pack(std::move(tasks),
              std::make_shared<speedup::SyntheticModel>(0.08));
}

checkpoint::Model faulty_model(double mtbf_years = 100.0) {
  return checkpoint::Model({units::years(mtbf_years), 60.0, 1.0,
                            checkpoint::PeriodRule::Young, 0.0});
}

checkpoint::Model fault_free_model() {
  return checkpoint::Model(
      {0.0, 60.0, 1.0, checkpoint::PeriodRule::Young, 0.0});
}

bool same_bits(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0 ||
         (std::isnan(a) && std::isnan(b));
}

TEST(SimdKernel, ReportsDispatchState) {
  // Not an assertion — a breadcrumb: the rest of the suite is exact on
  // every build, and this line records which path it just proved.
  std::printf("eq4 vector path: compiled=%d cpu=%d active=%d\n",
              detail::eq4_simd_compiled() ? 1 : 0,
              detail::eq4_simd_cpu_supported() ? 1 : 0,
              detail::eq4_simd_active() ? 1 : 0);
  SUCCEED();
}

TEST(SimdKernel, ProbeManyMatchesReferenceOnRandomGrids) {
  Rng rng(0xC0FFEEULL);
  std::vector<double> sizes;
  for (int i = 0; i < 24; ++i) sizes.push_back(rng.uniform(1.0e5, 5.0e6));
  const Pack pack = make_pack(std::move(sizes));
  for (const double mtbf_years : {100.0, 5.0, 0.02}) {
    const checkpoint::Model resilience = faulty_model(mtbf_years);
    const ExpectedTimeModel model(pack, resilience);
    for (int task = 0; task < pack.size(); ++task) {
      for (const double alpha :
           {0.0, 1.0, rng.uniform01(), rng.uniform01() * 1e-9}) {
        // Every residual tail length (h_end - h_begin mod lane width)
        // at several offsets, including ranges below the vector
        // threshold and ranges straddling a cold row extension.
        for (const int h_begin : {0, 1, 3, 7}) {
          for (int len = 1; len <= 11; ++len) {
            const int h_end = h_begin + len;
            std::vector<double> got(static_cast<std::size_t>(len), -1.0);
            std::vector<double> want(static_cast<std::size_t>(len), -2.0);
            model.probe_many(task, h_begin, h_end, alpha, got.data());
            model.probe_many_reference(task, h_begin, h_end, alpha,
                                       want.data());
            for (int h = 0; h < len; ++h)
              ASSERT_TRUE(same_bits(got[static_cast<std::size_t>(h)],
                                    want[static_cast<std::size_t>(h)]))
                  << "mtbf=" << mtbf_years << " task=" << task
                  << " alpha=" << alpha << " h=" << h_begin + h << " got "
                  << got[static_cast<std::size_t>(h)] << " want "
                  << want[static_cast<std::size_t>(h)];
          }
        }
      }
    }
  }
}

TEST(SimdKernel, ProbeManyMatchesReferenceFaultFree) {
  const Pack pack = make_pack({2.0e6, 1.1e6, 4.4e6});
  const checkpoint::Model resilience = fault_free_model();
  const ExpectedTimeModel model(pack, resilience);
  for (int task = 0; task < pack.size(); ++task)
    for (const double alpha : {0.0, 0.37, 1.0})
      for (int len = 1; len <= 9; ++len) {
        std::vector<double> got(static_cast<std::size_t>(len));
        std::vector<double> want(static_cast<std::size_t>(len));
        model.probe_many(task, 0, len, alpha, got.data());
        model.probe_many_reference(task, 0, len, alpha, want.data());
        EXPECT_EQ(0, std::memcmp(got.data(), want.data(),
                                 static_cast<std::size_t>(len) *
                                     sizeof(double)));
      }
}

TEST(SimdKernel, ExtremeMtbfRegimesStayExact) {
  // Push lambda_j * tau toward both ends: near-immortal platforms drive
  // the expm1 argument under the vectorized domain's 2^-54 floor, and
  // minute-scale MTBFs push it past 0.5 ln 2 into the delegated range
  // (and factor toward overflow). The batch must track the scalar bits
  // through every regime, including non-finite results.
  const Pack pack = make_pack({3.0e6, 1.0e3, 8.0e6});
  for (const double mtbf_years : {1.0e7, 1.0e4, 100.0, 1.0, 1.0e-3,
                                  3.0e-6}) {
    const checkpoint::Model resilience = faulty_model(mtbf_years);
    const ExpectedTimeModel model(pack, resilience);
    for (int task = 0; task < pack.size(); ++task)
      for (const double alpha : {1.0, 0.5, 1e-12, 0.0}) {
        constexpr int kLen = 13;
        std::vector<double> got(kLen), want(kLen);
        model.probe_many(task, 0, kLen, alpha, got.data());
        model.probe_many_reference(task, 0, kLen, alpha, want.data());
        for (int h = 0; h < kLen; ++h)
          ASSERT_TRUE(same_bits(got[static_cast<std::size_t>(h)],
                                want[static_cast<std::size_t>(h)]))
              << "mtbf_years=" << mtbf_years << " task=" << task
              << " alpha=" << alpha << " h=" << h;
      }
  }
}

TEST(SimdKernel, DetailKernelsMatchRawKernelOnEdgeLanes) {
  // Direct contract check on the detail entry point with hand-built
  // lanes pinned to the dispatch edges of the vectorized expm1 domain:
  // 2^-54 and 0.5 ln 2 from both sides, denormals, zero, and arguments
  // large enough to overflow. With t_ij = 1 and tau - C = 3 - 1 = 2 the
  // kernel reduces to factor * expm1(lambda * alpha), so each lane's
  // lambda *is* the expm1 argument at alpha = 1.
  const double edges[] = {0.0,       5e-324,     1e-308,  0x1p-55,
                          0x1p-54,   0x1.8p-54,  1e-9,    0.1,
                          0.34657,   0.34657359, 0.3466,  1.0,
                          709.0,     710.0,      1e300,   0x1p-53};
  constexpr std::size_t kCount = std::size(edges);
  std::vector<double> t_ij(kCount, 1.0), tau(kCount, 3.0), cost(kCount, 1.0),
      lam(std::begin(edges), std::end(edges)), fac(kCount, 1.5),
      emt(kCount, 0.25);
  const detail::Eq4Lanes lanes{t_ij.data(), tau.data(), cost.data(),
                               lam.data(),  fac.data(), emt.data()};

  // Every count in [1, kCount] covers each residual tail length twice
  // over, at alpha = 1 and at the count's own alpha.
  for (std::size_t count = 1; count <= kCount; ++count) {
    std::vector<double> got(count);
    const double count_alpha =
        count % 3 == 0 ? 1.0 : 1.0 / static_cast<double>(count + 1);
    for (const double alpha : {1.0, count_alpha}) {
      detail::eq4_probe_row(lanes, alpha, count, got.data());
      for (std::size_t k = 0; k < count; ++k)
        ASSERT_TRUE(same_bits(got[k],
                              ExpectedTimeModel::raw_kernel(alpha, lanes, k)))
            << "count=" << count << " alpha=" << alpha << " lane=" << k
            << " lambda=" << lam[k];
    }
  }
}

TEST(SimdKernel, RowViewsSurviveDeepExtension) {
  // Growing a row (deeper j) must keep the already-filled prefix's bits
  // identical — append-only, no recompute drift — and eq4_lanes views
  // refreshed after growth must agree with the batch output.
  const Pack pack = make_pack({2.5e6});
  const checkpoint::Model resilience = faulty_model();
  const ExpectedTimeModel model(pack, resilience);
  constexpr int kShallow = 6;
  constexpr int kDeep = 300;
  std::vector<double> first(kShallow);
  model.probe_many(0, 0, kShallow, 0.8, first.data());
  std::vector<double> deep(kDeep);
  model.probe_many(0, 0, kDeep, 0.8, deep.data());
  EXPECT_EQ(0, std::memcmp(first.data(), deep.data(),
                           kShallow * sizeof(double)));
  const detail::Eq4Lanes row = model.eq4_lanes(0, kDeep);
  for (std::size_t h = 0; h < kDeep; ++h)
    ASSERT_TRUE(same_bits(deep[h], ExpectedTimeModel::raw_kernel(0.8, row, h)))
        << "h=" << h;
}

// ---- EndLocal's target scan ---------------------------------------------

constexpr double kInf = std::numeric_limits<double>::infinity();
constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();

/// The dispatching scan_targets (vector lanes from 8 targets when live)
/// and, when the lanes are live, the kernel itself on the whole blocks,
/// each against the scalar loop.
void expect_same_scan(const detail::TargetPass& pass, std::size_t count,
                      const std::string& where) {
  EXPECT_EQ(detail::scan_targets(pass, count),
            detail::scan_targets_scalar(pass, count))
      << where << " count=" << count;
  const std::size_t body = count / 4 * 4;
  if (body == 0 || !detail::eq4_simd_active()) return;
  EXPECT_EQ(detail::scan_targets_row(pass, body),
            detail::scan_targets_scalar(pass, body))
      << where << " kernel count=" << body;
}

/// The exact probe x_k of a pass, summed as the scalar loop sums it:
/// ((t + RC_k) + C_i / j_k) + col_k with Eq. 9 above sigma_init.
double probe_at(const detail::TargetPass& pass, std::size_t k) {
  const int j = pass.first + 2 * static_cast<int>(k);
  const double rounds =
      static_cast<double>(std::max(pass.from, j - pass.from));
  const double rc =
      pass.zero_rc
          ? 0.0
          : rounds * (1.0 / static_cast<double>(j)) * pass.m_over_from;
  return pass.t + rc + pass.seq_ckpt / static_cast<double>(j) + pass.col[k];
}

TEST(SimdKernel, TargetScansMatchScalarOnModelRows) {
  // Passes read off real rows: faulty (MTBF 5 y and 0.02 y) and
  // fault-free models, RC on and off, the targets starting right above
  // sigma_init (a scan at the committed allocation) or further up (a
  // task already granted pairs this call), every count from 1 to 70,
  // both stop rules, and thresholds that stop nowhere, everywhere, on an
  // exact tie and just past one probe.
  Rng rng(0x5CA11ULL);
  std::vector<double> sizes;
  for (int i = 0; i < 6; ++i) sizes.push_back(rng.uniform(1.0e5, 5.0e6));
  const Pack pack = make_pack(sizes);
  const checkpoint::Model faulty = faulty_model(5.0);
  const checkpoint::Model fragile = faulty_model(0.02);
  const checkpoint::Model fault_free = fault_free_model();
  for (const checkpoint::Model* resilience : {&faulty, &fragile, &fault_free}) {
    const ExpectedTimeModel model(pack, *resilience);
    for (int trial = 0; trial < 140; ++trial) {
      const auto task = static_cast<int>(rng.uniform_int(0, 5));
      const auto from = static_cast<int>(2 * rng.uniform_int(1, 40));
      const int first =
          from + 2 +
          (trial % 2 == 0 ? 0 : static_cast<int>(2 * rng.uniform_int(1, 30)));
      const std::size_t count = trial < 70 ? static_cast<std::size_t>(trial + 1)
                                           : rng.uniform_int(1, 70);
      const auto h_first = static_cast<std::size_t>(first / 2 - 1);
      const std::size_t slots = h_first + count;
      const double alpha = rng.uniform01();
      std::vector<double> column(slots);
      model.probe_many(task, 0, static_cast<int>(slots), alpha, column.data());
      for (std::size_t h = 1; h < slots; ++h)
        column[h] = std::min(column[h - 1], column[h]);
      const detail::TargetPass pass{
          rng.uniform(0.0, 1.0e6),
          sizes[static_cast<std::size_t>(task)] / static_cast<double>(from),
          0.0,
          resilience->fault_free() ? 0.0 : model.sequential_checkpoint(task),
          column.data() + h_first,
          first,
          from,
          trial % 3 == 0,
          detail::Stop::Below};
      const std::string where = "trial " + std::to_string(trial);
      // The pass prices C_k with the model's own divide, bit for bit.
      for (std::size_t k = 0; k < count; ++k) {
        const int j = first + 2 * static_cast<int>(k);
        ASSERT_TRUE(same_bits(pass.seq_ckpt / static_cast<double>(j),
                              model.checkpoint_cost(task, j)))
            << where << " j=" << j;
      }

      std::vector<double> x(count);
      for (std::size_t k = 0; k < count; ++k) x[k] = probe_at(pass, k);
      const double x_min = *std::min_element(x.begin(), x.end());
      const double x_r = x[rng.uniform_int(0, count - 1)];
      detail::TargetPass p = pass;
      for (const detail::Stop stop :
           {detail::Stop::Below, detail::Stop::NotAtLeast}) {
        p.stop = stop;
        for (const double tU : {-kInf, kInf, x_min, x_r,
                                std::nextafter(x_r, kInf)}) {
          p.tU = tU;
          expect_same_scan(p, count, where);
        }
      }
    }
  }
}

TEST(SimdKernel, TargetScansMatchScalarOnEdgeLanes) {
  // Hand-built lanes, every count from 1 to 11 and every position p: the
  // stopping probe in each lane and in the tail, an exact tie with tU
  // (no stop: both rules are strict there), NaN (a scan skips it, a
  // bound pass stops on it), +inf (never stops) and -inf (always stops).
  // C_i = 0 is the fault-free context; the others price C_k = C_i / j_k
  // from an exact quotient to one that rounds in every lane.
  constexpr std::size_t kMax = 11;
  for (const double seq : {0.0, 3.0, 7.5, 1e-3, 1.0 / 3.0}) {
    for (const bool zero_rc : {false, true}) {
      for (std::size_t count = 1; count <= kMax; ++count) {
        for (std::size_t p = 0; p < count; ++p) {
          for (const double at_p : {0.0, kNaN, kInf, -kInf, 1000.0}) {
            std::vector<double> col(kMax, 1000.0);
            col[p] = at_p;
            detail::TargetPass pass{100.0,      3.0, 0.0, seq,
                                    col.data(), 12,  10,  zero_rc,
                                    detail::Stop::Below};
            // at_p = 1000 with tU on its own probe: an exact tie.
            const double tie = probe_at(pass, p);
            for (const double tU : {1050.0, tie}) {
              for (const detail::Stop stop :
                   {detail::Stop::Below, detail::Stop::NotAtLeast}) {
                pass.tU = tU;
                pass.stop = stop;
                const std::string where =
                    "p=" + std::to_string(p) + " col_p=" +
                    std::to_string(at_p) + " zero_rc=" +
                    std::to_string(zero_rc) + " C_i=" + std::to_string(seq);
                expect_same_scan(pass, count, where);
              }
            }
          }
        }
      }
    }
  }
  // A probe equal to tU stops neither rule: with tU on the smallest
  // probe, no pass stops, in vector lanes too.
  const std::vector<double> flat(kMax, 5.0);
  detail::TargetPass tie{100.0,       3.0, 0.0,   7.5,
                         flat.data(), 12,  10,    false,
                         detail::Stop::Below};
  for (const std::size_t count : {std::size_t{8}, kMax}) {
    double x_min = kInf;
    for (std::size_t k = 0; k < count; ++k)
      x_min = std::min(x_min, probe_at(tie, k));
    tie.tU = x_min;
    for (const detail::Stop stop :
         {detail::Stop::Below, detail::Stop::NotAtLeast}) {
      tie.stop = stop;
      EXPECT_EQ(count, detail::scan_targets(tie, count));
    }
  }
}

}  // namespace
}  // namespace coredis::core
