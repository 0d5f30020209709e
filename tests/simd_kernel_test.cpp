/// Bitwise-equivalence wall for the vector Eq. 4 pass (DESIGN.md
/// section 6.6): the SIMD probe_many must produce the exact bits of its
/// scalar reference, probe_many_reference, over randomized grids,
/// fault-aware and fault-free resilience, denormal/extreme lambda·tau
/// corners, and every residual vector-tail length. The same contract is
/// asserted against the detail kernel directly on hand-built lanes.
///
/// Every test here passes on any build: when the vector path is not
/// live (non-x86-64 build, unsupported CPU, COREDIS_NO_SIMD=1, or a
/// failed process self-check) the batched entry point is the scalar
/// loop and equality is trivial. The suite prints which case it
/// exercised so a CI log shows whether the vector lanes were actually
/// under test.

#include <cmath>
#include <cstring>
#include <gtest/gtest.h>
#include <memory>
#include <utility>
#include <vector>

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
  // identical — append-only, no recompute drift — and row_lanes views
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
  const detail::Eq4Lanes row = model.row_lanes(0, kDeep);
  for (std::size_t h = 0; h < kDeep; ++h)
    ASSERT_TRUE(same_bits(deep[h], ExpectedTimeModel::raw_kernel(0.8, row, h)))
        << "h=" << h;
}

}  // namespace
}  // namespace coredis::core
