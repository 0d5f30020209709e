/// Tests of the speedup profiles, including the model assumptions the
/// scheduler depends on (section 3.2): execution time non-increasing in q
/// and work q * t(m, q) non-decreasing in q — checked as properties over a
/// parameter sweep.

#include <cmath>
#include <cstddef>
#include <cstring>
#include <gtest/gtest.h>
#include <memory>
#include <stdexcept>
#include <string>
#include <tuple>
#include <vector>

#include "speedup/amdahl.hpp"
#include "speedup/presets.hpp"
#include "speedup/synthetic.hpp"
#include "speedup/table_profile.hpp"

namespace coredis::speedup {
namespace {

TEST(SyntheticModel, MatchesPaperFormula) {
  const SyntheticModel model(0.08);
  const double m = 2.0e6;
  const double log2m = std::log2(m);
  const double t1 = 2.0 * m * log2m;
  EXPECT_NEAR(model.time(m, 1), t1 + m * log2m, 1e-6 * t1);
  const double q = 16.0;
  const double expected = 0.08 * t1 + 0.92 * t1 / q + (m / q) * log2m;
  EXPECT_NEAR(model.time(m, 16), expected, 1e-9 * expected);
}

TEST(SyntheticModel, SequentialFractionBounds) {
  EXPECT_NO_THROW(SyntheticModel(0.0));
  EXPECT_NO_THROW(SyntheticModel(1.0));
  EXPECT_DEATH(SyntheticModel(-0.1), "precondition");
  EXPECT_DEATH(SyntheticModel(1.1), "precondition");
}

TEST(SyntheticModel, FullySequentialDoesNotScale) {
  const SyntheticModel model(1.0);
  const double m = 1.0e6;
  // With f = 1 only the communication term shrinks with q.
  EXPECT_GT(model.time(m, 64), 2.0 * m * std::log2(m));
}

TEST(AmdahlModel, AsymptoteIsSequentialFraction) {
  const AmdahlModel model(0.1, 2.0);
  const double m = 1.0e6;
  const double t1 = model.time(m, 1);
  EXPECT_NEAR(model.time(m, 100000), 0.1 * t1, 0.01 * t1);
}

struct ModelCase {
  const char* name;
  std::shared_ptr<const Model> model;
};

class SpeedupProperties
    : public ::testing::TestWithParam<std::tuple<int, double>> {
 protected:
  static std::vector<ModelCase> models() {
    return {
        {"synthetic_f008", std::make_shared<SyntheticModel>(0.08)},
        {"synthetic_f0", std::make_shared<SyntheticModel>(0.0)},
        {"synthetic_f05", std::make_shared<SyntheticModel>(0.5)},
        {"amdahl", std::make_shared<AmdahlModel>(0.08)},
    };
  }
};

TEST_P(SpeedupProperties, TimeNonIncreasingInProcessors) {
  const auto [q, m] = GetParam();
  for (const ModelCase& c : models()) {
    EXPECT_LE(c.model->time(m, q + 1), c.model->time(m, q) * (1.0 + 1e-12))
        << c.name << " q=" << q << " m=" << m;
  }
}

TEST_P(SpeedupProperties, WorkNonDecreasingInProcessors) {
  const auto [q, m] = GetParam();
  for (const ModelCase& c : models()) {
    const double work_q = q * c.model->time(m, q);
    const double work_q1 = (q + 1) * c.model->time(m, q + 1);
    EXPECT_GE(work_q1, work_q * (1.0 - 1e-12))
        << c.name << " q=" << q << " m=" << m;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, SpeedupProperties,
    ::testing::Combine(::testing::Values(1, 2, 3, 7, 64, 511, 4999),
                       ::testing::Values(1.5e3, 1.5e6, 2.5e6, 1.0e8)));

TEST(TableModel, InterpolatesAndClamps) {
  const TableModel model(1000.0, {{1, 100.0}, {2, 60.0}, {4, 40.0}});
  EXPECT_DOUBLE_EQ(model.time(1000.0, 1), 100.0);
  EXPECT_DOUBLE_EQ(model.time(1000.0, 4), 40.0);
  // Between samples: harmonic interpolation stays between neighbors.
  const double t3 = model.time(1000.0, 3);
  EXPECT_LT(t3, 60.0);
  EXPECT_GT(t3, 40.0);
  // Beyond the table: clamp, no extrapolated speedup.
  EXPECT_DOUBLE_EQ(model.time(1000.0, 64), 40.0);
  EXPECT_EQ(model.max_sampled_processors(), 4);
}

TEST(TableModel, WorkScalesWithProblemSize) {
  const TableModel model(1000.0, {{1, 100.0}, {2, 60.0}});
  const double scale = (2000.0 * std::log2(2000.0)) / (1000.0 * std::log2(1000.0));
  EXPECT_NEAR(model.time(2000.0, 1), 100.0 * scale, 1e-9);
}

TEST(TableModel, RepairsNonMonotoneSamples) {
  // 8 processors slower than 4: repaired down to the 4-processor time.
  const TableModel model(1000.0, {{1, 100.0}, {4, 30.0}, {8, 45.0}});
  EXPECT_DOUBLE_EQ(model.time(1000.0, 8), 30.0);
}

TEST(TableModel, RepairsSuperLinearSpeedup) {
  // 2 processors, 4x faster: super-linear, flattened to linear work.
  const TableModel model(1000.0, {{1, 100.0}, {2, 25.0}});
  EXPECT_DOUBLE_EQ(model.time(1000.0, 2), 50.0);
}

TEST(Presets, AllPresetsBuildAndRespectModelAssumptions) {
  const double m = 1.5e6;
  for (const std::string& name : preset_names()) {
    const ModelPtr model = make_preset(name, m);
    ASSERT_NE(model, nullptr) << name;
    EXPECT_DOUBLE_EQ(model->time(m, 1), 2.0 * m * std::log2(m)) << name;
    for (int q = 1; q < 256; ++q) {
      EXPECT_LE(model->time(m, q + 1), model->time(m, q) * (1.0 + 1e-9))
          << name << " q=" << q;
      EXPECT_GE((q + 1) * model->time(m, q + 1),
                q * model->time(m, q) * (1.0 - 1e-9))
          << name << " q=" << q;
    }
  }
}

TEST(Presets, ArchetypesAreOrderedByScalability) {
  const double m = 1.0e6;
  const ModelPtr md = make_preset("minimd_like", m);
  const ModelPtr cg = make_preset("hpccg_like", m);
  // Same sequential time, very different 256-core performance.
  EXPECT_DOUBLE_EQ(md->time(m, 1), cg->time(m, 1));
  EXPECT_LT(md->time(m, 256), 0.5 * cg->time(m, 256));
}

TEST(Presets, UnknownNameThrows) {
  EXPECT_THROW((void)make_preset("nonexistent", 1.0e6),
               std::invalid_argument);
}

TEST(Speedup, EvenTimesMatchTimeBitForBit) {
  // The batched row the scheduler scans is time() itself: the synthetic
  // model's override hoists its per-m terms, Amdahl and the tables run
  // the default loop, and every entry is compared bit for bit.
  const SyntheticModel synthetic(0.08);
  const SyntheticModel sequential(1.0);
  const AmdahlModel amdahl(0.08);
  const ModelPtr table = make_preset("minife_like", 2.0e6);
  const struct {
    const char* name;
    const Model* model;
  } models[] = {{"synthetic", &synthetic},
                {"synthetic f=1", &sequential},
                {"amdahl", &amdahl},
                {"table", table.get()}};
  std::vector<double> row(5000);
  for (const auto& [name, model] : models) {
    for (const double m : {2.0, 1.5e6, 2.5e6, 1e12}) {
      for (const int q_first : {1, 2, 3, 10001}) {
        for (const std::size_t count : {std::size_t{1}, std::size_t{3},
                                        std::size_t{64}, std::size_t{5000}}) {
          model->even_times(m, q_first, count, row.data());
          for (std::size_t k = 0; k < count; ++k) {
            const double want =
                model->time(m, q_first + 2 * static_cast<int>(k));
            ASSERT_EQ(0, std::memcmp(&row[k], &want, sizeof want))
                << name << " m=" << m << " q=" << q_first + 2 * k
                << " count=" << count;
          }
        }
      }
    }
  }
}

TEST(TableModel, RejectsBadInput) {
  EXPECT_THROW(TableModel(1000.0, {}), std::invalid_argument);
  EXPECT_THROW(TableModel(1000.0, {{2, 10.0}}), std::invalid_argument);
  EXPECT_THROW(TableModel(1000.0, {{1, 10.0}, {1, 9.0}}),
               std::invalid_argument);
  EXPECT_THROW(TableModel(1000.0, {{1, -1.0}}), std::invalid_argument);
}

}  // namespace
}  // namespace coredis::speedup
