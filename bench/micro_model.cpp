/// Microbenchmarks of the analytic kernels: speedup profile evaluation,
/// the Eq. 4 expected-time formula, the Eq. 6 clamped evaluator, the
/// redistribution cost, and the Konig edge coloring. These are the inner
/// loops of every heuristic probe; their costs bound the engine's event
/// rate.

#include <benchmark/benchmark.h>

#include <cstddef>
#include <memory>
#include <vector>

#include "core/detail/eq4_simd.hpp"
#include "core/expected_time.hpp"
#include "core/optimal_schedule.hpp"
#include "redistrib/bipartite.hpp"
#include "redistrib/cost.hpp"
#include "speedup/synthetic.hpp"
#include "util/units.hpp"

namespace {

using namespace coredis;

core::Pack bench_pack(int n) {
  Rng rng(7);
  return core::Pack::uniform_random(
      n, 1.5e6, 2.5e6, std::make_shared<speedup::SyntheticModel>(0.08), rng);
}

checkpoint::Model bench_model() {
  return checkpoint::Model(
      {units::years(100.0), 60.0, 1.0, checkpoint::PeriodRule::Young, 0.0});
}

void BM_SpeedupEval(benchmark::State& state) {
  const speedup::SyntheticModel model(0.08);
  double m = 2.0e6;
  int q = 2;
  for (auto _ : state) {
    benchmark::DoNotOptimize(model.time(m, q));
    q = q % 512 + 2;
  }
}
BENCHMARK(BM_SpeedupEval);

void BM_ExpectedTimeRaw(benchmark::State& state) {
  const core::Pack pack = bench_pack(4);
  const checkpoint::Model resilience = bench_model();
  const core::ExpectedTimeModel model(pack, resilience);
  int j = 2;
  for (auto _ : state) {
    benchmark::DoNotOptimize(model.expected_time_raw(0, j, 0.75));
    j = j % 512 + 2;
    if (j % 2) ++j;
  }
}
BENCHMARK(BM_ExpectedTimeRaw);

// Cached vs. uncached kernel: the coefficient table turns the Eq. 4 probe
// into a handful of flops plus one expm1; the reference path re-derives
// the period rule, exp and both expm1 terms every call. Their ratio is
// the per-probe win the heuristics' inner loops see once the table is
// warm (the table itself amortizes over a whole campaign).
void BM_ExpectedTimeRawCachedWarm(benchmark::State& state) {
  const core::Pack pack = bench_pack(4);
  const checkpoint::Model resilience = bench_model();
  const core::ExpectedTimeModel model(pack, resilience);
  for (int j = 1; j <= 513; ++j)
    benchmark::DoNotOptimize(model.expected_time_raw(0, j, 0.75));
  int j = 2;
  for (auto _ : state) {
    benchmark::DoNotOptimize(model.expected_time_raw(0, j, 0.75));
    j = j % 512 + 2;
    if (j % 2) ++j;
  }
}
BENCHMARK(BM_ExpectedTimeRawCachedWarm);

void BM_ExpectedTimeRawUncached(benchmark::State& state) {
  const core::Pack pack = bench_pack(4);
  const checkpoint::Model resilience = bench_model();
  const core::ExpectedTimeModel model(pack, resilience);
  int j = 2;
  for (auto _ : state) {
    benchmark::DoNotOptimize(model.expected_time_raw_reference(0, j, 0.75));
    j = j % 512 + 2;
    if (j % 2) ++j;
  }
}
BENCHMARK(BM_ExpectedTimeRawUncached);

void BM_SimulatedDurationCachedWarm(benchmark::State& state) {
  const core::Pack pack = bench_pack(4);
  const checkpoint::Model resilience = bench_model();
  const core::ExpectedTimeModel model(pack, resilience);
  for (int j = 1; j <= 513; ++j)
    benchmark::DoNotOptimize(model.simulated_duration(0, j, 0.75));
  int j = 2;
  for (auto _ : state) {
    benchmark::DoNotOptimize(model.simulated_duration(0, j, 0.75));
    j = j % 512 + 2;
    if (j % 2) ++j;
  }
}
BENCHMARK(BM_SimulatedDurationCachedWarm);

void BM_SimulatedDurationUncached(benchmark::State& state) {
  const core::Pack pack = bench_pack(4);
  const checkpoint::Model resilience = bench_model();
  const core::ExpectedTimeModel model(pack, resilience);
  int j = 2;
  for (auto _ : state) {
    benchmark::DoNotOptimize(model.simulated_duration_reference(0, j, 0.75));
    j = j % 512 + 2;
    if (j % 2) ++j;
  }
}
BENCHMARK(BM_SimulatedDurationUncached);

// SIMD-vs-scalar counters for the batched Eq. 4 path (DESIGN.md
// section 6.6): the pair runs the vector entry point against the exact
// scalar reference it must match bit-for-bit, over a warm row. Items/s
// is probes per second — the ratio of the pair is the lane win — and the
// label records whether the vector path was actually live in this
// build/process (scalar-only builds still run the pair; the two then
// simply measure the same loop).
void BM_ProbeManyVector(benchmark::State& state) {
  const core::Pack pack = bench_pack(4);
  const checkpoint::Model resilience = bench_model();
  const core::ExpectedTimeModel model(pack, resilience);
  const auto len = static_cast<int>(state.range(0));
  std::vector<double> out(static_cast<std::size_t>(len));
  model.probe_many(0, 0, len, 0.75, out.data());  // warm the row
  for (auto _ : state) {
    model.probe_many(0, 0, len, 0.75, out.data());
    benchmark::DoNotOptimize(out.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() * len);
  state.SetLabel(core::detail::eq4_simd_active() ? "eq4=vector"
                                                 : "eq4=scalar");
}
BENCHMARK(BM_ProbeManyVector)->Arg(8)->Arg(64)->Arg(512);

void BM_ProbeManyScalarReference(benchmark::State& state) {
  const core::Pack pack = bench_pack(4);
  const checkpoint::Model resilience = bench_model();
  const core::ExpectedTimeModel model(pack, resilience);
  const auto len = static_cast<int>(state.range(0));
  std::vector<double> out(static_cast<std::size_t>(len));
  model.probe_many_reference(0, 0, len, 0.75, out.data());
  for (auto _ : state) {
    model.probe_many_reference(0, 0, len, 0.75, out.data());
    benchmark::DoNotOptimize(out.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() * len);
}
BENCHMARK(BM_ProbeManyScalarReference)->Arg(8)->Arg(64)->Arg(512);

void BM_TrEvaluatorWarm(benchmark::State& state) {
  const core::Pack pack = bench_pack(4);
  const checkpoint::Model resilience = bench_model();
  const core::ExpectedTimeModel model(pack, resilience);
  core::TrEvaluator evaluator(model, 1024);
  (void)evaluator(0, 1024, 0.75);  // warm the prefix cache
  int j = 2;
  for (auto _ : state) {
    benchmark::DoNotOptimize(evaluator(0, j, 0.75));
    j = j % 1024 + 2;
    if (j % 2) ++j;
  }
}
BENCHMARK(BM_TrEvaluatorWarm);

void BM_TrEvaluatorColdFill(benchmark::State& state) {
  const core::Pack pack = bench_pack(4);
  const checkpoint::Model resilience = bench_model();
  const core::ExpectedTimeModel model(pack, resilience);
  const auto j = static_cast<int>(state.range(0));
  double alpha = 0.5;
  for (auto _ : state) {
    core::TrEvaluator evaluator(model, j);
    benchmark::DoNotOptimize(evaluator(0, j, alpha));
    alpha = alpha < 0.99 ? alpha + 1e-6 : 0.5;  // defeat slot reuse
  }
}
BENCHMARK(BM_TrEvaluatorColdFill)->Arg(64)->Arg(512)->Arg(4096);

void BM_OptimalSchedule(benchmark::State& state) {
  const auto n = static_cast<int>(state.range(0));
  const int p = 10 * n;
  const core::Pack pack = bench_pack(n);
  const checkpoint::Model resilience = bench_model();
  const core::ExpectedTimeModel model(pack, resilience);
  for (auto _ : state) {
    core::TrEvaluator evaluator(model, p);
    benchmark::DoNotOptimize(core::optimal_schedule(model, p, evaluator));
  }
}
BENCHMARK(BM_OptimalSchedule)->Arg(10)->Arg(100)->Arg(500);

void BM_RedistributionCost(benchmark::State& state) {
  int j = 2;
  for (auto _ : state) {
    benchmark::DoNotOptimize(redistrib::cost(j, j + 6, 2.0e6));
    j = j % 512 + 2;
  }
}
BENCHMARK(BM_RedistributionCost);

void BM_EdgeColoring(benchmark::State& state) {
  const auto j = static_cast<int>(state.range(0));
  const redistrib::BipartiteGraph graph =
      redistrib::make_transfer_graph(j, j + j / 2);
  for (auto _ : state)
    benchmark::DoNotOptimize(redistrib::edge_color(graph));
}
BENCHMARK(BM_EdgeColoring)->Arg(8)->Arg(32)->Arg(128);

}  // namespace

BENCHMARK_MAIN();
