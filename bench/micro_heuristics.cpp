/// Microbenchmarks of whole engine runs, backing the paper's section 6.2
/// claim that "all four heuristics run within a few seconds, while the
/// total execution time of the application takes several days": one
/// simulated campaign run — including every heuristic invocation it
/// triggers — costs milliseconds here, so the scheduling overhead on a
/// real platform (one decision per fault/termination) is negligible.

#include <benchmark/benchmark.h>
#include <cstdint>
#include <memory>

#include "core/engine.hpp"
#include "fault/exponential.hpp"
#include "speedup/synthetic.hpp"
#include "util/units.hpp"

namespace {

using namespace coredis;

core::Pack bench_pack(int n) {
  Rng rng(11);
  return core::Pack::uniform_random(
      n, 1.5e6, 2.5e6, std::make_shared<speedup::SyntheticModel>(0.08), rng);
}

void run_engine(benchmark::State& state, core::EndPolicy end,
                core::FailurePolicy failure, int n, int p, double mtbf_years) {
  const core::Pack pack = bench_pack(n);
  const checkpoint::Model resilience({units::years(mtbf_years), 60.0, 1.0,
                                      checkpoint::PeriodRule::Young, 0.0});
  core::EngineConfig config;
  config.end_policy = end;
  config.failure_policy = failure;
  core::Engine engine(pack, resilience, p, config);
  std::uint64_t seed = 0;
  std::int64_t faults = 0;
  for (auto _ : state) {
    fault::ExponentialGenerator gen(p, 1.0 / units::years(mtbf_years),
                                    Rng(seed++));
    const core::RunResult result = engine.run(gen);
    faults += result.faults_effective;
    benchmark::DoNotOptimize(result.makespan);
  }
  state.counters["faults/run"] = benchmark::Counter(
      static_cast<double>(faults) / static_cast<double>(state.iterations()));
}

void BM_Engine_NoRC(benchmark::State& state) {
  run_engine(state, core::EndPolicy::None, core::FailurePolicy::None, 50, 500,
             25.0);
}
BENCHMARK(BM_Engine_NoRC)->Unit(benchmark::kMillisecond);

void BM_Engine_STF_EndLocal(benchmark::State& state) {
  run_engine(state, core::EndPolicy::Local,
             core::FailurePolicy::ShortestTasksFirst, 50, 500, 25.0);
}
BENCHMARK(BM_Engine_STF_EndLocal)->Unit(benchmark::kMillisecond);

void BM_Engine_IG_EndLocal(benchmark::State& state) {
  run_engine(state, core::EndPolicy::Local,
             core::FailurePolicy::IteratedGreedy, 50, 500, 25.0);
}
BENCHMARK(BM_Engine_IG_EndLocal)->Unit(benchmark::kMillisecond);

void BM_Engine_IG_EndGreedy(benchmark::State& state) {
  run_engine(state, core::EndPolicy::Greedy,
             core::FailurePolicy::IteratedGreedy, 50, 500, 25.0);
}
BENCHMARK(BM_Engine_IG_EndGreedy)->Unit(benchmark::kMillisecond);

void BM_Engine_PaperScale_IG(benchmark::State& state) {
  run_engine(state, core::EndPolicy::Local,
             core::FailurePolicy::IteratedGreedy, 100, 1000, 100.0);
}
BENCHMARK(BM_Engine_PaperScale_IG)->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
