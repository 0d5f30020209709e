#pragma once

/// \file workloads.hpp
/// The three workloads and the per-layer probes they share. A traced run
/// must report every per-layer metric, so each workload runs every
/// probe: on its own inputs where the metric is read on it (see
/// perfbench/README.md), on the small inputs below elsewhere.

#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "core/types.hpp"
#include "exp/campaign.hpp"
#include "exp/runner.hpp"
#include "exp/scenario.hpp"
#include "harness.hpp"
#include "serve/service.hpp"

namespace perfbench {

using coredis::exp::Campaign;
using coredis::exp::CellResult;
using coredis::exp::Scenario;

void cell_n1000(Context& ctx);
void grid_small(Context& ctx);
void serve_mix(Context& ctx);

/// "%.17g" makespans plus the counters of every result of a cell.
[[nodiscard]] std::string cell_digest(const CellResult& cell);

/// Output checks every cell must pass whatever the seed: one result per
/// configuration, finite positive makespans, and the first entry (every
/// configuration list here starts with the baseline) identical to the
/// cell's normalizer.
[[nodiscard]] bool cell_ok(const CellResult& cell, std::size_t configs,
                           std::string& why);

/// The scenario-file text of `scenario`, with ';' between keys, as the
/// serve protocol carries it.
[[nodiscard]] std::string scenario_line(const Scenario& scenario);

/// grid_small's campaign with `runs` repetitions per point.
[[nodiscard]] Campaign grid_campaign(const Options& options, int runs);

/// Pass B of a campaign: its cells cut by plan_deal_blocks and dealt,
/// longest first, to `workers` in-process DealWorker sessions of
/// threads / workers threads each, writing the shard files of `path`.
/// Returns the seconds of every run_block call.
[[nodiscard]] std::vector<double> deal_pass(
    const std::vector<Scenario>& points,
    const std::vector<coredis::exp::ConfigSpec>& configs, std::size_t workers,
    std::size_t threads, const std::string& path);

// --- serving --------------------------------------------------------------------

/// An open-loop request stream: request i draws its scenario, repetition
/// and selector from a generator seeded by `seed`, alternates what_if and
/// admit, and is due at a Poisson arrival time of rate `rate`.
struct ServeMix {
  std::vector<std::string> scenarios;  ///< scenario_line texts
  std::vector<std::string> selectors;  ///< `configs` values
  std::size_t reps = 1;
  std::size_t pool_capacity = 1;  ///< below scenarios x reps: hits and misses
  double rate = 1.0;              ///< requests per second
  std::size_t requests = 1;
  std::uint64_t seed = kDefaultSeed;

  struct Pick {
    std::size_t scenario = 0;
    std::size_t rep = 0;
    std::size_t selector = 0;
    bool admit = false;
  };
  [[nodiscard]] Pick pick(std::size_t i) const;
  /// Request i as a protocol line (no newline); its id is i.
  [[nodiscard]] std::string line(std::size_t i) const;
  [[nodiscard]] std::size_t keys() const { return scenarios.size() * reps; }
};

/// serve_mix's two served scenarios (n = 100, p = 1000, MTBF 10 y,
/// exponential and Weibull faults), fixed whatever the seed.
[[nodiscard]] std::vector<Scenario> served_scenarios(const Options& options);
/// serve_mix's request stream over them, seeded by options.seed; the
/// caller sets the request count.
[[nodiscard]] ServeMix serve_inputs(const Options& options);

struct ServeRun {
  std::vector<double> latency_s;  ///< reply time - scheduled send, per reply
  std::vector<double> lag_s;      ///< actual send - scheduled send
  std::vector<double> ping_s;     ///< ping round trips before the stream
  double wall_s = 0.0;            ///< first scheduled send to last reply
  coredis::serve::ServiceStats stats;
};

/// Serve `mix` from an in-process Server on a socket in the working
/// directory, then check every response against a sequential
/// Service::execute of the same request on a private Service. While the
/// stream runs, the calling thread calls `alongside` (if set) over and
/// over, at least once.
[[nodiscard]] ServeRun serve_run(Context& ctx, const ServeMix& mix,
                                 const std::function<void()>& alongside = {});

// --- per-layer probes -----------------------------------------------------------

/// Algorithm 1 cold and warm, its RSS growth, column depth, and Eq. 4
/// batches on a fresh and a warm row, on the scenario's repetition 0.
void core_probe(Context& ctx, const Scenario& scenario);

/// The paper configurations evaluated one at a time on fresh workspaces,
/// profiled: per-configuration seconds per cell, and the engine's phase
/// times and work counters over the first `counted` cells.
struct CfgLoop {
  std::vector<std::vector<double>> seconds;  ///< [config][cell]
  std::vector<double> cell_s;                ///< workspace + every config
  std::vector<std::string> digests;          ///< cell_digest per cell
  coredis::core::EngineProfile phases;       ///< over the counted cells
  long long redistributions = 0;             ///< over the counted cells
};
[[nodiscard]] CfgLoop cfg_loop(Context& ctx, const std::vector<Scenario>& points,
                               std::size_t reps, std::size_t counted);
void report_cfg_loop(Context& ctx, const CfgLoop& loop);

/// The campaign layer on `campaign`: workspace vs compute totals,
/// orchestration, thread scaling, dealt blocks, merge,
/// summary and resume scan.
void exp_probe(Context& ctx, const Campaign& campaign, std::size_t workers);

/// Protocol parse/render, Service::execute hits and misses, and the
/// ping, pool, batch and generator figures of `run`.
void serve_probe(Context& ctx, const ServeMix& mix, const ServeRun& run);

/// The probes of layers a workload does not exercise, on small inputs:
/// exp_probe on grid_small's campaign at a few repetitions per point,
/// serve_probe on a short stream of serve_mix's requests.
void small_exp_probe(Context& ctx);
void small_serve_probe(Context& ctx);

}  // namespace perfbench
