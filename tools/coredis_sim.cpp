/// coredis_sim — the command-line front end of the simulator.
///
/// Two modes:
///
///  * single run (default): simulate one execution with the chosen
///    policies, print the outcome, optionally the Gantt chart
///    (--gantt), record or replay the fault trace (--trace-out /
///    --trace-in), export the timeline (--timeline-csv);
///
///  * --compare: run the full section-6.2 configuration matrix (the four
///    heuristic combinations plus both baselines) over --runs
///    repetitions, print normalized makespans with confidence intervals
///    and a Welch significance verdict for the best heuristic. With an
///    online workload (--arrival != none) the matrix becomes the three
///    arrival-driven schedulers (malleable / EASY / FCFS) instead.
///
/// Plus two registry entry points (src/policy/): --policy "SELECTOR"
/// evaluates an explicit configuration set — registry policy strings
/// such as bandit(window=50, explore=0.1) and/or preset names — over
/// --runs repetitions; --list-policies prints the registered policies
/// and their documented options as a markdown table and exits (the
/// README "Policies" table is drift-checked against it).
///
/// Workloads (--workload pack|malleable|easy|fcfs): `pack` is the
/// paper's engine on a static pack (every task released at time 0; the
/// engine ignores release dates by construction). The other three run
/// the same tasks as *jobs with release dates* drawn from --arrival
/// (none|poisson|bulk|trace, scaled by --load; `trace` reads
/// --arrival-trace, one release date per line): `malleable` re-runs the
/// pack machinery at every arrival/completion (extensions/online.hpp),
/// `easy` and `fcfs` are the rigid batch baselines (extensions/batch.hpp).
///
/// The scenario comes from flags (--n, --p, --mtbf, ...) or from a
/// scenario file (--scenario, see src/exp/scenario_file.hpp); flags win.
/// --list-policies, --policy and --compare exclude each other, and a
/// flag the selected mode never reads is an error, not a silent no-op
/// (select_mode).

#include <cstddef>
#include <cstdint>
#include <fstream>
#include <iostream>
#include <memory>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "core/engine.hpp"
#include "core/timeline.hpp"
#include "exp/report.hpp"
#include "exp/runner.hpp"
#include "exp/scenario_file.hpp"
#include "policy/registry.hpp"
#include "extensions/batch.hpp"
#include "extensions/online.hpp"
#include "fault/exponential.hpp"
#include "fault/trace.hpp"
#include "fault/weibull.hpp"
#include "speedup/synthetic.hpp"
#include "util/cli.hpp"
#include "util/csv.hpp"
#include "util/table.hpp"
#include "util/units.hpp"

namespace {

using namespace coredis;

/// Which simulator a single run drives (--workload).
enum class Workload { Pack, Malleable, Easy, Fcfs };

/// Unknown names fail loudly with the accepted list.
Workload parse_workload(const std::string& name) {
  if (name == "pack") return Workload::Pack;
  if (name == "malleable") return Workload::Malleable;
  if (name == "easy") return Workload::Easy;
  if (name == "fcfs") return Workload::Fcfs;
  throw std::invalid_argument("--workload expects pack|malleable|easy|fcfs (got '" +
                              name + "')");
}

/// What one invocation does: --list-policies, --policy and --compare
/// each select a mode; without one, it is a single run of --workload.
enum class Mode { ListPolicies, Policy, Compare, Single };

/// The selected mode. Combining two modes would silently drop one, so it
/// is an error naming both, and so is any flag the selected mode never
/// reads: the error names the flag, the runs that read it and the mode.
Mode select_mode(const CliParser& cli) {
  const struct {
    const char* flag;
    Mode mode;
    bool on;
  } modes[] = {
      {"list-policies", Mode::ListPolicies, cli.get_bool("list-policies")},
      {"policy", Mode::Policy, cli.has("policy")},
      {"compare", Mode::Compare, cli.get_bool("compare")},
  };
  Mode mode = Mode::Single;
  std::string selected;
  for (const auto& candidate : modes) {
    if (!candidate.on) continue;
    if (mode != Mode::Single)
      throw std::invalid_argument(selected + " and --" + candidate.flag +
                                  " select different modes; pass one of them");
    mode = candidate.mode;
    selected = "--" + std::string(candidate.flag);
  }
  const std::string workload = cli.get_string("workload", "pack");
  const bool single = mode == Mode::Single;
  const bool pack_run = single && parse_workload(workload) == Workload::Pack;
  const bool repeated = mode == Mode::Policy || mode == Mode::Compare;
  const bool released = repeated || (single && !pack_run);
  if (single) selected = "a single " + workload + " run";
  const char* const pack_only = "a single pack run";
  const char* const releases =
      "--compare, --policy and single malleable/easy/fcfs runs";
  const struct {
    const char* flag;
    bool read;
    const char* readers;
  } flags[] = {
      {"end", pack_run, pack_only},
      {"fail", pack_run, pack_only},
      {"profile", pack_run, pack_only},
      {"gantt", pack_run, pack_only},
      {"timeline-csv", pack_run, pack_only},
      {"trace-out", pack_run, pack_only},
      {"trace-in", single, "single runs"},
      {"workload", single, "single runs"},
      {"runs", repeated, "--compare and --policy"},
      {"arrival", released, releases},
      {"load", released, releases},
      {"bulk-phases", released, releases},
      {"arrival-trace", released, releases},
  };
  for (const auto& flag : flags)
    if (cli.has(flag.flag) && !flag.read)
      throw std::invalid_argument("--" + std::string(flag.flag) +
                                  " is read only by " + flag.readers +
                                  ", not by " + selected);
  return mode;
}

core::EndPolicy parse_end(const std::string& name) {
  if (name == "none") return core::EndPolicy::None;
  if (name == "local") return core::EndPolicy::Local;
  if (name == "greedy") return core::EndPolicy::Greedy;
  throw std::invalid_argument("--end expects none|local|greedy");
}

core::FailurePolicy parse_fail(const std::string& name) {
  if (name == "none") return core::FailurePolicy::None;
  if (name == "stf") return core::FailurePolicy::ShortestTasksFirst;
  if (name == "ig") return core::FailurePolicy::IteratedGreedy;
  throw std::invalid_argument("--fail expects none|stf|ig");
}

fault::GeneratorPtr make_generator(const exp::Scenario& scenario,
                                   std::uint64_t seed,
                                   const std::string& trace_in) {
  if (!trace_in.empty()) {
    std::vector<fault::Fault> events;
    const int processors = fault::load_trace(trace_in, events);
    if (processors != scenario.p)
      throw std::runtime_error("trace platform size does not match -p");
    return std::make_unique<fault::TraceGenerator>(processors,
                                                   std::move(events));
  }
  const double mtbf = scenario.mtbf_seconds();
  if (mtbf <= 0.0) return std::make_unique<fault::NullGenerator>(scenario.p);
  if (scenario.fault_law == exp::FaultLaw::Weibull)
    return std::make_unique<fault::WeibullGenerator>(
        scenario.p, mtbf, scenario.weibull_shape, seed);
  return std::make_unique<fault::ExponentialGenerator>(scenario.p,
                                                       1.0 / mtbf, Rng(seed));
}

int run_single(const exp::Scenario& scenario, const CliParser& cli) {
  core::EngineConfig config;
  config.end_policy = parse_end(cli.get_string("end", "local"));
  config.failure_policy = parse_fail(cli.get_string("fail", "ig"));
  config.record_trace = true;
  config.record_timeline =
      cli.get_bool("gantt") || cli.has("timeline-csv");
  config.profile = cli.get_bool("profile");

  Rng workload = Rng::child(scenario.seed, 0);
  const core::Pack pack = core::Pack::uniform_random(
      scenario.n, scenario.m_inf, scenario.m_sup,
      std::make_shared<speedup::SyntheticModel>(scenario.sequential_fraction),
      workload);
  const checkpoint::Model resilience(scenario.resilience_params());
  core::Engine engine(pack, resilience, scenario.p, config);

  auto generator = make_generator(scenario, scenario.seed ^ 0xFA17ULL,
                                  cli.get_string("trace-in", ""));
  const std::string trace_out = cli.get_string("trace-out", "");
  std::unique_ptr<fault::RecordingGenerator> recorder;
  fault::Generator* source = generator.get();
  if (!trace_out.empty()) {
    recorder =
        std::make_unique<fault::RecordingGenerator>(std::move(generator));
    source = recorder.get();
  }

  const core::RunResult result = engine.run(*source);

  std::cout << "pack: n = " << scenario.n << ", platform: p = " << scenario.p
            << ", policies: " << core::to_string(config.end_policy) << " + "
            << core::to_string(config.failure_policy) << "\n";
  std::cout << "makespan: " << result.makespan << " s ("
            << format_double(units::to_days(result.makespan), 2)
            << " days)\n";
  std::cout << "faults: " << result.faults_effective << " effective, "
            << result.faults_discarded << " discarded; redistributions: "
            << result.redistributions << " (RC total "
            << format_double(result.redistribution_cost, 0)
            << " s); checkpoints: " << result.checkpoints_taken << "\n";
  std::cout << "time lost to faults: "
            << format_double(units::to_days(result.time_lost_to_faults), 2)
            << " days; buddy-fatal risks: " << result.buddy_fatal_risks
            << "\n";

  if (config.profile) {
    const core::EngineProfile& prof = result.profile;
    const double total = prof.algorithm1_seconds + prof.dispatch_seconds +
                         prof.scan_seconds + prof.commit_seconds;
    const auto row = [&](const char* name, double seconds) {
      std::cout << "  " << name << "  " << format_double(seconds * 1e3, 3)
                << " ms  ("
                << format_double(total > 0.0 ? 100.0 * seconds / total : 0.0, 1)
                << "%)\n";
    };
    std::cout << "\nprofile (" << prof.events << " events, "
              << prof.heuristic_calls << " heuristic calls, " << prof.commits
              << " commits):\n";
    row("algorithm 1       ", prof.algorithm1_seconds);
    row("event dispatch    ", prof.dispatch_seconds);
    row("probe scans + heap", prof.scan_seconds);
    row("commits           ", prof.commit_seconds);
    std::cout << "work: " << prof.column_fills << " column fills; EndLocal "
              << prof.full_scans << " full scans, " << prof.verdict_drops
              << " verdict drops, " << prof.verdict_widenings
              << " widenings, " << prof.widen_fallbacks
              << " widen fallbacks (" << prof.floor_fallbacks
              << " on the floor); Algorithm 5 " << prof.regrows
              << " regrows, " << prof.tournament_replays
              << " tournament replays, " << prof.walk_skips
              << " walk skips, " << prof.walk_steps << " walk steps\n";
  }

  if (cli.get_bool("gantt"))
    std::cout << '\n' << core::render_gantt(result.timeline, scenario.n);
  if (auto path = cli.get("timeline-csv")) {
    std::ofstream file(*path);
    if (!file) throw std::runtime_error("cannot write " + *path);
    file << core::timeline_csv(result.timeline);
    std::cout << "timeline written to " << *path << '\n';
  }
  if (recorder != nullptr) {
    fault::save_trace(trace_out, scenario.p, recorder->recorded());
    std::cout << "fault trace (" << recorder->recorded().size()
              << " events) written to " << trace_out << '\n';
  }
  return 0;
}

/// Single run of one of the arrival-driven workloads (malleable online
/// co-scheduling or a rigid batch baseline) on the scenario's pack.
int run_online_single(const exp::Scenario& scenario,
                      Workload workload, const CliParser& cli) {
  Rng workload_rng = Rng::child(scenario.seed, 0);
  const core::Pack pack = core::Pack::uniform_random(
      scenario.n, scenario.m_inf, scenario.m_sup,
      std::make_shared<speedup::SyntheticModel>(scenario.sequential_fraction),
      workload_rng);
  const checkpoint::Model resilience(scenario.resilience_params());
  Rng arrival_rng = Rng::child(scenario.seed ^ 0xA881ULL, 0);
  const std::vector<double> releases = extensions::make_release_times(
      scenario.arrival_spec(), pack, resilience, scenario.p, arrival_rng);
  auto faults = make_generator(scenario, scenario.seed ^ 0xFA17ULL,
                               cli.get_string("trace-in", ""));

  double last_release = 0.0;
  for (double r : releases) last_release = std::max(last_release, r);
  std::cout << "jobs: n = " << scenario.n << ", platform: p = " << scenario.p
            << ", arrivals: " << extensions::to_string(scenario.arrival_law)
            << " (load " << format_double(scenario.load_factor, 2)
            << ", last release " << format_double(units::to_days(last_release), 2)
            << " days)\n";

  if (workload == Workload::Malleable) {
    const extensions::OnlineResult result =
        extensions::run_online(pack, resilience, scenario.p, releases, *faults);
    std::cout << "workload: malleable online co-scheduling\n";
    std::cout << "makespan: " << result.makespan << " s ("
              << format_double(units::to_days(result.makespan), 2)
              << " days)\n";
    std::cout << "faults: " << result.faults_effective
              << " effective; redistributions: " << result.redistributions
              << " (RC total "
              << format_double(result.redistribution_cost, 0)
              << " s); mean queue wait: "
              << format_double(units::to_days(result.mean_queue_wait), 2)
              << " days\n";
    return 0;
  }

  extensions::BatchConfig config;
  config.backfilling = workload == Workload::Easy;
  const extensions::BatchResult result = extensions::run_batch(
      pack, resilience, scenario.p, releases, config, *faults);
  std::cout << "workload: rigid batch ("
            << (config.backfilling ? "EASY backfilling" : "plain FCFS")
            << ")\n";
  std::cout << "makespan: " << result.makespan << " s ("
            << format_double(units::to_days(result.makespan), 2)
            << " days)\n";
  std::cout << "faults: " << result.faults_effective
            << " effective; backfilled jobs: " << result.backfilled_jobs
            << "\n";
  return 0;
}

/// --policy: evaluate an explicit selector (registry policy strings
/// and/or preset names) over --runs repetitions, like --compare but for
/// a caller-chosen configuration set.
int run_policy(const exp::Scenario& scenario, const std::string& selector) {
  const std::vector<exp::ConfigSpec> configs = exp::parse_config_set(selector);
  const exp::PointResult point = exp::run_point(scenario, configs);
  TextTable table({"configuration", "normalized", "ci95", "makespan (days)",
                   "redistributions"});
  for (const exp::ConfigOutcome& config : point.configs) {
    table.add_row({config.name, format_double(config.normalized.mean(), 4),
                   format_double(config.normalized.ci95_halfwidth(), 4),
                   format_double(units::to_days(config.makespan.mean()), 1),
                   format_double(config.redistributions.mean(), 1)});
  }
  std::cout << table.to_string() << '\n';
  return 0;
}

int run_compare(const exp::Scenario& scenario) {
  // An online workload compares the three arrival-driven schedulers; the
  // static pack compares the paper's section 6.2 matrix.
  if (scenario.arrival_law != extensions::ArrivalLaw::None) {
    const auto configs = exp::online_curves();
    const exp::PointResult point = exp::run_point(scenario, configs);
    TextTable table({"configuration", "normalized", "ci95",
                     "makespan (days)", "redistributions"});
    for (const exp::ConfigOutcome& config : point.configs) {
      table.add_row({config.name, format_double(config.normalized.mean(), 4),
                     format_double(config.normalized.ci95_halfwidth(), 4),
                     format_double(units::to_days(config.makespan.mean()), 1),
                     format_double(config.redistributions.mean(), 1)});
    }
    std::cout << table.to_string() << '\n';
    return 0;
  }
  const auto configs = exp::paper_curves();
  const exp::PointResult point = exp::run_point(scenario, configs);

  TextTable table({"configuration", "normalized", "ci95", "makespan (days)",
                   "redistributions"});
  for (const exp::ConfigOutcome& config : point.configs) {
    table.add_row({config.name, format_double(config.normalized.mean(), 4),
                   format_double(config.normalized.ci95_halfwidth(), 4),
                   format_double(units::to_days(config.makespan.mean()), 1),
                   format_double(config.redistributions.mean(), 1)});
  }
  std::cout << table.to_string() << '\n';

  // Significance of the best heuristic against the baseline.
  std::size_t best = 1;
  for (std::size_t c = 2; c <= 4; ++c)
    if (point.configs[c].normalized.mean() <
        point.configs[best].normalized.mean())
      best = c;
  const WelchResult verdict = welch_t_test(point.configs[best].makespan,
                                           point.configs[0].makespan);
  std::cout << "best heuristic: " << point.configs[best].name << " (t = "
            << format_double(verdict.t, 2)
            << ", p = " << format_double(verdict.p_two_sided, 4) << ", "
            << (verdict.a_significantly_smaller()
                    ? "significantly better than no redistribution"
                    : "not significant at these repetitions")
            << ")\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    CliParser cli(argc, argv);
    cli.describe("scenario", "scenario file (key = value; flags override)")
        .describe("n", "number of tasks")
        .describe("p", "number of processors")
        .describe("mtbf", "per-processor MTBF in years (0 = fault-free)")
        .describe("c", "checkpoint seconds per data unit")
        .describe("f", "sequential fraction of the speedup profile")
        .describe("m-inf", "smallest task data size")
        .describe("m-sup", "largest task data size")
        .describe("runs", "repetitions (--compare and --policy)")
        .describe("seed", "master seed")
        .describe("end", "end-of-task policy: none|local|greedy (pack run)")
        .describe("fail", "failure policy: none|stf|ig (pack run)")
        .describe("workload",
                  "simulator: pack|malleable|easy|fcfs (pack = the paper's "
                  "static engine; the others schedule release-dated jobs)")
        .describe("arrival",
                  "release-date law: none|poisson|bulk|trace (jobs all "
                  "released at 0 when none)")
        .describe("load", "offered load rho of the arrival law (> 0)")
        .describe("bulk-phases", "bulk law: number of release waves")
        .describe("arrival-trace",
                  "trace law: release dates file, one per line (seconds)")
        .describe("compare",
                  "run the section-6.2 configuration matrix (or the "
                  "malleable/EASY/FCFS trio when --arrival != none)")
        .describe("policy",
                  "evaluate a config selector over --runs repetitions: "
                  "registry policy strings and/or preset names, e.g. "
                  "\"bandit(window=50), malleable, fcfs\"")
        .describe("list-policies",
                  "print the registered policies and their options as a "
                  "markdown table, then exit")
        .describe("profile",
                  "print the per-phase wall-time breakdown after the run "
                  "(pack run): Algorithm 1, event dispatch, probe scans "
                  "+ heap work, commits")
        .describe("gantt", "print the allocation Gantt chart (pack run)")
        .describe("timeline-csv",
                  "write the allocation timeline CSV (pack run)")
        .describe("trace-out", "record the fault trace to this file (pack run)")
        .describe("trace-in", "replay a recorded fault trace (single runs)");
    if (cli.wants_help()) {
      std::cout << cli.usage("resilient co-scheduling simulator");
      return 0;
    }
    cli.reject_unknown();
    const Mode mode = select_mode(cli);

    if (mode == Mode::ListPolicies) {
      std::cout << policy::list_policies_markdown();
      return 0;
    }

    exp::Scenario scenario;
    scenario.n = 20;
    scenario.p = 200;
    scenario.mtbf_years = 20.0;
    scenario.runs = 10;
    const std::string file = cli.get_string("scenario", "");
    if (!file.empty()) scenario = exp::load_scenario(file, scenario);
    scenario.n = static_cast<int>(cli.get_int("n", scenario.n));
    scenario.p = static_cast<int>(cli.get_int("p", scenario.p));
    scenario.mtbf_years = cli.get_double("mtbf", scenario.mtbf_years);
    scenario.checkpoint_unit_cost =
        cli.get_double("c", scenario.checkpoint_unit_cost);
    scenario.sequential_fraction =
        cli.get_double("f", scenario.sequential_fraction);
    scenario.m_inf = cli.get_double("m-inf", scenario.m_inf);
    scenario.m_sup = cli.get_double("m-sup", scenario.m_sup);
    scenario.runs = static_cast<int>(cli.get_int("runs", scenario.runs));
    scenario.seed = static_cast<std::uint64_t>(
        cli.get_int("seed", static_cast<long>(scenario.seed)));
    // Arrival flags route through the scenario-file key semantics, so the
    // accepted values (and their error messages) match campaign files.
    if (const auto arrival = cli.get("arrival"))
      exp::apply_scenario_key(scenario, "arrival_law", *arrival);
    if (const auto load = cli.get("load"))
      exp::apply_scenario_key(scenario, "load_factor", *load);
    if (const auto phases = cli.get("bulk-phases"))
      exp::apply_scenario_key(scenario, "bulk_phases", *phases);
    if (const auto trace = cli.get("arrival-trace"))
      exp::apply_scenario_key(scenario, "arrival_trace", *trace);

    const Workload workload =
        parse_workload(cli.get_string("workload", "pack"));
    if (workload != Workload::Pack &&
        scenario.arrival_law == extensions::ArrivalLaw::None &&
        !cli.has("arrival"))
      std::cerr << "note: --workload without --arrival releases every job "
                   "at time 0 (the static setting)\n";
    exp::validate_scenario(scenario);

    if (mode == Mode::Policy)
      return run_policy(scenario, cli.get_string("policy", ""));
    if (mode == Mode::Compare) return run_compare(scenario);
    return workload == Workload::Pack
               ? run_single(scenario, cli)
               : run_online_single(scenario, workload, cli);
  } catch (const std::exception& error) {
    std::cerr << "error: " << error.what() << '\n';
    return 1;
  }
}
