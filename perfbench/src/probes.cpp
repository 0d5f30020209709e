/// \file probes.cpp
/// Per-layer probes of the traced run: each times calls into one
/// layer's public functions on the workload's own inputs.

#include <algorithm>
#include <filesystem>
#include <functional>
#include <iterator>
#include <memory>
#include <string>
#include <vector>

#include "checkpoint/model.hpp"
#include "core/expected_time.hpp"
#include "core/optimal_schedule.hpp"
#include "core/pack.hpp"
#include "serve/protocol.hpp"
#include "speedup/synthetic.hpp"
#include "util/rng.hpp"
#include "workloads.hpp"

namespace perfbench {

using namespace coredis;

namespace {

/// Rounds of exp_probe's runs; their medians are reported.
constexpr int kExpRounds = 7;

/// Metric suffixes of exp::paper_curves(), in legend order.
constexpr const char* kPaperNames[] = {"baseline",   "ig_greedy", "ig_local",
                                       "stf_greedy", "stf_local", "rc_fault_free"};

}  // namespace

// --- core ---------------------------------------------------------------------

void core_probe(Context& ctx, const Scenario& s) {
  Rng rng(s.seed);
  const core::Pack pack = core::Pack::uniform_random(
      s.n, s.m_inf, s.m_sup,
      std::make_shared<speedup::SyntheticModel>(s.sequential_fraction), rng);
  const checkpoint::Model resilience(s.resilience_params());

  {
    core::ExpectedTimeModel model(pack, resilience);
    core::TrEvaluator evaluator(model, s.p);
    const double heap_before = heap_in_use_mb();
    Span cold("core.optimal_schedule", 0);
    const std::vector<int> sigma = core::optimal_schedule(model, s.p, evaluator);
    ctx.report.metric("core.alg1_cold_s", cold.stop(), "s");
    ctx.report.metric("core.alg1_rss_mb", heap_in_use_mb() - heap_before, "MB");

    std::vector<double> warm;
    for (int i = 0; i < 5; ++i) {
      Span span("core.optimal_schedule", 1);
      const bool same = core::optimal_schedule(model, s.p, evaluator) == sigma;
      warm.push_back(span.stop());
      ctx.report.attempt();
      if (!same) ctx.report.fail("warm Algorithm 1 changed the schedule");
    }
    ctx.report.metric("core.alg1_warm_s", median(warm), "s");

    double depth_sum = 0.0;
    std::size_t depth_max = 0;
    for (int task = 0; task < s.n; ++task) {
      const std::size_t depth = evaluator.column(task, 1.0).prefix().size();
      depth_sum += static_cast<double>(depth);
      depth_max = std::max(depth_max, depth);
    }
    ctx.report.metric("core.col_depth_mean", depth_sum / s.n, "count");
    ctx.report.metric("core.col_depth_max", static_cast<double>(depth_max),
                      "count");
  }

  // Eq. 4 batches over whole even rows of a few tasks: first on a fresh
  // model (every coefficient filled), then again on the now-warm rows.
  core::ExpectedTimeModel model(pack, resilience);
  const int tasks = std::min(s.n, 64);
  const int row = s.p / 2;
  const double elements = static_cast<double>(tasks) * row;
  std::vector<double> first(static_cast<std::size_t>(tasks) * row);
  std::vector<double> again(first.size());
  Span cold("core.probe_many", 0);
  for (int task = 0; task < tasks; ++task)
    model.probe_many(task, 0, row, 0.5,
                     first.data() + static_cast<std::size_t>(task) * row);
  ctx.report.metric("core.eq4_cold_ns", 1e9 * cold.stop() / elements, "ns");
  std::vector<double> warm;
  for (int pass = 0; pass < 5; ++pass) {
    Span span("core.probe_many", 1);
    for (int task = 0; task < tasks; ++task)
      model.probe_many(task, 0, row, 0.5,
                       again.data() + static_cast<std::size_t>(task) * row);
    warm.push_back(1e9 * span.stop() / elements);
  }
  ctx.report.metric("core.eq4_warm_ns", median(warm), "ns");
  ctx.report.attempt();
  if (again != first) ctx.report.fail("warm Eq. 4 rows differ from cold ones");
}

CfgLoop cfg_loop(Context& ctx, const std::vector<Scenario>& points,
                 std::size_t reps, std::size_t counted) {
  const std::vector<exp::ConfigSpec> plain = exp::paper_curves();
  std::vector<exp::ConfigSpec> profiled = plain;
  // The baseline keeps its spelling so evaluate() reuses the cell's
  // cached baseline run, as run_cell does; a profiled copy is run
  // separately, for the counters only.
  for (std::size_t c = 1; c < profiled.size(); ++c)
    profiled[c].engine.profile = true;
  exp::ConfigSpec baseline_profiled = plain.front();
  baseline_profiled.engine.profile = true;

  CfgLoop loop;
  loop.seconds.resize(plain.size());
  const auto count = [&loop](const core::RunResult& r) {
    core::EngineProfile& sum = loop.phases;
    sum.algorithm1_seconds += r.profile.algorithm1_seconds;
    sum.dispatch_seconds += r.profile.dispatch_seconds;
    sum.scan_seconds += r.profile.scan_seconds;
    sum.commit_seconds += r.profile.commit_seconds;
    sum.events += r.profile.events;
    sum.heuristic_calls += r.profile.heuristic_calls;
    sum.commits += r.profile.commits;
    loop.redistributions += r.redistributions;
  };

  std::size_t cell = 0;
  for (const Scenario& point : points)
    for (std::size_t rep = 0; rep < reps; ++rep, ++cell) {
      Span build("exp.CellWorkspace", cell);
      exp::CellWorkspace workspace(point, rep);
      double total = build.stop();
      CellResult composed;
      for (std::size_t c = 0; c < plain.size(); ++c) {
        Span span((std::string("core.cfg.") + kPaperNames[c]).c_str(), cell);
        const CellResult one = workspace.evaluate({profiled[c]});
        const double seconds = span.stop();
        loop.seconds[c].push_back(seconds);
        total += seconds;
        composed.baseline = one.baseline;
        composed.results.push_back(one.results.front());
        if (cell < counted && c > 0) count(one.results.front());
      }
      loop.cell_s.push_back(total);
      ctx.report.attempt();
      std::string why;
      if (!cell_ok(composed, plain.size(), why))
        ctx.report.fail("per-configuration cell " + std::to_string(cell) +
                        ": " + why);
      loop.digests.push_back(cell_digest(composed));
      if (cell < counted) {
        Span span("core.count_baseline", cell);
        const core::RunResult r =
            workspace.evaluate({baseline_profiled}).results.front();
        if (r.makespan != composed.baseline)
          ctx.report.fail("profiled baseline differs from the cached one");
        count(r);
      }
    }
  return loop;
}

void report_cfg_loop(Context& ctx, const CfgLoop& loop) {
  for (std::size_t c = 0; c < loop.seconds.size(); ++c)
    ctx.report.metric(std::string("core.cfg.") + kPaperNames[c] + "_s",
                      median(loop.seconds[c]), "s");
  const core::EngineProfile& p = loop.phases;
  ctx.report.metric("core.phase.alg1_s", p.algorithm1_seconds, "s");
  ctx.report.metric("core.phase.dispatch_s", p.dispatch_seconds, "s");
  ctx.report.metric("core.phase.scan_s", p.scan_seconds, "s");
  ctx.report.metric("core.phase.commit_s", p.commit_seconds, "s");
  ctx.report.metric("core.count.events", static_cast<double>(p.events),
                    "count");
  ctx.report.metric("core.count.heuristic_calls",
                    static_cast<double>(p.heuristic_calls), "count");
  ctx.report.metric("core.count.commits", static_cast<double>(p.commits),
                    "count");
  ctx.report.metric("core.count.redistributions",
                    static_cast<double>(loop.redistributions), "count");
}

// --- exp and util ---------------------------------------------------------------

void exp_probe(Context& ctx, const Campaign& campaign, std::size_t workers) {
  namespace fs = std::filesystem;
  const std::vector<Scenario> points = exp::campaign_points(campaign);
  const std::vector<exp::ConfigSpec>& configs = campaign.configs;
  const std::size_t threads = ctx.threads;

  // One thread by hand: workspace construction vs evaluation, timed
  // with plain clock reads (a span per call would tax the loop) and
  // recorded as spans after it.
  const auto by_hand = [&] {
    std::vector<Clock::time_point> marks;
    marks.reserve(3 * campaign.cells());
    for (const Scenario& point : points)
      for (int rep = 0; rep < point.runs; ++rep) {
        marks.push_back(Clock::now());
        exp::CellWorkspace workspace(point, static_cast<std::uint64_t>(rep));
        marks.push_back(Clock::now());
        (void)workspace.evaluate(configs);
        marks.push_back(Clock::now());
      }
    double workspace_s = 0.0, compute_s = 0.0;
    Tracer& tracer = Tracer::instance();
    for (std::size_t i = 0; i < marks.size(); i += 3) {
      workspace_s += std::chrono::duration<double>(marks[i + 1] - marks[i]).count();
      compute_s += std::chrono::duration<double>(marks[i + 2] - marks[i + 1]).count();
      tracer.record("exp.CellWorkspace", marks[i], marks[i + 1], i / 3);
      tracer.record("core.evaluate", marks[i + 1], marks[i + 2], i / 3);
    }
    return std::make_pair(workspace_s, compute_s);
  };
  exp::GridRunOptions one;
  one.threads = 1;
  exp::GridRunOptions one_io = one;
  one_io.jsonl_path = "probe_1.jsonl";
  exp::GridRunOptions many = one_io;
  many.threads = threads;
  many.jsonl_path = "probe_t.jsonl";
  std::vector<exp::PointResult> aggregated;
  const auto grid = [&](const exp::GridRunOptions& options) {
    Span span("exp.run_grid", options.threads);
    aggregated = exp::run_grid(points, configs, options);
    return span.stop();
  };

  // Rounds of the four runs, in alternating order so that a drift of
  // the machine's speed cancels out of the difference within a round.
  std::vector<double> workspace_s, compute_s, orchestrate_s, parallel_eff;
  for (int round = 0; round < kExpRounds; ++round) {
    std::pair<double, double> hand;
    double bare = 0.0, io = 0.0, parallel = 0.0;
    const std::function<void()> steps[] = {
        [&] { hand = by_hand(); }, [&] { bare = grid(one); },
        [&] { io = grid(one_io); }, [&] { parallel = grid(many); }};
    if (round % 2 == 0)
      for (const auto& step : steps) step();
    else
      for (auto step = std::rbegin(steps); step != std::rend(steps); ++step)
        (*step)();
    workspace_s.push_back(hand.first);
    compute_s.push_back(hand.second);
    orchestrate_s.push_back(bare - hand.first - hand.second);
    parallel_eff.push_back(io / (static_cast<double>(threads) * parallel));
  }

  const std::string artifact = read_file(one_io.jsonl_path);
  ctx.report.attempt(5);
  if (read_file(many.jsonl_path) != artifact)
    ctx.report.fail("run_grid artifacts differ between 1 and " +
                    std::to_string(threads) + " threads");
  ctx.report.metric("exp.workspace_s", median(workspace_s), "s");
  ctx.report.metric("exp.compute_s", median(compute_s), "s");
  // A difference of two runs of the same cells: at or below zero it
  // measured noise, not the layer.
  const double orchestrate = median(orchestrate_s);
  if (!(orchestrate > 0.0))
    ctx.report.fail("exp.orchestrate_s came out " + std::to_string(orchestrate) +
                    " s: the runs it subtracts are too noisy");
  ctx.report.metric("exp.orchestrate_s", orchestrate, "s");
  ctx.report.metric("exp.jsonl_bytes", static_cast<double>(artifact.size()),
                    "count");
  ctx.report.metric("util.parallel_eff", median(parallel_eff), "ratio");

  const std::vector<double> blocks =
      deal_pass(points, configs, workers, threads, "probe_d.jsonl");
  ctx.report.metric("exp.run_block_ms", 1e3 * median(blocks), "ms");
  Span merge("exp.merge_deal_shards");
  exp::merge_deal_shards(points, configs, workers, "probe_d.jsonl");
  ctx.report.metric("exp.finalize_s", merge.stop(), "s");
  if (read_file("probe_d.jsonl") != artifact)
    ctx.report.fail("the dealt artifact differs from run_grid's");

  exp::JsonlCoverage coverage;
  Span summarize("exp.summarize_jsonl");
  const std::vector<exp::PointResult> summary =
      exp::summarize_jsonl(campaign, one_io.jsonl_path, &coverage);
  ctx.report.metric("exp.summarize_s", summarize.stop(), "s");
  bool same = coverage.cells_present == campaign.cells() &&
              summary.size() == aggregated.size();
  for (std::size_t i = 0; same && i < summary.size(); ++i)
    same = summary[i].baseline_makespan.count() ==
               aggregated[i].baseline_makespan.count() &&
           summary[i].baseline_makespan.mean() ==
               aggregated[i].baseline_makespan.mean();
  if (!same) ctx.report.fail("summarize_jsonl disagrees with run_grid");

  exp::GridRunOptions resume = one_io;
  resume.resume = true;
  Span scan("exp.run_grid_resume");
  (void)exp::run_grid(points, configs, resume);
  ctx.report.metric("exp.resume_scan_s", scan.stop(), "s");
  if (read_file(one_io.jsonl_path) != artifact)
    ctx.report.fail("resuming a complete artifact changed it");

  for (const char* path : {"probe_1.jsonl", "probe_t.jsonl", "probe_d.jsonl"})
    fs::remove(path);
}

void small_exp_probe(Context& ctx) {
  exp_probe(ctx, grid_campaign(ctx.options, ctx.options.tiny ? 5 : 250), 2);
}

// --- serve ----------------------------------------------------------------------

void serve_probe(Context& ctx, const ServeMix& mix, const ServeRun& run) {
  std::vector<double> parse_s;
  const std::size_t lines = std::min<std::size_t>(mix.requests, 64);
  for (int pass = 0; pass < 20; ++pass)
    for (std::size_t i = 0; i < lines; ++i) {
      const std::string line = mix.line(i);
      serve::Request request;
      std::string error;
      Span span("serve.parse_request", i);
      const bool parsed = serve::parse_request(line, request, error);
      parse_s.push_back(span.stop());
      if (!parsed) ctx.report.fail("parse_request: " + error);
    }
  ctx.report.metric("serve.parse_us", 1e6 * median(parse_s), "us");

  // A private Service: the first execute of a key misses, the second
  // hits; render_response must rebuild the same bytes from the cell.
  serve::Service service(mix.keys() + 1, 1);
  std::vector<double> miss, hit, render;
  std::vector<std::pair<std::size_t, std::size_t>> seen;
  for (std::size_t i = 0; i < mix.requests && seen.size() < 4; ++i) {
    const ServeMix::Pick pick = mix.pick(i);
    if (std::find(seen.begin(), seen.end(),
                  std::make_pair(pick.scenario, pick.rep)) != seen.end())
      continue;
    seen.emplace_back(pick.scenario, pick.rep);
    serve::Request request;
    std::string error;
    if (!serve::parse_request(mix.line(i), request, error)) continue;
    Span cold("serve.execute", i);
    const std::string first = service.execute(request);
    miss.push_back(cold.stop());
    Span warm("serve.execute", i);
    const std::string second = service.execute(request);
    hit.push_back(warm.stop());
    ctx.report.attempt(2);
    if (second != first) ctx.report.fail("a pool hit answered differently");
    if (render.empty()) {
      exp::CellWorkspace workspace(request.scenario, request.rep);
      const CellResult cell = workspace.evaluate(request.configs);
      for (int pass = 0; pass < 50; ++pass) {
        Span span("serve.render_response", i);
        const std::string rendered = serve::render_response(request, cell);
        render.push_back(span.stop());
        if (pass == 0 && rendered != first)
          ctx.report.fail("render_response differs from Service::execute");
      }
    }
  }
  ctx.report.metric("serve.exec_miss_ms", 1e3 * median(miss), "ms");
  ctx.report.metric("serve.exec_hit_ms", 1e3 * median(hit), "ms");
  ctx.report.metric("serve.render_us", 1e6 * median(render), "us");

  ctx.report.metric("serve.ping_rtt_us", 1e6 * median(run.ping_s), "us");
  const double lookups =
      static_cast<double>(run.stats.pool.hits + run.stats.pool.misses);
  ctx.report.metric("serve.pool_hit_ratio",
                    static_cast<double>(run.stats.pool.hits) / lookups,
                    "ratio");
  ctx.report.metric("serve.batch_mean",
                    static_cast<double>(run.stats.requests) /
                        static_cast<double>(run.stats.batches),
                    "count");
  ctx.report.metric("harness.gen_lag_ms", 1e3 * tail(run.lag_s).first, "ms");
}

}  // namespace perfbench
