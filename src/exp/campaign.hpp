#pragma once

/// \file campaign.hpp
/// Whole-grid campaign orchestration (paper section 6 at scale).
///
/// A campaign is a declarative grid — a base Scenario crossed with sweep
/// axes over n, p, MTBF, fault law, checkpoint cost and period rule —
/// times a configuration set. The orchestrator flattens every
/// (point, repetition) pair of the grid into one global work queue over
/// util::parallel_for, so a full-grid reproduction keeps every core busy
/// across point boundaries instead of draining one point at a time.
///
/// Determinism contract: a cell's workload and fault streams derive from
/// (point seed, repetition) alone (exp::run_cell), cells are folded into
/// point statistics in repetition order, and the JSONL sink commits
/// records in cell order — so both the aggregates and the output file are
/// byte-identical for any COREDIS_THREADS value.
///
/// Resume contract: with a JSONL path and resume=true, the orchestrator
/// validates the file's header (a fingerprint over every point scenario
/// and the configuration names), accepts the longest valid prefix of cell
/// records, drops a truncated or corrupted trailing record, recomputes
/// only the missing cells, and appends them in order — the final file is
/// byte-for-byte the one an uninterrupted run would have produced.
///
/// Campaign files extend the scenario-file format (scenario_file.hpp):
///
///   # base knobs: any scenario key, single-valued
///   runs = 8
///   seed = 42
///   # sweep axes: comma-separated lists over the grid keys
///   n = 100, 200
///   mtbf_years = 5, 25, 100
///   fault_law = exponential, weibull
///   arrival_law = poisson        # online workload (none|poisson|bulk|trace)
///   load_factor = 0.25, 1, 4     # offered load rho, sweepable
///   # configuration set (default: paper)
///   configs = paper
///   # or registry policy strings (policy/registry.hpp; alias: policy)
///   policy = "bandit(window=50, explore=0.1), malleable"
///
/// `configs` (aliases `policy`, `policies`) accepts `paper` (the six
/// section-6.2 curves), `fault_free` (the Figure 5-6 trio), `online`
/// (the malleable/EASY/FCFS arrival trio), or a comma list mixing the
/// preset names baseline, ig_greedy, ig_local, stf_greedy, stf_local,
/// rc_fault_free, malleable, easy, fcfs with registry policy strings
/// such as `pack(end=greedy)` or `reshape(gain=0.8)` (commas inside
/// parentheses do not split; surrounding quotes optional).

#include <cstddef>
#include <cstdint>
#include <fstream>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "exp/runner.hpp"
#include "exp/scenario.hpp"
#include "exp/storage.hpp"

namespace coredis::exp {

class CostModel;

/// Declarative parameter grid: a base scenario plus sweep axes. An empty
/// axis keeps the base value. Axes nest n (outermost) -> p -> mtbf_years
/// -> fault_laws -> checkpoint_unit_costs -> period_rules ->
/// arrival_laws -> load_factors (innermost); point(i) decodes i in that
/// mixed-radix order, so the flattened grid walks the innermost axis
/// fastest.
struct ScenarioGrid {
  Scenario base;
  std::vector<int> n;
  std::vector<int> p;
  std::vector<double> mtbf_years;
  std::vector<FaultLaw> fault_laws;
  std::vector<double> checkpoint_unit_costs;
  std::vector<checkpoint::PeriodRule> period_rules;
  std::vector<extensions::ArrivalLaw> arrival_laws;
  std::vector<double> load_factors;

  /// Number of grid points (product of axis sizes; 1 with no axes).
  [[nodiscard]] std::size_t points() const noexcept;

  /// Materialize grid point `index` (precondition: index < points()).
  [[nodiscard]] Scenario point(std::size_t index) const;

  /// Human-readable "key=value ..." over the varying axes of point
  /// `index` ("base" when the grid has no axes).
  [[nodiscard]] std::string point_label(std::size_t index) const;
};

/// A grid crossed with the configurations to evaluate at every point.
struct Campaign {
  ScenarioGrid grid;
  std::vector<ConfigSpec> configs;

  /// Total (point, repetition) cells: points() * base.runs.
  [[nodiscard]] std::size_t cells() const noexcept;
};

/// Parse the extended scenario-file text above into a Campaign, starting
/// from `base` for unspecified keys. Throws std::runtime_error naming the
/// offending line ("campaign line N: ... in '...'") on malformed input,
/// and validates every materialized grid point.
[[nodiscard]] Campaign parse_campaign(const std::string& text,
                                      Scenario base = {});

/// Load a campaign file (see parse_campaign). Throws std::runtime_error
/// on I/O failure.
[[nodiscard]] Campaign load_campaign(const std::string& path,
                                     Scenario base = {});

struct GridRunOptions {
  /// Stream each completed cell as one JSON record to this file (plus a
  /// leading header record); empty keeps results in memory only.
  std::string jsonl_path;
  /// Reuse the valid prefix of jsonl_path instead of recomputing it; see
  /// the resume contract above. A missing file degrades to a fresh run.
  bool resume = false;
  /// Worker override for the global queue (0 = default_thread_count()).
  std::size_t threads = 0;
  /// Cost model that orders cells longest-predicted-first (DESIGN.md
  /// section 12.1) and is refined from completed-cell timings. Null
  /// builds a fresh per-run model; a caller-owned model (must outlive
  /// the run and cover the same grid points) accumulates refinement
  /// across runs — a DealWorker threads one model through every block
  /// it computes.
  CostModel* cost_model = nullptr;
};

/// Run every (point, repetition) cell of `points` x `configs` through one
/// global work queue and fold the cells into per-point statistics. The
/// aggregates are exactly what run_point would report for each scenario —
/// same seeds, same fold order — independent of thread count.
[[nodiscard]] std::vector<PointResult> run_grid(
    const std::vector<Scenario>& points, const std::vector<ConfigSpec>& configs,
    const GridRunOptions& options = {});

/// run_grid over the campaign's materialized grid points.
[[nodiscard]] std::vector<PointResult> run_campaign(
    const Campaign& campaign, const GridRunOptions& options = {});

// --- distributed campaigns (DESIGN.md sections 7.4 and 12.3) -------------
//
// Every multi-process run is a deal. Worker k of W owns one worker file,
// shard_path(out, {k, W}), under a worker header carrying the grid
// fingerprint and its identity. It appends one record per computed cell
// — global cell index, exact single-process bytes — for every block of
// cells it is handed: cost-balanced blocks dealt longest-predicted-first
// by the --workers coordinator, or one fixed block, shard_range(cells,
// {k, W}), for an external launcher's --worker k/W. Blocks land in
// completion order and a re-dealt block may appear in two files, so
// merge_deal_shards indexes records by cell, dedupes (duplicates are
// byte-identical: cells are deterministic in (point seed, rep)), and
// emits in global cell order — cmp-identical to the single-process
// artifact.

/// One worker of a distributed campaign: worker `index` of `count`.
struct ShardSpec {
  std::size_t index = 0;
  std::size_t count = 1;
};

/// Parse "<index>/<count>" (e.g. "1/4"); throws std::runtime_error on
/// malformed specs and on index >= count.
[[nodiscard]] ShardSpec parse_shard_spec(const std::string& text);

/// The fixed block of worker `shard` under --worker: a contiguous global
/// cell range [begin, end), balanced (sizes differ by at most one) and
/// tiling [0, total_cells) exactly.
[[nodiscard]] std::pair<std::size_t, std::size_t> shard_range(
    std::size_t total_cells, const ShardSpec& shard);

/// The worker's own JSONL file, derived from the final artifact path:
/// "out.jsonl" -> "out.shard1of4.jsonl".
[[nodiscard]] std::string shard_path(const std::string& jsonl_path,
                                     const ShardSpec& shard);

/// The campaign's materialized grid points (grid.point(i) for every i) —
/// the form the cost model and DealWorker constructors take.
[[nodiscard]] std::vector<Scenario> campaign_points(const Campaign& campaign);

/// One contiguous block of global cells handed to a worker.
struct DealBlock {
  std::size_t begin = 0;
  std::size_t end = 0;  ///< exclusive
};

/// Cut [0, queue.size()) into contiguous blocks tiling the cell space,
/// each carrying roughly 1/(workers * 8) of the model's total predicted
/// cost (never splitting a cell), returned longest-predicted-first —
/// the deal order that bounds the makespan tail by one block.
[[nodiscard]] std::vector<DealBlock> plan_deal_blocks(const CostModel& model,
                                                      const CellQueue& queue,
                                                      std::size_t workers);

/// Worker-side session of a distributed campaign: opens (or, with
/// options.resume, adopts the valid records of) the worker file, then
/// appends one record per cell for every block it runs. Each record line
/// is flushed before run_block returns, so an ack sent after it covers
/// bytes that are actually in the file; a torn line can only ever be the
/// file's tail, which a resume truncates. The session remembers which
/// cells its file holds, so a block computes only the cells still
/// missing from it.
class DealWorker {
 public:
  DealWorker(std::vector<Scenario> points, std::vector<ConfigSpec> configs,
             std::size_t worker, std::size_t workers,
             const GridRunOptions& options);
  DealWorker(const DealWorker&) = delete;
  DealWorker& operator=(const DealWorker&) = delete;
  ~DealWorker();

  /// Valid records adopted from a resumed worker file (duplicates count).
  [[nodiscard]] std::size_t resumed_records() const noexcept;

  /// Compute the cells of [begin, end) that the worker file does not hold
  /// yet and append their records, longest-predicted-first over
  /// options.threads; records retire in cell order regardless. Throws on
  /// I/O failure (the coordinator treats a dead worker and a thrown
  /// worker alike: re-deal).
  void run_block(std::size_t begin, std::size_t end);

 private:
  std::vector<Scenario> points_;
  std::vector<ConfigSpec> configs_;
  GridRunOptions options_;
  CellQueue queue_;
  std::unique_ptr<CostModel> model_;
  std::vector<bool> present_;  ///< cells the worker file holds
  std::ofstream sink_;
  std::string path_;
  std::size_t resumed_records_ = 0;
};

/// --worker k/W: DealWorker k of W running its fixed block,
/// shard_range(cells, shard), into shard_path(options.jsonl_path, shard).
/// With options.resume it computes only the cells its file lacks.
/// Throws std::runtime_error when options.jsonl_path is empty.
void run_campaign_shard(const Campaign& campaign, const ShardSpec& shard,
                        const GridRunOptions& options);

/// Where a cell's first valid record sits among a distributed campaign's
/// worker files.
struct DealRecord {
  std::size_t worker = 0;
  std::uintmax_t offset = 0;  ///< byte offset of the record line
  std::size_t length = 0;     ///< line length without '\n'
  bool present = false;       ///< false: no worker file holds the cell
};

/// Index every cell's first valid record across the `workers` worker
/// files of `jsonl_path`: pass 1 of merge_deal_shards, and what a resumed
/// coordinator deals around. Validates every header and record, skips a
/// torn trailing line per file, and counts a missing file as empty.
[[nodiscard]] std::vector<DealRecord> index_deal_shards(
    const std::vector<Scenario>& points, const std::vector<ConfigSpec>& configs,
    std::size_t workers, const std::string& jsonl_path);

/// Reassemble `workers` worker files into the byte-identical
/// single-process artifact at jsonl_path. Publication is crash-atomic
/// (temp sibling + fsync + rename), so a killed merge leaves the final
/// name absent or complete. Refuses loudly when a worker file is
/// missing or from another grid, and when cells are missing — naming
/// the first missing cell and the --worker k/W whose fixed block holds
/// it; on failure the partial output is removed.
void merge_deal_shards(const std::vector<Scenario>& points,
                       const std::vector<ConfigSpec>& configs,
                       std::size_t workers, const std::string& jsonl_path);

/// merge_deal_shards over the campaign's materialized grid.
void merge_campaign_deal_shards(const Campaign& campaign, std::size_t workers,
                                const std::string& jsonl_path);

/// How much of a campaign a JSONL results file covers.
struct JsonlCoverage {
  std::size_t cells_present = 0;  ///< valid records (always a prefix)
  std::size_t cells_total = 0;    ///< campaign.cells()
  bool dropped_corrupt_tail = false;  ///< a truncated last record existed
};

/// Aggregate the valid prefix of a campaign results file into per-point
/// statistics without running anything. Points not yet reached have zero
/// repetition counts. Throws std::runtime_error when the file cannot be
/// read, its header does not match the campaign, or a record is corrupt
/// anywhere but the tail.
[[nodiscard]] std::vector<PointResult> summarize_jsonl(
    const Campaign& campaign, const std::string& path,
    JsonlCoverage* coverage = nullptr);

/// Per-point summary table: one row per grid point (label, repetitions,
/// baseline makespan in days, then each configuration's mean normalized
/// makespan; "-" for points with no data yet).
[[nodiscard]] std::string render_campaign_table(
    const Campaign& campaign, const std::vector<PointResult>& points);

}  // namespace coredis::exp
