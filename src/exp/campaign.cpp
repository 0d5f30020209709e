#include "exp/campaign.hpp"

#include <algorithm>
#include <cctype>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <functional>
#include <memory>
#include <mutex>
#include <numeric>
#include <sstream>
#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>

#include "exp/cost_model.hpp"
#include "exp/detail/jsonl.hpp"
#include "exp/scenario_file.hpp"
#include "util/atomic_file.hpp"
#include "util/contracts.hpp"
#include "util/parallel.hpp"
#include "util/table.hpp"
#include "util/units.hpp"

namespace coredis::exp {

namespace {

// --- campaign-file parsing ------------------------------------------------

using detail::expect_token;
using detail::json_escape;
using detail::scan_double;
using detail::scan_quoted;
using detail::scan_size;
using detail::trim;

[[noreturn]] void fail_line(std::size_t number, const std::string& raw,
                            const std::string& why) {
  throw std::runtime_error("campaign line " + std::to_string(number) + ": " +
                           why + " in '" + raw + "'");
}

std::vector<std::string> split_list(const std::string& value) {
  std::vector<std::string> items;
  std::size_t start = 0;
  for (;;) {
    const auto comma = value.find(',', start);
    items.push_back(trim(comma == std::string::npos
                             ? value.substr(start)
                             : value.substr(start, comma - start)));
    if (comma == std::string::npos) break;
    start = comma + 1;
  }
  return items;
}

enum class AxisKey {
  None,
  N,
  P,
  Mtbf,
  FaultLaw,
  CheckpointCost,
  PeriodRule,
  ArrivalLaw,
  LoadFactor
};

AxisKey axis_of(const std::string& key) {
  if (key == "n") return AxisKey::N;
  if (key == "p") return AxisKey::P;
  if (key == "mtbf_years") return AxisKey::Mtbf;
  if (key == "fault_law") return AxisKey::FaultLaw;
  if (key == "checkpoint_unit_cost" || key == "c") return AxisKey::CheckpointCost;
  if (key == "period_rule") return AxisKey::PeriodRule;
  if (key == "arrival_law") return AxisKey::ArrivalLaw;
  if (key == "load_factor" || key == "load") return AxisKey::LoadFactor;
  return AxisKey::None;
}

void clear_axis(ScenarioGrid& grid, AxisKey axis) {
  switch (axis) {
    case AxisKey::N: grid.n.clear(); break;
    case AxisKey::P: grid.p.clear(); break;
    case AxisKey::Mtbf: grid.mtbf_years.clear(); break;
    case AxisKey::FaultLaw: grid.fault_laws.clear(); break;
    case AxisKey::CheckpointCost: grid.checkpoint_unit_costs.clear(); break;
    case AxisKey::PeriodRule: grid.period_rules.clear(); break;
    case AxisKey::ArrivalLaw: grid.arrival_laws.clear(); break;
    case AxisKey::LoadFactor: grid.load_factors.clear(); break;
    case AxisKey::None: break;
  }
}

/// Parse a sweep list by running every element through the single-value
/// scenario semantics (apply_scenario_key on a scratch copy), then reading
/// the field back — axes and scalars cannot drift apart.
void set_axis(ScenarioGrid& grid, AxisKey axis, const std::string& key,
              const std::string& value) {
  clear_axis(grid, axis);
  for (const std::string& element : split_list(value)) {
    if (element.empty()) throw std::runtime_error("empty element in list");
    Scenario scratch = grid.base;
    apply_scenario_key(scratch, key, element);
    switch (axis) {
      case AxisKey::N: grid.n.push_back(scratch.n); break;
      case AxisKey::P: grid.p.push_back(scratch.p); break;
      case AxisKey::Mtbf: grid.mtbf_years.push_back(scratch.mtbf_years); break;
      case AxisKey::FaultLaw:
        grid.fault_laws.push_back(scratch.fault_law);
        break;
      case AxisKey::CheckpointCost:
        grid.checkpoint_unit_costs.push_back(scratch.checkpoint_unit_cost);
        break;
      case AxisKey::PeriodRule:
        grid.period_rules.push_back(scratch.period_rule);
        break;
      case AxisKey::ArrivalLaw:
        grid.arrival_laws.push_back(scratch.arrival_law);
        break;
      case AxisKey::LoadFactor:
        grid.load_factors.push_back(scratch.load_factor);
        break;
      case AxisKey::None: break;
    }
  }
}

std::string format_g(double value) {
  char buffer[40];
  std::snprintf(buffer, sizeof buffer, "%g", value);
  return buffer;
}

// --- JSONL records --------------------------------------------------------
//
// The file is self-generated and line-oriented: one header record, then
// one record per cell, committed strictly in cell order. Doubles use
// "%.17g" so parsing a record reproduces the exact bits that were
// simulated — a resumed campaign aggregates to the same statistics as an
// uninterrupted one.

std::string format_double17(double value) {
  char buffer[40];
  std::snprintf(buffer, sizeof buffer, "%.17g", value);
  return buffer;
}

std::uint64_t fingerprint_mix(std::uint64_t hash, const std::string& text) {
  for (const unsigned char c : text) {
    hash ^= c;
    hash *= 1099511628211ULL;
  }
  hash ^= 0xFFU;  // separator so adjacent strings cannot alias
  hash *= 1099511628211ULL;
  return hash;
}

std::uint64_t grid_fingerprint(const std::vector<Scenario>& points,
                               const std::vector<ConfigSpec>& configs) {
  std::uint64_t hash = 14695981039346656037ULL;
  for (const Scenario& point : points)
    hash = fingerprint_mix(hash, format_scenario(point));
  for (const ConfigSpec& config : configs)
    hash = fingerprint_mix(hash, config.name);
  return hash;
}

std::size_t total_cells(const std::vector<Scenario>& points) {
  std::size_t cells = 0;
  for (const Scenario& point : points)
    cells += static_cast<std::size_t>(point.runs);
  return cells;
}

std::string fingerprint_hex(const std::vector<Scenario>& points,
                            const std::vector<ConfigSpec>& configs) {
  char fingerprint[24];
  std::snprintf(fingerprint, sizeof fingerprint, "%016llx",
                static_cast<unsigned long long>(
                    grid_fingerprint(points, configs)));
  return fingerprint;
}

void append_config_names(std::ostringstream& out,
                         const std::vector<ConfigSpec>& configs) {
  out << "\"configs\":[";
  for (std::size_t c = 0; c < configs.size(); ++c) {
    if (c != 0) out << ',';
    out << '"' << json_escape(configs[c].name) << '"';
  }
  out << "]}";
}

std::string header_line(const std::vector<Scenario>& points,
                        const std::vector<ConfigSpec>& configs) {
  std::ostringstream out;
  out << "{\"coredis_campaign\":1,\"fingerprint\":\""
      << fingerprint_hex(points, configs)
      << "\",\"points\":" << points.size()
      << ",\"cells\":" << total_cells(points) << ",";
  append_config_names(out, configs);
  return out.str();
}

/// A worker file's header: deliberately a different record shape from
/// the final artifact's, so the two can never be taken for one another.
/// It carries the grid fingerprint and the worker's identity but no cell
/// range: the worker's cells are whatever blocks it was handed.
std::string deal_header_line(const std::vector<Scenario>& points,
                             const std::vector<ConfigSpec>& configs,
                             std::size_t worker, std::size_t workers) {
  std::ostringstream out;
  out << "{\"coredis_campaign_deal\":1,\"fingerprint\":\""
      << fingerprint_hex(points, configs) << "\",\"worker\":" << worker
      << ",\"workers\":" << workers << ",\"cells\":" << total_cells(points)
      << ",";
  append_config_names(out, configs);
  return out.str();
}

/// Render one cell record into `line` (cleared first). The buffer is the
/// caller's — the grid runner hands each worker a reusable thread-local
/// string, so streaming a campaign allocates no per-cell stringstream.
void cell_line(std::size_t cell, std::size_t point, std::size_t rep,
               const CellResult& result,
               const std::vector<ConfigSpec>& configs, std::string& line) {
  line.clear();
  line += "{\"cell\":";
  line += std::to_string(cell);
  line += ",\"point\":";
  line += std::to_string(point);
  line += ",\"rep\":";
  line += std::to_string(rep);
  line += ",\"baseline\":";
  line += format_double17(result.baseline);
  line += ",\"configs\":[";
  for (std::size_t c = 0; c < configs.size(); ++c) {
    if (c != 0) line += ',';
    const core::RunResult& r = result.results[c];
    line += "{\"name\":\"";
    line += json_escape(configs[c].name);
    line += "\",\"makespan\":";
    line += format_double17(r.makespan);
    line += ",\"normalized\":";
    line += format_double17(r.makespan / result.baseline);
    line += ",\"redistributions\":";
    line += std::to_string(r.redistributions);
    line += ",\"effective_faults\":";
    line += std::to_string(r.faults_effective);
    line += '}';
  }
  line += "]}";
}

// Strict scanners (exp/detail/jsonl.hpp) for the exact shape emitted
// above; any deviation marks the record as corrupt.

struct ParsedCell {
  std::size_t cell = 0;
  std::size_t point = 0;
  std::size_t rep = 0;
  CellResult result;
};

bool parse_cell_line(const std::string& line,
                     const std::vector<ConfigSpec>& configs,
                     ParsedCell& out) {
  std::size_t pos = 0;
  double normalized_ignored = 0.0;
  if (!expect_token(line, pos, "{\"cell\":")) return false;
  if (!scan_size(line, pos, out.cell)) return false;
  if (!expect_token(line, pos, ",\"point\":")) return false;
  if (!scan_size(line, pos, out.point)) return false;
  if (!expect_token(line, pos, ",\"rep\":")) return false;
  if (!scan_size(line, pos, out.rep)) return false;
  if (!expect_token(line, pos, ",\"baseline\":")) return false;
  if (!scan_double(line, pos, out.result.baseline)) return false;
  if (!expect_token(line, pos, ",\"configs\":[")) return false;
  out.result.results.assign(configs.size(), core::RunResult{});
  for (std::size_t c = 0; c < configs.size(); ++c) {
    if (c != 0 && !expect_token(line, pos, ",")) return false;
    std::string name;
    if (!expect_token(line, pos, "{\"name\":")) return false;
    if (!scan_quoted(line, pos, name)) return false;
    if (name != configs[c].name) return false;
    core::RunResult& r = out.result.results[c];
    std::size_t integer = 0;
    if (!expect_token(line, pos, ",\"makespan\":")) return false;
    if (!scan_double(line, pos, r.makespan)) return false;
    if (!expect_token(line, pos, ",\"normalized\":")) return false;
    if (!scan_double(line, pos, normalized_ignored)) return false;
    if (!expect_token(line, pos, ",\"redistributions\":")) return false;
    if (!scan_size(line, pos, integer)) return false;
    r.redistributions = static_cast<int>(integer);
    if (!expect_token(line, pos, ",\"effective_faults\":")) return false;
    if (!scan_size(line, pos, integer)) return false;
    r.faults_effective = static_cast<int>(integer);
    if (!expect_token(line, pos, "}")) return false;
  }
  if (!expect_token(line, pos, "]}")) return false;
  return pos == line.size();
}

// --- the in-order committer and the resume scans ---------------------------

/// Serializes out-of-order cell completions into in-cell-order
/// retirement: append the record to the JSONL sink (when streaming) and
/// fold the cell into the per-point aggregates. Cells marked in `done`
/// (already in the sink's file) are stepped over. A cell that arrives
/// early is handed to the ResultSpill as its *serialized record*, not
/// kept as a live CellResult — the backlog costs its bytes, and at most
/// the spill's RAM budget of them. Retiring a spilled cell re-parses the
/// record, which reproduces the simulated bits exactly ("%.17g"
/// round-trip), so the fold is bit-identical whichever path a cell took.
class OrderedCommitter {
 public:
  using Fold = std::function<void(std::size_t, const CellResult&)>;

  OrderedCommitter(std::ofstream* sink, std::size_t next,
                   const std::vector<bool>* done,
                   const std::vector<ConfigSpec>& configs, Fold fold)
      : sink_(sink),
        next_(next),
        done_(done),
        spill_(kSpillRamBudgetBytes),
        configs_(configs),
        fold_(std::move(fold)) {
    skip_done();
  }

  void commit(std::size_t index, const CellResult& result,
              const std::string& line) {
    const std::lock_guard lock(mutex_);
    if (index != next_) {
      spill_.put(index, line);
      return;
    }
    retire(line, result);
    std::string spilled;
    ParsedCell cell;
    while (spill_.take(next_, spilled)) {
      if (!parse_cell_line(spilled, configs_, cell))
        throw std::runtime_error(
            "internal: spilled campaign record failed to re-parse");
      retire(spilled, cell.result);
    }
  }

  [[nodiscard]] bool drained() const { return spill_.pending() == 0; }

 private:
  void retire(const std::string& line, const CellResult& result) {
    if (sink_ != nullptr) {
      *sink_ << line << '\n';
      sink_->flush();
    }
    if (fold_) fold_(next_, result);
    ++next_;
    skip_done();
  }

  void skip_done() {
    if (done_ == nullptr) return;
    while (next_ < done_->size() && (*done_)[next_]) ++next_;
  }

  std::ofstream* sink_;
  std::size_t next_;
  const std::vector<bool>* done_;
  ResultSpill spill_;
  const std::vector<ConfigSpec>& configs_;
  Fold fold_;
  std::mutex mutex_;
};

std::vector<std::size_t> runs_per_point(const std::vector<Scenario>& points) {
  std::vector<std::size_t> runs;
  runs.reserve(points.size());
  for (const Scenario& point : points)
    runs.push_back(static_cast<std::size_t>(point.runs));
  return runs;
}

struct JsonlScan {
  std::size_t cells_present = 0;   ///< valid records
  std::uintmax_t valid_bytes = 0;  ///< header + accepted records, with '\n'
  bool dropped_tail = false;       ///< a torn/corrupt trailing record existed
};

/// Check that `file` (opened on `path`) starts with `header`. False when
/// the file holds no complete header — empty (a fresh start) or torn
/// mid-header (flagged as a dropped tail; the writer rewrites it). After
/// a successful getline, eof() set means the line had no trailing '\n':
/// a line torn mid-write.
bool open_scan(std::ifstream& file, const std::string& path,
               const std::string& header, const char* what, JsonlScan& scan) {
  if (!file) throw std::runtime_error(std::string("cannot open ") + what +
                                      ": " + path);
  std::string line;
  if (!std::getline(file, line)) return false;
  if (file.eof()) {
    scan.dropped_tail = true;
    return false;
  }
  if (line != header)
    throw std::runtime_error(std::string(what) +
                             " does not match this campaign "
                             "(header/fingerprint mismatch): " +
                             path);
  scan.valid_bytes = line.size() + 1;
  return true;
}

/// Called once per valid record, in cell order, with the parsed cell.
using CellScanSink = std::function<void(ParsedCell&&)>;

/// Scan a final artifact: `header`, then the records of cells 0, 1, ...
/// in order. Streamed line by line: the scan holds one line at a time and
/// hands each valid record to `on_cell`, so resume and summarize run in
/// O(1) memory per record.
JsonlScan scan_jsonl(const std::string& path, const std::string& header,
                     const CellQueue& layout,
                     const std::vector<ConfigSpec>& configs,
                     const CellScanSink& on_cell) {
  std::ifstream file(path, std::ios::binary);
  JsonlScan scan;
  if (!open_scan(file, path, header, "campaign results file", scan))
    return scan;
  const auto more_content = [&file] {
    return file.peek() != std::ifstream::traits_type::eof();
  };
  std::string line;
  for (std::size_t k = 0; k < layout.size(); ++k) {
    if (!std::getline(file, line)) break;
    if (file.eof()) {
      scan.dropped_tail = true;
      break;
    }
    ParsedCell cell;
    const CellRef ref = layout.at(k);
    const bool valid = parse_cell_line(line, configs, cell) &&
                       cell.cell == k && cell.point == ref.point &&
                       cell.rep == ref.rep;
    if (!valid) {
      // A broken record is tolerated only as the very last line (a write
      // cut short by the interrupt); the in-order committer cannot produce
      // valid data after a bad record.
      if (more_content())
        throw std::runtime_error("corrupt campaign record mid-file: " + path);
      scan.dropped_tail = true;
      break;
    }
    if (on_cell) on_cell(std::move(cell));
    ++scan.cells_present;
    scan.valid_bytes += line.size() + 1;
  }
  if (scan.cells_present == layout.size() && more_content())
    throw std::runtime_error("trailing data beyond the campaign grid: " +
                             path);
  return scan;
}

/// Called per valid worker-file record with the global cell index, the
/// byte offset of the line in the file and its length (without '\n').
using DealScanSink =
    std::function<void(std::size_t, std::uintmax_t, std::size_t)>;

/// Scan a worker file: records carry global cell indices in *completion*
/// order — any cells, any order, duplicates allowed (a re-dealt block) —
/// so unlike scan_jsonl there is no expected sequence, only per-record
/// validation against the grid layout. A torn or corrupt line is
/// tolerated as the very last line (the write the crash cut short);
/// anywhere else it is a hard error.
JsonlScan scan_deal_jsonl(const std::string& path, const std::string& header,
                          const CellQueue& layout,
                          const std::vector<ConfigSpec>& configs,
                          const DealScanSink& on_record) {
  std::ifstream file(path, std::ios::binary);
  JsonlScan scan;
  if (!open_scan(file, path, header, "worker file", scan)) return scan;
  const auto more_content = [&file] {
    return file.peek() != std::ifstream::traits_type::eof();
  };
  std::string line;
  while (std::getline(file, line)) {
    if (file.eof()) {
      scan.dropped_tail = true;
      break;
    }
    ParsedCell cell;
    const bool valid = parse_cell_line(line, configs, cell) &&
                       cell.cell < layout.size() &&
                       cell.point == layout.at(cell.cell).point &&
                       cell.rep == layout.at(cell.cell).rep;
    if (!valid) {
      if (more_content())
        throw std::runtime_error("corrupt worker file record mid-file: " +
                                 path);
      scan.dropped_tail = true;
      break;
    }
    if (on_record) on_record(cell.cell, scan.valid_bytes, line.size());
    ++scan.cells_present;
    scan.valid_bytes += line.size() + 1;
  }
  return scan;
}

/// Open `path` for appending records under `header`. With resume and an
/// existing file, `adopt` scans the file and returns its valid byte
/// prefix; the torn tail beyond it is cut so appends continue a clean
/// prefix. Otherwise the file starts over with the header.
std::ofstream open_sink(const std::string& path, const std::string& header,
                        bool resume,
                        const std::function<std::uintmax_t()>& adopt) {
  namespace fs = std::filesystem;
  std::uintmax_t valid_bytes = 0;
  const bool append = resume && fs::exists(path);
  if (append) {
    valid_bytes = adopt();
    if (fs::file_size(path) > valid_bytes) fs::resize_file(path, valid_bytes);
  }
  std::ofstream sink(path, std::ios::binary |
                               (append ? std::ios::app : std::ios::trunc));
  if (!sink) throw std::runtime_error("cannot write " + path);
  if (valid_bytes == 0) {
    sink << header << '\n';
    sink.flush();
  }
  return sink;
}

/// Execution core shared by run_grid and DealWorker: compute the global
/// cells of [first, first + count) that `done` does not mark (null: all
/// of them), appending each record to `sink` (null: in-memory only) and
/// retiring cells in index order through `fold`. Cost-guided LPT feed
/// (DESIGN.md section 12.1): the worker pool receives the
/// predicted-longest remaining cells first and every completed cell's
/// wall-clock is timed back into the model. The permutation only decides
/// who computes what when — the committer still retires cells in index
/// order, so the ordering cannot reach one output byte. LPT does grow the
/// committer's out-of-order backlog (cheap cells finish long before the
/// expensive low-index ones retire); that backlog is exactly what the
/// spill's budget bounds.
void execute_span(const std::vector<Scenario>& points,
                  const std::vector<ConfigSpec>& configs,
                  const CellQueue& queue, std::size_t first, std::size_t count,
                  const std::vector<bool>* done, std::ofstream* sink,
                  const GridRunOptions& options,
                  const OrderedCommitter::Fold& fold) {
  OrderedCommitter committer(sink, first, done, configs, fold);
  std::unique_ptr<CostModel> own_model;
  CostModel* model = options.cost_model;
  if (model == nullptr) {
    own_model = std::make_unique<CostModel>(points, configs);
    model = own_model.get();
  }
  std::vector<std::size_t> order = lpt_cell_order(*model, queue, first, count);
  if (done != nullptr)
    std::erase_if(order, [&](std::size_t i) { return (*done)[first + i]; });
  parallel_for(
      order.size(),
      [&](std::size_t index) {
        const std::size_t k = first + order[index];
        const CellRef ref = queue.at(k);
        const auto start = std::chrono::steady_clock::now();
        const CellResult result =
            run_cell(points[ref.point], configs, ref.rep, options.dispatch);
        model->observe(ref.point,
                       std::chrono::duration<double>(
                           std::chrono::steady_clock::now() - start)
                           .count());
        // Per-worker reusable line buffer (the committer copies only
        // what it must spill).
        thread_local std::string line;
        cell_line(k, ref.point, ref.rep, result, configs, line);
        committer.commit(k, result, line);
      },
      options.threads);
  COREDIS_EXPECTS(committer.drained());
}

}  // namespace

// --- ScenarioGrid ---------------------------------------------------------

std::size_t ScenarioGrid::points() const noexcept {
  const auto dim = [](std::size_t size) {
    return size == 0 ? std::size_t{1} : size;
  };
  return dim(n.size()) * dim(p.size()) * dim(mtbf_years.size()) *
         dim(fault_laws.size()) * dim(checkpoint_unit_costs.size()) *
         dim(period_rules.size()) * dim(arrival_laws.size()) *
         dim(load_factors.size());
}

Scenario ScenarioGrid::point(std::size_t index) const {
  COREDIS_EXPECTS(index < points());
  Scenario scenario = base;
  std::size_t rest = index;
  const auto take = [&rest](std::size_t size) {
    const std::size_t k = rest % size;
    rest /= size;
    return k;
  };
  // The innermost axis decodes first, making n the outermost loop.
  if (!load_factors.empty())
    scenario.load_factor = load_factors[take(load_factors.size())];
  if (!arrival_laws.empty())
    scenario.arrival_law = arrival_laws[take(arrival_laws.size())];
  if (!period_rules.empty())
    scenario.period_rule = period_rules[take(period_rules.size())];
  if (!checkpoint_unit_costs.empty())
    scenario.checkpoint_unit_cost =
        checkpoint_unit_costs[take(checkpoint_unit_costs.size())];
  if (!fault_laws.empty())
    scenario.fault_law = fault_laws[take(fault_laws.size())];
  if (!mtbf_years.empty())
    scenario.mtbf_years = mtbf_years[take(mtbf_years.size())];
  if (!p.empty()) scenario.p = p[take(p.size())];
  if (!n.empty()) scenario.n = n[take(n.size())];
  return scenario;
}

std::string ScenarioGrid::point_label(std::size_t index) const {
  const Scenario scenario = point(index);
  std::string label;
  const auto add = [&label](const std::string& piece) {
    if (!label.empty()) label += ' ';
    label += piece;
  };
  if (!n.empty()) add("n=" + std::to_string(scenario.n));
  if (!p.empty()) add("p=" + std::to_string(scenario.p));
  if (!mtbf_years.empty())
    add("mtbf_years=" + format_g(scenario.mtbf_years));
  if (!fault_laws.empty())
    add(std::string("fault_law=") +
        (scenario.fault_law == FaultLaw::Weibull ? "weibull" : "exponential"));
  if (!checkpoint_unit_costs.empty())
    add("checkpoint_unit_cost=" + format_g(scenario.checkpoint_unit_cost));
  if (!period_rules.empty())
    add(std::string("period_rule=") +
        (scenario.period_rule == checkpoint::PeriodRule::Daly ? "daly"
                                                              : "young"));
  if (!arrival_laws.empty())
    add("arrival_law=" + extensions::to_string(scenario.arrival_law));
  if (!load_factors.empty())
    add("load_factor=" + format_g(scenario.load_factor));
  return label.empty() ? "base" : label;
}

std::size_t Campaign::cells() const noexcept {
  return grid.points() * static_cast<std::size_t>(grid.base.runs);
}

// --- campaign parsing -----------------------------------------------------

Campaign parse_campaign(const std::string& text, Scenario base) {
  Campaign campaign;
  campaign.grid.base = base;
  campaign.configs = paper_curves();

  std::istringstream stream(text);
  std::string raw;
  std::size_t number = 0;
  while (std::getline(stream, raw)) {
    ++number;
    try {
      std::string key;
      std::string value;
      if (!detail::split_assignment(raw, key, value)) continue;
      if (key == "configs" || key == "policy" || key == "policies") {
        campaign.configs = parse_config_set(value);
        continue;
      }
      const AxisKey axis = axis_of(key);
      if (value.find(',') != std::string::npos) {
        if (axis == AxisKey::None) {
          // Distinguish a typo from a real scenario key that simply
          // cannot be swept: probe the key with the first list element.
          Scenario probe = campaign.grid.base;
          bool known = true;
          try {
            known = apply_scenario_key(probe, key, split_list(value).front());
          } catch (const std::runtime_error&) {
            // Malformed element, but the key itself exists.
          }
          if (!known) throw std::runtime_error("unknown key '" + key + "'");
          throw std::runtime_error(
              "key '" + key +
              "' cannot be swept (axes: n, p, mtbf_years, fault_law, "
              "checkpoint_unit_cost, period_rule, arrival_law, "
              "load_factor)");
        }
        set_axis(campaign.grid, axis, key, value);
      } else {
        if (!apply_scenario_key(campaign.grid.base, key, value))
          throw std::runtime_error("unknown key '" + key + "'");
        // A later scalar assignment overrides an earlier sweep of the key.
        clear_axis(campaign.grid, axis);
      }
    } catch (const std::runtime_error& error) {
      fail_line(number, raw, error.what());
    }
  }

  const std::size_t total = campaign.grid.points();
  for (std::size_t i = 0; i < total; ++i) {
    try {
      validate_scenario(campaign.grid.point(i));
    } catch (const std::runtime_error& error) {
      throw std::runtime_error("campaign: point [" +
                               campaign.grid.point_label(i) +
                               "]: " + error.what());
    }
  }
  return campaign;
}

Campaign load_campaign(const std::string& path, Scenario base) {
  std::ifstream file(path);
  if (!file) throw std::runtime_error("cannot open campaign file: " + path);
  std::ostringstream text;
  text << file.rdbuf();
  return parse_campaign(text.str(), std::move(base));
}

// --- orchestration --------------------------------------------------------

std::vector<PointResult> run_grid(const std::vector<Scenario>& points,
                                  const std::vector<ConfigSpec>& configs,
                                  const GridRunOptions& options) {
  const CellQueue queue(runs_per_point(points));
  // Aggregates build incrementally as the committer retires cells in
  // order — the run holds O(points) statistics, never O(cells) results.
  std::vector<PointResult> aggregated(points.size(), make_point_frame(configs));
  const OrderedCommitter::Fold fold =
      [&aggregated, &queue](std::size_t k, const CellResult& result) {
        fold_cell(aggregated[queue.at(k).point], result);
      };
  // With resume, the file's valid prefix is adopted (folded, not
  // recomputed) and the torn tail dropped.
  std::size_t done = 0;
  std::ofstream sink;
  const std::string& path = options.jsonl_path;
  if (!path.empty()) {
    const std::string header = header_line(points, configs);
    sink = open_sink(path, header, options.resume, [&] {
      const JsonlScan scan =
          scan_jsonl(path, header, queue, configs,
                     [&](ParsedCell&& cell) { fold(cell.cell, cell.result); });
      done = scan.cells_present;
      return scan.valid_bytes;
    });
  }
  execute_span(points, configs, queue, done, queue.size() - done, nullptr,
               sink.is_open() ? &sink : nullptr, options, fold);
  if (sink.is_open() && !sink)
    throw std::runtime_error("failed writing " + path);
  return aggregated;
}

std::vector<PointResult> run_campaign(const Campaign& campaign,
                                      const GridRunOptions& options) {
  return run_grid(campaign_points(campaign), campaign.configs, options);
}

// --- distributed campaigns -----------------------------------------------

ShardSpec parse_shard_spec(const std::string& text) {
  ShardSpec shard;
  std::size_t pos = 0;
  const bool ok = scan_size(text, pos, shard.index) &&
                  expect_token(text, pos, "/") &&
                  scan_size(text, pos, shard.count) && pos == text.size();
  if (!ok)
    throw std::runtime_error(
        "shard spec must be <index>/<count>, e.g. 1/4 (got '" + text + "')");
  if (shard.count == 0 || shard.index >= shard.count)
    throw std::runtime_error("shard index " + std::to_string(shard.index) +
                             " out of range for " +
                             std::to_string(shard.count) + " workers");
  return shard;
}

std::pair<std::size_t, std::size_t> shard_range(std::size_t total_cells,
                                                const ShardSpec& shard) {
  COREDIS_EXPECTS(shard.count > 0 && shard.index < shard.count);
  // Balanced contiguous ranges: sizes differ by at most one and the
  // W ranges tile [0, total) exactly, whatever total % count is.
  return {total_cells * shard.index / shard.count,
          total_cells * (shard.index + 1) / shard.count};
}

std::string shard_path(const std::string& jsonl_path, const ShardSpec& shard) {
  std::filesystem::path path(jsonl_path);
  const std::string extension = path.extension().string();
  path.replace_extension();
  path += ".shard" + std::to_string(shard.index) + "of" +
          std::to_string(shard.count) + extension;
  return path.string();
}

std::vector<Scenario> campaign_points(const Campaign& campaign) {
  std::vector<Scenario> points;
  const std::size_t total = campaign.grid.points();
  points.reserve(total);
  for (std::size_t i = 0; i < total; ++i)
    points.push_back(campaign.grid.point(i));
  return points;
}

std::vector<DealBlock> plan_deal_blocks(const CostModel& model,
                                        const CellQueue& queue,
                                        std::size_t workers) {
  COREDIS_EXPECTS(workers > 0);
  std::vector<DealBlock> blocks;
  const std::size_t total = queue.size();
  if (total == 0) return blocks;
  std::vector<double> by_point(model.points());
  for (std::size_t p = 0; p < by_point.size(); ++p)
    by_point[p] = model.predict(p);
  const auto cell_cost = [&](std::size_t k) {
    return by_point[queue.at(k).point];
  };
  double total_cost = 0.0;
  for (std::size_t k = 0; k < total; ++k) total_cost += cell_cost(k);
  // ~8 blocks per worker: granular enough that the last block dealt is
  // a small fraction of a worker's share (the makespan tail), coarse
  // enough that per-block protocol and header overhead stays noise.
  const double target = total_cost / static_cast<double>(workers * 8);
  std::vector<double> costs;  // parallel to blocks, for the LPT sort
  DealBlock open{0, 0};
  double accumulated = 0.0;
  for (std::size_t k = 0; k < total; ++k) {
    accumulated += cell_cost(k);
    open.end = k + 1;
    // Cut as soon as the open block reached the target; one cell above
    // it at most (a cell cannot split).
    if (accumulated >= target || k + 1 == total) {
      blocks.push_back(open);
      costs.push_back(accumulated);
      open.begin = k + 1;
      accumulated = 0.0;
    }
  }
  std::vector<std::size_t> order(blocks.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::stable_sort(order.begin(), order.end(),
                   [&costs](std::size_t a, std::size_t b) {
                     return costs[a] > costs[b];
                   });
  std::vector<DealBlock> lpt;
  lpt.reserve(blocks.size());
  for (const std::size_t i : order) lpt.push_back(blocks[i]);
  return lpt;
}

DealWorker::DealWorker(std::vector<Scenario> points,
                       std::vector<ConfigSpec> configs, std::size_t worker,
                       std::size_t workers, const GridRunOptions& options)
    : points_(std::move(points)),
      configs_(std::move(configs)),
      options_(options),
      queue_(runs_per_point(points_)),
      present_(queue_.size(), false) {
  COREDIS_EXPECTS(workers > 0 && worker < workers);
  if (options_.jsonl_path.empty())
    throw std::runtime_error(
        "distributed workers need a JSONL output path to derive their "
        "worker file");
  if (options_.cost_model == nullptr) {
    model_ = std::make_unique<CostModel>(points_, configs_);
    options_.cost_model = model_.get();
  }
  path_ = shard_path(options_.jsonl_path, {worker, workers});
  const std::string header =
      deal_header_line(points_, configs_, worker, workers);
  sink_ = open_sink(path_, header, options_.resume, [&] {
    const JsonlScan scan = scan_deal_jsonl(
        path_, header, queue_, configs_,
        [this](std::size_t cell, std::uintmax_t, std::size_t) {
          present_[cell] = true;
        });
    resumed_records_ = scan.cells_present;
    return scan.valid_bytes;
  });
}

DealWorker::~DealWorker() = default;

std::size_t DealWorker::resumed_records() const noexcept {
  return resumed_records_;
}

void DealWorker::run_block(std::size_t begin, std::size_t end) {
  COREDIS_EXPECTS(begin <= end && end <= queue_.size());
  execute_span(points_, configs_, queue_, begin, end - begin, &present_,
               &sink_, options_, {});
  if (!sink_) throw std::runtime_error("failed writing " + path_);
  std::fill(present_.begin() + static_cast<std::ptrdiff_t>(begin),
            present_.begin() + static_cast<std::ptrdiff_t>(end), true);
}

void run_campaign_shard(const Campaign& campaign, const ShardSpec& shard,
                        const GridRunOptions& options) {
  DealWorker worker(campaign_points(campaign), campaign.configs, shard.index,
                    shard.count, options);
  const auto [begin, end] = shard_range(campaign.cells(), shard);
  worker.run_block(begin, end);
}

std::vector<DealRecord> index_deal_shards(
    const std::vector<Scenario>& points, const std::vector<ConfigSpec>& configs,
    std::size_t workers, const std::string& jsonl_path) {
  // Re-dealt blocks appear in more than one file (or twice in a resumed
  // one); cells are deterministic in (point seed, rep), so every
  // duplicate is byte-identical and keeping the first is safe.
  const CellQueue queue(runs_per_point(points));
  std::vector<DealRecord> index(queue.size());
  for (std::size_t k = 0; k < workers; ++k) {
    const std::string path = shard_path(jsonl_path, {k, workers});
    if (!std::filesystem::exists(path)) continue;
    scan_deal_jsonl(path, deal_header_line(points, configs, k, workers), queue,
                    configs,
                    [&index, k](std::size_t cell, std::uintmax_t offset,
                                std::size_t length) {
                      DealRecord& slot = index[cell];
                      if (!slot.present) slot = {k, offset, length, true};
                    });
  }
  return index;
}

void merge_deal_shards(const std::vector<Scenario>& points,
                       const std::vector<ConfigSpec>& configs,
                       std::size_t workers, const std::string& jsonl_path) {
  namespace fs = std::filesystem;
  if (workers == 0)
    throw std::runtime_error("merge needs at least one worker file");
  for (std::size_t k = 0; k < workers; ++k) {
    const std::string path = shard_path(jsonl_path, {k, workers});
    if (!fs::exists(path))
      throw std::runtime_error("missing worker file " + path +
                               ": every worker of a distributed campaign "
                               "writes one, even if it computed nothing");
  }

  // Pass 1: where every cell's first record is.
  const std::vector<DealRecord> index =
      index_deal_shards(points, configs, workers, jsonl_path);
  const auto missing = static_cast<std::size_t>(std::count_if(
      index.begin(), index.end(),
      [](const DealRecord& slot) { return !slot.present; }));
  if (missing != 0) {
    const std::size_t first = static_cast<std::size_t>(
        std::find_if(index.begin(), index.end(),
                     [](const DealRecord& slot) { return !slot.present; }) -
        index.begin());
    // Name the --worker whose fixed block holds the cell: the remedy for
    // an external launcher's campaign.
    std::size_t owner = 0;
    while (shard_range(index.size(), {owner, workers}).second <= first)
      ++owner;
    const std::string spec =
        std::to_string(owner) + "/" + std::to_string(workers);
    throw std::runtime_error(
        "distributed campaign is incomplete: " + std::to_string(missing) +
        " of " + std::to_string(index.size()) + " cells missing (first: cell " +
        std::to_string(first) + ", in the fixed block of --worker " + spec +
        ", file " + shard_path(jsonl_path, {owner, workers}) +
        "); resume it with --worker " + spec +
        " --resume, or rerun the --workers coordinator with --resume");
  }

  // Pass 2: emit the single-process artifact — header, then every
  // cell's record bytes in global cell order — crash-atomically
  // (DESIGN.md section 7.4): it is assembled in a temp sibling and
  // renamed over jsonl_path only after a flush + fsync, so a crash (even
  // kill -9) mid-merge leaves the final name absent or complete. The
  // fixed temp name is self-cleaning — the next merge truncates it.
  std::vector<std::ifstream> shards(workers);
  for (std::size_t k = 0; k < workers; ++k) {
    const std::string path = shard_path(jsonl_path, {k, workers});
    shards[k].open(path, std::ios::binary);
    if (!shards[k])
      throw std::runtime_error("cannot reopen worker file " + path);
  }
  const std::string temp_path = atomic_temp_path(jsonl_path);
  std::ofstream out(temp_path, std::ios::binary | std::ios::trunc);
  if (!out) throw std::runtime_error("cannot write " + temp_path);
  try {
    out << header_line(points, configs) << '\n';
    std::string record;
    for (const DealRecord& slot : index) {
      record.resize(slot.length);
      std::ifstream& shard = shards[slot.worker];
      shard.seekg(static_cast<std::streamoff>(slot.offset));
      shard.read(record.data(), static_cast<std::streamsize>(slot.length));
      if (!shard)
        throw std::runtime_error("worker file changed under the merge: " +
                                 shard_path(jsonl_path, {slot.worker, workers}));
      out << record << '\n';
    }
    out.flush();
    if (!out) throw std::runtime_error("failed writing " + temp_path);
    out.close();
    commit_file(temp_path, jsonl_path);
  } catch (...) {
    // Never leave a half-merged temp behind a loud refusal; the final
    // path was not touched.
    out.close();
    std::error_code ignored;
    fs::remove(temp_path, ignored);
    throw;
  }
}

void merge_campaign_deal_shards(const Campaign& campaign, std::size_t workers,
                                const std::string& jsonl_path) {
  merge_deal_shards(campaign_points(campaign), campaign.configs, workers,
                    jsonl_path);
}

std::vector<PointResult> summarize_jsonl(const Campaign& campaign,
                                         const std::string& path,
                                         JsonlCoverage* coverage) {
  const std::vector<Scenario> points = campaign_points(campaign);
  const CellQueue queue(runs_per_point(points));
  std::vector<PointResult> aggregated(points.size(),
                                      make_point_frame(campaign.configs));
  const JsonlScan scan = scan_jsonl(
      path, header_line(points, campaign.configs), queue, campaign.configs,
      [&aggregated](ParsedCell&& cell) {
        fold_cell(aggregated[cell.point], cell.result);
      });
  if (coverage != nullptr) {
    coverage->cells_present = scan.cells_present;
    coverage->cells_total = queue.size();
    coverage->dropped_corrupt_tail = scan.dropped_tail;
  }
  return aggregated;
}

std::string render_campaign_table(const Campaign& campaign,
                                  const std::vector<PointResult>& points) {
  std::vector<std::string> headers{"point", "reps", "baseline (days)"};
  for (const ConfigSpec& config : campaign.configs)
    headers.push_back(config.name);
  TextTable table(std::move(headers));
  for (std::size_t i = 0; i < points.size(); ++i) {
    const PointResult& point = points[i];
    std::vector<std::string> row;
    row.push_back(campaign.grid.point_label(i));
    row.push_back(std::to_string(point.baseline_makespan.count()));
    if (point.baseline_makespan.count() == 0) {
      row.push_back("-");
      for (std::size_t c = 0; c < campaign.configs.size(); ++c)
        row.push_back("-");
    } else {
      row.push_back(format_double(
          units::to_days(point.baseline_makespan.mean()), 1));
      for (const ConfigOutcome& config : point.configs)
        row.push_back(format_double(config.normalized.mean(), 4));
    }
    table.add_row(row);
  }
  return table.to_string();
}

}  // namespace coredis::exp
