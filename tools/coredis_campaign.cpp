/// coredis_campaign — run, resume, summarize, shard and merge declarative
/// campaign grids (src/exp/campaign.hpp).
///
/// A campaign file is a scenario file whose grid keys (n, p, mtbf_years,
/// fault_law, checkpoint_unit_cost, period_rule, arrival_law,
/// load_factor) accept comma-separated sweep lists, plus a
/// `configs = ...` selector (`paper`, `fault_free`, `online`, or a comma
/// list of configuration names — see campaign.hpp). The orchestrator
/// flattens grid x repetitions into cells, executes them on one global
/// parallel queue, streams each completed cell to --out as a JSONL record
/// (committed in cell order, so the file is deterministic for any
/// COREDIS_THREADS), and prints the per-point summary table.
///
/// Distributed campaigns (DESIGN.md sections 7.4 and 12.3) are deals:
/// `--workers N` coordinates N local worker processes, dealing
/// cost-guided cell blocks to whichever worker is idle (lost blocks are
/// re-dealt); `--worker k/W` runs worker k's fixed block in-process for
/// external launchers (ssh, mpirun); and `--merge W` reassembles the
/// byte-identical single-file artifact from the W worker files.
///
///   coredis_campaign --campaign grid.txt --out results.jsonl
///   coredis_campaign --campaign grid.txt --out results.jsonl --resume
///   coredis_campaign --campaign grid.txt --out results.jsonl --workers 4
///   coredis_campaign --campaign grid.txt --out results.jsonl --worker 1/4
///   coredis_campaign --campaign grid.txt --out results.jsonl --merge 4
///   coredis_campaign --campaign grid.txt --summarize results.jsonl
///   coredis_campaign --campaign grid.txt --list

#include <chrono>
#include <cstddef>
#include <cstdio>
#include <filesystem>
#include <iostream>
#include <stdexcept>
#include <string>
#include <vector>

#if defined(__unix__) || defined(__APPLE__)
#include <cerrno>
#include <csignal>
#include <cstring>
#include <fcntl.h>
#include <poll.h>
#include <sys/wait.h>
#include <unistd.h>
#define COREDIS_CAMPAIGN_FORK 1
#endif

#include "exp/campaign.hpp"
#include "exp/cost_model.hpp"
#include "exp/scenario_file.hpp"
#include "util/cli.hpp"
#include "util/parallel.hpp"

namespace {

using namespace coredis;

int list_campaign(const exp::Campaign& campaign) {
  const std::size_t points = campaign.grid.points();
  std::cout << "campaign: " << points << " points x "
            << campaign.grid.base.runs << " repetitions = "
            << campaign.cells() << " cells, " << campaign.configs.size()
            << " configurations\n\n";
  for (std::size_t i = 0; i < points; ++i)
    std::cout << "  point " << i << ": " << campaign.grid.point_label(i)
              << '\n';
  std::cout << "\nconfigurations:\n";
  for (const exp::ConfigSpec& config : campaign.configs)
    std::cout << "  " << config.name << '\n';
  return 0;
}

int summarize_campaign(const exp::Campaign& campaign,
                       const std::string& path) {
  exp::JsonlCoverage coverage;
  const std::vector<exp::PointResult> points =
      exp::summarize_jsonl(campaign, path, &coverage);
  std::cout << "cells: " << coverage.cells_present << "/"
            << coverage.cells_total << " present in " << path;
  if (coverage.dropped_corrupt_tail)
    std::cout << " (ignoring a truncated trailing record)";
  std::cout << "\n\n" << exp::render_campaign_table(campaign, points);
  return 0;
}

/// Overwrite refusal for the final artifact and for worker files alike:
/// an existing file is only ever reused under --resume. Worker-file
/// refusals are loud and per-file — every clobber candidate is named
/// before the run aborts, so a mis-aimed launcher cannot eat a worker file.
void refuse_existing(const std::string& path, const char* what) {
  if (!std::filesystem::exists(path)) return;
  throw std::runtime_error(
      std::string(what) + " exists: " + path +
      " (pass --resume to continue it, or remove it to start over)");
}

void refuse_existing_shards(const std::string& out, std::size_t workers) {
  bool any = false;
  for (std::size_t k = 0; k < workers; ++k) {
    const std::string path = exp::shard_path(out, {k, workers});
    if (std::filesystem::exists(path)) {
      std::cerr << "error: worker file exists: " << path
                << " (pass --resume to continue it, or remove it to start "
                   "over)\n";
      any = true;
    }
  }
  if (any)
    throw std::runtime_error("refusing to overwrite existing worker files");
}

int run_campaign_to(const exp::Campaign& campaign,
                    const exp::GridRunOptions& options) {
  std::cerr << "running " << campaign.cells() << " cells over "
            << campaign.grid.points() << " points ("
            << (options.threads == 0 ? default_thread_count()
                                     : options.threads)
            << " threads) -> " << options.jsonl_path << '\n';
  const std::vector<exp::PointResult> points =
      exp::run_campaign(campaign, options);
  std::cout << exp::render_campaign_table(campaign, points);
  std::cout << "\nresults written to " << options.jsonl_path << '\n';
  return 0;
}

int run_worker(const exp::Campaign& campaign, const exp::ShardSpec& shard,
               const exp::GridRunOptions& options) {
  const auto [begin, end] = exp::shard_range(campaign.cells(), shard);
  if (!options.resume)
    refuse_existing(exp::shard_path(options.jsonl_path, shard), "worker file");
  exp::run_campaign_shard(campaign, shard, options);
  std::cout << "worker " << shard.index << "/" << shard.count << " (cells "
            << begin << ".." << end << ") written to "
            << exp::shard_path(options.jsonl_path, shard) << '\n';
  return 0;
}

int merge_to(const exp::Campaign& campaign, std::size_t workers,
             const std::string& out) {
  exp::merge_campaign_deal_shards(campaign, workers, out);
  std::cout << "merged " << workers << " worker files -> " << out << '\n';
  return 0;
}

#if defined(COREDIS_CAMPAIGN_FORK)
/// Print a campaign's summary table from its final artifact.
int print_results(const exp::Campaign& campaign, const std::string& out,
                  std::size_t workers) {
  const std::vector<exp::PointResult> results =
      exp::summarize_jsonl(campaign, out);
  std::cout << exp::render_campaign_table(campaign, results);
  std::cout << "\nresults written to " << out << " (" << workers
            << " workers)\n";
  return 0;
}

/// Set by the coordinator's SIGINT/SIGTERM handler; checked by the reap
/// loop (installed without SA_RESTART, so a blocked waitpid returns
/// EINTR and the loop sees the flag promptly).
volatile std::sig_atomic_t g_coordinator_signal = 0;

extern "C" void coordinator_signal_handler(int sig) {
  g_coordinator_signal = sig;
}

/// Child side of a dealt campaign: serve "deal <begin> <end>" commands
/// from the private command pipe until "done", acking each completed
/// block — after its records are flushed — with one atomic write
/// (well under PIPE_BUF) on the shared ack pipe. A coordinator that
/// vanished (pipe EOF) ends the worker with a nonzero status: its file
/// keeps the completed blocks for a --resume.
int deal_worker_loop(const std::vector<exp::Scenario>& points,
                     const std::vector<exp::ConfigSpec>& configs,
                     std::size_t worker_index, std::size_t workers,
                     const exp::GridRunOptions& options, int command_fd,
                     int ack_fd) {
  exp::DealWorker worker(points, configs, worker_index, workers, options);
  std::string buffer;
  char chunk[256];
  for (;;) {
    std::size_t newline;
    while ((newline = buffer.find('\n')) == std::string::npos) {
      const ssize_t n = ::read(command_fd, chunk, sizeof chunk);
      if (n < 0) {
        if (errno == EINTR) continue;
        return 1;
      }
      if (n == 0) return 1;  // coordinator gone: no one left to ack to
      buffer.append(chunk, static_cast<std::size_t>(n));
    }
    const std::string command = buffer.substr(0, newline);
    buffer.erase(0, newline + 1);
    if (command == "done") return 0;
    std::size_t begin = 0;
    std::size_t end = 0;
    if (std::sscanf(command.c_str(), "deal %zu %zu", &begin, &end) != 2)
      return 1;
    const auto start = std::chrono::steady_clock::now();
    worker.run_block(begin, end);
    const double seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
            .count();
    char ack[128];
    const int length = std::snprintf(ack, sizeof ack, "%zu %zu %zu %.6f\n",
                                     worker_index, begin, end, seconds);
    if (length <= 0 ||
        ::write(ack_fd, ack, static_cast<std::size_t>(length)) != length)
      return 1;
  }
}

/// Dealing coordinator (DESIGN.md section 12.3): fork W workers — each
/// wired to a private command pipe plus one shared ack pipe — cut the
/// cell space into cost-balanced blocks, deal them longest-predicted-
/// first to whichever worker is idle, refine the cost model from
/// per-block ack timings (re-ranking the remaining blocks), re-deal a
/// dead worker's un-acked block and respawn the worker with resume while
/// attempts remain, then merge the worker files into the byte-identical
/// single-process artifact. With resume, the worker files are indexed
/// once and only the cells none of them holds are dealt; a complete
/// final artifact just prints its summary.
///
/// SIGINT/SIGTERM while coordinating forwards the signal to every live
/// worker, reaps them, keeps the worker files (each holds valid records
/// a --resume adopts), and exits 128+signal.
int run_dealt(const exp::Campaign& campaign, std::size_t workers,
              bool keep_shards, const exp::GridRunOptions& base) {
  const std::string& out = base.jsonl_path;
  if (base.resume && std::filesystem::exists(out)) {
    exp::JsonlCoverage coverage;
    (void)exp::summarize_jsonl(campaign, out, &coverage);
    if (coverage.cells_present == coverage.cells_total)
      return print_results(campaign, out, workers);
  }
  const std::vector<exp::Scenario> points = exp::campaign_points(campaign);
  std::vector<std::size_t> runs;
  runs.reserve(points.size());
  for (const exp::Scenario& point : points)
    runs.push_back(static_cast<std::size_t>(point.runs));
  const exp::CellQueue queue(runs);
  exp::CostModel model(points, campaign.configs);

  // Deal only what no worker file holds: fully covered blocks drop,
  // partly covered ones shrink to their missing runs.
  std::vector<exp::DealBlock> blocks =
      exp::plan_deal_blocks(model, queue, workers);
  std::size_t kept = 0;
  if (base.resume) {
    const std::vector<exp::DealRecord> index =
        exp::index_deal_shards(points, campaign.configs, workers, out);
    std::vector<exp::DealBlock> missing;
    for (const exp::DealBlock& block : blocks)
      for (std::size_t k = block.begin; k < block.end;) {
        for (; k < block.end && index[k].present; ++k) ++kept;
        const std::size_t begin = k;
        while (k < block.end && !index[k].present) ++k;
        if (begin < k) missing.push_back({begin, k});
      }
    blocks = std::move(missing);
  }

  // The pending blocks keep a per-point cell histogram so re-ranking
  // under the refined model costs O(points) per block, not O(cells).
  struct Pending {
    exp::DealBlock block;
    std::vector<std::size_t> counts;
  };
  const auto histogram = [&](const exp::DealBlock& block) {
    std::vector<std::size_t> counts(points.size(), 0);
    for (std::size_t k = block.begin; k < block.end; ++k)
      ++counts[queue.at(k).point];
    return counts;
  };
  std::vector<Pending> pending;
  for (const exp::DealBlock& block : blocks)
    pending.push_back({block, histogram(block)});
  const std::size_t planned_blocks = pending.size();
  const auto requeue = [&](const exp::DealBlock& block) {
    pending.push_back({block, histogram(block)});
  };
  const auto take_longest = [&] {
    std::size_t best = 0;
    double best_cost = -1.0;
    for (std::size_t i = 0; i < pending.size(); ++i) {
      double cost = 0.0;
      for (std::size_t p = 0; p < pending[i].counts.size(); ++p)
        if (pending[i].counts[p] != 0)
          cost += model.predict(p) *
                  static_cast<double>(pending[i].counts[p]);
      if (cost > best_cost) {
        best_cost = cost;
        best = i;
      }
    }
    const exp::DealBlock block = pending[best].block;
    pending.erase(pending.begin() + static_cast<std::ptrdiff_t>(best));
    return block;
  };

  const auto worker_options = [&](std::size_t k, bool resume) {
    exp::GridRunOptions options = base;
    options.resume = resume;
    if (options.threads == 0)
      options.threads = thread_budget_share(workers, k);
    return options;
  };

  struct Proc {
    pid_t pid = -1;
    int command_fd = -1;
    int attempts = 0;
    bool busy = false;
    exp::DealBlock block{};
  };
  std::vector<Proc> procs(workers);

  int ack_pipe[2] = {-1, -1};
  if (::pipe(ack_pipe) != 0)
    throw std::runtime_error("cannot create the ack pipe");
  ::fcntl(ack_pipe[0], F_SETFL, O_NONBLOCK);

  const auto spawn = [&](std::size_t k, bool resume) {
    int command[2] = {-1, -1};
    if (::pipe(command) != 0)
      throw std::runtime_error("cannot create a command pipe for worker " +
                               std::to_string(k));
    std::cout.flush();
    std::cerr.flush();
    const pid_t pid = ::fork();
    if (pid < 0)
      throw std::runtime_error("cannot fork worker " + std::to_string(k));
    if (pid == 0) {
      std::signal(SIGINT, SIG_DFL);
      std::signal(SIGTERM, SIG_DFL);
      std::signal(SIGPIPE, SIG_DFL);
      ::close(command[1]);
      ::close(ack_pipe[0]);
      // Inherited write ends of the *other* workers' command pipes
      // would keep their loops alive past the coordinator; drop them.
      for (const Proc& other : procs)
        if (other.command_fd >= 0) ::close(other.command_fd);
      int status = 1;
      try {
        status = deal_worker_loop(points, campaign.configs, k, workers,
                                  worker_options(k, resume), command[0],
                                  ack_pipe[1]);
      } catch (const std::exception& error) {
        std::cerr << "worker " << k << "/" << workers
                  << ": error: " << error.what() << '\n';
      }
      std::_Exit(status);
    }
    ::close(command[0]);
    procs[k].pid = pid;
    procs[k].command_fd = command[1];
    procs[k].busy = false;
    ++procs[k].attempts;
  };

  // Interruption plumbing: flag-setting handlers without SA_RESTART, so
  // a blocked wait returns EINTR when the user hits Ctrl-C. SIGPIPE is
  // ignored: writing "deal" to a worker that just died must surface as
  // an error return, not kill the coordinator.
  g_coordinator_signal = 0;
  struct sigaction action {};
  action.sa_handler = coordinator_signal_handler;
  sigemptyset(&action.sa_mask);
  action.sa_flags = 0;
  struct sigaction old_int {}, old_term {};
  ::sigaction(SIGINT, &action, &old_int);
  ::sigaction(SIGTERM, &action, &old_term);
  const auto old_pipe = std::signal(SIGPIPE, SIG_IGN);
  const auto restore_handlers = [&] {
    ::sigaction(SIGINT, &old_int, nullptr);
    ::sigaction(SIGTERM, &old_term, nullptr);
    std::signal(SIGPIPE, old_pipe);
  };
  const auto close_fds = [&] {
    for (Proc& proc : procs)
      if (proc.command_fd >= 0) {
        ::close(proc.command_fd);
        proc.command_fd = -1;
      }
    ::close(ack_pipe[0]);
    ::close(ack_pipe[1]);
  };

  std::cerr << "dealing " << planned_blocks << " blocks ("
            << campaign.cells() - kept << " cells; " << kept
            << " kept from the worker files) over " << workers
            << " workers -> " << out << '\n';
  for (std::size_t k = 0; k < workers; ++k) spawn(k, base.resume);

  const int kMaxAttempts = 3;
  std::string acks;
  const auto any_busy = [&] {
    for (const Proc& proc : procs)
      if (proc.busy) return true;
    return false;
  };
  const auto live_workers = [&] {
    std::size_t alive = 0;
    for (const Proc& proc : procs)
      if (proc.pid > 0) ++alive;
    return alive;
  };
  const auto drain_acks = [&] {
    char buf[512];
    for (;;) {
      const ssize_t n = ::read(ack_pipe[0], buf, sizeof buf);
      if (n > 0) {
        acks.append(buf, static_cast<std::size_t>(n));
        continue;
      }
      if (n < 0 && errno == EINTR) continue;
      break;  // EAGAIN: drained
    }
    for (;;) {
      const std::size_t newline = acks.find('\n');
      if (newline == std::string::npos) break;
      const std::string line = acks.substr(0, newline);
      acks.erase(0, newline + 1);
      std::size_t k = 0;
      std::size_t begin = 0;
      std::size_t end = 0;
      double seconds = 0.0;
      const bool valid =
          std::sscanf(line.c_str(), "%zu %zu %zu %lf", &k, &begin, &end,
                      &seconds) == 4 &&
          k < workers && procs[k].busy && procs[k].block.begin == begin &&
          procs[k].block.end == end;
      if (!valid) {
        restore_handlers();
        throw std::runtime_error("coordinator: malformed ack '" + line +
                                 "'; deal bookkeeping is corrupt");
      }
      procs[k].busy = false;
      // The block's one timing refines every point it touched, so the
      // next take_longest re-ranks the remaining blocks.
      model.observe_span(queue, begin, end, seconds);
    }
  };
  const auto deal_to_idle = [&] {
    for (std::size_t k = 0; k < workers && !pending.empty(); ++k) {
      Proc& proc = procs[k];
      if (proc.pid <= 0 || proc.busy) continue;
      const exp::DealBlock block = take_longest();
      char command[96];
      const int length = std::snprintf(command, sizeof command,
                                       "deal %zu %zu\n", block.begin,
                                       block.end);
      if (::write(proc.command_fd, command,
                  static_cast<std::size_t>(length)) != length) {
        // The worker is dying; the reap sweep will handle it.
        requeue(block);
        continue;
      }
      proc.busy = true;
      proc.block = block;
    }
  };

  bool gave_up = false;
  while ((!pending.empty() || any_busy()) && g_coordinator_signal == 0) {
    deal_to_idle();
    struct pollfd fd {};
    fd.fd = ack_pipe[0];
    fd.events = POLLIN;
    const int ready = ::poll(&fd, 1, 200);
    if (ready < 0 && errno != EINTR) {
      restore_handlers();
      throw std::runtime_error(std::string("coordinator: poll failed: ") +
                               std::strerror(errno));
    }
    drain_acks();
    for (;;) {
      int status = 0;
      const pid_t pid = ::waitpid(-1, &status, WNOHANG);
      if (pid <= 0) break;
      std::size_t k = workers;
      for (std::size_t i = 0; i < workers; ++i)
        if (procs[i].pid == pid) k = i;
      if (k == workers) {
        restore_handlers();
        throw std::runtime_error("coordinator: reaped unknown child pid " +
                                 std::to_string(pid) +
                                 "; deal bookkeeping is corrupt");
      }
      procs[k].pid = -1;
      ::close(procs[k].command_fd);
      procs[k].command_fd = -1;
      // An ack flushed just before the death must win over a re-deal:
      // the acked block's records are on disk.
      drain_acks();
      if (procs[k].busy) {
        std::cerr << "worker " << k << "/" << workers
                  << " lost mid-block (cells " << procs[k].block.begin
                  << ".." << procs[k].block.end << "); re-dealing it\n";
        requeue(procs[k].block);
        procs[k].busy = false;
      }
      // A dealt worker only exits after "done"; any exit here is a loss.
      if (procs[k].attempts < kMaxAttempts) {
        std::cerr << "worker " << k << "/" << workers
                  << " lost; respawning with resume\n";
        spawn(k, true);
      } else {
        std::cerr << "worker " << k << "/" << workers << " failed "
                  << kMaxAttempts
                  << " times; continuing with the remaining workers\n";
      }
    }
    if (live_workers() == 0 && (!pending.empty() || any_busy())) {
      gave_up = true;
      break;
    }
  }

  if (g_coordinator_signal != 0) {
    const int sig = static_cast<int>(g_coordinator_signal);
    std::cerr << "coordinator: caught signal " << sig << "; stopping "
              << live_workers() << " workers\n";
    for (const Proc& proc : procs)
      if (proc.pid > 0) ::kill(proc.pid, sig);
    for (Proc& proc : procs) {
      if (proc.pid <= 0) continue;
      int status = 0;
      while (::waitpid(proc.pid, &status, 0) < 0 && errno == EINTR) {
      }
      proc.pid = -1;
    }
    close_fds();
    restore_handlers();
    std::cerr << "coordinator: interrupted; worker files retained — rerun "
                 "with --resume to continue\n";
    return 128 + sig;
  }

  // Retire the fleet: every block is acked, so a worker that fails to
  // exit cleanly after "done" cannot lose data — merge validates every
  // record anyway.
  for (const Proc& proc : procs)
    if (proc.pid > 0 && proc.command_fd >= 0)
      (void)!::write(proc.command_fd, "done\n", 5);
  for (Proc& proc : procs) {
    if (proc.pid <= 0) continue;
    int status = 0;
    while (::waitpid(proc.pid, &status, 0) < 0 && errno == EINTR) {
    }
    if (!WIFEXITED(status) || WEXITSTATUS(status) != 0)
      std::cerr << "note: a worker exited uncleanly after its last ack; "
                   "the merge below validates every record\n";
    proc.pid = -1;
  }
  close_fds();
  restore_handlers();
  if (gave_up)
    throw std::runtime_error(
        "dealt campaign failed: every worker kept dying; fix the cause and "
        "rerun with --resume to keep the completed blocks");

  exp::merge_campaign_deal_shards(campaign, workers, out);
  if (!keep_shards)
    for (std::size_t k = 0; k < workers; ++k) {
      std::error_code ignored;
      std::filesystem::remove(exp::shard_path(out, {k, workers}), ignored);
    }
  return print_results(campaign, out, workers);
}
#endif

/// --list, --summarize, --merge, --worker and --workers each select a
/// different mode: combining two would silently drop one, so it is an
/// error naming both. --keep-shards only means something under --workers.
void reject_mode_conflicts(const CliParser& cli) {
  const char* modes[] = {"list", "summarize", "merge", "worker", "workers"};
  const char* chosen = nullptr;
  for (const char* mode : modes) {
    if (!cli.has(mode)) continue;
    if (chosen != nullptr)
      throw std::invalid_argument("--" + std::string(chosen) + " and --" +
                                  mode +
                                  " select different modes; pass one of them");
    chosen = mode;
  }
  if (cli.has("keep-shards") && !cli.has("workers"))
    throw std::invalid_argument("--keep-shards requires --workers");
}

}  // namespace

int main(int argc, char** argv) {
  try {
    CliParser cli(argc, argv);
    cli.describe("campaign",
                 "campaign grid file: scenario keys, sweepable axes (n, p, "
                 "mtbf_years, fault_law, checkpoint_unit_cost, period_rule, "
                 "arrival_law, load_factor) and a configs selector "
                 "(see src/exp/campaign.hpp)")
        .describe("out", "JSONL results file (one record per cell)")
        .describe("resume",
                  "continue an interrupted --out file (with --worker or "
                  "--workers, the worker files): only missing cells are "
                  "computed")
        .describe("summarize",
                  "aggregate this JSONL file instead of running anything")
        .describe("list", "print the grid points and configurations, then exit")
        .describe("threads", "worker threads (default: COREDIS_THREADS or all cores; "
                  "per process under --workers, where the default is a fair share)")
        .describe("runs", "override the campaign's repetitions per point")
        .describe("seed", "override the campaign's master seed")
        .describe("workers",
                  "coordinate N local worker processes, dealing cost-guided "
                  "cell blocks to idle workers, then merge byte-identically "
                  "into --out")
        .describe("worker",
                  "run worker <index>/<count>'s fixed contiguous block of "
                  "cells (e.g. 1/4) into its own worker file, for external "
                  "launchers")
        .describe("merge",
                  "merge <count> completed worker files into --out, then exit")
        .describe("keep-shards",
                  "keep the worker files after a --workers merge");
    if (cli.wants_help()) {
      std::cout << cli.usage("campaign grid runner (run/resume/summarize)");
      return 0;
    }
    cli.reject_unknown();
    reject_mode_conflicts(cli);

    const std::string campaign_path = cli.get_string("campaign", "");
    if (campaign_path.empty())
      throw std::invalid_argument("--campaign <file> is required");
    exp::Campaign campaign = exp::load_campaign(campaign_path);
    // Overrides parse through the scenario-file semantics, so --seed
    // covers the same full 64-bit range campaign files do.
    if (const auto runs = cli.get("runs"))
      exp::apply_scenario_key(campaign.grid.base, "runs", *runs);
    if (const auto seed = cli.get("seed"))
      exp::apply_scenario_key(campaign.grid.base, "seed", *seed);
    if (campaign.grid.base.runs < 1)
      throw std::runtime_error("campaign: runs must be >= 1");

    if (cli.get_bool("list")) return list_campaign(campaign);
    if (const auto summarize = cli.get("summarize"))
      return summarize_campaign(campaign, *summarize);

    const std::string out = cli.get_string("out", "");
    if (out.empty())
      throw std::invalid_argument(
          "--out <file.jsonl> is required (or --list/--summarize)");
    const long threads = cli.get_int("threads", 0);
    if (threads < 0) throw std::invalid_argument("--threads must be >= 0");

    exp::GridRunOptions options;
    options.jsonl_path = out;
    options.resume = cli.get_bool("resume");
    options.threads = static_cast<std::size_t>(threads);

    if (cli.has("merge")) {
      const long count = cli.get_int("merge", 0);
      if (count < 1) throw std::invalid_argument("--merge must be >= 1");
      if (std::filesystem::exists(out))
        throw std::runtime_error("output file exists: " + out +
                                 " (remove it to merge again)");
      return merge_to(campaign, static_cast<std::size_t>(count), out);
    }
    if (const auto worker = cli.get("worker"))
      return run_worker(campaign, exp::parse_shard_spec(*worker), options);
    if (cli.has("workers")) {
      const long count = cli.get_int("workers", 0);
      if (count < 1) throw std::invalid_argument("--workers must be >= 1");
      if (!options.resume) {
        refuse_existing(out, "output file");
        refuse_existing_shards(out, static_cast<std::size_t>(count));
      }
#if defined(COREDIS_CAMPAIGN_FORK)
      return run_dealt(campaign, static_cast<std::size_t>(count),
                       cli.get_bool("keep-shards"), options);
#else
      std::cerr << "note: no fork() on this platform; running the campaign "
                   "in this process (same bytes)\n";
      return run_campaign_to(campaign, options);
#endif
    }
    if (!options.resume) refuse_existing(out, "output file");
    return run_campaign_to(campaign, options);
  } catch (const std::exception& error) {
    std::cerr << "error: " << error.what() << '\n';
    return 1;
  }
}
