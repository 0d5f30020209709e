/// \file main.cpp
/// perfbench: runs one workload in this process and prints its metrics
/// as one JSON line. perfbench/run.py builds it, times set-up and wraps
/// the result; see perfbench/README.md.
///
///   perfbench --workload cell_n1000|grid_small|serve_mix --out DIR
///             [--seed N] [--seconds S] [--trace 0|1] [--threads T]
///             [--setup-only] [--tiny]

#include <algorithm>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <iostream>
#include <map>
#include <stdexcept>
#include <string>
#include <thread>

#include <unistd.h>

#include "workloads.hpp"

namespace {

using namespace perfbench;
namespace fs = std::filesystem;

std::uint64_t parse_count(const std::string& flag, const std::string& text) {
  std::size_t used = 0;
  const unsigned long long value = std::stoull(text, &used);
  if (used != text.size() || text.empty() || text[0] == '-')
    throw std::runtime_error(flag + " needs a whole number, got '" + text + "'");
  return value;
}

int run(int argc, char** argv) {
  Options options;
  fs::path out;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) throw std::runtime_error(flag + " needs a value");
      return argv[++i];
    };
    if (flag == "--workload") {
      options.workload = value();
    } else if (flag == "--out") {
      out = value();
    } else if (flag == "--seed") {
      options.seed = parse_count(flag, value());
    } else if (flag == "--seconds") {
      options.seconds = static_cast<double>(parse_count(flag, value()));
    } else if (flag == "--trace") {
      options.trace = parse_count(flag, value()) != 0;
    } else if (flag == "--threads") {
      options.threads = parse_count(flag, value());
    } else if (flag == "--setup-only") {
      options.setup_only = true;
    } else if (flag == "--tiny") {
      options.tiny = true;
    } else {
      throw std::runtime_error("unknown flag " + flag);
    }
  }
  void (*workload)(Context&) = nullptr;
  if (options.workload == "cell_n1000") workload = cell_n1000;
  if (options.workload == "grid_small") workload = grid_small;
  if (options.workload == "serve_mix") workload = serve_mix;
  if (workload == nullptr)
    throw std::runtime_error("unknown workload '" + options.workload + "'");
  if (out.empty()) throw std::runtime_error("--out is required");

  Context ctx;
  ctx.options = options;
  ctx.threads = options.threads != 0
                    ? options.threads
                    : std::clamp<std::size_t>(std::thread::hardware_concurrency(),
                                              1, 2);
  // A private scratch directory as the working directory, removed
  // however the run ends.
  struct Scratch {
    fs::path out, dir;
    ~Scratch() {
      std::error_code ignored;
      fs::current_path(out, ignored);
      fs::remove_all(dir, ignored);
    }
  } scratch{fs::absolute(out),
            fs::absolute(out) / ("run-" + std::to_string(::getpid()))};
  fs::create_directories(scratch.dir);
  fs::current_path(scratch.dir);

  workload(ctx);

  if (options.trace) {
    std::map<std::string, double> self = Tracer::instance().self_time();
    for (const char* layer : {"core", "exp", "serve"})
      ctx.report.metric(std::string(layer) + ".self_s", self[layer], "s");
    Tracer::instance().write(scratch.out /
                             ("trace-" + options.workload + ".jsonl"));
  } else {
    ctx.report.metric("peak_rss_mb", peak_rss_mb(), "MB");
  }
  if (!options.setup_only) std::cout << ctx.report.json() << std::endl;
  return ctx.report.correct() ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(argc, argv);
  } catch (const std::exception& failure) {
    std::cerr << "perfbench: " << failure.what() << std::endl;
    return 2;
  }
}
