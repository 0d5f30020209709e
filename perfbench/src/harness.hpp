#pragma once

/// \file harness.hpp
/// What every perfbench workload shares: options, the span tracer,
/// sample statistics, output digests, memory readings and the result
/// report printed as the run's last line.

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <filesystem>
#include <map>
#include <mutex>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

/// Seconds from `since` to now.
[[nodiscard]] double elapsed_s(Clock::time_point since);

/// The seed whose outputs are pinned by digest (see each workload).
constexpr std::uint64_t kDefaultSeed = 42;

struct Options {
  std::string workload;
  std::uint64_t seed = kDefaultSeed;
  double seconds = 10.0;  ///< measuring time of the main loop
  bool trace = false;     ///< per-layer run instead of end-to-end
  bool setup_only = false;  ///< print "ready" after set-up, then exit
  bool tiny = false;      ///< smoke-test sizes (no pinned digests)
  std::size_t threads = 0;  ///< T; 0 = min(2, nproc)
};

// --- tracing ----------------------------------------------------------------

/// One timed call into a layer. `layer` is the name's first component.
struct SpanRecord {
  std::string name;
  double start = 0.0;  ///< seconds since the tracer started
  double end = 0.0;
  int parent = -1;     ///< index of the enclosing span, -1 for a root
  std::uint64_t id = 0;  ///< request or cell id; spans of one request share it
};

/// In-memory span store. Off in untraced runs: spans then record nothing
/// and cost one clock read at each end, like the timers they replace.
class Tracer {
 public:
  static Tracer& instance();

  /// Start recording; spans carry `workload` as their workload id.
  void start(std::string workload);
  [[nodiscard]] bool on() const noexcept { return on_; }

  /// Open a span under the calling thread's current span.
  int open(const char* name, std::uint64_t id);
  void close(int index);
  /// A root span whose ends were read elsewhere: a request in flight
  /// between its send and its reply, or a call timed with plain clock
  /// reads in a loop where opening spans would cost too much.
  void record(const char* name, Clock::time_point start, Clock::time_point end,
              std::uint64_t id);

  /// Self time per layer: the wall seconds in which some span of the
  /// layer was running outside its direct children. Overlapping spans
  /// (other threads, requests in flight together) count once.
  [[nodiscard]] std::map<std::string, double> self_time() const;

  /// Write every span as one JSON line to `path`.
  void write(const std::filesystem::path& path) const;

 private:
  [[nodiscard]] double now() const;

  bool on_ = false;
  std::string workload_;
  Clock::time_point epoch_ = Clock::now();
  mutable std::mutex mutex_;
  std::vector<SpanRecord> spans_;
};

/// RAII span that doubles as a stopwatch: seconds() is always valid,
/// the span is recorded only when tracing is on.
class Span {
 public:
  explicit Span(const char* name, std::uint64_t id = 0);
  ~Span();
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  /// Seconds since construction (or until stop()).
  [[nodiscard]] double seconds() const;
  /// End the span now; returns its duration.
  double stop();

 private:
  Clock::time_point start_;
  Clock::time_point end_{};
  int index_ = -1;
  bool stopped_ = false;
};

// --- statistics ---------------------------------------------------------------

[[nodiscard]] double median(std::vector<double> values);

/// The highest percentile with at least ten samples beyond it; with
/// fewer than 21 samples, the maximum. Returns {value, percentile}.
[[nodiscard]] std::pair<double, double> tail(std::vector<double> values);

// --- outputs ------------------------------------------------------------------

/// FNV-1a over the bytes fed in; doubles are fed as "%.17g".
class Digest {
 public:
  void add(std::string_view bytes);
  void add(double value);
  void add(long long value);
  [[nodiscard]] std::string hex() const;

 private:
  std::uint64_t hash_ = 0xcbf29ce484222325ULL;
};

[[nodiscard]] std::string read_file(const std::filesystem::path& path);

/// Heap bytes in use now (mallinfo2: arena plus mmapped blocks), in MB.
/// Unlike the resident set it is not hidden by pages the allocator kept
/// from earlier frees.
[[nodiscard]] double heap_in_use_mb();
/// The process's peak resident set so far, in MB.
[[nodiscard]] double peak_rss_mb();

/// The run's verdict and metrics, printed as one JSON line.
class Report {
 public:
  void metric(const std::string& name, double value, const std::string& unit);
  void attempt(std::size_t count = 1) { attempted_ += count; }
  /// Count one failed, wrong or lost operation and say why on stderr.
  void fail(const std::string& why);
  /// A note on stderr (chosen parameters, percentiles).
  static void info(const std::string& text);

  [[nodiscard]] bool correct() const noexcept { return failed_ == 0; }
  [[nodiscard]] std::string json() const;

 private:
  std::size_t attempted_ = 0;
  std::size_t failed_ = 0;
  std::vector<std::pair<std::string, std::pair<double, std::string>>> metrics_;
};

/// Everything a workload gets: its options and the resolved thread
/// count. It runs in a private scratch directory, its working directory.
struct Context {
  Options options;
  std::size_t threads = 1;  ///< T
  Report report;

  /// Set-up is over: print "ready" and the seconds since the process's
  /// own code first ran (before any static initializer).
  void ready() const;
};

}  // namespace perfbench
