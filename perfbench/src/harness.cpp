#include "harness.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <sstream>
#include <stdexcept>

#include <malloc.h>
#include <sys/resource.h>

namespace perfbench {

double elapsed_s(Clock::time_point since) {
  return std::chrono::duration<double>(Clock::now() - since).count();
}

// --- tracing ----------------------------------------------------------------

namespace {
thread_local int current_span = -1;
}  // namespace

Tracer& Tracer::instance() {
  static Tracer tracer;
  return tracer;
}

void Tracer::start(std::string workload) {
  on_ = true;
  workload_ = std::move(workload);
}

double Tracer::now() const {
  return std::chrono::duration<double>(Clock::now() - epoch_).count();
}

int Tracer::open(const char* name, std::uint64_t id) {
  const double start = now();
  std::lock_guard lock(mutex_);
  spans_.push_back({name, start, start, current_span, id});
  current_span = static_cast<int>(spans_.size()) - 1;
  return current_span;
}

void Tracer::close(int index) {
  const double end = now();
  std::lock_guard lock(mutex_);
  SpanRecord& span = spans_[static_cast<std::size_t>(index)];
  span.end = end;
  current_span = span.parent;
}

void Tracer::record(const char* name, Clock::time_point start,
                    Clock::time_point end, std::uint64_t id) {
  if (!on_) return;
  const auto since = [this](Clock::time_point t) {
    return std::chrono::duration<double>(t - epoch_).count();
  };
  std::lock_guard lock(mutex_);
  spans_.push_back({name, since(start), since(end), -1, id});
}

std::map<std::string, double> Tracer::self_time() const {
  std::lock_guard lock(mutex_);
  // Children open in start order on their parent's thread and nest in it.
  std::vector<std::vector<std::size_t>> children(spans_.size());
  for (std::size_t i = 0; i < spans_.size(); ++i)
    if (spans_[i].parent >= 0)
      children[static_cast<std::size_t>(spans_[i].parent)].push_back(i);
  std::map<std::string, std::vector<std::pair<double, double>>> pieces;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const SpanRecord& span = spans_[i];
    auto& out = pieces[span.name.substr(0, span.name.find('.'))];
    double from = span.start;
    for (const std::size_t child : children[i]) {
      out.emplace_back(from, spans_[child].start);
      from = spans_[child].end;
    }
    out.emplace_back(from, span.end);
  }
  std::map<std::string, double> by_layer;
  for (auto& [layer, intervals] : pieces) {
    std::sort(intervals.begin(), intervals.end());
    double total = 0.0, reach = intervals.front().first;
    for (const auto& [start, end] : intervals) {
      total += std::max(0.0, end - std::max(start, reach));
      reach = std::max(reach, end);
    }
    by_layer[layer] = total;
  }
  return by_layer;
}

void Tracer::write(const std::filesystem::path& path) const {
  std::lock_guard lock(mutex_);
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot write " + path.string());
  char line[512];
  for (const SpanRecord& span : spans_) {
    std::snprintf(line, sizeof line,
                  "{\"workload\":\"%s\",\"name\":\"%s\",\"id\":%llu,"
                  "\"parent\":%d,\"start\":%.9f,\"end\":%.9f}\n",
                  workload_.c_str(), span.name.c_str(),
                  static_cast<unsigned long long>(span.id), span.parent,
                  span.start, span.end);
    out << line;
  }
}

Span::Span(const char* name, std::uint64_t id) : start_(Clock::now()) {
  Tracer& tracer = Tracer::instance();
  if (tracer.on()) index_ = tracer.open(name, id);
}

Span::~Span() { stop(); }

double Span::seconds() const {
  return std::chrono::duration<double>((stopped_ ? end_ : Clock::now()) -
                                       start_)
      .count();
}

double Span::stop() {
  if (!stopped_) {
    end_ = Clock::now();
    stopped_ = true;
    if (index_ >= 0) Tracer::instance().close(index_);
  }
  return seconds();
}

// --- statistics ---------------------------------------------------------------

double median(std::vector<double> values) {
  if (values.empty()) throw std::logic_error("median of no samples");
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

std::pair<double, double> tail(std::vector<double> values) {
  if (values.empty()) throw std::logic_error("tail of no samples");
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  // Below 21 samples that percentile would not exceed the median.
  const std::size_t rank = n > 20 ? n - 11 : n - 1;
  return {values[rank], 100.0 * static_cast<double>(rank + 1) /
                            static_cast<double>(n)};
}

// --- outputs ------------------------------------------------------------------

void Digest::add(std::string_view bytes) {
  for (const char c : bytes) {
    hash_ ^= static_cast<unsigned char>(c);
    hash_ *= 0x100000001b3ULL;
  }
}

void Digest::add(double value) {
  char text[40];
  std::snprintf(text, sizeof text, "%.17g;", value);
  add(std::string_view(text));
}

void Digest::add(long long value) {
  add(std::string_view(std::to_string(value) + ";"));
}

std::string Digest::hex() const {
  char text[20];
  std::snprintf(text, sizeof text, "%016llx",
                static_cast<unsigned long long>(hash_));
  return text;
}

std::string read_file(const std::filesystem::path& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("cannot read " + path.string());
  std::ostringstream bytes;
  bytes << in.rdbuf();
  return bytes.str();
}

double heap_in_use_mb() {
  const struct mallinfo2 info = ::mallinfo2();
  return static_cast<double>(info.uordblks + info.hblkhd) / (1024.0 * 1024.0);
}

double peak_rss_mb() {
  rusage usage{};
  ::getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KB on Linux
}

void Report::metric(const std::string& name, double value,
                    const std::string& unit) {
  if (!std::isfinite(value)) {
    fail("metric " + name + " is not finite");
    value = 0.0;
  }
  metrics_.push_back({name, {value, unit}});
}

void Report::fail(const std::string& why) {
  ++failed_;
  std::cerr << "perfbench: FAILED: " << why << std::endl;
}

void Report::info(const std::string& text) {
  std::cerr << "perfbench: " << text << std::endl;
}

std::string Report::json() const {
  std::ostringstream out;
  out << "{\"correct\": " << (correct() ? "true" : "false")
      << ", \"attempted\": " << std::max<std::size_t>(attempted_, 1)
      << ", \"failed\": " << failed_ << ", \"metrics\": {";
  char value[40];
  for (std::size_t i = 0; i < metrics_.size(); ++i) {
    std::snprintf(value, sizeof value, "%.17g", metrics_[i].second.first);
    out << (i ? ", " : "") << "\"" << metrics_[i].first << "\": {\"value\": "
        << value << ", \"unit\": \"" << metrics_[i].second.second << "\"}";
  }
  out << "}}";
  return out.str();
}

namespace {
Clock::time_point process_start;
void mark_process_start() { process_start = Clock::now(); }
}  // namespace

// Runs before every initializer of the program and its libraries, once
// the kernel and the dynamic loader are done.
[[gnu::section(".preinit_array"), gnu::used]] static void (*const preinit)() =
    mark_process_start;

void Context::ready() const {
  std::cout << "ready " << elapsed_s(process_start) << std::endl;
}

}  // namespace perfbench
