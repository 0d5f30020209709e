/// \file rss_gate.cpp
/// Peak-RSS gate: the cold fault-free context with RC at two platform sizes.
///
/// Runs coredis_sim on the proxy of a paper cell's fault-free context with
/// RC (n = 1000, MTBF 100 years, EndLocal, no failure heuristic, seed 42)
/// at p = 10n and at p = 2.4n. Each run replays a fault trace that holds
/// only its header, so the model keeps lambda > 0 and the checkpoint costs
/// while no fault is ever drawn. The gate reads each child's peak resident
/// set (ru_maxrss from wait4) and fails when the p = 10n run peaks above
/// kLimit times the p = 2.4n run (DESIGN.md section 6.2).
///
/// On Linux a child's ru_maxrss also covers the image it replaced at exec,
/// that is the spawner's resident set, so the spawner must stay small: a
/// python3 parent's own 14 MB would hide the p = 2.4n run (6 MB) entirely.
/// The gate therefore forks the runs from this small process and refuses
/// to judge when a run peaks within kFloorMargin of the gate's own peak.
///
///   rss_gate build/coredis_sim
///
/// Prints one line with the floor, both peaks and their ratio; exits 0
/// when the ratio is at most kLimit, 1 when it is above it, a run failed
/// or a peak is too close to the floor to be the simulator's own.

#include <sys/resource.h>
#include <sys/wait.h>
#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <string>

namespace {

constexpr int kN = 1000;
constexpr int kPlatforms[] = {10 * kN, 24 * kN / 10};
/// ROADMAP item 7's target. With the fault-free bound priced on the fly
/// (DESIGN.md section 6.2) this reads about 1.15x; keeping its t_ij and
/// C lanes resident read 2.9x, and a six-lane row for every probed entry
/// 4.6x.
constexpr double kLimit = 2.0;
/// A peak at most this factor above the gate's own is unresolved.
constexpr double kFloorMargin = 1.1;

/// This process's own peak resident set in MB, which bounds what a forked
/// child carries into exec; -1 when unknown. VmHWM, not ru_maxrss: the
/// gate's ru_maxrss holds the image that its own exec replaced (ctest's).
double own_peak_mb() {
  std::FILE* status = std::fopen("/proc/self/status", "r");
  if (status == nullptr) return -1.0;
  char line[256];
  long kb = -1;
  while (kb < 0 && std::fgets(line, sizeof line, status) != nullptr)
    if (std::sscanf(line, "VmHWM: %ld kB", &kb) != 1) kb = -1;
  std::fclose(status);
  return kb < 0 ? -1.0 : static_cast<double>(kb) / 1024.0;
}

/// Run the proxy at p processors; the child's peak RSS in MB, or a
/// negative value (with a message on stderr) when it could not run.
double peak_mb(const char* sim, int p, const std::string& trace) {
  std::FILE* out = std::fopen(trace.c_str(), "w");
  if (out == nullptr ||
      std::fprintf(out, "# coredis fault trace\n# processors %d\n", p) < 0 ||
      std::fclose(out) != 0) {
    std::fprintf(stderr, "rss_gate: cannot write %s\n", trace.c_str());
    return -1.0;
  }
  const std::string tasks = std::to_string(kN);
  const std::string procs = std::to_string(p);
  const char* argv[] = {sim, "--n", tasks.c_str(), "--p", procs.c_str(),
                        "--mtbf", "100", "--end", "local", "--fail", "none",
                        "--seed", "42", "--trace-in", trace.c_str(), nullptr};
  const pid_t pid = ::fork();
  if (pid == 0) {
    const int null = ::open("/dev/null", O_WRONLY);
    if (null >= 0) ::dup2(null, STDOUT_FILENO);
    ::execv(sim, const_cast<char* const*>(argv));
    ::_exit(127);
  }
  int status = 0;
  rusage usage{};
  if (pid < 0 || ::wait4(pid, &status, 0, &usage) != pid) {
    std::fprintf(stderr, "rss_gate: p = %d: cannot run %s\n", p, sim);
    return -1.0;
  }
  if (!WIFEXITED(status) || WEXITSTATUS(status) != 0) {
    std::fprintf(stderr, "rss_gate: p = %d: %s did not exit 0\n", p, sim);
    return -1.0;
  }
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc != 2) {
    std::fprintf(stderr, "usage: rss_gate <coredis_sim>\n");
    return 2;
  }
  const char* tmp = std::getenv("TMPDIR");
  std::string dir = tmp != nullptr && *tmp != '\0' ? tmp : "/tmp";
  dir += "/rss_gate.XXXXXX";
  if (::mkdtemp(dir.data()) == nullptr) {
    std::fprintf(stderr, "rss_gate: cannot make a directory in %s\n",
                 dir.c_str());
    return 1;
  }
  const double floor_mb = own_peak_mb();
  double peak[2];
  for (int k = 0; k < 2; ++k) {
    const std::string trace =
        dir + "/empty_" + std::to_string(kPlatforms[k]) + ".trace";
    peak[k] = peak_mb(argv[1], kPlatforms[k], trace);
    std::remove(trace.c_str());
  }
  ::rmdir(dir.c_str());
  if (peak[0] < 0.0 || peak[1] < 0.0) return 1;
  if (floor_mb < 0.0) {
    std::fprintf(stderr, "rss_gate: no VmHWM in /proc/self/status\n");
    return 1;
  }

  const double ratio = peak[0] / peak[1];
  const bool resolved = std::min(peak[0], peak[1]) > kFloorMargin * floor_mb;
  const bool ok = resolved && ratio <= kLimit;
  std::printf("rss_gate: floor %.1f MB, peak RSS p=%d %.1f MB, p=%d %.1f MB, "
              "ratio %.2f (limit %.2f): %s\n",
              floor_mb, kPlatforms[0], peak[0], kPlatforms[1], peak[1], ratio,
              kLimit, ok ? "ok" : resolved ? "FAIL" : "unresolved");
  return ok ? 0 : 1;
}
