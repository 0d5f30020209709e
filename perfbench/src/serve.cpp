/// \file serve.cpp
/// serve_mix: an in-process serve::Server on a socket in the working
/// directory, driven by an open-loop Poisson stream of what_if and admit
/// requests. The pool holds fewer workspaces than the stream has keys,
/// so both hits and misses occur; latency counts from each request's
/// scheduled send, so a stall is charged to every request it delays.

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <csignal>
#include <cstring>
#include <functional>
#include <map>
#include <stdexcept>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include "serve/protocol.hpp"
#include "serve/server.hpp"
#include "util/rng.hpp"
#include "workloads.hpp"

namespace perfbench {

using namespace coredis;

namespace {

constexpr const char* kSocket = "serve.sock";

/// Client connections, each with a sending and a receiving thread.
constexpr std::size_t kConnections = 4;

/// The open-loop rate, req/s: 0.15 of the capacity measured at T = 2 on
/// the reference machine (166-170 req/s; perfbench/README.md). At so
/// light a load p50_ms is service time and tail_ms pool misses; at 0.3
/// queueing amplified the machine's drift past the bounds.
constexpr double kRate = 25.0;

/// Untraced runs spend this share of their time on the stream, the rest
/// on two bursts of kBurst requests sent at once, one before the stream
/// and one after it, which measure capacity.
constexpr double kStreamShare = 0.8;
constexpr std::size_t kBurst = 200;

int connect_socket() {
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  std::memcpy(addr.sun_path, kSocket, std::strlen(kSocket) + 1);
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd < 0) throw std::runtime_error("socket(): " + std::string(strerror(errno)));
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof addr) != 0) {
    ::close(fd);
    return -1;
  }
  return fd;
}

bool send_all(int fd, const std::string& data) {
  for (std::size_t sent = 0; sent < data.size();) {
    const ssize_t n =
        ::send(fd, data.data() + sent, data.size() - sent, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    sent += static_cast<std::size_t>(n);
  }
  return true;
}

bool recv_line(int fd, std::string& buffer, std::string& line) {
  for (;;) {
    const std::size_t nl = buffer.find('\n');
    if (nl != std::string::npos) {
      line = buffer.substr(0, nl);
      buffer.erase(0, nl + 1);
      return true;
    }
    char chunk[4096];
    const ssize_t n = ::recv(fd, chunk, sizeof chunk, 0);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return false;
    buffer.append(chunk, static_cast<std::size_t>(n));
  }
}

/// One client connection: a writer that sends on schedule and a reader
/// that times the in-order replies.
struct Connection {
  int fd = -1;
  std::vector<std::size_t> requests;  ///< request indices, in send order
  std::vector<Clock::time_point> sent;
  std::vector<Clock::time_point> replied;
  std::vector<std::string> responses;
};

/// `{"id":N` replaced by `{"id":0`, so equal requests compare equal.
std::string without_id(const std::string& response) {
  const std::size_t comma = response.find(',');
  return comma == std::string::npos ? response
                                    : "{\"id\":0" + response.substr(comma);
}

}  // namespace

ServeMix::Pick ServeMix::pick(std::size_t i) const {
  // Every block of scenarios x reps x selectors requests holds each
  // combination once, in a seeded order: seeds change the order, never
  // the mix.
  const std::size_t combos = scenarios.size() * reps * selectors.size();
  std::vector<std::size_t> order(combos);
  for (std::size_t k = 0; k < combos; ++k) order[k] = k;
  Rng rng = Rng::child(seed, i / combos);
  for (std::size_t k = combos; k > 1; --k)
    std::swap(order[k - 1], order[rng.uniform_int(0, k - 1)]);
  std::size_t combo = order[i % combos];
  Pick out;
  out.selector = combo % selectors.size();
  combo /= selectors.size();
  out.rep = combo % reps;
  out.scenario = combo / reps;
  out.admit = i % 2 == 1;
  return out;
}

std::string ServeMix::line(std::size_t i) const {
  const Pick p = pick(i);
  return "{\"id\":" + std::to_string(i) + ",\"op\":\"" +
         (p.admit ? "admit" : "what_if") +
         "\",\"tenant\":\"bench\",\"scenario\":\"" + scenarios[p.scenario] +
         "\",\"configs\":\"" + selectors[p.selector] +
         "\",\"rep\":" + std::to_string(p.rep) + "}";
}

ServeRun serve_run(Context& ctx, const ServeMix& mix,
                   const std::function<void()>& alongside) {
  std::signal(SIGPIPE, SIG_IGN);
  serve::ServerOptions server_options;
  server_options.socket_path = kSocket;
  server_options.pool_capacity = mix.pool_capacity;
  server_options.threads = ctx.threads;
  server_options.replace_stale_socket = true;
  serve::Server server(server_options);
  std::string server_error;  // written before server_failed is set
  std::atomic<bool> server_failed{false};
  std::thread runner([&server, &server_error, &server_failed] {
    try {
      server.run();
    } catch (const std::exception& failure) {
      server_error = failure.what();
      server_failed = true;
    }
  });

  // Group commit batches only requests that queue while a batch runs,
  // so batches of two or more need at least three connections.
  ServeRun out;
  const std::size_t count = std::min<std::size_t>(
      {kConnections, std::max(1u, std::thread::hardware_concurrency()),
       mix.requests});
  std::vector<Connection> conns(count);
  try {
    const Clock::time_point give_up = Clock::now() + std::chrono::seconds(10);
    for (Connection& conn : conns) {
      while ((conn.fd = connect_socket()) < 0) {
        if (server_failed) throw std::runtime_error("server: " + server_error);
        if (Clock::now() > give_up)
          throw std::runtime_error("cannot connect to the server");
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
    }

    std::string buffer, line;
    for (std::uint64_t id = 0; id < 200; ++id) {
      Span span("serve.ping", id);
      if (!send_all(conns[0].fd, "{\"id\":" + std::to_string(id) +
                                     ",\"op\":\"ping\"}\n") ||
          !recv_line(conns[0].fd, buffer, line))
        throw std::runtime_error("ping failed");
      out.ping_s.push_back(span.stop());
      if (line != serve::ping_response(id))
        ctx.report.fail("unexpected ping reply: " + line);
    }

    // Open-loop schedule: a Poisson process of rate `rate` conditioned
    // on `requests` arrivals in [0, requests / rate] — sorted uniform
    // times, seeded — dealt to the connections round-robin.
    Rng rng(mix.seed);
    const double span = static_cast<double>(mix.requests) / mix.rate;
    std::vector<double> offsets(mix.requests);
    for (double& offset : offsets) offset = rng.uniform(0.0, span);
    std::sort(offsets.begin(), offsets.end());
    const Clock::time_point start = Clock::now() + std::chrono::milliseconds(20);
    std::vector<Clock::time_point> due(mix.requests);
    for (std::size_t i = 0; i < mix.requests; ++i) {
      due[i] = start + std::chrono::duration_cast<Clock::duration>(
                           std::chrono::duration<double>(offsets[i]));
      conns[i % count].requests.push_back(i);
    }

    std::vector<std::thread> threads;
    struct Joiner {
      std::vector<std::thread>& threads;
      ~Joiner() {
        for (std::thread& thread : threads)
          if (thread.joinable()) thread.join();
      }
    } joiner{threads};
    for (Connection& conn : conns) {
      conn.sent.resize(conn.requests.size());
      threads.emplace_back([&conn, &due, &mix] {
        for (std::size_t k = 0; k < conn.requests.size(); ++k) {
          std::this_thread::sleep_until(due[conn.requests[k]]);
          conn.sent[k] = Clock::now();
          if (!send_all(conn.fd, mix.line(conn.requests[k]) + "\n")) return;
        }
      });
      threads.emplace_back([&conn] {
        std::string buffer, line;
        while (conn.responses.size() < conn.requests.size() &&
               recv_line(conn.fd, buffer, line)) {
          conn.replied.push_back(Clock::now());
          conn.responses.push_back(line);
        }
      });
    }
    if (alongside) {
      do {
        alongside();
      } while (Clock::now() < due.back());
    }
    for (std::thread& thread : threads) thread.join();
    out.stats = server.service().stats();

    Clock::time_point last = start;
    for (const Connection& conn : conns)
      for (std::size_t k = 0; k < conn.responses.size(); ++k) {
        const std::size_t i = conn.requests[k];
        out.latency_s.push_back(
            std::chrono::duration<double>(conn.replied[k] - due[i]).count());
        out.lag_s.push_back(
            std::chrono::duration<double>(conn.sent[k] - due[i]).count());
        last = std::max(last, conn.replied[k]);
        Tracer::instance().record("serve.request", conn.sent[k],
                                  conn.replied[k], i);
      }
    out.wall_s = std::chrono::duration<double>(last - start).count();
  } catch (...) {
    for (Connection& conn : conns)
      if (conn.fd >= 0) ::close(conn.fd);
    server.request_stop();
    runner.join();
    throw;
  }
  for (Connection& conn : conns) ::close(conn.fd);
  server.request_stop();
  runner.join();

  // Every response must equal a sequential execute of the same request
  // on a private Service (ids aside; equal requests are executed once).
  serve::Service reference(mix.keys() + 1, 1);
  std::map<std::tuple<std::size_t, std::size_t, std::size_t, bool>, std::string>
      expected;
  ctx.report.attempt(mix.requests);
  std::size_t answered = 0;
  for (const Connection& conn : conns) {
    answered += conn.responses.size();
    for (std::size_t k = 0; k < conn.responses.size(); ++k) {
      const std::size_t i = conn.requests[k];
      const ServeMix::Pick p = mix.pick(i);
      const auto key = std::make_tuple(p.scenario, p.rep, p.selector, p.admit);
      auto it = expected.find(key);
      if (it == expected.end()) {
        serve::Request request;
        std::string error;
        std::string response = serve::parse_request(mix.line(i), request, error)
                                   ? reference.execute(request)
                                   : serve::error_response(i, error);
        it = expected.emplace(key, without_id(response)).first;
      }
      const std::string& got = conn.responses[k];
      if (got.rfind("{\"id\":" + std::to_string(i) + ",", 0) != 0 ||
          without_id(got) != it->second)
        ctx.report.fail("request " + std::to_string(i) +
                        " answered differently from a sequential execute: " +
                        got.substr(0, 120));
    }
  }
  for (std::size_t lost = answered; lost < mix.requests; ++lost)
    ctx.report.fail("a request was never answered");
  return out;
}

std::vector<Scenario> served_scenarios(const Options& options) {
  Scenario exponential;
  exponential.n = options.tiny ? 10 : 100;
  exponential.p = 10 * exponential.n;
  exponential.mtbf_years = 10.0;
  exponential.seed = kDefaultSeed;
  Scenario weibull = exponential;
  weibull.fault_law = exp::FaultLaw::Weibull;
  return {exponential, weibull};
}

ServeMix serve_inputs(const Options& options) {
  ServeMix mix;
  for (const Scenario& scenario : served_scenarios(options))
    mix.scenarios.push_back(scenario_line(scenario));
  mix.selectors = {"paper", "ig_local", "stf_greedy,stf_local",
                   "bandit(window=50, explore=0.1)"};
  mix.reps = 16;
  mix.pool_capacity = 24;
  mix.rate = kRate;
  mix.seed = options.seed;
  return mix;
}

void small_serve_probe(Context& ctx) {
  ServeMix mix = serve_inputs(ctx.options);
  mix.requests = 40;
  serve_probe(ctx, mix, serve_run(ctx, mix));
}

void serve_mix(Context& ctx) {
  const Options& options = ctx.options;
  // The served scenarios are fixed, as a deployment's tenants are; the
  // seed drives the request stream: its order and arrival times.
  const std::vector<Scenario> served = served_scenarios(options);
  ServeMix mix = serve_inputs(options);
  ctx.ready();
  if (options.setup_only) return;
  Report::info("serve_mix: " + std::to_string(mix.rate) + " req/s, T = " +
               std::to_string(ctx.threads) + " threads, pool " +
               std::to_string(mix.pool_capacity) +
               " of " + std::to_string(mix.keys()) + " keys");

  // Untraced, the stream leaves time for the capacity bursts around it.
  const double budget =
      options.trace ? options.seconds / 2 : kStreamShare * options.seconds;
  mix.requests = std::max<std::size_t>(
      20, static_cast<std::size_t>(mix.rate * budget));

  if (!options.trace) {
    // Capacity: the stream's first requests, on a fresh server, all due
    // at once, so it answers as fast as it can.
    ServeMix burst = mix;
    burst.rate = 1e9;
    burst.requests = options.tiny ? 10 : kBurst;
    std::vector<ServeRun> bursts{serve_run(ctx, burst)};

    // The cold side, a paper what-if as a pool miss computes it on a
    // fresh workspace, is timed on this thread while the stream runs: one
    // cell every 500 ms, the scenarios in turn, so the median spans the
    // run and the cells take under 5% of one CPU from the server.
    const std::vector<exp::ConfigSpec> paper = exp::paper_curves();
    std::vector<std::vector<double>> cold(served.size());
    std::uint64_t tick = 0;
    const ServeRun run = serve_run(ctx, mix, [&] {
      const std::size_t p = tick % served.size();
      const std::uint64_t rep = (tick++ / served.size()) % mix.reps;
      Span span("exp.run_cell", rep);
      const CellResult cell = exp::run_cell(served[p], paper, rep);
      cold[p].push_back(span.stop());
      ctx.report.attempt();
      std::string why;
      if (!cell_ok(cell, paper.size(), why))
        ctx.report.fail("cold cell " + std::to_string(rep) + ": " + why);
      std::this_thread::sleep_for(std::chrono::milliseconds(500));
    });

    bursts.push_back(serve_run(ctx, burst));

    double cold_s = 0.0;
    for (const std::vector<double>& point : cold) cold_s += median(point);
    cold_s /= static_cast<double>(cold.size());
    std::vector<double> latency_ms;
    for (const double s : run.latency_s) latency_ms.push_back(1e3 * s);
    const auto [tail_ms, percentile] = tail(latency_ms);
    Report::info("tail_ms is p" + std::to_string(percentile) + " of " +
                 std::to_string(latency_ms.size()) + " requests; the stream "
                 "completed " + std::to_string(run.latency_s.size() / run.wall_s) +
                 " req/s");
    ctx.report.metric("cell_s", cold_s, "s");
    double answered = 0.0, wall_s = 0.0;
    for (const ServeRun& b : bursts) {
      answered += static_cast<double>(b.latency_s.size());
      wall_s += b.wall_s;
    }
    ctx.report.metric("cells_per_s", answered / wall_s, "1/s");
    ctx.report.metric("p50_ms", median(latency_ms), "ms");
    ctx.report.metric("tail_ms", tail_ms, "ms");
    return;
  }

  const ServeRun reference = serve_run(ctx, mix);
  Tracer::instance().start(options.workload);
  const ServeRun traced = serve_run(ctx, mix);
  ctx.report.metric("harness.trace_overhead",
                    median(traced.latency_s) / median(reference.latency_s),
                    "ratio");
  core_probe(ctx, served.front());
  report_cfg_loop(ctx, cfg_loop(ctx, served, 2, 4));
  small_exp_probe(ctx);
  serve_probe(ctx, mix, traced);
}

}  // namespace perfbench
