/// Serving subsystem tests (src/serve/): workspace purity (warm ==
/// cold == run_cell), the LRU workspace pool (hits, evictions, tenant
/// isolation, leased entries surviving eviction, same-key overflow),
/// the wire protocol (parse/render, errors naming fields), the batching
/// determinism contract (batched == sequential byte-identity, under
/// concurrency), and — on POSIX — an end-to-end server over a temp
/// socket including graceful shutdown and socket unlink, and the built
/// coredis_serve daemon from boot to a clean exit.

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <gtest/gtest.h>
#include <string>
#include <thread>
#include <vector>

#include "exp/runner.hpp"
#include "exp/scenario.hpp"
#include "exp/scenario_file.hpp"
#include "serve/pool.hpp"
#include "serve/protocol.hpp"
#include "serve/server.hpp"
#include "serve/service.hpp"

#if defined(__unix__) || defined(__APPLE__)
#define COREDIS_SERVE_TEST_POSIX 1
#include <csignal>
#include <cstring>
#include <spawn.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <sys/wait.h>
#include <unistd.h>

extern char** environ;
#endif

namespace coredis::serve {
namespace {

exp::Scenario small_scenario(int n = 6, int p = 24, double mtbf_years = 5.0) {
  exp::Scenario scenario;
  scenario.n = n;
  scenario.p = p;
  scenario.mtbf_years = mtbf_years;
  scenario.runs = 2;
  return scenario;
}

std::string response_of(Service& service, const Request& request) {
  return service.execute(request);
}

Request make_request(std::uint64_t id, const exp::Scenario& scenario,
                     std::uint64_t rep, const std::string& configs,
                     const std::string& tenant = "default") {
  Request request;
  request.id = id;
  request.op = Op::WhatIf;
  request.tenant = tenant;
  request.scenario = scenario;
  request.scenario_text = exp::format_scenario(scenario);
  request.configs = exp::parse_config_set(configs);
  request.rep = rep;
  return request;
}

// ---------------------------------------------------------------------------
// CellWorkspace purity
// ---------------------------------------------------------------------------

TEST(CellWorkspace, WarmEqualsColdEqualsRunCell) {
  const exp::Scenario scenario = small_scenario();
  const std::vector<exp::ConfigSpec> configs = exp::parse_config_set("paper");

  const exp::CellResult reference = exp::run_cell(scenario, configs, 1);

  exp::CellWorkspace workspace(scenario, 1);
  const exp::CellResult cold = workspace.evaluate(configs);
  // Warm re-evaluation, including after answering different questions in
  // between: all cached state is a pure function of (scenario, rep).
  (void)workspace.evaluate(exp::parse_config_set("stf_greedy"));
  const exp::CellResult warm = workspace.evaluate(configs);

  ASSERT_EQ(reference.results.size(), cold.results.size());
  ASSERT_EQ(reference.results.size(), warm.results.size());
  EXPECT_EQ(reference.baseline, cold.baseline);
  EXPECT_EQ(reference.baseline, warm.baseline);
  for (std::size_t i = 0; i < reference.results.size(); ++i) {
    EXPECT_EQ(reference.results[i].makespan, cold.results[i].makespan);
    EXPECT_EQ(reference.results[i].makespan, warm.results[i].makespan);
    EXPECT_EQ(reference.results[i].redistributions,
              warm.results[i].redistributions);
    EXPECT_EQ(reference.results[i].faults_effective,
              warm.results[i].faults_effective);
  }
}

TEST(CellWorkspace, ProfileIsARunOptionNeverAliasedToTheBaseline) {
  // A profiled copy of the baseline spec must be simulated, not served
  // from the cached unprofiled baseline: only a run fills the counters.
  // Profiling reads clocks and counts work; it changes no decision.
  const exp::Scenario scenario = small_scenario();
  exp::ConfigSpec plain = exp::baseline_no_redistribution();
  exp::ConfigSpec profiled = plain;
  profiled.engine.profile = true;
  EXPECT_EQ(exp::canonical_policy(plain), exp::canonical_policy(profiled));

  exp::CellWorkspace workspace(scenario, 0);
  const exp::CellResult cell = workspace.evaluate({plain, profiled});
  ASSERT_EQ(cell.results.size(), 2u);
  EXPECT_EQ(cell.results[0].profile.events, 0);
  EXPECT_GT(cell.results[1].profile.events, 0);
  EXPECT_EQ(cell.results[1].makespan, cell.results[0].makespan);
  EXPECT_EQ(cell.results[1].makespan, cell.baseline);
}

// ---------------------------------------------------------------------------
// Workspace pool
// ---------------------------------------------------------------------------

TEST(WorkspacePool, HitsAndMisses) {
  WorkspacePool pool(4);
  const exp::Scenario scenario = small_scenario();
  {
    auto lease = pool.checkout("a", scenario, 0);
    EXPECT_FALSE(lease.warm());
  }
  {
    auto lease = pool.checkout("a", scenario, 0);
    EXPECT_TRUE(lease.warm());
  }
  const PoolStats stats = pool.stats();
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.resident, 1u);
}

TEST(WorkspacePool, TenantIsolation) {
  WorkspacePool pool(4);
  const exp::Scenario scenario = small_scenario();
  (void)pool.checkout("tenant_a", scenario, 0);
  // Identical scenario and rep, different tenant: must be a miss.
  auto lease = pool.checkout("tenant_b", scenario, 0);
  EXPECT_FALSE(lease.warm());
  EXPECT_EQ(pool.stats().misses, 2u);
  EXPECT_EQ(pool.stats().hits, 0u);
}

TEST(WorkspacePool, LruEviction) {
  WorkspacePool pool(2);
  (void)pool.checkout("a", small_scenario(6, 24), 0);
  (void)pool.checkout("a", small_scenario(6, 24), 1);
  (void)pool.checkout("a", small_scenario(6, 24), 2);  // evicts rep 0
  EXPECT_EQ(pool.stats().evictions, 1u);
  EXPECT_EQ(pool.stats().resident, 2u);
  {
    auto lease = pool.checkout("a", small_scenario(6, 24), 0);
    EXPECT_FALSE(lease.warm()) << "the LRU entry must have been evicted";
  }
  {
    auto lease = pool.checkout("a", small_scenario(6, 24), 2);
    EXPECT_TRUE(lease.warm()) << "the most-recent entry must have survived";
  }
}

TEST(WorkspacePool, LeasedEntriesSurviveEviction) {
  WorkspacePool pool(1);
  const exp::Scenario scenario = small_scenario();
  auto held = pool.checkout("a", scenario, 0);
  {
    // Over capacity while everything is leased: nothing is evictable and
    // the pool transiently holds more than its capacity.
    auto second = pool.checkout("a", scenario, 1);
    EXPECT_EQ(pool.stats().resident, 2u);
    EXPECT_EQ(pool.stats().evictions, 0u);
  }
  // rep 1's release shrinks the pool back: the *leased* rep 0 survives,
  // the freshly-released rep 1 is the only eviction candidate.
  EXPECT_EQ(pool.stats().resident, 1u);
  EXPECT_EQ(pool.stats().evictions, 1u);
}

TEST(WorkspacePool, SameKeyCollisionOverflows) {
  WorkspacePool pool(4);
  const exp::Scenario scenario = small_scenario();
  auto first = pool.checkout("a", scenario, 0);
  auto second = pool.checkout("a", scenario, 0);  // same key, still leased
  EXPECT_EQ(pool.stats().overflows, 1u);
  // Both leases answer bit-identically (purity).
  const std::vector<exp::ConfigSpec> configs =
      exp::parse_config_set("ig_local");
  const exp::CellResult a = first.workspace().evaluate(configs);
  const exp::CellResult b = second.workspace().evaluate(configs);
  EXPECT_EQ(a.baseline, b.baseline);
  EXPECT_EQ(a.results[0].makespan, b.results[0].makespan);
}

// ---------------------------------------------------------------------------
// Protocol
// ---------------------------------------------------------------------------

TEST(Protocol, ParsesWhatIfRequest) {
  Request request;
  std::string error;
  ASSERT_TRUE(parse_request(
      R"({"id":7,"op":"what_if","tenant":"acme","scenario":)"
      R"("n = 6; p = 24; mtbf_years = 5","configs":"ig_local","rep":3})",
      request, error))
      << error;
  EXPECT_EQ(request.id, 7u);
  EXPECT_EQ(request.op, Op::WhatIf);
  EXPECT_EQ(request.tenant, "acme");
  EXPECT_EQ(request.scenario.n, 6);
  EXPECT_EQ(request.scenario.p, 24);
  EXPECT_EQ(request.rep, 3u);
  ASSERT_EQ(request.configs.size(), 1u);
  EXPECT_EQ(request.configs[0].name, "IteratedGreedy-EndLocal");
  EXPECT_EQ(request.scenario_text, exp::format_scenario(request.scenario));
}

TEST(Protocol, PolicyFieldSelectsRegistryPolicies) {
  // 'policy' is the registry-string alias of 'configs': same selector
  // grammar, canonical names, specs carrying their policy string.
  Request request;
  std::string error;
  ASSERT_TRUE(parse_request(
      R"({"id":8,"op":"what_if","scenario":"n = 6; p = 24",)"
      R"json("policy":"bandit(window=5), pack(end=greedy)"})json",
      request, error))
      << error;
  ASSERT_EQ(request.configs.size(), 2u);
  EXPECT_EQ(request.configs[0].name, "bandit(window=5)");
  EXPECT_EQ(request.configs[0].policy, "bandit(window=5)");
  EXPECT_EQ(request.configs[1].name, "pack(end=greedy)");
}

TEST(Protocol, PolicyAndConfigsTogetherAreRejected) {
  Request request;
  std::string error;
  EXPECT_FALSE(parse_request(
      R"({"id":9,"op":"what_if","scenario":"n = 6",)"
      R"("configs":"paper","policy":"bandit"})",
      request, error));
  EXPECT_NE(error.find("either 'configs' or 'policy'"), std::string::npos)
      << error;
}

TEST(Protocol, UnknownPolicyIsAStructuredErrorNamingTheToken) {
  Request request;
  std::string error;
  EXPECT_FALSE(parse_request(
      R"({"id":10,"op":"what_if","scenario":"n = 6; p = 24",)"
      R"json("policy":"frobnicate(x=1)"})json",
      request, error));
  EXPECT_NE(error.find("unknown policy 'frobnicate'"), std::string::npos)
      << error;
  // ...and so is a known policy with a bad option value.
  EXPECT_FALSE(parse_request(
      R"({"id":11,"op":"what_if","scenario":"n = 6; p = 24",)"
      R"json("policy":"bandit(explore=7)"})json",
      request, error));
  EXPECT_NE(error.find("'explore'"), std::string::npos) << error;
  // The error renders as a well-formed response line (what the server
  // writes back instead of dropping the connection).
  const std::string response = error_response(request.id, error);
  EXPECT_EQ(response.find("{\"id\":11,\"ok\":false,\"error\":\""), 0u);
}

TEST(Protocol, WhitespaceTolerantAndOrderFree) {
  Request request;
  std::string error;
  ASSERT_TRUE(parse_request(
      "  { \"scenario\" : \"n = 6; p = 24\" , \"op\" : \"what_if\", "
      "\"id\" : 2 }  ",
      request, error))
      << error;
  EXPECT_EQ(request.id, 2u);
  EXPECT_FALSE(request.configs.empty()) << "configs defaults to 'paper'";
}

TEST(Protocol, ErrorsNameTheProblem) {
  Request request;
  std::string error;

  EXPECT_FALSE(parse_request("not json", request, error));
  EXPECT_NE(error.find("JSON object"), std::string::npos) << error;

  EXPECT_FALSE(parse_request(R"({"id":1,"op":"frobnicate"})", request, error));
  EXPECT_NE(error.find("frobnicate"), std::string::npos) << error;

  EXPECT_FALSE(parse_request(R"({"id":1,"bogus":3})", request, error));
  EXPECT_NE(error.find("bogus"), std::string::npos) << error;

  EXPECT_FALSE(parse_request(R"({"id":1,"op":"what_if"})", request, error));
  EXPECT_NE(error.find("scenario"), std::string::npos) << error;

  // Scenario errors surface the offending key, exactly like files.
  EXPECT_FALSE(parse_request(
      R"({"id":1,"op":"what_if","scenario":"n = banana"})", request, error));
  EXPECT_NE(error.find("'n'"), std::string::npos) << error;

  EXPECT_FALSE(parse_request(
      R"({"id":1,"op":"what_if","scenario":"n = 6","configs":"nope"})",
      request, error));
  EXPECT_NE(error.find("nope"), std::string::npos) << error;

  // The id scanned before the failure is kept for the error response.
  EXPECT_FALSE(parse_request(R"({"id":42,"op":"what_if","scenario":3})",
                             request, error));
  EXPECT_EQ(request.id, 42u);
}

TEST(Protocol, AdmitDecidesAgainstLimitAndBaseline) {
  Request request;
  std::string error;
  ASSERT_TRUE(parse_request(
      R"({"id":1,"op":"admit","scenario":"n = 6; p = 24","configs":)"
      R"("ig_local","limit_days":365000})",
      request, error))
      << error;
  Service service(4);
  const std::string generous = service.execute(request);
  EXPECT_NE(generous.find("\"admit\":true"), std::string::npos) << generous;
  EXPECT_NE(generous.find("\"criterion\":\"limit_days\""), std::string::npos);

  ASSERT_TRUE(parse_request(
      R"({"id":2,"op":"admit","scenario":"n = 6; p = 24","configs":)"
      R"("ig_local","limit_days":0.000001})",
      request, error))
      << error;
  const std::string strict = service.execute(request);
  EXPECT_NE(strict.find("\"admit\":false"), std::string::npos) << strict;

  // No limit: admit iff normalized <= 1 (against the baseline).
  ASSERT_TRUE(parse_request(
      R"({"id":3,"op":"admit","scenario":"n = 6; p = 24","configs":"baseline"})",
      request, error))
      << error;
  const std::string baseline = service.execute(request);
  EXPECT_NE(baseline.find("\"admit\":true"), std::string::npos) << baseline;
  EXPECT_NE(baseline.find("\"criterion\":\"baseline\""), std::string::npos);
}

TEST(Protocol, ResponsesRoundTripDoublesExactly) {
  const exp::Scenario scenario = small_scenario();
  const Request request = make_request(9, scenario, 0, "ig_local");
  const exp::CellResult cell =
      exp::run_cell(scenario, request.configs, request.rep);
  const std::string response = render_response(request, cell);
  const std::size_t at = response.find("\"baseline_makespan\":");
  ASSERT_NE(at, std::string::npos);
  const double parsed = std::strtod(response.c_str() + at + 20, nullptr);
  EXPECT_EQ(parsed, cell.baseline) << "%.17g must round-trip bit-exactly";
}

// ---------------------------------------------------------------------------
// Batching determinism
// ---------------------------------------------------------------------------

TEST(Service, BatchedEqualsSequentialByteForByte) {
  Service service(8);
  const exp::Scenario a = small_scenario(6, 24, 5.0);
  const exp::Scenario b = small_scenario(8, 32, 3.0);

  // A mix that exercises every grouping dimension: shared keys with
  // overlapping config unions, distinct reps, distinct scenarios,
  // distinct tenants.
  std::vector<Request> requests;
  std::uint64_t id = 0;
  for (const std::string& configs :
       {std::string("paper"), std::string("ig_local"),
        std::string("stf_greedy,stf_local"), std::string("baseline")}) {
    requests.push_back(make_request(id++, a, 0, configs));
    requests.push_back(make_request(id++, a, 1, configs));
    requests.push_back(make_request(id++, b, 0, configs));
    requests.push_back(make_request(id++, a, 0, configs, "other_tenant"));
  }

  // Sequential reference on a fresh service (its own pool), so the
  // comparison also spans warm vs cold workspaces.
  Service reference(8);
  std::vector<std::string> expected;
  expected.reserve(requests.size());
  for (const Request& request : requests)
    expected.push_back(response_of(reference, request));

  const std::vector<std::string> batched = service.execute_batch(requests);
  ASSERT_EQ(batched.size(), expected.size());
  for (std::size_t i = 0; i < requests.size(); ++i)
    EXPECT_EQ(batched[i], expected[i]) << "request " << i;

  // And again over the warm pool — batch composition and cache warmth
  // must both be invisible.
  const std::vector<std::string> rebatched = service.execute_batch(requests);
  for (std::size_t i = 0; i < requests.size(); ++i)
    EXPECT_EQ(rebatched[i], expected[i]) << "warm request " << i;

  const ServiceStats stats = service.stats();
  EXPECT_GE(stats.batches, 2u);
  EXPECT_GT(stats.batched_requests, 0u);
}

TEST(Service, ConcurrentSubmitMatchesSequential) {
  const exp::Scenario a = small_scenario(6, 24, 5.0);
  const exp::Scenario b = small_scenario(8, 32, 3.0);
  std::vector<Request> requests;
  for (std::uint64_t i = 0; i < 24; ++i) {
    const exp::Scenario& scenario = i % 3 == 0 ? b : a;
    const char* configs = i % 2 == 0 ? "paper" : "ig_local,stf_local";
    requests.push_back(make_request(i, scenario, i % 4, configs,
                                    i % 5 == 0 ? "tenant_b" : "tenant_a"));
  }

  Service reference(8);
  std::vector<std::string> expected;
  for (const Request& request : requests)
    expected.push_back(response_of(reference, request));

  Service service(8);
  std::vector<std::string> got(requests.size());
  std::vector<std::thread> threads;
  threads.reserve(requests.size());
  for (std::size_t i = 0; i < requests.size(); ++i)
    threads.emplace_back([&service, &requests, &got, i] {
      got[i] = service.submit(requests[i]);
    });
  for (std::thread& thread : threads) thread.join();

  for (std::size_t i = 0; i < requests.size(); ++i)
    EXPECT_EQ(got[i], expected[i]) << "request " << i;
  // 24 threads funneled through the leader: some batching must occur is
  // not guaranteed (scheduling), but the request count is.
  EXPECT_EQ(service.stats().requests, requests.size());
}

TEST(Service, NonEvaluationOpsAreLoudErrors) {
  Service service(2);
  Request request;
  request.id = 5;
  request.op = Op::Ping;
  const std::string response = service.execute(request);
  EXPECT_NE(response.find("\"ok\":false"), std::string::npos);
  EXPECT_EQ(service.stats().errors, 1u);
}

// ---------------------------------------------------------------------------
// End-to-end server (POSIX)
// ---------------------------------------------------------------------------

#ifdef COREDIS_SERVE_TEST_POSIX

std::string unique_socket_path() {
  // Short path: sockaddr_un caps at ~107 bytes, so /tmp, not the test
  // binary dir.
  return "/tmp/coredis_serve_test_" + std::to_string(::getpid()) + ".sock";
}

int connect_to(const std::string& path) {
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
  // The daemon thread binds asynchronously; retry briefly with a fresh
  // socket per attempt (a failed connect leaves the fd unspecified).
  for (int attempt = 0; attempt < 400; ++attempt) {
    const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (fd < 0) return -1;
    if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                  sizeof addr) == 0)
      return fd;
    ::close(fd);
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  return -1;
}

std::string request_reply(int fd, const std::string& line) {
  const std::string out = line + "\n";
  EXPECT_EQ(::send(fd, out.data(), out.size(), 0),
            static_cast<ssize_t>(out.size()));
  std::string buffer;
  char c = 0;
  while (::recv(fd, &c, 1, 0) == 1 && c != '\n') buffer += c;
  return buffer;
}

TEST(Server, EndToEndOverTempSocket) {
  ServerOptions options;
  options.socket_path = unique_socket_path();
  options.pool_capacity = 4;
  options.replace_stale_socket = true;
  Server server(options);
  std::thread daemon([&server] { server.run(); });

  const int fd = connect_to(options.socket_path);
  ASSERT_GE(fd, 0);

  EXPECT_EQ(request_reply(fd, R"({"id":1,"op":"ping"})"),
            R"({"id":1,"ok":true,"op":"ping"})");

  const std::string what_if = request_reply(
      fd, R"({"id":2,"op":"what_if","scenario":"n = 6; p = 24",)"
          R"("configs":"ig_local"})");
  EXPECT_NE(what_if.find("\"ok\":true"), std::string::npos) << what_if;
  EXPECT_NE(what_if.find("\"baseline_makespan\":"), std::string::npos);

  // The response must be byte-identical to the transport-free service
  // path — the socket adds nothing to the result.
  Request request;
  std::string error;
  ASSERT_TRUE(parse_request(
      R"({"id":2,"op":"what_if","scenario":"n = 6; p = 24",)"
      R"("configs":"ig_local"})",
      request, error));
  Service reference(2);
  EXPECT_EQ(what_if, reference.execute(request));

  const std::string bad = request_reply(fd, R"({"id":3,"op":"nope"})");
  EXPECT_NE(bad.find("\"ok\":false"), std::string::npos) << bad;

  // Registry policy strings ride the 'policy' field end to end...
  const std::string via_policy = request_reply(
      fd, R"({"id":6,"op":"what_if","scenario":"n = 6; p = 24",)"
          R"json("policy":"bandit(window=5)"})json");
  EXPECT_NE(via_policy.find("\"ok\":true"), std::string::npos) << via_policy;
  EXPECT_NE(via_policy.find("\"name\":\"bandit(window=5)\""),
            std::string::npos)
      << via_policy;

  // ...and an unknown policy is a structured error on a live
  // connection, not a hangup: the next request still answers.
  const std::string unknown = request_reply(
      fd, R"({"id":7,"op":"what_if","scenario":"n = 6; p = 24",)"
          R"("policy":"frobnicate"})");
  EXPECT_NE(unknown.find("\"id\":7,\"ok\":false"), std::string::npos)
      << unknown;
  EXPECT_NE(unknown.find("unknown policy 'frobnicate'"), std::string::npos)
      << unknown;
  EXPECT_EQ(request_reply(fd, R"({"id":8,"op":"ping"})"),
            R"({"id":8,"ok":true,"op":"ping"})");

  const std::string stats = request_reply(fd, R"({"id":4,"op":"stats"})");
  EXPECT_NE(stats.find("\"op\":\"stats\""), std::string::npos) << stats;

  // Graceful shutdown: acknowledged, then the daemon exits and unlinks
  // its socket.
  const std::string bye = request_reply(fd, R"({"id":5,"op":"shutdown"})");
  EXPECT_EQ(bye, R"({"id":5,"ok":true,"op":"shutdown"})");
  ::close(fd);
  daemon.join();
  EXPECT_FALSE(std::filesystem::exists(options.socket_path))
      << "a graceful stop must unlink the socket";
}

TEST(Server, OutOfDomainScenarioIsAnErrorLineNotAnAbort) {
  // Each scenario parses, and each used to abort the whole process on a
  // contract once evaluated. Now each is an ok:false line naming its key
  // on a live connection, and the service keeps answering.
  ServerOptions options;
  options.socket_path = unique_socket_path() + ".domain";
  options.pool_capacity = 2;
  options.replace_stale_socket = true;
  Server server(options);
  std::thread daemon([&server] { server.run(); });
  const int fd = connect_to(options.socket_path);
  ASSERT_GE(fd, 0);

  const struct {
    const char* scenario;
    const char* key;
  } rows[] = {
      {"n = 6; p = 24; c = 0", "'c'"},
      {"n = 6; p = 24; f = 2", "'f'"},
      {"n = 6; p = 24; d = -1", "'d'"},
      {"n = 6; p = 24; m_inf = nan", "'m_inf'"},
      {"n = 6; p = 24; fault_law = weibull; weibull_shape = 0",
       "'weibull_shape'"},
      {"n = 6; p = 24; mtbf_years = nan", "'mtbf_years'"},
  };
  std::uint64_t id = 10;
  for (const auto& row : rows) {
    const std::string reply = request_reply(
        fd, "{\"id\":" + std::to_string(id) +
                ",\"op\":\"what_if\",\"scenario\":\"" + row.scenario +
                "\",\"configs\":\"ig_local\"}");
    EXPECT_NE(reply.find("\"id\":" + std::to_string(id) + ",\"ok\":false"),
              std::string::npos)
        << reply;
    EXPECT_NE(reply.find(row.key), std::string::npos) << reply;
    ++id;
  }
  const std::string answered = request_reply(
      fd, R"({"id":20,"op":"what_if","scenario":"n = 6; p = 24; c = 0.5",)"
          R"("configs":"ig_local"})");
  EXPECT_NE(answered.find("\"ok\":true"), std::string::npos) << answered;

  EXPECT_EQ(request_reply(fd, R"({"id":21,"op":"shutdown"})"),
            R"({"id":21,"ok":true,"op":"shutdown"})");
  ::close(fd);
  daemon.join();
}

TEST(Server, OversizedPlatformIsAnErrorLineNotAnAllocation) {
  // p = 2^21 passes p >= 2n, yet the platform ledger alone would take
  // three ints per processor before a single event ran. The what_if gets
  // an ok:false line naming 'p', and the connection keeps answering; so
  // does an odd p.
  ServerOptions options;
  options.socket_path = unique_socket_path() + ".platform";
  options.pool_capacity = 2;
  options.replace_stale_socket = true;
  Server server(options);
  std::thread daemon([&server] { server.run(); });
  const int fd = connect_to(options.socket_path);
  ASSERT_GE(fd, 0);

  const std::string refused = request_reply(
      fd, R"({"id":30,"op":"what_if","scenario":"n = 6; p = 2097152",)"
          R"("configs":"baseline"})");
  EXPECT_NE(refused.find("\"id\":30,\"ok\":false"), std::string::npos)
      << refused;
  EXPECT_NE(refused.find("'p'"), std::string::npos) << refused;
  EXPECT_EQ(request_reply(fd, R"({"id":31,"op":"ping"})"),
            R"({"id":31,"ok":true,"op":"ping"})");
  // An odd platform would reach the workspace's Engine, which refuses it
  // without naming a key.
  const std::string odd = request_reply(
      fd, R"({"id":34,"op":"what_if","scenario":"n = 6; p = 25",)"
          R"("configs":"baseline"})");
  EXPECT_NE(odd.find("\"id\":34,\"ok\":false"), std::string::npos) << odd;
  EXPECT_NE(odd.find("key 'p' must be even"), std::string::npos) << odd;
  EXPECT_EQ(request_reply(fd, R"({"id":35,"op":"ping"})"),
            R"({"id":35,"ok":true,"op":"ping"})");
  const std::string answered = request_reply(
      fd, R"({"id":32,"op":"what_if","scenario":"n = 6; p = 24",)"
          R"("configs":"baseline"})");
  EXPECT_NE(answered.find("\"ok\":true"), std::string::npos) << answered;

  EXPECT_EQ(request_reply(fd, R"({"id":33,"op":"shutdown"})"),
            R"({"id":33,"ok":true,"op":"shutdown"})");
  ::close(fd);
  daemon.join();
}

TEST(Server, PeriodWithNoRoomForWorkIsAnErrorLineNotAnAbort) {
  // m = 1e100 at c = 1 and MTBF 100 y: fl(sqrt(2 mu_j C_j) + C_j) - C_j
  // rounds to 0, and the first Eq. 4 fill would abort the daemon on its
  // tau - C > 0 invariant. The what_if gets an ok:false line naming the
  // keys, and the connection keeps answering.
  ServerOptions options;
  options.socket_path = unique_socket_path() + ".period";
  options.pool_capacity = 2;
  options.replace_stale_socket = true;
  Server server(options);
  std::thread daemon([&server] { server.run(); });
  const int fd = connect_to(options.socket_path);
  ASSERT_GE(fd, 0);

  const std::string refused = request_reply(
      fd, R"({"id":40,"op":"what_if","scenario":)"
          R"("n = 4; p = 16; m_inf = 1e100; m_sup = 1e100",)"
          R"("configs":"ig_local"})");
  EXPECT_NE(refused.find("\"id\":40,\"ok\":false"), std::string::npos)
      << refused;
  EXPECT_NE(refused.find("'m_sup'"), std::string::npos) << refused;
  EXPECT_NE(refused.find("'mtbf_years'"), std::string::npos) << refused;
  EXPECT_EQ(request_reply(fd, R"({"id":41,"op":"ping"})"),
            R"({"id":41,"ok":true,"op":"ping"})");
  const std::string answered = request_reply(
      fd, R"({"id":42,"op":"what_if","scenario":"n = 4; p = 16",)"
          R"("configs":"ig_local"})");
  EXPECT_NE(answered.find("\"ok\":true"), std::string::npos) << answered;
  // m = 1e13 leaves tau - C room, but its periods almost never complete
  // (c m / mu about 3,200): the run would crawl for hours, so it is
  // refused by the same keys.
  const std::string crawl = request_reply(
      fd, R"({"id":43,"op":"what_if","scenario":)"
          R"("n = 4; p = 16; m_inf = 1e13; m_sup = 1e13",)"
          R"("configs":"ig_local"})");
  EXPECT_NE(crawl.find("\"id\":43,\"ok\":false"), std::string::npos)
      << crawl;
  EXPECT_NE(crawl.find("'m_sup'"), std::string::npos) << crawl;
  EXPECT_NE(crawl.find("'mtbf_years'"), std::string::npos) << crawl;
  EXPECT_EQ(request_reply(fd, R"({"id":44,"op":"ping"})"),
            R"({"id":44,"ok":true,"op":"ping"})");

  EXPECT_EQ(request_reply(fd, R"({"id":45,"op":"shutdown"})"),
            R"({"id":45,"ok":true,"op":"shutdown"})");
  ::close(fd);
  daemon.join();
}

TEST(Server, ConcurrentClients) {
  ServerOptions options;
  options.socket_path = unique_socket_path() + ".many";
  options.pool_capacity = 4;
  options.replace_stale_socket = true;
  Server server(options);
  std::thread daemon([&server] { server.run(); });

  // The sequential reference responses, computed transport-free.
  std::vector<std::string> lines;
  std::vector<std::string> expected;
  Service reference(4);
  for (int i = 0; i < 16; ++i) {
    std::string line = "{\"id\":" + std::to_string(i) +
                       ",\"op\":\"what_if\",\"scenario\":\"n = 6; p = 24\","
                       "\"rep\":" +
                       std::to_string(i % 3) + ",\"configs\":\"" +
                       (i % 2 == 0 ? "ig_local" : "stf_local") + "\"}";
    Request request;
    std::string error;
    ASSERT_TRUE(parse_request(line, request, error)) << error;
    expected.push_back(reference.execute(request));
    lines.push_back(std::move(line));
  }

  std::vector<std::string> got(lines.size());
  std::vector<std::thread> clients;
  for (std::size_t i = 0; i < lines.size(); ++i)
    clients.emplace_back([&, i] {
      const int fd = connect_to(options.socket_path);
      ASSERT_GE(fd, 0);
      got[i] = request_reply(fd, lines[i]);
      ::close(fd);
    });
  for (std::thread& client : clients) client.join();

  for (std::size_t i = 0; i < lines.size(); ++i)
    EXPECT_EQ(got[i], expected[i]) << "client " << i;

  server.request_stop();
  daemon.join();
}

TEST(Server, RefusesExistingSocketWithoutReplace) {
  const std::string path = unique_socket_path() + ".stale";
  {
    std::ofstream stale(path);  // a regular file squatting on the path
  }
  ServerOptions options;
  options.socket_path = path;
  Server server(options);
  EXPECT_THROW(server.run(), std::runtime_error);
  // With --replace a *regular file* is still refused — only sockets are
  // fair game to take over.
  options.replace_stale_socket = true;
  Server replacing(options);
  EXPECT_THROW(replacing.run(), std::runtime_error);
  std::filesystem::remove(path);
}

/// Reap `pid` within `seconds`; SIGKILL and reap it past that. Returns
/// the wait status, or -1 when the child had to be killed.
int reap_within(pid_t pid, int seconds) {
  int status = 0;
  for (int tick = 0; tick < 100 * seconds; ++tick) {
    if (::waitpid(pid, &status, WNOHANG) == pid) return status;
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  ::kill(pid, SIGKILL);
  ::waitpid(pid, &status, 0);
  return -1;
}

TEST(ServeDaemon, BootsAnswersAPinnedWhatIfAndShutsDownClean) {
  // The built coredis_serve binary, not an in-process Server: its
  // option parsing, signal routing and exit path are what a supervisor
  // runs.
  const std::string path = unique_socket_path() + ".daemon";
  std::filesystem::remove(path);
  std::string binary = COREDIS_SERVE_BINARY;
  std::string socket_flag = "--socket";
  std::string socket_path = path;
  char* argv[] = {binary.data(), socket_flag.data(), socket_path.data(),
                  nullptr};
  pid_t pid = -1;
  ASSERT_EQ(::posix_spawn(&pid, binary.c_str(), nullptr, nullptr, argv,
                          environ),
            0)
      << binary;

  const int fd = connect_to(path);
  if (fd < 0) {
    (void)reap_within(pid, 0);
    FAIL() << "the daemon never accepted on " << path;
  }
  // One what-if of the retired latency harness's request mix; its
  // baseline makespan is pinned as that harness recorded it
  // (BENCH_PR10.json, %.17g).
  const std::string reply = request_reply(
      fd, R"({"id":1,"op":"what_if","tenant":"bench",)"
          R"("scenario":"n = 6; p = 24; mtbf_years = 5",)"
          R"("configs":"paper","rep":0})");
  const std::size_t at = reply.find("\"baseline_makespan\":");
  ASSERT_NE(at, std::string::npos) << reply;
  EXPECT_EQ(std::strtod(reply.c_str() + at + 20, nullptr),
            55141459.956328712)
      << reply;

  // The shutdown op stops the daemon: it exits 0 and unlinks its socket.
  EXPECT_EQ(request_reply(fd, R"({"id":2,"op":"shutdown"})"),
            R"({"id":2,"ok":true,"op":"shutdown"})");
  ::close(fd);
  const int status = reap_within(pid, 10);
  EXPECT_NE(status, -1) << "the daemon survived its shutdown op";
  EXPECT_TRUE(status != -1 && WIFEXITED(status) && WEXITSTATUS(status) == 0)
      << "wait status " << status;
  EXPECT_FALSE(std::filesystem::exists(path))
      << "a shutdown op must unlink the socket";
  std::filesystem::remove(path);
}

#endif  // COREDIS_SERVE_TEST_POSIX

}  // namespace
}  // namespace coredis::serve
