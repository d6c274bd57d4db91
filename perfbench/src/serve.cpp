// Load generation against amps_serve over its wire protocol.
//
// Every request line is serialized before timing starts and carries its
// index as "id". A phase either follows a schedule (open loop: each line
// goes out when due, all lines due at once as one write per connection) or
// sends the next request when the last is answered. One thread
// sends; one reads every connection through epoll. Open-loop latency runs
// from the *scheduled* send time, so a stalled server or a late generator
// is charged to later requests. Two threads and kConnections pipelined
// connections.
//
// After the timed phases every distinct config is recomputed in-process
// (ExperimentRunner::run_pair / MulticoreRunner::run on the scale
// parse_request gives, then to_json) and must match every served "result"
// byte for byte; every request must be answered exactly once with its id
// echoed. Each violation is a failed operation.
#include "serve.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cstring>
#include <exception>
#include <memory>
#include <numeric>
#include <random>
#include <stdexcept>
#include <thread>

#include "harness/experiment.hpp"
#include "harness/multicore.hpp"
#include "harness/parallel.hpp"
#include "harness/run_cache.hpp"
#include "harness/sampler.hpp"
#include "service/protocol.hpp"

namespace perfbench {
namespace {

using namespace amps;

constexpr std::size_t kConnections = 4;
/// Latency limit for a max_rps ladder step (p99).
constexpr double kLimitUs = 1000.0;
/// A ladder step is invalid when the generator ran later than this (p99)…
constexpr double kMaxLatenessUs = 250.0;
/// …or used more than this many cores.
constexpr double kMaxGenCores = 1.0;
/// Seconds without progress after which the server counts as stalled.
constexpr int kStallSeconds = 30;

// --------------------------------------------------------------- configs

/// One distinct request configuration (everything but the id), with the
/// request as the protocol parses it.
struct Config {
  std::string body;  ///< serialized request without id, starting with '{'
  service::Request req;
};

Config make_config(bool multicore, const std::vector<std::string>& bench,
                   const std::string& sched) {
  Json req = Json::object();
  req.set("op", Json(multicore ? "run_multicore" : "run_pair"));
  Json names = Json::array();
  for (const std::string& b : bench) names.push_back(Json(b));
  req.set(multicore ? "workload" : "bench", std::move(names));
  req.set("scheduler", Json(sched));
  req.set("scale", Json("ci"));
  Json overrides = Json::object();
  overrides.set("run_length", Json(kServeRunLength));
  req.set("overrides", std::move(overrides));
  Config c{req.dump(), {}};
  std::string error;
  auto parsed = service::parse_request(c.body, &error);
  if (!parsed) throw std::runtime_error("invalid request: " + error);
  c.req = std::move(*parsed);
  return c;
}

std::string request_line(std::uint64_t id, const Config& c) {
  return "{\"id\":" + std::to_string(id) + "," + c.body.substr(1) + "\n";
}

const char* const kPairScheds[] = {"proposed", "static", "round-robin",
                                   "bandit"};
const char* const kMultiScheds[] = {"affinity", "static"};

std::vector<std::string> names_of(const harness::MulticoreWorkload& w) {
  std::vector<std::string> out;
  for (const wl::BenchmarkSpec* s : w) out.push_back(s->name);
  return out;
}

// ------------------------------------------------------------ connections

int connect_loopback(std::uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) throw std::runtime_error("socket() failed");
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    throw std::runtime_error("cannot connect to 127.0.0.1:" +
                             std::to_string(port));
  }
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  // A server that stops reading or answering fails the run instead of
  // hanging it.
  const timeval limit{kStallSeconds, 0};
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &limit, sizeof(limit));
  ::setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &limit, sizeof(limit));
  return fd;
}

void write_all(int fd, const std::string& data) {
  std::size_t off = 0;
  while (off < data.size()) {
    const ssize_t n = ::write(fd, data.data() + off, data.size() - off);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) throw std::runtime_error("write to server failed");
    off += static_cast<std::size_t>(n);
  }
}

/// The generator's connections; closed on destruction.
class Connections {
 public:
  explicit Connections(std::uint16_t port) {
    for (std::size_t i = 0; i < kConnections; ++i)
      fds_.push_back(connect_loopback(port));
  }
  ~Connections() {
    for (const int fd : fds_) ::close(fd);
  }
  Connections(const Connections&) = delete;
  Connections& operator=(const Connections&) = delete;

  [[nodiscard]] int fd(std::size_t i) const { return fds_[i]; }

  /// One synchronous control request on connection 0 (no phase running).
  Json control(const std::string& op) {
    write_all(fds_[0], "{\"id\":\"c\",\"op\":\"" + op + "\"}\n");
    std::string line;
    char c = 0;
    while (::read(fds_[0], &c, 1) == 1 && c != '\n') line.push_back(c);
    return Json::parse(line).get("result");
  }

 private:
  std::vector<int> fds_;
};

// ------------------------------------------------------------------ phases

/// How a phase sends: on a schedule, or one request at a time.
struct Plan {
  std::vector<std::size_t> cfg;  ///< config of each request
  std::vector<double> due;       ///< open loop: send offsets (seconds)
  bool sequential = false;       ///< closed loop: next after each answer
  double statsz_every = 0.0;     ///< statsz sampling period (0 = none)
};

/// What one request saw.
struct Outcome {
  double start = -1.0;  ///< latency origin: due time, or send time if closed
  double sent = -1.0;   ///< seconds after phase start
  double recv = -1.0;
  bool ok = false;
  std::string error;        ///< error code when !ok
  double elapsed_us = 0.0;  ///< server-reported execution time
};

struct PhaseResult {
  std::vector<Outcome> outcomes;
  double wall = 0.0;  ///< phase start to last response
  double cpu = 0.0;   ///< generator CPU seconds
  std::uint64_t duplicates = 0;  ///< responses for an already-answered id
  std::uint64_t strays = 0;      ///< responses with an id outside the phase
  std::uint64_t mismatches = 0;  ///< results differing from the config's first
  std::uint64_t response_bytes = 0;
  std::vector<double> queue_depth;  ///< statsz samples
};

/// Number after `key` in `line`, or -1.
double number_after(std::string_view line, std::string_view key) {
  const std::size_t at = line.find(key);
  if (at == std::string_view::npos) return -1.0;
  return std::strtod(std::string(line.substr(at + key.size(), 24)).c_str(),
                     nullptr);
}

/// Runs one phase; request k has global id `base + k`. `first_result[c]`
/// holds the first result served for config c (filled here when empty) —
/// every later response for c must equal it.
PhaseResult run_phase(Connections& conns, const std::vector<Config>& configs,
                      std::uint64_t base, const Plan& plan,
                      std::vector<std::string>* first_result) {
  const std::size_t n = plan.cfg.size();
  std::vector<std::string> lines(n);
  for (std::size_t k = 0; k < n; ++k)
    lines[k] = request_line(base + k, configs[plan.cfg[k]]);

  PhaseResult res;
  res.outcomes.assign(n, Outcome{});
  const double cpu0 = cpu_seconds();
  const auto t0 = Clock::now();
  const auto since = [&t0] { return seconds(t0, Clock::now()); };

  // Receiver: epoll over every connection, one line at a time. It runs
  // until every request and every statsz sample has been answered, so no
  // response is left in a socket for the next phase.
  std::atomic<std::size_t> answered{0};
  std::atomic<std::size_t> samples_sent{0};
  std::atomic<bool> sending{true};
  std::thread receiver([&] {
    const int ep = ::epoll_create1(EPOLL_CLOEXEC);
    for (std::size_t i = 0; i < kConnections; ++i) {
      epoll_event ev{};
      ev.events = EPOLLIN;
      ev.data.u64 = i;
      ::epoll_ctl(ep, EPOLL_CTL_ADD, conns.fd(i), &ev);
    }
    std::vector<std::string> partial(kConnections);
    std::vector<char> buf(1 << 16);
    std::size_t samples = 0;
    double deadline = 1e300;
    while (answered.load() < n || sending.load() ||
           samples < samples_sent.load()) {
      if (!sending.load() && deadline == 1e300)
        deadline = since() + kStallSeconds;
      if (since() > deadline) break;  // the rest stays unanswered
      epoll_event events[kConnections];
      const int ready = ::epoll_wait(ep, events, kConnections, 50);
      for (int e = 0; e < ready; ++e) {
        const std::size_t c = events[e].data.u64;
        const ssize_t got = ::read(conns.fd(c), buf.data(), buf.size());
        if (got == 0) ::epoll_ctl(ep, EPOLL_CTL_DEL, conns.fd(c), nullptr);
        if (got <= 0) continue;
        const double now = since();
        std::string& acc = partial[c];
        acc.append(buf.data(), static_cast<std::size_t>(got));
        std::size_t from = 0;
        for (std::size_t nl; (nl = acc.find('\n', from)) != std::string::npos;
             from = nl + 1) {
          const std::string_view line(acc.data() + from, nl - from);
          if (line.rfind("{\"id\":\"z\"", 0) == 0) {  // statsz sample
            res.queue_depth.push_back(number_after(line, "\"queue_depth\":"));
            ++samples;
            continue;
          }
          res.response_bytes += line.size() + 1;
          const double id = number_after(line, "{\"id\":");
          if (id < static_cast<double>(base) ||
              id >= static_cast<double>(base + n)) {
            ++res.strays;
            continue;
          }
          const auto k = static_cast<std::size_t>(id) - base;
          Outcome& o = res.outcomes[k];
          if (o.recv >= 0.0) {
            ++res.duplicates;
            continue;
          }
          o.recv = now;
          o.ok = line.find("\"ok\":true") != std::string_view::npos;
          if (!o.ok) {
            const std::size_t at = line.find("\"code\":\"");
            o.error = at == std::string_view::npos
                          ? "unknown"
                          : std::string(line.substr(
                                at + 8, line.find('"', at + 8) - at - 8));
          } else {
            o.elapsed_us = number_after(line, "\"elapsed_us\":");
            const std::size_t at = line.find("\"result\":");
            const std::string_view result =
                at == std::string_view::npos
                    ? std::string_view()
                    : line.substr(at + 9, line.size() - at - 10);
            std::string& first = (*first_result)[plan.cfg[k]];
            if (first.empty())
              first = result;
            else if (first != result)
              ++res.mismatches;
          }
          answered.fetch_add(1);
        }
        acc.erase(0, from);
      }
    }
    ::close(ep);
  });

  // Sender. Any failure stops sending; the receiver is joined before the
  // error propagates.
  std::exception_ptr error;
  try {
    std::vector<std::string> out(kConnections);
    double next_statsz = plan.statsz_every > 0.0 ? 0.0 : 1e300;
    for (std::size_t k = 0; k < n;) {
      if (plan.sequential) {
        const double waiting_since = since();
        while (answered.load() < k) {
          if (since() - waiting_since > kStallSeconds)
            throw std::runtime_error("amps_serve stopped answering");
          std::this_thread::sleep_for(std::chrono::microseconds(50));
        }
        const double now = since();
        res.outcomes[k].start = res.outcomes[k].sent = now;
        write_all(conns.fd(k % kConnections), lines[k]);
        ++k;
        continue;
      }
      const double now = since();
      const double next = std::min(plan.due[k], next_statsz);
      if (next > now) {
        if (next - now > 2e-4)
          std::this_thread::sleep_for(
              std::chrono::duration<double>(next - now - 1e-4));
        else
          std::this_thread::yield();
        continue;
      }
      if (next_statsz <= now) {
        out[0] += "{\"id\":\"z\",\"op\":\"statsz\"}\n";
        next_statsz += plan.statsz_every;
        samples_sent.fetch_add(1);
      }
      for (; k < n && plan.due[k] <= now; ++k) {
        out[k % kConnections] += lines[k];
        res.outcomes[k].start = plan.due[k];
        res.outcomes[k].sent = now;
      }
      for (std::size_t c = 0; c < kConnections; ++c) {
        if (out[c].empty()) continue;
        write_all(conns.fd(c), out[c]);
        out[c].clear();
      }
    }
  } catch (...) {
    error = std::current_exception();
  }
  sending.store(false);
  receiver.join();
  if (error) std::rethrow_exception(error);
  res.cpu = cpu_seconds() - cpu0;
  for (const Outcome& o : res.outcomes) res.wall = std::max(res.wall, o.recv);
  return res;
}

/// Send offsets of a Poisson stream at `rate` per second over `secs`
/// seconds: given its count, a Poisson process's arrival times are sorted
/// uniform draws, so every stream spans the same window.
std::vector<double> poisson_due(std::mt19937_64& rng, double rate,
                                double secs) {
  std::uniform_real_distribution<double> at(0.0, secs);
  std::vector<double> due(static_cast<std::size_t>(rate * secs));
  for (double& d : due) d = at(rng);
  std::sort(due.begin(), due.end());
  return due;
}

// --------------------------------------------------------- summaries

/// Latencies (us) of the answered requests `pick` selects, in send order.
template <typename Pick>
std::vector<double> latencies_us(const PhaseResult& r, Pick pick) {
  std::vector<double> out;
  for (std::size_t k = 0; k < r.outcomes.size(); ++k) {
    const Outcome& o = r.outcomes[k];
    if (o.recv >= 0.0 && pick(k)) out.push_back((o.recv - o.start) * 1e6);
  }
  return out;
}

std::vector<double> all_latencies_us(const PhaseResult& r) {
  return latencies_us(r, [](std::size_t) { return true; });
}

/// Protocol violations: duplicate or stray answers, results that differ
/// between answers to one config, unanswered requests.
std::uint64_t protocol_failures(const PhaseResult& r) {
  std::uint64_t failed = r.duplicates + r.strays + r.mismatches;
  for (const Outcome& o : r.outcomes)
    if (o.recv < 0.0) ++failed;
  return failed;
}

/// Failed operations outside the ladder: protocol violations plus every
/// refused or erroneous request.
std::uint64_t phase_failures(const PhaseResult& r) {
  std::uint64_t failed = protocol_failures(r);
  for (const Outcome& o : r.outcomes)
    if (o.recv >= 0.0 && !o.ok) ++failed;
  return failed;
}

std::uint64_t count_error(const PhaseResult& r, std::string_view code) {
  std::uint64_t n = 0;
  for (const Outcome& o : r.outcomes)
    if (o.error == code) ++n;
  return n;
}

std::vector<double> lateness_us(const PhaseResult& r) {
  std::vector<double> late;
  for (const Outcome& o : r.outcomes)
    if (o.sent >= 0.0) late.push_back((o.sent - o.start) * 1e6);
  return late;
}

/// Registry figures out of a statsz result.
struct Statsz {
  double hits = 0, misses = 0, batches = 0, batch_count = 0, batch_sum = 0;
};

Statsz read_statsz(const Json& s) {
  const Json& stats = s.get("stats");
  const Json& batch = stats.get("histograms").get("service.batch_size");
  Statsz z;
  z.hits = s.get("run_cache").get("hits").as_number();
  z.misses = s.get("run_cache").get("misses").as_number();
  z.batches = stats.get("counters").get("service.batches").as_number();
  z.batch_count = batch.get("count").as_number();
  z.batch_sum = batch.get("sum").as_number();
  return z;
}

Json statsz_delta(const Statsz& a, const Statsz& b) {
  Json out = Json::object();
  out.set("hits", Json(b.hits - a.hits));
  out.set("misses", Json(b.misses - a.misses));
  out.set("batches", Json(b.batches - a.batches));
  const double count = b.batch_count - a.batch_count;
  out.set("batch_size_mean",
          Json(count > 0 ? (b.batch_sum - a.batch_sum) / count : 0.0));
  return out;
}

/// The measured phase as run.py reads it.
Json phase_json(const PhaseResult& r, double rate) {
  Json out = Json::object();
  out.set("rate", Json(rate));
  out.set("requests", Json(static_cast<std::uint64_t>(r.outcomes.size())));
  out.set("wall_s", Json(r.wall));
  out.set("latency_us", to_array(all_latencies_us(r)));
  std::vector<double> exec, wait;
  for (const Outcome& o : r.outcomes) {
    if (!o.ok) continue;
    exec.push_back(o.elapsed_us);
    wait.push_back((o.recv - o.start) * 1e6 - o.elapsed_us);
  }
  out.set("exec_us", to_array(exec));
  out.set("wait_us", to_array(wait));
  out.set("failed", Json(phase_failures(r)));
  out.set("queue_full", Json(count_error(r, "queue_full")));
  out.set("response_bytes",
          Json(r.outcomes.empty() ? 0.0
                                  : static_cast<double>(r.response_bytes) /
                                        static_cast<double>(r.outcomes.size())));
  out.set("lateness_us", to_array(lateness_us(r)));
  out.set("gen_cpu_us_per_req",
          Json(r.outcomes.empty()
                   ? 0.0
                   : r.cpu * 1e6 / static_cast<double>(r.outcomes.size())));
  if (!r.queue_depth.empty()) out.set("queue_depth", to_array(r.queue_depth));
  return out;
}

// --------------------------------------------- direct recomputation

/// The in-process twin of one config: its direct result and what the
/// replay needs to time key building and cache lookup.
struct Direct {
  std::string result;
  std::unique_ptr<harness::ExperimentRunner> runner;  ///< pair configs only
  harness::BenchmarkPair pair{};
  harness::SchedulerFactory factory;
  metrics::PairRunResult pair_result;
  metrics::MulticoreRunResult multi_result;
};

/// Recomputes every config in `which` through the library (parallel_for),
/// on the scale the protocol parsed, memoizing in this process's RunCache.
std::vector<Direct> recompute(const std::vector<Config>& configs,
                              const std::vector<std::size_t>& which,
                              const wl::BenchmarkCatalog& catalog) {
  std::vector<Direct> out(which.size());
  harness::parallel_for(which.size(), [&](std::size_t i) {
    const service::Request& req = configs[which[i]].req;
    Direct& d = out[i];
    if (req.op == service::Op::RunPair) {
      d.runner = std::make_unique<harness::ExperimentRunner>(req.scale);
      const harness::ExperimentRunner& runner = *d.runner;
      d.pair = {&catalog.by_name(req.benchmarks[0]),
                &catalog.by_name(req.benchmarks[1])};
      d.factory = req.scheduler == "proposed" ? runner.proposed_factory()
                  : req.scheduler == "static" ? runner.static_factory()
                  : req.scheduler == "round-robin"
                      ? runner.round_robin_factory()
                      : runner.bandit_factory();
      d.pair_result = runner.run_pair(d.pair, d.factory);
      d.result = service::to_json(d.pair_result).dump();
    } else {
      const auto runner =
          harness::MulticoreRunner::canonical(req.scale, req.benchmarks.size());
      harness::MulticoreWorkload w;
      for (const std::string& b : req.benchmarks)
        w.push_back(&catalog.by_name(b));
      d.multi_result = runner.run(w, req.scheduler == "affinity"
                                         ? runner.affinity_factory()
                                         : runner.static_factory());
      d.result = service::to_json(d.multi_result).dump();
    }
  });
  return out;
}

/// Mean microseconds per call of `fn` over `reps` calls.
template <typename Fn>
double mean_us(int reps, Fn&& fn) {
  const auto t0 = Clock::now();
  for (int i = 0; i < reps; ++i) fn();
  return seconds(t0, Clock::now()) * 1e6 / reps;
}

/// In-process replay of the served lines through parse_request, to_json,
/// the cache key and the RunCache lookup.
Json replay(const std::vector<Config>& configs,
            const std::vector<std::size_t>& which,
            const std::vector<Direct>& direct) {
  constexpr int kReps = 50;
  std::vector<double> parse, serialize, key, lookup;
  for (std::size_t i = 0; i < which.size(); ++i) {
    const std::string line = request_line(i, configs[which[i]]);
    std::string error;
    parse.push_back(mean_us(kReps, [&] {
      (void)service::parse_request(line, &error);
    }));
    const Direct& d = direct[i];
    serialize.push_back(mean_us(kReps, [&] {
      (void)(d.runner ? service::to_json(d.pair_result)
                      : service::to_json(d.multi_result))
          .dump();
    }));
    if (!d.runner) continue;
    key.push_back(mean_us(kReps, [&] {
      (void)d.runner->pair_run_cache_key(d.pair, d.factory);
    }));
    const auto k = d.runner->pair_run_cache_key(d.pair, d.factory);
    metrics::PairRunResult r;
    lookup.push_back(mean_us(kReps, [&] {
      (void)harness::RunCache::instance().lookup_pair_run(k, &r);
    }));
  }
  Json out = Json::object();
  out.set("parse_request_us", to_array(parse));
  out.set("to_json_us", to_array(serialize));
  out.set("cache_key_us", to_array(key));
  out.set("lookup_us", to_array(lookup));
  return out;
}

/// Recomputes the served configs in-process and checks every served result
/// against its direct twin; sets the digest, the mismatch count and, when
/// traced, the replay timings on `out`. Returns the mismatches.
std::uint64_t check_direct(const std::vector<Config>& configs,
                           const std::vector<std::size_t>& which,
                           const std::vector<std::string>& served,
                           const wl::BenchmarkCatalog& catalog, bool trace,
                           Json* out) {
  const auto direct = recompute(configs, which, catalog);
  std::uint64_t wrong = 0;
  Digest digest;
  for (std::size_t i = 0; i < which.size(); ++i) {
    // A config never served successfully already failed as requests.
    const std::string& got = served[which[i]];
    if (!got.empty() && got != direct[i].result) ++wrong;
    digest.add(direct[i].result);
  }
  out->set("result_mismatches", Json(wrong));
  out->set("digest", Json(digest.hex()));
  if (trace) out->set("replay", replay(configs, which, direct));
  return wrong;
}

}  // namespace

Json run_serve_hot(const ServeOptions& opt) {
  Json out = Json::object();
  const wl::BenchmarkCatalog catalog;

  // Distinct configs: sampled pairs x pair schedulers, sampled 4-core
  // workloads x multicore schedulers.
  std::vector<Config> configs;
  for (const auto& p : harness::sample_pairs(catalog, kHotPairs, opt.seed))
    for (const char* s : kPairScheds)
      configs.push_back(make_config(false, {p.first->name, p.second->name}, s));
  for (const auto& w :
       harness::sample_workloads(catalog, 4, kHotQuads, opt.seed))
    for (const char* s : kMultiScheds)
      configs.push_back(make_config(true, names_of(w), s));
  std::vector<std::size_t> all(configs.size());
  std::iota(all.begin(), all.end(), 0);

  Connections conns(opt.port);
  std::vector<std::string> served(configs.size());
  std::uint64_t failed = 0, attempted = 0, base = 0;
  const auto run = [&](const Plan& plan) {
    PhaseResult r = run_phase(conns, configs, base, plan, &served);
    base += plan.cfg.size();
    attempted += plan.cfg.size();
    return r;
  };

  // --- set-up: the warming pass, every config once, one at a time ---------
  {
    Plan plan;
    plan.cfg = all;
    plan.sequential = true;
    const PhaseResult warm = run(plan);
    failed += phase_failures(warm);
    out.set("warm_s", Json(warm.wall));
  }

  std::mt19937_64 rng(opt.seed);
  std::uniform_int_distribution<std::size_t> pick(0, configs.size() - 1);
  const auto open_plan = [&](double rate, double secs) {
    Plan plan;
    plan.due = poisson_due(rng, rate, secs);
    plan.cfg.resize(plan.due.size());
    for (std::size_t& c : plan.cfg) c = pick(rng);
    return plan;
  };

  // --- nominal rate -------------------------------------------------------
  const Statsz z0 = read_statsz(conns.control("statsz"));
  Plan nominal_plan =
      open_plan(kHotNominalRps, opt.seconds * kHotNominalShare);
  if (opt.trace) nominal_plan.statsz_every = 0.02;
  const double cpu0 = process_cpu_seconds(opt.server_pid);
  const PhaseResult nominal = run(nominal_plan);
  out.set("server_cpu_s", Json(process_cpu_seconds(opt.server_pid) - cpu0));
  failed += phase_failures(nominal);
  const Statsz z1 = read_statsz(conns.control("statsz"));
  out.set("nominal", phase_json(nominal, kHotNominalRps));
  out.set("statsz", statsz_delta(z0, z1));

  // --- the rate ladder ----------------------------------------------------
  // Climbs kHotLadder until two consecutive steps miss the limit or the
  // budget runs out; max_rps is the achieved rate of the highest step that
  // met it. Overload refusals only miss the limit, but protocol violations
  // are failed operations here too.
  Json ladder = Json::array();
  double budget = opt.seconds * (1.0 - kHotNominalShare);
  double max_rps = 0.0;
  int misses_in_row = 0;
  for (const double rate : kHotLadder) {
    const double step_s = std::max(kHotStepSeconds, kHotStepSamples / rate);
    if (step_s > budget || misses_in_row == 2) break;
    budget -= step_s;
    const PhaseResult r = run(open_plan(rate, step_s));
    failed += protocol_failures(r);
    const std::vector<double> lat = all_latencies_us(r);
    const double p99 = percentile(lat, 99);
    const double late99 = percentile(lateness_us(r), 99);
    const double cores = r.wall > 0 ? r.cpu / r.wall : 0.0;
    const bool valid = late99 <= kMaxLatenessUs && cores <= kMaxGenCores;
    // A refused request misses the limit; so does a backlog still
    // draining well after the last send.
    const bool drained =
        r.wall <= r.outcomes.back().start + 5 * kLimitUs * 1e-6;
    const bool pass = valid && phase_failures(r) == 0 && p99 <= kLimitUs &&
                      drained;
    const double achieved =
        r.wall > 0 ? static_cast<double>(lat.size()) / r.wall : 0.0;
    Json step = Json::object();
    step.set("rate", Json(rate));
    step.set("achieved_rps", Json(achieved));
    step.set("p99_us", Json(p99));
    step.set("lateness_p99_us", Json(late99));
    step.set("gen_cores", Json(cores));
    step.set("valid", Json(valid));
    step.set("pass", Json(pass));
    ladder.push_back(step);
    misses_in_row = pass ? 0 : misses_in_row + 1;
    if (pass) max_rps = achieved;
  }
  out.set("ladder", ladder);
  out.set("max_rps", Json(max_rps));

  attempted += configs.size();
  failed += check_direct(configs, all, served, catalog, opt.trace, &out);
  out.set("configs", Json(static_cast<std::uint64_t>(configs.size())));
  out.set("attempted", Json(attempted));
  out.set("failed", Json(failed));
  return out;
}

Json run_serve_mixed(const ServeOptions& opt) {
  Json out = Json::object();
  const wl::BenchmarkCatalog catalog;
  std::mt19937_64 rng(opt.seed);

  // The pool of distinct configs, shuffled: every ordered pair under each
  // pair scheduler, plus sampled 4-core workloads.
  std::vector<Config> configs;
  const auto specs = catalog.all();
  for (const auto& a : specs)
    for (const auto& b : specs)
      if (&a != &b)
        for (const char* s : kPairScheds)
          configs.push_back(make_config(false, {a.name, b.name}, s));
  for (const auto& w :
       harness::sample_workloads(catalog, 4, kMixedQuads, opt.seed))
    for (const char* s : kMultiScheds)
      configs.push_back(make_config(true, names_of(w), s));
  std::shuffle(configs.begin(), configs.end(), rng);

  Connections conns(opt.port);
  std::vector<std::string> served(configs.size());

  // --- set-up: a cold-start burst of distinct configs, all at once --------
  Plan burst;
  burst.cfg.resize(kMixedBurst);
  std::iota(burst.cfg.begin(), burst.cfg.end(), 0);
  burst.due.assign(kMixedBurst, 0.0);
  const PhaseResult cold = run_phase(conns, configs, 0, burst, &served);
  out.set("warm_s", Json(cold.wall));
  std::uint64_t failed = phase_failures(cold);

  // The stream: a kMixedNewShare share of the requests, at random
  // positions, are first-seen (drawn without replacement from the pool);
  // every other one repeats an earlier config.
  Plan plan;
  plan.due = poisson_due(rng, kMixedRps, opt.seconds);
  if (opt.trace) plan.statsz_every = 0.02;
  const std::size_t n = plan.due.size();
  plan.cfg.resize(n);
  std::vector<bool> first_seen(n, false);
  std::fill_n(first_seen.begin(),
              static_cast<std::size_t>(kMixedNewShare * static_cast<double>(n)),
              true);
  std::shuffle(first_seen.begin(), first_seen.end(), rng);
  std::size_t next_new = kMixedBurst;
  for (std::size_t k = 0; k < n; ++k) {
    if (first_seen[k]) {
      plan.cfg[k] = next_new++;
    } else {
      plan.cfg[k] =
          std::uniform_int_distribution<std::size_t>(0, next_new - 1)(rng);
    }
  }

  const Statsz z0 = read_statsz(conns.control("statsz"));
  const double cpu0 = process_cpu_seconds(opt.server_pid);
  const PhaseResult r = run_phase(conns, configs, kMixedBurst, plan, &served);
  out.set("server_cpu_s", Json(process_cpu_seconds(opt.server_pid) - cpu0));
  const Statsz z1 = read_statsz(conns.control("statsz"));
  Json phase = phase_json(r, kMixedRps);
  phase.set("miss_latency_us", to_array(latencies_us(r, [&](std::size_t k) {
              return first_seen[k];
            })));
  phase.set("hit_latency_us", to_array(latencies_us(r, [&](std::size_t k) {
              return !first_seen[k];
            })));
  std::vector<double> miss_exec, hit_wait;
  for (std::size_t k = 0; k < r.outcomes.size(); ++k) {
    const Outcome& o = r.outcomes[k];
    if (!o.ok) continue;
    if (first_seen[k])
      miss_exec.push_back(o.elapsed_us);
    else
      hit_wait.push_back((o.recv - o.start) * 1e6 - o.elapsed_us);
  }
  phase.set("miss_exec_us", to_array(miss_exec));
  phase.set("hit_wait_us", to_array(hit_wait));
  out.set("nominal", phase);
  Json delta = statsz_delta(z0, z1);
  const std::size_t stream_new = next_new - kMixedBurst;
  delta.set("dup_misses", Json(delta.get("misses").as_number() -
                               static_cast<double>(stream_new)));
  out.set("statsz", delta);
  out.set("first_seen", Json(static_cast<std::uint64_t>(stream_new)));

  std::vector<std::size_t> seen(next_new);
  std::iota(seen.begin(), seen.end(), 0);
  failed += phase_failures(r) +
            check_direct(configs, seen, served, catalog, opt.trace, &out);
  out.set("attempted", Json(static_cast<std::uint64_t>(
                           kMixedBurst + plan.cfg.size() + seen.size())));
  out.set("failed", Json(failed));
  return out;
}

}  // namespace perfbench
