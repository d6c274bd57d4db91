// The two sweep workloads. Each call is one cold repetition in a fresh
// process: an empty RunCache, set-up, the timed sweep through the harness's
// public comparison entry points, then a per-job pass through parallel_for
// that re-runs every distinct job with an uncacheable factory. The pass
// times each job (the per-operation latency) and checks that the scalar
// result is byte-identical to the one the sweep memoized.
//
// With `trace` set, the run additionally records spans around set-up
// stages, static-scheduler baselines, the stream generator, and reads the
// stats registry's counters by name.
#include "sweep.hpp"

#include <algorithm>
#include <map>
#include <set>
#include <thread>

#include "harness/experiment.hpp"
#include "harness/multicore.hpp"
#include "harness/parallel.hpp"
#include "harness/run_cache.hpp"
#include "harness/sampler.hpp"
#include "mathx/stats.hpp"
#include "service/protocol.hpp"
#include "workload/arrivals.hpp"
#include "workload/stream.hpp"

namespace perfbench {
namespace {

using namespace amps;

constexpr int kSweepPairs = 80;

/// Registry counters the per-layer metrics read by name.
const char* const kCounters[] = {"sim.idle_ff_cycles", "lanes.sweeps",
                                 "lanes.idle_slices", "lanes.fills",
                                 "lanes.refills"};

/// Counter deltas across a phase; an absent counter stays absent.
class CounterDelta {
 public:
  CounterDelta() {
    for (const char* name : kCounters) before_[name] = registry_counter(name);
  }
  [[nodiscard]] Json finish() const {
    Json out = Json::object();
    // A call site registers its counter on first use, so a counter first
    // seen after the phase started from zero.
    for (const char* name : kCounters)
      if (const auto after = registry_counter(name))
        out.set(name, Json(*after - before_.at(name).value_or(0)));
    return out;
  }

 private:
  std::map<std::string, std::optional<std::uint64_t>> before_;
};

Json cache_stats_delta(const harness::RunCache::Stats& before) {
  const harness::RunCache::Stats after = harness::RunCache::instance().stats();
  Json out = Json::object();
  out.set("hits", Json(after.hits - before.hits));
  out.set("misses", Json(after.misses - before.misses));
  return out;
}

std::uint64_t committed(const metrics::ThreadRunStats* threads,
                        std::size_t n) {
  std::uint64_t sum = 0;
  for (std::size_t i = 0; i < n; ++i) sum += threads[i].committed;
  return sum;
}

/// One job of the per-job pass: its label, host seconds and the simulated
/// work it did.
struct JobTiming {
  std::string sched;
  double seconds = 0.0;
  double cycles = 0.0;  ///< simulated cycles x cores
  bool identical = true;
};

/// Runs `count` jobs through parallel_for, one span per job, and records
/// the pool's wall time, the summed busy time and the participant count.
template <typename Fn>
Json per_job_pass(std::size_t count, Fn&& job, std::vector<JobTiming>* out) {
  out->assign(count, JobTiming{});
  std::vector<double> start(count), end(count);
  std::vector<std::thread::id> who(count);
  const auto t0 = Clock::now();
  harness::parallel_for(count, [&](std::size_t i) {
    start[i] = seconds(t0, Clock::now());
    (*out)[i] = job(i);
    end[i] = seconds(t0, Clock::now());
    who[i] = std::this_thread::get_id();
  });
  const double wall = seconds(t0, Clock::now());
  double busy = 0.0;
  std::vector<double> lat;
  for (std::size_t i = 0; i < count; ++i) {
    busy += end[i] - start[i];
    lat.push_back((end[i] - start[i]) * 1e3);
    (*out)[i].seconds = end[i] - start[i];
  }
  const std::set<std::thread::id> workers(who.begin(), who.end());
  Json pass = Json::object();
  pass.set("wall_s", Json(wall));
  pass.set("busy_s", Json(busy));
  pass.set("workers", Json(static_cast<std::uint64_t>(workers.size())));
  pass.set("job_ms", to_array(lat));
  return pass;
}

/// Host seconds per simulated cycle, summed per scheduler label.
Json seconds_per_cycle(const std::vector<JobTiming>& jobs) {
  std::map<std::string, std::pair<double, double>> acc;
  for (const JobTiming& j : jobs) {
    acc[j.sched].first += j.seconds;
    acc[j.sched].second += j.cycles;
  }
  Json out = Json::object();
  for (const auto& [sched, v] : acc)
    out.set(sched, Json(v.second > 0 ? v.first / v.second : 0.0));
  return out;
}

/// Stamps the end of set-up. perfbench/run.py takes set-up time from the
/// process spawn to this stamp: both read CLOCK_MONOTONIC.
void ready(Json& out) {
  out.set("ready_mono",
          Json(std::chrono::duration<double>(
                   Clock::now().time_since_epoch()).count()));
}

}  // namespace

Json run_sweep_pair(const SweepOptions& opt) {
  const std::uint64_t seed = opt.seed;
  const bool trace = opt.trace;
  Json out = Json::object();
  SpanRecorder spans;

  // --- set-up: catalog load + HPE model fit (profiling is cold) ----------
  const int setup = spans.open("setup");
  const wl::BenchmarkCatalog catalog;
  const harness::ExperimentRunner runner(sim::SimScale::ci());
  const int fit = spans.open("core.build_models", setup);
  const sched::HpeModels models = runner.build_models(catalog);
  spans.close(fit);
  spans.close(setup);
  ready(out);
  if (opt.setup_only) return out;
  if (trace) {
    // A second fit finds the profiles memoized: its time is the fit alone.
    const int refit = spans.open("core.hpe_fit");
    (void)runner.build_models(catalog);
    spans.close(refit);
    const double fit_s = spans.total("core.hpe_fit");
    out.set("hpe_fit_ms", Json(fit_s * 1e3));
    out.set("profile_s", Json(spans.total("core.build_models") - fit_s));
  }

  const auto pairs = harness::sample_pairs(catalog, kSweepPairs, seed);
  const std::vector<std::pair<std::string, harness::SchedulerFactory>> scheds =
      {{"proposed", runner.proposed_factory()},
       {"hpe", runner.hpe_factory(*models.regression)},
       {"rr", runner.round_robin_factory()}};

  // --- the timed cold sweep: Fig. 7 then Fig. 8 ---------------------------
  const CounterDelta counters;
  const auto cache_before = harness::RunCache::instance().stats();
  const double cpu0 = cpu_seconds();
  const auto s0 = Clock::now();
  const auto fig7 = harness::compare_schedulers(runner, pairs, scheds[0].second,
                                                scheds[1].second);
  const auto fig8 = harness::compare_schedulers(runner, pairs, scheds[0].second,
                                                scheds[2].second);
  out.set("wall_s", Json(seconds(s0, Clock::now())));
  out.set("compare_s", out.get("wall_s"));
  out.set("cpu_s", Json(cpu_seconds() - cpu0));
  out.set("cache", cache_stats_delta(cache_before));
  out.set("counters", counters.finish());

  // --- results: every distinct run, read back from the RunCache ----------
  std::uint64_t failed = 0;
  std::uint64_t attempted = 0;
  Digest digest;
  std::vector<double> gains7, gains8;
  for (const auto* rows : {&fig7, &fig8}) {
    for (const harness::ComparisonRow& row : *rows) {
      ++attempted;
      if (row.hit_cycle_bound) ++failed;
      digest.add(row.label);
      digest.add_number(row.weighted_improvement_pct);
      digest.add_number(row.geometric_improvement_pct);
      digest.add_number(row.swap_fraction);
      (rows == &fig7 ? gains7 : gains8).push_back(row.weighted_improvement_pct);
    }
  }
  std::vector<std::string> served(pairs.size() * scheds.size());
  std::uint64_t instr = 0, cycles = 0, decisions = 0, swaps = 0;
  for (std::size_t p = 0; p < pairs.size(); ++p) {
    for (std::size_t s = 0; s < scheds.size(); ++s) {
      ++attempted;
      metrics::PairRunResult r;
      const auto key = runner.pair_run_cache_key(pairs[p], scheds[s].second);
      if (!harness::RunCache::instance().lookup_pair_run(key, &r)) {
        ++failed;
        continue;
      }
      served[p * scheds.size() + s] = service::to_json(r).dump();
      digest.add(served[p * scheds.size() + s]);
      instr += committed(r.threads, 2);
      cycles += r.total_cycles;
      if (s == 0) {
        decisions += r.decision_points;
        swaps += r.swap_count;
      }
    }
  }
  out.set("sims", Json(static_cast<std::uint64_t>(served.size())));
  out.set("instr", Json(instr));
  out.set("cycles", Json(cycles));
  out.set("decisions", Json(decisions));
  out.set("swaps", Json(swaps));
  out.set("ppw_gain_pct", Json(mathx::mean(gains7)));
  out.set("ppw_gain_rr_pct", Json(mathx::mean(gains8)));

  // --- per-job pass: the same runs, scalar and uncached ------------------
  std::vector<JobTiming> jobs;
  const Json pass = per_job_pass(
      served.size(),
      [&](std::size_t i) {
        const auto& [name, factory] = scheds[i % scheds.size()];
        const harness::SchedulerFactory uncached = [&f = factory] {
          return f();
        };
        const auto r = runner.run_pair(pairs[i / scheds.size()], uncached);
        JobTiming t;
        t.sched = name;
        t.cycles = static_cast<double>(r.total_cycles);
        t.identical = service::to_json(r).dump() == served[i];
        return t;
      },
      &jobs);
  out.set("pass", pass);
  for (const JobTiming& j : jobs) {
    ++attempted;
    if (!j.identical) ++failed;
  }

  if (trace) {
    // Static runs take no decisions: their time per cycle is engine cost.
    std::vector<JobTiming> statics;
    const auto stat = runner.static_factory();
    (void)per_job_pass(
        pairs.size(),
        [&](std::size_t i) {
          const harness::SchedulerFactory uncached = [&stat] { return stat(); };
          const auto r = runner.run_pair(pairs[i], uncached);
          JobTiming t;
          t.sched = "static";
          t.cycles = static_cast<double>(r.total_cycles);
          return t;
        },
        &statics);
    jobs.insert(jobs.end(), statics.begin(), statics.end());
    out.set("s_per_cycle", seconds_per_cycle(jobs));

    // Stream generation alone, over the sweep's distinct benchmarks.
    std::set<const wl::BenchmarkSpec*> specs;
    for (const auto& pair : pairs) specs.insert({pair.first, pair.second});
    std::vector<isa::MicroOp> buf(1 << 14);
    std::size_t ops = 0;
    const auto g0 = Clock::now();
    for (const wl::BenchmarkSpec* spec : specs) {
      wl::InstructionStream stream(*spec);
      for (int k = 0; k < 8; ++k) {
        stream.next_batch(buf.data(), buf.size());
        ops += buf.size();
      }
    }
    out.set("gen_ns_per_op",
            Json(seconds(g0, Clock::now()) * 1e9 / static_cast<double>(ops)));
  }

  out.set("digest", Json(digest.hex()));
  out.set("attempted", Json(attempted));
  out.set("failed", Json(failed));
  out.set("rss_mb", Json(peak_rss_mb()));
  return out;
}

Json run_sweep_ncore(const SweepOptions& opt) {
  const std::uint64_t seed = opt.seed;
  const bool trace = opt.trace;
  Json out = Json::object();

  // --- set-up: catalog load and HPE model fit (the sweeps' common set-up,
  // as in sweep_pair), runners, sampled workloads, the arrival stream -----
  const wl::BenchmarkCatalog catalog;
  const sim::SimScale scale = sim::SimScale::ci();
  (void)harness::ExperimentRunner(scale).build_models(catalog);
  struct Sweep {
    std::size_t cores;
    harness::MulticoreRunner runner;
    std::vector<harness::MulticoreWorkload> workloads;
  };
  std::vector<Sweep> sweeps;
  for (const std::size_t n : {std::size_t{8}, std::size_t{16}})
    sweeps.push_back(Sweep{n, harness::MulticoreRunner::canonical(scale, n),
                           harness::sample_workloads(catalog, n,
                                                     kNcoreWorkloads, seed + n)});
  const harness::MulticoreRunner open_runner =
      harness::MulticoreRunner::canonical(scale, 4);
  wl::PoissonConfig pcfg;
  pcfg.count = kOpenJobs;
  pcfg.jobs_per_kilocycle = 0.25;
  pcfg.min_job_length = scale.run_length / 32;
  pcfg.max_job_length = scale.run_length / 12;
  pcfg.io.stall_interval = scale.run_length / 16;
  pcfg.io.stall_latency = 2000;
  const wl::ArrivalSchedule schedule =
      wl::poisson_arrivals(catalog, pcfg, seed);
  sim::OpenConfig open_cfg;
  open_cfg.quantum = scale.context_switch_interval / 8;
  open_cfg.dispatch_overhead = scale.swap_overhead;
  ready(out);
  if (opt.setup_only) return out;

  // --- the timed cold sweep ----------------------------------------------
  const CounterDelta counters;
  const auto cache_before = harness::RunCache::instance().stats();
  const double cpu0 = cpu_seconds();
  const auto s0 = Clock::now();
  struct Rows {
    std::vector<harness::MulticoreComparisonRow> vs_static, vs_rr;
  };
  std::vector<Rows> rows;
  for (const Sweep& s : sweeps) {
    const auto aff = s.runner.affinity_factory();
    rows.push_back(Rows{
        harness::compare_multicore(s.runner, s.workloads, aff,
                                   s.runner.static_factory()),
        harness::compare_multicore(s.runner, s.workloads, aff,
                                   s.runner.round_robin_factory())});
  }
  out.set("compare_s", Json(seconds(s0, Clock::now())));
  const std::vector<std::pair<std::string, harness::NCoreSchedulerFactory>>
      open_scheds = {{"static", open_runner.static_factory()},
                     {"affinity", open_runner.affinity_factory()},
                     {"rr", open_runner.round_robin_factory()}};
  std::vector<metrics::OpenRunResult> open(open_scheds.size());
  harness::parallel_for(open_scheds.size(), [&](std::size_t i) {
    open[i] = open_runner.run_open(schedule, open_scheds[i].second, open_cfg);
  });
  out.set("wall_s", Json(seconds(s0, Clock::now())));
  out.set("cpu_s", Json(cpu_seconds() - cpu0));
  out.set("cache", cache_stats_delta(cache_before));
  out.set("counters", counters.finish());

  // --- results ------------------------------------------------------------
  std::uint64_t failed = 0;
  std::uint64_t attempted = 0;
  Digest digest;
  std::vector<double> gains;
  for (std::size_t k = 0; k < rows.size(); ++k) {
    for (const auto* list : {&rows[k].vs_static, &rows[k].vs_rr}) {
      for (const harness::MulticoreComparisonRow& row : *list) {
        ++attempted;
        if (row.hit_cycle_bound) ++failed;
        digest.add(row.label);
        digest.add_number(row.weighted_improvement_pct);
        digest.add_number(row.geometric_improvement_pct);
        digest.add_number(row.swap_fraction);
        if (list == &rows[k].vs_static)
          gains.push_back(row.weighted_improvement_pct);
      }
    }
  }
  // Every distinct closed run, read back through the memoizing run().
  struct Job {
    const Sweep* sweep;
    std::size_t workload;
    std::string sched;
  };
  std::vector<Job> jobs;
  for (const Sweep& s : sweeps)
    for (std::size_t w = 0; w < s.workloads.size(); ++w)
      for (const char* sched : {"affinity", "static", "rr"})
        jobs.push_back(Job{&s, w, sched});
  const auto factory_of = [](const Sweep& s, const std::string& sched) {
    return sched == "affinity" ? s.runner.affinity_factory()
           : sched == "static" ? s.runner.static_factory()
                               : s.runner.round_robin_factory();
  };
  std::vector<std::string> served(jobs.size());
  std::uint64_t instr = 0, cycles = 0, decisions = 0, swaps = 0;
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    ++attempted;
    const Job& j = jobs[i];
    const auto r = j.sweep->runner.run(j.sweep->workloads[j.workload],
                                       factory_of(*j.sweep, j.sched));
    if (r.hit_cycle_bound) ++failed;
    served[i] = service::to_json(r).dump();
    digest.add(served[i]);
    instr += committed(r.threads.data(), r.threads.size());
    cycles += r.total_cycles;
    if (j.sched == "affinity") {
      decisions += r.decision_points;
      swaps += r.swap_count;
    }
  }
  std::vector<double> turnaround;
  for (std::size_t i = 0; i < open.size(); ++i) {
    const metrics::OpenRunResult& r = open[i];
    ++attempted;
    if (r.closed.hit_cycle_bound || r.jobs_finished != schedule.size())
      ++failed;
    digest.add(service::to_json(r.closed).dump());
    for (const metrics::OpenJobOutcome& job : r.jobs) {
      digest.add_number(static_cast<double>(job.turnaround()));
      if (open_scheds[i].first == "affinity" && job.exited)
        turnaround.push_back(static_cast<double>(job.turnaround()));
    }
    instr += committed(r.closed.threads.data(), r.closed.threads.size());
    cycles += r.closed.total_cycles;
  }
  const metrics::OpenRunResult& aff_open = open[1];
  out.set("sims", Json(static_cast<std::uint64_t>(jobs.size() + open.size())));
  out.set("instr", Json(instr));
  out.set("cycles", Json(cycles));
  out.set("decisions", Json(decisions));
  out.set("swaps", Json(swaps));
  out.set("ppw_gain_pct", Json(mathx::mean(gains)));
  out.set("turnaround_p90_kcycles", Json(percentile(turnaround, 90) / 1e3));
  out.set("open_jobs", Json(static_cast<std::uint64_t>(schedule.size())));
  out.set("open_migrations", Json(aff_open.total_migrations));
  out.set("open_steals", Json(aff_open.total_steals));
  out.set("open_preemptions", Json(aff_open.total_preemptions));

  // --- per-job pass: the closed runs again, scalar and uncached -----------
  std::vector<JobTiming> timings;
  const Json pass = per_job_pass(
      jobs.size(),
      [&](std::size_t i) {
        const Job& j = jobs[i];
        const auto keyed = factory_of(*j.sweep, j.sched);
        const harness::NCoreSchedulerFactory uncached = [&keyed] {
          return keyed();
        };
        const auto r =
            j.sweep->runner.run(j.sweep->workloads[j.workload], uncached);
        JobTiming t;
        t.sched = j.sched;
        t.cycles = static_cast<double>(r.total_cycles) *
                   static_cast<double>(j.sweep->cores);
        t.identical = service::to_json(r).dump() == served[i];
        return t;
      },
      &timings);
  out.set("pass", pass);
  for (const JobTiming& t : timings) {
    ++attempted;
    if (!t.identical) ++failed;
  }
  Json by_cores = Json::object();
  for (const Sweep& s : sweeps) {
    std::vector<double> ms;
    for (std::size_t i = 0; i < jobs.size(); ++i)
      if (jobs[i].sweep == &s) ms.push_back(timings[i].seconds * 1e3);
    by_cores.set("c" + std::to_string(s.cores), to_array(ms));
  }
  out.set("run_ms_by_cores", by_cores);
  if (trace) out.set("s_per_core_cycle", seconds_per_cycle(timings));

  out.set("digest", Json(digest.hex()));
  out.set("attempted", Json(attempted));
  out.set("failed", Json(failed));
  out.set("rss_mb", Json(peak_rss_mb()));
  return out;
}

}  // namespace perfbench
