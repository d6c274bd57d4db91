#!/usr/bin/env python3
"""AMPS benchmark: cold paper sweeps and served requests.

    python3 perfbench/run.py --workload sweep_pair --seed 1 --seconds 15 --trace 0

Builds the repository (its own CMake project, then amps_perfbench from
perfbench/) under .bench_build, runs the workload in fresh processes with a
private working directory and no inherited AMPS_* variables, prints every
metric by name and unit, writes one record (perfbench/record.py) under
.bench_build/records, and ends with one JSON line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics; --trace 1 runs the workload once
untraced and once traced and reports the per-layer metrics. See
perfbench/README.md for the workloads and the metric map.
"""

import argparse
import json
import os
import select
import shutil
import socket
import statistics
import subprocess
import sys
import tempfile
import time

sys.dont_write_bytecode = True  # leave no __pycache__ in the checkout
import record  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
AMPS_BUILD = os.path.join(BUILD, "amps")
BIN_BUILD = os.path.join(BUILD, "perfbench")
BENCH_BIN = os.path.join(BIN_BUILD, "amps_perfbench")
SERVER = os.path.join(AMPS_BUILD, "examples", "amps_serve")

WORKLOADS = ("sweep_pair", "sweep_ncore", "serve_hot", "serve_mixed")
# Held out while the benchmark was written: confirm later claims on it.
HELD_OUT_SEED = 7207
# Set-ups per run (set_up_s is their median): at least the minimum, more
# while their total stays under a second, at most the maximum.
SETUP_SAMPLES = (3, 9)
CHILD_TIMEOUT_S = 150

# End-to-end metrics: every workload reports each of them (README.md says
# what each means per workload).
END_TO_END = [
    ("setup_s", "s", "lower"),
    ("wall_s", "s", "lower"),
    ("ops_per_s", "1/s", "higher"),
    ("cpu_ms_per_op", "ms", "lower"),
    ("p50_ms", "ms", "lower"),
    ("peak_rss_mb", "MB", "lower"),
]

# Per-layer metrics of the traced run: name, unit, direction, and the
# end-to-end metric each should move. A layer a workload does not exercise
# reports 0.
PER_LAYER = [
    ("workload.gen_ns_per_op", "ns", "lower", "wall_s on sweep_pair"),
    ("sim.ns_per_cycle", "ns", "lower",
     "wall_s/p50_ms on sweep_pair, cpu_ms_per_op on serve_mixed"),
    ("sim.ncore_ns_per_core_cycle", "ns", "lower", "wall_s on sweep_ncore"),
    ("sim.idle_ff_frac", "ratio", "higher", "sim.ns_per_cycle"),
    ("sim.cycles", "count", "lower", "sim.ns_per_cycle"),
    ("sim.instr", "count", "lower", "sim.ns_per_cycle"),
    ("sim.open.migrations", "count", "lower", "wall_s on sweep_ncore"),
    ("sim.open.steals", "count", "lower", "wall_s on sweep_ncore"),
    ("sim.open.preemptions", "count", "lower", "wall_s on sweep_ncore"),
    ("core.overhead_pct.proposed", "%", "lower", "wall_s on sweep_pair"),
    ("core.overhead_pct.hpe", "%", "lower", "wall_s on sweep_pair"),
    ("core.overhead_pct.rr", "%", "lower", "wall_s on the sweeps"),
    ("core.overhead_pct.affinity", "%", "lower", "wall_s on sweep_ncore"),
    ("core.decisions", "count", "lower", "wall_s on the sweeps"),
    ("core.swaps", "count", "lower", "wall_s on the sweeps"),
    ("core.swap_frac", "ratio", "lower", "wall_s on the sweeps"),
    ("core.profile_s", "s", "lower", "setup_s on the sweeps"),
    ("core.hpe_fit_ms", "ms", "lower", "setup_s on the sweeps"),
    ("harness.run_pair_ms.p50", "ms", "lower", "p50_ms/wall_s on sweep_pair"),
    ("harness.run_pair_ms.p90", "ms", "lower", "wall_s on sweep_pair"),
    ("harness.multicore_run_ms.c8.p50", "ms", "lower",
     "p50_ms/wall_s on sweep_ncore"),
    ("harness.multicore_run_ms.c8.p90", "ms", "lower", "wall_s on sweep_ncore"),
    ("harness.multicore_run_ms.c16.p50", "ms", "lower",
     "p50_ms/wall_s on sweep_ncore"),
    ("harness.multicore_run_ms.c16.p90", "ms", "lower",
     "wall_s on sweep_ncore"),
    ("harness.pool_busy_pct", "%", "higher", "wall_s on the sweeps"),
    ("harness.fanout_gap_pct", "%", "lower", "wall_s on the sweeps"),
    ("harness.lanes.occupancy_pct", "%", "higher", "wall_s on the sweeps"),
    ("harness.run_cache.hits", "count", "higher", "wall_s on the sweeps"),
    ("harness.run_cache.misses", "count", "lower", "wall_s on the sweeps"),
    ("harness.run_cache.dup_misses", "count", "lower",
     "cpu_ms_per_op on serve_mixed"),
    ("harness.cache_key_us", "us", "lower",
     "cpu_ms_per_op/p50_ms on serve_hot"),
    ("harness.run_cache.lookup_us", "us", "lower",
     "cpu_ms_per_op/p50_ms on serve_hot"),
    ("service.exec_us.p50", "us", "lower", "p50_ms on the serve workloads"),
    ("service.exec_us.p99", "us", "lower", "p50_ms on the serve workloads"),
    ("service.wait_us.p50", "us", "lower", "p50_ms on the serve workloads"),
    ("service.wait_us.p99", "us", "lower", "p50_ms on the serve workloads"),
    ("service.parse_request_us", "us", "lower",
     "cpu_ms_per_op/p50_ms on serve_hot"),
    ("service.to_json_us", "us", "lower", "cpu_ms_per_op/p50_ms on serve_hot"),
    ("service.response_bytes", "B", "lower",
     "cpu_ms_per_op/p50_ms on serve_hot"),
    ("service.batch_size_mean", "count", "higher",
     "cpu_ms_per_op on serve_hot, p50_ms on serve_mixed"),
    ("service.queue_depth_p99", "count", "lower",
     "p50_ms on the serve workloads"),
    ("service.batches", "count", "lower", "cpu_ms_per_op on the serve workloads"),
    ("service.hit_wait_ms.p99", "ms", "lower", "p50_ms on serve_mixed"),
    ("service.miss_exec_ms.p50", "ms", "lower",
     "cpu_ms_per_op on serve_mixed"),
    ("service.queue_full", "count", "lower", "failed (refusals are failures)"),
    ("gen.lateness_us.p99", "us", "lower", "validity of the serve latencies"),
    ("gen.cpu_us_per_req", "us", "lower", "validity of the serve latencies"),
]

# Run-to-run spread (IQR / median) of the gated metrics over ten seeds on
# the development host was 0.03-0.12; a tracing overhead (on wall_s for the
# sweeps, p50_ms for serving) inside it is reported as noise.
NOISE = 0.10

# Latency samples per chunk for the chunked percentiles (see chunked).
CHUNK = 1000

# Lane width the lane engine uses when AMPS_LANES is unset (occupancy is
# computed from its counters against this width).
LANE_WIDTH = 8


def log(*args):
    print(*args, flush=True)


# ----------------------------------------------------------------- build


def build():
    """Builds the repository's libraries and amps_serve, then amps_perfbench.
    Output goes to .bench_build/build.log; failure raises."""
    os.makedirs(BUILD, exist_ok=True)
    jobs = str(os.cpu_count() or 1)
    steps = []
    if not os.path.exists(os.path.join(AMPS_BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", ROOT, "-B", AMPS_BUILD,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo",
                      "-DAMPS_BUILD_TESTS=OFF", "-DAMPS_BUILD_BENCH=OFF",
                      "-DAMPS_BUILD_EXAMPLES=ON"])
    steps.append(["cmake", "--build", AMPS_BUILD, "-j", jobs,
                  "--target", "amps_serve"])
    if not os.path.exists(os.path.join(BIN_BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", os.path.join(ROOT, "perfbench"),
                      "-B", BIN_BUILD, "-DCMAKE_BUILD_TYPE=RelWithDebInfo",
                      "-DAMPS_SOURCE_DIR=" + ROOT,
                      "-DAMPS_BUILD_DIR=" + AMPS_BUILD])
    steps.append(["cmake", "--build", BIN_BUILD, "-j", jobs])
    with open(os.path.join(BUILD, "build.log"), "a") as out:
        for cmd in steps:
            if subprocess.run(cmd, stdout=out, stderr=out).returncode != 0:
                raise RuntimeError("build failed: %s (see %s)" %
                                   (" ".join(cmd), out.name))


# ------------------------------------------------------------- processes


def clean_env():
    """The caller's environment minus every AMPS_* knob."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("AMPS_")}
    cleared = sorted(k for k in os.environ if k.startswith("AMPS_"))
    return env, cleared


def run_bench_bin(args, cwd, env):
    """Runs amps_perfbench once and returns its JSON line, with setup_s (spawn
    to its ready stamp) when it stamped one."""
    spawned = time.monotonic()
    proc = subprocess.run([BENCH_BIN] + args, cwd=cwd, env=env,
                          capture_output=True, text=True,
                          timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError("amps_perfbench %s failed: %s" %
                           (" ".join(args), proc.stderr.strip()))
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if "ready_mono" in result:
        result["setup_s"] = result["ready_mono"] - spawned
    return result


class Server:
    """amps_serve --port=0 in its own process; stopped on exit."""

    def __init__(self, cwd, env):
        self.port = None
        self.spawned = time.monotonic()
        self.proc = subprocess.Popen([SERVER, "--port=0"], cwd=cwd, env=env,
                                     stdout=subprocess.PIPE,
                                     stderr=subprocess.DEVNULL, text=True)
        try:
            if not select.select([self.proc.stdout], [], [], 30)[0]:
                raise RuntimeError("amps_serve did not start")
            line = self.proc.stdout.readline()
            self.port = int(line.split("127.0.0.1:")[1].split()[0])
            pong = self.control("ping")
            if '"pong":true' not in pong:
                raise RuntimeError("no pong: " + pong)
            self.ready_s = time.monotonic() - self.spawned
        except Exception:
            self.stop()
            raise

    def control(self, op):
        with socket.create_connection(("127.0.0.1", self.port),
                                      timeout=30) as s:
            s.sendall(b'{"op":"%s"}\n' % op.encode())
            data = b""
            while not data.endswith(b"\n"):
                chunk = s.recv(65536)
                if not chunk:
                    break
                data += chunk
            return data.decode()

    def peak_rss_mb(self):
        with open("/proc/%d/status" % self.proc.pid) as f:
            for line in f:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise RuntimeError("no VmHWM for amps_serve")

    def stop(self):
        """Graceful shutdown over the wire; killed if that fails."""
        if self.proc.poll() is None:
            try:
                if self.port is None:
                    raise OSError("no port")
                self.control("shutdown")
                self.proc.wait(timeout=30)
            except (OSError, subprocess.TimeoutExpired):
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.stop()


# ----------------------------------------------------------- statistics


def tail_pct(n):
    """The highest percentile with at least ten samples beyond it (capped
    at 99)."""
    return max(0.0, min(99.0, 100.0 * (1.0 - 10.0 / n))) if n else 0.0


def pct(values, p):
    """Percentile p (0..100) of values, linearly interpolated."""
    if not values:
        return 0.0
    v = sorted(values)
    pos = p / 100.0 * (len(v) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(v) - 1)
    return v[lo] + (v[hi] - v[lo]) * (pos - lo)


def more_setups(samples):
    lo, hi = SETUP_SAMPLES
    return len(samples) < lo or (len(samples) < hi and sum(samples) < 1.0)


def median(values):
    return statistics.median(values) if values else 0.0


# ------------------------------------------------------------ workloads


def sweep_reps(mode, seed, seconds, cwd, env, trace):
    """Untraced cold repetitions while the budget lasts (at least one), the
    extra set-ups to reach SETUP_SAMPLES, and with `trace` one traced rep."""
    reps = []
    start = time.monotonic()
    while True:
        reps.append(run_bench_bin([mode, "--seed", str(seed)], cwd, env))
        spent = time.monotonic() - start
        if spent * (len(reps) + 1) / len(reps) > seconds:
            break
    setups = [r["setup_s"] for r in reps]
    while more_setups(setups):
        setups.append(run_bench_bin([mode, "--seed", str(seed), "--setup-only"],
                                 cwd, env)["setup_s"])
    traced = run_bench_bin([mode, "--seed", str(seed), "--trace"], cwd, env) \
        if trace else None
    return reps, setups, traced


def job_p50(reps):
    """Median job time; with jobs of several sizes (sweep_ncore's 8- and
    16-core runs) the mean of each size's median, so the figure does not
    jump between the sizes."""
    if "run_ms_by_cores" not in reps[0]:
        return chunked([ms for r in reps for ms in r["pass"]["job_ms"]], 50)
    sizes = reps[0]["run_ms_by_cores"].keys()
    return statistics.mean(
        median([ms for r in reps for ms in r["run_ms_by_cores"][size]])
        for size in sizes)


def sweep_end_to_end(reps, setups):
    jobs = [ms for r in reps for ms in r["pass"]["job_ms"]]
    tail, tail_at = tail_of(jobs)
    e2e = {
        "setup_s": median(setups),
        "wall_s": median([r["wall_s"] for r in reps]),
        "ops_per_s": median([r["sims"] / r["wall_s"] for r in reps]),
        "cpu_ms_per_op": median([r["cpu_s"] / r["sims"] * 1e3 for r in reps]),
        "p50_ms": job_p50(reps),
        "peak_rss_mb": median([r["rss_mb"] for r in reps]),
    }
    info = {
        "tail_ms": (tail, "ms"),
        "sim_mips": (median([r["instr"] / r["wall_s"] / 1e6 for r in reps]),
                     "M instr/s"),
        "ppw_gain_pct": (reps[0]["ppw_gain_pct"], "%"),
        "tail_percentile": (tail_at, "pct"),
        "job_samples": (len(jobs), "count"),
        "setup_samples": (len(setups), "count"),
        "reps": (len(reps), "count"),
    }
    if "turnaround_p90_kcycles" in reps[0]:
        info["turnaround_p90_kcycles"] = (reps[0]["turnaround_p90_kcycles"],
                                          "kcycles")
    else:
        info["ppw_gain_rr_pct"] = (reps[0]["ppw_gain_rr_pct"], "%")
    return e2e, info


def lanes_occupancy(counters):
    sweeps = counters.get("lanes.sweeps")
    idle = counters.get("lanes.idle_slices")
    if sweeps is None or idle is None:
        return None
    slots = sweeps * LANE_WIDTH
    return 100.0 * (1.0 - idle / slots) if slots else 0.0


def sweep_per_layer(t):
    """Per-layer metrics out of one traced sweep rep."""
    m = {}
    absent = []
    counters = t["counters"]
    pass_ = t["pass"]
    m["harness.pool_busy_pct"] = 100.0 * pass_["busy_s"] / (
        pass_["workers"] * pass_["wall_s"])
    # The comparison calls' wall against the same closed jobs fanned out
    # by parallel_for (the open-system runs are not part of either).
    m["harness.fanout_gap_pct"] = 100.0 * (
        t["compare_s"] / pass_["wall_s"] - 1)
    occupancy = lanes_occupancy(counters)
    if occupancy is None:
        absent.append("harness.lanes.occupancy_pct")
    else:
        m["harness.lanes.occupancy_pct"] = occupancy
    m["harness.run_cache.hits"] = t["cache"]["hits"]
    m["harness.run_cache.misses"] = t["cache"]["misses"]
    m["sim.instr"] = t["instr"]
    m["sim.cycles"] = t["cycles"]
    if "sim.idle_ff_cycles" in counters:
        m["sim.idle_ff_frac"] = counters["sim.idle_ff_cycles"] / t["cycles"]
    else:
        absent.append("sim.idle_ff_frac")
    m["core.decisions"] = t["decisions"]
    m["core.swaps"] = t["swaps"]
    m["core.swap_frac"] = t["swaps"] / t["decisions"] if t["decisions"] else 0
    if "s_per_cycle" in t:  # sweep_pair
        spc = t["s_per_cycle"]
        base = spc["static"]
        m["sim.ns_per_cycle"] = base * 1e9
        for name in ("proposed", "hpe", "rr"):
            m["core.overhead_pct." + name] = 100.0 * (spc[name] / base - 1)
        m["core.profile_s"] = t["profile_s"]
        m["core.hpe_fit_ms"] = t["hpe_fit_ms"]
        m["harness.run_pair_ms.p50"] = pct(pass_["job_ms"], 50)
        m["harness.run_pair_ms.p90"] = pct(pass_["job_ms"], 90)
        m["workload.gen_ns_per_op"] = t["gen_ns_per_op"]
    else:  # sweep_ncore
        spc = t["s_per_core_cycle"]
        base = spc["static"]
        m["sim.ncore_ns_per_core_cycle"] = base * 1e9
        m["core.overhead_pct.affinity"] = 100.0 * (spc["affinity"] / base - 1)
        m["core.overhead_pct.rr"] = 100.0 * (spc["rr"] / base - 1)
        for cores, ms in t["run_ms_by_cores"].items():
            m["harness.multicore_run_ms.%s.p50" % cores] = pct(ms, 50)
            m["harness.multicore_run_ms.%s.p90" % cores] = pct(ms, 90)
        m["sim.open.migrations"] = t["open_migrations"]
        m["sim.open.steals"] = t["open_steals"]
        m["sim.open.preemptions"] = t["open_preemptions"]
    return m, absent


def serve_once(mode, seed, seconds, cwd, env, trace):
    """Set-up samples (spawn to first ping), then one measured run against
    the last server spawned; returns amps_perfbench's result, set-up samples
    and the server's peak RSS."""
    setups = []
    while more_setups(setups + [0.0]):  # the measured server adds one
        with Server(cwd, env) as s:
            setups.append(s.ready_s)
    with Server(cwd, env) as server:
        setups.append(server.ready_s)
        args = [mode, "--seed", str(seed), "--port", str(server.port),
                "--pid", str(server.proc.pid), "--seconds", str(seconds)]
        result = run_bench_bin(args + (["--trace"] if trace else []), cwd, env)
        rss = server.peak_rss_mb()
    return result, setups, rss


def chunked(values, p):
    """Percentile p of `values` (in send order): with at least three chunks
    of CHUNK samples, the median of each chunk's percentile, so a host
    stall moves a chunk, not the figure; otherwise the plain percentile."""
    if len(values) < 3 * CHUNK:
        return pct(values, p)
    return median([pct(values[i:i + CHUNK], p)
                   for i in range(0, len(values) - CHUNK + 1, CHUNK)])


def tail_of(values):
    """(tail value, its percentile): the highest percentile with at least
    ten samples beyond it, capped at p99 — per chunk when chunked."""
    at = tail_pct(min(len(values), CHUNK) if len(values) >= 3 * CHUNK
                  else len(values))
    return chunked(values, at), at


def serve_end_to_end(r, setups, rss, mode):
    phase = r["nominal"]
    # serve_hot: every request. serve_mixed: the first-seen requests (a
    # user waiting on a new simulation); the repeat requests' latency sits
    # on idle thread wake-ups at this rate and is printed, not gated.
    lat_us = phase["latency_us" if mode == "serve_hot" else "miss_latency_us"]
    lat_ms = [us / 1e3 for us in lat_us]
    tail, tail_at = tail_of(lat_ms)
    warm = r.get("warm_s", 0.0)
    answered = len(phase["latency_us"])
    e2e = {
        "setup_s": median(setups) + warm,
        "wall_s": phase["wall_s"],
        "ops_per_s": answered / phase["wall_s"],
        "cpu_ms_per_op": r["server_cpu_s"] / answered * 1e3,
        "p50_ms": chunked(lat_ms, 50),
        "peak_rss_mb": rss,
    }
    # The client-latency figures: every request on serve_hot, the
    # repeat requests on serve_mixed.
    client_us = phase["latency_us" if mode == "serve_hot"
                      else "hit_latency_us"]
    info = {
        "tail_ms": (tail, "ms"),
        "p50_us": (pct(client_us, 50), "us"),
        "p99_us": (pct(client_us, 99), "us"),
        "tail_percentile": (tail_at, "pct"),
        "samples": (len(lat_ms), "count"),
        "answered": (answered, "count"),
        "rate": (phase["rate"], "req/s"),
        "warm_s": (warm, "s"),
    }
    info["gen_lateness_p99_us"] = (pct(phase["lateness_us"], 99), "us")
    if mode == "serve_hot":
        info["max_rps"] = (r["max_rps"], "req/s")
    else:
        info["miss_p50_ms"] = (pct(lat_us, 50) / 1e3, "ms")
        info["miss_p90_ms"] = (pct(lat_us, 90) / 1e3, "ms")
        info["first_seen"] = (r["first_seen"], "count")
    return e2e, info


def serve_per_layer(r):
    phase = r["nominal"]
    statsz = r["statsz"]
    replay = r["replay"]
    m = {
        "service.exec_us.p50": pct(phase["exec_us"], 50),
        "service.exec_us.p99": pct(phase["exec_us"], 99),
        "service.wait_us.p50": pct(phase["wait_us"], 50),
        "service.wait_us.p99": pct(phase["wait_us"], 99),
        "service.parse_request_us": median(replay["parse_request_us"]),
        "service.to_json_us": median(replay["to_json_us"]),
        "service.response_bytes": phase["response_bytes"],
        "service.batch_size_mean": statsz["batch_size_mean"],
        "service.queue_depth_p99": pct(phase.get("queue_depth", []), 99),
        "service.batches": statsz["batches"],
        "service.queue_full": phase["queue_full"],
        "harness.cache_key_us": median(replay["cache_key_us"]),
        "harness.run_cache.lookup_us": median(replay["lookup_us"]),
        "harness.run_cache.hits": statsz["hits"],
        "harness.run_cache.misses": statsz["misses"],
        "gen.lateness_us.p99": pct(phase["lateness_us"], 99),
        "gen.cpu_us_per_req": phase["gen_cpu_us_per_req"],
    }
    if "dup_misses" in statsz:  # serve_mixed
        m["harness.run_cache.dup_misses"] = statsz["dup_misses"]
        m["service.hit_wait_ms.p99"] = pct(phase["hit_wait_us"], 99) / 1e3
        m["service.miss_exec_ms.p50"] = pct(phase["miss_exec_us"], 50) / 1e3
    return m, []


# ----------------------------------------------------------------- main


def measure(workload, seed, seconds, trace, cwd, env):
    """Runs one workload; returns (end_to_end, info, per_layer, absent,
    attempted, failed, checks, overhead). With `trace`, `overhead` is (the
    end-to-end metric compared, traced value, untraced value)."""
    checks = {}
    per_layer, absent = {}, []
    overhead = None
    if workload.startswith("sweep"):
        reps, setups, traced = sweep_reps(workload, seed, seconds, cwd, env,
                                          trace)
        e2e, info = sweep_end_to_end(reps, setups)
        attempted = sum(r["attempted"] for r in reps)
        failed = sum(r["failed"] for r in reps)
        digests = {r["digest"] for r in reps}
        checks["digest"] = reps[0]["digest"]
        if traced is not None:
            attempted += traced["attempted"] + 1
            failed += traced["failed"]
            digests.add(traced["digest"])
            per_layer, absent = sweep_per_layer(traced)
            overhead = ("wall_s", traced["wall_s"], e2e["wall_s"])
        if len(digests) != 1:  # every rep, traced or not, must agree
            failed += 1
            checks["digest_mismatch"] = sorted(digests)
    else:
        r, setups, rss = serve_once(workload, seed, seconds, cwd, env, False)
        e2e, info = serve_end_to_end(r, setups, rss, workload)
        attempted, failed = r["attempted"], r["failed"]
        checks["digest"] = r["digest"]
        checks["result_mismatches"] = r["result_mismatches"]
        if "ladder" in r:
            checks["ladder_p99_us"] = " ".join(
                "%d:%.0f%s" % (s["rate"], s["p99_us"], "" if s["pass"] else "!")
                for s in r["ladder"])
        if trace:
            t, t_setups, t_rss = serve_once(workload, seed, seconds, cwd, env,
                                            True)
            attempted += t["attempted"] + 1
            failed += t["failed"]
            if t["digest"] != r["digest"]:
                failed += 1
                checks["digest_mismatch"] = [r["digest"], t["digest"]]
            per_layer, absent = serve_per_layer(t)
            traced_p50 = serve_end_to_end(t, t_setups, t_rss,
                                          workload)[0]["p50_ms"]
            overhead = ("p50_ms", traced_p50, e2e["p50_ms"])
    return e2e, info, per_layer, absent, attempted, failed, checks, overhead


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    build()
    env, cleared = clean_env()
    os.makedirs(os.path.join(BUILD, "tmp"), exist_ok=True)
    cwd = tempfile.mkdtemp(prefix=args.workload + "-",
                           dir=os.path.join(BUILD, "tmp"))
    try:
        (e2e, info, per_layer, absent, attempted, failed, checks,
         overhead) = measure(args.workload, args.seed, args.seconds,
                             bool(args.trace), cwd, env)
    finally:
        shutil.rmtree(cwd, ignore_errors=True)

    host = record.host_info(ROOT, AMPS_BUILD)
    log("workload %s  seed %d  seconds %g  trace %d  (held-out seed %d)" %
        (args.workload, args.seed, args.seconds, args.trace, HELD_OUT_SEED))
    log("host: " + ", ".join("%s=%s" % kv for kv in host.items()))
    log("cleared AMPS_* knobs: %s" % (", ".join(cleared) or "none"))
    for name, unit, better in END_TO_END:
        log("  %-24s %14.6g %-6s (%s is better)" % (name, e2e[name], unit,
                                                   better))
    for name, (value, unit) in info.items():
        log("  %-24s %14.6g %s" % (name, value, unit))
    for name, value in checks.items():
        log("  check %-18s %s" % (name, value))

    if args.trace:
        for name, unit, _, moves in PER_LAYER:
            value = per_layer.get(name)
            state = "absent" if name in absent else \
                "not exercised" if value is None else ""
            log("  %-34s %14.6g %-6s -> %s %s" % (
                name, value or 0.0, unit, moves, state))
        name, traced, untraced = overhead
        change = traced / untraced - 1
        checks["tracing_overhead_pct"] = 100.0 * change
        log("  tracing overhead: traced %s %.6g vs untraced %.6g: %+.1f%%%s" %
            (name, traced, untraced, 100.0 * change,
             ", within noise" if abs(change) < NOISE else ""))
        metrics = {name: {"value": float(per_layer.get(name, 0.0)),
                          "unit": unit} for name, unit, _, _ in PER_LAYER}
    else:
        metrics = {name: {"value": float(e2e[name]), "unit": unit}
                   for name, unit, _ in END_TO_END}

    path = os.path.join(BUILD, "records", "%s-seed%d-trace%d.json" % (
        args.workload, args.seed, args.trace))
    record.write_record(
        path, workload=args.workload, seed=args.seed, trace=bool(args.trace),
        run_seconds=args.seconds, host=host,
        knobs={"cleared": cleared, "set": {}},
        metrics=[record.metric(n, u, b, [e2e[n]]) for n, u, b in END_TO_END]
        + [record.metric(n, unit, "", [v]) for n, (v, unit) in info.items()]
        + ([record.metric(n, u, b, [per_layer.get(n, 0.0)])
            for n, u, b, _ in PER_LAYER] if args.trace else []),
        extra={"attempted": attempted, "failed": failed, "checks": checks,
               "absent": absent})
    log("record: " + os.path.relpath(path, ROOT))
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}), flush=True)
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except Exception as e:  # noqa: BLE001 — any failure means no result
        print("perfbench: %s" % e, file=sys.stderr)
        sys.exit(1)
