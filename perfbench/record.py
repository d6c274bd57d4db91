"""The one record schema every perfbench workload writes.

A record holds the host, the workload, its seed and knobs, and every metric
with its unit, direction, number of runs, median and quartiles. run.py
builds one per invocation through `write_record`; nothing else writes
records, so the four workloads cannot drift apart.
"""

import json
import os
import platform
import re
import statistics
import subprocess

SCHEMA = "amps-perfbench/1"


def quartiles(values):
    """(q1, median, q3) of `values`, as statistics.quantiles gives them."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def metric(name, unit, better, samples):
    """One metric entry: its runs' median and quartiles."""
    q1, med, q3 = quartiles(samples)
    return {"name": name, "unit": unit, "better": better,
            "runs": len(samples), "median": med, "q1": q1, "q3": q3}


def _cmake_cache(build_dir, key):
    try:
        with open(os.path.join(build_dir, "CMakeCache.txt")) as f:
            for line in f:
                m = re.match(re.escape(key) + r":\w+=(.*)", line)
                if m:
                    return m.group(1).strip()
    except OSError:
        pass
    return "unknown"


def _first_line(cmd, cwd):
    try:
        out = subprocess.run(cmd, cwd=cwd, capture_output=True, text=True,
                             timeout=10)
        return out.stdout.splitlines()[0].strip() if out.returncode == 0 \
            and out.stdout else "unknown"
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def host_info(root, build_dir):
    """nproc, CPU model, build type, compiler and git sha of this run."""
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    compiler = _cmake_cache(build_dir, "CMAKE_CXX_COMPILER")
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "build_type": _cmake_cache(build_dir, "CMAKE_BUILD_TYPE"),
        "compiler": _first_line([compiler, "--version"], root)
        if compiler != "unknown" else "unknown",
        "git_sha": _first_line(["git", "rev-parse", "HEAD"], root),
    }


def write_record(path, *, workload, seed, trace, run_seconds, host, knobs,
                 metrics, extra):
    """Writes one record as JSON to `path` and returns it."""
    record = {
        "schema": SCHEMA,
        "workload": workload,
        "seed": seed,
        "trace": trace,
        "run_seconds": run_seconds,
        "host": host,
        "knobs": knobs,
        "metrics": metrics,
        **extra,
    }
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w") as f:
        json.dump(record, f, indent=2, sort_keys=False)
        f.write("\n")
    return record
