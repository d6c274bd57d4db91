// The cold-sweep workloads (sweep_pair, sweep_ncore): one repetition each,
// returned as a flat record of raw measurements for perfbench/run.py.
#pragma once

#include <cstddef>
#include <cstdint>

#include "util.hpp"

namespace perfbench {

/// Sampled workloads per core count in the N-core sweep.
inline constexpr int kNcoreWorkloads = 12;
/// Jobs in the open-system Poisson stream.
inline constexpr std::size_t kOpenJobs = 120;

struct SweepOptions {
  std::uint64_t seed = 0;
  bool trace = false;
  bool setup_only = false;  ///< stop after set-up (extra set-up samples)
};

Json run_sweep_pair(const SweepOptions& opt);
Json run_sweep_ncore(const SweepOptions& opt);

}  // namespace perfbench
