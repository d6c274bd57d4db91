// The serving workloads (serve_hot, serve_mixed): a load generator against
// a running amps_serve, plus the post-run correctness checks and, when
// traced, an in-process replay of the same request lines.
#pragma once

#include <cstdint>

#include "util.hpp"

namespace perfbench {

/// Committed-instruction budget every served request asks for (the
/// protocol's run_length override; a sixth of the CI preset keeps a miss
/// short enough that simulation leaves the server far from saturation).
inline constexpr std::uint64_t kServeRunLength = 50'000;

// serve_hot: distinct configs (sampled pairs x 4 pair schedulers, sampled
// 4-core workloads x 2 multicore schedulers); the nominal open-loop rate
// and the budget share spent at it; and the rate ladder climbed with the
// rest of the budget.
inline constexpr int kHotPairs = 8;
inline constexpr int kHotQuads = 4;
inline constexpr double kHotNominalRps = 3000.0;
inline constexpr double kHotNominalShare = 0.6;
inline constexpr double kHotLadder[] = {2000,  3000,  4500,  6500,
                                        9000,  12000, 16000, 21000,
                                        27000, 34000, 42000, 52000};
/// A ladder step lasts this long, or long enough for this many requests.
inline constexpr double kHotStepSeconds = 0.5;
inline constexpr double kHotStepSamples = 1000;

// serve_mixed: the cold-start burst of distinct configs sent at once during
// set-up (three full batches, so the server's peak memory is set by a
// fixed amount of simultaneous simulation), the fixed open-loop rate, the
// share of first-seen requests, and the 4-core workloads added to the pool
// of distinct configs.
inline constexpr std::size_t kMixedBurst = 48;
inline constexpr double kMixedRps = 60.0;
inline constexpr double kMixedNewShare = 0.15;
inline constexpr int kMixedQuads = 40;

struct ServeOptions {
  std::uint16_t port = 0;
  int server_pid = 0;  ///< for the server's CPU time
  std::uint64_t seed = 0;
  double seconds = 0.0;  ///< measured-phase budget
  bool trace = false;
};

Json run_serve_hot(const ServeOptions& opt);
Json run_serve_mixed(const ServeOptions& opt);

}  // namespace perfbench
