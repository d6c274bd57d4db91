// Shared helpers of amps_perfbench: clocks, in-memory spans, process
// counters read from /proc, registry counters read by name, and the result
// digest. Everything here is the benchmark's own code; it calls into the
// program only through the stable entry points named in perfbench/README.md.
#pragma once

#include <chrono>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "service/json.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;
using amps::service::Json;

/// Seconds between two steady-clock points.
inline double seconds(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

/// One span: a named interval the benchmark timed around a call into a
/// layer. `parent` indexes the enclosing span (-1 for a root).
struct Span {
  std::string name;
  double start = 0.0;  ///< seconds since the recorder was created
  double end = 0.0;
  int parent = -1;
};

/// Spans kept in memory for the run; not thread-safe (concurrent jobs time
/// themselves into per-index slots instead).
class SpanRecorder {
 public:
  SpanRecorder() : origin_(Clock::now()) {}

  int open(std::string name, int parent = -1);
  void close(int id);
  /// Sum of durations of spans named `name`.
  [[nodiscard]] double total(std::string_view name) const;

 private:
  [[nodiscard]] double now() const { return seconds(origin_, Clock::now()); }

  Clock::time_point origin_;
  std::vector<Span> spans_;
};

/// Percentile (0..100) of `values` by linear interpolation; 0 when empty.
double percentile(std::vector<double> values, double pct);

/// Value of a stats-registry counter, or nullopt when no counter of that
/// name exists (a counter a later version removed is reported as absent).
std::optional<std::uint64_t> registry_counter(std::string_view name);

/// Peak resident set (VmHWM) of this process in MB.
double peak_rss_mb();
/// User + system CPU seconds this process has consumed.
double cpu_seconds();
/// CPU seconds the live threads of process `pid` have run (schedstat).
double process_cpu_seconds(int pid);

/// FNV-1a over a sequence of strings (order-sensitive), as 16 hex digits.
class Digest {
 public:
  void add(std::string_view s);
  void add_number(double v);
  [[nodiscard]] std::string hex() const;

 private:
  std::uint64_t h_ = 0xcbf29ce484222325ULL;
};

/// Writes `doc` as the single result line on stdout.
void emit(const Json& doc);

/// Json array of doubles.
Json to_array(const std::vector<double>& values);

}  // namespace perfbench
