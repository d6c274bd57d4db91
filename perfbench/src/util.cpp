#include "util.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iostream>

#include "common/stats.hpp"

namespace perfbench {

int SpanRecorder::open(std::string name, int parent) {
  const double t = now();
  spans_.push_back(Span{std::move(name), t, t, parent});
  return static_cast<int>(spans_.size()) - 1;
}

void SpanRecorder::close(int id) {
  spans_[static_cast<std::size_t>(id)].end = now();
}

double SpanRecorder::total(std::string_view name) const {
  double sum = 0.0;
  for (const Span& s : spans_)
    if (s.name == name) sum += s.end - s.start;
  return sum;
}

double percentile(std::vector<double> values, double pct) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = pct / 100.0 * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

std::optional<std::uint64_t> registry_counter(std::string_view name) {
  for (const auto& c : amps::stats::Registry::instance().counters())
    if (c.name == name) return c.value;
  return std::nullopt;
}

double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0)
      return std::stod(line.substr(6)) / 1024.0;  // kB -> MB
  }
  return 0.0;
}

double cpu_seconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  const auto tv = [](const timeval& t) {
    return static_cast<double>(t.tv_sec) +
           static_cast<double>(t.tv_usec) * 1e-6;
  };
  return tv(ru.ru_utime) + tv(ru.ru_stime);
}

double process_cpu_seconds(int pid) {
  namespace fs = std::filesystem;
  double ns = 0.0;
  std::error_code ec;
  const fs::path tasks = "/proc/" + std::to_string(pid) + "/task";
  for (const auto& task : fs::directory_iterator(tasks, ec)) {
    std::ifstream stat(task.path() / "schedstat");
    double run_ns = 0.0;
    if (stat >> run_ns) ns += run_ns;
  }
  return ns * 1e-9;
}

void Digest::add(std::string_view s) {
  for (const char c : s) {
    h_ ^= static_cast<unsigned char>(c);
    h_ *= 0x100000001b3ULL;
  }
  h_ ^= 0xff;  // separator, so ("ab","c") != ("a","bc")
  h_ *= 0x100000001b3ULL;
}

void Digest::add_number(double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  add(buf);
}

std::string Digest::hex() const {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(h_));
  return buf;
}

void emit(const Json& doc) { std::cout << doc.dump() << std::endl; }

Json to_array(const std::vector<double>& values) {
  Json arr = Json::array();
  for (const double v : values) arr.push_back(Json(v));
  return arr;
}

}  // namespace perfbench
