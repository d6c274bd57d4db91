// amps_perfbench: the compiled half of the benchmark. perfbench/run.py runs
// it once per repetition and reads the single JSON line it prints.
//
//   amps_perfbench sweep_pair  --seed N [--trace | --setup-only]
//   amps_perfbench sweep_ncore --seed N [--trace | --setup-only]
//   amps_perfbench serve_hot   --seed N --port P --pid Q --seconds S [--trace]
//   amps_perfbench serve_mixed --seed N --port P --pid Q --seconds S [--trace]
//
// The serve modes drive an already running amps_serve (process Q) on
// 127.0.0.1:P.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <string>

#include "serve.hpp"
#include "sweep.hpp"

namespace {

int usage() {
  std::fprintf(stderr,
               "usage: amps_perfbench <sweep_pair|sweep_ncore|serve_hot|"
               "serve_mixed> --seed N [--port P --pid Q --seconds S] [--trace] "
               "[--setup-only]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage();
  const std::string mode = argv[1];
  std::uint64_t seed = 0;
  long port = -1;
  long pid = 0;
  double secs = 0.0;
  bool trace = false;
  bool setup_only = false;
  for (int i = 2; i < argc; ++i) {
    const std::string arg = argv[i];
    const bool has_value = i + 1 < argc;
    if (arg == "--seed" && has_value) {
      seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (arg == "--port" && has_value) {
      port = std::strtol(argv[++i], nullptr, 10);
    } else if (arg == "--pid" && has_value) {
      pid = std::strtol(argv[++i], nullptr, 10);
    } else if (arg == "--seconds" && has_value) {
      secs = std::strtod(argv[++i], nullptr);
    } else if (arg == "--trace") {
      trace = true;
    } else if (arg == "--setup-only") {
      setup_only = true;
    } else {
      return usage();
    }
  }
  try {
    if (mode == "sweep_pair" || mode == "sweep_ncore") {
      const perfbench::SweepOptions opt{seed, trace, setup_only};
      perfbench::emit(mode == "sweep_pair" ? perfbench::run_sweep_pair(opt)
                                           : perfbench::run_sweep_ncore(opt));
    } else if (mode == "serve_hot" || mode == "serve_mixed") {
      if (port <= 0 || port > 65535 || pid <= 0 || secs <= 0.0)
        return usage();
      perfbench::ServeOptions opt;
      opt.port = static_cast<std::uint16_t>(port);
      opt.server_pid = static_cast<int>(pid);
      opt.seed = seed;
      opt.seconds = secs;
      opt.trace = trace;
      perfbench::emit(mode == "serve_hot" ? perfbench::run_serve_hot(opt)
                                          : perfbench::run_serve_mixed(opt));
    } else {
      return usage();
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "amps_perfbench: %s\n", e.what());
    return 1;
  }
  return 0;
}
