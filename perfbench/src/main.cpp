// perfbench: the host benchmark.  Runs one named workload, checks every
// output, and prints one JSON line:
//
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
//
// Untraced runs (--trace 0) report the end-to-end metrics; traced runs
// (--trace 1) report the per-layer metrics: span self times, the library's
// own stats blocks and the host ceilings measured in the same process.
//
//   perfbench --workload flat_sort --seed 1 --seconds 10 --trace 0
//             [--service-rate JOBS_PER_S] [--small] [--corrupt]
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <string>

#include "bench.h"
#include "mlm/support/error.h"

namespace {

[[noreturn]] void usage(const std::string& why) {
  std::cerr << "perfbench: " << why
            << "\nusage: perfbench --workload NAME --seed N --seconds S "
               "--trace 0|1 [--service-rate R] [--small] [--corrupt]\n";
  std::exit(2);
}

perfbench::Options parse(int argc, char** argv) {
  perfbench::Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) usage("missing value for " + arg);
      return argv[++i];
    };
    try {
      if (arg == "--workload") {
        opt.workload = value();
      } else if (arg == "--seed") {
        opt.seed = std::stoull(value());
      } else if (arg == "--seconds") {
        opt.seconds = std::stod(value());
      } else if (arg == "--trace") {
        opt.trace = std::stoi(value()) != 0;
      } else if (arg == "--service-rate") {
        opt.service_rate = std::stod(value());
      } else if (arg == "--small") {
        opt.small = true;
      } else if (arg == "--corrupt") {
        opt.corrupt = true;
      } else {
        usage("unknown argument " + arg);
      }
    } catch (const std::logic_error&) {
      usage("bad value for " + arg);
    }
  }
  if (opt.workload.empty()) usage("--workload is required");
  return opt;
}

}  // namespace

int main(int argc, char** argv) {
  const perfbench::Options opt = parse(argc, argv);
  perfbench::Result r;
  try {
    if (opt.workload == "flat_sort") {
      r = perfbench::run_flat_sort(opt);
    } else if (opt.workload == "service_sort") {
      r = perfbench::run_service_sort(opt);
    } else if (opt.workload == "pipeline_stream") {
      r = perfbench::run_pipeline_stream(opt);
    } else if (opt.workload == "kv_zipf") {
      r = perfbench::run_kv_zipf(opt);
    } else {
      usage("unknown workload " + opt.workload);
    }
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << opt.workload << ": " << e.what() << "\n";
    return 1;
  }

  std::string json = "{\"correct\": ";
  json += r.failed == 0 ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(r.attempted);
  json += ", \"failed\": " + std::to_string(r.failed);
  json += ", \"metrics\": {";
  bool first = true;
  for (const perfbench::Report::Entry& e : r.metrics.entries()) {
    char num[64];
    std::snprintf(num, sizeof(num), "%.17g", e.value);
    json += first ? "" : ", ";
    json += "\"" + e.name + "\": {\"value\": " + num + ", \"unit\": \"" +
            e.unit + "\"}";
    first = false;
  }
  json += "}}";
  std::cout << json << std::endl;
  return 0;
}
