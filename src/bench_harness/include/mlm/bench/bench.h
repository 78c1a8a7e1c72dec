// Unified benchmark harness: BenchRegistry/BenchCase with a uniform CLI
// and machine-readable perf artifacts.
//
// Every bench binary registers its measurements as named cases grouped
// into suites; the harness runs them under one repetition/warmup/seed
// protocol and emits a stable JSON artifact (mlm/bench/report.h) that
// tools/bench_compare diffs against a checked-in baseline in CI.  The
// paper-style comparison tables the binaries have always printed remain,
// but as *views* rendered from the recorded results rather than ad-hoc
// interleaved printing — so the numbers in the tables and the numbers in
// the artifact cannot drift apart.
//
// Metric kinds:
//  - Deterministic: knlsim model outputs, traffic counters, chunk
//    counts.  Identical run-to-run and machine-to-machine; compared
//    exactly by bench_compare.
//  - WallClock: real timings measured on this host via ctx.measure()
//    (warmup runs discarded, `repetitions` samples kept).  Compared with
//    a relative threshold.
//  - Counter: machine-dependent hardware or system counts (LLC misses,
//    pinned-thread tallies, NUMA node totals).  Recorded for inspection
//    only; bench_compare skips them unconditionally, so they can never
//    gate CI even under --require-all.
//
// Uniform CLI (plus any per-suite flags): --repetitions, --warmup,
// --seed, --smoke, --json=PATH, --csv=PATH, --filter=SUBSTR, --list,
// --quiet.
#pragma once

#include <cstdint>
#include <functional>
#include <iosfwd>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "mlm/memory/memory_hierarchy.h"
#include "mlm/support/cli.h"
#include "mlm/support/stats.h"
#include "mlm/support/stopwatch.h"

namespace mlm::bench {

enum class MetricKind : std::uint8_t {
  Deterministic,  ///< model/simulator output; exact-compared
  WallClock,      ///< host timing; threshold-compared
  Counter,        ///< machine-dependent hardware/system count; never compared
};

const char* to_string(MetricKind kind);

/// One recorded measurement of a case.  Deterministic metrics carry a
/// single sample; wall-clock metrics carry `repetitions` samples.
struct Metric {
  std::string name;
  std::string unit;
  MetricKind kind = MetricKind::Deterministic;
  std::vector<double> samples;

  SampleSummary summary() const { return summarize(samples); }
  /// The value compare tools look at: the sample for deterministic
  /// metrics, the mean for wall-clock metrics.
  double value() const;
};

/// The result of running one registered case.
struct CaseResult {
  std::string name;   ///< "<suite>/<case>"
  std::string suite;
  std::vector<std::pair<std::string, std::string>> params;
  std::vector<Metric> metrics;

  const Metric* find_metric(const std::string& name) const;
  const std::string* find_param(const std::string& key) const;
};

struct HarnessOptions {
  std::uint64_t repetitions = 3;
  std::uint64_t warmup = 1;
  std::uint64_t seed = 42;
  bool smoke = false;
  bool list = false;
  bool quiet = false;
  bool perf_counters = false;  ///< enable hardware perf-event counters
  std::string json_path;
  std::string csv_path;
  std::string filter;
};

/// Everything a finished run knows: the options it ran under and each
/// case's recorded result, in execution order.
struct RunReport {
  std::string tool;
  std::string machine_name;
  std::vector<TierConfig> machine_tiers;
  HarnessOptions options;
  std::vector<CaseResult> cases;

  const CaseResult* find(const std::string& case_name) const;
  /// Compare-value of `metric` in `case_name`; throws on a miss.
  double value(const std::string& case_name,
               const std::string& metric) const;
};

/// Handed to each case while it runs: records params and metrics, and
/// exposes the run protocol (smoke scale, repetitions, seed).
class BenchContext {
 public:
  BenchContext(const HarnessOptions& opts, CaseResult& result)
      : opts_(opts), result_(result) {}

  bool smoke() const { return opts_.smoke; }
  /// True when the user passed --perf-counters; cases gate hardware
  /// counter collection (mlm/bench/perf_counters.h) on this.
  bool perf_counters() const { return opts_.perf_counters; }
  std::uint64_t seed() const { return opts_.seed; }
  std::size_t repetitions() const {
    return static_cast<std::size_t>(opts_.repetitions);
  }
  std::size_t warmup() const {
    return static_cast<std::size_t>(opts_.warmup);
  }
  /// `full` normally, `small` under --smoke: the standard size shrink
  /// for host-measured cases.
  std::uint64_t scaled(std::uint64_t full, std::uint64_t small) const {
    return opts_.smoke ? small : full;
  }

  void param(const std::string& key, const std::string& value);
  void param(const std::string& key, const char* value);
  void param(const std::string& key, std::uint64_t value);
  void param(const std::string& key, double value);

  /// Record a deterministic single-sample metric.
  void metric(const std::string& name, double value,
              const std::string& unit = "");
  /// Record a wall-clock metric from pre-collected samples.
  void wall_metric(const std::string& name, std::vector<double> samples,
                   const std::string& unit = "s");
  /// Record a machine-dependent counter metric (never gated in CI).
  void counter(const std::string& name, double value,
               const std::string& unit = "");
  /// Time `fn` under the run protocol: `warmup()` discarded runs, then
  /// `repetitions()` timed runs recorded as a wall-clock metric.
  template <typename Fn>
  void measure(const std::string& name, Fn&& fn) {
    measure(name, [] {}, fn);
  }
  /// measure() with `reset` run untimed before every run, warmups
  /// included: restoring a sort's input stays out of the samples.
  template <typename Reset, typename Fn>
  void measure(const std::string& name, Reset&& reset, Fn&& fn) {
    for (std::size_t i = 0; i < warmup(); ++i) {
      reset();
      fn();
    }
    std::vector<double> samples;
    samples.reserve(repetitions());
    for (std::size_t i = 0; i < repetitions(); ++i) {
      reset();
      Stopwatch sw;
      fn();
      samples.push_back(sw.elapsed_s());
    }
    wall_metric(name, std::move(samples));
  }

 private:
  void add_metric(const std::string& name, MetricKind kind,
                  std::vector<double> samples, const std::string& unit);

  const HarnessOptions& opts_;
  CaseResult& result_;
};

using BenchFn = std::function<void(BenchContext&)>;
using ViewFn = std::function<void(const RunReport&, std::ostream&)>;

class Harness;

/// One suite: a named group of cases plus an optional table view.
/// Obtained from Harness::suite(); add_case/set_view/cli record into the
/// owning harness.
class Suite {
 public:
  const std::string& name() const { return name_; }
  /// Register a case as "<suite>/<case_name>"; names must be unique.
  void add_case(const std::string& case_name, BenchFn fn);
  /// Printed after the suite's cases ran (skipped under --quiet).
  void set_view(ViewFn view);
  /// The harness CLI, for per-suite tunable flags.
  CliParser& cli();

 private:
  friend class Harness;
  Suite(Harness& harness, std::string name) noexcept
      : harness_(harness), name_(std::move(name)) {}

  Harness& harness_;
  std::string name_;
};

/// Registry + runner.  A bench binary builds one Harness, registers one
/// or more suites into it, and returns run()'s exit code from main.
class Harness {
 public:
  Harness(std::string tool, std::string description);

  CliParser& cli() { return cli_; }

  /// Machine description recorded in the artifact (defaults to the
  /// paper's KNL 7250 two-tier list if never called).
  void set_machine(std::string name, std::vector<TierConfig> tiers);

  /// Start (or continue) registering a suite.
  Suite suite(const std::string& name, const std::string& description);

  /// Parse argv, run all registered cases matching --filter, print
  /// suite views, write artifacts.  Returns a process exit code.
  int run(int argc, const char* const* argv);

  /// Valid after run(): every case result in execution order.
  const RunReport& report() const { return report_; }

  std::size_t case_count() const { return cases_.size(); }

 private:
  friend class Suite;
  struct Registered {
    std::string name;  // full "<suite>/<case>"
    std::string suite;
    BenchFn fn;
  };
  struct SuiteInfo {
    std::string name;
    std::string description;
    ViewFn view;
  };

  void add_case(const std::string& suite, const std::string& case_name,
                BenchFn fn);
  void set_view(const std::string& suite, ViewFn view);

  std::string tool_;
  CliParser cli_;
  HarnessOptions opts_;
  std::vector<Registered> cases_;
  std::vector<SuiteInfo> suites_;
  RunReport report_;
};

}  // namespace mlm::bench
