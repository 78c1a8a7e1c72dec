// Shared pieces of the host benchmark: options, the metric report, the
// span tracer that times calls into each library layer from outside,
// output checks, and small statistics helpers.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <vector>

#include "mlm/memory/memory_hierarchy.h"
#include "mlm/parallel/executor.h"
#include "mlm/support/stopwatch.h"
#include "mlm/support/trace.h"

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Tiny inputs for the benchmark's own tests.
  bool small = false;
  /// Flip one output element before every check (tests the check).
  bool corrupt = false;
  /// service_sort open-loop arrival rate in jobs per second.
  double service_rate = 0.0;
};

/// Ordered name -> (unit, value) list; one per output mode.
class Report {
 public:
  void add(const std::string& name, const std::string& unit, double value);
  void append(const Report& other);
  struct Entry {
    std::string name;
    std::string unit;
    double value;
  };
  const std::vector<Entry>& entries() const { return entries_; }

 private:
  std::vector<Entry> entries_;
};

struct Result {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  Report metrics;
};

// ---------------------------------------------------------------------
// Spans.  Every span carries the layer (module) whose public function the
// benchmark called, its parent span and, on service_sort, the job id.

/// Span layers, named after the library modules.
/// The memory module is called only through the others, so it has no
/// spans; its metrics come from MemorySpace::stats().
inline constexpr const char* kLayers[] = {
    "service", "external_sort", "chunk_pipeline", "mlm_sort",
    "sort",    "parallel",      "kvstore"};

struct SpanRecord {
  std::string name;
  std::string layer;
  double start = 0.0;
  double end = 0.0;
  std::int64_t parent = -1;
  std::int64_t job = -1;
};

/// In-memory span store.  Disabled tracers record nothing; begin() then
/// returns -1 and end(-1) is a no-op, so untraced runs pay one branch.
class Tracer {
 public:
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }
  /// Traced runs alternate traced and untraced operations.
  void set_enabled(bool on) { enabled_.store(on, std::memory_order_relaxed); }
  /// Seconds since the tracer's epoch (restart() moves it).
  double now() const { return clock_.elapsed_s(); }
  /// Drop every span and restart the clock.
  void restart();

  std::int64_t begin(const std::string& layer, const std::string& name,
                     std::int64_t parent = -1, std::int64_t job = -1);
  void end(std::int64_t id);

  /// Import the events of a library TraceWriter whose clock started at
  /// `offset` on this tracer's clock.  A writer's own clock should start
  /// just before its events: TraceWriter prints 6 significant digits.
  /// `layer_of` maps an event name to a layer ("" skips the event);
  /// `parent_of` maps an event's start to its parent span.
  void import(const mlm::TraceWriter& writer, double offset, std::int64_t job,
              std::string (*layer_of)(const std::string& name),
              const std::function<std::int64_t(double)>& parent_of);

  std::vector<SpanRecord> spans() const;

 private:
  void add(SpanRecord span);

  std::atomic<bool> enabled_{false};
  mlm::Stopwatch clock_;
  mutable std::mutex mu_;
  std::vector<SpanRecord> spans_;
};

/// RAII span.
class Scope {
 public:
  Scope(Tracer& t, const std::string& layer, const std::string& name,
        std::int64_t parent = -1, std::int64_t job = -1)
      : t_(t), id_(t.enabled() ? t.begin(layer, name, parent, job) : -1) {}
  ~Scope() { t_.end(id_); }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;
  std::int64_t id() const { return id_; }

 private:
  Tracer& t_;
  std::int64_t id_;
};

/// Per-layer self times over the windows [begin, end): every instant
/// inside a window goes to the deepest span open at that instant (the
/// latest started one on ties), or to the residual when none is open.
/// The self times plus the residual therefore equal the windows' total
/// length exactly, also when spans on several threads overlap.
struct Attribution {
  std::map<std::string, double> self_s;
  double residual_s = 0.0;
  double wall_s = 0.0;
};
Attribution attribute(const std::vector<SpanRecord>& spans,
                      const std::vector<std::pair<double, double>>& windows);

/// Adds <layer>.self_s for every layer, residual.unattributed_s and
/// trace.wall_s, each divided by `ops` (per-operation figures).
void report_attribution(const Attribution& a, double ops, Report& out);

/// Sum of durations of spans whose name starts with `prefix`.
double span_total(const std::vector<SpanRecord>& spans,
                  const std::string& prefix);
std::vector<double> span_durations(const std::vector<SpanRecord>& spans,
                                   const std::string& prefix);

// ---------------------------------------------------------------------
// Output checks.

/// splitmix64 finalizer.
inline std::uint64_t mix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

/// Order-independent fingerprint of a multiset of 64-bit words: two
/// additive lanes of independent hashes.  Unlike a plain sum or xor of
/// the raw values it separates {1,2} from {0,3} and keeps duplicates.
struct Fingerprint {
  std::uint64_t a = 0;
  std::uint64_t b = 0;
  void add(std::uint64_t x) {
    a += mix64(x);
    b += mix64(x ^ 0x5bd1e9955bd1e995ULL);
  }
  void merge(const Fingerprint& o) {
    a += o.a;
    b += o.b;
  }
  friend bool operator==(const Fingerprint&, const Fingerprint&) = default;
};

/// Fingerprint of `bytes` bytes read as 64-bit words in groups of
/// `record_words`: each record is hashed whole, so permuting records
/// keeps the fingerprint while moving a word between records changes it.
Fingerprint fingerprint(mlm::Executor& pool, const void* data,
                        std::size_t records, std::size_t record_words);

/// Whether the records (key = first word, unsigned) ascend by key.
bool keys_ascending(mlm::Executor& pool, const void* data,
                    std::size_t records, std::size_t record_words,
                    bool signed_keys);

// ---------------------------------------------------------------------
// Statistics and process facts.

double median(std::vector<double> v);
/// Linear-interpolated percentile, p in [0, 100].
double pct(std::vector<double> v, double p);
/// Peak resident set of this process in MiB.
double peak_rss_mib();

/// Memory-layer metrics of a hierarchy: high-water bytes per tier name
/// and the lifetime allocation count across tiers.
void report_memory(const mlm::MemoryHierarchy& hier, Report& out);

/// Host Table 2 ceilings and kernel rates, measured at the given sizes
/// in this process (see ceilings.cpp).
struct KernelSizes {
  std::size_t serial_sort_elements;  ///< one thread's chunk
  std::size_t merge_run_elements;    ///< per run, k = 4 and k = 8 merges
  std::size_t record_elements;       ///< per run of the Record64 merge
  std::size_t two_run_elements;      ///< per run of merge_two_runs
  std::size_t ceiling_bytes;         ///< total footprint of the copy arrays
};
void measure_ceilings(const KernelSizes& sizes, std::uint64_t seed,
                      Report& out);

// Workloads.
Result run_flat_sort(const Options& opt);
Result run_service_sort(const Options& opt);
Result run_pipeline_stream(const Options& opt);
Result run_kv_zipf(const Options& opt);

/// Build a workload's environment from nothing `reps` times (once when
/// traced), timing each build; `env` keeps the last one.  `build`
/// returns a new environment after running its first, cold operation.
/// setup_s is the median of the returned times.
template <typename Env, typename Build>
std::vector<double> time_setups(const Options& opt, int reps,
                                std::unique_ptr<Env>& env, Build&& build) {
  std::vector<double> seconds;
  for (int rep = 0; rep < (opt.trace ? 1 : reps); ++rep) {
    env.reset();
    mlm::Stopwatch clock;
    env = build();
    seconds.push_back(clock.elapsed_s());
  }
  return seconds;
}

/// The end-to-end metrics, robust to a host that slows some operations
/// (interference only adds time): throughput_mb_s is the best
/// operation's (min-of-N time); latency_p50_s and latency_p90_s are the
/// smallest, over the groups of `latency`, of each group's own
/// percentile; peak_rss_mb; setup_s is the median of `setups`.  The
/// per-operation figures go to standard error.
void report_end_to_end(const std::vector<double>& throughput,
                       const std::vector<std::vector<double>>& latency,
                       const std::vector<double>& setups, Report& out);

/// Timed windows {start, end} on the tracer's clock.
using Windows = std::vector<std::pair<double, double>>;

/// Operation times of a measurement loop.  Untraced runs fill only
/// `untraced`; traced runs alternate an untraced and a traced operation,
/// so both lists describe the same process state and the tracing
/// overhead is their ratio.
struct Loop {
  std::vector<double> untraced;
  std::vector<double> traced;
  Windows windows;  ///< timed windows of the traced operations
};

/// Run `op(traced)` -- which returns the windows it timed; the operation's
/// time is their total length -- until `opt.seconds` have passed and at
/// least `min_ops` operations (per list) are done.
template <typename Op>
Loop measure_loop(const Options& opt, Tracer& tracer, std::size_t min_ops,
                  Op&& op) {
  Loop loop;
  mlm::Stopwatch clock;
  for (std::size_t i = 0;; ++i) {
    const bool traced = opt.trace && i % 2 == 1;
    tracer.set_enabled(traced);
    const Windows timed = op(traced);
    double seconds = 0.0;
    for (const auto& [t0, t1] : timed) seconds += t1 - t0;
    (traced ? loop.traced : loop.untraced).push_back(seconds);
    if (traced) {
      loop.windows.insert(loop.windows.end(), timed.begin(), timed.end());
    }
    const std::size_t done =
        opt.trace ? std::min(loop.traced.size(), loop.untraced.size())
                  : loop.untraced.size();
    if (done >= min_ops && clock.elapsed_s() >= opt.seconds) break;
  }
  tracer.set_enabled(false);
  return loop;
}

/// trace.untraced_op_s, trace.traced_op_s and trace.overhead_frac.
void report_overhead(const Loop& loop, Report& out);

}  // namespace perfbench
