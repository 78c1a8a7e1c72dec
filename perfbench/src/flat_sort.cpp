// flat_sort: the paper's headline MLM-sort (Flat variant) on random
// int64 larger than the last-level cache, through a near tier an eighth
// of the input (8 megachunks), on 4 workers.  The serial sort and the
// merge kernels do the work; the service, the stepper and the chunk
// pipeline are bypassed.
#include <memory>

#include "bench.h"
#include "mlm/core/mlm_sort.h"
#include "mlm/memory/dual_space.h"
#include "mlm/parallel/parallel_for.h"
#include "mlm/parallel/thread_pool.h"
#include "mlm/support/units.h"

namespace perfbench {

namespace {

constexpr std::size_t kWorkers = 4;
constexpr std::size_t kMegachunks = 8;

std::string layer_of(const std::string& event) {
  return event.rfind("mega copy-in", 0) == 0 ? "parallel" : "sort";
}

/// Everything one setup builds: hierarchy, pool, input and its
/// fingerprint.
struct Env {
  Env(std::size_t n, std::uint64_t seed)
      : space(mlm::DualSpaceConfig{mlm::McdramMode::Flat,
                                   n * sizeof(std::int64_t) / kMegachunks,
                                   0.5, 0}),
        pool(kWorkers, "flat-sort"),
        data(space.ddr(), n),
        seed(seed) {
    generate();
    input_fp = fingerprint(pool, data.data(), n, 1);
  }

  /// Refill the input; a pure function of (seed, index), so every
  /// iteration sorts the same values.
  void generate() {
    std::int64_t* d = data.data();
    const std::uint64_t s = seed;
    mlm::parallel_for_ranges(pool, 0, data.size(), [d, s](mlm::IndexRange r) {
      for (std::size_t i = r.begin; i < r.end; ++i) {
        d[i] = static_cast<std::int64_t>(mix64(s * 0x2545f4914f6cdd1dULL + i));
      }
    });
  }

  mlm::DualSpace space;
  mlm::ThreadPool pool;
  mlm::SpaceBuffer<std::int64_t> data;
  std::uint64_t seed;
  Fingerprint input_fp;
};

struct Run {
  const Options& opt;
  Tracer& tracer;
  Result& result;
  std::size_t megachunks = 0;

  /// Refill, sort (the timed operation), check.  Returns the sort's
  /// window on the tracer clock.
  std::pair<double, double> sort_once(Env& env, bool traced) {
    env.generate();
    mlm::TraceWriter writer;
    mlm::Stopwatch writer_clock;
    mlm::core::MlmSortConfig cfg;
    cfg.variant = mlm::core::MlmVariant::Flat;
    if (traced) {
      cfg.trace = &writer;
      cfg.trace_epoch = &writer_clock;
    }
    mlm::core::MlmSorter<std::int64_t> sorter(env.space, env.pool, cfg);
    const std::span<std::int64_t> data(env.data.data(), env.data.size());

    const double t0 = tracer.now();
    writer_clock.restart();
    std::int64_t span = -1;
    {
      Scope s(tracer, "mlm_sort", "mlm_sort.sort");
      megachunks = sorter.sort(data).megachunks;
      span = s.id();
    }
    const double t1 = tracer.now();
    tracer.import(writer, t0, -1, layer_of,
                  [span](double) { return span; });

    if (opt.corrupt) data[data.size() / 2] ^= 1;
    ++result.attempted;
    if (!keys_ascending(env.pool, data.data(), data.size(), 1, true) ||
        !(fingerprint(env.pool, data.data(), data.size(), 1) ==
          env.input_fp)) {
      ++result.failed;
    }
    return {t0, t1};
  }
};

}  // namespace

Result run_flat_sort(const Options& opt) {
  const std::size_t n = opt.small ? std::size_t{1} << 18
                                  : std::size_t{64} << 20;
  Result result;
  Tracer tracer;
  Run run{opt, tracer, result};

  Report kernels;
  if (opt.trace) {
    measure_ceilings({n / kMegachunks / kWorkers, n / kMegachunks / 4,
                      std::size_t{1} << (opt.small ? 12 : 16),
                      std::size_t{1} << (opt.small ? 14 : 20),
                      opt.small ? mlm::MiB(16) : mlm::MiB(1280)},
                     opt.seed, kernels);
  }

  // Setup: hierarchy, pool, input, and the first (cold, page-faulting)
  // sort, timed three times from scratch (each takes about 4 s).
  std::unique_ptr<Env> env;
  const std::vector<double> setups = time_setups(opt, 3, env, [&] {
    auto e = std::make_unique<Env>(n, opt.seed);
    run.sort_once(*e, false);
    return e;
  });

  env->space.ddr().reset_high_water();
  env->space.mcdram().reset_high_water();

  tracer.restart();
  const Loop loop = measure_loop(opt, tracer, 3, [&](bool traced) {
    return Windows{run.sort_once(*env, traced)};
  });

  const double mib = static_cast<double>(n * sizeof(std::int64_t)) /
                     static_cast<double>(mlm::MiB(1));
  Report& out = result.metrics;
  if (!opt.trace) {
    std::vector<double> tput;
    for (double s : loop.untraced) tput.push_back(mib / s);
    // A few long sorts: their latency percentiles form one group.
    report_end_to_end(tput, {loop.untraced}, setups, out);
    return result;
  }

  out.append(kernels);
  const std::vector<SpanRecord> spans = tracer.spans();
  const double ops = static_cast<double>(loop.traced.size());
  out.add("mlm_sort.copy_in_s", "s", span_total(spans, "mega copy-in") / ops);
  out.add("mlm_sort.sort_merge_s", "s",
          span_total(spans, "mega sort+merge") / ops);
  out.add("mlm_sort.final_merge_s", "s", span_total(spans, "final merge") / ops);
  out.add("mlm_sort.megachunks", "count", static_cast<double>(run.megachunks));
  report_memory(env->space.hierarchy(), out);
  report_attribution(attribute(spans, loop.windows), ops, out);
  report_overhead(loop, out);
  return result;
}

}  // namespace perfbench
