// pipeline_stream: the paper's Section 5 merge streaming benchmark --
// triple buffering, 1 copy-in, 1 copy-out and 2 compute threads, one
// merge per chunk -- streamed over a DDR array larger than the
// last-level cache, several passes per operation.  The input is rewritten
// before every pass (outside its timed window), so every pass merges
// unsorted halves and its output can be checked.  It is copy-bound: the
// pipeline's stages, barriers and streaming copies do the work and the
// serial sort does none.
//
// The stepper is driven directly (rather than through run_merge_bench)
// so each barrier step and each compute call can be timed from outside;
// the compute callback is run_merge_bench's: every compute thread
// merges the two halves of its portion of the chunk through near-tier
// scratch.
#include <algorithm>
#include <atomic>
#include <memory>

#include "bench.h"
#include "mlm/core/chunk_pipeline.h"
#include "mlm/memory/dual_space.h"
#include "mlm/parallel/parallel_for.h"
#include "mlm/parallel/thread_pool.h"
#include "mlm/support/units.h"

namespace perfbench {

namespace {

constexpr std::size_t kComputeThreads = 2;
constexpr std::size_t kCheckThreads = 4;

struct Sizes {
  std::size_t elements;
  std::size_t chunk_elements;
  std::size_t passes;  ///< per operation
};

Sizes sizes(bool small) {
  if (small) return {std::size_t{1} << 18, std::size_t{1} << 14, 1};
  return {std::size_t{64} << 20, std::size_t{1} << 20, 10};
}

/// The compute threads' portions of one chunk, as the merge callback
/// splits it.
template <typename Fn>
void for_each_portion(std::size_t chunk, Fn&& fn) {
  for (std::size_t p = 0; p < kComputeThreads; ++p) {
    fn(mlm::partition_range(chunk, kComputeThreads, p));
  }
}

struct Env {
  Env(const Sizes& sz, std::uint64_t seed)
      : sz(sz),
        // Three chunk buffers plus the compute scratch, as in
        // run_merge_bench's automatic sizing.
        space(mlm::DualSpaceConfig{
            mlm::McdramMode::Flat,
            4 * sz.chunk_elements * sizeof(std::int64_t), 0.5, 0}),
        check_pool(kCheckThreads, "pipeline-check"),
        data(space.ddr(), sz.elements),
        scratch(space.mcdram(), sz.chunk_elements),
        seed(seed) {
    generate();
    input_fp = fingerprint(check_pool, data.data(), sz.elements, 1);
  }

  /// (Re)write the input: each compute portion's two halves ascend
  /// (random steps from a random base), so one merge pass sorts every
  /// portion.  A pure function of (seed, index).
  void generate() {
    std::int64_t* d = data.data();
    const std::size_t chunk = sz.chunk_elements;
    const std::size_t chunks = (sz.elements + chunk - 1) / chunk;
    mlm::parallel_for(check_pool, 0, chunks, [&](std::size_t c) {
      const std::size_t begin = c * chunk;
      const std::size_t len = std::min(chunk, sz.elements - begin);
      for_each_portion(len, [&](mlm::IndexRange r) {
        const std::size_t mid = r.begin + r.size() / 2;
        for (const mlm::IndexRange half :
             {mlm::IndexRange{r.begin, mid}, mlm::IndexRange{mid, r.end}}) {
          std::uint64_t h = mix64(seed ^ (begin + half.begin));
          auto v = static_cast<std::int64_t>(h >> 4);
          for (std::size_t i = half.begin; i < half.end; ++i) {
            h = mix64(h);
            v += static_cast<std::int64_t>(h >> 44);
            d[begin + i] = v;
          }
        }
      });
    });
  }

  /// Every portion sorted and the multiset unchanged.
  bool check() {
    const std::int64_t* d = data.data();
    const std::size_t chunk = sz.chunk_elements;
    const std::size_t chunks = (sz.elements + chunk - 1) / chunk;
    std::atomic<bool> ok{true};
    mlm::parallel_for(check_pool, 0, chunks, [&](std::size_t c) {
      const std::size_t begin = c * chunk;
      const std::size_t len = std::min(chunk, sz.elements - begin);
      for_each_portion(len, [&](mlm::IndexRange r) {
        if (!std::is_sorted(d + begin + r.begin, d + begin + r.end)) {
          ok.store(false, std::memory_order_relaxed);
        }
      });
    });
    return ok.load() &&
           fingerprint(check_pool, d, sz.elements, 1) == input_fp;
  }

  Sizes sz;
  mlm::DualSpace space;
  mlm::ThreadPool check_pool;
  mlm::SpaceBuffer<std::int64_t> data;
  mlm::SpaceBuffer<std::int64_t> scratch;
  std::uint64_t seed;
  Fingerprint input_fp;
};

struct Run {
  const Options& opt;
  Tracer& tracer;
  Result& result;
  std::vector<std::vector<double>> pass_seconds{};  ///< per operation
  mlm::core::PipelineStats traced_stats{};
  double stall_s = 0.0;

  /// One pass of the merge benchmark through the chunk pipeline.
  mlm::core::PipelineStats pass(Env& env) {
    mlm::core::PipelineConfig cfg;
    cfg.chunk_bytes = env.sz.chunk_elements * sizeof(std::int64_t);
    cfg.pools = {1, 1, kComputeThreads};
    cfg.buffering = mlm::core::Buffering::Triple;

    std::atomic<std::int64_t> step_span{-1};
    std::int64_t* scratch = env.scratch.data();
    mlm::core::ComputeFn compute = [&](std::span<std::byte> bytes,
                                       mlm::Executor& pool, std::size_t) {
      Scope s(tracer, "sort", "merge.compute", step_span.load());
      std::span<std::int64_t> chunk(
          reinterpret_cast<std::int64_t*>(bytes.data()),
          bytes.size() / sizeof(std::int64_t));
      mlm::parallel_for_ranges(pool, 0, chunk.size(), [&](mlm::IndexRange r) {
        const std::size_t mid = r.begin + r.size() / 2;
        std::int64_t* out = scratch + r.begin;
        std::merge(chunk.begin() + r.begin, chunk.begin() + mid,
                   chunk.begin() + mid, chunk.begin() + r.end, out);
        std::copy(out, out + r.size(), chunk.begin() + r.begin);
      });
    };

    Scope pass_span(tracer, "chunk_pipeline", "pipeline.pass");
    mlm::core::ChunkPipelineStepper stepper(
        env.space.tier_pair(), std::as_writable_bytes(std::span<std::int64_t>(
                                   env.data.data(), env.data.size())),
        cfg, compute);
    for (bool more = true; more;) {
      Scope step(tracer, "chunk_pipeline", "pipeline.step", pass_span.id());
      step_span.store(step.id());
      more = stepper.step();
    }
    return stepper.finish();
  }

  /// `passes` times: rewrite the input, stream one timed pass, check its
  /// output.  Returns the passes' windows.
  Windows op(Env& env, bool traced, std::size_t passes) {
    pass_seconds.emplace_back();
    Windows timed;
    for (std::size_t p = 0; p < passes; ++p) {
      env.generate();
      const double t0 = tracer.now();
      const mlm::core::PipelineStats st = pass(env);
      const double t1 = tracer.now();
      timed.emplace_back(t0, t1);
      pass_seconds.back().push_back(t1 - t0);
      if (traced) {
        double steps = 0.0;
        for (double s : st.step_seconds) steps += s;
        stall_s += steps - std::max({st.copy_in_seconds, st.compute_seconds,
                                     st.copy_out_seconds});
        traced_stats.merge(st);
      }
      if (opt.corrupt) env.data.data()[env.data.size() / 3] += 1;
      ++result.attempted;
      if (!env.check()) ++result.failed;
    }
    return timed;
  }
};

}  // namespace

Result run_pipeline_stream(const Options& opt) {
  const Sizes sz = sizes(opt.small);
  Result result;
  Tracer tracer;
  Run run{opt, tracer, result};

  Report kernels;
  if (opt.trace) {
    measure_ceilings({sz.chunk_elements / kComputeThreads,
                      sz.chunk_elements / kComputeThreads,
                      std::size_t{1} << (opt.small ? 12 : 16),
                      sz.chunk_elements / kComputeThreads / 2,
                      opt.small ? mlm::MiB(16) : mlm::MiB(1280)},
                     opt.seed, kernels);
  }

  std::unique_ptr<Env> env;
  const std::vector<double> setups = time_setups(opt, 5, env, [&] {
    auto e = std::make_unique<Env>(sz, opt.seed);
    run.op(*e, false, 1);
    return e;
  });
  run.pass_seconds.clear();
  env->space.ddr().reset_high_water();
  env->space.mcdram().reset_high_water();

  tracer.restart();
  const Loop loop = measure_loop(opt, tracer, 3, [&](bool traced) {
    return run.op(*env, traced, sz.passes);
  });

  const double mib = static_cast<double>(sz.elements * sizeof(std::int64_t) *
                                         sz.passes) /
                     static_cast<double>(mlm::MiB(1));
  Report& out = result.metrics;
  if (!opt.trace) {
    std::vector<double> tput;
    for (double s : loop.untraced) tput.push_back(mib / s);
    report_end_to_end(tput, run.pass_seconds, setups, out);
    return result;
  }

  out.append(kernels);
  const double ops = static_cast<double>(loop.traced.size());
  const mlm::core::PipelineStats& st = run.traced_stats;
  out.add("chunk_pipeline.copy_in_busy_s", "s", st.copy_in_seconds / ops);
  out.add("chunk_pipeline.compute_busy_s", "s", st.compute_seconds / ops);
  out.add("chunk_pipeline.copy_out_busy_s", "s", st.copy_out_seconds / ops);
  out.add("chunk_pipeline.stall_s", "s", run.stall_s / ops);
  out.add("chunk_pipeline.step_p50_s", "s", median(st.step_seconds));
  out.add("chunk_pipeline.chunks", "count",
          static_cast<double>(st.chunks) / ops);
  report_memory(env->space.hierarchy(), out);
  report_attribution(attribute(tracer.spans(), loop.windows), ops, out);
  report_overhead(loop, out);
  return result;
}

}  // namespace perfbench
