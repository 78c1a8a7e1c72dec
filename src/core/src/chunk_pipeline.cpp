#include "mlm/core/chunk_pipeline.h"

#include <algorithm>
#include <future>
#include <optional>

#include "mlm/core/pipeline_validator.h"
#include "mlm/fault/fault.h"
#include "mlm/memory/memory_space.h"
#include "mlm/parallel/deterministic_executor.h"
#include "mlm/parallel/first_touch.h"
#include "mlm/parallel/parallel_memcpy.h"
#include "mlm/parallel/thread_pool.h"
#include "mlm/support/error.h"
#include "mlm/support/step_plan.h"
#include "mlm/support/stopwatch.h"

namespace mlm::core {

const char* to_string(Buffering buffering) {
  switch (buffering) {
    case Buffering::Single: return "single";
    case Buffering::Double: return "double";
    case Buffering::Triple: return "triple";
  }
  return "?";
}

std::size_t buffer_count(Buffering buffering) {
  switch (buffering) {
    case Buffering::Single: return 1;
    case Buffering::Double: return 2;
    case Buffering::Triple: return 3;
  }
  return 3;
}

void PipelineStats::merge(const PipelineStats& other) {
  chunks += other.chunks;
  steps += other.steps;
  total_seconds += other.total_seconds;
  step_seconds.insert(step_seconds.end(), other.step_seconds.begin(),
                      other.step_seconds.end());
  bytes_copied_in += other.bytes_copied_in;
  bytes_copied_out += other.bytes_copied_out;
  copy_in_seconds += other.copy_in_seconds;
  compute_seconds += other.compute_seconds;
  copy_out_seconds += other.copy_out_seconds;
  retries += other.retries;
  chunk_halvings += other.chunk_halvings;
  tier_fallbacks += other.tier_fallbacks;
  degradations.insert(degradations.end(), other.degradations.begin(),
                      other.degradations.end());
  adaptation.merge(other.adaptation);
}

namespace {

// Static sites for the pipeline failure classes that are not stage
// launches (mlm/fault/fault.h; the stage sites live in the recovery
// ladder's guard).  A query is a single relaxed atomic load unless a
// plan is installed.
fault::FaultSite& buffer_alloc_fault_site() {
  static fault::FaultSite site(fault::sites::kPipelineBufferAlloc);
  return site;
}
fault::FaultSite& skip_copy_out_wait_site() {
  static fault::FaultSite site(fault::sites::kPipelineSkipCopyOutWait);
  return site;
}

}  // namespace

/// All state of one resumable pipeline run.  The former run-to-completion
/// function body, with its closure captures promoted to members so that a
/// scheduler can execute the barrier steps one at a time.
struct ChunkPipelineStepper::Impl {
  TierPair tiers;
  std::span<std::byte> data;
  PipelineConfig config;
  ComputeFn compute;
  TraceSink trace;  ///< stage clock and span emitter
  PipelineValidator* validator;
  std::size_t bufs;
  bool explicit_copies;
  std::string near_name;

  std::size_t chunk_bytes = 0;
  std::size_t num_chunks = 0;
  /// Implicit/DDR-only mode, or rung 3 of the recovery ladder: chunks
  /// are processed in place by the compute pool, no copies.
  bool in_place = false;
  /// The barrier schedule: depth `bufs`, or 1 in place.
  StepPlan plan;

  // Buffers are declared before the pools so that on any exit the pools
  // drain (or, deterministically, drop) their pending slices while the
  // buffers are still alive.
  std::vector<Allocation> buffers;
  std::unique_ptr<Executor> inplace_pool;
  std::optional<TriplePools> pools;

  PipelineStats stats;
  /// Deterministic runs never back off: schedule exploration must stay a
  /// pure function of the seed.
  RecoveryLadder ladder{config.degrade, config.scheduler == nullptr,
                        stats.degradations, stats.retries,
                        &stats.chunk_halvings, &stats.tier_fallbacks};
  Stopwatch total;
  std::size_t s = 0;  ///< next step index
  bool complete = false;
  bool finished = false;

  // Snapshots of the cumulative stage counters at the previous barrier,
  // so the tuning hook sees this step's deltas only.
  double hook_ci_s = 0.0, hook_cp_s = 0.0, hook_co_s = 0.0;
  std::uint64_t hook_bi = 0, hook_bo = 0;
  std::size_t hook_degr = 0;

  Impl(const TierPair& tiers_in, std::span<std::byte> data_in,
       const PipelineConfig& config_in, ComputeFn compute_in)
      : tiers(tiers_in),
        data(data_in),
        config(config_in),
        compute(std::move(compute_in)),
        trace(config.trace, config.trace_track, config.trace_epoch),
        validator(config.validator),
        bufs(buffer_count(config.buffering)),
        explicit_copies(tiers.explicit_copies()),
        near_name(explicit_copies ? tiers.near_tier->name()
                                  : tiers.far_tier != nullptr
                                        ? tiers.far_tier->name()
                                        : std::string()) {
    MLM_REQUIRE(compute != nullptr, "compute callback required");

    if (data.empty()) {
      if (validator != nullptr) {
        validator->begin_run(0, bufs, 0, explicit_copies,
                             config.write_back);
      }
      complete = true;
      return;
    }

    // Resolve the chunk size.
    chunk_bytes = config.chunk_bytes;
    if (chunk_bytes == 0) {
      chunk_bytes = explicit_copies ? tiers.near_tier->fit_elements(bufs, 1)
                                    : MemorySpace::kNoLimit;
      if (chunk_bytes == MemorySpace::kNoLimit) chunk_bytes = data.size();
    }

    in_place = !explicit_copies || !allocate_buffers();

    num_chunks = (data.size() + chunk_bytes - 1) / chunk_bytes;
    stats.chunks = num_chunks;
    if (in_place) {
      // Implicit cache / DDR-only / rung 3: one big compute pool, no
      // copies (§3.1: "all available threads are dedicated to
      // performing the compute").  Chunks are serialized, so the
      // validator sees one virtual buffer cycled through every chunk.
      if (config.scheduler != nullptr) {
        inplace_pool = std::make_unique<DeterministicExecutor>(
            *config.scheduler, config.pools.total(), "compute");
      } else {
        inplace_pool = std::make_unique<ThreadPool>(config.pools.total(),
                                                    "compute");
      }
      plan = StepPlan(1, num_chunks, config.write_back);
      if (validator != nullptr) {
        validator->begin_run(num_chunks, 1, data.size(), false,
                             config.write_back);
      }
    } else {
      pools.emplace(config.scheduler != nullptr
                        ? TriplePools(config.pools, *config.scheduler,
                                      config.affinity)
                        : TriplePools(config.pools, config.affinity));
      if (config.first_touch) {
        // Fault the chunk buffers in from the copy-in pool — the
        // workers that will stream into them — so first-touch page
        // placement puts the pages on (a) node(s) those workers are
        // pinned to.  Value-preserving, and under a deterministic
        // scheduler just more seeded tasks.
        for (Allocation& buf : buffers) {
          first_touch(pools->copy_in(), buf.get(), buf.size_bytes());
        }
      }
      plan = StepPlan(bufs, num_chunks, config.write_back);
      if (validator != nullptr) {
        validator->begin_run(num_chunks, bufs, data.size(), true,
                             config.write_back);
      }
    }
  }

  // Flat / hybrid: allocate the chunk buffers in the near tier, walking
  // the whole recovery ladder on exhaustion (real or injected).  False
  // when rung 3 fell back: the data is then processed where it already
  // lives (the far tier) — exactly what HBW_POLICY_PREFERRED would do.
  bool allocate_buffers() {
    return ladder.run<OutOfMemoryError>(
        fault::sites::kPipelineBufferAlloc, -1,
        {.chunk = &chunk_bytes, .fall_back = true},
        [&] {
          if (buffer_alloc_fault_site().should_fire()) {
            throw OutOfMemoryError(
                "injected near-tier exhaustion at site '" +
                std::string(fault::sites::kPipelineBufferAlloc) + "'");
          }
          // A partial set is released before the ladder moves on.
          std::vector<Allocation> fresh;
          fresh.reserve(bufs);
          while (fresh.size() < bufs) {
            fresh.emplace_back(*tiers.near_tier, chunk_bytes);
          }
          buffers = std::move(fresh);
        },
        [&](Error& e, std::size_t) {
          e.with_frame(
              {"buffer_alloc", -1, near_name, "orchestrator",
               "chunk_bytes=" + std::to_string(chunk_bytes) + " buffers=" +
                   std::to_string(bufs)});
          e.with_frame({"run_chunk_pipeline", -1, near_name, "", ""});
        });
  }

  std::span<std::byte> chunk_range(std::size_t c) const {
    const std::size_t off = c * chunk_bytes;
    return data.subspan(off, std::min(chunk_bytes, data.size() - off));
  }

  void vacquire(PipelineStage st, std::size_t c) {
    if (validator != nullptr) validator->acquire(st, c, c % bufs);
  }
  void vrelease(PipelineStage st, std::size_t c) {
    if (validator != nullptr) validator->release(st, c, c % bufs);
  }

  // Task-level failures (thrown by pool workers, surfaced at the join /
  // inside compute) get annotated with the same stage context.
  void annotate(Error& e, const char* op, std::size_t c,
                const char* thread) const {
    e.with_frame({op, chunk_index(c), near_name, thread, ""});
  }
  static std::int64_t chunk_index(std::size_t c) {
    return static_cast<std::int64_t>(c);
  }

  // The orchestrating thread posts copy slices asynchronously so every
  // pool worker stays available for the slices themselves (wrapping a
  // blocking parallel_memcpy in a pool task would deadlock a 1-thread
  // pool), then drives the compute stage synchronously and joins the
  // copies at the step barrier.  Joins go through Executor::wait so a
  // DeterministicExecutor can run its tasks while the orchestrator
  // blocks.  A buffer is owned (validator-acquired) from slice posting
  // until its join.  Each stage's launch guard runs before the stage
  // acquires its buffer or posts any slice, so a retry re-attempts from
  // a clean state.
  std::vector<std::future<void>> copy_in_async(std::size_t c) {
    ladder.guard<fault::sites::kPipelineCopyIn>("copy_in", chunk_index(c),
                                                near_name);
    auto src = chunk_range(c);
    vacquire(PipelineStage::CopyIn, c);
    stats.bytes_copied_in += src.size();
    return parallel_memcpy_async(pools->copy_in(), buffers[c % bufs].get(),
                                 src.data(), src.size());
  }
  void run_compute(std::size_t c) {
    ladder.guard<fault::sites::kPipelineCompute>("compute", chunk_index(c),
                                                 near_name);
    auto r = chunk_range(c);
    const double t0 = trace.now();
    vacquire(PipelineStage::Compute, c);
    try {
      compute(std::span<std::byte>(
                  static_cast<std::byte*>(buffers[c % bufs].get()),
                  r.size()),
              pools->compute(), c);
    } catch (Error& e) {
      annotate(e, "compute", c, "pool-worker");
      throw;
    }
    vrelease(PipelineStage::Compute, c);
    stats.compute_seconds += stage_span(PipelineStage::Compute, c, t0);
  }
  std::vector<std::future<void>> copy_out_async(std::size_t c) {
    ladder.guard<fault::sites::kPipelineCopyOut>("copy_out", chunk_index(c),
                                                 near_name);
    auto dst = chunk_range(c);
    vacquire(PipelineStage::CopyOut, c);
    stats.bytes_copied_out += dst.size();
    return parallel_memcpy_async(pools->copy_out(), dst.data(),
                                 buffers[c % bufs].get(), dst.size(),
                                 config.copy_out_mode);
  }
  // Join copy stage `st` of chunk c.  Stage spans run from posting the
  // slices to their completion; under double/triple buffering that span
  // includes whatever overlapped it.
  void join(PipelineStage st, std::size_t c,
            std::vector<std::future<void>>& futures, double t0) {
    const bool in = st == PipelineStage::CopyIn;
    // The planted missed-join bug the schedule harness arms to prove
    // PipelineValidator catches buffer reuse before copy-out completes.
    if (!in && skip_copy_out_wait_site().should_fire()) return;
    try {
      (in ? pools->copy_in() : pools->copy_out()).wait(futures);
    } catch (Error& e) {
      annotate(e, in ? "copy_in" : "copy_out", c, "pool-worker");
      throw;
    }
    vrelease(st, c);
    (in ? stats.copy_in_seconds : stats.copy_out_seconds) +=
        stage_span(st, c, t0);
  }
  // Close stage st's span of chunk c: "<label><stage> c<c>" on track + st.
  double stage_span(PipelineStage st, std::size_t c, double t0) const {
    const char* name = to_string(st);
    return trace.span(t0, static_cast<std::uint32_t>(st), name, [&] {
      return config.trace_label + name + " c" + std::to_string(c);
    });
  }

  // One barrier step of the plan, posting and joining in the order the
  // deterministic schedule traces pin: depth 3 posts in(s) and out(s-2),
  // computes s-1, then joins both copies (Figure 2); depth 2 posts
  // in(s), then computes s-1 and stores it before joining the copy-in;
  // depth 1 loads, computes and stores chunk s in turn.
  void run_step(std::size_t idx) {
    Stopwatch step;
    if (in_place) {
      const double t0 = trace.now();
      if (validator != nullptr) {
        validator->acquire(PipelineStage::Compute, idx, 0);
      }
      compute(chunk_range(idx), *inplace_pool, idx);
      if (validator != nullptr) {
        validator->release(PipelineStage::Compute, idx, 0);
      }
      stats.compute_seconds += stage_span(PipelineStage::Compute, idx, t0);
    } else {
      const auto [ci, cc, co] = plan.step(idx);
      const bool in_first = plan.in_joins_before_compute();
      const bool out_last = plan.out_after_compute();
      std::vector<std::future<void>> in, out;
      const double t_in = trace.now();
      if (ci) in = copy_in_async(*ci);
      if (ci && in_first) join(PipelineStage::CopyIn, *ci, in, t_in);
      double t_out = trace.now();
      if (co && !out_last) out = copy_out_async(*co);
      if (cc) run_compute(*cc);
      if (co && out_last) {
        t_out = trace.now();
        out = copy_out_async(*co);
        join(PipelineStage::CopyOut, *co, out, t_out);
      }
      if (ci && !in_first) join(PipelineStage::CopyIn, *ci, in, t_in);
      if (co && !out_last) join(PipelineStage::CopyOut, *co, out, t_out);
    }
    stats.step_seconds.push_back(step.elapsed_s());
    ++stats.steps;
  }

  // The adaptive seam (mlm/core/adapt_seam.h): after a barrier step all
  // stage futures are joined, so the pools can be rebuilt safely and the
  // step's stage-time deltas are final.  The split and copy-out mode are
  // applied live; a chunk-size wish is only recorded (buffers were
  // allocated up front) so the next run can honor it.
  void apply_tuning(std::size_t idx) {
    if (!config.tuning_hook || in_place || !pools.has_value()) return;

    StepFeedback fb;
    fb.step = idx;
    fb.chunk_bytes = chunk_bytes;
    fb.pools = pools->sizes();
    fb.copy_in_seconds = stats.copy_in_seconds - hook_ci_s;
    fb.compute_seconds = stats.compute_seconds - hook_cp_s;
    fb.copy_out_seconds = stats.copy_out_seconds - hook_co_s;
    fb.bytes_in = stats.bytes_copied_in - hook_bi;
    fb.bytes_out = stats.bytes_copied_out - hook_bo;
    fb.new_degradations = stats.degradations.size() - hook_degr;
    fb.write_back = config.write_back;
    hook_ci_s = stats.copy_in_seconds;
    hook_cp_s = stats.compute_seconds;
    hook_co_s = stats.copy_out_seconds;
    hook_bi = stats.bytes_copied_in;
    hook_bo = stats.bytes_copied_out;
    hook_degr = stats.degradations.size();

    const StepTuning tuning = config.tuning_hook(fb);
    ++stats.adaptation.decisions;

    if (tuning.copy_threads != 0) {
      PoolSizes sizes = pools->sizes();
      const std::size_t compute_threads = tuning.compute_threads != 0
                                              ? tuning.compute_threads
                                              : sizes.compute;
      if (tuning.copy_threads != sizes.copy_in ||
          tuning.copy_threads != sizes.copy_out ||
          compute_threads != sizes.compute) {
        sizes.copy_in = tuning.copy_threads;
        sizes.copy_out = tuning.copy_threads;
        sizes.compute = compute_threads;
        pools->resize(sizes);
        ++stats.adaptation.split_changes;
      }
    }
    if (tuning.set_copy_out_mode &&
        tuning.copy_out_mode != config.copy_out_mode) {
      config.copy_out_mode = tuning.copy_out_mode;
      ++stats.adaptation.mode_changes;
    }
    if (tuning.chunk_bytes != 0 && tuning.chunk_bytes != chunk_bytes) {
      stats.adaptation.desired_chunk_bytes = tuning.chunk_bytes;
    }
    stats.adaptation.final_copy_threads = pools->sizes().copy_in;
    stats.adaptation.final_compute_threads = pools->sizes().compute;
  }

  void add_run_frame(Error& e) const {
    e.with_frame({"run_chunk_pipeline", -1, near_name, "",
                  std::string(to_string(config.buffering)) +
                      " buffering, chunk_bytes=" +
                      std::to_string(chunk_bytes)});
  }
};

ChunkPipelineStepper::ChunkPipelineStepper(const TierPair& tiers,
                                           std::span<std::byte> data,
                                           const PipelineConfig& config,
                                           ComputeFn compute)
    : impl_(std::make_unique<Impl>(tiers, data, config,
                                   std::move(compute))) {}

ChunkPipelineStepper::~ChunkPipelineStepper() = default;

bool ChunkPipelineStepper::done() const { return impl_->complete; }

std::size_t ChunkPipelineStepper::chunks() const {
  return impl_->num_chunks;
}

std::size_t ChunkPipelineStepper::completed_chunks() const {
  return impl_->plan.retired(impl_->s);
}

std::size_t ChunkPipelineStepper::chunk_bytes() const {
  return impl_->chunk_bytes;
}

bool ChunkPipelineStepper::step() {
  Impl& im = *impl_;
  if (im.complete) return false;
  try {
    if (im.s < im.plan.steps()) {
      im.run_step(im.s);
      im.apply_tuning(im.s);
      ++im.s;
    }
  } catch (Error& e) {
    im.complete = true;
    if (!im.in_place) im.add_run_frame(e);
    throw;
  }
  if (im.s >= im.plan.steps()) im.complete = true;
  return !im.complete;
}

PipelineStats ChunkPipelineStepper::finish() {
  Impl& im = *impl_;
  MLM_CHECK_MSG(im.complete, "finish() before the run completed");
  MLM_CHECK_MSG(!im.finished, "finish() called twice");
  im.finished = true;
  im.stats.total_seconds = im.total.elapsed_s();
  if (im.validator != nullptr) {
    try {
      im.validator->end_run(im.stats);
    } catch (Error& e) {
      if (!im.in_place) im.add_run_frame(e);
      throw;
    }
  }
  return im.stats;
}

PipelineStats run_chunk_pipeline(const TierPair& tiers,
                                 std::span<std::byte> data,
                                 const PipelineConfig& config,
                                 const ComputeFn& compute) {
  ChunkPipelineStepper stepper(tiers, data, config, compute);
  while (stepper.step()) {
  }
  return stepper.finish();
}

TieredPipelineStats run_tiered_pipeline(MemoryHierarchy& hierarchy,
                                        std::span<std::byte> data,
                                        const TieredPipelineConfig& config,
                                        const ComputeFn& compute) {
  MLM_REQUIRE(compute != nullptr, "compute callback required");
  MLM_REQUIRE(hierarchy.tier_count() >= 2,
              "tiered pipeline needs at least two tiers");
  const std::size_t levels = hierarchy.pair_count();

  TieredPipelineStats stats;
  stats.levels.resize(levels);

  std::vector<PipelineConfig> cfgs(levels);
  for (std::size_t l = 0; l < levels && l < config.levels.size(); ++l) {
    cfgs[l] = config.levels[l];
  }
  if (config.scheduler != nullptr) {
    for (PipelineConfig& cfg : cfgs) cfg.scheduler = config.scheduler;
  }
  Stopwatch epoch;
  if (config.trace != nullptr) {
    for (std::size_t l = 0; l < levels; ++l) {
      PipelineConfig& cfg = cfgs[l];
      cfg.trace = config.trace;
      cfg.trace_track = static_cast<std::uint32_t>(3 * l);
      cfg.trace_epoch = &epoch;
      cfg.trace_label = "L" + std::to_string(l) + " ";
      // Name the three stage tracks after the tier pair they move
      // data between, e.g. "L0 nvm->ddr copy-in".
      const std::string& near = hierarchy.tier_config(l + 1).name;
      const std::string pair_name =
          hierarchy.tier_config(l).name + "->" + near;
      const std::string names[] = {pair_name + " copy-in",
                                   near + " compute", pair_name + " copy-out"};
      for (std::uint32_t st = 0; st < 3; ++st) {
        config.trace->set_track_name(cfg.trace_track + st,
                                     cfg.trace_label + names[st]);
      }
    }
  }

  std::function<void(std::size_t, std::span<std::byte>)> run_level =
      [&](std::size_t level, std::span<std::byte> span) {
        ComputeFn stage;
        if (level + 1 < levels) {
          // A failure in a nested level is annotated with the outer
          // chunk that was being streamed when it happened, so a tiered
          // error chain reads outermost-context-last.
          stage = [&run_level, &hierarchy, level](
                      std::span<std::byte> chunk, Executor&,
                      std::size_t outer_chunk) {
            try {
              run_level(level + 1, chunk);
            } catch (Error& e) {
              e.with_frame({"tiered_level_" + std::to_string(level + 1),
                            static_cast<std::int64_t>(outer_chunk),
                            hierarchy.tier_config(level + 1).name, "", ""});
              throw;
            }
          };
        } else {
          stage = compute;
        }
        stats.levels[level].merge(
            run_chunk_pipeline(hierarchy.pair(level), span, cfgs[level],
                               stage));
      };
  run_level(0, data);
  stats.total_seconds = epoch.elapsed_s();
  return stats;
}

}  // namespace mlm::core
