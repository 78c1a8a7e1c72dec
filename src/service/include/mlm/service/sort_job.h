// SortJob: an ExternalMlmSorter run packaged as a service job.
//
// The factory adapts the resumable sorter stepper (external_sort.h) to
// the type-erased JobStepper protocol: one job step = one stage of the
// stepper's outer-chunk StepPlan (StageIn / InnerSort / StageOut per
// plan step, then Merge and MoveHome), which is exactly the suspension
// granularity the scheduler arbitrates budgets at.  A job admitted via
// the Degraded decision has no usable near-tier budget, so its inner
// sorter is switched to the DdrOnly variant before construction — the
// service-level analogue of HBW_POLICY_PREFERRED falling back to DDR.
#pragma once

#include <functional>
#include <memory>
#include <span>
#include <utility>

#include "mlm/core/external_sort.h"
#include "mlm/service/job.h"

namespace mlm::service {

/// Checkpoint kind tag (and payload version) for external-sort jobs.
inline constexpr const char* kSortCheckpointKind = "sort.external.v1";

/// Serialize a sorter checkpoint for the JobJournal.
inline Checkpoint encode_sort_checkpoint(
    const core::ExternalSortCheckpoint& c) {
  CheckpointWriter w;
  w.u64_vec(c.chunk_begins);
  w.u64(c.next_chunk);
  w.boolean(c.merge_phase);
  w.boolean(c.inner_tier_fallback);
  return Checkpoint{kSortCheckpointKind, w.take()};
}

/// Decode a sorter checkpoint; throws a structured Error on a kind
/// mismatch or a malformed payload (recovery must fail loudly, never
/// resume a wrong state).
inline core::ExternalSortCheckpoint decode_sort_checkpoint(
    const Checkpoint& ckpt) {
  MLM_REQUIRE(ckpt.kind == kSortCheckpointKind,
              "checkpoint kind '" + ckpt.kind + "' is not a " +
                  kSortCheckpointKind + " payload");
  CheckpointReader r(ckpt.payload);
  core::ExternalSortCheckpoint c;
  c.chunk_begins = r.u64_vec();
  c.next_chunk = static_cast<std::size_t>(r.u64());
  c.merge_phase = r.boolean();
  c.inner_tier_fallback = r.boolean();
  r.expect_done();
  return c;
}

template <typename T, typename Comp = std::less<>>
class SortJob : public JobStepper {
 public:
  SortJob(JobContext& ctx, std::span<T> data,
          core::ExternalSortConfig config, Comp comp)
      : sorter_(ctx.hierarchy, ctx.pool, degraded_config(config, ctx),
                comp),
        stepper_(sorter_, data) {}

  /// Recovery constructor: restore the stepper at `ckpt`'s boundary
  /// over the surviving far-tier `data` (redone steps are idempotent —
  /// see external_sort.h).
  SortJob(JobContext& ctx, std::span<T> data,
          core::ExternalSortConfig config, Comp comp,
          const core::ExternalSortCheckpoint& ckpt)
      : sorter_(ctx.hierarchy, ctx.pool, degraded_config(config, ctx),
                comp),
        stepper_(sorter_, data, ckpt) {}

  bool step() override { return stepper_.step(); }

  void finish() override { stats_ = stepper_.finish(); }

  const core::ExternalSortStats* sort_stats() const override {
    return &stats_;
  }

  std::optional<Checkpoint> checkpoint() const override {
    return encode_sort_checkpoint(stepper_.checkpoint());
  }

 private:
  static core::ExternalSortConfig degraded_config(
      core::ExternalSortConfig config, const JobContext& ctx) {
    if (ctx.degraded) config.inner.variant = core::MlmVariant::DdrOnly;
    return config;
  }

  // Declaration order is teardown order in reverse: the stepper (and
  // its staging buffers in the tenant view) dies before the sorter.
  core::ExternalMlmSorter<T, Comp> sorter_;
  typename core::ExternalMlmSorter<T, Comp>::Stepper stepper_;
  core::ExternalSortStats stats_;
};

/// JobFactory sorting `data` (which must outlive the job) with the
/// given sorter configuration.
template <typename T, typename Comp = std::less<>>
JobFactory make_sort_job(std::span<T> data,
                         core::ExternalSortConfig config, Comp comp = {}) {
  return [data, config, comp](JobContext& ctx) {
    return std::unique_ptr<JobStepper>(
        std::make_unique<SortJob<T, Comp>>(ctx, data, config, comp));
  };
}

/// Crash-recoverable form of make_sort_job: register the result under a
/// JobConfig::recovery_key in a FactoryResolver (bind one key per
/// distinct data span — the key, not the closure, survives the crash).
/// Builds the stepper fresh when `resume` is null, or restored at the
/// checkpointed boundary otherwise.
template <typename T, typename Comp = std::less<>>
RecoverableFactory make_recoverable_sort_job(std::span<T> data,
                                             core::ExternalSortConfig config,
                                             Comp comp = {}) {
  return [data, config, comp](const JobConfig&, JobContext& ctx,
                              const Checkpoint* resume) {
    if (resume == nullptr) {
      return std::unique_ptr<JobStepper>(
          std::make_unique<SortJob<T, Comp>>(ctx, data, config, comp));
    }
    return std::unique_ptr<JobStepper>(std::make_unique<SortJob<T, Comp>>(
        ctx, data, config, comp, decode_sort_checkpoint(*resume)));
  };
}

}  // namespace mlm::service
