// PipelineJob: a chunk-pipeline run packaged as a crash-recoverable
// service job.
//
// The adapter wraps ChunkPipelineStepper in the JobStepper protocol
// (one job step = one barrier step) and adds the crash-consistency
// seam: a checkpoint records the retired-chunk watermark
// (completed_chunks) plus the resolved chunk size, and recovery
// restarts a fresh pipeline over the *unretired suffix* of the data.
//
// Why the watermark is exact under the crash model: crashes happen at
// step boundaries, where every stage posted so far has been joined —
// chunks below the watermark hold final bytes in the far tier, and
// chunks above it are untouched there (their in-flight modifications
// lived in near-tier buffers that died with the process).  A
// process-level crash *mid-step* would additionally require computes to
// be idempotent at chunk granularity; DESIGN.md §10 spells out both
// contracts.  One consequence of suffix restart: the resumed run's
// compute sees chunk indices rebased to the suffix, so computes must
// derive behaviour from chunk contents, not absolute indices (or the
// registered factory must rebase them via the recorded watermark).
#pragma once

#include <cstddef>
#include <memory>
#include <optional>
#include <span>
#include <utility>

#include "mlm/core/chunk_pipeline.h"
#include "mlm/service/job.h"

namespace mlm::service {

/// Checkpoint kind tag (and payload version) for pipeline jobs.
inline constexpr const char* kPipelineCheckpointKind = "pipeline.chunks.v1";

class PipelineJob : public JobStepper {
 public:
  /// `tiers` and the span behind `data` must outlive the job.
  /// `completed` rebases a recovered run: that many leading chunks of
  /// `chunk_bytes` each are already final and are skipped.
  PipelineJob(const TierPair& tiers, std::span<std::byte> data,
              core::PipelineConfig config, core::ComputeFn compute,
              core::PipelineStats* stats_out = nullptr,
              std::size_t completed = 0, std::size_t chunk_bytes = 0)
      : base_chunks_(completed), stats_out_(stats_out) {
    if (completed != 0) {
      MLM_REQUIRE(chunk_bytes != 0,
                  "a pipeline resume needs the checkpointed chunk size");
      // By division: a hostile checkpoint's product can wrap.
      MLM_REQUIRE(completed <= data.size() / chunk_bytes,
                  "pipeline checkpoint watermark beyond the data");
      data = data.subspan(completed * chunk_bytes);
      config.chunk_bytes = chunk_bytes;
    }
    stepper_ = std::make_unique<core::ChunkPipelineStepper>(
        tiers, data, config, std::move(compute));
  }

  bool step() override { return stepper_->step(); }

  void finish() override {
    core::PipelineStats stats = stepper_->finish();
    if (stats_out_ != nullptr) *stats_out_ = std::move(stats);
  }

  std::optional<Checkpoint> checkpoint() const override {
    CheckpointWriter w;
    w.u64(stepper_->chunk_bytes());
    w.u64(base_chunks_ + stepper_->completed_chunks());
    return Checkpoint{kPipelineCheckpointKind, w.take()};
  }

 private:
  std::unique_ptr<core::ChunkPipelineStepper> stepper_;
  /// Chunks retired by previous incarnations (suffix rebase offset).
  std::size_t base_chunks_ = 0;
  core::PipelineStats* stats_out_;
};

/// Crash-recoverable pipeline-job factory: register under a
/// JobConfig::recovery_key.  Fresh when `resume` is null; otherwise the
/// run restarts over the unretired suffix named by the checkpoint.
inline RecoverableFactory make_recoverable_pipeline_job(
    const TierPair& tiers, std::span<std::byte> data,
    core::PipelineConfig config, core::ComputeFn compute,
    core::PipelineStats* stats_out = nullptr) {
  return [&tiers, data, config, compute, stats_out](
             const JobConfig&, JobContext&, const Checkpoint* resume) {
    if (resume == nullptr) {
      return std::unique_ptr<JobStepper>(std::make_unique<PipelineJob>(
          tiers, data, config, compute, stats_out));
    }
    MLM_REQUIRE(resume->kind == kPipelineCheckpointKind,
                "checkpoint kind '" + resume->kind + "' is not a " +
                    kPipelineCheckpointKind + " payload");
    CheckpointReader r(resume->payload);
    const std::size_t chunk_bytes = static_cast<std::size_t>(r.u64());
    const std::size_t completed = static_cast<std::size_t>(r.u64());
    r.expect_done();
    return std::unique_ptr<JobStepper>(std::make_unique<PipelineJob>(
        tiers, data, config, compute, stats_out, completed, chunk_bytes));
  };
}

}  // namespace mlm::service
