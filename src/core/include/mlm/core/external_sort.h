// Double-level chunking: sorting NVM-resident data larger than DDR
// (the paper's §6 extension: "now there may be double levels of
// chunking to consider").
//
// ExternalMlmSorter applies MLM-sort's recipe one level down:
//
//   1. divide the NVM-resident input into DDR-sized "outer chunks",
//   2. stage each outer chunk into DDR and sort it there with the
//      two-level MlmSorter (which itself chunks through MCDRAM — the
//      double chunking),
//   3. write each sorted run back to NVM — steps 2-3 walk a depth-1,
//      write-back StepPlan over the outer chunks, the schedule of the
//      chunk pipeline and of MlmSorter's megachunks,
//   4. finish with a block-buffered external k-way merge
//      (external_multiway_merge): the classic out-of-core merge of §2.2,
//      reading run blocks into DDR staging buffers and writing merged
//      output blocks back — parallelized by exact multisequence
//      partitioning of the output.
#pragma once

#include <algorithm>
#include <cstddef>
#include <optional>
#include <vector>

#include "mlm/core/adapt_seam.h"
#include "mlm/core/degrade.h"
#include "mlm/core/mlm_sort.h"
#include "mlm/fault/fault.h"
#include "mlm/memory/memory_hierarchy.h"
#include "mlm/parallel/parallel_for.h"
#include "mlm/parallel/parallel_memcpy.h"
#include "mlm/sort/loser_tree.h"
#include "mlm/sort/multiway_merge.h"
#include "mlm/support/error.h"
#include "mlm/support/step_plan.h"
#include "mlm/support/stopwatch.h"
#include "mlm/support/trace.h"

namespace mlm::core {

/// Block-buffered k-way merge of far-resident sorted runs into a
/// far-resident output, staging through `staging` (DDR).  Each worker
/// merges an exact slice of the output (multisequence partitioning)
/// using k block-sized input windows and one output block from staging.
///
/// `block_elements` — elements per staging block; the call needs
/// parts * (k + 1) * block_elements elements of staging capacity, where
/// parts <= pool.size() is chosen to fit.
template <typename T, typename Comp = std::less<>>
void external_multiway_merge(Executor& pool, MemorySpace& staging,
                             std::span<const mlm::sort::Run<T>> runs,
                             std::span<T> out,
                             std::size_t block_elements, Comp comp = {}) {
  MLM_REQUIRE(block_elements >= 1, "block must hold at least one element");
  const std::size_t k = runs.size();
  // Clamp the part count so every part's staging footprint — k input
  // blocks + 1 output block — fits in `staging`.  An empty merge stages
  // nothing, so it needs no staging room.
  std::size_t max_parts = pool.size();
  if (!out.empty()) {
    const std::size_t block_bytes = block_elements * sizeof(T);
    MLM_REQUIRE(staging.would_fit(block_bytes, k + 1),
                "staging space cannot hold even one part's merge blocks");
    while (!staging.would_fit(block_bytes, (k + 1) * max_parts)) --max_parts;
  }
  auto parts = mlm::sort::plan_merge_parts(runs, out.size(), max_parts, comp);

  parallel_for(pool, 0, parts.size(), [&](std::size_t p) {
    // This part's far slice of each run, consumed front to back.
    auto& far = parts[p].slices;

    // Staging blocks: k input windows + 1 output block.
    std::vector<SpaceBuffer<T>> in_blocks;
    in_blocks.reserve(k);
    for (std::size_t i = 0; i < k; ++i) {
      in_blocks.emplace_back(staging, block_elements);
    }
    SpaceBuffer<T> out_block(staging, block_elements);

    // Window state: [win_cur, win_end) inside in_blocks[i].
    std::vector<std::pair<std::size_t, std::size_t>> win(k, {0, 0});
    auto refill = [&](std::size_t i) {
      const std::size_t n = std::min(far[i].size(), block_elements);
      std::copy(far[i].begin(), far[i].begin() + n, in_blocks[i].data());
      far[i] = far[i].subspan(n);
      win[i] = {0, n};
    };
    for (std::size_t i = 0; i < k; ++i) refill(i);

    // Loser tree over the staged windows; when a window drains we
    // refill it from far memory and rebuild (refills are rare:
    // total/block_elements per part).
    T* far_out = out.data() + parts[p].out_begin;
    std::size_t out_fill = 0;
    auto flush_out = [&] {
      std::copy(out_block.data(), out_block.data() + out_fill, far_out);
      far_out += out_fill;
      out_fill = 0;
    };

    mlm::sort::LoserTree<const T*, Comp> lt(k, comp);
    auto reseat = [&] {
      for (std::size_t i = 0; i < k; ++i) {
        lt.set_run(i, in_blocks[i].data() + win[i].first,
                   in_blocks[i].data() + win[i].second);
      }
      lt.init();
    };
    reseat();
    // pop_streak extracts whole runs of elements from one staged window
    // per call (batched merge kernel); the streak boundary is exactly
    // where window-drain bookkeeping must happen, so the per-element
    // drain checks of the old loop disappear.  Full output blocks are
    // flushed eagerly, so the streak always has >= 1 element of space.
    while (!lt.empty()) {
      std::size_t src = 0;
      const std::size_t got = lt.pop_streak(
          out_block.data() + out_fill, block_elements - out_fill, src);
      out_fill += got;
      win[src].first += got;
      if (out_fill == block_elements) flush_out();
      if (win[src].first == win[src].second &&
          !far[src].empty()) {
        // Window drained but far data remains: refill and rebuild.
        refill(src);
        reseat();
      }
    }
    flush_out();
  });
}

/// Configuration of the NVM-level sorter.
struct ExternalSortConfig {
  /// Outer (NVM -> DDR) chunk in elements; 0 = as large as two DDR
  /// buffers allow (chunk + inner-sort scratch).
  std::size_t outer_chunk_elements = 0;
  /// Inner sorter configuration (two-level MLM-sort in DDR+MCDRAM).
  /// Its own trace fields route megachunk-level events to a track of the
  /// caller's choosing (the MCDRAM track in external_sort_demo).
  MlmSortConfig inner;
  /// Staging block for the final external merge; 0 = auto from DDR.
  std::size_t merge_block_elements = 0;
  /// Optional trace export: staging and merge spans (the NVM<->DDR
  /// traffic) land on `trace_track`, per-outer-chunk inner-sort spans on
  /// `trace_track + 1`.
  TraceWriter* trace = nullptr;
  std::uint32_t trace_track = 0;
  const Stopwatch* trace_epoch = nullptr;
  /// Recovery ladder (mlm/core/degrade.h): retry transient failures,
  /// halve the outer chunk when the DDR staging buffer does not fit,
  /// and fall the inner sorter back to DDR-only (no MCDRAM) when the
  /// inner sort fails — mirroring HBW_POLICY_PREFERRED.  Defaults off.
  DegradePolicy degrade;
  /// Online retuning seam (mlm/core/adapt_seam.h).  When set, the
  /// stepper reports each completed StageIn -> InnerSort -> StageOut
  /// plan step and applies the returned tuning: a chunk-size change
  /// re-chunks the *remaining* input and rebuilds the plan (the final
  /// merge handles runs of any sizes), a copy-thread change re-creates
  /// the inner sorter with the new overlap copy pool.  Null = fixed
  /// configuration.
  TuningHook tuning_hook;
};

struct ExternalSortStats {
  std::size_t outer_chunks = 0;
  std::uint64_t bytes_staged_in = 0;
  std::uint64_t bytes_staged_out = 0;
  bool external_merge_ran = false;
  MlmSortStats last_inner;

  // --- phase breakdown (comparable to knlsim's NvmSortResult) ---
  double staging_seconds = 0.0;  ///< NVM<->DDR outer-chunk copies
  double sorting_seconds = 0.0;  ///< inner (DDR+MCDRAM) sorts
  double merging_seconds = 0.0;  ///< external merge incl. moving home
  double total_seconds = 0.0;

  /// NVM traffic.  Staging contributes one read and one write per outer
  /// chunk, like the simulator; the external merge contributes
  /// 2x total bytes per direction (runs -> scratch, scratch -> home) —
  /// one read+write of the data more than the simulator's merge, which
  /// does not model the scratch-to-home move.
  std::uint64_t nvm_read_bytes = 0;
  std::uint64_t nvm_write_bytes = 0;

  /// Recovery-ladder rungs taken (mlm/core/degrade.h); all zero/empty
  /// on an undisturbed run.
  std::size_t retries = 0;
  std::size_t outer_chunk_halvings = 0;
  /// The inner sorter was recreated DDR-only after an inner-sort
  /// failure (the HBW_POLICY_PREFERRED analogue).
  bool inner_tier_fallback = false;
  std::vector<DegradationEvent> degradations;
  /// What the tuning hook did to this run (all zero without a hook).
  AdaptationStats adaptation;
};

/// Step-boundary snapshot of an ExternalMlmSorter::Stepper — the
/// crash-consistency seam the service layer's CheckpointCodec
/// serializes (mlm/service/checkpoint.h).
///
/// The snapshot names the last *safe redo point*, not the exact stage:
/// chunks [0, next_chunk) have been staged out (their NVM ranges hold
/// sorted runs), and everything from next_chunk on is redone from
/// StageIn.  Redo is idempotent because a chunk's NVM range is always a
/// permutation of itself — re-staging and re-sorting an already-sorted
/// chunk reproduces the same bytes — and because the external merge of
/// sorted runs is idempotent even over a fully merged output (slices of
/// a sorted array are themselves sorted runs).  A restored run's output
/// is therefore digest-identical to an uninterrupted one; only the
/// redone work differs.
struct ExternalSortCheckpoint {
  /// Outer-chunk layout: begin offsets plus the end sentinel
  /// (chunk_begins.back() == element count).  Captured so a restore
  /// redoes exactly the checkpointed layout even after adaptive
  /// re-chunking.
  std::vector<std::size_t> chunk_begins;
  /// First chunk to (re)do; == chunk count once all chunks staged out.
  std::size_t next_chunk = 0;
  /// Chunking finished — redo from the external merge.
  bool merge_phase = false;
  /// The inner sorter had fallen back to DdrOnly (ladder rung 3); the
  /// restored run starts there instead of re-walking the ladder.
  bool inner_tier_fallback = false;
};

/// Sorts NVM-resident data through DDR and MCDRAM with double chunking.
/// Operates on an NVM -> DDR -> MCDRAM MemoryHierarchy whose DDR tier
/// has a capacity limit: an unlimited tier gives no outer chunk size.
template <typename T, typename Comp = std::less<>>
class ExternalMlmSorter {
 public:
  ExternalMlmSorter(MemoryHierarchy& hierarchy, Executor& pool,
                    ExternalSortConfig config, Comp comp = {})
      : hier_(hierarchy), pool_(pool), config_(config), comp_(comp) {
    MLM_REQUIRE(hierarchy.tier_count() == 3,
                "external sorter needs an NVM -> DDR -> MCDRAM hierarchy");
    MLM_REQUIRE(hierarchy.tier_config(1).capacity_bytes > 0,
                "three-level setting requires a DDR capacity limit");
  }

  /// Resumable form of sort(), the unit the service-layer JobScheduler
  /// drives.  The outer chunks walk a depth-1, write-back StepPlan
  /// (mlm/support/step_plan.h), and each job step runs one stage of a
  /// plan step, so a sort job can be suspended (and its tenant budgets
  /// arbitrated) between any two stages:
  ///
  ///   plan step s: StageIn .in -> InnerSort .compute -> StageOut .out
  ///   then:        Merge -> MoveHome (skipped for a single run)
  ///
  /// Destroying a stepper mid-run cancels the sort, releasing its
  /// staging buffers; the input is then in an unspecified permutation of
  /// itself.  sort(data) is exactly
  /// `Stepper s{*this, data}; while (s.step()) {} return s.finish();`.
  class Stepper {
   public:
    Stepper(ExternalMlmSorter& sorter, std::span<T> data)
        : s_(sorter), data_(data) {
      start(nullptr);
    }

    /// Restore a stepper from a step-boundary checkpoint taken against
    /// the same `data` span (whose NVM contents must be the state the
    /// crashed run left behind — a permutation with chunks
    /// [0, next_chunk) sorted in place).  Chunks from `next_chunk` on
    /// are redone; a merge-phase checkpoint redoes the merge.  The
    /// staging-buffer allocation walks the retry rung only — halving
    /// would have to fit the checkpointed layout anyway.
    Stepper(ExternalMlmSorter& sorter, std::span<T> data,
            const ExternalSortCheckpoint& ckpt)
        : s_(sorter), data_(data) {
      start(&ckpt);
    }

    Stepper(const Stepper&) = delete;
    Stepper& operator=(const Stepper&) = delete;

    /// Snapshot the last safe redo point (valid between steps, before
    /// finish()): the plan's retirement watermark.  A stage taken inside
    /// plan step s rounds down to the chunk's StageIn — the chunk's NVM
    /// range is untouched until its StageOut completes, so redoing from
    /// StageIn is always consistent.
    ExternalSortCheckpoint checkpoint() const {
      ExternalSortCheckpoint ckpt;
      ckpt.chunk_begins.reserve(chunks_.size() + 1);
      for (const IndexRange& r : chunks_) ckpt.chunk_begins.push_back(r.begin);
      ckpt.chunk_begins.push_back(data_.size());
      ckpt.next_chunk = plan_.retired(step_);
      ckpt.merge_phase = ckpt.next_chunk == chunks_.size();
      ckpt.inner_tier_fallback = stats_.inner_tier_fallback;
      return ckpt;
    }

    /// Execute the next stage.  Returns true while more steps remain,
    /// false once the sort is complete.  Throws the same structured
    /// errors as sort(); a throwing stepper is dead.
    bool step() {
      if (done()) return false;
      try {
        run_step();
      } catch (Error& e) {
        tail_ = Tail::Done;
        add_sort_frame(e);
        throw;
      }
      return !done();
    }

    bool done() const { return tail_ == Tail::Done; }

    /// Close the run and return its statistics.  Call once, after
    /// done().
    ExternalSortStats finish() {
      MLM_CHECK_MSG(done(), "finish() before the sort completed");
      MLM_CHECK_MSG(!finished_, "finish() called twice");
      finished_ = true;
      if (!chunks_.empty()) stats_.total_seconds = total_.elapsed_s();
      return stats_;
    }

   private:
    /// What follows the plan's steps.
    enum class Tail : std::uint8_t {
      Merge,     ///< external k-way merge of all runs into NVM scratch
      MoveHome,  ///< NVM scratch -> home
      Done,
    };

    void add_sort_frame(Error& e) const {
      e.with_frame({"external_sort", -1, s_.nvm().name(), "",
                    std::to_string(data_.size()) + " elements"});
    }

    // The one start path of fresh and restored runs: chunk layout and
    // plan (resolved, or the checkpoint's), then — unless every chunk is
    // retired — the DDR staging buffer and the inner sorter, then the
    // cursor at the watermark.
    void start(const ExternalSortCheckpoint* ckpt) {
      try {
        std::size_t resume = 0;
        if (data_.size() > 1) {
          if (ckpt != nullptr) {
            resume = restore_layout(*ckpt);
          } else {
            lay_out(0, std::min(s_.resolve_outer_chunk(), data_.size()));
          }
        }
        if (resume < chunks_.size()) {
          stage_buffer(ckpt != nullptr);
          make_inner();
        }
        step_ = resume;
        if (step_ == plan_.steps()) end_plan();
      } catch (Error& e) {
        add_sort_frame(e);
        throw;
      }
    }

    /// Adopt a checkpoint's chunk layout; returns the first chunk to
    /// redo.
    std::size_t restore_layout(const ExternalSortCheckpoint& ckpt) {
      const std::vector<std::size_t>& begins = ckpt.chunk_begins;
      MLM_REQUIRE(begins.size() >= 2, "checkpoint carries no chunk layout");
      MLM_REQUIRE(begins.front() == 0 && begins.back() == data_.size(),
                  "checkpoint chunk layout does not span the input");
      std::size_t widest = 0;
      for (std::size_t i = 0; i + 1 < begins.size(); ++i) {
        MLM_REQUIRE(begins[i] < begins[i + 1],
                    "checkpoint chunk layout not monotone");
        chunks_.push_back({begins[i], begins[i + 1]});
        widest = std::max(widest, begins[i + 1] - begins[i]);
      }
      MLM_REQUIRE(ckpt.next_chunk <= chunks_.size(),
                  "checkpoint next_chunk beyond the chunk layout");
      adopt_layout(widest);
      stats_.inner_tier_fallback = ckpt.inner_tier_fallback;
      // A merge-phase checkpoint: every chunk's range holds a sorted run
      // (or the fully merged output, whose slices are also sorted runs).
      return ckpt.merge_phase ? chunks_.size() : ckpt.next_chunk;
    }

    /// Lay the input out from chunk `keep` on at `elems` elements a
    /// chunk: the fresh layout and the halving rung's (keep = 0), and
    /// the tuning hook's re-chunk of the remaining input.
    void lay_out(std::size_t keep, std::size_t elems) {
      const std::size_t begin = keep == 0 ? 0 : chunks_[keep - 1].end;
      chunks_.resize(keep);
      for (const IndexRange& r : chunk_ranges(data_.size() - begin, elems)) {
        chunks_.push_back({begin + r.begin, begin + r.end});
      }
      adopt_layout(elems);
    }

    /// The layout changed: rebuild the plan over it.  `nominal` is the
    /// outer chunk in force (elements).
    void adopt_layout(std::size_t nominal) {
      stats_.outer_chunks = chunks_.size();
      outer_elems_ = nominal;
      plan_ = StepPlan(1, chunks_.size(), true);
    }

    // Recovery rungs for the DDR staging buffer (mlm/core/degrade.h):
    // retry transient exhaustion, then — on a fresh run — halve the
    // outer chunk until it fits or hits the policy floor, and lay the
    // input out again at the size that fit.  A restore must redo the
    // checkpointed layout, so its buffer has to hold the widest chunk.
    // The buffer is a plain MemorySpace allocation, guarded by
    // memory.space.allocate; the ladder's events name their own site.
    void stage_buffer(bool restoring) {
      std::size_t elems = outer_elems_;
      ladder_.run<OutOfMemoryError>(
          "sort.external.ddr_staging", -1,
          restoring ? LadderRungs{}
                    : LadderRungs{.chunk = &elems, .unit_bytes = sizeof(T)},
          [&] { ddr_buf_.emplace(s_.ddr(), elems); },
          [&](Error& e, std::size_t) {
            e.with_frame({"ddr_staging_alloc", -1, s_.ddr().name(),
                          "orchestrator",
                          std::string(restoring ? "restore " : "") +
                              "outer_chunk_elements=" +
                              std::to_string(elems)});
          });
      if (elems != outer_elems_) lay_out(0, elems);
    }

    /// (Re)create the inner sorter, DDR-only once it has fallen back.
    void make_inner() {
      MlmSortConfig cfg = s_.config_.inner;
      if (stats_.inner_tier_fallback) cfg.variant = MlmVariant::DdrOnly;
      inner_.emplace(s_.hier_.pair(1), s_.pool_, cfg, s_.comp_);
    }

    // The adaptive seam (mlm/core/adapt_seam.h), consulted at the
    // barrier after every StageOut.  Chunk-size decisions re-chunk only
    // the *remaining* input (never past the staging buffer) and rebuild
    // the plan over it, which is output-transparent: the final k-way
    // merge consumes sorted runs of any sizes.  Copy-thread decisions
    // re-create the inner sorter so its overlap copy pool is resized at
    // the chunk boundary.
    void apply_tuning(std::size_t done_chunk) {
      if (!s_.config_.tuning_hook) return;
      const std::uint64_t bytes = chunks_[done_chunk].size() * sizeof(T);

      StepFeedback fb;
      fb.step = done_chunk;
      fb.chunk_bytes = fb.bytes_in = fb.bytes_out = bytes;
      fb.pools.copy_in = fb.pools.copy_out =
          std::max<std::size_t>(s_.config_.inner.copy_threads, 1);
      fb.pools.compute =
          s_.pool_.size() > 2 * fb.pools.copy_in
              ? s_.pool_.size() - 2 * fb.pools.copy_in
              : 1;
      fb.copy_in_seconds = chunk_in_s_;
      fb.compute_seconds = chunk_sort_s_;
      fb.copy_out_seconds = chunk_out_s_;
      fb.new_degradations = stats_.degradations.size() - hook_degr_;
      hook_degr_ = stats_.degradations.size();

      const StepTuning tuning = s_.config_.tuning_hook(fb);
      ++stats_.adaptation.decisions;
      const bool more = step_ < plan_.steps();

      if (tuning.chunk_bytes != 0 && more) {
        std::size_t elems =
            std::max<std::size_t>(tuning.chunk_bytes / sizeof(T), 1);
        elems = std::min(elems, ddr_buf_->size());
        if (elems != outer_elems_) {
          lay_out(step_, elems);
          ++stats_.adaptation.chunk_changes;
        }
      }
      if (tuning.copy_threads != 0 && more && !stats_.inner_tier_fallback &&
          s_.config_.inner.overlap_copy_in &&
          tuning.copy_threads != s_.config_.inner.copy_threads) {
        s_.config_.inner.copy_threads = tuning.copy_threads;
        make_inner();
        ++stats_.adaptation.split_changes;
      }
      stats_.adaptation.final_copy_threads = s_.config_.inner.copy_threads;
      stats_.adaptation.final_compute_threads = fb.pools.compute;
      stats_.adaptation.desired_chunk_bytes = outer_elems_ * sizeof(T);
    }

    /// Every plan step ran: release the staging buffer before the merge
    /// claims its blocks.
    void end_plan() {
      ddr_buf_.reset();
      inner_.reset();
      tail_ = chunks_.size() > 1 ? Tail::Merge : Tail::Done;
    }

    void run_step() {
      if (step_ == plan_.steps()) {
        tail_ == Tail::Merge ? merge() : move_home();
        return;
      }
      const PlanStep at = plan_.step(step_);
      if (stage_ == 0) stage(*at.in, true);
      if (stage_ == 1) inner_sort(*at.compute);
      if (stage_ == 2) stage(*at.out, false);
      if (++stage_ < 3) return;
      // The barrier: chunk *at.out is retired.
      stage_ = 0;
      ++step_;
      apply_tuning(*at.out);
      if (step_ == plan_.steps()) end_plan();
    }

    void inner_sort(std::size_t i) {
      using fault::sites::kExternalSortInner;
      const IndexRange& c = chunks_[i];
      const auto chunk_idx = static_cast<std::int64_t>(i);
      const std::span<T> staged(ddr_buf_->data(), c.size());
      double t_sort = s_.trace_.now();
      try {
        if (!stats_.inner_tier_fallback) {
          ladder_.guard<kExternalSortInner>("inner_sort", chunk_idx,
                                            s_.mcdram().name());
        }
        stats_.last_inner = inner_->sort(staged);
      } catch (Error& e) {
        // Rung 3, the HBW_POLICY_PREFERRED analogue: recreate the inner
        // sorter DDR-only and redo this chunk without MCDRAM.  The failed
        // sort may have left the staged copy partially permuted, so
        // re-stage from NVM (still the untouched original) first.  That
        // copy is staging, a second "stage-in" of the chunk, and the
        // sort's clock restarts after it.
        if (stats_.inner_tier_fallback ||
            !ladder_.fall_back(kExternalSortInner, chunk_idx)) {
          e.with_frame({"inner_sort", chunk_idx, s_.mcdram().name(),
                        "orchestrator", ""});
          throw;
        }
        stats_.inner_tier_fallback = true;
        make_inner();
        const double t_copy = s_.trace_.now();
        parallel_memcpy(s_.pool_, staged.data(), data_.data() + c.begin,
                        staged.size_bytes());
        const double copy_s =
            s_.trace_.span(t_copy, 0, "external-sort", [&] {
              return "stage-in " + std::to_string(i);
            });
        chunk_in_s_ += copy_s;
        stats_.staging_seconds += copy_s;
        stats_.bytes_staged_in += staged.size_bytes();
        stats_.nvm_read_bytes += staged.size_bytes();
        t_sort = s_.trace_.now();
        stats_.last_inner = inner_->sort(staged);
      }
      chunk_sort_s_ = s_.trace_.span(t_sort, 1, "external-sort", [&] {
        return "outer sort " + std::to_string(i);
      });
      stats_.sorting_seconds += chunk_sort_s_;
    }

    // One NVM <-> DDR copy of chunk i: StageIn, or StageOut of its
    // sorted run.  Outbound runs are dead to the DDR working set, so
    // large stage-outs stream past the cache (the bytes are identical).
    void stage(std::size_t i, bool in) {
      using namespace fault::sites;
      const auto chunk_idx = static_cast<std::int64_t>(i);
      const char* const op = in ? "stage_in" : "stage_out";
      const std::string& tier = (in ? s_.ddr() : s_.nvm()).name();
      if (in) {
        ladder_.guard<kExternalSortStageIn>(op, chunk_idx, tier);
      } else {
        ladder_.guard<kExternalSortStageOut>(op, chunk_idx, tier);
      }
      T* const far = data_.data() + chunks_[i].begin;
      const std::uint64_t bytes = chunks_[i].size() * sizeof(T);
      const double t0 = s_.trace_.now();
      try {
        parallel_memcpy(s_.pool_, in ? ddr_buf_->data() : far,
                        in ? far : ddr_buf_->data(), bytes, s_.pool_.size(),
                        in ? CopyMode::Cached : CopyMode::Auto);
      } catch (Error& e) {
        e.with_frame({op, chunk_idx, tier, "pool-worker", ""});
        throw;
      }
      double& seconds = in ? chunk_in_s_ : chunk_out_s_;
      seconds = s_.trace_.span(t0, 0, "external-sort", [&] {
        return (in ? "stage-in " : "stage-out ") + std::to_string(i);
      });
      stats_.staging_seconds += seconds;
      (in ? stats_.bytes_staged_in : stats_.bytes_staged_out) += bytes;
      (in ? stats_.nvm_read_bytes : stats_.nvm_write_bytes) += bytes;
    }

    void merge() {
      // External k-way merge of the NVM runs into an NVM scratch.
      ladder_.guard<fault::sites::kExternalSortMerge>("merge", -1,
                                                      s_.nvm().name());
      t_merge_ = s_.trace_.now();
      try {
        nvm_out_.emplace(s_.nvm(), data_.size());
        std::vector<mlm::sort::Run<T>> runs;
        runs.reserve(chunks_.size());
        for (const IndexRange& r : chunks_) {
          runs.emplace_back(data_.data() + r.begin, r.size());
        }
        const std::size_t block = s_.resolve_merge_block(chunks_.size());
        external_multiway_merge(
            s_.pool_, s_.ddr(), std::span<const mlm::sort::Run<T>>(runs),
            std::span<T>(nvm_out_->data(), data_.size()), block, s_.comp_);
        stats_.external_merge_ran = true;
      } catch (Error& e) {
        add_merge_frame(e);
        throw;
      }
      tail_ = Tail::MoveHome;
    }

    void move_home() {
      try {
        parallel_memcpy(s_.pool_, data_.data(), nvm_out_->data(),
                        data_.size() * sizeof(T), s_.pool_.size(),
                        CopyMode::Auto);
      } catch (Error& e) {
        add_merge_frame(e);
        throw;
      }
      nvm_out_.reset();
      const std::uint64_t total_bytes = data_.size() * sizeof(T);
      stats_.nvm_read_bytes += 2 * total_bytes;   // runs + re-read
      stats_.nvm_write_bytes += 2 * total_bytes;  // scratch + home
      stats_.merging_seconds = s_.trace_.span(
          t_merge_, 0, "external-sort", [] { return "external merge"; });
      tail_ = Tail::Done;
    }

    void add_merge_frame(Error& e) const {
      e.with_frame({"merge", -1, s_.nvm().name(), "pool-worker",
                    std::to_string(chunks_.size()) + " runs"});
    }

    ExternalMlmSorter& s_;
    std::span<T> data_;
    ExternalSortStats stats_;
    /// Deterministic executors never back off.  No fallback counter: the
    /// inner-sort rung sets stats_.inner_tier_fallback itself.
    RecoveryLadder ladder_{s_.config_.degrade, !s_.pool_.deterministic(),
                           stats_.degradations, stats_.retries,
                           &stats_.outer_chunk_halvings};
    Stopwatch total_;
    std::optional<SpaceBuffer<T>> ddr_buf_;
    std::vector<IndexRange> chunks_;
    StepPlan plan_;
    std::optional<MlmSorter<T, Comp>> inner_;
    std::optional<SpaceBuffer<T>> nvm_out_;
    /// Cursor: plan step, and the stage within it (0 = StageIn,
    /// 1 = InnerSort, 2 = StageOut); past the plan, the tail.
    std::size_t step_ = 0;
    std::size_t stage_ = 0;
    Tail tail_ = Tail::Merge;
    double t_merge_ = 0.0;
    bool finished_ = false;
    /// Tuning-hook state: per-stage spans of the chunk in flight, the
    /// degradation high-water at the last hook call, and the nominal
    /// outer chunk (elements) currently in force.
    double chunk_in_s_ = 0.0;
    double chunk_sort_s_ = 0.0;
    double chunk_out_s_ = 0.0;
    std::size_t hook_degr_ = 0;
    std::size_t outer_elems_ = 0;
  };

  ExternalSortStats sort(std::span<T> data) {
    Stepper stepper(*this, data);
    while (stepper.step()) {
    }
    return stepper.finish();
  }

 private:
  friend class Stepper;

  MemorySpace& nvm() { return hier_.tier(0); }
  MemorySpace& ddr() { return hier_.tier(1); }
  MemorySpace& mcdram() { return hier_.tier(2); }

  // The staging buffer and the inner sorter's scratch share DDR.
  std::size_t resolve_outer_chunk() const {
    const std::size_t cap = hier_.tier(1).fit_elements(2, sizeof(T));
    const std::size_t outer = config_.outer_chunk_elements;
    MLM_REQUIRE(outer <= cap,
                "outer chunk plus inner scratch exceed DDR capacity");
    return outer != 0 ? outer : cap;
  }

  // A merge part stages k + 1 blocks.  The automatic block splits DDR
  // over every worker's part, with a 64-element floor unless that leaves
  // no room for one part: then it is the widest block one part fits.
  std::size_t resolve_merge_block(std::size_t k) const {
    if (config_.merge_block_elements != 0) return config_.merge_block_elements;
    const MemorySpace& ddr = hier_.tier(1);
    const std::size_t all_parts = (k + 1) * pool_.size();
    if (ddr.would_fit(64 * sizeof(T), all_parts)) {
      return ddr.fit_elements(all_parts, sizeof(T));
    }
    return std::min<std::size_t>(ddr.fit_elements(k + 1, sizeof(T)), 64);
  }

  MemoryHierarchy& hier_;
  Executor& pool_;
  ExternalSortConfig config_;
  Comp comp_;
  /// Staging and merge spans on trace_track (+0), outer sorts on +1.
  TraceSink trace_{config_.trace, config_.trace_track, config_.trace_epoch};
};

}  // namespace mlm::core
