// MLM-sort: the paper's multilevel-memory sorting algorithm (Section 4).
//
// The input array (resident in far memory / DDR) is divided into
// MCDRAM-sized "megachunks".  For each megachunk:
//
//   1. copy it into MCDRAM (flat mode only; all threads copy — the paper
//      leaves buffering the megachunk pipeline as future work, which
//      overlap_copy_in implements),
//   2. divide it into maximally-sized chunks, one per thread, and sort
//      each chunk with the best available *serial* sort (MLM-sort
//      deliberately avoids relying on multithreaded sort scaling to
//      hundreds of cores): serial_sort's span form, which is the
//      cache-conscious radix_sort for int64 keys under std::less, the
//      stable radix_sort_records for Record<N> under std::less, and
//      std::sort for anything else.  The radix sorts' scratch is the
//      thread's slice of the DDR scratch region step 3 overwrites next,
//      so they allocate nothing; for Record<N> the (key, index) pairs
//      take 32 B per record of it,
//   3. run a parallel multiway merge of the per-thread runs, writing the
//      sorted megachunk back to far memory (doubling as the copy-out).
//
// The megachunks walk a StepPlan (mlm/support/step_plan.h) without
// write-back, the merge of step 3 being the copy-out: depth 1 for the
// paper's scheme, depth 2 when overlap_copy_in loads megachunk s while
// the workers sort and merge megachunk s-1.
//
// A final parallel multiway merge across megachunk runs completes the
// sort; it "does not use the chunking mechanisms or even explicitly take
// advantage of the MCDRAM" (§4).
//
// Variants (Table 1):
//   Flat      — explicit copies into addressable MCDRAM ("MLM-sort")
//   Implicit  — identical structure, no copies; run with the machine in
//               hardware cache mode, megachunk defaults to the whole
//               problem ("MLM-implicit")
//   DdrOnly   — identical structure, MCDRAM unused ("MLM-ddr")
#pragma once

#include <algorithm>
#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <vector>

#include "mlm/memory/memory_hierarchy.h"
#include "mlm/parallel/deterministic_executor.h"
#include "mlm/parallel/parallel_for.h"
#include "mlm/parallel/parallel_memcpy.h"
#include "mlm/parallel/thread_pool.h"
#include "mlm/sort/multiway_merge.h"
#include "mlm/sort/parallel_sort.h"
#include "mlm/sort/serial_sort.h"
#include "mlm/support/error.h"
#include "mlm/support/step_plan.h"
#include "mlm/support/stopwatch.h"
#include "mlm/support/trace.h"

namespace mlm::core {

/// Which memory strategy MlmSorter uses.
enum class MlmVariant : std::uint8_t { Flat, Implicit, DdrOnly };

const char* to_string(MlmVariant variant);

struct MlmSortConfig {
  MlmVariant variant = MlmVariant::Flat;
  /// Megachunk size in elements.  0 = as large as the near memory allows
  /// (Flat; the whole problem over an unlimited near tier) or the whole
  /// problem (Implicit/DdrOnly) — the choices the paper found best
  /// (§4.1, Fig. 7).
  std::size_t megachunk_elements = 0;
  /// Flat only: double-buffer the megachunks so a dedicated copy pool
  /// loads megachunk c+1 while the workers sort megachunk c — the
  /// buffering the paper leaves as future work (§6: "a slightly
  /// different approach might allow hiding the copy-in latency of the
  /// next megachunk").  Halves the maximum megachunk size.
  bool overlap_copy_in = false;
  /// Copy-in pool size when overlap_copy_in is set.  The pool is a
  /// DeterministicExecutor on the worker pool's scheduler when the worker
  /// pool is one, so its copies stay inside the seeded schedule.
  std::size_t copy_threads = 2;
  /// Optional trace export: megachunk copy-in and sort+merge spans land
  /// on `trace_track` of `trace` (null = tracing off), timed against
  /// `trace_epoch` (null = a clock local to the sorter); the copy pool's
  /// overlapped copy-ins land on `trace_track` + 1.
  TraceWriter* trace = nullptr;
  std::uint32_t trace_track = 0;
  const Stopwatch* trace_epoch = nullptr;
};

/// Per-run statistics for tests and benchmarks.
struct MlmSortStats {
  std::size_t megachunks = 0;
  std::size_t chunks_per_megachunk = 0;
  std::uint64_t bytes_copied_in = 0;
  bool final_merge_ran = false;
  /// How many copy-ins were overlapped with compute (buffered variant).
  std::size_t overlapped_copies = 0;
};

/// Multilevel-memory sorter bound to a far -> near tier pair and a worker
/// pool.  One MlmSorter can sort many arrays; scratch is allocated per
/// call and returned to the tiers afterwards.  The data and its scratch
/// live in the far tier; Flat stages megachunks into the near tier.
template <typename T, typename Comp = std::less<>>
class MlmSorter {
 public:
  MlmSorter(TierPair tiers, Executor& pool, MlmSortConfig config,
            Comp comp = {})
      : tiers_(tiers), pool_(pool), config_(config), comp_(comp) {
    if (config_.variant == MlmVariant::Flat) {
      MLM_REQUIRE(tiers.explicit_copies(),
                  "Flat variant requires an addressable near tier");
    }
  }

  /// Sort `data` ascending (by comp).  Allocates one DDR scratch array of
  /// data.size() elements, plus (Flat) one MCDRAM megachunk buffer.
  MlmSortStats sort(std::span<T> data) {
    MlmSortStats stats;
    if (data.size() <= 1) {
      stats.megachunks = data.empty() ? 0 : 1;
      return stats;
    }

    const std::size_t mega = resolve_megachunk(data.size());
    const std::vector<IndexRange> megachunks =
        chunk_ranges(data.size(), mega);
    stats.megachunks = megachunks.size();

    // DDR scratch receives the sorted megachunk runs.
    SpaceBuffer<T> scratch(*tiers_.far_tier, data.size());

    run_megachunks(data, scratch, megachunks, stats);

    if (megachunks.size() == 1) {
      // Scratch holds the fully sorted output; move it home.
      parallel_memcpy(pool_, data.data(), scratch.data(),
                      data.size() * sizeof(T));
      return stats;
    }

    // Final multiway merge across megachunk runs, DDR -> DDR.
    std::vector<mlm::sort::Run<T>> runs;
    runs.reserve(megachunks.size());
    for (const IndexRange& mc : megachunks) {
      runs.emplace_back(scratch.data() + mc.begin, mc.size());
    }
    traced([] { return "final merge"; }, [&] {
      mlm::sort::parallel_multiway_merge(
          pool_, std::span<const mlm::sort::Run<T>>(runs), data, comp_);
    });
    stats.final_merge_ran = true;
    return stats;
  }

 private:
  // A span of `work`; untraced, no clock is read (no stats report it).
  template <typename NameFn, typename Work>
  void traced(const NameFn& name, Work&& work) {
    const double t0 = trace_.on() ? trace_.now() : 0.0;
    work();
    if (trace_.on()) trace_.span(t0, 0, "mlm-sort", name);
  }

  std::size_t resolve_megachunk(std::size_t n) const {
    std::size_t mega = config_.megachunk_elements;
    if (config_.variant == MlmVariant::Flat) {
      // Double buffering needs two megachunks resident at once.
      const std::size_t cap = tiers_.near_tier->fit_elements(
          config_.overlap_copy_in ? 2 : 1, sizeof(T));
      if (mega == 0) mega = cap;
      MLM_REQUIRE(mega <= cap,
                  "megachunk does not fit in addressable MCDRAM");
    } else if (mega == 0) {
      mega = n;  // Implicit/DdrOnly default: megachunk = whole problem
    }
    return std::min(mega, n);
  }

  /// Sort the (near-resident or in-place) megachunk `work` and merge its
  /// per-thread runs into scratch at [out_begin, out_begin + size).
  void sort_and_merge_megachunk(std::span<T> work, SpaceBuffer<T>& scratch,
                                std::size_t out_begin,
                                MlmSortStats& stats) {
    const std::size_t parts = std::min(pool_.size(), work.size());
    stats.chunks_per_megachunk = parts;
    // Per-thread serial sorts of maximal chunks.  Each thread's scratch
    // is its slice of the DDR region the merge below overwrites.
    parallel_for_ranges(pool_, 0, work.size(), [&](IndexRange r) {
      mlm::sort::serial_sort(
          work.subspan(r.begin, r.size()),
          std::span<T>(scratch.data() + out_begin + r.begin, r.size()),
          comp_);
    });
    // Parallel multiway merge of the per-thread runs into DDR scratch
    // (in flat mode this is also the copy-out).
    std::vector<mlm::sort::Run<T>> runs;
    runs.reserve(parts);
    for (const IndexRange& r : partition_all(work.size(), parts)) {
      runs.emplace_back(work.data() + r.begin, r.size());
    }
    mlm::sort::parallel_multiway_merge(
        pool_, std::span<const mlm::sort::Run<T>>(runs),
        std::span<T>(scratch.data() + out_begin, work.size()), comp_);
  }

  /// Walk the megachunks through the plan.  Depth 1 (the paper's
  /// scheme): all workers copy megachunk s in, then sort and merge it.
  /// Depth 2 (§6 future work, implemented): a dedicated copy pool
  /// streams megachunk s into the idle buffer while the workers sort and
  /// merge megachunk s-1.
  void run_megachunks(std::span<T> data, SpaceBuffer<T>& scratch,
                      const std::vector<IndexRange>& megachunks,
                      MlmSortStats& stats) {
    const bool flat = config_.variant == MlmVariant::Flat;
    const StepPlan plan(
        flat && config_.overlap_copy_in && megachunks.size() > 1 ? 2 : 1,
        megachunks.size(), false);
    // Buffers before the copy pool, so the pool drains (or drops) any
    // pending slices while the buffers are still alive.
    std::vector<SpaceBuffer<T>> bufs;
    for (std::size_t b = 0; flat && b < plan.depth(); ++b) {
      bufs.emplace_back(*tiers_.near_tier, megachunks.front().size());
    }
    std::unique_ptr<Executor> copy_pool;
    if (!plan.in_joins_before_compute()) copy_pool = make_copy_pool();

    auto work_of = [&](std::size_t c) {
      const IndexRange& mc = megachunks[c];
      return flat ? std::span<T>(bufs[c % bufs.size()].data(), mc.size())
                  : data.subspan(mc.begin, mc.size());
    };
    for (std::size_t s = 0; s < plan.steps(); ++s) {
      const auto [in, compute, out] = plan.step(s);
      std::vector<std::future<void>> pending;
      double pending_t0 = 0.0;
      if (in && flat) {
        const std::span<T> dst = work_of(*in);
        const T* src = data.data() + megachunks[*in].begin;
        stats.bytes_copied_in += dst.size_bytes();
        if (copy_pool == nullptr) {
          traced([&] { return "mega copy-in " + std::to_string(*in); },
                 [&] {
                   parallel_memcpy(pool_, dst.data(), src, dst.size_bytes());
                 });
        } else {
          if (trace_.on()) pending_t0 = trace_.now();
          pending = parallel_memcpy_async(*copy_pool, dst.data(), src,
                                          dst.size_bytes());
          if (compute) ++stats.overlapped_copies;
        }
      }
      if (compute) {
        traced([&] { return "mega sort+merge " + std::to_string(*compute); },
               [&] {
                 sort_and_merge_megachunk(work_of(*compute), scratch,
                                          megachunks[*compute].begin, stats);
               });
      }
      if (copy_pool != nullptr && in) {
        // The copy pool's copy-in, from issue until it is waited for,
        // on its own track: it overlaps the sort+merge above.
        copy_pool->wait(pending);
        if (trace_.on()) {
          trace_.span(pending_t0, 1, "mlm-sort", [&] {
            return "mega copy-in " + std::to_string(*in);
          });
        }
      }
    }
  }

  std::unique_ptr<Executor> make_copy_pool() const {
    if (auto* det = dynamic_cast<DeterministicExecutor*>(&pool_)) {
      return std::make_unique<DeterministicExecutor>(
          det->scheduler(), config_.copy_threads, "mlm-copy-in");
    }
    return std::make_unique<ThreadPool>(config_.copy_threads, "mlm-copy-in");
  }

  TierPair tiers_;
  Executor& pool_;
  MlmSortConfig config_;
  Comp comp_;
  TraceSink trace_{config_.trace, config_.trace_track, config_.trace_epoch};
};

/// The "basic algorithm" of Section 4: chunk the data, sort each chunk
/// with the *parallel* sort (GNU-style), merge all chunk runs at the
/// end.  One chunk at a time, serially: when the pair has an addressable
/// near tier each chunk is copied in, sorted there and copied back, else
/// it is sorted in place.  Used as the Bender-corroboration baseline.
template <typename T, typename Comp = std::less<>>
void basic_chunked_sort(TierPair tiers, Executor& pool,
                        std::span<T> data, std::size_t chunk_elements,
                        Comp comp = {}) {
  MLM_REQUIRE(chunk_elements >= 1, "chunk size must be positive");
  if (data.size() <= 1) return;
  const std::vector<IndexRange> chunks =
      chunk_ranges(data.size(), chunk_elements);

  const bool near = tiers.explicit_copies();
  const std::size_t buf_elements = std::min(chunk_elements, data.size());
  SpaceBuffer<T> near_buf;
  if (near) near_buf = SpaceBuffer<T>(*tiers.near_tier, buf_elements);
  std::vector<T> merge_scratch(buf_elements);
  for (const IndexRange& c : chunks) {
    const std::span<T> src = data.subspan(c.begin, c.size());
    const std::span<T> work =
        near ? std::span<T>(near_buf.data(), c.size()) : src;
    if (near) parallel_memcpy(pool, work.data(), src.data(), src.size_bytes());
    mlm::sort::gnu_like_parallel_sort(
        pool, work, std::span<T>(merge_scratch.data(), c.size()), comp);
    if (near) parallel_memcpy(pool, src.data(), work.data(), src.size_bytes());
  }

  if (chunks.size() == 1) return;

  // Final multiway merge of the sorted chunks.
  SpaceBuffer<T> out(*tiers.far_tier, data.size());
  std::vector<mlm::sort::Run<T>> runs;
  runs.reserve(chunks.size());
  for (const IndexRange& c : chunks) {
    runs.emplace_back(data.data() + c.begin, c.size());
  }
  mlm::sort::parallel_multiway_merge(
      pool, std::span<const mlm::sort::Run<T>>(runs),
      std::span<T>(out.data(), data.size()), comp);
  parallel_memcpy(pool, data.data(), out.data(), data.size() * sizeof(T));
}

}  // namespace mlm::core
