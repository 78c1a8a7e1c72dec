// MLM-sort: the paper's multilevel-memory sorting algorithm (Section 4).
//
// The input array (resident in far memory / DDR) is divided into
// MCDRAM-sized "megachunks".  For each megachunk:
//
//   1. copy it into MCDRAM (flat mode only; all threads copy — the paper
//      leaves buffering the megachunk pipeline as future work),
//   2. divide it into maximally-sized chunks, one per thread, and sort
//      each chunk with the best available *serial* sort (std::sort;
//      MLM-sort deliberately avoids relying on multithreaded sort
//      scaling to hundreds of cores),
//   3. run a parallel multiway merge of the per-thread runs, writing the
//      sorted megachunk back to far memory (doubling as the copy-out).
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
#include <span>
#include <vector>

#include "mlm/memory/dual_space.h"
#include "mlm/parallel/parallel_for.h"
#include "mlm/parallel/parallel_memcpy.h"
#include "mlm/parallel/thread_pool.h"
#include "mlm/sort/multiway_merge.h"
#include "mlm/sort/parallel_sort.h"
#include "mlm/sort/serial_sort.h"
#include "mlm/support/error.h"
#include "mlm/support/stopwatch.h"
#include "mlm/support/trace.h"

namespace mlm::core {

/// Which memory strategy MlmSorter uses.
enum class MlmVariant : std::uint8_t { Flat, Implicit, DdrOnly };

const char* to_string(MlmVariant variant);

struct MlmSortConfig {
  MlmVariant variant = MlmVariant::Flat;
  /// Megachunk size in elements.  0 = as large as the near memory allows
  /// (Flat) or the whole problem (Implicit/DdrOnly) — the choices the
  /// paper found best (§4.1, Fig. 7).
  std::size_t megachunk_elements = 0;
  /// Flat only: double-buffer the megachunks so a dedicated copy pool
  /// loads megachunk c+1 while the workers sort megachunk c — the
  /// buffering the paper leaves as future work (§6: "a slightly
  /// different approach might allow hiding the copy-in latency of the
  /// next megachunk").  Halves the maximum megachunk size.
  bool overlap_copy_in = false;
  /// Copy-in pool size when overlap_copy_in is set.
  std::size_t copy_threads = 2;
  /// Optional trace export: megachunk copy-in and sort+merge spans land
  /// on `trace_track` of `trace` (null = tracing off), timed against
  /// `trace_epoch` (null = a clock local to the sorter).
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

/// Multilevel-memory sorter bound to a memory environment and a worker
/// pool.  One MlmSorter can sort many arrays; scratch is allocated per
/// call and returned to the spaces afterwards.
template <typename T, typename Comp = std::less<>>
class MlmSorter {
 public:
  MlmSorter(DualSpace& space, Executor& pool, MlmSortConfig config,
            Comp comp = {})
      : space_(space), pool_(pool), config_(config), comp_(comp) {
    if (config_.variant == MlmVariant::Flat) {
      MLM_REQUIRE(space.has_addressable_mcdram(),
                  "Flat variant requires a flat/hybrid-mode DualSpace");
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
    SpaceBuffer<T> scratch(space_.ddr(), data.size());

    const bool buffered = config_.variant == MlmVariant::Flat &&
                          config_.overlap_copy_in &&
                          megachunks.size() > 1;
    if (buffered) {
      run_megachunks_buffered(data, scratch, megachunks, stats);
    } else {
      run_megachunks_unbuffered(data, scratch, megachunks, stats);
    }

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
    const double t0 = trace_now();
    mlm::sort::parallel_multiway_merge(
        pool_, std::span<const mlm::sort::Run<T>>(runs), data, comp_);
    trace_emit("final merge", t0);
    stats.final_merge_ran = true;
    return stats;
  }

 private:
  double trace_now() const {
    return config_.trace_epoch != nullptr ? config_.trace_epoch->elapsed_s()
                                          : trace_clock_.elapsed_s();
  }
  void trace_emit(const std::string& name, double t0) const {
    if (config_.trace == nullptr) return;
    config_.trace->add_event(name, "mlm-sort", config_.trace_track, t0,
                             trace_now() - t0);
  }

  std::size_t resolve_megachunk(std::size_t n) const {
    std::size_t mega = config_.megachunk_elements;
    if (config_.variant == MlmVariant::Flat) {
      std::size_t cap = static_cast<std::size_t>(
          space_.mcdram().stats().free_bytes() / sizeof(T));
      // Double buffering needs two megachunks resident at once.
      if (config_.overlap_copy_in) cap /= 2;
      MLM_CHECK_MSG(cap >= 1, "no MCDRAM capacity for even one element");
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
    // Per-thread serial sorts of maximal chunks.
    parallel_for_ranges(pool_, 0, work.size(), [&](IndexRange r) {
      mlm::sort::serial_sort(work.begin() + r.begin, work.begin() + r.end,
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

  /// The paper's unbuffered scheme: one megachunk resident at a time,
  /// all threads copy, then all threads sort/merge.
  void run_megachunks_unbuffered(std::span<T> data, SpaceBuffer<T>& scratch,
                                 const std::vector<IndexRange>& megachunks,
                                 MlmSortStats& stats) {
    SpaceBuffer<T> near_buf;
    if (config_.variant == MlmVariant::Flat) {
      near_buf = SpaceBuffer<T>(space_.mcdram(), megachunks.front().size());
    }
    std::size_t index = 0;
    for (const IndexRange& mc : megachunks) {
      std::span<T> src = data.subspan(mc.begin, mc.size());
      std::span<T> work = src;
      if (config_.variant == MlmVariant::Flat) {
        work = std::span<T>(near_buf.data(), mc.size());
        const double t0 = trace_now();
        parallel_memcpy(pool_, work.data(), src.data(),
                        mc.size() * sizeof(T));
        trace_emit("mega copy-in " + std::to_string(index), t0);
        stats.bytes_copied_in += mc.size() * sizeof(T);
      }
      const double t1 = trace_now();
      sort_and_merge_megachunk(work, scratch, mc.begin, stats);
      trace_emit("mega sort+merge " + std::to_string(index), t1);
      ++index;
    }
  }

  /// §6 future work, implemented: two megachunk buffers; a dedicated
  /// copy pool streams megachunk c+1 into the idle buffer while the
  /// worker pool sorts and merges megachunk c.
  void run_megachunks_buffered(std::span<T> data, SpaceBuffer<T>& scratch,
                               const std::vector<IndexRange>& megachunks,
                               MlmSortStats& stats) {
    SpaceBuffer<T> bufs[2] = {
        SpaceBuffer<T>(space_.mcdram(), megachunks.front().size()),
        SpaceBuffer<T>(space_.mcdram(), megachunks.front().size())};
    ThreadPool copy_pool(config_.copy_threads, "mlm-copy-in");

    auto start_copy = [&](std::size_t c) {
      const IndexRange& mc = megachunks[c];
      stats.bytes_copied_in += mc.size() * sizeof(T);
      return parallel_memcpy_async(copy_pool, bufs[c % 2].data(),
                                   data.data() + mc.begin,
                                   mc.size() * sizeof(T));
    };

    auto pending = start_copy(0);
    for (std::size_t c = 0; c < megachunks.size(); ++c) {
      wait_all(pending);
      pending.clear();
      if (c + 1 < megachunks.size()) {
        pending = start_copy(c + 1);
        ++stats.overlapped_copies;
      }
      const double t0 = trace_now();
      sort_and_merge_megachunk(
          std::span<T>(bufs[c % 2].data(), megachunks[c].size()), scratch,
          megachunks[c].begin, stats);
      trace_emit("mega sort+merge " + std::to_string(c), t0);
    }
  }

  DualSpace& space_;
  Executor& pool_;
  MlmSortConfig config_;
  Comp comp_;
  Stopwatch trace_clock_;
};

/// The "basic algorithm" of Section 4: chunk the data, sort each chunk
/// with the *parallel* sort (GNU-style), merge all chunk runs at the
/// end.  Runs through the triple-buffered ChunkPipeline when the space
/// has addressable MCDRAM.  Used as the Bender-corroboration baseline.
template <typename T, typename Comp = std::less<>>
void basic_chunked_sort(DualSpace& space, Executor& pool,
                        std::span<T> data, std::size_t chunk_elements,
                        Comp comp = {}) {
  MLM_REQUIRE(chunk_elements >= 1, "chunk size must be positive");
  if (data.size() <= 1) return;
  const std::vector<IndexRange> chunks =
      chunk_ranges(data.size(), chunk_elements);

  // Sort each chunk in place (through near memory when available).
  if (space.has_addressable_mcdram()) {
    SpaceBuffer<T> near_buf(space.mcdram(),
                            std::min(chunk_elements, data.size()));
    std::vector<T> merge_scratch(std::min(chunk_elements, data.size()));
    for (const IndexRange& c : chunks) {
      std::span<T> src = data.subspan(c.begin, c.size());
      parallel_memcpy(pool, near_buf.data(), src.data(),
                      c.size() * sizeof(T));
      std::span<T> work(near_buf.data(), c.size());
      mlm::sort::gnu_like_parallel_sort(
          pool, work, std::span<T>(merge_scratch.data(), c.size()), comp);
      parallel_memcpy(pool, src.data(), near_buf.data(),
                      c.size() * sizeof(T));
    }
  } else {
    std::vector<T> merge_scratch(std::min(chunk_elements, data.size()));
    for (const IndexRange& c : chunks) {
      std::span<T> work = data.subspan(c.begin, c.size());
      mlm::sort::gnu_like_parallel_sort(
          pool, work, std::span<T>(merge_scratch.data(), c.size()), comp);
    }
  }

  if (chunks.size() == 1) return;

  // Final multiway merge of the sorted chunks.
  SpaceBuffer<T> out(space.ddr(), data.size());
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
