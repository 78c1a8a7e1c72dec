// Stable sorts: serial top-down mergesort and the stable counterpart of
// gnu_like_parallel_sort.
//
// GNU parallel mode ships both __gnu_parallel::sort and
// __gnu_parallel::stable_sort; the paper's kernels only need the
// unstable one, but a library users would adopt must offer stability
// (sort-by-key with attached payloads).  The parallel variant reuses the
// exact-splitting multiway merge, which preserves run order — so stable
// local runs over consecutive slices compose into a globally stable
// sort.  Nothing outside its tests calls this header (`sort_records`
// uses std::stable_sort); ROADMAP item 2(a) lists it for deletion.
#pragma once

#include <algorithm>
#include <functional>
#include <span>
#include <type_traits>
#include <vector>

#include "mlm/parallel/parallel_for.h"
#include "mlm/parallel/thread_pool.h"
#include "mlm/sort/merge_kernels.h"
#include "mlm/sort/multiway_merge.h"
#include "mlm/support/error.h"

namespace mlm::sort {

namespace stable_detail {
constexpr std::size_t kInsertionThreshold = 32;

/// Stable binary insertion sort on [first, last).
template <typename It, typename Comp>
void insertion(It first, It last, Comp& comp) {
  for (It i = first + 1; i < last; ++i) {
    auto v = std::move(*i);
    It pos = std::upper_bound(first, i, v, comp);
    std::move_backward(pos, i, i + 1);
    *pos = std::move(v);
  }
}

/// Top-down merge sort of data[lo, hi) using buf as merge target;
/// result lands in data.
template <typename T, typename Comp>
void msort(T* data, T* buf, std::size_t lo, std::size_t hi, Comp& comp) {
  if (hi - lo <= kInsertionThreshold) {
    insertion(data + lo, data + hi, comp);
    return;
  }
  const std::size_t mid = lo + (hi - lo) / 2;
  msort(data, buf, lo, mid, comp);
  msort(data, buf, mid, hi, comp);
  // Merge halves into buf, stably (left wins ties), then move back.
  // Trivially copyable types take the branch-light unrolled kernel;
  // move-only/heavy types keep the move-iterator std::merge.
  if constexpr (std::is_trivially_copyable_v<T>) {
    merge_two_runs<T>(data + lo, data + mid, data + mid, data + hi,
                      buf + lo, comp);
    std::copy(buf + lo, buf + hi, data + lo);
  } else {
    std::merge(std::make_move_iterator(data + lo),
               std::make_move_iterator(data + mid),
               std::make_move_iterator(data + mid),
               std::make_move_iterator(data + hi), buf + lo, comp);
    std::move(buf + lo, buf + hi, data + lo);
  }
}
}  // namespace stable_detail

/// Serial stable mergesort; `scratch` must be at least data.size().
template <typename T, typename Comp = std::less<>>
void stable_merge_sort(std::span<T> data, std::span<T> scratch,
                       Comp comp = {}) {
  MLM_REQUIRE(scratch.size() >= data.size(),
              "scratch must be at least input size");
  if (data.size() <= 1) return;
  stable_detail::msort(data.data(), scratch.data(), 0, data.size(), comp);
}

/// Stable counterpart of gnu_like_parallel_sort: p stable local sorts
/// over consecutive slices, then the exact-splitting multiway merge
/// (stable across run order).
template <typename T, typename Comp = std::less<>>
void parallel_stable_sort(ThreadPool& pool, std::span<T> data,
                          std::span<T> scratch, Comp comp = {}) {
  MLM_REQUIRE(scratch.size() >= data.size(),
              "scratch must be at least input size");
  const std::size_t n = data.size();
  if (n <= 1) return;
  const std::size_t p = std::min(pool.size(), (n + 1023) / 1024);
  if (p <= 1) {
    stable_merge_sort(data, scratch, comp);
    return;
  }

  const std::vector<IndexRange> ranges = partition_all(n, p);
  parallel_for(pool, 0, p, [&](std::size_t i) {
    stable_merge_sort(data.subspan(ranges[i].begin, ranges[i].size()),
                      scratch.subspan(ranges[i].begin, ranges[i].size()),
                      comp);
  });

  std::vector<Run<T>> runs;
  runs.reserve(p);
  for (const IndexRange& r : ranges) {
    runs.emplace_back(data.data() + r.begin, r.size());
  }
  parallel_multiway_merge(pool, std::span<const Run<T>>(runs),
                          scratch.subspan(0, n), comp);
  parallel_for_ranges(pool, 0, n, [&](IndexRange r) {
    std::copy(scratch.begin() + r.begin, scratch.begin() + r.end,
              data.begin() + r.begin);
  });
}

/// Exact k-th smallest element (0-indexed) across pre-sorted runs, using
/// the multisequence partition — O(k log k log n) with no data movement.
/// Exposed because chunked pipelines often need order statistics of
/// their sorted runs (e.g. percentile cuts) without a full merge.
template <typename T, typename Comp = std::less<>>
const T& kth_element_of_runs(std::span<const Run<T>> runs, std::size_t k,
                             Comp comp = {}) {
  std::size_t total = 0;
  for (const auto& r : runs) total += r.size();
  MLM_REQUIRE(k < total, "k out of range");
  // Elements before the splits are exactly the k smallest; the k-th is
  // the minimum of the suffix heads.
  const auto splits = multiseq_partition(runs, k, comp);
  const T* best = nullptr;
  for (std::size_t i = 0; i < runs.size(); ++i) {
    if (splits[i] < runs[i].size()) {
      const T& cand = runs[i][splits[i]];
      if (best == nullptr || comp(cand, *best)) best = &cand;
    }
  }
  MLM_CHECK(best != nullptr);
  return *best;
}

}  // namespace mlm::sort
