// k-way merge: sequential kernel, exact multisequence partitioning, and
// a parallel multiway merge equivalent to GNU parallel mode's
// multiway_merge (Singler et al., MCSTL) — the routine the paper uses to
// stitch sorted chunks into megachunks and megachunks into the final
// sorted output.
#pragma once

#include <algorithm>
#include <cstddef>
#include <functional>
#include <span>
#include <type_traits>
#include <vector>

#include "mlm/parallel/parallel_for.h"
#include "mlm/parallel/executor.h"
#include "mlm/sort/loser_tree.h"
#include "mlm/sort/merge_kernels.h"
#include "mlm/support/error.h"

namespace mlm::sort {

/// A sorted input run for merging.
template <typename T>
using Run = std::span<const T>;

/// Probe budget and switch threshold for the hybrid k >= 3 merge: the
/// first min(total/8, 64Ki) elements run through the loser tree's
/// streak extraction while counting streaks; if the mean streak is
/// shorter than kCascadeStreakThreshold (runs interleave finely — the
/// duplicate-poor regime where per-element replay mispredicts), the
/// remainder drains through the two-run cascade instead.  Both paths
/// are stable with identical tie-breaks, so the choice never changes a
/// single output byte — only the time and a transient scratch
/// allocation.  The probe statistic is a pure function of the input,
/// keeping outputs and decisions deterministic.
inline constexpr std::size_t kCascadeMinElements = 4096;
inline constexpr std::size_t kCascadeProbeMax = std::size_t{1} << 16;
inline constexpr std::size_t kCascadeStreakThreshold = 2;

/// Sequential k-way merge of sorted runs into `out` (size = total run
/// length).  Two-run inputs use a branch-light binary merge; k >= 3
/// starts on a loser tree and may hand off to the two-run cascade (see
/// kCascadeStreakThreshold above).  Stable across run order.
template <typename T, typename Comp = std::less<>>
void multiway_merge(std::span<const Run<T>> runs, std::span<T> out,
                    Comp comp = {}) {
  std::size_t total = 0;
  for (const auto& r : runs) total += r.size();
  MLM_REQUIRE(out.size() == total, "output size must equal total run size");
  if (total == 0) return;

  // Drop empty runs up front; the loser tree handles them but k shrinks.
  std::vector<Run<T>> live;
  live.reserve(runs.size());
  for (const auto& r : runs) {
    if (!r.empty()) live.push_back(r);
  }

  if (live.size() == 1) {
    std::copy(live[0].begin(), live[0].end(), out.begin());
    return;
  }
  if (live.size() == 2) {
    merge_two_runs(live[0].data(), live[0].data() + live[0].size(),
                   live[1].data(), live[1].data() + live[1].size(),
                   out.data(), comp);
    return;
  }

  LoserTree<const T*, Comp> lt(live.size(), comp);
  for (std::size_t i = 0; i < live.size(); ++i) {
    lt.set_run(i, live[i].data(), live[i].data() + live[i].size());
  }
  lt.init();

  if constexpr (std::is_trivially_copyable_v<T>) {
    if (total >= kCascadeMinElements) {
      const std::size_t probe =
          std::min<std::size_t>(total / 8, kCascadeProbeMax);
      std::size_t produced = 0;
      std::size_t streaks = 0;
      std::size_t src = 0;
      while (produced < probe && !lt.empty()) {
        produced += lt.pop_streak(out.data() + produced, probe - produced,
                                  src);
        ++streaks;
      }
      if (!lt.empty() &&
          produced < streaks * kCascadeStreakThreshold) {
        // Fine interleaving: drain the leftover run tails through the
        // cascade.  The scratch is transient and sized to the leftover.
        std::vector<Run<T>> rest;
        rest.reserve(live.size());
        std::size_t left = 0;
        for (std::size_t i = 0; i < live.size(); ++i) {
          const auto [cur, end] = lt.run_range(i);
          if (cur != end) {
            rest.emplace_back(cur, static_cast<std::size_t>(end - cur));
            left += rest.back().size();
          }
        }
        MLM_CHECK(produced + left == total);
        std::vector<T> scratch(left);
        multiway_merge_cascade(std::span<const Run<T>>(rest),
                               out.subspan(produced, left),
                               std::span<T>(scratch), comp);
        return;
      }
      const std::size_t got =
          lt.pop_batch(out.data() + produced, total - produced);
      MLM_CHECK(produced + got == total && lt.empty());
      return;
    }
  }
  const std::size_t got = lt.pop_batch(out.data(), out.size());
  MLM_CHECK(got == out.size() && lt.empty());
}

/// Exact multisequence partition: split positions s[i] such that
/// sum(s[i]) == rank and every element in the prefixes precedes (under
/// comp, with (value, run, position) tie-breaking) every element in the
/// suffixes.  Runs must be sorted.
///
/// Algorithm: iterative pivoting.  Each round picks the median of the
/// active windows' middle elements as a pivot, counts elements strictly
/// less / less-or-equal across all runs, and either narrows the windows
/// or — when count_lt <= rank <= count_le — finalizes splits by taking
/// all elements < pivot plus enough pivot-equal elements in run order.
/// O(k log k log max_len) comparisons.
template <typename T, typename Comp = std::less<>>
std::vector<std::size_t> multiseq_partition(std::span<const Run<T>> runs,
                                            std::size_t rank,
                                            Comp comp = {}) {
  const std::size_t k = runs.size();
  std::size_t total = 0;
  for (const auto& r : runs) total += r.size();
  MLM_REQUIRE(rank <= total, "rank exceeds total elements");

  std::vector<std::size_t> splits(k, 0);
  if (rank == 0) return splits;
  if (rank == total) {
    for (std::size_t i = 0; i < k; ++i) splits[i] = runs[i].size();
    return splits;
  }

  std::vector<std::size_t> lo(k, 0), hi(k);
  for (std::size_t i = 0; i < k; ++i) hi[i] = runs[i].size();

  auto finalize = [&](const T& pivot) {
    std::size_t count_lt = 0;
    for (std::size_t i = 0; i < k; ++i) {
      splits[i] = static_cast<std::size_t>(
          std::lower_bound(runs[i].begin(), runs[i].end(), pivot, comp) -
          runs[i].begin());
      count_lt += splits[i];
    }
    std::size_t leftover = rank - count_lt;
    for (std::size_t i = 0; i < k && leftover > 0; ++i) {
      const std::size_t eq = static_cast<std::size_t>(
          std::upper_bound(runs[i].begin(), runs[i].end(), pivot, comp) -
          runs[i].begin()) - splits[i];
      const std::size_t take = std::min(eq, leftover);
      splits[i] += take;
      leftover -= take;
    }
    MLM_CHECK_MSG(leftover == 0, "multiseq_partition internal error");
  };

  for (;;) {
    // Candidate pivots: middle element of each non-empty window.
    std::vector<const T*> candidates;
    candidates.reserve(k);
    for (std::size_t i = 0; i < k; ++i) {
      if (lo[i] < hi[i]) {
        candidates.push_back(&runs[i][lo[i] + (hi[i] - lo[i]) / 2]);
      }
    }
    MLM_CHECK_MSG(!candidates.empty(),
                  "multiseq_partition failed to converge");
    std::nth_element(candidates.begin(),
                     candidates.begin() + candidates.size() / 2,
                     candidates.end(),
                     [&](const T* a, const T* b) { return comp(*a, *b); });
    const T& pivot = *candidates[candidates.size() / 2];

    std::size_t count_lt = 0, count_le = 0;
    for (std::size_t i = 0; i < k; ++i) {
      count_lt += static_cast<std::size_t>(
          std::lower_bound(runs[i].begin(), runs[i].end(), pivot, comp) -
          runs[i].begin());
      count_le += static_cast<std::size_t>(
          std::upper_bound(runs[i].begin(), runs[i].end(), pivot, comp) -
          runs[i].begin());
    }

    if (rank < count_lt) {
      // Target value precedes pivot: discard window tails >= pivot.
      for (std::size_t i = 0; i < k; ++i) {
        const auto lb = static_cast<std::size_t>(
            std::lower_bound(runs[i].begin(), runs[i].end(), pivot, comp) -
            runs[i].begin());
        hi[i] = std::min(hi[i], lb);
        if (lo[i] > hi[i]) lo[i] = hi[i];
      }
    } else if (rank > count_le) {
      // Target value follows pivot: discard window heads <= pivot.
      for (std::size_t i = 0; i < k; ++i) {
        const auto ub = static_cast<std::size_t>(
            std::upper_bound(runs[i].begin(), runs[i].end(), pivot, comp) -
            runs[i].begin());
        lo[i] = std::max(lo[i], ub);
        if (lo[i] > hi[i]) hi[i] = lo[i];
      }
    } else {
      finalize(pivot);
      return splits;
    }
  }
}

/// One part of an exact-split parallel merge: the slice of every run
/// whose elements land in the part, and where the part's output starts.
template <typename T>
struct MergePart {
  std::vector<Run<T>> slices;
  std::size_t out_begin = 0;
  std::size_t out_size = 0;
};

/// Plans a parallel merge of `runs` into an output of `out_size`
/// elements: as many parts as `max_parts` allows (at most one per 4096
/// elements, at least one), cut at the exact output ranks
/// total * p / parts by multiseq_partition, so the parts are
/// output-contiguous and can merge independently.  Empty when there is
/// nothing to merge.
template <typename T, typename Comp = std::less<>>
std::vector<MergePart<T>> plan_merge_parts(std::span<const Run<T>> runs,
                                           std::size_t out_size,
                                           std::size_t max_parts,
                                           Comp comp = {}) {
  std::size_t total = 0;
  for (const auto& r : runs) total += r.size();
  MLM_REQUIRE(out_size == total, "output size must equal total run size");
  if (total == 0) return {};

  const std::size_t k = runs.size();
  const std::size_t parts = std::max<std::size_t>(
      std::min(max_parts, std::max<std::size_t>(total / 4096, 1)), 1);
  std::vector<MergePart<T>> plan(parts);
  std::vector<std::size_t> lo(k, 0);
  for (std::size_t p = 0; p < parts; ++p) {
    std::vector<std::size_t> hi(k);
    if (p + 1 < parts) {
      hi = multiseq_partition(runs, total * (p + 1) / parts, comp);
    } else {
      for (std::size_t i = 0; i < k; ++i) hi[i] = runs[i].size();
    }
    plan[p].slices.resize(k);
    for (std::size_t i = 0; i < k; ++i) {
      plan[p].slices[i] = runs[i].subspan(lo[i], hi[i] - lo[i]);
      plan[p].out_begin += lo[i];
      plan[p].out_size += hi[i] - lo[i];
    }
    lo = std::move(hi);
  }
  return plan;
}

/// Parallel k-way merge: partitions the output into `pool.size()`
/// balanced pieces with plan_merge_parts and merges each piece
/// independently.  Equivalent in structure to __gnu_parallel::
/// multiway_merge with exact splitting.
template <typename T, typename Comp = std::less<>>
void parallel_multiway_merge(Executor& pool,
                             std::span<const Run<T>> runs,
                             std::span<T> out, Comp comp = {}) {
  const std::vector<MergePart<T>> parts =
      plan_merge_parts(runs, out.size(), pool.size(), comp);
  if (parts.size() <= 1) {
    multiway_merge(runs, out, comp);
    return;
  }
  parallel_for(pool, 0, parts.size(), [&](std::size_t p) {
    multiway_merge(std::span<const Run<T>>(parts[p].slices),
                   out.subspan(parts[p].out_begin, parts[p].out_size), comp);
  });
}

}  // namespace mlm::sort
