// Serial sorts.
//
// MLM-sort's key design decision (Section 4) is to sort each thread's
// chunk with "the best available serial sorting algorithm" rather than
// relying on multithreaded sort scaling to hundreds of cores.
// serial_sort is the one seam every per-chunk caller goes through, in
// two forms:
//
//   - serial_sort(first, last, comp) is std::sort (libstdc++'s
//     introsort); funnelsort's base case and gnu_like_parallel_sort use
//     it.
//   - serial_sort(data, scratch, comp) is MlmSorter's per-thread sort,
//     with a scratch array as large as the data:
//       * int64 under std::less: radix_sort, a cache-conscious radix
//         sort;
//       * Record<N> under std::less: radix_sort_records, a stable radix
//         sort of (key, index) pairs held in the scratch (32 B per
//         record) that then moves each record once; records under 32 B
//         are radix-sorted directly.  Equal keys keep their input order;
//       * anything else: std::sort, and the scratch goes unused.
//     MlmSorter's scratch is the thread's slice of the DDR region its
//     megachunk merge overwrites next.
//
// The element and comparator types are the only dispatch: no option,
// environment variable or runtime switch selects the kernel.  For int64
// under std::less both kernels give byte-identical output; for Record<N>
// the output is std::stable_sort's.
//
// insertion_sort and heapsort are standalone kernels with no caller
// outside their tests; ROADMAP lists them among "the dead sort
// kernels".
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <iterator>
#include <span>
#include <type_traits>
#include <utility>

#include "mlm/sort/radix_sort.h"
#include "mlm/support/error.h"

namespace mlm::sort {

namespace detail {
template <typename It, typename Comp>
void sift_down(It first, std::ptrdiff_t start, std::ptrdiff_t n,
               Comp& comp) {
  std::ptrdiff_t root = start;
  for (;;) {
    std::ptrdiff_t child = 2 * root + 1;
    if (child >= n) return;
    if (child + 1 < n && comp(first[child], first[child + 1])) ++child;
    if (!comp(first[root], first[child])) return;
    std::swap(first[root], first[child]);
    root = child;
  }
}
}  // namespace detail

/// Stable binary insertion sort; fast on nearly-sorted data.
template <typename It, typename Comp = std::less<>>
void insertion_sort(It first, It last, Comp comp = {}) {
  if (first == last) return;
  for (It i = std::next(first); i != last; ++i) {
    auto value = std::move(*i);
    It pos = std::upper_bound(first, i, value, comp);
    std::move_backward(pos, i, std::next(i));
    *pos = std::move(value);
  }
}

/// Bottom-up heapsort: O(n log n) worst case, in place, not stable.
template <typename It, typename Comp = std::less<>>
void heapsort(It first, It last, Comp comp = {}) {
  const std::ptrdiff_t n = last - first;
  for (std::ptrdiff_t start = n / 2 - 1; start >= 0; --start) {
    detail::sift_down(first, start, n, comp);
  }
  for (std::ptrdiff_t end = n - 1; end > 0; --end) {
    std::swap(first[0], first[end]);
    detail::sift_down(first, 0, end, comp);
  }
}

/// std::sort over [first, last).  Not stable.
template <typename It, typename Comp = std::less<>>
void serial_sort(It first, It last, Comp comp = {}) {
  std::sort(first, last, comp);
}

/// The serial sort MLM-sort uses for per-thread chunks: radix_sort for
/// int64 and radix_sort_records for Record<N> under std::less, std::sort
/// otherwise (see the file comment).
/// `scratch` must hold at least data.size() elements; it is clobbered.
template <typename T, typename Comp = std::less<>>
void serial_sort(std::span<T> data, std::span<T> scratch, Comp comp = {}) {
  MLM_REQUIRE(scratch.size() >= data.size(),
              "scratch must be at least input size");
  if constexpr (std::is_same_v<T, std::int64_t> &&
                (std::is_same_v<Comp, std::less<>> ||
                 std::is_same_v<Comp, std::less<std::int64_t>>)) {
    radix_sort(data, scratch);
  } else if constexpr (is_record_v<T> &&
                       (std::is_same_v<Comp, std::less<>> ||
                        std::is_same_v<Comp, std::less<T>>)) {
    radix_sort_records(data, scratch);
  } else {
    std::sort(data.begin(), data.end(), comp);
  }
}

}  // namespace mlm::sort
