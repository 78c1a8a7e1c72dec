// Serial comparison sorts.
//
// MLM-sort's key design decision (Section 4) is to sort each thread's
// chunk with "the best available serial sorting algorithm" — std::sort
// (libstdc++'s introsort) — rather than relying on multithreaded sort
// scaling to hundreds of cores.  serial_sort is the one seam every
// per-chunk caller goes through (MLM-sort, funnelsort's base case,
// gnu_like_parallel_sort), so a different serial kernel plugs in here.
//
// insertion_sort and heapsort are standalone kernels with no caller
// outside their tests; ROADMAP item 2(a) lists them for deletion.
#pragma once

#include <algorithm>
#include <cstddef>
#include <functional>
#include <iterator>
#include <utility>

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

/// The serial sort MLM-sort uses for per-thread chunks.  Not stable.
template <typename It, typename Comp = std::less<>>
void serial_sort(It first, It last, Comp comp = {}) {
  std::sort(first, last, comp);
}

}  // namespace mlm::sort
