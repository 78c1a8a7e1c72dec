// Inputs for the parameterised sort suites: every InputOrder plus the
// adversarial shapes that break quicksort-family pivoting or duplicate
// handling.  The extra shapes live here, not in InputOrder, because
// InputOrder names are bench CLI choices.
#pragma once

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "mlm/sort/input_gen.h"
#include "mlm/sort/record.h"

namespace mlm::sort {

// One byte wide, and the InputOrder values keep their numbers, so a suite
// instantiated on TestInput gets the same generated test names ("1-byte
// object <01>") it had on InputOrder.
enum class TestInput : std::uint8_t {
  Random,
  Reverse,
  Sorted,
  NearlySorted,
  FewDistinct,
  OrganPipe,        ///< 0, 1, ..., n/2 - 1, n/2 - 1, ..., 1, 0
  MedianOf3Killer,  ///< Musser's median-of-3 quicksort killer
  AllEqual,
};
static_assert(static_cast<int>(TestInput::FewDistinct) ==
              static_cast<int>(InputOrder::FewDistinct));

/// Size of the adversarial instantiations: 1 Mi int64 (8 MiB).
inline constexpr std::size_t kAdversarialElements = std::size_t{1} << 20;

/// The four adversarial shapes every sort path is checked on.
inline auto adversarial_inputs() {
  return ::testing::Values(TestInput::OrganPipe, TestInput::MedianOf3Killer,
                           TestInput::AllEqual, TestInput::FewDistinct);
}

inline std::string to_string(TestInput input) {
  switch (input) {
    case TestInput::OrganPipe: return "organ-pipe";
    case TestInput::MedianOf3Killer: return "median-of-3-killer";
    case TestInput::AllEqual: return "all-equal";
    default: return to_string(static_cast<InputOrder>(input));
  }
}

/// Test-name fragment: to_string without the dashes gtest rejects.
inline std::string name_of(TestInput input) {
  std::string s = to_string(input);
  s.erase(std::remove(s.begin(), s.end(), '-'), s.end());
  return s;
}

inline std::vector<std::int64_t> make_test_input(std::size_t n,
                                                 TestInput input,
                                                 std::uint64_t seed) {
  std::vector<std::int64_t> v(n);
  switch (input) {
    case TestInput::OrganPipe:
      for (std::size_t i = 0; i < n; ++i) {
        v[i] = static_cast<std::int64_t>(std::min(i, n - 1 - i));
      }
      break;
    case TestInput::MedianOf3Killer: {
      // Musser (1997), "Introspective Sorting and Selection Algorithms":
      // for n = 2k (k even) the permutation 1, k+1, 3, k+3, ..., k-1,
      // 2k-1, 2, 4, ..., 2k drives median-of-3 quicksort to its
      // quadratic worst case.
      const std::size_t k = n / 2;
      for (std::size_t i = 1; i <= k; ++i) {
        if (i % 2 == 1) {
          v[i - 1] = static_cast<std::int64_t>(i);
          v[i] = static_cast<std::int64_t>(k + i);
        }
        v[k + i - 1] = static_cast<std::int64_t>(2 * i);
      }
      break;
    }
    case TestInput::AllEqual:
      std::fill(v.begin(), v.end(), std::int64_t{7});
      break;
    default:
      generate_input(v, static_cast<InputOrder>(input), seed);
      break;
  }
  return v;
}

/// Records keyed by make_test_input's keys, with payloads that are a
/// function of the position alone: equal keys carry distinct payloads,
/// so any tie order shows in the bytes.
template <std::size_t N>
std::vector<Record<N>> make_test_records(std::size_t n, TestInput input,
                                         std::uint64_t seed) {
  const std::vector<std::int64_t> keys = make_test_input(n, input, seed);
  std::vector<Record<N>> out(n);
  for (std::size_t i = 0; i < n; ++i) {
    out[i].key = static_cast<std::uint64_t>(keys[i]);
    std::uint64_t state = record_detail::mix(seed ^ i);
    for (std::size_t b = 0; b < N; ++b) {
      if (b % 8 == 0) state = record_detail::mix(state);
      out[i].payload[b] = static_cast<std::uint8_t>(state >> (b % 8 * 8));
    }
  }
  return out;
}

}  // namespace mlm::sort
