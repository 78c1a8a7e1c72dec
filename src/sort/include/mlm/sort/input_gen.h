// Workload input generators for sorting experiments.
//
// The paper evaluates on 64-bit integer arrays in two orders: uniformly
// random and reverse-sorted (Table 1 / Figure 6).  We add nearly-sorted
// and few-distinct distributions for the extended test/bench matrix.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

namespace mlm::sort {

/// Input orders / distributions.
enum class InputOrder : std::uint8_t {
  Random,       ///< uniform random uint64 (paper, Fig. 6a)
  Reverse,      ///< strictly decreasing (paper, Fig. 6b)
  Sorted,       ///< already ascending
  NearlySorted, ///< ascending with ~1% random swaps
  FewDistinct,  ///< uniform over 16 distinct values (duplicate-heavy)
};

const char* to_string(InputOrder order);

/// Parse "random" / "reverse" / ... (as used by bench CLI flags);
/// throws InvalidArgumentError on unknown names.
InputOrder parse_input_order(const std::string& name);

/// Fill `out` according to `order`; deterministic for a given seed.
void generate_input(std::span<std::int64_t> out, InputOrder order,
                    std::uint64_t seed);

/// Convenience allocating wrapper.
std::vector<std::int64_t> make_input(std::size_t n, InputOrder order,
                                     std::uint64_t seed);

/// Order-independent checksum (sum mod 2^64 plus xor of each value's
/// splitmix64 hash) used to verify that sorting permuted rather than
/// corrupted the data.
struct InputChecksum {
  std::uint64_t sum = 0;
  std::uint64_t xor_ = 0;
  friend bool operator==(const InputChecksum&, const InputChecksum&) =
      default;
};

InputChecksum checksum(std::span<const std::int64_t> data);

}  // namespace mlm::sort
