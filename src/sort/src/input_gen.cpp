#include "mlm/sort/input_gen.h"

#include "mlm/support/error.h"
#include "mlm/support/rng.h"

namespace mlm::sort {

const char* to_string(InputOrder order) {
  switch (order) {
    case InputOrder::Random: return "random";
    case InputOrder::Reverse: return "reverse";
    case InputOrder::Sorted: return "sorted";
    case InputOrder::NearlySorted: return "nearly-sorted";
    case InputOrder::FewDistinct: return "few-distinct";
  }
  return "?";
}

InputOrder parse_input_order(const std::string& name) {
  if (name == "random") return InputOrder::Random;
  if (name == "reverse") return InputOrder::Reverse;
  if (name == "sorted") return InputOrder::Sorted;
  if (name == "nearly-sorted") return InputOrder::NearlySorted;
  if (name == "few-distinct") return InputOrder::FewDistinct;
  throw InvalidArgumentError("unknown input order: " + name);
}

void generate_input(std::span<std::int64_t> out, InputOrder order,
                    std::uint64_t seed) {
  Xoshiro256ss rng(seed);
  const std::size_t n = out.size();
  switch (order) {
    case InputOrder::Random:
      for (auto& v : out) v = static_cast<std::int64_t>(rng.next());
      return;
    case InputOrder::Reverse:
      for (std::size_t i = 0; i < n; ++i) {
        out[i] = static_cast<std::int64_t>(n - i);
      }
      return;
    case InputOrder::Sorted:
      for (std::size_t i = 0; i < n; ++i) {
        out[i] = static_cast<std::int64_t>(i);
      }
      return;
    case InputOrder::NearlySorted: {
      for (std::size_t i = 0; i < n; ++i) {
        out[i] = static_cast<std::int64_t>(i);
      }
      const std::size_t swaps = n / 100 + 1;
      for (std::size_t s = 0; s < swaps && n >= 2; ++s) {
        const std::size_t a = rng.bounded(n);
        const std::size_t b = rng.bounded(n);
        std::swap(out[a], out[b]);
      }
      return;
    }
    case InputOrder::FewDistinct:
      for (auto& v : out) {
        v = static_cast<std::int64_t>(rng.bounded(16));
      }
      return;
  }
  throw InvalidArgumentError("unhandled input order");
}

std::vector<std::int64_t> make_input(std::size_t n, InputOrder order,
                                     std::uint64_t seed) {
  std::vector<std::int64_t> v(n);
  generate_input(v, order, seed);
  return v;
}

InputChecksum checksum(std::span<const std::int64_t> data) {
  InputChecksum c;
  for (std::int64_t v : data) {
    // Mixing first keeps value sets with equal raw sums and xors ({1, 2}
    // and {0, 3}) apart.
    const std::uint64_t h = SplitMix64(static_cast<std::uint64_t>(v)).next();
    c.sum += h;
    c.xor_ ^= h;
  }
  return c;
}

}  // namespace mlm::sort
