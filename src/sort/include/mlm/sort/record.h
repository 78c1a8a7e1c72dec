// Fixed-size key+payload records and the two merge layouts over them.
//
// The paper's kernels sort bare 64-bit integers; real sort workloads
// carry payloads.  With the natural AoS layout every merge comparison
// drags the full record through the cache hierarchy even though the
// loser tree only ever looks at the 8-byte key — for a 64-byte record
// that is an 8x waste of the scarce near-tier bandwidth the whole
// buffering model is built around.  The SoA key/payload-split layout
// (mlm/sort/split_merge.h) merges dense key mirrors instead and moves
// each payload exactly once, in streak-sized contiguous copies on the
// existing streaming-copy kernels.  It serves the in-memory record sort
// (sort_records); the external NVM merge (mlm/core/external_sort.h)
// merges whole records only, since at its block-staged shapes the split
// merge measured no faster.
//
// Records order by key alone; run order breaks ties in every merge
// (LoserTree and multiway_merge are stable), and every record sort's
// local runs are stable (radix_sort_records, or std::stable_sort for
// sort_records' AoS layout), so the two layouts produce byte-identical
// output even with duplicate keys.  For the same reason MlmSorter and
// ExternalMlmSorter over Record<N> are stable: their output equals
// std::stable_sort of the input.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "mlm/sort/input_gen.h"
#include "mlm/support/proptest.h"

namespace mlm::sort {

/// POD record: an 8-byte key plus an opaque payload.
template <std::size_t PayloadBytes>
struct Record {
  std::uint64_t key = 0;
  std::array<std::uint8_t, PayloadBytes> payload{};

  /// Records order by key alone (ties resolved by run order in stable
  /// merges), so AoS comparators and key-mirror comparators agree.
  friend bool operator<(const Record& a, const Record& b) {
    return a.key < b.key;
  }
  friend bool operator==(const Record& a, const Record& b) = default;
};

/// The paper's element size (key-only records pad to 16) and a
/// payload-heavy one cache line wide.
using Record16 = Record<8>;
using Record64 = Record<56>;

/// Whether T is some Record<N>: serial_sort's record dispatch.
template <typename T>
inline constexpr bool is_record_v = false;
template <std::size_t N>
inline constexpr bool is_record_v<Record<N>> = true;

static_assert(sizeof(Record16) == 16);
static_assert(sizeof(Record64) == 64);

/// How the sort/merge path lays records out.
enum class RecordLayout : std::uint8_t {
  Aos,      ///< merge whole records (array-of-structs)
  SoaSplit, ///< merge 8-byte key mirrors; copy payloads per streak
};

inline const char* to_string(RecordLayout layout) {
  switch (layout) {
    case RecordLayout::Aos: return "aos";
    case RecordLayout::SoaSplit: return "soa";
  }
  return "?";
}

RecordLayout parse_record_layout(const std::string& name);

/// Both layouts, for layout-grid benches and identity sweeps.
inline constexpr RecordLayout kAllRecordLayouts[] = {RecordLayout::Aos,
                                                     RecordLayout::SoaSplit};

namespace record_detail {
/// splitmix64 finalizer: payload bytes are a pure function of (key,
/// index), so regenerating an input always yields identical records and
/// any payload corruption breaks the digest.
inline std::uint64_t mix(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}
}  // namespace record_detail

/// Fill `out` with records whose keys follow `order` (same generator as
/// the scalar benches) and whose payloads are a deterministic function
/// of (key, position) — so equal keys carry distinct payloads, which is
/// exactly what makes layout-identity tests meaningful under
/// FewDistinct.
template <std::size_t N>
void generate_records(std::span<Record<N>> out, InputOrder order,
                      std::uint64_t seed) {
  std::vector<std::int64_t> keys(out.size());
  generate_input(keys, order, seed);
  for (std::size_t i = 0; i < out.size(); ++i) {
    Record<N>& r = out[i];
    r.key = static_cast<std::uint64_t>(keys[i]);
    std::uint64_t state = record_detail::mix(r.key ^ (i * 0xa076'1d64'78bd'642fULL));
    for (std::size_t b = 0; b < N; ++b) {
      if (b % 8 == 0) state = record_detail::mix(state);
      r.payload[b] = static_cast<std::uint8_t>(state >> ((b % 8) * 8));
    }
  }
}

/// FNV-1a digest of the raw record bytes — the byte-identity yardstick
/// for AoS-vs-SoA acceptance sweeps.
template <std::size_t N>
std::uint64_t record_digest(std::span<const Record<N>> records) {
  return mlm::fnv1a64(
      reinterpret_cast<const std::uint8_t*>(records.data()),
      records.size() * sizeof(Record<N>));
}

}  // namespace mlm::sort
