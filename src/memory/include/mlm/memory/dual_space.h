// DualSpace: a small owning two-tier (DDR -> MCDRAM) MemoryHierarchy,
// configured for one of the KNL MCDRAM usage modes.
//
// In flat mode the full 16 GB of MCDRAM is an addressable scratchpad.
// In hybrid mode only the flat fraction is addressable; the rest serves
// the hardware cache.  In (implicit) cache mode and DDR-only mode there
// is no addressable MCDRAM at all — algorithms allocate from DDR and the
// (modeled or real) hardware cache provides any speedup.
//
// The library speaks MemoryHierarchy / TierPair
// (mlm/memory/memory_hierarchy.h); DualSpace only builds the two-tier
// case from the paper's four knobs.  Its conversion to TierPair lets a
// DualSpace be handed straight to a chunked algorithm.
#pragma once

#include <cstdint>

#include "mlm/memory/memory_hierarchy.h"
#include "mlm/memory/memory_space.h"

namespace mlm {

/// Configuration for a DualSpace.
struct DualSpaceConfig {
  McdramMode mode = McdramMode::Flat;
  /// Physical MCDRAM size (KNL: 16 GiB).
  std::uint64_t mcdram_bytes = 16ull << 30;
  /// Fraction of MCDRAM used as scratchpad in Hybrid mode (KNL BIOS
  /// offers 25%, 50%, 75%; the paper's hybrid runs used 50%).
  double hybrid_flat_fraction = 0.5;
  /// DDR capacity; 0 = unlimited.
  std::uint64_t ddr_bytes = 0;
};

/// The memory environment of one KNL node under a given usage mode:
/// tier 0 is DDR, tier 1 is MCDRAM.
class DualSpace {
 public:
  explicit DualSpace(const DualSpaceConfig& config);

  MemoryHierarchy& hierarchy() { return hier_; }
  const MemoryHierarchy& hierarchy() const { return hier_; }

  /// The (DDR, MCDRAM) pair chunked algorithms stream across; the near
  /// side is null when the mode leaves no addressable MCDRAM.
  TierPair tier_pair() { return hier_.pair(0); }
  operator TierPair() { return tier_pair(); }

  MemorySpace& ddr() { return hier_.tier(0); }
  const MemorySpace& ddr() const { return hier_.tier(0); }

  /// The addressable MCDRAM space.  Throws Error if the current mode has
  /// no addressable MCDRAM (Cache / ImplicitCache / DdrOnly).
  MemorySpace& mcdram() { return hier_.tier(1); }
  const MemorySpace& mcdram() const { return hier_.tier(1); }

 private:
  MemoryHierarchy hier_;
};

}  // namespace mlm
