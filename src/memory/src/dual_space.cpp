#include "mlm/memory/dual_space.h"

namespace mlm {

DualSpace::DualSpace(const DualSpaceConfig& config)
    : hier_(HierarchyConfig{
          {TierConfig{"ddr", MemKind::DDR, config.ddr_bytes},
           TierConfig{"mcdram", MemKind::MCDRAM, config.mcdram_bytes}},
          config.mode,
          config.hybrid_flat_fraction}) {}

}  // namespace mlm
