// Empty-space skipping has one implementation: the occupancy octree
// (grid/occupancy_octree.hpp) marched by VolumeRenderer. This constant
// survives only because the repository benchmark (perfbench/) still reads
// the mode to refuse non-default runs and to label its host block; delete
// it once the benchmark stops reading it.
#pragma once

#include "common/types.hpp"

namespace spnerf::skip {

enum class Mode : u8 { kOctree };

[[nodiscard]] constexpr Mode ActiveMode() { return Mode::kOctree; }

[[nodiscard]] constexpr const char* ModeName(Mode) { return "octree"; }

}  // namespace spnerf::skip
