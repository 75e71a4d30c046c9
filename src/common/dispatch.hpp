// The scheduler has one implementation (common/parallel.hpp): lock-free
// work tokens plus CAS admission in serve/. This constant survives only
// because the repository benchmark (perfbench/) still reads the mode to
// refuse non-default runs and to label its host block; delete it once the
// benchmark stops reading it.
#pragma once

#include "common/types.hpp"

namespace spnerf::dispatch {

enum class Mode : u8 { kLockFree };

[[nodiscard]] constexpr Mode ActiveMode() { return Mode::kLockFree; }

[[nodiscard]] constexpr const char* ModeName(Mode) { return "lockfree"; }

}  // namespace spnerf::dispatch
