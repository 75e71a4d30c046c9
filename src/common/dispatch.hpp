// A frozen label, not a description of the scheduler. The scheduler has one
// implementation (common/parallel.hpp), one mutex per scheduler, and no
// mode. The repository benchmark (perfbench/) still compiles against
// `Mode::kLockFree` and prints "lockfree" in its host block, so those names
// stay byte-for-byte until the benchmark stops reading them; then delete
// this header.
#pragma once

#include "common/types.hpp"

namespace spnerf::dispatch {

enum class Mode : u8 { kLockFree };

[[nodiscard]] constexpr Mode ActiveMode() { return Mode::kLockFree; }

[[nodiscard]] constexpr const char* ModeName(Mode) { return "lockfree"; }

}  // namespace spnerf::dispatch
