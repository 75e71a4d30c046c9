// Empty-space-skip structure selection for the ray marchers: the
// hierarchical occupancy octree (multi-level DDA skipping), or the original
// flat per-supervoxel CoarseOccupancy probe kept in-tree as the
// differential oracle — the same scalar-reference-first rule the SIMD layer
// follows (common/simd.hpp).
//
//   * The mode is process-global, resolved once from the SPNF_SKIP
//     environment variable ("octree" | "flat"); absent or unparseable
//     values resolve to octree (the default fast path).
//   * Renderers capture the mode AT CONSTRUCTION (the engine builds one
//     VolumeRenderer per job), so a job never changes skip structure
//     mid-render; tests and benches flip the mode programmatically via
//     SetActiveMode and construct fresh jobs per mode.
//   * Both modes are required to produce bit-identical results: images,
//     RenderStats (including coarse_skips/steps) and DecodeCounters — the
//     octree path replays the flat path's t-update chain across empty
//     cells exactly, and the differential CI legs run the render suites
//     under both.
#pragma once

#include <string_view>

#include "common/types.hpp"

namespace spnerf::skip {

/// Skip structures. kFlat is the original one-probe-per-supervoxel path —
/// always available, and the correctness oracle kOctree is differentially
/// tested against.
enum class Mode : u8 {
  kFlat = 0,
  kOctree,
};

/// Lower-case mode name ("flat", "octree") — used in bench entry names and
/// the SPNF_SKIP override.
[[nodiscard]] const char* ModeName(Mode mode);

/// Parses a mode name; returns false (and leaves `out` untouched) for
/// unknown strings. Case-sensitive: the override contract is lower-case.
bool ParseModeName(std::string_view name, Mode& out);

/// The mode newly constructed renderers adopt. First call resolves the
/// SPNF_SKIP override; later calls are one relaxed atomic load.
[[nodiscard]] Mode ActiveMode();

/// Forces the mode for renderers constructed from now on (tests, benches,
/// operational override). Returns the previously active mode, so callers
/// can save/restore around a scoped override.
Mode SetActiveMode(Mode mode);

/// Pure resolution rule for an override string, exposed for tests:
/// nullptr/empty -> kOctree (default); a parseable name -> that mode;
/// garbage -> kOctree with a warning.
[[nodiscard]] Mode ResolveOverride(const char* value);

}  // namespace spnerf::skip
