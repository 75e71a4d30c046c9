// Coarse occupancy grid for empty-space skipping: OR-reduction of the fine
// occupancy bitmap over `factor`-sized blocks, dilated by one coarse cell so
// trilinear stencils near block borders stay safe. DVGO/VQRF skip empty
// space the same way on GPU; the accelerator's BLU serves the equivalent
// role with the per-subgrid bitmap.
#pragma once

#include <algorithm>

#include "grid/bitmap.hpp"

namespace spnerf {

/// Cell of a `dims`-sized grid spanning [0,1]^3 that contains world point
/// `p`, clamped into range. The one world->cell rule every skip structure
/// shares, so their cell walks agree bit for bit.
[[nodiscard]] inline Vec3i WorldCell(const GridDims& dims, Vec3f p) {
  const auto cell = [](float w, int n) {
    return std::clamp(static_cast<int>(w * static_cast<float>(n)), 0, n - 1);
  };
  return {cell(p.x, dims.nx), cell(p.y, dims.ny), cell(p.z, dims.nz)};
}

class CoarseOccupancy {
 public:
  CoarseOccupancy() = default;

  /// Builds from a fine bitmap. `factor` fine cells per coarse cell per axis.
  static CoarseOccupancy Build(const BitGrid& fine, int factor);

  /// Reconstructs from an already-reduced (and dilated) coarse bitmap —
  /// the deserialization path; `Build` remains the only way to derive one.
  static CoarseOccupancy FromBits(BitGrid coarse, int factor);

  [[nodiscard]] int Factor() const { return factor_; }
  [[nodiscard]] const GridDims& CoarseDims() const { return coarse_.Dims(); }
  [[nodiscard]] const BitGrid& Bits() const { return coarse_; }

  /// Is the coarse cell containing world point `p` (in [0,1]^3) occupied?
  /// Out-of-range points report unoccupied.
  [[nodiscard]] bool OccupiedAtWorld(Vec3f p) const;

  /// Coarse cell containing a world point (clamped).
  [[nodiscard]] Vec3i CellOfWorld(Vec3f p) const {
    return WorldCell(coarse_.Dims(), p);
  }

  /// World-space bounds of a coarse cell.
  [[nodiscard]] Aabb CellBounds(Vec3i cell) const;

 private:
  BitGrid coarse_;
  int factor_ = 1;
};

}  // namespace spnerf
