// Hierarchical occupancy octree for multi-level empty-space skipping: a
// pointerless, level-ordered pyramid of occupancy bitmaps reduced bottom-up
// from the dilated coarse skip bitmap. Level L-1 (the leaf level) is
// bit-identical to CoarseOccupancy::Bits(); each coarser level ORs 2x2x2
// child blocks, so a parent is empty exactly when all its children are
// empty. Node addressing is implicit — the ancestor of leaf cell c at depth
// d above the leaves is simply c >> d — so the whole structure is a handful
// of BitGrids and traversal needs no pointer chasing.
//
// The ray marcher uses it through a per-ray cache (OctreeRayCache): when a
// sample lands in an empty leaf, one root-down descent finds the SHALLOWEST
// empty ancestor and caches its leaf-cell range, and the march jumps the
// samples up to the ray's exit from that node; a sample still inside the
// range is answered by six integer compares, with no bitmap probe at all.
// Occupied leaves cost exactly one leaf-bit probe — the same as a flat
// bitmap — so dense scenes pay no hierarchy tax.
#pragma once

#include <vector>

#include "grid/occupancy.hpp"

namespace spnerf {

/// Per-ray traversal state: the leaf-cell range [lo, hi) of the empty
/// octree node the ray is currently crossing, plus the level it was found
/// at (root = 0; -1 = no cached node yet). Reset per ray, never shared.
struct OctreeRayCache {
  Vec3i lo{0, 0, 0};
  Vec3i hi{0, 0, 0};
  i32 level = -1;

  [[nodiscard]] bool Covers(Vec3i c) const {
    return level >= 0 && c.x >= lo.x && c.x < hi.x && c.y >= lo.y &&
           c.y < hi.y && c.z >= lo.z && c.z < hi.z;
  }
};

class OccupancyOctree {
 public:
  OccupancyOctree() = default;

  /// Reduces `coarse` bottom-up: the leaf level copies its (already
  /// dilated) bits, each coarser level ORs 2x2x2 child blocks, down to a
  /// 1x1x1 root. Non-power-of-two dims round up (boundary parents OR the
  /// children that exist).
  static OccupancyOctree Build(const CoarseOccupancy& coarse);

  /// Reconstructs from already-reduced levels (the deserialization path).
  /// `levels` is root-first. Throws SpnerfError unless the level dims form
  /// the exact ceil-halving chain and every parent bit equals the OR of its
  /// children — a corrupt pyramid is rejected, never traversed.
  static OccupancyOctree FromLevels(std::vector<BitGrid> levels, int factor);

  /// Number of levels, root (index 0) through leaf (index Levels()-1).
  [[nodiscard]] int Levels() const { return static_cast<int>(levels_.size()); }
  [[nodiscard]] const BitGrid& Level(int l) const {
    return levels_[static_cast<std::size_t>(l)];
  }
  [[nodiscard]] const BitGrid& LeafBits() const { return levels_.back(); }
  [[nodiscard]] const GridDims& LeafDims() const {
    return levels_.back().Dims();
  }
  /// Leaf cell containing a world point (clamped); equals
  /// CoarseOccupancy::CellOfWorld on the coarse grid it was built from.
  [[nodiscard]] Vec3i LeafCellOfWorld(Vec3f p) const {
    return WorldCell(LeafDims(), p);
  }
  /// Fine voxels per leaf cell per axis (CoarseOccupancy::Factor()).
  [[nodiscard]] int Factor() const { return factor_; }

  /// Shallowest (largest) empty node containing leaf cell `c`. Returns
  /// false when the leaf is occupied; otherwise fills `cache` with the
  /// node's leaf-cell range [lo, hi) and its level. `c` must be in range.
  [[nodiscard]] bool FindEmptyNode(Vec3i c, OctreeRayCache& cache) const;

  /// Is leaf cell `c` occupied? The leaf bit is probed FIRST, so an
  /// occupied cell costs exactly one probe — a flat bitmap's cost on the
  /// sample-step iterations that dominate a march. Empty cells refill
  /// `cache` with a root-down descent only when they leave the cached
  /// region. Agrees with CoarseOccupancy::Bits().Test(c) for every
  /// in-range cell.
  [[nodiscard]] bool OccupiedAt(Vec3i c, OctreeRayCache& cache) const {
    if (levels_.back().Test(c)) return true;
    if (!cache.Covers(c)) (void)FindEmptyNode(c, cache);
    return false;
  }

 private:
  std::vector<BitGrid> levels_;  // root-first; back() is the leaf level
  int factor_ = 1;
};

}  // namespace spnerf
