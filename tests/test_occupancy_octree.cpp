// Occupancy-octree tests: build/reduction invariants (parent bit == OR of
// children at every level, leaf level bit-identical to CoarseOccupancy,
// dilation preserved through the pyramid), the shallowest-empty-ancestor
// query, and the DDA skip chain's bit-exactness against a brute-force
// replay of the flat reference chain on random, axis-aligned, diagonal and
// boundary-origin rays.
#include "grid/occupancy_octree.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "render/camera.hpp"
#include "render/volume_renderer.hpp"
#include "support/reference_render.hpp"

namespace spnerf {
namespace {

BitGrid RandomFine(GridDims dims, int set_bits, u64 seed) {
  BitGrid b(dims);
  Rng rng(seed);
  for (int i = 0; i < set_bits; ++i) {
    b.Set(Vec3i{rng.UniformInt(0, dims.nx - 1), rng.UniformInt(0, dims.ny - 1),
                rng.UniformInt(0, dims.nz - 1)},
          true);
  }
  return b;
}

CoarseOccupancy RandomCoarse(int set_bits = 40, u64 seed = 7) {
  return CoarseOccupancy::Build(RandomFine({40, 40, 40}, set_bits, seed), 4);
}

// ------------------------------------------------------ build invariants --

TEST(OccupancyOctree, LeafLevelIsBitIdenticalToCoarse) {
  const CoarseOccupancy coarse = RandomCoarse();
  const OccupancyOctree tree = OccupancyOctree::Build(coarse);
  EXPECT_EQ(tree.Factor(), coarse.Factor());
  EXPECT_EQ(tree.LeafDims(), coarse.CoarseDims());
  EXPECT_EQ(tree.LeafBits().Words(), coarse.Bits().Words());
}

TEST(OccupancyOctree, BoundaryTablesMatchCellBoundsBitwise) {
  // The marcher replaces the CellBounds divisions with these table loads;
  // bit-exactness of the whole render hinges on every entry being the
  // exact division result.
  const OccupancyOctree tree = OccupancyOctree::Build(RandomCoarse());
  const GridDims& d = tree.LeafDims();
  for (int i = 0; i <= d.nx; ++i) {
    ASSERT_EQ(tree.BoundaryX()[i],
              static_cast<float>(i) / static_cast<float>(d.nx));
  }
  for (int i = 0; i <= d.ny; ++i) {
    ASSERT_EQ(tree.BoundaryY()[i],
              static_cast<float>(i) / static_cast<float>(d.ny));
  }
  for (int i = 0; i <= d.nz; ++i) {
    ASSERT_EQ(tree.BoundaryZ()[i],
              static_cast<float>(i) / static_cast<float>(d.nz));
  }
}

TEST(OccupancyOctree, ParentBitIsOrOfChildrenAtEveryLevel) {
  const OccupancyOctree tree = OccupancyOctree::Build(RandomCoarse());
  ASSERT_GE(tree.Levels(), 2);
  for (int l = 0; l + 1 < tree.Levels(); ++l) {
    const BitGrid& parent = tree.Level(l);
    const BitGrid& child = tree.Level(l + 1);
    const GridDims& pd = parent.Dims();
    const GridDims& cd = child.Dims();
    for (int x = 0; x < pd.nx; ++x) {
      for (int y = 0; y < pd.ny; ++y) {
        for (int z = 0; z < pd.nz; ++z) {
          bool any = false;
          for (int dx = 0; dx < 2 && !any; ++dx) {
            for (int dy = 0; dy < 2 && !any; ++dy) {
              for (int dz = 0; dz < 2 && !any; ++dz) {
                const Vec3i q{2 * x + dx, 2 * y + dy, 2 * z + dz};
                if (cd.Contains(q) && child.Test(q)) any = true;
              }
            }
          }
          EXPECT_EQ(parent.Test(Vec3i{x, y, z}), any)
              << "level " << l << " cell " << x << "," << y << "," << z;
        }
      }
    }
  }
}

TEST(OccupancyOctree, RootIsSingleCellAndDimsHalve) {
  const OccupancyOctree tree = OccupancyOctree::Build(RandomCoarse());
  EXPECT_EQ(tree.Level(0).Dims(), (GridDims{1, 1, 1}));
  for (int l = 0; l + 1 < tree.Levels(); ++l) {
    const GridDims& p = tree.Level(l).Dims();
    const GridDims& c = tree.Level(l + 1).Dims();
    EXPECT_EQ(p.nx, (c.nx + 1) / 2);
    EXPECT_EQ(p.ny, (c.ny + 1) / 2);
    EXPECT_EQ(p.nz, (c.nz + 1) / 2);
  }
  // 10^3 leaf cells: 10 -> 5 -> 3 -> 2 -> 1.
  EXPECT_EQ(tree.Levels(), 5);
}

TEST(OccupancyOctree, DilationSurvivesTheReduction) {
  // One fine point dilates to a 3x3x3 coarse neighbourhood; every dilated
  // leaf must be occupied in the tree, and so must every ancestor above it.
  BitGrid fine(GridDims{40, 40, 40});
  fine.Set(Vec3i{20, 20, 20}, true);
  const CoarseOccupancy coarse = CoarseOccupancy::Build(fine, 4);
  const OccupancyOctree tree = OccupancyOctree::Build(coarse);
  const int leaf = tree.Levels() - 1;
  for (int x = 4; x <= 6; ++x) {
    for (int y = 4; y <= 6; ++y) {
      for (int z = 4; z <= 6; ++z) {
        EXPECT_TRUE(tree.LeafBits().Test(Vec3i{x, y, z}));
        for (int l = 0; l < leaf; ++l) {
          const int shift = leaf - l;
          EXPECT_TRUE(tree.Level(l).Test(Vec3i{x >> shift, y >> shift, z >> shift}));
        }
      }
    }
  }
}

TEST(OccupancyOctree, EmptySceneReducesToEmptyRoot) {
  const CoarseOccupancy coarse =
      CoarseOccupancy::Build(BitGrid(GridDims{40, 40, 40}), 4);
  const OccupancyOctree tree = OccupancyOctree::Build(coarse);
  EXPECT_FALSE(tree.Level(0).Test(Vec3i{0, 0, 0}));
  OctreeRayCache cache;
  ASSERT_TRUE(tree.FindEmptyNode(Vec3i{3, 7, 9}, cache));
  // The root is the shallowest empty node and covers the whole grid.
  EXPECT_EQ(cache.level, 0);
  EXPECT_EQ(cache.lo, (Vec3i{0, 0, 0}));
  EXPECT_EQ(cache.hi, (Vec3i{10, 10, 10}));
}

TEST(OccupancyOctree, FromLevelsRejectsBrokenReduction) {
  const OccupancyOctree tree = OccupancyOctree::Build(RandomCoarse());
  std::vector<BitGrid> levels;
  for (int l = 0; l < tree.Levels(); ++l) levels.push_back(tree.Level(l));
  // A valid pyramid round-trips.
  (void)OccupancyOctree::FromLevels(levels, tree.Factor());
  // Clearing the root bit contradicts the occupied leaves below it.
  levels[0] = BitGrid(GridDims{1, 1, 1});
  EXPECT_THROW((void)OccupancyOctree::FromLevels(levels, tree.Factor()),
               SpnerfError);
}

// --------------------------------------------- empty-node query semantics --

TEST(OccupancyOctree, FindsShallowestEmptyAncestor) {
  const CoarseOccupancy coarse = RandomCoarse();
  const OccupancyOctree tree = OccupancyOctree::Build(coarse);
  const GridDims& ld = tree.LeafDims();
  const int leaf = tree.Levels() - 1;
  for (int x = 0; x < ld.nx; ++x) {
    for (int y = 0; y < ld.ny; ++y) {
      for (int z = 0; z < ld.nz; ++z) {
        const Vec3i c{x, y, z};
        OctreeRayCache cache;
        const bool empty = tree.FindEmptyNode(c, cache);
        ASSERT_EQ(empty, !coarse.Bits().Test(c));
        if (!empty) continue;
        ASSERT_TRUE(cache.Covers(c));
        // The node's whole leaf range is empty...
        for (int i = cache.lo.x; i < cache.hi.x; ++i) {
          for (int j = cache.lo.y; j < cache.hi.y; ++j) {
            for (int k = cache.lo.z; k < cache.hi.z; ++k) {
              ASSERT_FALSE(coarse.Bits().Test(Vec3i{i, j, k}));
            }
          }
        }
        // ...and it is the shallowest: the parent node (if any) is occupied.
        if (cache.level > 0) {
          const int shift = leaf - (cache.level - 1);
          EXPECT_TRUE(tree.Level(cache.level - 1)
                          .Test(Vec3i{x >> shift, y >> shift, z >> shift}));
        }
      }
    }
  }
}

TEST(OccupancyOctree, OccupiedAtAgreesWithLeafBitsEverywhere) {
  const CoarseOccupancy coarse = RandomCoarse(60, 21);
  const OccupancyOctree tree = OccupancyOctree::Build(coarse);
  const GridDims& ld = tree.LeafDims();
  OctreeRayCache cache;  // deliberately reused across cells, like a ray does
  for (int x = 0; x < ld.nx; ++x) {
    for (int y = 0; y < ld.ny; ++y) {
      for (int z = 0; z < ld.nz; ++z) {
        const Vec3i c{x, y, z};
        ASSERT_EQ(tree.OccupiedAt(c, cache), coarse.Bits().Test(c))
            << x << "," << y << "," << z;
      }
    }
  }
}

// ------------------------------------------------- DDA chain bit-exactness --

/// One step of the octree DDA chain (cache + CellExitTDda).
float OctreeStep(const OccupancyOctree& tree, const Ray& ray, float t,
                 float step, OctreeRayCache& cache, bool& occupied) {
  const Vec3f p = ray.At(t);
  const bool inside = !(p.x < 0.f || p.x > 1.f || p.y < 0.f || p.y > 1.f ||
                        p.z < 0.f || p.z > 1.f);
  const Vec3i cell = tree.LeafCellOfWorld(p);
  if (inside && tree.OccupiedAt(cell, cache)) {
    occupied = true;
    return t;
  }
  occupied = false;
  const float exit_t =
      render_detail::CellExitTDda(ray, cell, tree.LeafDims(), t);
  return std::max(exit_t + render_detail::kSkipForwardEpsilon, t + step);
}

/// Marches `ray` through both chains in lockstep across the whole box and
/// demands bitwise-equal t values, identical cell walks and identical
/// occupancy verdicts at every step.
void ExpectChainsIdentical(const CoarseOccupancy& coarse,
                           const OccupancyOctree& tree, const Ray& ray,
                           float step = 0.003f) {
  const Aabb box{{0.f, 0.f, 0.f}, {1.f, 1.f, 1.f}};
  float t_near = 0.f, t_far = 0.f;
  if (!IntersectAabb(ray, box, t_near, t_far)) return;
  float t_flat = t_near;
  float t_tree = t_near;
  OctreeRayCache cache;
  int steps = 0;
  while (t_flat < t_far) {
    ASSERT_EQ(t_flat, t_tree) << "chains diverged after " << steps << " steps";
    ASSERT_EQ(coarse.CellOfWorld(ray.At(t_flat)),
              coarse.CellOfWorld(ray.At(t_tree)));
    bool occ_flat = false, occ_tree = false;
    t_flat = test::FlatStep(coarse, ray, t_flat, step, occ_flat);
    t_tree = OctreeStep(tree, ray, t_tree, step, cache, occ_tree);
    ASSERT_EQ(occ_flat, occ_tree) << "occupancy verdicts diverged at t=" << t_flat;
    if (occ_flat) {
      // Both chains sample here; advance past it the way the marcher does.
      t_flat += step;
      t_tree += step;
    }
    ASSERT_LT(++steps, 100000) << "skip chain failed to progress";
  }
  EXPECT_GE(t_tree, t_far);
}

TEST(OctreeDda, CellExitTDdaMatchesCellExitTBitwise) {
  const CoarseOccupancy coarse = RandomCoarse();
  const GridDims& ld = coarse.CoarseDims();
  Rng rng(33);
  for (int i = 0; i < 2000; ++i) {
    Ray ray;
    ray.origin = Vec3f{rng.Uniform(-0.3f, 1.3f), rng.Uniform(-0.3f, 1.3f),
                       rng.Uniform(-0.3f, 1.3f)};
    ray.direction = Vec3f{rng.Uniform(-1.f, 1.f), rng.Uniform(-1.f, 1.f),
                          rng.Uniform(-1.f, 1.f)};
    if (i % 5 == 0) ray.direction.x = 0.f;   // axis-degenerate components
    if (i % 7 == 0) ray.direction.y = 0.f;
    const Vec3i cell{rng.UniformInt(0, ld.nx - 1), rng.UniformInt(0, ld.ny - 1),
                     rng.UniformInt(0, ld.nz - 1)};
    const float t = rng.Uniform(0.f, 2.f);
    const float expect =
        test::CellExitT(ray, coarse.CellBounds(cell), t);
    const float got = render_detail::CellExitTDda(ray, cell, ld, t);
    ASSERT_EQ(expect, got) << "ray " << i;
  }
}

TEST(OctreeDda, RandomRaysWalkIdenticallyToFlat) {
  const CoarseOccupancy coarse = RandomCoarse(30, 91);
  const OccupancyOctree tree = OccupancyOctree::Build(coarse);
  Rng rng(5);
  for (int i = 0; i < 200; ++i) {
    Ray ray;
    ray.origin = Vec3f{rng.Uniform(-0.5f, 1.5f), rng.Uniform(-0.5f, 1.5f),
                       rng.Uniform(-0.5f, 1.5f)};
    ray.direction =
        (Vec3f{rng.Uniform(-1.f, 1.f), rng.Uniform(-1.f, 1.f),
                        rng.Uniform(-1.f, 1.f)});
    ExpectChainsIdentical(coarse, tree, ray);
  }
}

TEST(OctreeDda, AxisAlignedRaysWalkIdenticallyToFlat) {
  const CoarseOccupancy coarse = RandomCoarse(50, 13);
  const OccupancyOctree tree = OccupancyOctree::Build(coarse);
  for (int axis = 0; axis < 3; ++axis) {
    for (int sign = -1; sign <= 1; sign += 2) {
      Vec3f dir{0.f, 0.f, 0.f};
      dir[axis] = static_cast<float>(sign);
      Rng rng(static_cast<u64>(100 + axis * 2 + sign));
      for (int i = 0; i < 30; ++i) {
        Ray ray;
        ray.origin = Vec3f{rng.Uniform(0.f, 1.f), rng.Uniform(0.f, 1.f),
                           rng.Uniform(0.f, 1.f)};
        ray.origin[axis] = sign > 0 ? -0.2f : 1.2f;
        ray.direction = dir;
        ExpectChainsIdentical(coarse, tree, ray);
      }
    }
  }
}

TEST(OctreeDda, DiagonalAndBoundaryOriginRaysWalkIdenticallyToFlat) {
  const CoarseOccupancy coarse = RandomCoarse(45, 77);
  const OccupancyOctree tree = OccupancyOctree::Build(coarse);
  // Exact corner-to-corner diagonals.
  for (const Vec3f d : {Vec3f{1.f, 1.f, 1.f}, Vec3f{1.f, -1.f, 1.f},
                        Vec3f{-1.f, 1.f, 1.f}, Vec3f{1.f, 1.f, -1.f}}) {
    Ray ray;
    ray.origin = Vec3f{d.x > 0 ? -0.1f : 1.1f, d.y > 0 ? -0.1f : 1.1f,
                       d.z > 0 ? -0.1f : 1.1f};
    ray.direction = d.Normalized();
    ExpectChainsIdentical(coarse, tree, ray);
  }
  // Origins exactly on cell boundaries (t_near = 0 lands on a face).
  Rng rng(3);
  for (int i = 0; i < 40; ++i) {
    Ray ray;
    const GridDims& ld = coarse.CoarseDims();
    ray.origin = Vec3f{
        static_cast<float>(rng.UniformInt(0, ld.nx)) / static_cast<float>(ld.nx),
        static_cast<float>(rng.UniformInt(0, ld.ny)) / static_cast<float>(ld.ny),
        static_cast<float>(rng.UniformInt(0, ld.nz)) / static_cast<float>(ld.nz)};
    ray.direction =
        (Vec3f{rng.Uniform(-1.f, 1.f), rng.Uniform(-1.f, 1.f),
                        rng.Uniform(-1.f, 1.f)});
    ExpectChainsIdentical(coarse, tree, ray);
  }
}

}  // namespace
}  // namespace spnerf
