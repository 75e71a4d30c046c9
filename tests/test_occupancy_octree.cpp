// Occupancy-octree tests: build/reduction invariants (parent bit == OR of
// children at every level, leaf level bit-identical to CoarseOccupancy,
// dilation preserved through the pyramid), the shallowest-empty-ancestor
// query, and the octree march, which must take exactly the sample indices
// a per-sample CoarseOccupancy test takes on random, axis-aligned,
// diagonal, boundary-origin, grazing and degenerate-direction rays.
#include "grid/occupancy_octree.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "render/camera.hpp"
#include "render/volume_renderer.hpp"

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

// ------------------------------------------------ octree march exactness --

/// Sample indices of `ray` in [t_near, t_far) on the grid
/// `t_near + float(k) * step`, split into the ones a march takes and the
/// count it passes over.
struct MarchIndices {
  std::vector<u32> taken;
  u64 skipped = 0;
};

/// The oracle: tests CoarseOccupancy at every sample index.
MarchIndices OracleIndices(const CoarseOccupancy& coarse, const Ray& ray,
                           float t_near, float t_far, float step) {
  MarchIndices out;
  for (u32 k = 0;; ++k) {
    const float t = t_near + static_cast<float>(k) * step;
    if (!(t < t_far)) break;
    if (coarse.OccupiedAtWorld(ray.At(t))) {
      out.taken.push_back(k);
    } else {
      ++out.skipped;
    }
  }
  return out;
}

/// Production: render_detail::AdvanceToOccupied over the octree.
MarchIndices OctreeIndices(const OccupancyOctree& tree, const Ray& ray,
                           float t_near, float t_far, float step) {
  render_detail::RayMarch march;
  march.ray = ray;
  march.t_near = t_near;
  march.t_far = t_far;
  MarchIndices out;
  while (render_detail::AdvanceToOccupied(&tree, step, march, nullptr)) {
    out.taken.push_back(march.k);
    ++march.k;
  }
  out.skipped = march.skips;
  return out;
}

/// Marches `ray` both ways across the whole box and demands the identical
/// taken indices and skip count. Returns the oracle's indices.
MarchIndices ExpectSameIndices(const CoarseOccupancy& coarse,
                               const OccupancyOctree& tree, const Ray& ray,
                               float step = 0.003f) {
  const Aabb box{{0.f, 0.f, 0.f}, {1.f, 1.f, 1.f}};
  float t_near = 0.f, t_far = 0.f;
  if (!IntersectAabb(ray, box, t_near, t_far)) return {};
  const MarchIndices want = OracleIndices(coarse, ray, t_near, t_far, step);
  const MarchIndices got = OctreeIndices(tree, ray, t_near, t_far, step);
  EXPECT_EQ(want.taken, got.taken);
  EXPECT_EQ(want.skipped, got.skipped);
  return want;
}

TEST(OctreeMarch, RandomRaysTakeTheOracleIndices) {
  // A dense and a sparse occupancy: the sparse one has large empty nodes,
  // so most skipped indices are passed over by node jumps.
  for (const int set_bits : {30, 6}) {
    const CoarseOccupancy coarse = RandomCoarse(set_bits, 91);
    const OccupancyOctree tree = OccupancyOctree::Build(coarse);
    Rng rng(5);
    u64 taken = 0, skipped = 0;
    for (int i = 0; i < 200; ++i) {
      Ray ray;
      ray.origin = Vec3f{rng.Uniform(-0.5f, 1.5f), rng.Uniform(-0.5f, 1.5f),
                         rng.Uniform(-0.5f, 1.5f)};
      ray.direction = Vec3f{rng.Uniform(-1.f, 1.f), rng.Uniform(-1.f, 1.f),
                            rng.Uniform(-1.f, 1.f)};
      const MarchIndices m = ExpectSameIndices(coarse, tree, ray);
      taken += m.taken.size();
      skipped += m.skipped;
    }
    EXPECT_GT(taken, 0u) << set_bits;
    EXPECT_GT(skipped, 0u) << set_bits;
  }
}

TEST(OctreeMarch, AxisAlignedRaysTakeTheOracleIndices) {
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
        ExpectSameIndices(coarse, tree, ray);
      }
    }
  }
}

TEST(OctreeMarch, DiagonalAndBoundaryOriginRaysTakeTheOracleIndices) {
  const CoarseOccupancy coarse = RandomCoarse(45, 77);
  const OccupancyOctree tree = OccupancyOctree::Build(coarse);
  // Exact corner-to-corner diagonals.
  for (const Vec3f d : {Vec3f{1.f, 1.f, 1.f}, Vec3f{1.f, -1.f, 1.f},
                        Vec3f{-1.f, 1.f, 1.f}, Vec3f{1.f, 1.f, -1.f}}) {
    Ray ray;
    ray.origin = Vec3f{d.x > 0 ? -0.1f : 1.1f, d.y > 0 ? -0.1f : 1.1f,
                       d.z > 0 ? -0.1f : 1.1f};
    ray.direction = d.Normalized();
    ExpectSameIndices(coarse, tree, ray);
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
    ExpectSameIndices(coarse, tree, ray);
  }
}

TEST(OctreeMarch, GrazingRaysOnCellFacesTakeTheOracleIndices) {
  // Rays riding exactly in a leaf-cell face plane, with the component
  // across the plane zero, below the old 1e-12 degenerate-direction
  // threshold, or small enough that the ray drifts across the face within
  // a few cells. Which side of the face a sample lands on is then decided
  // by float rounding, and a node jump must never outrun it.
  const CoarseOccupancy coarse = RandomCoarse(8, 77);
  const OccupancyOctree tree = OccupancyOctree::Build(coarse);
  const GridDims& ld = coarse.CoarseDims();
  u64 taken = 0, skipped = 0;
  for (int across = 0; across < 3; ++across) {
    const int along = (across + 1) % 3;
    const int third = (across + 2) % 3;
    const int n = across == 0 ? ld.nx : across == 1 ? ld.ny : ld.nz;
    for (int face = 0; face <= n; ++face) {
      for (const float drift : {0.f, 1e-13f, -1e-13f, 1e-5f, -1e-5f}) {
        Ray ray;
        ray.origin[across] = static_cast<float>(face) / static_cast<float>(n);
        ray.origin[along] = -0.1f;
        ray.origin[third] = 0.37f;
        ray.direction[across] = drift;
        ray.direction[along] = 1.f;
        ray.direction[third] = 0.125f;
        const MarchIndices m = ExpectSameIndices(coarse, tree, ray);
        taken += m.taken.size();
        skipped += m.skipped;
      }
    }
  }
  EXPECT_GT(taken, 0u);
  EXPECT_GT(skipped, 0u);
}

TEST(OctreeMarch, JumpNeverPassesTFar) {
  // Rays through an empty box whose node-exit estimate puts the jump's
  // landing sample at or past t_far by float rounding; found by search
  // over random rays and steps. The landing must be checked against t_far
  // or the march counts one skipped index too many.
  const CoarseOccupancy coarse = RandomCoarse(0);
  const OccupancyOctree tree = OccupancyOctree::Build(coarse);
  const struct {
    Vec3f origin, direction;
    float step;
  } cases[] = {
      {{-0x1.7f7878p-3f, 0x1.5e2898p+0f, -0x1p-1f},
       {0x1.1729f4p-1f, -0x1.580d64p-1f, 0x1.00979ap-1f},
       0x1.623cb2p-5f},
      {{0x1.ed4a7p-1f, -0x1.0e1528p-4f, -0x1p-1f},
       {-0x1.29ab08p-1f, 0x1.e653e4p-3f, 0x1.8e70fep-1f},
       0x1.4c7d8ep-5f},
  };
  for (const auto& c : cases) {
    const MarchIndices m =
        ExpectSameIndices(coarse, tree, Ray{c.origin, c.direction}, c.step);
    EXPECT_GT(m.skipped, 0u);
  }
}

TEST(OctreeMarch, EmptyNodesAreJumpedNotWalked) {
  // An empty scene is one empty root node: a ray across the box passes
  // over hundreds of sample indices in a handful of march iterations.
  const OccupancyOctree tree = OccupancyOctree::Build(
      CoarseOccupancy::Build(BitGrid(GridDims{40, 40, 40}), 4));
  const Aabb box{{0.f, 0.f, 0.f}, {1.f, 1.f, 1.f}};
  Rng rng(9);
  for (int i = 0; i < 100; ++i) {
    render_detail::RayMarch march;
    march.ray.origin = Vec3f{rng.Uniform(-0.5f, 1.5f),
                             rng.Uniform(-0.5f, 1.5f), -0.5f};
    march.ray.direction =
        (Vec3f{0.5f, 0.5f, 0.5f} - march.ray.origin).Normalized();
    ASSERT_TRUE(IntersectAabb(march.ray, box, march.t_near, march.t_far));
    render_detail::SkipTally tally;
    EXPECT_FALSE(
        render_detail::AdvanceToOccupied(&tree, 0.003f, march, &tally));
    u32 iterations = tally.outside;
    for (const u32 n : tally.level) iterations += n;
    EXPECT_GT(march.skips, 300u) << "ray " << i;
    EXPECT_LE(iterations, 2u) << "ray " << i;
  }
}

}  // namespace
}  // namespace spnerf
