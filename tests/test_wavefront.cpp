// Differential suite for the wavefront (batched) marcher with octree
// empty-space skipping: images, RenderStats and DecodeCounters must be
// BIT-identical to the per-ray uniform-march oracle, which tests occupancy
// at every sample (support/reference_render), for every field source, fp16
// mode, worker count and SIMD path — batching and the octree are execution
// policy, never semantics. For the grid and masked SpNeRF sources the skip
// structure does not even change the image: every sample it skips reads
// density exactly 0.
#include <gtest/gtest.h>

#include "common/rng.hpp"
#include "common/simd.hpp"
#include "grid/occupancy.hpp"
#include "grid/occupancy_octree.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "render/field_source.hpp"
#include "render/render_engine.hpp"
#include "scene/dataset.hpp"
#include "support/reference_render.hpp"

namespace spnerf {
namespace {

/// Forces the SIMD dispatch path for one scope, restoring on exit.
class ScopedSimdPath {
 public:
  explicit ScopedSimdPath(simd::Path p) : saved_(simd::ActivePath()) {
    simd::SetActivePath(p);
  }
  ~ScopedSimdPath() { simd::SetActivePath(saved_); }
  ScopedSimdPath(const ScopedSimdPath&) = delete;
  ScopedSimdPath& operator=(const ScopedSimdPath&) = delete;

 private:
  simd::Path saved_;
};

/// Batch sizes the per-kernel differential suites sweep: empty, single
/// lane, width-1 / width / width+1 for both 4- and 8-lane ISAs, one and
/// two MLP blocks (kBlock = 32) and a non-multiple-of-kBlock tail.
constexpr std::size_t kTailSizes[] = {0, 1, 3, 4, 5, 7, 8, 9, 31, 32, 33, 67};

void ExpectSameRunningStats(const RunningStats& a, const RunningStats& b) {
  EXPECT_EQ(a.Count(), b.Count());
  EXPECT_EQ(a.Mean(), b.Mean());
  EXPECT_EQ(a.Variance(), b.Variance());
  EXPECT_EQ(a.Min(), b.Min());
  EXPECT_EQ(a.Max(), b.Max());
  EXPECT_EQ(a.Sum(), b.Sum());
}

void ExpectSameStats(const RenderStats& a, const RenderStats& b) {
  EXPECT_EQ(a.rays, b.rays);
  EXPECT_EQ(a.steps, b.steps);
  EXPECT_EQ(a.coarse_skips, b.coarse_skips);
  EXPECT_EQ(a.mlp_evals, b.mlp_evals);
  EXPECT_EQ(a.terminated_rays, b.terminated_rays);
  EXPECT_EQ(a.missed_rays, b.missed_rays);
  ExpectSameRunningStats(a.steps_per_ray, b.steps_per_ray);
  ExpectSameRunningStats(a.evals_per_ray, b.evals_per_ray);
}

void ExpectSameCounters(const DecodeCounters& a, const DecodeCounters& b) {
  EXPECT_EQ(a.queries, b.queries);
  EXPECT_EQ(a.bitmap_zero, b.bitmap_zero);
  EXPECT_EQ(a.empty_slot, b.empty_slot);
  EXPECT_EQ(a.codebook_hits, b.codebook_hits);
  EXPECT_EQ(a.true_grid_hits, b.true_grid_hits);
}

void ExpectSameImage(const Image& a, const Image& b) {
  ASSERT_EQ(a.Pixels().size(), b.Pixels().size());
  for (std::size_t i = 0; i < a.Pixels().size(); ++i) {
    ASSERT_EQ(a.Pixels()[i], b.Pixels()[i]) << "pixel " << i;
  }
}

class WavefrontTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    DatasetParams p;
    p.resolution_override = 40;
    p.vqrf.codebook_size = 64;
    p.vqrf.kmeans_iterations = 2;
    dataset_ = new SceneDataset(BuildDataset(SceneId::kMic, p));
    SpNeRFParams sp;
    sp.subgrid_count = 8;
    sp.table_size = 8192;
    codec_ = new SpNeRFModel(SpNeRFModel::Preprocess(*dataset_->vqrf, sp));
    occupancy_ = new CoarseOccupancy(
        CoarseOccupancy::Build(BitGrid::FromGrid(dataset_->full_grid), 4));
    octree_ = new OccupancyOctree(OccupancyOctree::Build(*occupancy_));
    mlp_ = new Mlp(Mlp::Random(11));
  }

  static void TearDownTestSuite() {
    delete mlp_;
    delete octree_;
    delete occupancy_;
    delete codec_;
    delete dataset_;
    mlp_ = nullptr;
    octree_ = nullptr;
    occupancy_ = nullptr;
    codec_ = nullptr;
    dataset_ = nullptr;
  }

  /// One stats-on view of `source`: camera partially off-box so missed
  /// rays exercise the miss path, with a 48x48 image over 32px tiles so
  /// tiles of both partial and full size reduce.
  static RenderJob MakeJob(const FieldSource& source, bool fp16_mlp,
                           bool with_skip = true) {
    RenderJob job;
    job.source = &source;
    job.mlp = mlp_;
    job.camera = Camera({-1.2f, 0.9f, 0.4f}, {0.5f, 0.45f, 0.5f},
                        {0.f, 1.f, 0.f}, 55.f, 48, 48);
    job.options.fp16_mlp = fp16_mlp;
    if (with_skip) job.options.octree_skip = octree_;
    job.collect_stats = true;
    return job;
  }

  /// Production render of `job` through the tile engine.
  static RenderResult RenderWith(const RenderJob& job, unsigned workers) {
    RenderEngineOptions opts;
    opts.max_threads = workers;
    return RenderEngine(opts).Render(job);
  }

  /// The oracle render of `job`, skipping over the coarse occupancy the
  /// octree was built from when the job skips at all.
  static RenderResult Reference(const RenderJob& job) {
    return test::ReferenceRender(
        job, job.options.octree_skip != nullptr ? occupancy_ : nullptr);
  }

  static void ExpectMatches(const RenderResult& want, const RenderResult& got) {
    ExpectSameImage(want.image, got.image);
    ExpectSameStats(want.stats, got.stats);
    ExpectSameCounters(want.counters, got.counters);
  }

  /// The production-vs-oracle matrix for one source: fp16_mlp off and on,
  /// 1/2/8 workers, octree skipping attached.
  static void RunDifferential(const FieldSource& source) {
    for (const bool fp16 : {false, true}) {
      const RenderJob job = MakeJob(source, fp16);
      const RenderResult want = Reference(job);
      EXPECT_GT(want.stats.mlp_evals, 0u);     // non-trivial view
      EXPECT_GT(want.stats.coarse_skips, 0u);  // skipping actually engaged
      for (const unsigned workers : {1u, 2u, 8u}) {
        SCOPED_TRACE(std::string("fp16=") + (fp16 ? "1" : "0") +
                     " workers=" + std::to_string(workers));
        ExpectMatches(want, RenderWith(job, workers));
      }
    }
  }

  static SceneDataset* dataset_;
  static SpNeRFModel* codec_;
  static CoarseOccupancy* occupancy_;
  static OccupancyOctree* octree_;
  static Mlp* mlp_;
};

SceneDataset* WavefrontTest::dataset_ = nullptr;
SpNeRFModel* WavefrontTest::codec_ = nullptr;
CoarseOccupancy* WavefrontTest::occupancy_ = nullptr;
OccupancyOctree* WavefrontTest::octree_ = nullptr;
Mlp* WavefrontTest::mlp_ = nullptr;

TEST_F(WavefrontTest, AnalyticSourceBitIdentical) {
  const AnalyticFieldSource source(dataset_->scene);
  RunDifferential(source);
}

TEST_F(WavefrontTest, GridSourceBitIdentical) {
  const GridFieldSource source(dataset_->full_grid);
  RunDifferential(source);
}

TEST_F(WavefrontTest, SpNeRFSourceBitIdentical) {
  const SpNeRFFieldSource source(*codec_, /*fp16_tiu=*/false,
                                 /*collect_counters=*/false);
  RunDifferential(source);
}

TEST_F(WavefrontTest, SpNeRFFp16TiuBitIdentical) {
  // The TIU path rounds interpolation weights to binary16, including its
  // own weight-flush skip test; the batched dedup must replicate it.
  const SpNeRFFieldSource source(*codec_, /*fp16_tiu=*/true,
                                 /*collect_counters=*/false);
  RunDifferential(source);
}

/// The sources whose non-zero density lies inside the full-grid occupancy:
/// the full grid, the VQRF-restored grid and SpNeRF with bitmap masking, at
/// fp32 and fp16-TIU interpolation.
struct MaskedSources {
  MaskedSources(const SceneDataset& dataset, const SpNeRFModel& codec)
      : restored(dataset.vqrf->Restore()),
        full(dataset.full_grid),
        vqrf(restored),
        spnerf(codec, /*fp16_tiu=*/false, /*collect_counters=*/false),
        spnerf_tiu(codec, /*fp16_tiu=*/true, /*collect_counters=*/false) {}

  [[nodiscard]] std::array<const FieldSource*, 4> All() const {
    return {&full, &vqrf, &spnerf, &spnerf_tiu};
  }

  DenseGrid restored;
  GridFieldSource full;
  GridFieldSource vqrf;
  SpNeRFFieldSource spnerf;
  SpNeRFFieldSource spnerf_tiu;
};

/// Points the skip test rejects — in the box, in an empty leaf cell of
/// the test scene's octree — drawn at random in every empty cell, a third
/// of them on a cell face.
std::vector<Vec3f> EmptyLeafPoints(const CoarseOccupancy& coarse) {
  const GridDims& cd = coarse.CoarseDims();
  const auto world = [](int cell, float frac, int n) {
    return (static_cast<float>(cell) + frac) / static_cast<float>(n);
  };
  Rng rng(12);
  std::vector<Vec3f> points;
  for (int x = 0; x < cd.nx; ++x) {
    for (int y = 0; y < cd.ny; ++y) {
      for (int z = 0; z < cd.nz; ++z) {
        if (coarse.Bits().Test(Vec3i{x, y, z})) continue;
        for (int k = 0; k < 12; ++k) {
          Vec3f f{rng.NextFloat(), rng.NextFloat(), rng.NextFloat()};
          if (k % 3 == 0) f[k % 9 / 3] = static_cast<float>(k % 2);
          const Vec3f p{world(x, f.x, cd.nx), world(y, f.y, cd.ny),
                        world(z, f.z, cd.nz)};
          // A point on a high face may round into the neighbouring cell.
          if (!coarse.OccupiedAtWorld(p)) points.push_back(p);
        }
      }
    }
  }
  return points;
}

TEST_F(WavefrontTest, EmptyLeafSamplesReadZeroDensity) {
  // The premise that makes the skip structure invisible: the fine grid is
  // vertex-centred, so every trilinear corner of a point in coarse cell c
  // lies in coarse cells c-1..c+1, which the one-cell dilation covers, and
  // an empty leaf's corners all hold density 0 in every masked source.
  const std::vector<Vec3f> points = EmptyLeafPoints(*occupancy_);
  ASSERT_GT(points.size(), 1000u);
  const MaskedSources sources(*dataset_, *codec_);
  for (const FieldSource* source : sources.All()) {
    std::vector<FieldSample> got(points.size());
    source->SampleBatch(points, got, nullptr);
    for (std::size_t i = 0; i < points.size(); ++i) {
      ASSERT_EQ(got[i].density, 0.f)
          << source->Name() << " point " << i << " at " << points[i].x
          << "," << points[i].y << "," << points[i].z;
    }
  }
}

TEST_F(WavefrontTest, SkipStructureNeverChangesTheImage) {
  // With samples on a fixed per-ray grid and skipped samples reading
  // density 0, attaching the octree changes which samples are decoded but
  // not a pixel, an MLP eval or a terminated ray.
  const MaskedSources sources(*dataset_, *codec_);
  for (const FieldSource* source : sources.All()) {
    for (const bool fp16 : {false, true}) {
      const RenderResult no_skip =
          RenderWith(MakeJob(*source, fp16, /*with_skip=*/false), 1);
      EXPECT_GT(no_skip.stats.mlp_evals, 0u);
      for (const unsigned workers : {1u, 2u, 8u}) {
        SCOPED_TRACE(std::string(source->Name()) + " fp16=" +
                     (fp16 ? "1" : "0") +
                     " workers=" + std::to_string(workers));
        const RenderResult skip = RenderWith(MakeJob(*source, fp16), workers);
        EXPECT_GT(skip.stats.coarse_skips, 0u);
        ExpectSameImage(no_skip.image, skip.image);
        EXPECT_EQ(no_skip.stats.mlp_evals, skip.stats.mlp_evals);
        EXPECT_EQ(no_skip.stats.terminated_rays, skip.stats.terminated_rays);
        ExpectSameRunningStats(no_skip.stats.evals_per_ray,
                               skip.stats.evals_per_ray);
      }
    }
  }
}

TEST_F(WavefrontTest, SimdPathsMatchOracle) {
  // Forcing either SIMD path must leave the production render bit-identical
  // to the oracle, which never touches a SIMD kernel.
  const SpNeRFFieldSource source(*codec_, /*fp16_tiu=*/true,
                                 /*collect_counters=*/false);
  const RenderJob job = MakeJob(source, /*fp16_mlp=*/true);
  const RenderResult want = Reference(job);
  for (const simd::Path path :
       {simd::Path::kScalar, simd::BestSupportedPath()}) {
    const ScopedSimdPath sp(path);
    SCOPED_TRACE(std::string("simd=") + simd::PathName(path));
    ExpectMatches(want, RenderWith(job, 2));
  }
}

TEST_F(WavefrontTest, NoSkipStructureBitIdentical) {
  const SpNeRFFieldSource source(*codec_, false, false);
  const RenderJob job = MakeJob(source, false, /*with_skip=*/false);
  const RenderResult want = Reference(job);
  EXPECT_EQ(want.stats.coarse_skips, 0u);
  ExpectMatches(want, RenderWith(job, 2));
}

TEST_F(WavefrontTest, MaskingOffBitIdentical) {
  // Fig. 6(b)'s pre-mask path: with the bitmap ignored every non-zero
  // weight corner goes through hash decode, in the batch as in the scalar
  // loop.
  SpNeRFFieldSource source(*codec_, /*fp16_tiu=*/false,
                           /*collect_counters=*/false);
  source.SetMasking(false);
  const RenderJob job = MakeJob(source, false);
  const RenderResult want = Reference(job);
  EXPECT_EQ(want.counters.bitmap_zero, 0u);
  ExpectMatches(want, RenderWith(job, 2));
}

/// A front that mixes every case of the bitmap-first classification:
/// samples in cells whose eight corner bits are all zero, partly set and
/// all set (some on a cell face, so zero-weight corners are skipped before
/// their bit is tested), plus samples outside the unit box.
std::vector<Vec3f> MixedOccupancyFront(const SpNeRFModel& codec) {
  const GridDims& dims = codec.Dims();
  const BitGrid& bitmap = codec.Bitmap();
  std::vector<Vec3i> cells[3];  // all corner bits zero, some set, all set
  for (int x = 0; x + 1 < dims.nx; ++x) {
    for (int y = 0; y + 1 < dims.ny; ++y) {
      for (int z = 0; z + 1 < dims.nz; ++z) {
        int set = 0;
        for (int corner = 0; corner < 8; ++corner) {
          set += bitmap.Test(Vec3i{x + (corner & 1), y + ((corner >> 1) & 1),
                                   z + ((corner >> 2) & 1)});
        }
        cells[set == 0 ? 0 : set == 8 ? 2 : 1].push_back({x, y, z});
      }
    }
  }
  for (const std::vector<Vec3i>& c : cells) EXPECT_FALSE(c.empty());

  Rng rng(5);
  std::vector<Vec3f> points;
  const Vec3f scale{1.0f / static_cast<float>(dims.nx - 1),
                    1.0f / static_cast<float>(dims.ny - 1),
                    1.0f / static_cast<float>(dims.nz - 1)};
  for (int k = 0; k < 96; ++k) {
    for (const std::vector<Vec3i>& c : cells) {
      if (c.empty()) continue;
      const Vec3i b = c[rng.NextBelow(c.size())];
      Vec3f f{rng.NextFloat(), rng.NextFloat(), rng.NextFloat()};
      if (k % 4 == 0) f.z = 0.0f;  // on the cell's low-z face
      points.push_back({(static_cast<float>(b.x) + f.x) * scale.x,
                        (static_cast<float>(b.y) + f.y) * scale.y,
                        (static_cast<float>(b.z) + f.z) * scale.z});
    }
    points.push_back({rng.Uniform(1.01f, 1.1f), rng.NextFloat(),
                      rng.Uniform(-0.1f, -0.01f)});
  }
  return points;
}

TEST_F(WavefrontTest, SampleBatchMatchesScalarSamples) {
  // Unit-level contract: SampleBatch == a Sample loop, values and counters,
  // for random (partly out-of-box) positions and for a front mixing
  // all-zero-bit, partly and fully occupied cells, under every masking and
  // TIU arithmetic mode.
  Rng rng(3);
  std::vector<Vec3f> random_points;
  for (int i = 0; i < 500; ++i) {
    random_points.push_back({rng.Uniform(-0.1f, 1.1f),
                             rng.Uniform(-0.1f, 1.1f),
                             rng.Uniform(-0.1f, 1.1f)});
  }
  const std::vector<Vec3f> mixed_points = MixedOccupancyFront(*codec_);
  const std::vector<Vec3f>* fronts[] = {&random_points, &mixed_points};
  for (const bool masking : {true, false}) {
    for (const bool fp16_tiu : {false, true}) {
      SpNeRFFieldSource source(*codec_, fp16_tiu, false);
      source.SetMasking(masking);
      for (const std::vector<Vec3f>* points : fronts) {
        SCOPED_TRACE(std::string("masking=") + (masking ? "1" : "0") +
                     " fp16_tiu=" + (fp16_tiu ? "1" : "0") +
                     (points == &mixed_points ? " mixed" : " random"));
        DecodeCounters scalar_counters, batch_counters;
        std::vector<FieldSample> expected;
        expected.reserve(points->size());
        for (const Vec3f& p : *points)
          expected.push_back(source.Sample(p, &scalar_counters));
        std::vector<FieldSample> got(points->size());
        source.SampleBatch(*points, got, &batch_counters);
        for (std::size_t i = 0; i < points->size(); ++i) {
          EXPECT_EQ(expected[i].density, got[i].density) << "sample " << i;
          for (int c = 0; c < kColorFeatureDim; ++c)
            EXPECT_EQ(expected[i].features[c], got[i].features[c]);
        }
        ExpectSameCounters(scalar_counters, batch_counters);
        EXPECT_EQ(scalar_counters.bitmap_zero > 0, masking);
        EXPECT_GT(
            scalar_counters.codebook_hits + scalar_counters.true_grid_hits,
            0u);
      }
    }
  }
}

TEST_F(WavefrontTest, ForwardBatchMatchesForward) {
  Rng rng(4);
  std::vector<std::array<float, kMlpInputDim>> in(67);  // non-multiple of 32
  for (auto& sample : in)
    for (auto& v : sample) v = rng.Uniform(-1.f, 1.f);
  std::vector<Vec3f> out(in.size());
  mlp_->ForwardBatch(in, out);
  for (std::size_t i = 0; i < in.size(); ++i) {
    EXPECT_EQ(mlp_->Forward(in[i]), out[i]);
  }
  mlp_->ForwardFp16Batch(in, out);
  for (std::size_t i = 0; i < in.size(); ++i) {
    EXPECT_EQ(mlp_->ForwardFp16(in[i]), out[i]);
  }
}

// ---------------------------------------------------------------------------
// Per-kernel SIMD differential suites: every batch kernel forced to the
// scalar reference vs forced to the best host vector path must agree
// bit-for-bit at every tail size. On a scalar-only host BestSupportedPath()
// is kScalar and the comparisons are trivially (but still) exercised, so
// the suite passes everywhere.
// ---------------------------------------------------------------------------

/// Runs `batch(n)` under forced-scalar and forced-vector dispatch and
/// bit-compares the outputs (and decode counters, when produced).
void ExpectSampleBatchPathsAgree(const FieldSource& source, std::size_t n,
                                 u64 seed, bool with_counters) {
  Rng rng(seed);
  std::vector<Vec3f> points;
  for (std::size_t i = 0; i < n; ++i) {
    points.push_back({rng.Uniform(-0.1f, 1.1f), rng.Uniform(-0.1f, 1.1f),
                      rng.Uniform(-0.1f, 1.1f)});
  }
  std::vector<FieldSample> scalar_out(n), simd_out(n);
  DecodeCounters scalar_counters, simd_counters;
  {
    const ScopedSimdPath g(simd::Path::kScalar);
    source.SampleBatch(points, scalar_out,
                       with_counters ? &scalar_counters : nullptr);
  }
  {
    const ScopedSimdPath g(simd::BestSupportedPath());
    source.SampleBatch(points, simd_out,
                       with_counters ? &simd_counters : nullptr);
  }
  for (std::size_t i = 0; i < n; ++i) {
    SCOPED_TRACE("sample " + std::to_string(i) + " of " + std::to_string(n));
    EXPECT_EQ(scalar_out[i].density, simd_out[i].density);
    for (int c = 0; c < kColorFeatureDim; ++c)
      EXPECT_EQ(scalar_out[i].features[c], simd_out[i].features[c]);
  }
  if (with_counters) ExpectSameCounters(scalar_counters, simd_counters);
}

TEST_F(WavefrontTest, SimdSpnerfBlendBitIdentical) {
  for (const bool fp16_tiu : {false, true}) {
    const SpNeRFFieldSource source(*codec_, fp16_tiu,
                                   /*collect_counters=*/false);
    for (const std::size_t n : kTailSizes) {
      SCOPED_TRACE(std::string("fp16_tiu=") + (fp16_tiu ? "1" : "0") +
                   " n=" + std::to_string(n));
      ExpectSampleBatchPathsAgree(source, n, 17 + n, /*with_counters=*/true);
    }
  }
}

TEST_F(WavefrontTest, SimdGridTrilinearBitIdentical) {
  const GridFieldSource source(dataset_->full_grid);
  for (const std::size_t n : kTailSizes) {
    SCOPED_TRACE("n=" + std::to_string(n));
    ExpectSampleBatchPathsAgree(source, n, 23 + n, /*with_counters=*/false);
  }
}

/// MLP inputs whose hidden activations are ReLU-sparse the way neighbouring
/// rays' are: in each 16-sample chunk, either every sample copies one base
/// input except lane 1, which copies another (h1 rows zero in the whole
/// chunk, zero in all lanes but one, or dense), or all copy a third base,
/// or every sample is drawn afresh.
std::vector<std::array<float, kMlpInputDim>> ReluSparseInputs(std::size_t n,
                                                              Rng& rng) {
  const auto draw = [&rng] {
    std::array<float, kMlpInputDim> x;
    for (float& v : x) v = rng.Uniform(-1.f, 1.f);
    return x;
  };
  const std::array<float, kMlpInputDim> a = draw(), b = draw(), c = draw();
  std::vector<std::array<float, kMlpInputDim>> in(n);
  for (std::size_t s = 0; s < n; ++s) {
    switch (s / 16 % 3) {
      case 0: in[s] = s % 16 == 1 ? b : a; break;
      case 1: in[s] = c; break;
      default: in[s] = draw(); break;
    }
  }
  return in;
}

TEST_F(WavefrontTest, SimdForwardBatchBitIdentical) {
  Rng rng(29);
  for (const bool sparse : {false, true}) {
    for (const std::size_t n : kTailSizes) {
      SCOPED_TRACE(std::string(sparse ? "relu-sparse" : "random") +
                   " n=" + std::to_string(n));
      std::vector<std::array<float, kMlpInputDim>> in(n);
      if (sparse) {
        in = ReluSparseInputs(n, rng);
      } else {
        for (auto& sample : in)
          for (auto& v : sample) v = rng.Uniform(-1.f, 1.f);
      }
      std::vector<Vec3f> scalar_out(n), simd_out(n);
      {
        const ScopedSimdPath g(simd::Path::kScalar);
        mlp_->ForwardBatch(in, scalar_out);
      }
      {
        const ScopedSimdPath g(simd::BestSupportedPath());
        mlp_->ForwardBatch(in, simd_out);
      }
      for (std::size_t i = 0; i < n; ++i) {
        EXPECT_EQ(scalar_out[i], simd_out[i]) << "sample " << i;
        EXPECT_EQ(mlp_->Forward(in[i]), simd_out[i]) << "sample " << i;
      }
      {
        const ScopedSimdPath g(simd::Path::kScalar);
        mlp_->ForwardFp16Batch(in, scalar_out);
      }
      {
        const ScopedSimdPath g(simd::BestSupportedPath());
        mlp_->ForwardFp16Batch(in, simd_out);
      }
      for (std::size_t i = 0; i < n; ++i) {
        EXPECT_EQ(scalar_out[i], simd_out[i]) << "sample " << i;
      }
    }
  }
}

TEST_F(WavefrontTest, SimdForcedPathRenderBitIdentical) {
  // End-to-end: a full wavefront render dispatched on the vector path must
  // produce the same image/stats/counters as one forced to scalar, with
  // the fp32 MLP (the shipped default) and the fp16 one.
  for (const bool fp16 : {false, true}) {
    SCOPED_TRACE(std::string("fp16=") + (fp16 ? "1" : "0"));
    const SpNeRFFieldSource source(*codec_, /*fp16_tiu=*/fp16,
                                   /*collect_counters=*/false);
    const RenderJob job = MakeJob(source, fp16);
    RenderResult scalar_r, simd_r;
    {
      const ScopedSimdPath g(simd::Path::kScalar);
      scalar_r = RenderWith(job, 2);
    }
    {
      const ScopedSimdPath g(simd::BestSupportedPath());
      simd_r = RenderWith(job, 2);
    }
    ExpectMatches(scalar_r, simd_r);
  }
}

TEST_F(WavefrontTest, ShadeQueueFlushesMidMarchBitIdentical) {
  // The wavefront marcher shades alpha survivors in full batches: the
  // queue must have filled mid-march at least once in this frame, and the
  // deferred composite must still equal the per-ray oracle.
  const obs::TraceLevel saved =
      obs::SetActiveTraceLevel(obs::TraceLevel::kCounters);
  obs::Histogram& shade_batch =
      obs::MetricsRegistry::Global().GetHistogram("render/shade-batch");
  shade_batch.ResetForTest();
  const SpNeRFFieldSource source(*codec_, /*fp16_tiu=*/false,
                                 /*collect_counters=*/false);
  const RenderJob job = MakeJob(source, false);
  const RenderResult want = Reference(job);
  const RenderResult wave = RenderWith(job, 2);
  const obs::HistogramSnapshot batches = shade_batch.Snapshot();
  obs::SetActiveTraceLevel(saved);
  EXPECT_EQ(batches.max, 256u);
  // Every queued sample is one of the production render's MLP evals: the
  // oracle, rendered first under the same trace level, never queues.
  EXPECT_EQ(batches.sum, wave.stats.mlp_evals);
  ExpectMatches(want, wave);
}

TEST(SimdDispatchTest, ResolveOverrideRules) {
  // The SPNF_SIMD resolution rule is pure and exposed exactly so this test
  // can pin it without spawning subprocesses: absent/garbage -> detected
  // best; a supported name -> that path; an unsupported name -> scalar
  // (graceful degradation, never a different vector ISA).
  const simd::Path best = simd::BestSupportedPath();
  EXPECT_EQ(simd::ResolveOverride(nullptr), best);
  EXPECT_EQ(simd::ResolveOverride(""), best);
  EXPECT_EQ(simd::ResolveOverride("definitely-not-an-isa"), best);
  EXPECT_EQ(simd::ResolveOverride("scalar"), simd::Path::kScalar);
  EXPECT_EQ(simd::ResolveOverride("avx2"),
            simd::PathSupported(simd::Path::kAvx2) ? simd::Path::kAvx2
                                                   : simd::Path::kScalar);
  EXPECT_EQ(simd::ResolveOverride("neon"),
            simd::PathSupported(simd::Path::kNeon) ? simd::Path::kNeon
                                                   : simd::Path::kScalar);
  EXPECT_STREQ(simd::PathName(simd::Path::kScalar), "scalar");
  simd::Path parsed = simd::Path::kScalar;
  EXPECT_TRUE(simd::ParsePathName("avx2", parsed));
  EXPECT_EQ(parsed, simd::Path::kAvx2);
  EXPECT_FALSE(simd::ParsePathName("AVX2", parsed));  // contract: lower-case
}

TEST(SimdDispatchTest, SetActivePathDegradesGracefully) {
  const simd::Path saved = simd::ActivePath();
  // Forcing every nominal path must land on a host-runnable one; an
  // unsupported request degrades to scalar, and ActivePath reflects what
  // was actually applied.
  for (const simd::Path p :
       {simd::Path::kScalar, simd::Path::kAvx2, simd::Path::kNeon}) {
    const simd::Path applied = simd::SetActivePath(p);
    EXPECT_TRUE(simd::PathSupported(applied));
    EXPECT_EQ(applied, simd::PathSupported(p) ? p : simd::Path::kScalar);
    EXPECT_EQ(simd::ActivePath(), applied);
  }
  simd::SetActivePath(saved);
}

}  // namespace
}  // namespace spnerf
