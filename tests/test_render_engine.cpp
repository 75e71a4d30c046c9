#include "render/render_engine.hpp"

#include <gtest/gtest.h>

#include <future>
#include <memory>
#include <vector>

#include "common/error.hpp"
#include "grid/occupancy.hpp"
#include "grid/occupancy_octree.hpp"
#include "scene/dataset.hpp"
#include "support/reference_render.hpp"

namespace spnerf {
namespace {

/// Shared small SpNeRF model: the only source type with decode counters, so
/// it exercises every shard/merge path of the engine.
class RenderEngineTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    DatasetParams dp;
    dp.resolution_override = 48;
    dp.vqrf.codebook_size = 64;
    dp.vqrf.kmeans_iterations = 2;
    dataset_ = new SceneDataset(BuildDataset(SceneId::kMaterials, dp));
    SpNeRFParams sp;
    sp.subgrid_count = 8;
    sp.table_size = 8192;
    codec_ = new SpNeRFModel(SpNeRFModel::Preprocess(*dataset_->vqrf, sp));
    mlp_ = new Mlp(Mlp::Random(11));
    occupancy_ = new CoarseOccupancy(
        CoarseOccupancy::Build(BitGrid::FromGrid(dataset_->full_grid), 4));
    octree_ = new OccupancyOctree(OccupancyOctree::Build(*occupancy_));
  }

  static void TearDownTestSuite() {
    delete octree_;
    delete occupancy_;
    delete mlp_;
    delete codec_;
    delete dataset_;
    octree_ = nullptr;
    occupancy_ = nullptr;
    mlp_ = nullptr;
    codec_ = nullptr;
    dataset_ = nullptr;
  }

  static RenderJob MakeJob(const SpNeRFFieldSource& source, int size,
                           int view = 0) {
    RenderJob job;
    job.source = &source;
    job.mlp = mlp_;
    job.camera = OrbitCameras(4, Vec3f{0.5f, 0.45f, 0.5f}, 1.35f, 25.f, 35.f,
                              size, size)[static_cast<std::size_t>(view)];
    job.options.octree_skip = octree_;
    job.collect_stats = true;
    return job;
  }

  static SceneDataset* dataset_;
  static SpNeRFModel* codec_;
  static Mlp* mlp_;
  static CoarseOccupancy* occupancy_;
  static OccupancyOctree* octree_;
};

SceneDataset* RenderEngineTest::dataset_ = nullptr;
SpNeRFModel* RenderEngineTest::codec_ = nullptr;
Mlp* RenderEngineTest::mlp_ = nullptr;
CoarseOccupancy* RenderEngineTest::occupancy_ = nullptr;
OccupancyOctree* RenderEngineTest::octree_ = nullptr;

void ExpectSameImage(const Image& a, const Image& b) {
  ASSERT_EQ(a.Width(), b.Width());
  ASSERT_EQ(a.Height(), b.Height());
  for (std::size_t i = 0; i < a.Pixels().size(); ++i) {
    ASSERT_EQ(a.Pixels()[i], b.Pixels()[i]) << "pixel " << i;
  }
}

void ExpectSameCounters(const DecodeCounters& a, const DecodeCounters& b) {
  EXPECT_EQ(a.queries, b.queries);
  EXPECT_EQ(a.bitmap_zero, b.bitmap_zero);
  EXPECT_EQ(a.empty_slot, b.empty_slot);
  EXPECT_EQ(a.codebook_hits, b.codebook_hits);
  EXPECT_EQ(a.true_grid_hits, b.true_grid_hits);
}

void ExpectSameStats(const RenderStats& a, const RenderStats& b) {
  EXPECT_EQ(a.rays, b.rays);
  EXPECT_EQ(a.steps, b.steps);
  EXPECT_EQ(a.coarse_skips, b.coarse_skips);
  EXPECT_EQ(a.mlp_evals, b.mlp_evals);
  EXPECT_EQ(a.terminated_rays, b.terminated_rays);
  EXPECT_EQ(a.missed_rays, b.missed_rays);
  EXPECT_EQ(a.steps_per_ray.Count(), b.steps_per_ray.Count());
  // Bit-identical distributions: same shard decomposition, same ordered
  // reduction, regardless of the worker count.
  EXPECT_EQ(a.steps_per_ray.Mean(), b.steps_per_ray.Mean());
  EXPECT_EQ(a.steps_per_ray.Variance(), b.steps_per_ray.Variance());
  EXPECT_EQ(a.evals_per_ray.Mean(), b.evals_per_ray.Mean());
  EXPECT_EQ(a.evals_per_ray.Variance(), b.evals_per_ray.Variance());
}

TEST_F(RenderEngineTest, ParallelImageAndCountersMatchSequentialReference) {
  const SpNeRFFieldSource source(*codec_, false, false);
  const RenderJob job = MakeJob(source, 40);

  // Hand-rolled fully sequential reference: the per-ray oracle with one
  // stats object, one counter sink, pixels in scanline order.
  Image ref(job.camera.Width(), job.camera.Height());
  RenderStats ref_stats;
  DecodeCounters ref_counters;
  for (int y = 0; y < job.camera.Height(); ++y) {
    for (int x = 0; x < job.camera.Width(); ++x) {
      ref.At(x, y) = test::ReferenceRay(job.options, occupancy_, source,
                                        *mlp_, job.camera.PixelRay(x, y),
                                        &ref_stats, &ref_counters);
    }
  }

  ThreadPool pool(8);
  RenderEngineOptions opts;
  opts.pool = &pool;
  const RenderResult result = RenderEngine(opts).Render(job);

  ExpectSameImage(result.image, ref);
  ExpectSameCounters(result.counters, ref_counters);
  // Integer stats are exact under any merge order.
  EXPECT_EQ(result.stats.rays, ref_stats.rays);
  EXPECT_EQ(result.stats.steps, ref_stats.steps);
  EXPECT_EQ(result.stats.mlp_evals, ref_stats.mlp_evals);
  EXPECT_EQ(result.stats.coarse_skips, ref_stats.coarse_skips);
  EXPECT_EQ(result.stats.steps_per_ray.Count(),
            ref_stats.steps_per_ray.Count());
  // The distribution means agree to rounding (tile-merged Welford vs pure
  // sequential accumulation).
  EXPECT_NEAR(result.stats.steps_per_ray.Mean(),
              ref_stats.steps_per_ray.Mean(), 1e-9);
  EXPECT_NEAR(result.stats.evals_per_ray.Mean(),
              ref_stats.evals_per_ray.Mean(), 1e-9);
  EXPECT_GE(result.wall_ms, 0.0);
}

TEST_F(RenderEngineTest, BitDeterministicAcrossWorkerCounts) {
  const SpNeRFFieldSource source(*codec_, false, false);
  const RenderJob job = MakeJob(source, 48);

  std::vector<RenderResult> results;
  for (unsigned workers : {1u, 2u, 8u}) {
    ThreadPool pool(workers);
    RenderEngineOptions opts;
    opts.pool = &pool;
    results.push_back(RenderEngine(opts).Render(job));
  }
  for (std::size_t i = 1; i < results.size(); ++i) {
    ExpectSameImage(results[i].image, results[0].image);
    ExpectSameCounters(results[i].counters, results[0].counters);
    ExpectSameStats(results[i].stats, results[0].stats);
  }
}

TEST_F(RenderEngineTest, MaxThreadsOptionIsDeterministicToo) {
  const SpNeRFFieldSource source(*codec_, false, false);
  const RenderJob job = MakeJob(source, 33);  // odd size: ragged edge tiles
  ThreadPool pool(8);
  RenderResult first;
  for (unsigned cap : {1u, 2u, 8u}) {
    RenderEngineOptions opts;
    opts.pool = &pool;
    opts.max_threads = cap;
    RenderResult r = RenderEngine(opts).Render(job);
    if (cap == 1u) {
      first = std::move(r);
      continue;
    }
    ExpectSameImage(r.image, first.image);
    ExpectSameCounters(r.counters, first.counters);
    ExpectSameStats(r.stats, first.stats);
  }
}

TEST_F(RenderEngineTest, TileSizeChangesImageNeverCounters) {
  const SpNeRFFieldSource source(*codec_, false, false);
  const RenderJob job = MakeJob(source, 40);
  ThreadPool pool(4);
  RenderEngineOptions a_opts, b_opts;
  a_opts.pool = b_opts.pool = &pool;
  a_opts.tile_size = 32;
  b_opts.tile_size = 7;
  const RenderResult a = RenderEngine(a_opts).Render(job);
  const RenderResult b = RenderEngine(b_opts).Render(job);
  // Pixels are independent of the tile decomposition.
  ExpectSameImage(a.image, b.image);
  // Integer counters too; only the float distribution rounding may differ.
  ExpectSameCounters(a.counters, b.counters);
  EXPECT_EQ(a.stats.steps, b.stats.steps);
  EXPECT_EQ(a.stats.mlp_evals, b.stats.mlp_evals);
}

TEST_F(RenderEngineTest, BatchMatchesIndividualRenders) {
  const SpNeRFFieldSource source(*codec_, false, false);
  ThreadPool pool(4);
  RenderEngineOptions opts;
  opts.pool = &pool;
  const RenderEngine engine(opts);

  std::vector<RenderJob> jobs;
  for (int v = 0; v < 3; ++v) jobs.push_back(MakeJob(source, 32, v));
  const std::vector<RenderResult> batch = engine.RenderBatch(jobs);
  ASSERT_EQ(batch.size(), 3u);
  for (int v = 0; v < 3; ++v) {
    const RenderResult single = engine.Render(jobs[static_cast<std::size_t>(v)]);
    ExpectSameImage(batch[static_cast<std::size_t>(v)].image, single.image);
    ExpectSameCounters(batch[static_cast<std::size_t>(v)].counters,
                       single.counters);
    ExpectSameStats(batch[static_cast<std::size_t>(v)].stats, single.stats);
  }
}

TEST_F(RenderEngineTest, OversubscribedMaxThreadsStaysDeterministic) {
  // max_threads beyond the global pool size builds a dedicated pool; the
  // result must still match the 1-worker render bit for bit.
  const SpNeRFFieldSource source(*codec_, false, false);
  const RenderJob job = MakeJob(source, 40);
  RenderEngineOptions seq_opts;
  seq_opts.max_threads = 1;
  RenderEngineOptions over_opts;
  over_opts.max_threads = ThreadPool::Global().WorkerCount() + 7;
  const RenderResult seq = RenderEngine(seq_opts).Render(job);
  const RenderResult over = RenderEngine(over_opts).Render(job);
  ExpectSameImage(over.image, seq.image);
  ExpectSameCounters(over.counters, seq.counters);
  ExpectSameStats(over.stats, seq.stats);
}

TEST_F(RenderEngineTest, EmptyBatchReturnsNoResults) {
  EXPECT_TRUE(RenderEngine().RenderBatch({}).empty());
  EXPECT_TRUE(RenderEngine().SubmitBatch({}).empty());
}

TEST_F(RenderEngineTest, SubmitBatchFuturesMatchBlockingRenderBatch) {
  // The async path and its blocking wrapper are the same machinery: per-job
  // futures must deliver bit-identical images, counters and stats.
  const SpNeRFFieldSource source(*codec_, false, false);
  ThreadPool pool(4);
  RenderEngineOptions opts;
  opts.pool = &pool;
  const RenderEngine engine(opts);

  std::vector<RenderJob> jobs;
  for (int v = 0; v < 3; ++v) jobs.push_back(MakeJob(source, 32, v));
  const std::vector<RenderResult> blocking = engine.RenderBatch(jobs);

  std::vector<std::future<RenderResult>> futures = engine.SubmitBatch(jobs);
  ASSERT_EQ(futures.size(), 3u);
  for (std::size_t v = 0; v < futures.size(); ++v) {
    RenderResult r = futures[v].get();
    ExpectSameImage(r.image, blocking[v].image);
    ExpectSameCounters(r.counters, blocking[v].counters);
    ExpectSameStats(r.stats, blocking[v].stats);
    EXPECT_GE(r.wall_ms, 0.0);
  }
}

TEST_F(RenderEngineTest, ConcurrentSubmittedBatchesStayBitIdentical) {
  // Two batches in flight on one pool at once: interleaving their tiles
  // across the shared workers must not leak into pixels or stats.
  const SpNeRFFieldSource source(*codec_, false, false);
  ThreadPool pool(4);
  RenderEngineOptions opts;
  opts.pool = &pool;
  const RenderEngine engine(opts);

  std::vector<RenderJob> batch_a, batch_b;
  for (int v = 0; v < 2; ++v) batch_a.push_back(MakeJob(source, 40, v));
  for (int v = 2; v < 4; ++v) batch_b.push_back(MakeJob(source, 40, v));

  std::vector<std::future<RenderResult>> fa = engine.SubmitBatch(batch_a);
  std::vector<std::future<RenderResult>> fb = engine.SubmitBatch(batch_b);
  for (std::size_t v = 0; v < 2; ++v) {
    const RenderResult solo_a = engine.Render(batch_a[v]);
    const RenderResult solo_b = engine.Render(batch_b[v]);
    RenderResult ra = fa[v].get();
    RenderResult rb = fb[v].get();
    ExpectSameImage(ra.image, solo_a.image);
    ExpectSameStats(ra.stats, solo_a.stats);
    ExpectSameImage(rb.image, solo_b.image);
    ExpectSameStats(rb.stats, solo_b.stats);
  }
}

TEST_F(RenderEngineTest, SubmitBatchCallbackDeliversResultsInJobOrder) {
  const SpNeRFFieldSource source(*codec_, false, false);
  ThreadPool pool(4);
  RenderEngineOptions opts;
  opts.pool = &pool;
  const RenderEngine engine(opts);

  std::vector<RenderJob> jobs;
  for (int v = 0; v < 3; ++v) jobs.push_back(MakeJob(source, 32, v));
  std::promise<std::vector<RenderResult>> delivered;
  engine.SubmitBatch(
      jobs, [&](std::vector<std::future<RenderResult>> ready) {
        // Every delivered future is ready; get() never blocks here.
        std::vector<RenderResult> results;
        for (std::future<RenderResult>& f : ready) results.push_back(f.get());
        delivered.set_value(std::move(results));
      });
  std::vector<RenderResult> results = delivered.get_future().get();
  ASSERT_EQ(results.size(), 3u);
  for (int v = 0; v < 3; ++v) {
    const RenderResult solo = engine.Render(jobs[static_cast<std::size_t>(v)]);
    ExpectSameImage(results[static_cast<std::size_t>(v)].image, solo.image);
  }
}

TEST_F(RenderEngineTest, DestroyingTheEngineMidBatchStillDeliversEveryFuture) {
  // The engine need not outlive its batches: each batch owns its state, so
  // destroying the engine while both SubmitBatch flavours are still
  // draining on the pool leaves every future to resolve with the same
  // result a live engine renders.
  const SpNeRFFieldSource source(*codec_, false, false);
  ThreadPool pool(4);
  RenderEngineOptions opts;
  opts.pool = &pool;
  std::vector<RenderJob> jobs;
  for (int v = 0; v < 4; ++v) jobs.push_back(MakeJob(source, 40, v));
  const std::vector<RenderResult> reference =
      RenderEngine(opts).RenderBatch(jobs);

  auto engine = std::make_unique<RenderEngine>(opts);
  std::vector<std::future<RenderResult>> futures = engine->SubmitBatch(jobs);
  std::promise<std::vector<RenderResult>> delivered;
  engine->SubmitBatch(
      jobs, [&](std::vector<std::future<RenderResult>> ready) {
        std::vector<RenderResult> results;
        for (std::future<RenderResult>& f : ready) results.push_back(f.get());
        delivered.set_value(std::move(results));
      });
  engine.reset();

  ASSERT_EQ(futures.size(), jobs.size());
  const std::vector<RenderResult> via_callback = delivered.get_future().get();
  ASSERT_EQ(via_callback.size(), jobs.size());
  for (std::size_t v = 0; v < jobs.size(); ++v) {
    const RenderResult r = futures[v].get();
    ExpectSameImage(r.image, reference[v].image);
    ExpectSameStats(r.stats, reference[v].stats);
    ExpectSameImage(via_callback[v].image, reference[v].image);
    ExpectSameStats(via_callback[v].stats, reference[v].stats);
  }
}

TEST_F(RenderEngineTest, StatsOffLeavesZeroStats) {
  const SpNeRFFieldSource source(*codec_, false, false);
  RenderJob job = MakeJob(source, 24);
  job.collect_stats = false;
  const RenderResult r = RenderEngine().Render(job);
  EXPECT_EQ(r.stats.rays, 0u);
  EXPECT_EQ(r.counters.queries, 0u);
  EXPECT_FALSE(r.image.Empty());
}

/// Always throws from Sample: forces a render-time error on whatever pool
/// worker claims the tile.
class ThrowingFieldSource final : public FieldSource {
 public:
  [[nodiscard]] FieldSample Sample(Vec3f) const override {
    throw SpnerfError("injected render failure");
  }
  [[nodiscard]] const char* Name() const override { return "throwing"; }
};

TEST_F(RenderEngineTest, RenderErrorFailsTheJobFutureNotTheProcess) {
  // A throw inside a tile on a detached pool worker must surface through
  // the job's future (get() rethrows), never escape the worker thread.
  const ThrowingFieldSource source;
  RenderJob job;
  job.source = &source;
  job.mlp = mlp_;
  job.camera = OrbitCameras(1, Vec3f{0.5f, 0.45f, 0.5f}, 1.35f, 25.f, 35.f,
                            24, 24)[0];
  ThreadPool pool(4);
  RenderEngineOptions opts;
  opts.pool = &pool;
  const RenderEngine engine(opts);
  std::vector<std::future<RenderResult>> futures = engine.SubmitBatch({job});
  ASSERT_EQ(futures.size(), 1u);
  EXPECT_THROW(futures[0].get(), SpnerfError);
  // The blocking wrapper propagates the same error to its caller.
  EXPECT_THROW((void)engine.RenderBatch({job}), SpnerfError);
}

TEST_F(RenderEngineTest, VolumeRendererStatsPathMatchesEngine) {
  // The legacy VolumeRenderer::Render API must produce the engine's
  // results exactly — it is a thin wrapper over a one-job batch.
  const SpNeRFFieldSource source(*codec_, false, false);
  const RenderJob job = MakeJob(source, 36);
  const RenderResult engine_result = RenderEngine().Render(job);

  RenderStats stats;
  const Image img =
      VolumeRenderer(job.options).Render(source, *mlp_, job.camera, &stats);
  ExpectSameImage(img, engine_result.image);
  ExpectSameStats(stats, engine_result.stats);
}

}  // namespace
}  // namespace spnerf
