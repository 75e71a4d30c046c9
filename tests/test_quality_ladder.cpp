// Quality-ladder suite: the rung specs and ApplyRung contract
// (render/quality.hpp), the deterministic bilinear upsample, the capped
// octree skip probe, the QualityGovernor policy (load floors, pressure
// window, deadline fit, cost-model fallbacks) and the service-level
// determinism contracts — a staged backlog replays the identical rung
// sequence at any worker count, and an unloaded ladder-on service is
// bit-identical to the ladder-off one.
#include "serve/quality_governor.hpp"

#include <gtest/gtest.h>

#include <chrono>
#include <future>
#include <memory>
#include <vector>

#include "common/clock.hpp"
#include "common/image.hpp"
#include "core/pipeline.hpp"
#include "render/field_source.hpp"
#include "render/quality.hpp"
#include "render/volume_renderer.hpp"
#include "serve/load_generator.hpp"
#include "serve/render_service.hpp"

namespace spnerf {
namespace {

/// Same tiny build parameters as test_serve.cpp, same isolation rules.
RenderRequest SmallRequest(SceneId id = SceneId::kMic, int view = 0) {
  RenderRequest r;
  r.config.scene_id = id;
  r.config.dataset.resolution_override = 32;
  r.config.dataset.vqrf.codebook_size = 64;
  r.config.dataset.vqrf.kmeans_iterations = 2;
  r.config.dataset.vqrf.max_vq_train_samples = 2000;
  r.config.spnerf.subgrid_count = 8;
  r.config.spnerf.table_size = 4096;
  r.image_width = r.image_height = 24;
  r.view = view;
  return r;
}

class QualityLadderTest : public ::testing::Test {
 protected:
  QualityLadderTest()
      : cache_(AssetCacheOptions{/*disk_root=*/"", /*memory_capacity=*/16}),
        repository_(&cache_, /*capacity=*/8) {}

  RenderServiceOptions PausedOptions(std::size_t capacity,
                                     std::size_t max_batch = 8) {
    RenderServiceOptions opts;
    opts.queue_capacity = capacity;
    opts.max_batch = max_batch;
    opts.repository = &repository_;
    opts.start_paused = true;
    return opts;
  }

  AssetCache cache_;
  PipelineRepository repository_;
};

// ------------------------------------------------------- rung specs ----

TEST(QualityRungs, RungZeroLeavesEveryKnobUntouched) {
  RenderOptions base;
  base.step_size = 0.0123f;
  base.termination_transmittance = 0.004f;
  base.octree_level_cap = 0;
  const RenderOptions applied = ApplyRung(base, QualityRung::kFull);
  EXPECT_EQ(applied.step_size, base.step_size);
  EXPECT_EQ(applied.termination_transmittance,
            base.termination_transmittance);
  EXPECT_EQ(applied.octree_level_cap, 0);
  EXPECT_EQ(RungResolutionDivisor(QualityRung::kFull), 1);
}

TEST(QualityRungs, HigherRungsOnlyEverCheapenTheRender) {
  RenderOptions base;
  base.step_size = 0.01f;
  base.termination_transmittance = 1e-3f;
  float prev_step = base.step_size;
  double prev_cost = 1.0;
  for (std::size_t q = 1; q < kQualityRungCount; ++q) {
    const auto rung = static_cast<QualityRung>(q);
    const RenderOptions o = ApplyRung(base, rung);
    // Every knob moves in the cheaper direction, monotonically up the
    // ladder: never a finer march, never a later termination, never a
    // larger raster.
    EXPECT_GE(o.step_size, prev_step) << "rung " << q;
    EXPECT_GE(o.termination_transmittance, base.termination_transmittance)
        << "rung " << q;
    EXPECT_GE(o.octree_level_cap, 0) << "rung " << q;
    EXPECT_GE(RungResolutionDivisor(rung), 1) << "rung " << q;
    EXPECT_LT(RungCostScale(rung), prev_cost) << "rung " << q;
    prev_step = o.step_size;
    prev_cost = RungCostScale(rung);
  }
  // The preview rung engages all three mechanisms.
  const RungSpec& preview = RungSpecFor(QualityRung::kPreview);
  EXPECT_EQ(preview.resolution_divisor, 4);
  EXPECT_GT(preview.octree_level_cap, 0);
}

TEST(QualityRungs, TerminationFloorNeverExtendsAMarch) {
  RenderOptions base;
  base.termination_transmittance = 0.5f;  // already terminates earlier
  const RenderOptions o = ApplyRung(base, QualityRung::kCoarse);
  EXPECT_EQ(o.termination_transmittance, 0.5f);
}

TEST(QualityRungs, ReducedDimNeverDropsBelowOnePixel) {
  EXPECT_EQ(ReducedDim(100, 2), 50);
  EXPECT_EQ(ReducedDim(100, 4), 25);
  EXPECT_EQ(ReducedDim(3, 4), 1);
  EXPECT_EQ(ReducedDim(1, 4), 1);
  EXPECT_EQ(ReducedDim(7, 0), 7);  // divisor floor
}

// --------------------------------------------------------- upsample ----

TEST(UpsampleBilinear, MatchingDimsReturnTheImageBitIdentical) {
  Image src(5, 4);
  for (int y = 0; y < 4; ++y) {
    for (int x = 0; x < 5; ++x) {
      src.At(x, y) = Vec3f{static_cast<float>(x), static_cast<float>(y),
                           static_cast<float>(x * y)};
    }
  }
  const Image up = UpsampleBilinear(src, 5, 4);
  EXPECT_EQ(up.Pixels(), src.Pixels());
}

TEST(UpsampleBilinear, ConstantImageStaysConstantAtAnyScale) {
  Image src(3, 3);
  for (int y = 0; y < 3; ++y) {
    for (int x = 0; x < 3; ++x) src.At(x, y) = Vec3f{0.25f, 0.5f, 0.75f};
  }
  const Image up = UpsampleBilinear(src, 11, 7);
  ASSERT_EQ(up.Width(), 11);
  ASSERT_EQ(up.Height(), 7);
  for (int y = 0; y < 7; ++y) {
    for (int x = 0; x < 11; ++x) {
      EXPECT_EQ(up.At(x, y).x, 0.25f);
      EXPECT_EQ(up.At(x, y).y, 0.5f);
      EXPECT_EQ(up.At(x, y).z, 0.75f);
    }
  }
}

TEST(UpsampleBilinear, IsDeterministic) {
  Image src(6, 6);
  for (int y = 0; y < 6; ++y) {
    for (int x = 0; x < 6; ++x) {
      src.At(x, y) = Vec3f{static_cast<float>(x) * 0.13f,
                           static_cast<float>(y) * 0.07f,
                           static_cast<float>(x + y) * 0.01f};
    }
  }
  const Image a = UpsampleBilinear(src, 24, 24);
  const Image b = UpsampleBilinear(src, 24, 24);
  EXPECT_EQ(a.Pixels(), b.Pixels());
}

// -------------------------------------------------- governor policy ----

QualityLadderOptions FrozenLadder() {
  QualityLadderOptions opts;
  opts.enabled = true;
  opts.freeze_costs = true;
  return opts;
}

TEST(QualityGovernorPolicy, DisabledAlwaysAnswersFull) {
  QualityGovernor gov(QualityLadderOptions{}, /*queue_capacity=*/4);
  gov.NotePressure();
  EXPECT_EQ(gov.Decide(/*priority_class=*/2, /*has_deadline=*/true,
                       /*remaining_ms=*/0.001, /*queue_depth=*/4, "k"),
            QualityRung::kFull);
}

TEST(QualityGovernorPolicy, LoadFloorsDegradeByQueueOccupancy) {
  QualityGovernor gov(FrozenLadder(), /*queue_capacity=*/100);
  const auto decide = [&](std::size_t depth) {
    return gov.Decide(/*priority_class=*/1, /*has_deadline=*/false, 0.0,
                      depth, "k");
  };
  EXPECT_EQ(decide(0), QualityRung::kFull);
  EXPECT_EQ(decide(49), QualityRung::kFull);
  EXPECT_EQ(decide(50), QualityRung::kCoarse);
  EXPECT_EQ(decide(75), QualityRung::kHalf);
  EXPECT_EQ(decide(90), QualityRung::kPreview);
  EXPECT_EQ(decide(100), QualityRung::kPreview);
}

TEST(QualityGovernorPolicy, BatchClassIgnoresLoadFloors) {
  QualityGovernor gov(FrozenLadder(), /*queue_capacity=*/100);
  EXPECT_EQ(gov.Decide(/*priority_class=*/0, /*has_deadline=*/false, 0.0,
                       /*queue_depth=*/100, "k"),
            QualityRung::kFull);
}

TEST(QualityGovernorPolicy, PressureWindowFloorsEveryClassUntilLowWater) {
  QualityGovernor gov(FrozenLadder(), /*queue_capacity=*/4);
  EXPECT_FALSE(gov.UnderPressure());
  gov.NotePressure();
  EXPECT_TRUE(gov.UnderPressure());
  // The batch class, exempt from load floors, is floored under pressure:
  // degrade-over-reject applies to everyone.
  EXPECT_EQ(gov.Decide(0, false, 0.0, /*queue_depth=*/1, "k"),
            QualityRung::kHalf);
  gov.NoteDepth(3);  // above low water (0.5 * 4): stays open
  EXPECT_TRUE(gov.UnderPressure());
  gov.NoteDepth(2);  // at low water: closes
  EXPECT_FALSE(gov.UnderPressure());
  EXPECT_EQ(gov.Decide(0, false, 0.0, 1, "k"), QualityRung::kFull);
}

TEST(QualityGovernorPolicy, DeadlineEscalatesToTheCheapestFittingRung) {
  QualityGovernor gov(FrozenLadder(), /*queue_capacity=*/100);
  gov.SeedCost("scene", /*rung0_ms=*/100.0);
  const auto decide = [&](double remaining_ms) {
    return gov.Decide(/*priority_class=*/2, /*has_deadline=*/true,
                      remaining_ms, /*queue_depth=*/0, "scene");
  };
  // Budget = remaining * 0.8 against the seeded ladder 100/55/20/8 ms.
  EXPECT_EQ(decide(200.0), QualityRung::kFull);    // 160 >= 100
  EXPECT_EQ(decide(100.0), QualityRung::kCoarse);  // 80 < 100, 55 fits
  EXPECT_EQ(decide(30.0), QualityRung::kHalf);     // 24: only 20 fits
  EXPECT_EQ(decide(12.0), QualityRung::kPreview);  // 9.6: only 8 fits
  // Nothing fits: best effort at the ceiling, never a drop decision here.
  EXPECT_EQ(decide(1.0), QualityRung::kPreview);
}

TEST(QualityGovernorPolicy, MaxRungCapsEveryMechanism) {
  QualityLadderOptions opts = FrozenLadder();
  opts.max_rung = 1;
  QualityGovernor gov(opts, /*queue_capacity=*/4);
  gov.NotePressure();
  EXPECT_EQ(gov.Decide(2, true, 0.001, /*queue_depth=*/4, "k"),
            QualityRung::kCoarse);
}

TEST(QualityGovernorPolicy, CostModelFallsBackThroughPriorsToDefault) {
  QualityLadderOptions opts = FrozenLadder();
  opts.default_cost_ms = 40.0;
  QualityGovernor gov(opts, 4);
  // Nothing observed: static priors over the default.
  EXPECT_DOUBLE_EQ(gov.PredictMs("unseen", QualityRung::kFull), 40.0);
  EXPECT_DOUBLE_EQ(gov.PredictMs("unseen", QualityRung::kHalf), 40.0 * 0.2);
  // A seeded key scales its own rung-0 cost through the priors.
  gov.SeedCost("seen", 200.0);
  EXPECT_DOUBLE_EQ(gov.PredictMs("seen", QualityRung::kFull), 200.0);
  EXPECT_DOUBLE_EQ(gov.PredictMs("seen", QualityRung::kPreview),
                   200.0 * 0.08);
  // Other keys keep falling back to the default, not to "seen"'s ladder
  // (SeedCost writes the key slot, not the global one).
  EXPECT_DOUBLE_EQ(gov.PredictMs("unseen", QualityRung::kFull), 40.0);
}

TEST(QualityGovernorPolicy, ObserveRefinesWithEwmaUnlessFrozen) {
  QualityLadderOptions opts;
  opts.enabled = true;
  QualityGovernor gov(opts, 4);
  gov.Observe("k", QualityRung::kFull, 100.0);
  EXPECT_DOUBLE_EQ(gov.PredictMs("k", QualityRung::kFull), 100.0);
  gov.Observe("k", QualityRung::kFull, 50.0);
  EXPECT_DOUBLE_EQ(gov.PredictMs("k", QualityRung::kFull),
                   0.8 * 100.0 + 0.2 * 50.0);
  // An unseen key now inherits the global cross-key EWMA.
  EXPECT_DOUBLE_EQ(gov.PredictMs("other", QualityRung::kFull), 90.0);

  QualityGovernor frozen(FrozenLadder(), 4);
  frozen.SeedCost("k", 10.0);
  frozen.Observe("k", QualityRung::kFull, 500.0);  // must be a no-op
  EXPECT_DOUBLE_EQ(frozen.PredictMs("k", QualityRung::kFull), 10.0);
}

// ---------------------------------------- capped octree skip probe ----

TEST_F(QualityLadderTest, CappedOctreeProbeRendersDeterministicallyClose) {
  // The preview rung's level-capped skip probe is conservative (a parent
  // bit ORs its children, so occupied content is never skipped): the
  // capped render must stay deterministic and close to the exact-leaf
  // render — degraded sampling positions, not missing geometry.
  const RenderRequest req = SmallRequest();
  const std::shared_ptr<const ScenePipeline> pipeline =
      repository_.Acquire(req.config);
  SpNeRFFieldSource source(pipeline->Codec(), req.config.render.fp16_mlp);
  const auto render = [&](int level_cap) {
    RenderJob job;
    job.source = &source;
    job.mlp = &pipeline->GetMlp();
    job.camera = pipeline->MakeCamera(24, 24, 0, req.n_views);
    job.options = pipeline->RenderOptionsWithSkip();
    job.options.octree_level_cap = level_cap;
    return RenderEngine(RenderEngineOptions{}).RenderBatch({job})
        .front()
        .image;
  };
  const Image exact = render(0);
  const Image capped = render(2);
  const Image capped_again = render(2);
  ASSERT_EQ(capped.Pixels().size(), exact.Pixels().size());
  EXPECT_EQ(capped.Pixels(), capped_again.Pixels());  // deterministic
  // Close, not bit-identical: the capped chain samples at different t
  // positions. 20 dB on a 24x24 frame is far above what missing geometry
  // would leave and far below bit-identity.
  EXPECT_GT(Psnr(exact, capped), 20.0);
}

// ------------------------------------------- service-level ladder ----

TEST_F(QualityLadderTest, UnloadedLadderIsBitIdenticalToLadderOff) {
  // The rung-0 contract end-to-end: a ladder-on service that never comes
  // under pressure (closed loop, no deadlines) serves everything at rung 0
  // with pixels bit-identical to the ladder-off service.
  std::vector<std::vector<Image>> by_config;
  for (const bool enabled : {false, true}) {
    RenderServiceOptions opts = PausedOptions(/*capacity=*/8);
    opts.start_paused = false;
    opts.ladder.enabled = enabled;
    RenderService service(opts);
    std::vector<Image> run;
    for (int v = 0; v < 3; ++v) {
      RenderResponse r = service.Submit(SmallRequest(SceneId::kMic, v)).get();
      ASSERT_EQ(r.status, RequestStatus::kCompleted);
      EXPECT_EQ(r.rung, QualityRung::kFull);
      run.push_back(std::move(r.image));
    }
    by_config.push_back(std::move(run));
  }
  for (std::size_t i = 0; i < by_config[0].size(); ++i) {
    EXPECT_EQ(by_config[1][i].Pixels(), by_config[0][i].Pixels())
        << "request " << i;
  }
}

TEST_F(QualityLadderTest, StagedBacklogDegradesThroughTheLoadFloors) {
  // Four same-key requests staged on a paused 4-seat service, max_batch=1:
  // the dispatcher issues them one by one at occupancy 1.0, 0.75, 0.5,
  // 0.25 — the exact rung sequence 3, 2, 1, 0 (the degrade curve), FIFO
  // within the class, on the frozen cost model. Identical at every worker
  // count: the governor decision is pure scheduling state, and a staged
  // backlog's scheduling is already deterministic.
  const std::vector<QualityRung> expected = {
      QualityRung::kPreview, QualityRung::kHalf, QualityRung::kCoarse,
      QualityRung::kFull};
  for (const unsigned workers : {1u, 2u, 8u}) {
    ThreadPool pool(workers);
    RenderServiceOptions opts = PausedOptions(/*capacity=*/4, /*max_batch=*/1);
    opts.engine.pool = &pool;
    opts.ladder.enabled = true;
    opts.ladder.freeze_costs = true;
    RenderService service(opts);
    std::vector<std::future<RenderResponse>> futures;
    for (int v = 0; v < 4; ++v) {
      futures.push_back(service.Submit(SmallRequest(SceneId::kMic, v)));
    }
    service.Drain();
    for (std::size_t i = 0; i < futures.size(); ++i) {
      const RenderResponse r = futures[i].get();
      ASSERT_EQ(r.status, RequestStatus::kCompleted);
      EXPECT_EQ(r.rung, expected[i])
          << "request " << i << " with " << workers << " workers";
      EXPECT_EQ(r.image.Width(), 24);  // upsampled back to requested size
      EXPECT_EQ(r.image.Height(), 24);
    }
    const ServiceStatsSnapshot stats = service.Stats();
    for (std::size_t q = 0; q < kQualityRungCount; ++q) {
      EXPECT_EQ(stats.by_rung[q], 1u) << "rung " << q;
    }
  }
}

TEST_F(QualityLadderTest, FullQueueAdmissionOpensThePressureWindow) {
  // Degrade-over-reject: overflowing the queue floors subsequent rung
  // decisions at the pressure floor — for every class, including batch —
  // until the dispatcher sees the backlog below low water. Staged: 4
  // batch-class requests fill the 4-seat queue, a 5th is rejected (and
  // opens the window). Batch class ignores load floors, so the first two
  // issues (depth 4 and 3, window open) serve at the pressure floor and
  // the last two (window closed at depth 2 = low water) at full quality.
  RenderServiceOptions opts = PausedOptions(/*capacity=*/4, /*max_batch=*/1);
  opts.ladder.enabled = true;
  opts.ladder.freeze_costs = true;
  RenderService service(opts);
  std::vector<std::future<RenderResponse>> futures;
  for (int v = 0; v < 5; ++v) {
    RenderRequest r = SmallRequest(SceneId::kMic, v);
    r.priority = RequestPriority::kBatch;
    futures.push_back(service.Submit(r));
  }
  ASSERT_EQ(futures[4].wait_for(std::chrono::seconds(0)),
            std::future_status::ready);
  EXPECT_EQ(futures[4].get().status, RequestStatus::kRejected);
  EXPECT_TRUE(service.Governor().UnderPressure());
  service.Drain();
  const std::vector<QualityRung> expected = {
      QualityRung::kHalf, QualityRung::kHalf, QualityRung::kFull,
      QualityRung::kFull};
  for (std::size_t i = 0; i < expected.size(); ++i) {
    const RenderResponse r = futures[i].get();
    ASSERT_EQ(r.status, RequestStatus::kCompleted);
    EXPECT_EQ(r.rung, expected[i]) << "request " << i;
  }
  EXPECT_FALSE(service.Governor().UnderPressure());
}

TEST_F(QualityLadderTest, InteractiveHeavyTraceHasTightSeededDeadlines) {
  const LoadGeneratorOptions opts = InteractiveHeavyTrace(/*frame_ms=*/10.0);
  const std::vector<TimedRequest> trace =
      LoadGenerator(opts).GenerateTrace();
  const std::vector<TimedRequest> again =
      LoadGenerator(opts).GenerateTrace();
  ASSERT_EQ(trace.size(), again.size());
  std::size_t interactive = 0;
  for (std::size_t i = 0; i < trace.size(); ++i) {
    const RenderRequest& r = trace[i].request;
    // Seeded determinism: the same options replay byte-identically.
    EXPECT_EQ(again[i].request.deadline_ms, r.deadline_ms);
    EXPECT_EQ(again[i].request.priority, r.priority);
    switch (r.priority) {
      case RequestPriority::kInteractive:
        ++interactive;
        EXPECT_GE(r.deadline_ms, 15.0);  // 1.5x frame
        EXPECT_LE(r.deadline_ms, 30.0);  // 3x frame
        break;
      case RequestPriority::kNormal:
        if (r.deadline_ms > 0.0) {
          EXPECT_GE(r.deadline_ms, 40.0);
          EXPECT_LE(r.deadline_ms, 80.0);
        }
        break;
      case RequestPriority::kBatch:
        EXPECT_EQ(r.deadline_ms, 0.0);
        break;
    }
  }
  // Interactive-heavy: the 0.6 class fraction, within tolerance.
  EXPECT_GT(interactive, trace.size() / 2);
}

}  // namespace
}  // namespace spnerf
