// orbit-stream: one viewer in a closed loop. Each call renders one frame
// with RenderEngine::RenderBatch on every worker, cycling the 8 orbit views
// of one scene before moving to the next.
#include <algorithm>

#include "bench.hpp"
#include "common/rng.hpp"
#include "core/pipeline.hpp"
#include "render/render_engine.hpp"

namespace perfbench {

PhaseResult RunOrbit(RunContext& ctx, MetricSink* layers) {
  const bool traced = layers != nullptr;
  const WorkloadSpec& w = *ctx.args.workload;
  spnerf::RenderEngineOptions eo;
  eo.pool = ctx.pool;
  const spnerf::RenderEngine engine(eo);

  std::atomic<u64> parent{0}, request{0};
  std::vector<std::unique_ptr<spnerf::SpNeRFFieldSource>> inner;
  std::vector<std::unique_ptr<TimingFieldSource>> timed;
  for (const auto& p : ctx.pipelines) {
    inner.push_back(std::make_unique<spnerf::SpNeRFFieldSource>(
        p->Codec(), p->Config().render.fp16_mlp, /*collect_counters=*/false));
    inner.back()->SetMasking(true);
    timed.push_back(std::make_unique<TimingFieldSource>(*inner.back(),
                                                        ctx.spans, parent,
                                                        request));
  }
  const auto make_job = [&](std::size_t s, int view) {
    const spnerf::ScenePipeline& p = *ctx.pipelines[s];
    spnerf::RenderJob job;
    job.source = traced ? static_cast<const spnerf::FieldSource*>(timed[s].get())
                        : inner[s].get();
    job.mlp = &p.GetMlp();
    job.camera = p.MakeCamera(w.frame_size, w.frame_size, view, kViews);
    job.options = p.RenderOptionsWithSkip();
    job.collect_stats = traced;
    return job;
  };

  // The seed picks the scene order and the starting view.
  spnerf::Rng rng(ctx.args.seed);
  std::vector<std::size_t> order(ctx.pipelines.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  for (std::size_t i = order.size(); i > 1; --i) {
    std::swap(order[i - 1], order[rng.NextBelow(i)]);
  }
  const int first_view = static_cast<int>(rng.NextBelow(kViews));

  // Warm the per-thread render scratch once per scene, untimed.
  for (std::size_t s = 0; s < ctx.pipelines.size(); ++s) {
    (void)engine.RenderBatch({make_job(s, 0)});
  }

  PhaseResult r;
  RenderLayerInput layer_in;
  layer_in.frame_size = w.frame_size;
  const Clock::time_point start = Clock::now();
  const Clock::time_point stop =
      start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(ctx.args.seconds));
  const double cpu0 = ProcessCpuMs();
  for (u64 i = 0; Clock::now() < stop; ++i) {
    const std::size_t s = order[(i / kViews) % order.size()];
    const int view = static_cast<int>((first_view + i) % kViews);
    const spnerf::RenderJob job = make_job(s, view);
    Span span;
    span.id = ctx.spans.NextId();
    span.request = i + 1;
    span.name = "RenderEngine::RenderBatch";
    span.items = 1;
    parent.store(span.id);
    request.store(span.request);
    ++r.attempted;
    span.start = Clock::now();
    std::vector<spnerf::RenderResult> results;
    try {
      results = engine.RenderBatch({job});
    } catch (const std::exception& e) {
      std::fprintf(stderr, "perfbench: frame %llu failed: %s\n",
                   static_cast<unsigned long long>(i), e.what());
      ++r.failed;
      continue;
    }
    span.end = Clock::now();
    const double ms = MsBetween(span.start, span.end);
    if (traced) {
      ctx.spans.Record(span);
      layer_in.stats.Merge(results[0].stats);
      layer_in.counters.Merge(results[0].counters);
      layer_in.frame_spans.push_back(span.id);
      layer_in.frame_ms.push_back(ms);
    }
    const std::size_t idx =
        ctx.reference.Index(s, view, spnerf::QualityRung::kFull);
    if (!BitIdentical(results[0].image, ctx.reference.frames[idx])) {
      std::fprintf(stderr, "perfbench: frame %llu (scene %zu view %d) differs "
                   "from its reference\n",
                   static_cast<unsigned long long>(i), s, view);
      ++r.failed;
      r.correct = false;
      continue;
    }
    ++r.completed;
    ++r.good;  // a closed-loop viewer has no deadline
    r.latency_ms.push_back(ms);
    r.latency_window.push_back(WindowOf(MsBetween(start, span.start),
                                        ctx.args.seconds, w.tail_windows));
    r.psnr_sum += ctx.reference.psnr_db[idx];
  }
  const Clock::time_point end = Clock::now();
  r.cpu_ms = ProcessCpuMs() - cpu0;
  r.wall_s = MsBetween(start, end) / 1e3;
  if (layers != nullptr) {
    layer_in.cpu_ms = r.cpu_ms;
    layer_in.wall_ms = MsBetween(start, end);
    EmitRenderLayers(ctx, layer_in, *layers);
  }
  return r;
}

}  // namespace perfbench
