// Workload definitions, cold setup, the reference table, and the per-layer
// metrics measured outside the timed loop (encoding sizes, rung probe) or
// reduced from orbit-stream's traced loop (render/decode/MLP shares).
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>

#include "bench.hpp"
#include "common/rng.hpp"
#include "core/pipeline.hpp"
#include "render/render_engine.hpp"

namespace perfbench {

using spnerf::QualityRung;
using spnerf::SceneId;

namespace {

const std::vector<WorkloadSpec>& Workloads() {
  static const std::vector<WorkloadSpec> workloads = [] {
    std::vector<WorkloadSpec> w(3);
    // Half-full, dense and mostly-empty scenes at 128^2 on all workers.
    w[0].name = "orbit-stream";
    w[0].traffic = Traffic::kOrbitStream;
    w[0].scenes = {SceneId::kLego, SceneId::kShip, SceneId::kMic,
                   SceneId::kChair};
    w[0].frame_size = 128;

    // All eight scenes, lego and chair hot. Full-quality capacity at 64^2
    // is about 18-22 frames/s on 4 workers; 7/s sits well below the knee.
    // Deadlines are generous: every request carries 1 s.
    w[1].name = "serve-steady";
    w[1].scenes = {SceneId::kLego,  SceneId::kChair,     SceneId::kDrums,
                   SceneId::kFicus, SceneId::kHotdog,    SceneId::kMaterials,
                   SceneId::kMic,   SceneId::kShip};
    w[1].frame_size = 64;
    w[1].rate_rps = 7.0;
    w[1].flat_deadline_ms = 1000.0;

    // Same traffic shape at about 3x full-quality capacity, interactive
    // heavy, deadlines from a constant 55 ms frame time. Requests the preset
    // leaves without a deadline (all batch, a fifth of normal) get 1 s, so
    // no delivered frame can starve for the whole run and the latency tail
    // measures the service, not one unlucky starvation episode.
    w[2] = w[1];
    w[2].name = "serve-overload";
    w[2].rate_rps = 60.0;
    w[2].interactive_heavy = true;
    w[2].deadline_frame_ms = 55.0;
    w[2].tail_windows = 4;
    return w;
  }();
  return workloads;
}

double DirBytes(const std::string& dir) {
  double bytes = 0.0;
  std::error_code ec;
  for (const auto& e :
       std::filesystem::recursive_directory_iterator(dir, ec)) {
    if (e.is_regular_file(ec)) bytes += static_cast<double>(e.file_size(ec));
  }
  return bytes;
}

int TilesPerFrame(int width, int height) {
  const int tile = spnerf::RenderEngineOptions{}.tile_size;
  return ((width + tile - 1) / tile) * ((height + tile - 1) / tile);
}

}  // namespace

const char* RungKey(QualityRung rung) {
  switch (rung) {
    case QualityRung::kFull: return "full";
    case QualityRung::kCoarse: return "coarse";
    case QualityRung::kHalf: return "half";
    case QualityRung::kPreview: return "preview";
  }
  return "unknown";
}

const WorkloadSpec* FindWorkload(const std::string& name) {
  for (const WorkloadSpec& w : Workloads()) {
    if (w.name == name) return &w;
  }
  return nullptr;
}

spnerf::PipelineConfig SceneConfig(SceneId id, spnerf::ThreadPool& pool) {
  spnerf::PipelineConfig c;
  c.scene_id = id;
  c.dataset.resolution_override = kGridResolution;
  c.engine.pool = &pool;
  return c;
}

spnerf::RenderServiceOptions ServiceOptions(spnerf::ThreadPool& pool,
                                            spnerf::PipelineRepository& repo) {
  // A short queue bounds queueing delay: overload turns into early
  // rejections and degraded rungs instead of seconds-long waits. (With 32
  // seats the governor's feedback swung goodput by +-20% between runs of
  // one seed; with 8 the same runs agree within a few percent.)
  spnerf::RenderServiceOptions o;
  o.queue_capacity = 8;
  o.max_batch = 8;
  o.max_inflight_batches = 4;
  o.engine.pool = &pool;
  o.repository = &repo;
  o.ladder.enabled = true;
  return o;
}

std::size_t ReferenceTable::Index(std::size_t scene, int view,
                                  QualityRung rung) const {
  return (scene * kViews + static_cast<std::size_t>(view)) *
             spnerf::kQualityRungCount +
         static_cast<std::size_t>(rung);
}

std::size_t ReferenceTable::SceneIndex(SceneId id) const {
  for (std::size_t i = 0; i < scenes.size(); ++i) {
    if (scenes[i] == id) return i;
  }
  return scenes.size();
}

SetupSample SetupOnce(RunContext& ctx, const std::string& store_dir) {
  ctx.pipelines.clear();
  ctx.repository.reset();
  ctx.cache.reset();
  std::filesystem::remove_all(store_dir);
  std::filesystem::create_directories(store_dir);

  SetupSample sample;
  const double cpu0 = ProcessCpuMs();
  const Clock::time_point t0 = Clock::now();
  spnerf::AssetCacheOptions ao;
  ao.disk_root = store_dir;
  ao.memory_capacity = 64;  // every asset of 8 scenes stays live
  ctx.cache = std::make_unique<spnerf::AssetCache>(ao);
  ctx.repository =
      std::make_unique<spnerf::PipelineRepository>(ctx.cache.get(), 16);
  Span setup;
  setup.id = ctx.spans.NextId();
  setup.name = "setup";
  setup.start = t0;
  for (SceneId id : ctx.args.workload->scenes) {
    Span span;
    span.id = ctx.spans.NextId();
    span.parent = setup.id;
    span.name = "PipelineRepository::Acquire";
    span.start = Clock::now();
    ctx.pipelines.push_back(
        ctx.repository->Acquire(SceneConfig(id, *ctx.pool)));
    span.end = Clock::now();
    ctx.spans.Record(span);
    sample.acquire_ms.push_back(MsBetween(span.start, span.end));
  }
  setup.end = Clock::now();
  ctx.spans.Record(setup);
  sample.seconds = MsBetween(t0, setup.end) / 1e3;
  sample.cpu_s = (ProcessCpuMs() - cpu0) / 1e3;

  for (const spnerf::AssetTimingEntry& t : ctx.repository->DrainTimings()) {
    if (t.origin != spnerf::AssetOrigin::kBuilt) continue;
    sample.build_ms[t.name.substr(0, t.name.find('/'))] += t.wall_ms;
  }
  sample.store_mb = DirBytes(store_dir) / 1e6;
  return sample;
}

void BuildReference(RunContext& ctx) {
  const WorkloadSpec& w = *ctx.args.workload;
  ReferenceTable& ref = ctx.reference;
  ref.scenes = w.scenes;
  // orbit-stream only ever delivers full-quality frames.
  const bool all_rungs = w.traffic == Traffic::kServe;
  const std::size_t n = w.scenes.size() * kViews * spnerf::kQualityRungCount;
  ref.frames.assign(n, spnerf::Image());
  ref.psnr_db.assign(n, 0.0);

  spnerf::RenderEngineOptions eo;
  eo.pool = ctx.pool;
  const spnerf::RenderEngine engine(eo);
  // The same source construction the service's issue half uses.
  std::vector<std::unique_ptr<spnerf::SpNeRFFieldSource>> sources;
  for (const auto& p : ctx.pipelines) {
    sources.push_back(std::make_unique<spnerf::SpNeRFFieldSource>(
        p->Codec(), p->Config().render.fp16_mlp, /*collect_counters=*/false));
    sources.back()->SetMasking(true);
  }
  for (QualityRung rung : kRungs) {
    if (rung != QualityRung::kFull && !all_rungs) continue;
    const int d = spnerf::RungResolutionDivisor(rung);
    const int rw = spnerf::ReducedDim(w.frame_size, d);
    std::vector<spnerf::RenderJob> jobs;
    for (std::size_t s = 0; s < ctx.pipelines.size(); ++s) {
      const spnerf::ScenePipeline& p = *ctx.pipelines[s];
      for (int v = 0; v < kViews; ++v) {
        spnerf::RenderJob job;
        job.source = sources[s].get();
        job.mlp = &p.GetMlp();
        job.camera = p.MakeCamera(rw, rw, v, kViews);
        job.options = spnerf::ApplyRung(p.RenderOptionsWithSkip(), rung);
        jobs.push_back(job);
      }
    }
    std::vector<spnerf::RenderResult> results = engine.RenderBatch(jobs);
    std::size_t j = 0;
    for (std::size_t s = 0; s < ctx.pipelines.size(); ++s) {
      for (int v = 0; v < kViews; ++v, ++j) {
        spnerf::Image& img = results[j].image;
        ref.frames[ref.Index(s, v, rung)] =
            d > 1 ? spnerf::UpsampleBilinear(img, w.frame_size, w.frame_size)
                  : std::move(img);
      }
    }
  }
  for (std::size_t s = 0; s < ctx.pipelines.size(); ++s) {
    for (int v = 0; v < kViews; ++v) {
      const spnerf::Image gt = ctx.pipelines[s]->RenderGroundTruth(
          ctx.pipelines[s]->MakeCamera(w.frame_size, w.frame_size, v, kViews));
      for (QualityRung rung : kRungs) {
        const std::size_t i = ref.Index(s, v, rung);
        if (ref.frames[i].Empty()) continue;
        ref.psnr_db[i] = std::min(spnerf::Psnr(gt, ref.frames[i]), 99.0);
      }
    }
  }
}

void EmitEncodingMetrics(const RunContext& ctx, MetricSink& sink) {
  double model = 0.0, hash = 0.0, bitmap = 0.0, restored = 0.0, alias = 0.0;
  for (const auto& p : ctx.pipelines) {
    model += static_cast<double>(p->Codec().TotalBytes());
    hash += static_cast<double>(p->Codec().HashTableBytes());
    bitmap += static_cast<double>(p->Codec().BitmapBytes());
    restored += static_cast<double>(p->Dataset().vqrf->RestoredBytes());
    alias += p->Codec().NonZeroAliasRate();
  }
  const double n = static_cast<double>(ctx.pipelines.size());
  sink.Set("encoding.model_mb", model / 1e6, "MB");
  sink.Set("encoding.hash_mb", hash / 1e6, "MB");
  sink.Set("encoding.bitmap_mb", bitmap / 1e6, "MB");
  sink.Set("encoding.compression_x", model > 0 ? restored / model : 0.0, "x");
  sink.Set("encoding.alias_rate", n > 0 ? alias / n : 0.0, "fraction");
}

void RungProbe(RunContext& ctx, MetricSink& sink) {
  const WorkloadSpec& w = *ctx.args.workload;
  spnerf::RenderEngineOptions eo;
  eo.pool = ctx.pool;
  const spnerf::RenderEngine engine(eo);
  std::atomic<u64> parent{0}, request{0};
  constexpr int kReps = 3;

  for (QualityRung rung : kRungs) {
    const int d = spnerf::RungResolutionDivisor(rung);
    const int rw = spnerf::ReducedDim(w.frame_size, d);
    std::vector<double> frame_ms;
    for (std::size_t s = 0; s < ctx.pipelines.size(); ++s) {
      const spnerf::ScenePipeline& p = *ctx.pipelines[s];
      spnerf::SpNeRFFieldSource inner(p.Codec(), p.Config().render.fp16_mlp,
                                      /*collect_counters=*/false);
      inner.SetMasking(true);
      const TimingFieldSource source(inner, ctx.spans, parent, request);
      const int view = static_cast<int>((s + ctx.args.seed) % kViews);
      spnerf::RenderJob job;
      job.source = &source;
      job.mlp = &p.GetMlp();
      job.camera = p.MakeCamera(rw, rw, view, kViews);
      job.options = spnerf::ApplyRung(p.RenderOptionsWithSkip(), rung);
      for (int rep = 0; rep < kReps; ++rep) {
        Span span;
        span.id = ctx.spans.NextId();
        span.request = request.fetch_add(1) + 1;
        span.name = "RenderEngine::RenderBatch(probe)";
        parent.store(span.id);
        span.start = Clock::now();
        (void)engine.RenderBatch({job});
        span.end = Clock::now();
        span.items = 1;
        ctx.spans.Record(span);
        frame_ms.push_back(MsBetween(span.start, span.end));
      }
    }
    const std::string key = RungKey(rung);
    sink.Set("render.rung_ms." + key, Percentile(frame_ms, 50), "ms");
    sink.Set("render.rung_tiles." + key, TilesPerFrame(rw, rw), "count");
  }
}

void EmitRenderLayers(RunContext& ctx, const RenderLayerInput& in,
                      MetricSink& sink) {
  const spnerf::RenderStats& st = in.stats;
  const spnerf::DecodeCounters& dc = in.counters;
  const auto ratio = [](double a, double b) { return b > 0 ? a / b : 0.0; };

  // Decode time: the SampleBatch spans hanging off these frames.
  const std::vector<Span> spans = ctx.spans.Collect();
  std::vector<u64> frames = in.frame_spans;
  std::sort(frames.begin(), frames.end());
  double decode_ns = 0.0;
  u64 samples = 0, calls = 0;
  for (const Span& s : spans) {
    if (std::string_view(s.name) != "FieldSource::SampleBatch") continue;
    if (!std::binary_search(frames.begin(), frames.end(), s.parent)) continue;
    decode_ns += static_cast<double>(s.cpu_ns);
    samples += s.items;
    ++calls;
  }
  const double cpu_ns = in.cpu_ms * 1e6;

  // Standalone MLP estimate at the measured front size (alpha-gate
  // survivors per SampleBatch call): the service-independent cost of one
  // evaluation, scaled by the frames' evaluation count.
  const std::size_t front = std::max<std::size_t>(
      1, static_cast<std::size_t>(std::llround(
             ratio(static_cast<double>(st.mlp_evals),
                   static_cast<double>(calls)))));
  const spnerf::Mlp& mlp = ctx.pipelines.front()->GetMlp();
  spnerf::Rng rng(ctx.args.seed ^ 0x6d6c70u);
  std::vector<std::array<float, spnerf::kMlpInputDim>> inputs(front);
  for (auto& in_row : inputs) {
    for (float& x : in_row) x = rng.Uniform(-1.0f, 1.0f);
  }
  std::vector<spnerf::Vec3f> outputs(front);
  Span mlp_span;
  mlp_span.id = ctx.spans.NextId();
  mlp_span.name = "Mlp::ForwardBatch(estimate)";
  const u64 mlp_cpu0 = ThreadCpuNs();
  mlp_span.start = Clock::now();
  u64 evals = 0;
  while (MsBetween(mlp_span.start, Clock::now()) < 150.0) {
    for (int i = 0; i < 16; ++i) {
      mlp.ForwardBatch(inputs, outputs);
      evals += front;
    }
  }
  mlp_span.end = Clock::now();
  mlp_span.cpu_ns = ThreadCpuNs() - mlp_cpu0;
  mlp_span.items = evals;
  ctx.spans.Record(mlp_span);
  const double mlp_ns_per_eval =
      static_cast<double>(mlp_span.cpu_ns) / static_cast<double>(evals);

  const double decode_share = ratio(decode_ns, cpu_ns);
  const double mlp_share =
      ratio(mlp_ns_per_eval * static_cast<double>(st.mlp_evals), cpu_ns);
  const double steps = static_cast<double>(st.steps);
  const double queries = static_cast<double>(dc.queries);
  sink.Set("engine.frame_ms_p50", Percentile(in.frame_ms, 50), "ms");
  sink.Set("engine.tiles_per_frame", TilesPerFrame(in.frame_size, in.frame_size),
           "count");
  sink.Set("pool.cpu_util", ratio(in.cpu_ms, in.wall_ms * kWorkers), "fraction");
  sink.Set("render.steps_per_ray", ratio(steps, static_cast<double>(st.rays)),
           "count");
  sink.Set("render.skip_frac",
           ratio(static_cast<double>(st.coarse_skips),
                 static_cast<double>(st.coarse_skips) + steps),
           "fraction");
  sink.Set("render.mlp_eval_frac",
           ratio(static_cast<double>(st.mlp_evals), steps), "fraction");
  sink.Set("render.terminated_frac",
           ratio(static_cast<double>(st.terminated_rays),
                 static_cast<double>(st.rays)),
           "fraction");
  sink.Set("decode.share", decode_share, "fraction");
  sink.Set("decode.ns_per_sample",
           ratio(decode_ns, static_cast<double>(samples)), "ns");
  sink.Set("decode.queries_per_sample", ratio(queries, steps), "count");
  sink.Set("decode.bitmap_zero_frac",
           ratio(static_cast<double>(dc.bitmap_zero), queries), "fraction");
  sink.Set("decode.empty_slot_frac",
           ratio(static_cast<double>(dc.empty_slot), queries), "fraction");
  sink.Set("decode.codebook_frac",
           ratio(static_cast<double>(dc.codebook_hits), queries), "fraction");
  sink.Set("decode.true_grid_frac",
           ratio(static_cast<double>(dc.true_grid_hits), queries), "fraction");
  sink.Set("mlp.ns_per_eval", mlp_ns_per_eval, "ns");
  sink.Set("mlp.share_est", mlp_share, "fraction");
  sink.Set("render.other_share", 1.0 - decode_share - mlp_share, "fraction");
}

void EmitEndToEnd(const PhaseResult& r, int tail_windows, MetricSink& sink,
                  std::string& notes) {
  std::vector<std::vector<double>> windows(tail_windows);
  for (std::size_t i = 0; i < r.latency_ms.size(); ++i) {
    windows[r.latency_window[i]].push_back(r.latency_ms[i]);
  }
  std::vector<double> tails;
  notes = tail_windows == 1 ? "latency_tail_ms is"
                            : "latency_tail_ms is the median of " +
                                  std::to_string(tail_windows) +
                                  " window tails:";
  for (const std::vector<double>& window : windows) {
    const Tail tail = TailOf(window);
    tails.push_back(tail.value);
    char buf[96];
    std::snprintf(buf, sizeof(buf), "%s p%.2f of n=%zu",
                  tails.size() > 1 ? "," : "", tail.percentile, tail.n);
    notes += buf;
  }
  notes += " delivered frames";
  const double completed = static_cast<double>(r.completed);
  sink.Set("latency_p50_ms", Percentile(r.latency_ms, 50), "ms");
  sink.Set("latency_tail_ms", Percentile(tails, 50), "ms");
  sink.Set("goodput_fps", r.wall_s > 0 ? static_cast<double>(r.good) / r.wall_s : 0.0,
           "1/s");
  sink.Set("delivered_frac",
           r.attempted ? completed / static_cast<double>(r.attempted) : 0.0,
           "fraction");
  sink.Set("psnr_db", completed > 0 ? r.psnr_sum / completed : 0.0, "dB");
  sink.Set("cpu_ms_per_frame", completed > 0 ? r.cpu_ms / completed : 0.0,
           "ms");
}

}  // namespace perfbench
