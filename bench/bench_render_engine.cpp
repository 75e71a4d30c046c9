// Render-engine scaling bench: an N-view orbit sweep with full statistics
// collection, rendered through the batched tile scheduler at 1 worker (the
// seed's stats-on sequential behaviour) and at the configured worker count.
// The speedup row is the headline number the engine refactor targets: the
// seed dropped to one core whenever RenderStats were requested.
//
// Usage: ./bench_render_engine [scene=lego] [res=64] [views=8] [size=160]
//        [threads=0]
#include "bench/bench_util.hpp"
#include "core/pipeline.hpp"

int main(int argc, char** argv) {
  using namespace spnerf;
  const Config args = Config::FromArgs(argc, argv);

  PipelineConfig config;
  config.scene_id = SceneFromName(args.GetString("scene", "lego"));
  config.dataset.resolution_override = args.GetInt("res", 64);
  const int views = args.GetInt("views", 8);
  const int size = args.GetInt("size", 160);
  const unsigned threads = static_cast<unsigned>(args.GetInt("threads", 0));
  // threads=N may exceed the detected core count (which cgroup-limited
  // containers under-report); the engine then builds a dedicated pool of
  // that size. The default uses the global pool.
  const unsigned pool_workers = ThreadPool::Global().WorkerCount();
  const unsigned parallel_workers = threads ? threads : pool_workers;

  bench::PrintHeader("RenderEngine", "stats-on orbit sweep scaling");
  std::printf("scene '%s' at %d^3, %d views of %dx%d, pool of %u workers\n",
              SceneName(config.scene_id), config.dataset.resolution_override,
              views, size, size, pool_workers);

  const std::shared_ptr<const ScenePipeline> pipeline =
      PipelineRepository::Global().Acquire(config);
  SpNeRFFieldSource source(pipeline->Codec(), config.render.fp16_mlp,
                           /*collect_counters=*/false);

  std::vector<RenderJob> jobs;
  for (int v = 0; v < views; ++v) {
    RenderJob job;
    job.source = &source;
    job.mlp = &pipeline->GetMlp();
    job.camera = pipeline->MakeCamera(size, size, v, views);
    job.options = pipeline->RenderOptionsWithSkip();
    job.collect_stats = true;
    jobs.push_back(job);
  }

  bench::JsonReport json("render_engine");
  const auto run = [&](const char* name, unsigned workers) {
    RenderEngineOptions opts;
    opts.max_threads = workers;
    const bench::WallTimer timer;
    const std::vector<RenderResult> results =
        RenderEngine(opts).RenderBatch(jobs);
    const double wall_ms = timer.ElapsedMs();
    u64 rays = 0, evals = 0, queries = 0;
    for (const RenderResult& r : results) {
      rays += r.stats.rays;
      evals += r.stats.mlp_evals;
      queries += r.counters.queries;
    }
    std::printf("%-14s %2u workers: %8.1f ms  (%llu rays, %llu MLP evals, "
                "%llu decodes)\n",
                name, workers, wall_ms, static_cast<unsigned long long>(rays),
                static_cast<unsigned long long>(evals),
                static_cast<unsigned long long>(queries));
    json.Add(name, wall_ms, workers);
    return wall_ms;
  };

  bench::PrintRule();
  const double seq_ms = run("sequential", 1);
  const double par_ms = run("parallel", parallel_workers);
  bench::PrintRule();
  std::printf("speedup: %.2fx on %u workers (target: >= 4x on 8)\n",
              seq_ms / par_ms, parallel_workers);

  // Tracing-overhead gate: the parallel sweep re-run with full tracing off
  // and on. The ratio (wall_off / wall_full, so 1.0 = free, < 0.95 would
  // breach the observability contract) lands in the obs block and, per
  // repo convention, in an entries row.
  {
    const obs::TraceLevel prev = obs::SetActiveTraceLevel(obs::TraceLevel::kOff);
    const double off_ms = run("parallel[trace=off]", parallel_workers);
    obs::SetActiveTraceLevel(obs::TraceLevel::kFull);
    const double full_ms = run("parallel[trace=full]", parallel_workers);
    obs::SetActiveTraceLevel(prev);
    if (full_ms > 0.0) {
      const double ratio = off_ms / full_ms;
      std::printf("tracing overhead: off %.1f ms -> full %.1f ms (%.3fx)\n",
                  off_ms, full_ms, ratio);
      json.AddObsRatio("render/trace-overhead[full]", ratio);
      json.Add("render/trace-overhead", ratio, parallel_workers);
    }
  }

  bench::AddBuildTimings(json);
  json.CaptureObsSnapshot();
  return 0;
}
