// Repository benchmark: one process runs one workload for one seed and
// prints its metrics as the last line of stdout. perfbench/run.py builds
// this binary and drives it; see perfbench/README.md for the workloads and
// the metric map.
//
//   spnbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//            --out-dir <dir> [--commit <id>]
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <span>
#include <string>
#include <thread>

#include "bench.hpp"
#include "common/dispatch.hpp"
#include "common/simd.hpp"
#include "obs/trace.hpp"
#include "render/skip_mode.hpp"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {
namespace {

constexpr int kSetupRepeats = 3;

[[noreturn]] void Usage(const char* why) {
  std::fprintf(stderr,
               "spnbench: %s\nusage: spnbench --workload <orbit-stream|"
               "serve-steady|serve-overload> --seed <n> --seconds <s> "
               "--trace <0|1> --out-dir <dir> [--commit <id>]\n",
               why);
  std::exit(2);
}

RunArgs ParseArgs(int argc, char** argv) {
  RunArgs a;
  bool have_seed = false, have_seconds = false, have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string key = argv[i];
    if (i + 1 >= argc) Usage(("missing value for " + key).c_str());
    const std::string value = argv[++i];
    try {
      if (key == "--workload") {
        a.workload = FindWorkload(value);
        if (a.workload == nullptr) Usage(("unknown workload " + value).c_str());
      } else if (key == "--seed") {
        a.seed = std::stoull(value);
        have_seed = true;
      } else if (key == "--seconds") {
        a.seconds = std::stod(value);
        have_seconds = a.seconds > 0.0;
      } else if (key == "--trace") {
        if (value != "0" && value != "1") Usage("--trace takes 0 or 1");
        a.trace = value == "1";
        have_trace = true;
      } else if (key == "--out-dir") {
        a.out_dir = value;
      } else if (key == "--commit") {
        a.commit = value;
      } else {
        Usage(("unknown argument " + key).c_str());
      }
    } catch (const std::logic_error&) {
      Usage(("bad value for " + key).c_str());
    }
  }
  if (a.workload == nullptr || !have_seed || !have_seconds || !have_trace ||
      a.out_dir.empty()) {
    Usage("missing argument");
  }
  return a;
}

/// Timed runs measure the shipped defaults only: every SPNF_* mode must
/// resolve to its default and the build must be optimised. Returns the
/// violations found.
std::vector<std::string> ModeViolations() {
  std::vector<std::string> v;
  if (spnerf::obs::ActiveTraceLevel() != spnerf::obs::TraceLevel::kCounters) {
    v.push_back(std::string("SPNF_TRACE resolves to ") +
                spnerf::obs::TraceLevelName(spnerf::obs::ActiveTraceLevel()) +
                ", not the default counters");
  }
  if (spnerf::simd::ActivePath() != spnerf::simd::BestSupportedPath()) {
    v.push_back(std::string("SPNF_SIMD forces ") +
                spnerf::simd::PathName(spnerf::simd::ActivePath()));
  }
  if (spnerf::skip::ActiveMode() != spnerf::skip::Mode::kOctree) {
    v.push_back(std::string("SPNF_SKIP forces ") +
                spnerf::skip::ModeName(spnerf::skip::ActiveMode()));
  }
  if (spnerf::dispatch::ActiveMode() != spnerf::dispatch::Mode::kLockFree) {
    v.push_back(std::string("SPNF_DISPATCH forces ") +
                spnerf::dispatch::ModeName(spnerf::dispatch::ActiveMode()));
  }
#ifndef NDEBUG
  v.push_back("assertions are enabled (not an optimised build)");
#endif
  return v;
}

std::string CpuModel() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) {
        return line.substr(line.find_first_not_of(' ', colon + 1));
      }
    }
  }
  return "unknown";
}

std::string HostJson(const RunArgs& a) {
  std::string s = "{";
  s += "\"cores\": " + std::to_string(std::thread::hardware_concurrency());
  s += ", \"workers\": " + std::to_string(kWorkers);
  s += ", \"cpu\": " + JsonString(CpuModel());
  s += ", \"simd\": " +
       JsonString(spnerf::simd::PathName(spnerf::simd::ActivePath()));
  s += ", \"compiler\": " + JsonString(spnerf::simd::CompilerName());
  s += ", \"build_type\": " + JsonString(PERFBENCH_BUILD_TYPE);
  s += ", \"modes\": {\"SPNF_TRACE\": " +
       JsonString(spnerf::obs::TraceLevelName(spnerf::obs::ActiveTraceLevel())) +
       ", \"SPNF_SIMD\": " +
       JsonString(spnerf::simd::PathName(spnerf::simd::ActivePath())) +
       ", \"SPNF_SKIP\": " +
       JsonString(spnerf::skip::ModeName(spnerf::skip::ActiveMode())) +
       ", \"SPNF_DISPATCH\": " +
       JsonString(spnerf::dispatch::ModeName(spnerf::dispatch::ActiveMode())) +
       "}";
  s += ", \"commit\": " + JsonString(a.commit.empty() ? "unknown" : a.commit);
  s += ", \"workload\": " + JsonString(a.workload->name);
  s += ", \"seed\": " + std::to_string(a.seed);
  return s + "}";
}

double Median(std::vector<double> v) { return Percentile(std::move(v), 50); }

/// Metrics of layers a workload does not exercise, reported as 0 so every
/// traced run carries the full per-layer set.
using ZeroMetric = std::pair<const char*, const char*>;  // name, unit
void SetZero(MetricSink& m, std::span<const ZeroMetric> metrics) {
  for (const auto& [name, unit] : metrics) m.Set(name, 0.0, unit);
}

/// orbit-stream runs no service.
void ZeroServeLayers(MetricSink& m) {
  const ZeroMetric metrics[] = {
      {"serve.submit_us_p50", "us"},    {"serve.submit_us_tail", "us"},
      {"serve.queue_ms_p50", "ms"},     {"serve.queue_ms_tail", "ms"},
      {"serve.service_ms_p50", "ms"},   {"serve.service_ms_tail", "ms"},
      {"serve.queue_peak", "count"},    {"serve.batch_size_mean", "count"},
      {"serve.rejected_frac", "fraction"}, {"serve.expired_frac", "fraction"},
      {"serve.late_frac", "fraction"},  {"loadgen.lag_ms_p50", "ms"},
      {"loadgen.lag_ms_max", "ms"}};
  SetZero(m, metrics);
  for (spnerf::QualityRung rung : kRungs) {
    m.Set(std::string("serve.rung_frac.") + RungKey(rung), 0.0, "fraction");
  }
}

/// The service builds its own field source, so the render/decode/MLP
/// breakdown comes from orbit-stream only.
void ZeroRenderLayers(MetricSink& m) {
  const ZeroMetric metrics[] = {
      {"engine.frame_ms_p50", "ms"},          {"engine.tiles_per_frame", "count"},
      {"pool.cpu_util", "fraction"},          {"render.steps_per_ray", "count"},
      {"render.skip_frac", "fraction"},       {"render.mlp_eval_frac", "fraction"},
      {"render.terminated_frac", "fraction"}, {"decode.share", "fraction"},
      {"decode.ns_per_sample", "ns"},         {"decode.queries_per_sample", "count"},
      {"decode.bitmap_zero_frac", "fraction"}, {"decode.empty_slot_frac", "fraction"},
      {"decode.codebook_frac", "fraction"},   {"decode.true_grid_frac", "fraction"},
      {"mlp.ns_per_eval", "ns"},              {"mlp.share_est", "fraction"},
      {"render.other_share", "fraction"}};
  SetZero(m, metrics);
}

int Run(const RunArgs& args) {
  const std::vector<std::string> violations = ModeViolations();
  if (!violations.empty()) {
    for (const std::string& v : violations) {
      std::fprintf(stderr, "spnbench: untimed mode: %s\n", v.c_str());
    }
    return 2;
  }
  std::filesystem::create_directories(args.out_dir);
  std::printf("host %s\n", HostJson(args).c_str());
  std::fflush(stdout);

  const Clock::time_point run_start = Clock::now();
  spnerf::ThreadPool pool(kWorkers);
  RunContext ctx;
  ctx.args = args;
  ctx.pool = &pool;

  // Cold setups, each from its own empty store; the last one serves the run.
  const std::string store_prefix =
      args.out_dir + "/store-" + std::to_string(getpid()) + "-";
  std::vector<SetupSample> setups;
  for (int k = 0; k < kSetupRepeats; ++k) {
    if (k > 0) std::filesystem::remove_all(store_prefix + std::to_string(k - 1));
    setups.push_back(SetupOnce(ctx, store_prefix + std::to_string(k)));
    std::fprintf(stderr, "spnbench: setup %d: %.3f s wall, %.3f s cpu\n", k,
                 setups.back().seconds, setups.back().cpu_s);
  }
  const Clock::time_point ref_start = Clock::now();
  BuildReference(ctx);
  std::fprintf(stderr, "spnbench: setup %.1f s (x%d), reference %.1f s\n",
               MsBetween(run_start, ref_start) / 1e3, kSetupRepeats,
               MsBetween(ref_start, Clock::now()) / 1e3);

  const bool serve = args.workload->traffic == Traffic::kServe;
  const auto run_phase = [&](MetricSink* layers) {
    return serve ? RunServe(ctx, layers) : RunOrbit(ctx, layers);
  };

  MetricSink sink;
  std::string notes;
  const u64 builds_before = ctx.repository->CacheStats().builds;
  PhaseResult result = run_phase(nullptr);
  EmitEndToEnd(result, args.workload->tail_windows, sink, notes);
  std::printf("notes %s\n", notes.c_str());

  if (args.trace) {
    // Per-layer numbers come from a second, traced pass of the same inputs;
    // the untraced pass above is the overhead baseline.
    sink = MetricSink();
    const double untraced_p50 = Percentile(result.latency_ms, 50);
    const PhaseResult traced = run_phase(&sink);
    const double traced_p50 = Percentile(traced.latency_ms, 50);
    sink.Set("obs.trace_overhead_frac",
             untraced_p50 > 0 ? traced_p50 / untraced_p50 - 1.0 : 0.0,
             "fraction");
    sink.Set("core.builds_during_run",
             static_cast<double>(ctx.repository->CacheStats().builds -
                                 builds_before),
             "count");
    std::vector<double> acquire, setup_wall;
    std::map<std::string, std::vector<double>> build;
    std::vector<double> store;
    for (const SetupSample& s : setups) {
      setup_wall.push_back(s.seconds);
      acquire.insert(acquire.end(), s.acquire_ms.begin(), s.acquire_ms.end());
      for (const char* kind : {"dataset", "codec", "coarse", "octree"}) {
        const auto it = s.build_ms.find(kind);
        build[kind].push_back(it == s.build_ms.end() ? 0.0 : it->second);
      }
      store.push_back(s.store_mb);
    }
    sink.Set("core.setup_wall_s", Median(setup_wall), "s");
    sink.Set("core.acquire_ms_cold", Median(acquire), "ms");
    for (const auto& [kind, values] : build) {
      sink.Set("assets." + kind + "_build_ms", Median(values), "ms");
    }
    sink.Set("assets.store_mb", Median(store), "MB");
    EmitEncodingMetrics(ctx, sink);
    RungProbe(ctx, sink);
    if (serve) {
      ZeroRenderLayers(sink);
    } else {
      ZeroServeLayers(sink);
    }

    const std::vector<Span> spans = ctx.spans.Collect();
    const auto summary = SummarizeSpans(spans);
    // Only the latest trace is kept: an orbit-stream trace holds every
    // SampleBatch call and runs to tens of MB.
    std::error_code rm_ec;
    for (const auto& e :
         std::filesystem::directory_iterator(args.out_dir, rm_ec)) {
      if (e.path().filename().string().rfind("trace-", 0) == 0) {
        std::filesystem::remove(e.path(), rm_ec);
      }
    }
    const std::string path = args.out_dir + "/trace-" + args.workload->name +
                             "-seed" + std::to_string(args.seed) + ".json";
    WriteSpans(path, spans, summary);
    for (const auto& [name, t] : summary) {
      std::printf("span %s count=%llu total_ms=%.3f self_ms=%.3f\n",
                  name.c_str(), static_cast<unsigned long long>(t.count),
                  t.total_ms, t.self_ms);
    }
    std::printf("trace %s\n", path.c_str());
    result.attempted += traced.attempted;
    result.failed += traced.failed;
    result.correct = result.correct && traced.correct;
  } else {
    // Process CPU seconds, not wall: a cold setup runs partly in parallel,
    // and its wall time swung up to 2x with the CPU the host stole from the
    // run, while its CPU time held within a few percent. The wall time is
    // reported per layer as core.setup_wall_s.
    std::vector<double> setup_s;
    for (const SetupSample& s : setups) setup_s.push_back(s.cpu_s);
    sink.Set("setup_s", Median(setup_s), "s");
    sink.Set("peak_rss_mb", PeakRssMb(), "MB");
  }
  if (ctx.repository->CacheStats().builds != builds_before) {
    std::fprintf(stderr, "spnbench: an asset was rebuilt during the run\n");
  }

  std::error_code ec;
  for (int k = 0; k < kSetupRepeats; ++k) {
    std::filesystem::remove_all(store_prefix + std::to_string(k), ec);
  }
  if (result.completed == 0) result.correct = false;
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": %s}\n",
              result.correct ? "true" : "false",
              static_cast<unsigned long long>(result.attempted),
              static_cast<unsigned long long>(result.failed),
              sink.Json().c_str());
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  return perfbench::Run(perfbench::ParseArgs(argc, argv));
}
