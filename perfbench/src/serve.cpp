// serve-steady and serve-overload: open-loop Poisson arrivals from one
// generator thread into one RenderService. Requests are timed from their
// due time, so a generator stall is charged to every request it delays.
#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <set>
#include <thread>

#include "bench.hpp"
#include "serve/load_generator.hpp"

namespace perfbench {

namespace {

struct Record {
  double lag_ms = 0.0;
  double submit_us = 0.0;
  Clock::time_point submitted;
  u64 envelope_id = 0;  // traced pass only
  std::future<spnerf::RenderResponse> future;
};

/// Checks one completed response against the reference table. Returns the
/// reference index, or npos when the image differs.
std::size_t CheckResponse(const RunContext& ctx,
                          const spnerf::RenderRequest& req,
                          const spnerf::RenderResponse& resp) {
  const ReferenceTable& ref = ctx.reference;
  const std::size_t s = ref.SceneIndex(req.config.scene_id);
  const std::size_t idx = ref.Index(s, req.view, resp.rung);
  if (s >= ref.scenes.size() || !BitIdentical(resp.image, ref.frames[idx])) {
    return std::string::npos;
  }
  return idx;
}

}  // namespace

PhaseResult RunServe(RunContext& ctx, MetricSink* layers) {
  const WorkloadSpec& w = *ctx.args.workload;
  spnerf::LoadGeneratorOptions lo =
      w.interactive_heavy ? spnerf::InteractiveHeavyTrace(w.deadline_frame_ms)
                          : spnerf::LoadGeneratorOptions{};
  lo.seed = ctx.args.seed;
  lo.arrival_rate_rps = w.rate_rps;
  // Exactly rate x seconds arrivals in the window: the generator's Poisson
  // arrivals, rescaled so the arrival after the last one lands on the window
  // end. That is a Poisson process conditioned on its count, so every seed
  // offers the same number of requests and goodput does not inherit the
  // count's sampling noise.
  const std::size_t offered =
      std::max<std::size_t>(1, static_cast<std::size_t>(
                                   std::llround(w.rate_rps * ctx.args.seconds)));
  lo.request_count = offered + 1;
  lo.scenes = w.scenes;
  lo.hot_scene_count = w.hot_scenes;
  lo.hot_fraction = 0.8;
  lo.base.config = SceneConfig(w.scenes.front(), *ctx.pool);
  lo.base.image_width = w.frame_size;
  lo.base.image_height = w.frame_size;
  lo.base.n_views = kViews;
  std::vector<spnerf::TimedRequest> trace =
      spnerf::LoadGenerator(lo).GenerateTrace();
  const double scale = ctx.args.seconds * 1e3 / trace.back().arrival_ms;
  trace.pop_back();
  for (spnerf::TimedRequest& t : trace) {
    t.arrival_ms *= scale;
    if (t.request.deadline_ms <= 0.0) t.request.deadline_ms = w.flat_deadline_ms;
  }

  PhaseResult r;
  spnerf::RenderService service(ServiceOptions(*ctx.pool, *ctx.repository));

  // Warmup, untimed: one unloaded full-quality request per scene calibrates
  // the governor's cost model and warms the per-thread render scratch.
  for (spnerf::SceneId id : w.scenes) {
    spnerf::RenderRequest req = lo.base;
    req.config.scene_id = id;
    const spnerf::RenderResponse resp = service.Submit(req).get();
    if (resp.status != spnerf::RequestStatus::kCompleted ||
        CheckResponse(ctx, req, resp) == std::string::npos) {
      std::fprintf(stderr, "perfbench: warmup request for scene %d failed\n",
                   static_cast<int>(id));
      r.correct = false;
    }
  }

  // A drain thread takes each response as its future resolves, in both
  // passes, so the traced pass differs from the untraced one only by its
  // span recording inside the window: the generator thread records each
  // Submit span as Submit returns, the drain thread each request's envelope
  // (Submit -> response ready) as its response arrives.
  const bool traced = layers != nullptr;
  std::vector<Record> records(trace.size());
  std::vector<spnerf::RenderResponse> responses(trace.size());
  std::vector<bool> resolved(trace.size(), false);
  std::atomic<std::size_t> submitted{0};
  const auto to_duration = [](double ms) {
    return std::chrono::duration_cast<Clock::duration>(
        std::chrono::duration<double, std::milli>(ms));
  };
  std::thread drain([&] {
    for (std::size_t i = 0; i < trace.size(); ++i) {
      for (std::size_t n = submitted.load(std::memory_order_acquire); n <= i;
           n = submitted.load(std::memory_order_acquire)) {
        submitted.wait(n, std::memory_order_acquire);
      }
      try {
        responses[i] = records[i].future.get();
        resolved[i] = true;
      } catch (const std::exception& e) {
        std::fprintf(stderr, "perfbench: request %zu errored: %s\n", i,
                     e.what());
        continue;
      }
      if (traced) {
        Span envelope;
        envelope.id = records[i].envelope_id;
        envelope.request = i + 1;
        envelope.name = "RenderService::Submit->ready";
        envelope.start = records[i].submitted;
        envelope.end = records[i].submitted + to_duration(responses[i].total_ms);
        ctx.spans.Record(envelope);
      }
    }
  });

  const Clock::time_point start = Clock::now();
  const double cpu0 = ProcessCpuMs();
  for (std::size_t i = 0; i < trace.size(); ++i) {
    const Clock::time_point due = start + to_duration(trace[i].arrival_ms);
    std::this_thread::sleep_until(due);
    Record& rec = records[i];
    rec.submitted = Clock::now();
    rec.lag_ms = MsBetween(due, rec.submitted);
    rec.future = service.Submit(trace[i].request);
    const Clock::time_point returned = Clock::now();
    rec.submit_us = MsBetween(rec.submitted, returned) * 1e3;
    if (traced) {
      rec.envelope_id = ctx.spans.NextId();
      Span submit;
      submit.id = ctx.spans.NextId();
      submit.parent = rec.envelope_id;
      submit.request = i + 1;
      submit.name = "RenderService::Submit";
      submit.start = rec.submitted;
      submit.end = returned;
      ctx.spans.Record(submit);
    }
    submitted.store(i + 1, std::memory_order_release);
    submitted.notify_one();
  }
  drain.join();
  const Clock::time_point end = Clock::now();
  r.cpu_ms = ProcessCpuMs() - cpu0;
  r.wall_s = MsBetween(start, end) / 1e3;
  r.attempted = trace.size();

  std::vector<double> queue_ms, service_ms, submit_us, lag_ms;
  std::array<u64, spnerf::kQualityRungCount> by_rung{};
  std::set<u64> batches;
  u64 rejected = 0, expired = 0, late = 0;
  for (std::size_t i = 0; i < trace.size(); ++i) {
    const Record& rec = records[i];
    submit_us.push_back(rec.submit_us);
    lag_ms.push_back(rec.lag_ms);
    if (!resolved[i]) {
      ++r.failed;
      continue;
    }
    const spnerf::RenderResponse& resp = responses[i];
    if (resp.status == spnerf::RequestStatus::kRejected) {
      ++rejected;
      continue;
    }
    if (resp.status == spnerf::RequestStatus::kExpired) {
      ++expired;
      continue;
    }
    const std::size_t idx = CheckResponse(ctx, trace[i].request, resp);
    if (idx == std::string::npos) {
      std::fprintf(stderr, "perfbench: request %zu (rung %s) differs from its "
                   "reference\n", i, RungKey(resp.rung));
      ++r.failed;
      r.correct = false;
      continue;
    }
    ++r.completed;
    if (!resp.missed_deadline) ++r.good;
    if (resp.missed_deadline) ++late;
    r.latency_ms.push_back(rec.lag_ms + resp.total_ms);
    r.latency_window.push_back(
        WindowOf(trace[i].arrival_ms, ctx.args.seconds, w.tail_windows));
    r.psnr_sum += ctx.reference.psnr_db[idx];
    queue_ms.push_back(resp.queue_ms);
    service_ms.push_back(resp.total_ms - resp.queue_ms);
    ++by_rung[static_cast<std::size_t>(resp.rung)];
    batches.insert(resp.dispatch_index);
  }

  if (layers != nullptr) {
    const double attempted = std::max<double>(1.0, static_cast<double>(r.attempted));
    const double completed = std::max<double>(1.0, static_cast<double>(r.completed));
    MetricSink& m = *layers;
    m.Set("serve.submit_us_p50", Percentile(submit_us, 50), "us");
    m.Set("serve.submit_us_tail", TailOf(submit_us).value, "us");
    m.Set("serve.queue_ms_p50", Percentile(queue_ms, 50), "ms");
    m.Set("serve.queue_ms_tail", TailOf(queue_ms).value, "ms");
    m.Set("serve.service_ms_p50", Percentile(service_ms, 50), "ms");
    m.Set("serve.service_ms_tail", TailOf(service_ms).value, "ms");
    m.Set("serve.queue_peak", static_cast<double>(service.Stats().queue_peak),
          "count");
    m.Set("serve.batch_size_mean",
          batches.empty() ? 0.0
                          : static_cast<double>(r.completed) /
                                static_cast<double>(batches.size()),
          "count");
    m.Set("serve.rejected_frac", static_cast<double>(rejected) / attempted,
          "fraction");
    m.Set("serve.expired_frac", static_cast<double>(expired) / attempted,
          "fraction");
    m.Set("serve.late_frac", static_cast<double>(late) / attempted, "fraction");
    for (spnerf::QualityRung rung : kRungs) {
      m.Set(std::string("serve.rung_frac.") + RungKey(rung),
            static_cast<double>(by_rung[static_cast<std::size_t>(rung)]) /
                completed,
            "fraction");
    }
    m.Set("loadgen.lag_ms_p50", Percentile(lag_ms, 50), "ms");
    m.Set("loadgen.lag_ms_max",
          lag_ms.empty() ? 0.0 : *std::max_element(lag_ms.begin(), lag_ms.end()),
          "ms");
  }
  return r;
}

}  // namespace perfbench
