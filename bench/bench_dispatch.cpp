// Microbenchmarks for the dispatch layer: the SPSC ring in isolation
// (common/spsc_queue.hpp, the trace-ring handoff) and the ThreadPool
// scheduling paths. These are the per-operation costs the serving-layer
// numbers in bench_serving decompose into; they are diagnostics, not
// results. The machine-readable entries go to BENCH_dispatch.json:
//   dispatch/spsc-pipe          N items through a 2-thread pipe
//   dispatch/region             N blocking fork-joins (RunOnWorkers)
//   dispatch/submit             N detached single-slot regions (Submit)
//
// Overrides: ops=N (queue op count), regions=N (fork-join count),
//            threads=N (pool workers; 0 = hardware concurrency)
#include <atomic>
#include <cstdio>
#include <thread>

#include "bench/bench_util.hpp"
#include "common/spsc_queue.hpp"

namespace {

using namespace spnerf;

void PrintRow(const char* name, double wall_ms, std::size_t ops) {
  std::printf("%-28s %9.2f ms | %8.1f ns/op\n", name, wall_ms,
              ops ? wall_ms * 1e6 / static_cast<double>(ops) : 0.0);
}

}  // namespace

int main(int argc, char** argv) {
  const Config args = Config::FromArgs(argc, argv);
  const auto ops = static_cast<std::size_t>(args.GetInt("ops", 400000));
  const auto regions = static_cast<std::size_t>(args.GetInt("regions", 4000));
  const auto threads = static_cast<unsigned>(args.GetInt("threads", 0));

  bench::PrintHeader("dispatch", "queue/scheduler micro-costs");
  bench::JsonReport json("dispatch");
  std::size_t checksum = 0;  // defeats dead-code elimination

  {
    SpscQueue<std::size_t> q(256);
    std::atomic<std::size_t> sink{0};
    bench::WallTimer t;
    std::thread consumer([&] {
      std::size_t got = 0, v = 0, local = 0;
      while (got < ops) {
        if (q.TryPop(v)) {
          local += v;
          ++got;
        } else {
          std::this_thread::yield();
        }
      }
      sink.store(local, std::memory_order_relaxed);
    });
    for (std::size_t i = 0; i < ops; ++i) {
      while (!q.TryPush(i)) std::this_thread::yield();
    }
    consumer.join();
    checksum += sink.load(std::memory_order_relaxed);
    const double ms = t.ElapsedMs();
    PrintRow("spsc pipe", ms, ops);
    json.Add("dispatch/spsc-pipe", ms, 2);
  }

  bench::PrintRule();

  // Scheduler paths: the blocking fork-join (the ParallelFor spine under
  // every render) and the detached submit (the RenderService batch-issue
  // path).
  {
    ThreadPool pool(threads);
    const unsigned slots = pool.WorkerCount();
    std::atomic<std::size_t> body_runs{0};

    {
      bench::WallTimer t;
      for (std::size_t r = 0; r < regions; ++r) {
        pool.RunOnWorkers(slots, [&](unsigned) {
          body_runs.fetch_add(1, std::memory_order_relaxed);
        });
      }
      const double ms = t.ElapsedMs();
      PrintRow("fork-join", ms, regions);
      json.Add("dispatch/region", ms, slots);
    }

    {
      std::atomic<std::size_t> completions{0};
      bench::WallTimer t;
      for (std::size_t r = 0; r < regions; ++r) {
        pool.Submit(
            1, [&](unsigned) {},
            [&] { completions.fetch_add(1, std::memory_order_release); });
      }
      while (completions.load(std::memory_order_acquire) < regions) {
        std::this_thread::yield();
      }
      const double ms = t.ElapsedMs();
      PrintRow("detached submit", ms, regions);
      json.Add("dispatch/submit", ms, slots);
    }
    checksum += body_runs.load(std::memory_order_relaxed);
  }

  bench::PrintRule();
  std::printf("checksum %zu\n", checksum);
  bench::AddBuildTimings(json);
  return 0;
}
