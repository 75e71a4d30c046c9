// Bounded wait for scheduler tests. A lost wakeup leaves a region or a
// request stranded, and the test that hit it would block forever in a join,
// a future or a Drain(). RunWithWatchdog runs the scenario on its own thread
// and ends the process with a failure message when the scenario does not
// finish in time, so the suite fails instead of hanging.
#pragma once

#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <mutex>
#include <thread>

namespace spnerf::test {

template <typename Fn>
void RunWithWatchdog(std::chrono::seconds limit, const char* scenario,
                     Fn&& fn) {
  std::mutex mutex;
  std::condition_variable cv;
  bool done = false;
  std::thread runner([&] {
    fn();
    std::lock_guard<std::mutex> lock(mutex);
    done = true;
    cv.notify_one();
  });
  std::unique_lock<std::mutex> lock(mutex);
  if (!cv.wait_for(lock, limit, [&] { return done; })) {
    // The runner is stuck and cannot be joined; leave without unwinding.
    std::fprintf(stderr,
                 "watchdog: %s did not finish within %lld s (a region or "
                 "request was stranded)\n",
                 scenario, static_cast<long long>(limit.count()));
    std::fflush(stderr);
    std::_Exit(EXIT_FAILURE);
  }
  lock.unlock();
  runner.join();
}

}  // namespace spnerf::test
