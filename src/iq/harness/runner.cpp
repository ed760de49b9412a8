#include "iq/harness/runner.hpp"

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <thread>

namespace iq::harness {

namespace {

double wall_now() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace

std::size_t harness_threads_env() {
  const char* v = std::getenv("IQ_HARNESS_THREADS");
  if (v == nullptr || v[0] == '\0') return 0;
  char* end = nullptr;
  const long n = std::strtol(v, &end, 10);
  if (end == v || *end != '\0' || n < 1 || n > 1024) return 0;
  return static_cast<std::size_t>(n);
}

std::size_t runner_threads(std::size_t jobs, std::size_t threads) {
  if (jobs <= 1) return 1;
  if (threads == 0) threads = harness_threads_env();
  if (threads == 0) {
    threads = std::thread::hardware_concurrency();
    if (threads == 0) threads = 1;
  }
  return threads < jobs ? threads : jobs;
}

std::vector<TimedResult> run_experiments(
    const std::vector<ExperimentConfig>& configs, std::size_t threads) {
  std::vector<TimedResult> results(configs.size());
  const std::size_t workers = runner_threads(configs.size(), threads);

  std::atomic<std::size_t> next{0};
  auto work = [&] {
    for (;;) {
      const std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
      if (i >= configs.size()) return;
      const double start = wall_now();
      results[i].result = run_experiment(configs[i]);
      results[i].wall_seconds = wall_now() - start;
    }
  };

  if (workers <= 1) {
    work();
    return results;
  }
  std::vector<std::thread> pool;
  pool.reserve(workers);
  for (std::size_t t = 0; t < workers; ++t) pool.emplace_back(work);
  for (auto& th : pool) th.join();
  return results;
}

}  // namespace iq::harness
