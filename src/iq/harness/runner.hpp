#pragma once
// Parallel experiment runner: executes a batch of ExperimentConfigs across a
// thread pool and returns results in input order.
//
// Each run builds its own Simulator/Network/Scenario, so runs share no
// mutable state and the results are bit-identical to running the same
// configs serially — the pool only changes wall-clock time. Set the
// environment variable IQ_HARNESS_THREADS=N to pin the pool width on any
// machine: N = 1 forces serial execution, e.g. when profiling a single run
// (CI uses it to force both serial and parallel runs regardless of core
// count). Explicit `threads` arguments beat IQ_HARNESS_THREADS. The same
// override is the default shard count of the city-scale scenario
// (harness::cityscale_shards).

#include <cstddef>
#include <vector>

#include "iq/harness/experiment.hpp"

namespace iq::harness {

/// One entry of run_experiments(): the experiment's metrics plus how long
/// that run took on the wall clock.
struct TimedResult {
  ExperimentResult result;
  double wall_seconds = 0.0;
};

/// Number of worker threads run_experiments() will use for `jobs` runs when
/// `threads` = 0: IQ_HARNESS_THREADS if set, else hardware concurrency;
/// capped by the job count.
std::size_t runner_threads(std::size_t jobs, std::size_t threads = 0);

/// The IQ_HARNESS_THREADS override (0 when unset/invalid). Valid values are
/// 1..1024; anything else is treated as unset.
std::size_t harness_threads_env();

/// Run every config to completion, `threads` at a time (0 = pick
/// automatically), and return results in the same order as `configs`.
std::vector<TimedResult> run_experiments(
    const std::vector<ExperimentConfig>& configs, std::size_t threads = 0);

}  // namespace iq::harness
