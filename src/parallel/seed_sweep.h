// Deterministic multi-threaded seed sweeps over the randomized explorers.
//
// A sweep fans the seeds [first_seed, first_seed + num_seeds) across a
// thread pool, one task per seed. Each seed's exploration is fully
// self-contained (its own automaton copy and Rng), so the only shared
// state is the result table, which is indexed by seed — never by worker —
// and aggregated in seed order after the pool drains. That gives the
// determinism contract the verification harness needs:
//
//   * the aggregated ExplorationStats are byte-identical for any thread
//     count, and identical to a sequential loop over the same seeds;
//   * when one or more seeds fail, the sweep always reports the LOWEST
//     failing seed (with its full failure message), so a counterexample
//     reproduces with `--jobs 1` exactly as it was found with `--jobs N`.
//
// See docs/PERFORMANCE.md for the full contract and measurements.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <utility>

#include "common/types.h"
#include "common/view.h"
#include "explorer/explorer.h"
#include "impl/vs_to_dvs.h"
#include "parallel/thread_pool.h"
#include "toimpl/dvs_to_to.h"
#include "tosys/chaos.h"

namespace dvs::parallel {

struct SeedSweepConfig {
  std::uint64_t first_seed = 1;
  std::uint64_t num_seeds = 16;
  /// Worker threads; 0 = hardware_concurrency().
  std::size_t jobs = 0;
};

/// A finished sweep: `total` is summed in seed order and `first_failure` is
/// always the LOWEST failing seed, so every field is byte-identical for any
/// thread count.
template <typename Stats>
struct SweepResult {
  /// Field-wise sum of the passing seeds' stats, accumulated in seed order.
  Stats total;
  std::size_t seeds_run = 0;
  std::size_t seeds_failed = 0;
  /// Failure of the lowest failing seed, if any seed failed (explorers:
  /// ExplorationFailure::what(), seed plus action tail; chaos: the
  /// ChaosFailure message, seed plus replayable plan plus trace tail).
  std::optional<SeedFailure> first_failure;

  /// Folds a fan's per-seed outcomes in seed order.
  static SweepResult merge(SeedFan<Stats>&& fan) {
    SweepResult result;
    for (const std::optional<Stats>& r : fan.results) {
      ++result.seeds_run;
      if (r.has_value()) result.total += *r;
    }
    result.seeds_failed = fan.failed;
    result.first_failure = std::move(fan.first_failure);
    return result;
  }
};

using SeedSweepResult = SweepResult<explorer::ExplorationStats>;

/// Runs one seed to completion and returns its stats; throws
/// explorer::ExplorationFailure (or any exception) to report a failure.
using SeedTask =
    std::function<explorer::ExplorationStats(std::uint64_t seed)>;

class SeedSweep {
 public:
  explicit SeedSweep(SeedSweepConfig config) : config_(config) {}

  /// Fans `task` over the configured seed range. Never throws for seed
  /// failures — they are captured in the result so the sweep always
  /// completes every seed and the lowest failing one is known.
  [[nodiscard]] SeedSweepResult run(const SeedTask& task) const;

  [[nodiscard]] const SeedSweepConfig& config() const { return config_; }

 private:
  SeedSweepConfig config_;
};

// ----- canned tasks for the four randomized explorers -----------------------

[[nodiscard]] SeedTask vs_spec_task(ProcessSet universe, View v0,
                                    explorer::ExplorerConfig config);
[[nodiscard]] SeedTask dvs_spec_task(ProcessSet universe, View v0,
                                     explorer::ExplorerConfig config);
[[nodiscard]] SeedTask dvs_impl_task(ProcessSet universe, View v0,
                                     explorer::ExplorerConfig config,
                                     impl::VsToDvsOptions node_options = {});
[[nodiscard]] SeedTask to_impl_task(ProcessSet universe, View v0,
                                    explorer::ExplorerConfig config,
                                    toimpl::DvsToToOptions node_options = {});

// ----- chaos sweeps ----------------------------------------------------------

/// Result of fanning tosys::run_chaos_seed over a seed range.
using ChaosSweepResult = SweepResult<tosys::ChaosStats>;

/// Runs the FaultPlan-driven full-stack chaos executions (tosys/chaos.h)
/// for the seeds in `config`, each with the conformance oracles attached.
/// Never throws for seed failures; the lowest failing seed's ChaosFailure
/// message (seed + replayable plan + trace tail) lands in first_failure.
[[nodiscard]] ChaosSweepResult run_chaos_sweep(
    const SeedSweepConfig& config, const tosys::ChaosConfig& chaos);

}  // namespace dvs::parallel
