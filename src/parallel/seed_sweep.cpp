#include "parallel/seed_sweep.h"

#include <utility>

#include "explorer/to_explorer.h"
#include "parallel/thread_pool.h"

namespace dvs::parallel {

SeedSweepResult SeedSweep::run(const SeedTask& task) const {
  ThreadPool pool(config_.jobs);
  return SeedSweepResult::merge(pool.fan_seeds(
      config_.first_seed, static_cast<std::size_t>(config_.num_seeds), task));
}

ChaosSweepResult run_chaos_sweep(const SeedSweepConfig& config,
                                 const tosys::ChaosConfig& chaos) {
  ThreadPool pool(config.jobs);
  return ChaosSweepResult::merge(pool.fan_seeds(
      config.first_seed, static_cast<std::size_t>(config.num_seeds),
      [&chaos](std::uint64_t seed) {
        return tosys::run_chaos_seed(seed, chaos);
      }));
}

SeedTask vs_spec_task(ProcessSet universe, View v0,
                      explorer::ExplorerConfig config) {
  return [universe = std::move(universe), v0 = std::move(v0),
          config](std::uint64_t seed) {
    explorer::VsSpecExplorer ex(universe, v0, config, seed);
    return ex.run();
  };
}

SeedTask dvs_spec_task(ProcessSet universe, View v0,
                       explorer::ExplorerConfig config) {
  return [universe = std::move(universe), v0 = std::move(v0),
          config](std::uint64_t seed) {
    explorer::DvsSpecExplorer ex(universe, v0, config, seed);
    return ex.run();
  };
}

SeedTask dvs_impl_task(ProcessSet universe, View v0,
                       explorer::ExplorerConfig config,
                       impl::VsToDvsOptions node_options) {
  return [universe = std::move(universe), v0 = std::move(v0), config,
          node_options](std::uint64_t seed) {
    explorer::DvsImplExplorer ex(universe, v0, config, seed, node_options);
    return ex.run();
  };
}

SeedTask to_impl_task(ProcessSet universe, View v0,
                      explorer::ExplorerConfig config,
                      toimpl::DvsToToOptions node_options) {
  return [universe = std::move(universe), v0 = std::move(v0), config,
          node_options](std::uint64_t seed) {
    explorer::ToImplExplorer ex(universe, v0, config, seed, node_options);
    return ex.run();
  };
}

}  // namespace dvs::parallel
