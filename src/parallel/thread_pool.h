// Fixed-size thread pool for the verification engine.
//
// Deliberately simple: one central FIFO task queue, no work stealing. The
// engine's determinism contract (docs/PERFORMANCE.md) never depends on
// which worker runs which task — results are always written to
// caller-indexed slots and aggregated in a fixed order afterwards — so a
// plain queue is enough, and keeps the scheduling easy to reason about
// under TSan.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <exception>
#include <functional>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <type_traits>
#include <vector>

namespace dvs::parallel {

/// The lowest failing seed of a sweep and its failure account (the
/// exception's what()).
struct SeedFailure {
  std::uint64_t seed = 0;
  std::string message;
};

/// Per-seed outcomes of ThreadPool::fan_seeds, indexed by seed offset.
template <typename T>
struct SeedFan {
  /// results[i] holds task(first_seed + i); empty when that seed threw.
  std::vector<std::optional<T>> results;
  std::size_t failed = 0;
  /// The LOWEST failing seed, whichever worker found it.
  std::optional<SeedFailure> first_failure;
};

/// Number of workers to use for `requested` (0 = one per hardware thread,
/// falling back to 1 when the runtime cannot tell).
[[nodiscard]] std::size_t resolve_jobs(std::size_t requested);

class ThreadPool {
 public:
  /// Spawns `threads` workers (>= 1; 0 is resolved via resolve_jobs).
  explicit ThreadPool(std::size_t threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Enqueues a task. Tasks must not throw (wrap and capture instead) —
  /// an escaping exception would terminate the worker thread.
  void submit(std::function<void()> task);

  /// Blocks until every submitted task has finished running.
  void wait_idle();

  /// Runs task(seed) for every seed in [first_seed, first_seed + count),
  /// one pool task per seed, and waits for all of them. Every exception a
  /// seed throws is caught as that seed's failure. Results land in
  /// seed-indexed slots — never worker-indexed — so the outcome, including
  /// which failure is reported first, is identical for any pool size.
  template <typename Task>
  auto fan_seeds(std::uint64_t first_seed, std::size_t count,
                 const Task& task)
      -> SeedFan<std::invoke_result_t<const Task&, std::uint64_t>>;

  [[nodiscard]] std::size_t size() const { return workers_.size(); }

 private:
  void worker_loop();

  std::mutex mu_;
  std::condition_variable work_available_;
  std::condition_variable idle_;
  std::deque<std::function<void()>> queue_;
  std::size_t in_flight_ = 0;
  bool stopping_ = false;
  std::vector<std::thread> workers_;
};

template <typename Task>
auto ThreadPool::fan_seeds(std::uint64_t first_seed, std::size_t count,
                           const Task& task)
    -> SeedFan<std::invoke_result_t<const Task&, std::uint64_t>> {
  SeedFan<std::invoke_result_t<const Task&, std::uint64_t>> fan;
  fan.results.resize(count);
  std::vector<std::string> errors(count);
  for (std::size_t i = 0; i < count; ++i) {
    submit([&task, &slot = fan.results[i], &error = errors[i],
            seed = first_seed + i]() noexcept {
      try {
        slot.emplace(task(seed));
      } catch (const std::exception& e) {
        error = e.what();
      } catch (...) {
        error = "unknown exception";
      }
    });
  }
  wait_idle();
  for (std::size_t i = 0; i < count; ++i) {
    if (fan.results[i].has_value()) continue;
    ++fan.failed;
    if (!fan.first_failure.has_value()) {
      fan.first_failure = SeedFailure{first_seed + i, std::move(errors[i])};
    }
  }
  return fan;
}

}  // namespace dvs::parallel
