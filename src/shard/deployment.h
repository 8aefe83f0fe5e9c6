// Deployment: the column deployed either as one plain tosys::Cluster over
// the whole pool (shards == 0) or as a ShardCluster of K columns over one
// shared pool. The chaos harness (shard_chaos) and the scenario runner
// (workload/runner) run ONE body over either; this class holds the only
// places where the two deployments differ:
//   * construction;
//   * key → (column, column-local replica) routing;
//   * the oracle diagnosis (a sharded violation names its shard) and the
//     trace tail;
//   * the crash-restart of a pool process and the restart count;
//   * the handoff hook (sharded only; sharded() reaches the rest);
//   * metrics_snapshot() (sharded: per-shard prefixes and pool rollups).
// Everything else is written over columns() / column(k), so at K=1 with
// full replication both deployments run the same code on the same column —
// the premise of tests/shard/test_single_shard_equivalence.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <utility>

#include "shard/shard_cluster.h"

namespace dvs::shard {

class Deployment {
 public:
  /// config.shards == 0 builds a plain Cluster from config.base (replication
  /// and dynamic are ignored); K >= 1 builds a ShardCluster.
  Deployment(ShardClusterConfig config, std::uint64_t seed);

  [[nodiscard]] sim::Simulator& sim();
  /// The fault surface: the plain cluster's network or the shared pool's.
  [[nodiscard]] net::SimNetwork& net();
  [[nodiscard]] const ProcessSet& pool() const;
  /// The effective column template (persistence forced on by dynamic).
  [[nodiscard]] const tosys::ClusterConfig& base() const { return base_; }

  /// Number of columns (1 for a plain cluster) and column k, 1-based.
  [[nodiscard]] std::size_t columns() const;
  [[nodiscard]] tosys::Cluster& column(std::uint32_t k);

  void start();
  void run_for(sim::Time duration) { sim().run_until(sim().now() + duration); }

  /// Crash-restarts pool process p in every column hosting it.
  void restart(ProcessId p);
  [[nodiscard]] std::uint64_t restarts() const;

  /// Client-facing routing: the column owning `key` and the column-local
  /// replica a client homed at pool process `home` talks to.
  [[nodiscard]] std::pair<std::uint32_t, ProcessId> route(
      const std::string& key, ProcessId home);

  /// Re-checks Invariants 4.1/4.2 on every column's oracle.
  bool check_invariants();
  /// The first oracle violation (a sharded one names its shard); empty
  /// while every column's oracle is clean.
  [[nodiscard]] std::optional<std::string> violation() const;
  /// The plain cluster's recorded trace tail; empty for a sharded pool.
  [[nodiscard]] std::string trace_tail() const;

  /// Invoked after a migrated slot's cutover (never for a plain cluster).
  void set_handoff_hook(
      std::function<void(std::uint32_t group, ProcessId slot)> hook);
  /// The ShardCluster, or null for a plain cluster.
  [[nodiscard]] ShardCluster* sharded() { return pool_.get(); }

  [[nodiscard]] obs::MetricsSnapshot metrics_snapshot();

 private:
  tosys::ClusterConfig base_;
  std::unique_ptr<tosys::Cluster> plain_;  // shards == 0
  std::unique_ptr<ShardCluster> pool_;     // shards >= 1
};

}  // namespace dvs::shard
