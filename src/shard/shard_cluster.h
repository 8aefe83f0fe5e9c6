// ShardCluster: K independent DVS/TO shards multiplexed over ONE shared
// node pool, ONE simulator and ONE simulated network.
//
// Topology (the Derecho-style subgroup pattern):
//   * a top-level VS group — one vsys::VsNode per pool process on the
//     network's default channel — tracks the node pool itself and feeds the
//     ShardRouter's contact resolution;
//   * a deterministic provisioning function (shard::provision, round-robin
//     over the pool) assigns each shard a replica subset;
//   * each shard is a full tosys::Cluster (VsNode→DvsNode→ToNode columns,
//     conformance oracle, metrics, persistence) running over a GroupPort —
//     shard-local ids 0..r-1, its own SimNetwork group channel, its own
//     fault Rng.
// Because every shard column carries its own spec::TraceRecorder, VS/DVS/TO
// acceptance and Invariants 4.1/4.2 are checked independently per group_id,
// and a violation names its shard.
//
// Determinism contract (pinned by tests/shard/test_single_shard_equivalence):
// at K=1 with full replication, shard 1's channel Rng is seeded exactly like
// the unsharded cluster's network Rng, the GroupPort id map is the identity,
// and no shard-visible state reads pool-level state — so delivery orders,
// verdicts and SLO reports are byte-identical to the unsharded stack. Pool
// traffic shares the simulator but draws from its own salted Rng and
// touches only pool state.
//
// Reconfiguration isolation (tests/shard/test_shard_isolation): faults are
// injected per pool process on the shared network; a shard whose replicas
// are untouched shares nothing with the wounded shard but the event queue,
// so its commits proceed while the sibling reconfigures.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/labels.h"
#include "common/rng.h"
#include "common/types.h"
#include "common/view.h"
#include "net/sim_network.h"
#include "obs/metrics.h"
#include "shard/group_port.h"
#include "shard/migration.h"
#include "shard/provision.h"
#include "shard/reprovision.h"
#include "shard/router.h"
#include "sim/simulator.h"
#include "storage/stable_store.h"
#include "tosys/cluster.h"
#include "vsys/vs_node.h"

namespace dvs::shard {

struct ShardClusterConfig {
  /// Number of shards K (wire groups 1..K).
  std::size_t shards = 1;
  /// Replicas per shard (0 = every pool member hosts every shard).
  std::size_t replication = 0;
  /// Dynamic re-provisioning (shard/reprovision.h): on every pool VS
  /// NEWVIEW, diff the installed shard→replica map against the round-robin
  /// target recomputed from the surviving members and migrate each departed
  /// slot onto a joiner by shipping the donor's journals and
  /// crash-restarting the slot there. Requires base.persistence (journals
  /// are the transferable state). With a stable pool the diff is empty on
  /// every view, so dynamic mode is byte-inert — pinned by
  /// tests/shard/test_reprovision.cpp's differential.
  bool dynamic = false;
  /// Template for the pool and every shard column: n_processes is the POOL
  /// size; net/vs/to/persistence/observability knobs apply to each shard
  /// column (and base.net to the shared network). initial_members is
  /// honored only at shards == 1 (the equivalence configuration); with
  /// K > 1 every provisioned replica is an initial member of its shard.
  /// base.sim/base.transport must be null — the pool owns both.
  tosys::ClusterConfig base;
};

class ShardCluster : private MigrationPort {
 public:
  ShardCluster(ShardClusterConfig config, std::uint64_t seed);

  /// Starts the pool VS group and every shard column.
  void start();
  void run_for(sim::Time duration);

  [[nodiscard]] sim::Simulator& sim() { return sim_; }
  /// The shared network — the fault surface (pause/partition/knobs) for
  /// every shard at once; faults are per pool process.
  [[nodiscard]] net::SimNetwork& net() { return *net_; }
  [[nodiscard]] const ProcessSet& pool() const { return pool_; }
  [[nodiscard]] std::size_t shard_count() const { return shards_.size(); }
  [[nodiscard]] const std::vector<ShardAssignment>& assignments() const {
    return engine_->assignments();
  }

  /// Shard k's full protocol column (k is the 1-based group id).
  [[nodiscard]] tosys::Cluster& shard(std::uint32_t k) {
    return *shards_.at(k - 1).cluster;
  }
  [[nodiscard]] const tosys::Cluster& shard(std::uint32_t k) const {
    return *shards_.at(k - 1).cluster;
  }
  [[nodiscard]] const ShardAssignment& assignment(std::uint32_t k) const {
    return assignments().at(k - 1);
  }
  [[nodiscard]] bool hosts(std::uint32_t k, ProcessId pool_p) const;
  /// Shard-local id of pool_p in shard k (throws unless hosts()).
  [[nodiscard]] ProcessId local_id(std::uint32_t k, ProcessId pool_p) const {
    return shards_.at(k - 1).port->to_local(pool_p);
  }

  /// Client broadcast into shard k at shard-local process `local`.
  void bcast(std::uint32_t k, ProcessId local, AppMsg a) {
    shard(k).bcast(local, std::move(a));
  }

  /// Crash-restarts pool process p: the pool VS node is rebuilt from its
  /// epoch journal and every shard column hosting p restarts its local
  /// replica (each from its own per-shard store). Requires persistence.
  void restart(ProcessId pool_p);
  [[nodiscard]] std::uint64_t restarts() const { return restarts_; }

  /// All shards' oracles clean?
  [[nodiscard]] bool oracle_ok() const;
  /// First violation (lowest shard id), named with its shard; empty when
  /// clean.
  [[nodiscard]] std::string violation_message() const;
  /// Re-checks DVS Invariants 4.1/4.2 on every shard's oracle.
  bool check_invariants();

  [[nodiscard]] double primary_fraction(std::uint32_t k) const {
    return shard(k).primary_fraction();
  }
  /// min over shards — the pool is "available" when every shard can commit.
  [[nodiscard]] double min_primary_fraction() const;

  [[nodiscard]] ShardRouter& router() { return router_; }

  // ----- dynamic re-provisioning ---------------------------------------------

  /// Completed slot migrations / departed slots left unfilled (pool below
  /// replication; retried on later views) / columns with every replica
  /// departed. All zero unless config.dynamic.
  [[nodiscard]] std::uint64_t migrations() const {
    return engine_->migrations();
  }
  [[nodiscard]] std::uint64_t migration_stalls() const {
    return engine_->stalls();
  }
  [[nodiscard]] std::uint64_t migrations_lost() const {
    return engine_->lost();
  }

  /// Crash-point sweep instrumentation (MigrationEngine::set_crash_hook);
  /// recover_migrations() then rolls every marked episode forward and
  /// re-plans the rest from the live pool view.
  void set_migration_crash_hook(std::function<void(std::size_t)> hook) {
    engine_->set_crash_hook(std::move(hook));
  }
  void recover_migrations() { engine_->recover(); }

  /// Invoked after a slot's cutover completes (journals installed, column
  /// replica restarted, HANDOFF recorded) — the workload harness rebuilds
  /// its application mirror for that slot here.
  void set_handoff_hook(
      std::function<void(std::uint32_t group, ProcessId slot)> hook) {
    handoff_hook_ = std::move(hook);
  }

  /// Per-shard snapshots with `shard.<k>.` key prefixes, pool-level
  /// `pool.<key>` counter/gauge rollups (summed across shards), and the
  /// shared network's own net.*/arena.* counters once at pool level.
  [[nodiscard]] obs::MetricsSnapshot metrics_snapshot();

 private:
  struct Shard {
    std::unique_ptr<GroupPort> port;
    std::unique_ptr<tosys::Cluster> cluster;
  };

  [[nodiscard]] static std::string pool_storage_key(ProcessId p);
  void build_pool_node(ProcessId p, bool initial);

  // The in-process MigrationPort: one address space, so a transfer frame is
  // handled inline, inside the simulator event that sent it — an episode
  // adds no simulator event and draws no Rng.
  void send_transfer(ProcessId from, ProcessId to,
                     const TransferFrame& frame) override {
    engine_->on_transfer(from, to, frame);
  }
  storage::StableStore* column_store(std::uint32_t group, bool) override {
    return shard(group).store();
  }
  void install_column(std::uint32_t group, ProcessId slot, ProcessId to,
                      std::uint64_t next) override;

  ShardClusterConfig config_;
  std::uint64_t seed_;
  Rng pool_rng_;  // drives the default channel (pool traffic) only
  sim::Simulator sim_;
  ProcessSet pool_;
  View pool_v0_;
  std::unique_ptr<net::SimNetwork> net_;
  std::unique_ptr<storage::MemStableStore> pool_store_;  // persistence only
  std::map<ProcessId, std::unique_ptr<vsys::VsNode>> pool_vs_;
  std::vector<Shard> shards_;  // index k-1
  ShardRouter router_;
  obs::MetricsRegistry pool_metrics_;
  std::uint64_t restarts_ = 0;
  std::unique_ptr<MigrationEngine> engine_;  // the map; plays every process
  std::function<void(std::uint32_t, ProcessId)> handoff_hook_;
};

}  // namespace dvs::shard
