// The chaos harness: FaultPlan-driven adversarial executions of either
// deployment of the column (shard::Deployment) with every column's
// conformance oracle attached. shards == 0 runs one plain tosys::Cluster
// over the whole pool — tosys::run_chaos_seed is exactly that case,
// rethrown as ChaosFailure — and K >= 1 a ShardCluster.
//
// One body drives both: the same plan generator, the same client-load Rng
// and draw sequence, the same heal/resume/settle epilogue. It extracts a
// comparable verdict: pass / fail plus the per-receiver delivery orders of
// every column. That verdict is the byte-compare artifact of the K=1
// equivalence differential (tests/shard/test_single_shard_equivalence.cpp):
// shards=0 and shards=1 (full replication) must agree exactly, seed for
// seed. NetStats-derived counters are pool-wide in the sharded runs (they
// include top-level VS traffic), so they are reported but are NOT part of
// the equivalence verdict.
//
// Fault targeting: `fault_targets` restricts the generated FaultPlan to a
// subset of the pool — the isolation test aims the adversary at exactly
// shard k's replicas and checks the siblings never miss a beat.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/types.h"
#include "common/view.h"
#include "tosys/chaos.h"

namespace dvs::shard {

struct ShardChaosConfig {
  /// 0 = one plain tosys::Cluster over the whole pool (the differential
  /// baseline); K >= 1 = a ShardCluster with K shards.
  std::size_t shards = 1;
  /// Replicas per shard (0 = whole pool). Ignored when shards == 0.
  std::size_t replication = 0;
  /// Dynamic re-provisioning (ShardClusterConfig::dynamic): pool view
  /// changes migrate departed slots onto survivors. Forces persistence.
  /// Ignored when shards == 0.
  bool dynamic = false;
  /// Everything else: pool size, fault mix, anomaly rates, load, settle.
  tosys::ChaosConfig chaos;
  /// Restrict the generated FaultPlan to these pool processes (empty = the
  /// whole pool). The plan is generated over this sub-universe, so the
  /// adversary never touches anyone else.
  ProcessSet fault_targets;
};

struct ShardChaosResult {
  bool ok = true;
  /// "chaos seed <s>: " + violation; empty on a clean run.
  std::string failure;
  /// The oracle's diagnosis (a sharded one names its shard) and, for a
  /// plain cluster, the recorded trace tail; empty on a clean run.
  std::string violation;
  std::string trace_tail;
  /// Replayable fault plan text (empty only if construction failed early).
  std::string plan_text;
  /// orders[k-1][local receiver] = sequence of delivered AppMsg uids, in
  /// delivery order. For shards == 0 there is exactly one entry (the
  /// plain cluster as column 1). This is the equivalence artifact.
  std::vector<std::vector<std::vector<std::uint64_t>>> orders;
  /// Aggregated counters (pool-wide net numbers in sharded mode).
  tosys::ChaosStats stats;
  /// Dynamic re-provisioning counters (zero unless config.dynamic):
  /// completed slot migrations, refills blocked by a too-small pool, and
  /// columns whose every replica departed.
  std::uint64_t migrations = 0;
  std::uint64_t migration_stalls = 0;
  std::uint64_t migrations_lost = 0;
};

/// Runs one seeded chaos execution to completion. Unlike
/// tosys::run_chaos_seed it reports violations in the result rather than
/// throwing, so sweeps can compare verdicts byte-for-byte; it throws only
/// for a configuration it cannot build (e.g. replication above the pool).
[[nodiscard]] ShardChaosResult run_shard_chaos_seed(
    std::uint64_t seed, const ShardChaosConfig& config);

}  // namespace dvs::shard
