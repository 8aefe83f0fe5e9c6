#include "shard/shard_chaos.h"

#include <utility>
#include <vector>

#include "common/rng.h"
#include "net/fault_plan.h"
#include "obs/stack_tracer.h"
#include "shard/deployment.h"

namespace dvs::shard {
namespace {

tosys::ClusterConfig make_base(const tosys::ChaosConfig& c) {
  tosys::ClusterConfig cc;
  cc.n_processes = c.n_processes;
  cc.initial_members = c.initial_members;
  cc.net.drop_probability = c.drop_probability;
  cc.net.duplicate_probability = c.duplicate_probability;
  cc.net.max_duplicates = c.max_duplicates;
  cc.net.reorder_probability = c.reorder_probability;
  cc.net.reorder_window = c.reorder_window;
  cc.net.truncate_probability = c.truncate_probability;
  cc.net.batching = c.batching;
  cc.vs.stability = c.watermarks ? vsys::StabilityMode::kWatermark
                                 : vsys::StabilityMode::kExplicitAck;
  cc.record_traces = true;
  cc.conformance_oracle = true;
  cc.to_options = c.to_options;
  // Restart adversaries need somewhere to recover from.
  cc.persistence =
      c.persistence || c.crashes_restart || c.plan.w_restart > 0;
  return cc;
}

}  // namespace

ShardChaosResult run_shard_chaos_seed(std::uint64_t seed,
                                      const ShardChaosConfig& config) {
  const tosys::ChaosConfig& c = config.chaos;
  ShardClusterConfig scc;
  scc.shards = config.shards;
  scc.replication = config.replication;
  scc.dynamic = config.dynamic;
  scc.base = make_base(c);
  Deployment d(scc, seed);

  const ProcessSet& targets =
      config.fault_targets.empty() ? d.pool() : config.fault_targets;
  const net::FaultPlan plan = net::FaultPlan::random(seed, targets, c.plan);
  ShardChaosResult out;
  out.plan_text = plan.to_string();
  net::FaultPlan::ScheduleHooks hooks;
  hooks.crashes_restart = c.crashes_restart;
  if (d.base().persistence) {
    hooks.restart = [&d](ProcessId p) { d.restart(p); };
  }
  plan.schedule(d.sim(), d.net(), hooks);

  // Client load at seeded times across the horizon, decorrelated from both
  // the network rng and the plan generator so the three sources of
  // randomness never lock step. Broadcast i goes to column (i mod K) + 1 at
  // the replica its drawn pool process folds onto; with one column over the
  // whole pool that is the drawn process itself.
  Rng load(seed ^ 0xb0adca5700150adULL);
  const std::vector<ProcessId> procs(d.pool().begin(), d.pool().end());
  for (std::size_t i = 0; i < c.broadcasts; ++i) {
    const auto at = static_cast<sim::Time>(
        1 + load.below(static_cast<std::size_t>(c.plan.horizon)));
    const ProcessId p = procs[load.below(procs.size())];
    const auto k = static_cast<std::uint32_t>(i % d.columns()) + 1;
    const std::uint64_t uid = i + 1;
    d.sim().schedule_at(at, [&d, k, p, uid] {
      tosys::Cluster& column = d.column(k);
      const ProcessId local(
          static_cast<std::uint32_t>(p.value() % column.universe().size()));
      column.bcast(local, AppMsg{uid, local, "x"});
    });
  }

  // Mid-run Invariant 4.1/4.2 checks against the oracles' resolved DVS
  // state — a transiently bad state between events is caught even if the
  // event stream itself stays acceptable.
  if (c.invariant_check_period > 0) {
    for (sim::Time t = c.invariant_check_period; t < c.plan.horizon;
         t += c.invariant_check_period) {
      d.sim().schedule_at(t, [&d] { (void)d.check_invariants(); });
    }
  }

  d.start();
  d.run_for(c.plan.horizon);
  // Recovery phase: full connectivity back, everyone resumed, and time to
  // converge — the oracles watch the repair traffic too.
  d.net().heal();
  for (ProcessId p : d.pool()) d.net().resume(p);
  d.run_for(c.settle);
  (void)d.check_invariants();

  if (const std::optional<std::string> violation = d.violation()) {
    out.ok = false;
    out.violation = *violation;
    out.trace_tail = d.trace_tail();
    out.failure = "chaos seed " + std::to_string(seed) + ": " + out.violation;
  }

  tosys::ChaosStats& s = out.stats;
  s.broadcasts = c.broadcasts;
  s.fault_events = plan.events.size();
  s.restarts = d.restarts();
  out.orders.resize(d.columns());
  for (std::uint32_t k = 1; k <= d.columns(); ++k) {
    tosys::Cluster& column = d.column(k);
    out.orders[k - 1].resize(column.universe().size());
    for (const tosys::Delivery& del : column.deliveries()) {
      out.orders[k - 1][del.receiver.value()].push_back(del.msg.uid);
    }
    s.events_checked += column.oracle().events_checked();
    s.invariant_checks += column.oracle().invariant_checks();
    s.deliveries += column.deliveries().size();
    for (ProcessId local : column.universe()) {
      const auto& vstats = column.vs_node(local).stats();
      s.views_installed += vstats.views_installed;
      s.decode_errors += vstats.decode_errors;
      s.duplicates_suppressed += vstats.duplicates_suppressed;
    }
    if (column.store() != nullptr) {
      const storage::StorageStats& ss = column.store()->stats();
      s.wal_appends += ss.appends;
      s.wal_bytes += ss.bytes_written();
    }
    // The end-of-run span-invariant check travels inside the snapshot
    // (all-zero on a conforming run).
    obs::publish_span_invariants(obs::check_span_invariants(column.trace()),
                                 column.metrics());
  }
  // Wire counters of the fault surface: pool-wide when sharded (they
  // include the top-level VS group's traffic), so NOT comparable to a plain
  // run even at K=1.
  const net::NetStats& ns = d.net().stats();
  s.net_sent = ns.sent;
  s.net_delivered = ns.delivered;
  s.duplicated = ns.duplicated;
  s.reordered = ns.reordered;
  s.truncated = ns.truncated;
  s.datagrams = ns.datagrams;
  s.batches = ns.batches;
  s.batched_msgs = ns.batched_msgs;
  s.metrics = d.metrics_snapshot();
  if (const ShardCluster* sc = d.sharded()) {
    out.migrations = sc->migrations();
    out.migration_stalls = sc->migration_stalls();
    out.migrations_lost = sc->migrations_lost();
  }
  return out;
}

}  // namespace dvs::shard

namespace dvs::tosys {

ChaosStats run_chaos_seed(std::uint64_t seed, const ChaosConfig& config) {
  shard::ShardChaosConfig one_column;
  one_column.shards = 0;
  one_column.chaos = config;
  shard::ShardChaosResult r = shard::run_shard_chaos_seed(seed, one_column);
  if (!r.ok) {
    std::string message = "chaos seed " + std::to_string(seed) +
                          " (n=" + std::to_string(config.n_processes) +
                          "): " + r.violation;
    message += "\nfault plan (replay with net::FaultPlan::parse):\n";
    message += r.plan_text;
    if (!r.trace_tail.empty()) message += "trace tail:\n" + r.trace_tail;
    throw ChaosFailure(seed, message);
  }
  return std::move(r.stats);
}

}  // namespace dvs::tosys
