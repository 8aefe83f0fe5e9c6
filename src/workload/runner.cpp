#include "workload/runner.h"

#include <algorithm>
#include <functional>
#include <memory>
#include <optional>
#include <unordered_map>
#include <vector>

#include "apps/state_machine.h"
#include "net/fault_plan.h"
#include "obs/stack_tracer.h"
#include "parallel/thread_pool.h"
#include "shard/deployment.h"
#include "tosys/cluster.h"

namespace dvs::workload {

namespace {

constexpr sim::Time kInvariantCheckPeriod = 100 * sim::kMillisecond;

/// A write in flight: who issued it, when, and in which phase.
struct PendingWrite {
  std::size_t client = 0;
  sim::Time submitted = 0;
  std::size_t phase = 0;
  bool committed = false;
};

struct ClientState {
  OpGenerator gen;
  ProcessId home{};
  std::uint64_t waiting_uid = 0;  // closed loop: the outstanding write
};

/// Skeleton report: scenario identity, declared SLOs and the phase
/// structure with all measurements zero. Sweeps merge every passing seed
/// into this, so even an all-failed sweep serializes coherently.
SloReport skeleton_report(const Scenario& sc) {
  SloReport r;
  r.scenario = sc.name;
  r.n = sc.n;
  r.seeds = 0;
  r.first_seed = sc.seed;
  r.slo_availability_ppm = sc.slo_availability_ppm;
  r.slo_p99_commit_ms = sc.slo_p99_commit_ms;
  for (const Phase& ph : sc.effective_phases()) {
    PhaseSlo p;
    p.name = ph.name;
    r.phases.push_back(std::move(p));
  }
  return r;
}

std::string failure_message(std::uint64_t seed, const Scenario& sc,
                            const net::FaultPlan& plan,
                            const std::string& violation,
                            const std::string& tail) {
  std::string out = "scenario '" + sc.name + "' seed " + std::to_string(seed) +
                    " (n=" + std::to_string(sc.n) + "): " + violation;
  out += "\nfault plan (replay with net::FaultPlan::parse):\n";
  out += plan.to_string();
  if (!tail.empty()) out += "trace tail:\n" + tail;
  return out;
}

}  // namespace

SeedOutcome run_scenario_seed(const Scenario& sc, std::uint64_t seed) {
  sc.validate();

  // The deployment is the only per-deployment seam: construction, key
  // routing, the oracle diagnosis, the handoff hook and the metric export
  // (shard::Deployment). Everything below runs over its columns.
  shard::ShardClusterConfig scc;
  scc.shards = sc.shards;
  scc.replication = sc.replication;
  scc.dynamic = sc.dynamic;
  tosys::ClusterConfig& cc = scc.base;
  cc.n_processes = sc.n;
  cc.initial_members = sc.initial;
  cc.net = sc.net_config();
  if (sc.heartbeat_ms != 0) {
    cc.vs.heartbeat_period = sc.heartbeat_ms * sim::kMillisecond;
  }
  if (sc.suspect_ms != 0) {
    cc.vs.suspect_timeout = sc.suspect_ms * sim::kMillisecond;
  }
  if (sc.propose_ms != 0) {
    cc.vs.propose_timeout = sc.propose_ms * sim::kMillisecond;
  }
  cc.vs.stability = sc.watermarks ? vsys::StabilityMode::kWatermark
                                  : vsys::StabilityMode::kExplicitAck;
  // The oracle checks every event ONLINE; storing the full event streams as
  // well would hold a copy of every TO summary exchanged at every primary
  // establishment — O(history x views) memory on long churny horizons — so
  // trace retention stays off. A failing seed is replayed from its embedded
  // fault plan instead of a stored tail.
  cc.record_traces = false;
  cc.conformance_oracle = true;
  cc.persistence = sc.needs_persistence();
  shard::Deployment cluster(scc, seed);
  const std::size_t columns = cluster.columns();

  const net::FaultPlan plan = sc.compile_faults(seed);
  net::FaultPlan::ScheduleHooks hooks;
  hooks.crashes_restart = sc.crashes_restart();
  if (cc.persistence) {
    hooks.restart = [&cluster](ProcessId p) { cluster.restart(p); };
  }
  plan.schedule(cluster.sim(), cluster.net(), hooks);

  // ----- measurement state ---------------------------------------------------
  SloReport report = skeleton_report(sc);
  report.seeds = 1;
  report.first_seed = seed;
  report.measured_us = sc.horizon - sc.warmup;

  const std::vector<Phase> phases = sc.effective_phases();
  std::vector<sim::Time> phase_edge;  // cumulative end times over [0, horizon)
  {
    sim::Time edge = 0;
    for (const Phase& ph : phases) {
      edge += ph.duration;
      phase_edge.push_back(edge);
    }
    for (std::size_t i = 0; i < phases.size(); ++i) {
      report.phases[i].duration_us = phases[i].duration;
    }
  }
  auto phase_index = [&phase_edge](sim::Time t) {
    for (std::size_t i = 0; i + 1 < phase_edge.size(); ++i) {
      if (t < phase_edge[i]) return i;
    }
    return phase_edge.size() - 1;
  };

  obs::Histogram commit_hist(obs::latency_buckets_us());
  obs::Histogram delivery_hist(obs::latency_buckets_us());
  std::vector<std::unique_ptr<obs::Histogram>> phase_hist;
  phase_hist.reserve(phases.size());
  for (std::size_t i = 0; i < phases.size(); ++i) {
    phase_hist.push_back(
        std::make_unique<obs::Histogram>(obs::latency_buckets_us()));
  }

  // ----- replicated application ---------------------------------------------
  // One KV replica per (column, column-local process): each column
  // replicates exactly its own key partition.
  std::vector<std::vector<apps::KvStateMachine>> kv;
  kv.reserve(columns);
  for (std::uint32_t k = 1; k <= columns; ++k) {
    kv.emplace_back(cluster.column(k).universe().size());
  }
  std::unordered_map<std::uint64_t, PendingWrite> pending;
  std::uint64_t next_uid = 1;

  std::vector<ClientState> clients;
  clients.reserve(sc.clients);
  for (std::size_t i = 0; i < sc.clients; ++i) {
    clients.push_back(ClientState{
        OpGenerator(sc.mix, client_stream_seed(seed, i)),
        ProcessId{static_cast<ProcessId::Rep>(i % sc.n)}, 0});
  }

  // A write that cannot commit (home crashed mid-protocol) must not wedge
  // its closed-loop client: give the stack ample time to change views and
  // recover, then abandon the wait.
  const sim::Time op_timeout =
      std::max<sim::Time>(2 * sim::kSecond, 10 * cc.vs.suspect_timeout);

  sim::Simulator& sim = cluster.sim();

  // Continuation cycles (closed-loop think chains, open-loop arrival
  // chains); function-scope so scheduled events can reference them safely.
  std::function<void(std::size_t)> issue_op;
  std::function<void(std::size_t)> arm_open;
  auto schedule_next = [&](std::size_t ci) {
    const sim::Time now = sim.now();
    if (now >= sc.horizon) return;
    const double mult = sc.rate_mult_at(now);
    const double mean = std::max(
        1.0, static_cast<double>(sc.think == 0 ? 1 : sc.think) / mult);
    const sim::Time at = now + clients[ci].gen.arrival_gap_us(mean);
    if (at >= sc.horizon) return;
    sim.schedule_at(at, [&issue_op, ci] { issue_op(ci); });
  };

  for (std::uint32_t k = 1; k <= columns; ++k) {
    cluster.column(k).set_delivery_hook([&, k](const tosys::Delivery& d) {
      kv[k - 1][d.receiver.value()].apply(d.msg.payload);
      auto it = pending.find(d.msg.uid);
      if (it == pending.end()) return;
      PendingWrite& w = it->second;
      const sim::Time lat = d.at - w.submitted;
      delivery_hist.observe(lat);
      if (d.receiver != d.msg.origin || w.committed) return;
      w.committed = true;
      commit_hist.observe(lat);
      phase_hist[w.phase]->observe(lat);
      ++report.commits;
      ++report.completed;
      ++report.phases[w.phase].completed;
      ClientState& c = clients[w.client];
      if (sc.closed_loop && c.waiting_uid == d.msg.uid) {
        c.waiting_uid = 0;
        schedule_next(w.client);
      }
    });
  }

  // After a migration the slot's new incarnation owns the donor's delivered
  // prefix — positions the old KV mirror may never have applied (the donor
  // was ahead) or has already applied (the donor lagged; re-deliveries
  // re-apply idempotently through the delivery hook). Rebuild the mirror
  // from the column's recovered order so the digest-convergence check stays
  // meaningful across re-provisioning.
  cluster.set_handoff_hook([&](std::uint32_t g, ProcessId slot) {
    kv[g - 1][slot.value()] =
        apps::replay_kv(cluster.column(g).to_node(slot).automaton());
  });

  issue_op = [&](std::size_t ci) {
    const sim::Time now = sim.now();
    if (now >= sc.horizon) return;
    ClientState& c = clients[ci];
    const Op op = c.gen.next();
    const std::size_t ph = phase_index(now);
    ++report.issued;
    ++report.phases[ph].issued;
    const std::string key = "k" + std::to_string(op.key);
    switch (op.kind) {
      case OpKind::kRead: {
        ++report.reads;
        ++report.phases[ph].reads;
        const auto [g, local] = cluster.route(key, c.home);
        (void)kv[g - 1][local.value()].get(key);
        ++report.completed;
        ++report.phases[ph].completed;
        if (sc.closed_loop) schedule_next(ci);
        break;
      }
      case OpKind::kScan: {
        ++report.scans;
        ++report.phases[ph].scans;
        // Scans read the contact replica of the key's home column; keys
        // of sibling shards are out of partition by design.
        const auto [g, local] = cluster.route(key, c.home);
        const auto& data = kv[g - 1][local.value()].data();
        auto it = data.lower_bound(key);
        for (std::size_t k = 0; k < op.scan_len && it != data.end();
             ++k, ++it) {
        }
        ++report.completed;
        ++report.phases[ph].completed;
        if (sc.closed_loop) schedule_next(ci);
        break;
      }
      case OpKind::kWrite: {
        ++report.writes;
        ++report.phases[ph].writes;
        const std::uint64_t uid = next_uid++;
        pending.emplace(uid, PendingWrite{ci, now, ph, false});
        if (sc.closed_loop) {
          c.waiting_uid = uid;
          sim.schedule_at(now + op_timeout, [&, ci, uid] {
            if (clients[ci].waiting_uid != uid) return;
            clients[ci].waiting_uid = 0;
            ++report.timeouts;
            schedule_next(ci);
          });
        }
        const auto [g, local] = cluster.route(key, c.home);
        cluster.column(g).bcast(
            local, AppMsg{uid, local, "put " + key + " " + op.value});
        break;
      }
    }
  };

  if (sc.closed_loop) {
    // Stagger the first operations so clients never lock step at warmup.
    for (std::size_t i = 0; i < sc.clients; ++i) {
      sim.schedule_at(sc.warmup + static_cast<sim::Time>(i + 1) * 100,
                      [&issue_op, i] { issue_op(i); });
    }
  } else {
    // Open loop: per-client Poisson arrival chains targeting the aggregate
    // rate, scaled by the phase/burst multiplier at arming time.
    arm_open = [&](std::size_t ci) {
      const sim::Time now = std::max(sim.now(), sc.warmup);
      const double per_client =
          sc.rate * sc.rate_mult_at(now) / static_cast<double>(sc.clients);
      const sim::Time at =
          now + clients[ci].gen.arrival_gap_us(1e6 / per_client);
      if (at >= sc.horizon) return;
      sim.schedule_at(at, [&, ci] {
        issue_op(ci);
        arm_open(ci);
      });
    };
    for (std::size_t i = 0; i < sc.clients; ++i) arm_open(i);
  }

  // ----- availability sampling and mid-run invariant checks ------------------
  // "Available" = every column has a primary-capable member (the pool
  // serves its whole keyspace).
  for (sim::Time t = sc.warmup; t < sc.horizon; t += sc.sample_period) {
    sim.schedule_at(t, [&, t] {
      const std::size_t ph = phase_index(t);
      ++report.samples;
      ++report.phases[ph].samples;
      bool available = true;
      for (std::uint32_t k = 1; k <= columns; ++k) {
        if (cluster.column(k).primary_fraction() <= 0.0) available = false;
      }
      if (available) {
        ++report.available_samples;
        ++report.phases[ph].available_samples;
      }
    });
  }
  // Mid-run state-invariant checks (Invariants 4.1/4.2): every 100ms on
  // short runs, stretched to ~200 checks total on long soaks.
  const sim::Time check_period =
      std::max(kInvariantCheckPeriod, sc.horizon / 200);
  for (sim::Time t = check_period; t < sc.horizon; t += check_period) {
    sim.schedule_at(t, [&cluster] { (void)cluster.check_invariants(); });
  }

  // ----- run -----------------------------------------------------------------
  cluster.start();
  cluster.run_for(sc.horizon);

  // Recovery epilogue, as in the chaos harness: heal, resume everyone, let
  // the stack converge, and keep the oracle watching the repair traffic.
  cluster.net().heal();
  for (ProcessId p : cluster.pool()) cluster.net().resume(p);
  cluster.run_for(sc.settle);
  // A churny plan can leave the last rejoin's view change mid-flight at the
  // settle deadline; give the membership layer bounded extra rounds to
  // quiesce (a genuinely wedged stack still fails the span check below).
  auto open_view_changes = [&] {
    std::size_t open = 0;
    for (std::uint32_t k = 1; k <= columns; ++k) {
      open += obs::check_span_invariants(cluster.column(k).trace())
                  .open_view_change;
    }
    return open;
  };
  for (int round = 0; round < 8 && open_view_changes() > 0; ++round) {
    cluster.run_for(sc.settle);
  }
  (void)cluster.check_invariants();

  if (const std::optional<std::string> violation = cluster.violation()) {
    throw ScenarioFailure(seed, failure_message(seed, sc, plan, *violation,
                                                cluster.trace_tail()));
  }

  // ----- report assembly -----------------------------------------------------
  report.commit_latency = commit_hist.snapshot();
  report.delivery_latency = delivery_hist.snapshot();
  for (std::size_t i = 0; i < phases.size(); ++i) {
    report.phases[i].commit_latency = phase_hist[i]->snapshot();
  }
  report.fault_events = plan.events.size();
  report.restarts = cluster.restarts();
  bool converged = true;
  std::size_t span_violations = 0;
  for (std::uint32_t k = 1; k <= columns; ++k) {
    tosys::Cluster& column = cluster.column(k);
    for (ProcessId local : column.universe()) {
      report.views_installed += column.vs_node(local).stats().views_installed;
    }
    for (std::size_t i = 1; i < kv[k - 1].size(); ++i) {
      if (kv[k - 1][i].digest() != kv[k - 1][0].digest()) converged = false;
    }
    const obs::SpanInvariantReport spans =
        obs::check_span_invariants(column.trace());
    obs::publish_span_invariants(spans, column.metrics());
    span_violations += spans.open_view_change + spans.non_nested_delivery +
                       spans.overlapping_registration;
  }
  report.converged_seeds = converged ? 1 : 0;
  report.span_violations = span_violations;

  SeedOutcome out;
  out.slo = std::move(report);
  out.metrics = cluster.metrics_snapshot();
  return out;
}

ScenarioSweepResult run_scenario(const Scenario& sc, std::size_t jobs) {
  sc.validate();
  const std::size_t count = sc.seeds;
  parallel::ThreadPool pool(
      std::max<std::size_t>(1, std::min(parallel::resolve_jobs(jobs), count)));
  auto fan = pool.fan_seeds(sc.seed, count, [&sc](std::uint64_t seed) {
    return run_scenario_seed(sc, seed);
  });

  // Merge in seed order (the SeedSweep contract): byte-identical for any
  // jobs value.
  ScenarioSweepResult result;
  result.slo = skeleton_report(sc);
  for (const std::optional<SeedOutcome>& outcome : fan.results) {
    if (!outcome.has_value()) continue;
    result.slo += outcome->slo;
    result.metrics += outcome->metrics;
    ++result.seeds_run;
  }
  result.seeds_failed = fan.failed;
  if (fan.first_failure.has_value()) {
    result.first_failing_seed = fan.first_failure->seed;
    result.first_failure = fan.first_failure->message.empty()
                               ? "unknown failure"
                               : fan.first_failure->message;
  }
  return result;
}

}  // namespace dvs::workload
