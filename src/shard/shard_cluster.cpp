#include "shard/shard_cluster.h"

#include <stdexcept>
#include <utility>

namespace dvs::shard {
namespace {

/// Decorrelates the pool group's fault Rng from every shard channel (shard
/// 1's channel must reproduce the unsharded network's draw sequence, so the
/// pool cannot share its seed).
constexpr std::uint64_t kPoolRngSalt = 0x706f6f6c00005eedULL;
/// Weyl-sequence stride for per-shard channel seeds; shard 1 gets the bare
/// seed (the unsharded network's), shard k gets seed ^ ((k-1) * stride).
constexpr std::uint64_t kShardSeedStride = 0x9E3779B97F4A7C15ULL;

/// Episode staging keys (see shard::transfer_stage_key): the snapshot is
/// staged here, the commit marker lives at leaf "meta", and the installed
/// journals (tosys::ProcessStack::storage_key) are only touched after the
/// marker commits.
std::string xfer_key(ProcessId slot, const char* leaf) {
  return transfer_stage_key(slot, leaf);
}

Bytes load_or_empty(storage::StableStore& store, const std::string& key) {
  std::optional<Bytes> v = store.load(key);
  return v.has_value() ? std::move(*v) : Bytes{};
}

}  // namespace

ShardCluster::ShardCluster(ShardClusterConfig config, std::uint64_t seed)
    : config_(std::move(config)),
      seed_(seed),
      pool_rng_(seed ^ kPoolRngSalt),
      pool_(make_universe(config_.base.n_processes)),
      pool_v0_(ViewId::initial(), pool_),
      router_(config_.shards) {
  if (config_.shards == 0) {
    throw std::logic_error("ShardCluster: zero shards");
  }
  if (config_.base.sim != nullptr || config_.base.transport != nullptr) {
    throw std::logic_error(
        "ShardCluster: base config must not inject sim/transport");
  }
  if (config_.dynamic && !config_.base.persistence) {
    throw std::logic_error(
        "ShardCluster: dynamic re-provisioning requires persistence "
        "(journals are the transferable state)");
  }
  live_pool_ = pool_;
  net_ = std::make_unique<net::SimNetwork>(sim_, pool_rng_, config_.base.net,
                                           pool_);
  if (config_.base.persistence) {
    pool_store_ = std::make_unique<storage::MemStableStore>();
  }

  assignments_ = provision(pool_, config_.shards, config_.replication);
  router_.set_assignments(assignments_);
  router_.set_pool_view(pool_);

  // The top-level VS group: every pool process is a member of pool v0.
  for (ProcessId p : pool_) {
    pool_views_.emplace(p, pool_v0_);
    build_pool_node(p, /*initial=*/true);
  }

  // One full protocol column per shard, over its own group channel.
  shards_.reserve(assignments_.size());
  for (const ShardAssignment& a : assignments_) {
    Shard s;
    const std::uint64_t channel_seed =
        seed ^ (static_cast<std::uint64_t>(a.group - 1) * kShardSeedStride);
    s.port = std::make_unique<GroupPort>(*net_, a.group, a.replicas,
                                         channel_seed);
    tosys::ClusterConfig cc = config_.base;
    cc.n_processes = a.replicas.size();
    // initial_members is a prefix count over the column's local universe;
    // only meaningful at K=1 (the equivalence configuration). With K > 1
    // every provisioned replica starts as a member of its shard.
    cc.initial_members =
        config_.shards == 1 ? config_.base.initial_members : 0;
    cc.sim = &sim_;
    cc.transport = s.port.get();
    GroupPort* port = s.port.get();
    cc.paused_probe = [port](ProcessId local) { return port->paused(local); };
    cc.store = nullptr;  // each column owns its own deterministic store
    s.cluster = std::make_unique<tosys::Cluster>(cc, seed);
    shards_.push_back(std::move(s));
  }

  if (config_.base.observability) {
    net_->bind_metrics(pool_metrics_);
    pool_metrics_.add_collector([this] {
      pool_metrics_.gauge("pool.shards").set(
          static_cast<std::int64_t>(shards_.size()));
      pool_metrics_.gauge("pool.processes").set(
          static_cast<std::int64_t>(pool_.size()));
      pool_metrics_.counter("pool.restarts").set(restarts_);
      pool_metrics_.counter("pool.migrations").set(migrations_);
      pool_metrics_.counter("pool.migration_stalls").set(stalls_);
      pool_metrics_.counter("pool.migration_lost").set(lost_);
      pool_metrics_.counter("pool.router_re_resolutions")
          .set(router_.re_resolutions());
      std::uint64_t views = 0;
      for (const auto& [p, node] : pool_vs_) {
        views += node->stats().views_installed;
      }
      pool_metrics_.counter("pool.vs_views_installed").set(views);
    });
  }
}

std::string ShardCluster::pool_storage_key(ProcessId p) {
  return "pool/" + p.to_string() + "/vs";
}

void ShardCluster::build_pool_node(ProcessId p, bool initial) {
  vsys::VsCallbacks cb;
  cb.on_newview = [this, p](const View& v) {
    pool_views_[p] = v;
    // Any member's pool view change re-resolves routing; contact resolution
    // uses the live membership. Keys never migrate (shard count is fixed);
    // with dynamic provisioning the *replicas* hosting a column do.
    router_.set_pool_view(v.set());
    if (config_.dynamic) {
      live_pool_ = v.set();
      maybe_reprovision();
    }
  };
  pool_vs_[p] = std::make_unique<vsys::VsNode>(
      p, initial ? std::optional<View>{pool_v0_} : std::nullopt, *net_, sim_,
      config_.base.vs, std::move(cb));
  if (pool_store_ != nullptr) {
    pool_vs_.at(p)->attach_storage(*pool_store_, pool_storage_key(p));
  }
}

void ShardCluster::start() {
  for (ProcessId p : pool_) pool_vs_.at(p)->start();
  for (Shard& s : shards_) s.cluster->start();
}

void ShardCluster::run_for(sim::Time duration) {
  sim_.run_until(sim_.now() + duration);
}

bool ShardCluster::hosts(std::uint32_t k, ProcessId pool_p) const {
  for (const ProcessId r : assignment(k).replicas) {
    if (r == pool_p) return true;
  }
  return false;
}

void ShardCluster::restart(ProcessId pool_p) {
  if (!config_.base.persistence) {
    throw std::logic_error("ShardCluster::restart requires persistence");
  }
  ++restarts_;
  // Pool membership node first: recover the epoch floor, rejoin with no
  // view — same recovery discipline as a shard column's VS layer.
  pool_vs_.erase(pool_p);
  const std::uint64_t epoch =
      vsys::VsNode::recover_epoch(*pool_store_, pool_storage_key(pool_p));
  build_pool_node(pool_p, /*initial=*/false);
  pool_vs_.at(pool_p)->restore_epoch(epoch);
  pool_vs_.at(pool_p)->start();
  // Then every shard column hosting this process restarts its local
  // replica from that column's own journals.
  for (const ShardAssignment& a : assignments_) {
    if (!hosts(a.group, pool_p)) continue;
    shards_[a.group - 1].cluster->restart(local_id(a.group, pool_p));
  }
}

void ShardCluster::maybe_reprovision() {
  if (migrating_) return;  // a cutover's own events must not re-plan mid-move
  migrating_ = true;
  const ReprovisionPlan plan = plan_reprovision(assignments_, live_pool_);
  // Stall/loss observations accumulate per planning round: a shortage that
  // persists across views is counted each time it blocks a refill.
  stalls_ += plan.stalled;
  lost_ += plan.lost;
  for (const GroupMigration& gm : plan.migrations) {
    for (const SlotMove& m : gm.moves) {
      migrate_slot(gm.group, gm.source_slot, m);
    }
  }
  migrating_ = false;
}

void ShardCluster::migration_barrier() {
  const std::size_t i = migration_barriers_++;
  if (migration_crash_hook_) migration_crash_hook_(i);
}

void ShardCluster::migrate_slot(std::uint32_t group, ProcessId source_slot,
                                const SlotMove& m) {
  Shard& s = shards_[group - 1];
  storage::StableStore* store = s.cluster->store();
  // Snapshot the donor's journals. In-process the "transfer" is a staging
  // copy inside the column's store (the simulated pool shares one address
  // space); the real-transport daemon ships the same bytes as 0x48 frames.
  migration_barrier();
  SlotSnapshot snap;
  using tosys::ProcessStack;
  snap.vs = load_or_empty(*store, ProcessStack::storage_key(source_slot, "vs"));
  snap.dvs =
      load_or_empty(*store, ProcessStack::storage_key(source_slot, "dvs"));
  snap.to = load_or_empty(*store, ProcessStack::storage_key(source_slot, "to"));
  migration_barrier();
  store->replace(xfer_key(m.slot, "vs"), snap.vs);
  migration_barrier();
  store->replace(xfer_key(m.slot, "dvs"), snap.dvs);
  migration_barrier();
  store->replace(xfer_key(m.slot, "to"), snap.to);
  // Commit point: a nonempty meta marker flips the episode from roll-back
  // (staging is scratch, the move re-plans from the next view) to
  // roll-forward (install_slot is idempotent and recovery re-runs it).
  Writer w;
  w.process_id(m.to);
  migration_barrier();
  store->replace(xfer_key(m.slot, "meta"), w.take());
  install_slot(group, m.slot, m.to);
}

void ShardCluster::install_slot(std::uint32_t group, ProcessId slot,
                                ProcessId to_pool) {
  Shard& s = shards_[group - 1];
  storage::StableStore* store = s.cluster->store();
  using tosys::ProcessStack;
  migration_barrier();
  store->replace(ProcessStack::storage_key(slot, "vs"),
                 load_or_empty(*store, xfer_key(slot, "vs")));
  migration_barrier();
  store->replace(ProcessStack::storage_key(slot, "dvs"),
                 load_or_empty(*store, xfer_key(slot, "dvs")));
  migration_barrier();
  store->replace(ProcessStack::storage_key(slot, "to"),
                 load_or_empty(*store, xfer_key(slot, "to")));
  // Volatile cutover, synchronous within the current simulator event so no
  // message can observe a half-moved slot: detach the departed process from
  // the group channel, re-point the slot, and crash-restart the column
  // replica from the journals just installed. The restart records CRASH;
  // HANDOFF then tells the oracle the new incarnation adopted the donor's
  // delivery cursor (spec::EvHandoff — re-delivery is legal, invention is
  // not).
  migration_barrier();
  s.port->remap(slot, to_pool);
  s.cluster->restart(slot);
  s.cluster->record_handoff(
      slot, s.cluster->to_node(slot).automaton().nextreport());
  assignments_[group - 1].replicas[slot.value()] = to_pool;
  router_.set_assignments(assignments_);
  ++migrations_;
  if (handoff_hook_) handoff_hook_(group, slot);
  // Clearing the marker is LAST: a crash anywhere above re-runs the install.
  migration_barrier();
  store->replace(xfer_key(slot, "meta"), Bytes{});
}

void ShardCluster::recover_migrations() {
  migrating_ = false;  // a crash mid-episode left the guard set
  // Roll forward every episode whose commit marker is present (the staged
  // journals are complete by construction of the marker order)...
  for (std::size_t k = 1; k <= shards_.size(); ++k) {
    Shard& s = shards_[k - 1];
    storage::StableStore* store = s.cluster->store();
    const std::size_t r = assignments_[k - 1].replicas.size();
    for (std::size_t i = 0; i < r; ++i) {
      const ProcessId slot(static_cast<std::uint32_t>(i));
      const std::optional<Bytes> meta = store->load(xfer_key(slot, "meta"));
      if (!meta.has_value() || meta->empty()) continue;
      Reader rd(*meta);
      const ProcessId to = rd.process_id();
      rd.expect_exhausted();
      install_slot(static_cast<std::uint32_t>(k), slot, to);
    }
  }
  // ...then re-plan from the live view: rolled-back moves are simply
  // replayed as fresh episodes. Callers clear the crash hook first or the
  // sweep would crash the recovery too.
  maybe_reprovision();
}

bool ShardCluster::oracle_ok() const {
  for (const Shard& s : shards_) {
    if (!s.cluster->oracle().ok()) return false;
  }
  return true;
}

std::string ShardCluster::violation_message() const {
  for (std::size_t i = 0; i < shards_.size(); ++i) {
    const auto& oracle = shards_[i].cluster->oracle();
    if (oracle.ok()) continue;
    return "shard " + std::to_string(i + 1) + ": " +
           oracle.violation()->to_string();
  }
  return {};
}

bool ShardCluster::check_invariants() {
  bool all_ok = true;
  for (Shard& s : shards_) {
    if (!s.cluster->oracle().check_invariants()) all_ok = false;
  }
  return all_ok;
}

double ShardCluster::min_primary_fraction() const {
  double min = 1.0;
  for (std::size_t k = 1; k <= shards_.size(); ++k) {
    const double f = primary_fraction(static_cast<std::uint32_t>(k));
    if (f < min) min = f;
  }
  return min;
}

obs::MetricsSnapshot ShardCluster::metrics_snapshot() {
  obs::MetricsSnapshot out = pool_metrics_.snapshot();
  for (std::size_t i = 0; i < shards_.size(); ++i) {
    const std::string prefix = "shard." + std::to_string(i + 1) + ".";
    const obs::MetricsSnapshot s = shards_[i].cluster->metrics_snapshot();
    for (const auto& [key, v] : s.counters) {
      out.counters[prefix + key] = v;
      out.counters["pool." + key] += v;
    }
    for (const auto& [key, v] : s.gauges) {
      out.gauges[prefix + key] = v;
      out.gauges["pool." + key] += v;
    }
    for (const auto& [key, v] : s.histograms) {
      out.histograms[prefix + key] = v;
    }
  }
  return out;
}

}  // namespace dvs::shard
