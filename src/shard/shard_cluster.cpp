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
  net_ = std::make_unique<net::SimNetwork>(sim_, pool_rng_, config_.base.net,
                                           pool_);
  if (config_.base.persistence) {
    pool_store_ = std::make_unique<storage::MemStableStore>();
  }

  engine_ = std::make_unique<MigrationEngine>(
      static_cast<MigrationPort&>(*this),
      provision(pool_, config_.shards, config_.replication), std::nullopt);
  router_.set_assignments(assignments());
  router_.set_pool_view(pool_);

  // The top-level VS group: every pool process is a member of pool v0.
  for (ProcessId p : pool_) build_pool_node(p, /*initial=*/true);

  // One full protocol column per shard, over its own group channel.
  shards_.reserve(assignments().size());
  for (const ShardAssignment& a : assignments()) {
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
      pool_metrics_.counter("pool.migrations").set(engine_->migrations());
      pool_metrics_.counter("pool.migration_stalls").set(engine_->stalls());
      pool_metrics_.counter("pool.migration_lost").set(engine_->lost());
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
  cb.on_newview = [this](const View& v) {
    // Any member's pool view change re-resolves routing; contact resolution
    // uses the live membership. Keys never migrate (shard count is fixed);
    // with dynamic provisioning the *replicas* hosting a column do.
    router_.set_pool_view(v.set());
    if (config_.dynamic) engine_->on_pool_view(v.set());
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
  for (const ShardAssignment& a : assignments()) {
    if (!hosts(a.group, pool_p)) continue;
    shards_[a.group - 1].cluster->restart(local_id(a.group, pool_p));
  }
}

void ShardCluster::install_column(std::uint32_t group, ProcessId slot,
                                  ProcessId to, std::uint64_t next) {
  // Volatile cutover, synchronous within the current simulator event so no
  // message can observe a half-moved slot: re-point the slot on the shared
  // group channel and crash-restart the column replica from the journals
  // just installed. The restart records CRASH; HANDOFF then tells the
  // oracle the new incarnation adopted the donor's delivery cursor
  // (spec::EvHandoff — re-delivery is legal, invention is not).
  Shard& s = shards_[group - 1];
  s.port->remap(slot, to);
  s.cluster->restart(slot);
  s.cluster->record_handoff(slot, next);
  router_.set_assignments(assignments());
  if (handoff_hook_) handoff_hook_(group, slot);
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
