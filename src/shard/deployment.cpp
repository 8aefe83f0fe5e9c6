#include "shard/deployment.h"

namespace dvs::shard {

Deployment::Deployment(ShardClusterConfig config, std::uint64_t seed) {
  if (config.shards == 0) {
    plain_ = std::make_unique<tosys::Cluster>(config.base, seed);
  } else {
    // Journals are the state a migration transfers.
    if (config.dynamic) config.base.persistence = true;
    pool_ = std::make_unique<ShardCluster>(config, seed);
  }
  base_ = config.base;
}

sim::Simulator& Deployment::sim() {
  return plain_ ? plain_->sim() : pool_->sim();
}

net::SimNetwork& Deployment::net() {
  return plain_ ? plain_->net() : pool_->net();
}

const ProcessSet& Deployment::pool() const {
  return plain_ ? plain_->universe() : pool_->pool();
}

std::size_t Deployment::columns() const {
  return plain_ ? 1 : pool_->shard_count();
}

tosys::Cluster& Deployment::column(std::uint32_t k) {
  return plain_ ? *plain_ : pool_->shard(k);
}

void Deployment::start() { plain_ ? plain_->start() : pool_->start(); }

void Deployment::restart(ProcessId p) {
  plain_ ? plain_->restart(p) : pool_->restart(p);
}

std::uint64_t Deployment::restarts() const {
  return plain_ ? plain_->restarts() : pool_->restarts();
}

std::pair<std::uint32_t, ProcessId> Deployment::route(const std::string& key,
                                                      ProcessId home) {
  if (plain_) return {1, home};
  // The router resolves the contact from the live pool view; the port map
  // translates it into the column's local id space.
  const std::uint32_t g = pool_->router().shard_of(key);
  const ProcessId contact = pool_->router().contact(g, home);
  return {g, pool_->local_id(g, contact)};
}

bool Deployment::check_invariants() {
  return plain_ ? plain_->oracle().check_invariants()
                : pool_->check_invariants();
}

std::optional<std::string> Deployment::violation() const {
  if (plain_ ? plain_->oracle().ok() : pool_->oracle_ok()) return {};
  return plain_ ? plain_->oracle().violation()->to_string()
                : pool_->violation_message();
}

std::string Deployment::trace_tail() const {
  return plain_ ? plain_->oracle().tail() : std::string();
}

void Deployment::set_handoff_hook(
    std::function<void(std::uint32_t, ProcessId)> hook) {
  if (pool_) pool_->set_handoff_hook(std::move(hook));
}

obs::MetricsSnapshot Deployment::metrics_snapshot() {
  return plain_ ? plain_->metrics_snapshot() : pool_->metrics_snapshot();
}

}  // namespace dvs::shard
