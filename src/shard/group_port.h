// GroupPort: a net::Transport facade exposing one SimNetwork group channel
// to one shard's protocol column, translating shard-local ProcessIds
// (0..r-1) to pool ProcessIds on the way down and back on the way up.
//
// Each shard's VS/DVS/TO column is a full tosys::Cluster whose universe is
// always {0..r-1} (clusters cannot run on arbitrary id subsets); the port
// is what lets that column live on an r-sized slice of an n-sized pool.
// The id map is monotone (provision() keeps replicas ascending), so local
// iteration order equals pool iteration order and a K=1 full-replication
// port is the identity — the byte-identity differential depends on that.
//
// The group tag travels out-of-band on the simulated network (SimNetwork
// group channels); the in-band vsys::GroupFrame codec is the real-transport
// equivalent (shard::GroupMux).
#pragma once

#include <cstdint>
#include <stdexcept>
#include <utility>
#include <vector>

#include "common/types.h"
#include "common/view.h"
#include "net/sim_network.h"
#include "net/transport.h"

namespace dvs::shard {

class GroupPort : public net::Transport {
 public:
  /// `pool_replicas` must be ascending; local id i maps to pool_replicas[i].
  /// Opens the group channel on `net` with `channel_seed` as its fault Rng.
  GroupPort(net::SimNetwork& net, std::uint32_t group,
            std::vector<ProcessId> pool_replicas, std::uint64_t channel_seed)
      : net_(net), group_(group), pool_(std::move(pool_replicas)) {
    local_ = make_universe(pool_.size());
    net_.open_group(group_, channel_seed);
  }

  [[nodiscard]] std::uint32_t group() const { return group_; }
  [[nodiscard]] ProcessId to_pool(ProcessId local) const {
    return pool_.at(local.value());
  }
  [[nodiscard]] ProcessId to_local(ProcessId pool) const {
    for (std::size_t i = 0; i < pool_.size(); ++i) {
      if (pool_[i] == pool) return ProcessId(static_cast<std::uint32_t>(i));
    }
    throw std::logic_error("GroupPort: pool process not a replica: " +
                           pool.to_string());
  }

  void attach(ProcessId local, Handler handler) override {
    net_.attach_group(group_, to_pool(local),
                      [this, handler = std::move(handler)](
                          ProcessId from, const Bytes& payload) {
                        handler(to_local(from), payload);
                      });
  }

  void send(ProcessId from, ProcessId to, const Bytes& payload) override {
    net_.send_group(group_, to_pool(from), to_pool(to), payload);
  }

  void multicast(ProcessId from, const ProcessSet& targets,
                 const Bytes& payload) override {
    // Local ids ascend with pool ids, so this hits the pool in the same
    // order SimNetwork::multicast would.
    for (ProcessId to : targets) {
      net_.send_group(group_, to_pool(from), to_pool(to), payload);
    }
  }

  /// Pool-wide counters (channels share one NetStats — see SimNetwork).
  [[nodiscard]] const net::NetStats& stats() const override {
    return net_.stats();
  }
  [[nodiscard]] const ProcessSet& processes() const override {
    return local_;
  }

  /// Whether this shard-local process is fault-paused on the pool network.
  [[nodiscard]] bool paused(ProcessId local) const {
    return net_.paused(to_pool(local));
  }

  /// Re-provisioning: re-points local slot `local` at a new pool process.
  /// The departed process's group-channel handler is detached (its column
  /// node objects are about to be destroyed); the joiner attaches its own
  /// handler when its column restarts. After a remap the pool list may be
  /// non-ascending — to_local stays correct (linear scan) but the ascending
  /// K=1 identity only ever held for never-migrated columns.
  void remap(ProcessId local, ProcessId pool) {
    ProcessId& slot = pool_.at(local.value());
    if (slot == pool) return;
    net_.detach_group(group_, slot);
    slot = pool;
  }

 private:
  net::SimNetwork& net_;
  std::uint32_t group_;
  std::vector<ProcessId> pool_;  // ascending; index = local id
  ProcessSet local_;
};

}  // namespace dvs::shard
