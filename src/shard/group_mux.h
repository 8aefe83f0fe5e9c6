// GroupMux: in-band group multiplexing over any real net::Transport.
//
// Where the simulator carries the shard tag structurally (SimNetwork group
// channels), a real wire carries exactly bytes — so every datagram of a
// sharded deployment is prefixed with the vsys::GroupFrame header
// (kGroupFrameTag | varuint group_id | payload), and the receiving side
// demuxes on it. GroupMux installs ONE handler per pool process on the
// underlying transport and fans frames out to the per-group ports; traffic
// without a group frame (legacy daemons, the pool-level membership group's
// own protocol if it chooses to run untagged) is routed to the default
// handler for that process.
//
// Each port translates shard-local ProcessIds (0..r-1) to pool ids exactly
// like shard::GroupPort does for the simulator, so a tosys column or a
// daemon::NodeRuntime can run over a port unmodified.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <utility>
#include <vector>

#include "common/types.h"
#include "common/view.h"
#include "net/transport.h"
#include "shard/reprovision.h"

namespace dvs::shard {

class GroupMux {
 public:
  class Port;

  explicit GroupMux(net::Transport& base) : base_(base) {}
  GroupMux(const GroupMux&) = delete;
  GroupMux& operator=(const GroupMux&) = delete;

  /// Opens the port for `group`; `pool_replicas` ascending, local id i =
  /// pool_replicas[i]. The port is owned by the mux and valid for its
  /// lifetime. Throws on a duplicate group or group 0 (0 marks untagged
  /// traffic — use attach_default).
  Port& open(std::uint32_t group, std::vector<ProcessId> pool_replicas);

  /// Handler for datagrams addressed to `pool_p` that carry no group frame.
  void attach_default(ProcessId pool_p, net::Transport::Handler handler);

  /// Closes the port for `group`: the port object is destroyed and every
  /// handler it installed is removed (subsequent frames for the group count
  /// as unroutable). No-op on an unknown group. Used by dynamic
  /// re-provisioning when a column this node hosted migrates away.
  void close(std::uint32_t group);

  /// State-transfer frames (shard/reprovision.h, tag 0x48) ride the same
  /// socket but OUTSIDE the group framing — a joiner needs them before its
  /// column (and hence its port) exists. The per-destination handler
  /// receives the decoded frame; undecodable transfer datagrams are dropped
  /// and counted as transfer rejects (never as unroutable).
  using TransferHandler =
      std::function<void(ProcessId from, const TransferFrame&)>;
  void set_transfer_handler(ProcessId pool_p, TransferHandler handler);
  void send_transfer(ProcessId pool_from, ProcessId pool_to,
                     const TransferFrame& frame);

  [[nodiscard]] net::Transport& base() { return base_; }
  /// Datagrams whose group frame named a group with no open port (or no
  /// handler attached for the destination) — dropped, counted.
  [[nodiscard]] std::uint64_t unroutable() const { return unroutable_; }
  /// 0x48-tagged datagrams that failed to decode — dropped, counted.
  [[nodiscard]] std::uint64_t transfer_rejects() const {
    return transfer_rejects_;
  }

 private:
  friend class Port;

  /// Installs the demux handler on the base transport for pool_p (idempotent).
  void ensure_attached(ProcessId pool_p);
  void dispatch(ProcessId pool_to, ProcessId pool_from, const Bytes& payload);
  void send_framed(std::uint32_t group, ProcessId pool_from, ProcessId pool_to,
                   const Bytes& payload);

  net::Transport& base_;
  std::map<std::uint32_t, std::unique_ptr<Port>> ports_;
  // (group, pool destination) -> translated handler installed by the port.
  std::map<std::pair<std::uint32_t, ProcessId>, net::Transport::Handler>
      handlers_;
  std::map<ProcessId, net::Transport::Handler> default_handlers_;
  std::map<ProcessId, TransferHandler> transfer_handlers_;
  ProcessSet attached_;
  std::uint64_t unroutable_ = 0;
  std::uint64_t transfer_rejects_ = 0;
};

/// One group's Transport view. Lives inside the mux; see GroupMux::open.
class GroupMux::Port : public net::Transport {
 public:
  Port(GroupMux& mux, std::uint32_t group, std::vector<ProcessId> pool)
      : mux_(mux), group_(group), pool_(std::move(pool)) {
    local_ = make_universe(pool_.size());
  }

  [[nodiscard]] std::uint32_t group() const { return group_; }
  [[nodiscard]] ProcessId to_pool(ProcessId local) const {
    return pool_.at(local.value());
  }
  [[nodiscard]] ProcessId to_local(ProcessId pool) const;
  /// Re-points shard-local id `local` at a different pool process — the
  /// volatile half of a slot migration. Post-remap the pool list may be
  /// non-ascending; to_local's linear scan stays correct. This node's own
  /// slot never moves while it is alive, so the installed receive handler
  /// (keyed by this node's pool id) is untouched.
  void remap(ProcessId local, ProcessId pool) {
    pool_.at(local.value()) = pool;
  }

  void attach(ProcessId local, Handler handler) override;
  void send(ProcessId from, ProcessId to, const Bytes& payload) override;

  [[nodiscard]] std::size_t max_datagram_size() const override {
    // The group frame (tag + varuint) rides inside the base datagram.
    const std::size_t base = mux_.base_.max_datagram_size();
    return base > 6 ? base - 6 : 0;
  }
  [[nodiscard]] const net::NetStats& stats() const override {
    return mux_.base_.stats();
  }
  [[nodiscard]] const ProcessSet& processes() const override {
    return local_;
  }

 private:
  GroupMux& mux_;
  std::uint32_t group_;
  std::vector<ProcessId> pool_;  // ascending; index = local id
  ProcessSet local_;
};

}  // namespace dvs::shard
