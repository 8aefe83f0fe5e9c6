// Daemon: one dvsd OS process — a full VS/DVS/TO node over real UDP.
//
// The protocol stack was written against sim::Simulator's virtual clock;
// the daemon reuses it unmodified by driving the simulator from the wall
// clock: simulated time is defined as "microseconds since daemon start"
// (CLOCK_MONOTONIC), the event loop advances the simulator to the current
// elapsed time before and after every socket wait, and the epoll timeout
// is bounded by the next pending timer so heartbeats fire on schedule.
// Everything stays single-threaded: timer callbacks, datagram handlers
// and control commands all run on the loop thread, exactly like in the
// simulator.
//
// A UDP control socket accepts one-datagram text commands (cluster.sh and
// the system tests drive workloads through it):
//
//   ping                 -> "pong <self> pid=<pid> recovered=<0|1>"
//   put <key> <value>    -> broadcasts "put k v", replies "ok uid=<uid>"
//   del <key>            -> broadcasts "del k",   replies "ok uid=<uid>"
//   get <key>            -> the local replica's value, or "(nil)"
//   dump                 -> KvStateMachine::snapshot()
//   digest               -> "digest=<hex> applied=<n>"
//   applied              -> commands applied to the local replica
//   view                 -> "view=<id,{members}> primary=<0|1>" | "no-view"
//   stats                -> metrics snapshot (Prometheus-style text)
//   drop <probability>   -> sets the UDP send-drop knob, replies "ok"
//   fds                  -> open file descriptor count (fd-leak checks)
//   shardmap             -> current assignments: "g<k> <pool ids...>" per
//                           shard plus "migrations=<n>"; unsharded daemons
//                           answer "err unsharded deployment"
//   quit                 -> replies "ok", exits the loop gracefully
//
// A sharded daemon (shards > 0) routes put/del/get by key. When it hosts
// the key's shard k, put/del replies add " shard=<k>"; when it does not,
// all three answer "moved shard=<k> node=<id>" naming a host to retry at.
// dump, digest and view answer one "g<k> ..." line (dump: a "g<k>" header
// line) per hosted column, and applied sums over the columns.
//
// Shutdown: `quit`, SIGTERM or SIGINT end the loop after the current
// iteration; traces and WALs are already on the kernel side at every
// point (the sink flushes per record), so SIGKILL loses at most the one
// record being written — which the CRC framing turns into a clean torn
// tail for the next incarnation and the auditor.
#pragma once

#include <csignal>
#include <cstdint>
#include <map>
#include <memory>
#include <vector>

#include "daemon/config.h"
#include "daemon/runtime.h"
#include "net/udp_transport.h"
#include "obs/metrics.h"
#include "shard/group_mux.h"
#include "shard/migration.h"
#include "shard/provision.h"
#include "shard/router.h"
#include "sim/simulator.h"
#include "storage/file_store.h"
#include "vsys/vs_node.h"

namespace dvs::daemon {

class Daemon : private shard::MigrationPort {
 public:
  /// Opens sockets, storage and trace sink; builds (and, when the WAL dir
  /// already holds journals, recovers) the node. Throws on setup errors.
  explicit Daemon(DaemonConfig config);
  ~Daemon();

  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  /// Runs the event loop until `quit` or until *stop becomes nonzero
  /// (signal handlers set it). Returns the process exit code.
  int run(const volatile std::sig_atomic_t* stop = nullptr);

  /// True when any column this daemon hosts was rebuilt from WAL journals
  /// left by a previous incarnation (see NodeRuntime::recovered).
  [[nodiscard]] bool recovered() const;
  [[nodiscard]] net::UdpTransport& transport() { return *transport_; }
  /// The control socket's bound port (the config may say port 0 in tests).
  [[nodiscard]] std::uint16_t control_port() const { return control_port_; }

  /// One shard column this daemon hosts (shards > 0 only). A node hosts a
  /// column for every shard whose provisioned replica set contains it.
  struct Column {
    std::uint32_t group = 0;
    ProcessId local{};  // shard-local id of this node within the column
    shard::GroupMux::Port* port = nullptr;
    storage::StableStore* store = nullptr;  // owned by the daemon
    std::unique_ptr<TraceSink> sink;
    std::unique_ptr<NodeRuntime> runtime;
    obs::MetricsRegistry metrics;
  };
  [[nodiscard]] const std::vector<std::unique_ptr<Column>>& columns() const {
    return columns_;
  }

  /// The current shard map (initial provisioning plus every migration this
  /// daemon has applied from pool view changes; empty when unsharded).
  [[nodiscard]] const std::vector<shard::ShardAssignment>& assignments()
      const;
  /// Column slot migrations applied to this daemon's map (dynamic mode;
  /// see shard::MigrationEngine::migrations).
  [[nodiscard]] std::uint64_t migrations() const {
    return engine_ ? engine_->migrations() : 0;
  }

 private:
  /// Untagged-datagram Transport view of the shared socket — the pool
  /// membership group's wire (defined in daemon.cpp).
  class PoolTransport;

  void build_columns();
  /// Opens and starts a column (its timers fire once run() drives sim_).
  void open_column(const shard::ShardAssignment& a,
                   std::uint64_t handoff_next);
  void build_pool_group();
  void apply_pool_view(const View& view);
  [[nodiscard]] Column* column_for(std::uint32_t group);

  // The MigrationPort over GroupMux 0x48 frames and a retry timer.
  void send_transfer(ProcessId from, ProcessId to,
                     const shard::TransferFrame& frame) override {
    mux_->send_transfer(from, to, frame);
  }
  storage::StableStore* column_store(std::uint32_t group,
                                     bool create) override;
  void remap(std::uint32_t group, ProcessId slot, ProcessId to) override;
  void install_column(std::uint32_t group, ProcessId slot, ProcessId to,
                      std::uint64_t next) override;
  void teardown_column(std::uint32_t group) override;
  void schedule_retry(std::uint32_t group) override;
  storage::StableStore* map_store() override { return pool_store_.get(); }

  void handle_control();
  [[nodiscard]] std::string execute(const std::string& command);
  [[nodiscard]] std::uint64_t elapsed_us() const;

  DaemonConfig config_;
  sim::Simulator sim_;
  std::unique_ptr<net::UdpTransport> transport_;
  std::unique_ptr<storage::FileStableStore> store_;
  std::unique_ptr<TraceSink> sink_;
  std::unique_ptr<NodeRuntime> runtime_;
  std::unique_ptr<shard::GroupMux> mux_;
  /// One store per group directory (wal_dir/g<k>), shared by a column and
  /// its migration episodes; declared before the columns journaling into it.
  std::map<std::uint32_t, std::unique_ptr<storage::FileStableStore>>
      stores_;
  std::vector<std::unique_ptr<Column>> columns_;
  shard::ShardRouter router_{1};  // rebuilt with K in build_columns()
  // Dynamic re-provisioning (config.dynamic): the pool membership group.
  std::unique_ptr<PoolTransport> pool_net_;
  std::unique_ptr<storage::FileStableStore> pool_store_;
  std::unique_ptr<vsys::VsNode> pool_vs_;
  /// The shard map and every migration episode (shards > 0).
  std::unique_ptr<shard::MigrationEngine> engine_;
  obs::MetricsRegistry metrics_;
  int ctl_fd_ = -1;
  std::uint16_t control_port_ = 0;
  std::uint64_t t0_ns_ = 0;
  bool quit_ = false;
};

/// Wall-clock microseconds (CLOCK_REALTIME) — the trace timestamp domain
/// shared by every process on the host.
[[nodiscard]] std::uint64_t realtime_us();

}  // namespace dvs::daemon
