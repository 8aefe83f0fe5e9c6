// Real-deployment system tests: dvsd OS processes on loopback.
//
// These are the end-to-end proofs that the stack survives outside the
// simulator: each test forks the actual dvsd binary (path baked in via
// DVSD_BIN_PATH) with generated config files, drives the cluster through
// its UDP control sockets, SIGKILLs members mid-stream (a genuine crash —
// no destructors, a torn trace tail on disk), and finally audits the
// merged on-disk traces with the same offline auditor `model_checker
// --audit` uses.
//
// Two deployments are exercised:
//   * DvsdLocalhostTest — the classic 3-node unsharded cluster:
//     kill / rejoin / recover, survivors converge, audit passes with 3
//     processes and 4 incarnations. Also asserts the daemon holds a
//     constant descriptor count across the whole workload (fd-leak guard).
//   * DvsdDynamicTest — a 4-node sharded deployment (K=4, r=2,
//     dynamic re-provisioning on): killing one host must migrate its two
//     column slots onto fresh survivors WITH their replicated state
//     (journal snapshot over the transfer protocol), new writes into the
//     migrated shards must commit under the refreshed map, a pure
//     survivor's descriptor count must not change (column teardown /
//     migration leaks nothing), and the per-group partitioned audit over
//     every trace — donors', joiners' and the dead host's torn files —
//     must end in VERDICT: PASS.
//
// Set DVS_NO_NET=1 to skip (no loopback sockets available).
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <poll.h>
#include <signal.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <functional>
#include <string>
#include <vector>

#include "daemon/audit.h"
#include "shard/router.h"

namespace dvs {
namespace {

bool no_net() {
  const char* env = std::getenv("DVS_NO_NET");
  return env != nullptr && env[0] == '1';
}

/// One UDP control round-trip; "" on timeout/error (callers retry via
/// await()).
std::string ctl(std::uint16_t port, const std::string& command,
                int timeout_ms = 300) {
  const int fd = ::socket(AF_INET, SOCK_DGRAM | SOCK_CLOEXEC, 0);
  if (fd < 0) return "";
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  std::string reply;
  if (::sendto(fd, command.data(), command.size(), 0,
               reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) >= 0) {
    pollfd pfd{fd, POLLIN, 0};
    if (::poll(&pfd, 1, timeout_ms) > 0) {
      char buf[65536];
      const ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
      if (n > 0) reply.assign(buf, static_cast<std::size_t>(n));
    }
  }
  ::close(fd);
  return reply;
}

bool await(const std::function<bool()>& pred, int deadline_ms,
           int poll_ms = 50) {
  for (int waited = 0;; waited += poll_ms) {
    if (pred()) return true;
    if (waited >= deadline_ms) return false;
    ::usleep(static_cast<useconds_t>(poll_ms) * 1000);
  }
}

/// Shared scaffolding: temp dir, generated configs, fork/exec of dvsd with
/// per-process logs, SIGKILL + reap, and the control-socket helpers.
/// Derived fixtures pick the node count and the config file contents.
class DvsdClusterTest : public ::testing::Test {
 protected:
  explicit DvsdClusterTest(int nodes) : nodes_(nodes), pids_(nodes, -1) {}

  void SetUp() override {
    if (no_net()) GTEST_SKIP() << "DVS_NO_NET=1: skipping localhost cluster";
    char tmpl[] = "/tmp/dvsd_localhost_XXXXXX";
    ASSERT_NE(::mkdtemp(tmpl), nullptr);
    dir_ = tmpl;
    // Spread port ranges across concurrent test runs; a collision shows up
    // as a bind failure in the child's log and a ping timeout here.
    base_port_ =
        static_cast<std::uint16_t>(22000 + (::getpid() * 17) % 30000);
    for (int i = 0; i < nodes_; ++i) write_config(i);
  }

  void TearDown() override {
    for (int i = 0; i < nodes_; ++i) {
      if (pids_[i] > 0) {
        ::kill(pids_[i], SIGKILL);
        reap(i, 5000);
      }
    }
    if (!HasFailure() && !dir_.empty()) {
      std::filesystem::remove_all(dir_);
    } else if (!dir_.empty()) {
      // Keep configs, daemon logs and traces for the post-mortem.
      std::fprintf(stderr, "dvsd test artifacts kept at %s\n", dir_.c_str());
    }
  }

  virtual void write_config(int i) = 0;

  [[nodiscard]] std::uint16_t peer_port(int i) const {
    return static_cast<std::uint16_t>(base_port_ + i);
  }
  [[nodiscard]] std::uint16_t ctl_port(int i) const {
    return static_cast<std::uint16_t>(base_port_ + nodes_ + i);
  }

  /// The config prologue every deployment shares.
  void write_common(std::ofstream& out, int i) {
    out << "node " << i << "\n"
        << "n " << nodes_ << "\n";
    for (int j = 0; j < nodes_; ++j) {
      out << "peer " << j << " 127.0.0.1:" << peer_port(j) << "\n";
    }
    out << "control 127.0.0.1:" << ctl_port(i) << "\n"
        << "wal_dir " << dir_ << "/p" << i << "/wal\n"
        << "trace_dir " << dir_ << "/traces\n";
  }

  void spawn(int i) {
    const std::string config = dir_ + "/p" + std::to_string(i) + ".conf";
    const std::string log = dir_ + "/p" + std::to_string(i) + ".log";
    const pid_t pid = ::fork();
    ASSERT_NE(pid, -1);
    if (pid == 0) {
      const int fd = ::open(log.c_str(), O_CREAT | O_WRONLY | O_APPEND, 0644);
      if (fd >= 0) {
        ::dup2(fd, STDOUT_FILENO);
        ::dup2(fd, STDERR_FILENO);
        ::close(fd);
      }
      ::execl(DVSD_BIN_PATH, "dvsd", "--config", config.c_str(),
              static_cast<char*>(nullptr));
      ::_exit(127);  // exec failed
    }
    pids_[i] = pid;
  }

  void kill_hard(int i) {
    ASSERT_EQ(::kill(pids_[i], SIGKILL), 0);
    ASSERT_TRUE(reap(i, 5000));
  }

  /// waitpid with a deadline; clears the pid slot on success.
  bool reap(int i, int deadline_ms) {
    const bool gone = await(
        [&] {
          return ::waitpid(pids_[i], nullptr, WNOHANG) == pids_[i];
        },
        deadline_ms, 20);
    if (gone) pids_[i] = -1;
    return gone;
  }

  [[nodiscard]] bool pingable(int i) {
    return ctl(ctl_port(i), "ping").rfind("pong", 0) == 0;
  }

  [[nodiscard]] bool dumps_equal(std::initializer_list<int> nodes,
                                 const std::string& want) {
    for (int i : nodes) {
      if (ctl(ctl_port(i), "dump") != want) return false;
    }
    return true;
  }

  int nodes_;
  std::string dir_;
  std::uint16_t base_port_ = 0;
  std::vector<pid_t> pids_;
};

// ----- unsharded 3-node cluster ---------------------------------------------

class DvsdLocalhostTest : public DvsdClusterTest {
 protected:
  DvsdLocalhostTest() : DvsdClusterTest(3) {}

  void write_config(int i) override {
    std::ofstream out(dir_ + "/p" + std::to_string(i) + ".conf");
    write_common(out, i);
    out << "initial " << nodes_ << "\n";
    ASSERT_TRUE(out.good());
  }
};

TEST_F(DvsdLocalhostTest, KillRejoinAndAuditPasses) {
  for (int i = 0; i < nodes_; ++i) spawn(i);
  for (int i = 0; i < nodes_; ++i) {
    ASSERT_TRUE(await([&] { return pingable(i); }, 15000))
        << "node " << i << " never answered ping";
  }

  // Seed data from two different origins and wait for full convergence.
  ASSERT_EQ(ctl(ctl_port(0), "put color red").rfind("ok", 0), 0u);
  ASSERT_EQ(ctl(ctl_port(2), "put shape circle").rfind("ok", 0), 0u);
  const std::string seeded = "color=red;shape=circle;";
  ASSERT_TRUE(await([&] { return dumps_equal({0, 1, 2}, seeded); }, 15000))
      << "cluster never converged on the seed data";

  // Steady-state descriptor count at a node the rest of the test only
  // talks to — must be unchanged at the end (no leak per command, per
  // view change, or per peer restart).
  const std::string fds_before = ctl(ctl_port(0), "fds");
  ASSERT_FALSE(fds_before.empty());
  ASSERT_NE(fds_before.rfind("err", 0), 0u) << fds_before;

  // A genuine crash: SIGKILL gives p1 no chance to flush or deregister.
  kill_hard(1);

  // The survivors form a new primary view and keep accepting commands.
  ASSERT_EQ(ctl(ctl_port(0), "put size large").rfind("ok", 0), 0u);
  const std::string after_kill = "color=red;shape=circle;size=large;";
  ASSERT_TRUE(await([&] { return dumps_equal({0, 2}, after_kill); }, 20000))
      << "survivors never converged after the kill";

  // Crash-restart: same config, fresh process, recovery from the WAL.
  spawn(1);
  ASSERT_TRUE(await(
      [&] {
        const std::string pong = ctl(ctl_port(1), "ping");
        return pong.find("recovered=1") != std::string::npos;
      },
      15000))
      << "restarted node never reported recovered=1";

  // Commands issued after the rejoin reach the restarted replica.
  ASSERT_EQ(ctl(ctl_port(0), "put rejoin yes").rfind("ok", 0), 0u);
  ASSERT_TRUE(await(
      [&] { return ctl(ctl_port(1), "get rejoin") == "yes"; }, 20000))
      << "restarted node never applied a post-rejoin command";

  // Survivors agree on the full history (the restarted node's volatile KV
  // only holds post-rejoin commands — durable TO cursors dedup the rest —
  // so it is checked via `get`, not full-dump equality).
  const std::string dump0 = ctl(ctl_port(0), "dump");
  const std::string dump2 = ctl(ctl_port(2), "dump");
  EXPECT_FALSE(dump0.empty());
  EXPECT_EQ(dump0, dump2);
  EXPECT_NE(dump0.find("rejoin=yes"), std::string::npos);

  EXPECT_EQ(ctl(ctl_port(0), "fds"), fds_before)
      << "node 0 leaked or dropped descriptors across the workload";

  // Graceful shutdown, then the offline audit over the merged traces.
  for (int i = 0; i < nodes_; ++i) {
    EXPECT_EQ(ctl(ctl_port(i), "quit"), "ok");
    EXPECT_TRUE(reap(i, 5000)) << "node " << i << " did not exit on quit";
  }
  const daemon::AuditReport report = daemon::audit_dir(dir_ + "/traces");
  EXPECT_TRUE(report.ok) << report.to_string();
  EXPECT_EQ(report.processes, 3u);
  EXPECT_EQ(report.incarnations, 4u);  // one restart
  EXPECT_GT(report.to_events, 0u);
}

// ----- dynamic sharded 4-node cluster ---------------------------------------

constexpr int kPool = 4;
constexpr std::uint32_t kShards = 4;

/// The smallest key with the given tag prefix that FNV-routes to `group`
/// under K=4 — the same hash the daemons' routers use.
std::string key_for_shard(std::uint32_t group, const std::string& tag) {
  const shard::ShardRouter router(kShards);
  for (int i = 0;; ++i) {
    std::string key = tag + std::to_string(i);
    if (router.shard_of(key) == group) return key;
  }
}

class DvsdDynamicTest : public DvsdClusterTest {
 protected:
  DvsdDynamicTest() : DvsdClusterTest(kPool) {}

  void write_config(int i) override {
    std::ofstream out(dir_ + "/p" + std::to_string(i) + ".conf");
    write_common(out, i);
    // Rotating-window provisioning over the 4-node pool:
    //   g1={0,1} g2={1,2} g3={2,3} g4={3,0}
    // The suspect timeout is raised well past the spawn window so the
    // first pool view every daemon acts on still contains all four hosts
    // (a daemon that comes up last must not get planned away spuriously).
    out << "shards " << kShards << "\n"
        << "replication 2\n"
        << "dynamic 1\n"
        << "heartbeat_ms 100\n"
        << "suspect_ms 1500\n"
        << "propose_ms 750\n";
    ASSERT_TRUE(out.good());
  }

  /// Issues a routed command starting at `node`, chasing `moved shard=<k>
  /// node=<x>` redirects. Returns the first non-redirect reply ("" on
  /// timeout or a redirect loop — callers retry via await()).
  std::string routed(int node, const std::string& command) {
    for (int hop = 0; hop < kPool; ++hop) {
      const std::string reply = ctl(ctl_port(node), command);
      if (reply.rfind("moved ", 0) != 0) return reply;
      const std::size_t pos = reply.rfind("node=");
      if (pos == std::string::npos) return "";
      node = std::atoi(reply.c_str() + pos + 5);
      if (node < 0 || node >= nodes_) return "";
    }
    return "";
  }

  /// The value of an unlabelled counter in a `stats` reply (~0 if absent);
  /// `name` is the exposition name (dots become underscores).
  [[nodiscard]] static std::uint64_t counter_in(const std::string& stats,
                                                const std::string& name) {
    const std::string line = "\n" + name + " ";
    const std::size_t pos = stats.find(line);
    if (pos == std::string::npos) return ~0ULL;
    return std::strtoull(stats.c_str() + pos + line.size(), nullptr, 10);
  }

  [[nodiscard]] std::uint64_t migrations_at(int i) {
    const std::string map = ctl(ctl_port(i), "shardmap");
    const std::size_t pos = map.find("migrations=");
    if (pos == std::string::npos) return ~0ULL;
    return std::strtoull(map.c_str() + pos + 11, nullptr, 10);
  }
};

TEST_F(DvsdDynamicTest, KilledHostsColumnsMigrateWithTheirState) {
  for (int i = 0; i < nodes_; ++i) spawn(i);
  for (int i = 0; i < nodes_; ++i) {
    ASSERT_TRUE(await([&] { return pingable(i); }, 15000))
        << "node " << i << " never answered ping";
  }

  // One key per shard; the redirect protocol routes each to a host.
  const std::string k1 = key_for_shard(1, "a");
  const std::string k2 = key_for_shard(2, "b");
  const std::string k3 = key_for_shard(3, "c");
  const std::string k4 = key_for_shard(4, "d");
  for (const auto& [key, value] :
       {std::pair{k1, std::string("v1")}, {k2, "v2"}, {k3, "v3"}, {k4, "v4"}}) {
    const std::string put = "put " + key + " " + value;
    ASSERT_TRUE(await(
        [&] { return routed(0, put).rfind("ok", 0) == 0; }, 20000))
        << "seed " << put << " never committed";
  }

  // Replication convergence at the replicas the kill will orphan: node 2
  // holds g3 (with node 3), node 0 holds g4 (with node 3).
  ASSERT_TRUE(await([&] { return ctl(ctl_port(2), "get " + k3) == "v3"; },
                    20000))
      << "g3 seed never replicated to node 2";
  ASSERT_TRUE(await([&] { return ctl(ctl_port(0), "get " + k4) == "v4"; },
                    20000))
      << "g4 seed never replicated to node 0";

  // The raised suspect timeout kept startup quiet: nothing migrated yet.
  for (int i = 0; i < nodes_; ++i) {
    EXPECT_EQ(migrations_at(i), 0ULL) << "spurious startup migration at "
                                      << i;
  }

  // Node 2 is the pure survivor of the coming kill: it donates g3's
  // snapshot and remaps ports but neither gains nor loses a column, so
  // its descriptor count must come out unchanged.
  const std::string fds_survivor = ctl(ctl_port(2), "fds");
  ASSERT_FALSE(fds_survivor.empty());
  ASSERT_NE(fds_survivor.rfind("err", 0), 0u) << fds_survivor;

  // Kill the host of g3-slot1 and g4-slot1 (replicas are provisioned in
  // ascending order). The pool view must evict it and every daemon must
  // converge on the same re-plan:
  //   g3: {2,3} -> {2,0}   (node 0 adopts slot1, donor node 2)
  //   g4: {0,3} -> {0,1}   (node 1 adopts slot1, donor node 0)
  kill_hard(3);
  const auto migrated = [&](int i) {
    const std::string map = ctl(ctl_port(i), "shardmap");
    return map.find("g3 2 0") != std::string::npos &&
           map.find("g4 0 1") != std::string::npos;
  };
  ASSERT_TRUE(await(
      [&] { return migrated(0) && migrated(1) && migrated(2); }, 45000))
      << "survivors never converged on the migrated shard map; maps:\n"
      << ctl(ctl_port(0), "shardmap") << ctl(ctl_port(1), "shardmap")
      << ctl(ctl_port(2), "shardmap");
  for (int i = 0; i < 3; ++i) {
    EXPECT_EQ(migrations_at(i), 2ULL) << "node " << i;
  }
  // The engine's three migration counters, read from one sharded `stats`
  // reply, mean what they mean in the simulator: the two moves applied to
  // this node's map, no slot left unfilled, no column lost.
  const std::string stats = ctl(ctl_port(2), "stats", 1000);
  EXPECT_EQ(counter_in(stats, "pool_migrations"), 2ULL) << stats;
  EXPECT_EQ(counter_in(stats, "pool_migration_stalls"), 0ULL) << stats;
  EXPECT_EQ(counter_in(stats, "pool_migration_lost"), 0ULL) << stats;

  // State transfer proof: the pre-kill values are readable AT THE JOINERS
  // — node 0 never hosted g3 and node 1 never hosted g4, so these can only
  // come from the transferred journal snapshots.
  ASSERT_TRUE(await([&] { return ctl(ctl_port(0), "get " + k3) == "v3"; },
                    20000))
      << "joiner node 0 never served g3's transferred state";
  ASSERT_TRUE(await([&] { return ctl(ctl_port(1), "get " + k4) == "v4"; },
                    20000))
      << "joiner node 1 never served g4's transferred state";

  // The migrated columns accept and replicate NEW writes under the
  // refreshed map (joiner and surviving replica agree).
  const std::string k3b = key_for_shard(3, "post");
  const std::string k4b = key_for_shard(4, "post");
  ASSERT_TRUE(await(
      [&] { return routed(1, "put " + k3b + " w3").rfind("ok", 0) == 0; },
      20000));
  ASSERT_TRUE(await(
      [&] { return routed(2, "put " + k4b + " w4").rfind("ok", 0) == 0; },
      20000));
  ASSERT_TRUE(await([&] { return ctl(ctl_port(2), "get " + k3b) == "w3"; },
                    20000))
      << "post-migration g3 write never reached the surviving replica";
  ASSERT_TRUE(await([&] { return ctl(ctl_port(0), "get " + k4b) == "w4"; },
                    20000))
      << "post-migration g4 write never reached the surviving replica";

  // Shards whose hosts all survived are untouched by the episode.
  EXPECT_EQ(routed(0, "get " + k1), "v1");
  EXPECT_EQ(routed(0, "get " + k2), "v2");

  EXPECT_EQ(ctl(ctl_port(2), "fds"), fds_survivor)
      << "survivor node 2 leaked descriptors across the migration";

  // Graceful shutdown of the survivors, then the partitioned audit: every
  // group — including the two with a torn dead-host file and a joiner
  // incarnation continuing the order — must replay cleanly.
  for (int i = 0; i < 3; ++i) {
    EXPECT_EQ(ctl(ctl_port(i), "quit"), "ok");
    EXPECT_TRUE(reap(i, 5000)) << "node " << i << " did not exit on quit";
  }
  const daemon::AuditReport report = daemon::audit_dir(dir_ + "/traces");
  EXPECT_TRUE(report.ok) << report.to_string();
  EXPECT_EQ(report.groups, 4u);
  // 8 initial column incarnations (4 shards x r=2) plus one per joiner.
  EXPECT_GE(report.incarnations, 10u);
  EXPECT_GT(report.to_events, 0u);
}

}  // namespace
}  // namespace dvs
