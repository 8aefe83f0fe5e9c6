// Assembly equivalence: tosys::Cluster and n daemon::NodeRuntimes build the
// same per-process column.
//
// One side is a Cluster; the other is n NodeRuntimes over a SimNetwork
// seeded exactly like the Cluster's own (Rng(seed)), sharing one
// MemStableStore. Both sides run the same script: client broadcasts with
// matching AppMsg uids, a pause window that forces view changes, and a
// mid-run crash-restart of one process — Cluster::restart on one side, a
// NodeRuntime rebuilt over the same store on the other. Every process must
// then show identical VS, DVS and TO spec-event sequences and identical
// delivery orders on both sides: any drift between the two assemblies
// (construction, callback wrapping, recovery sequence) shows up here.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <variant>
#include <vector>

#include "common/rng.h"
#include "daemon/runtime.h"
#include "net/sim_network.h"
#include "sim/simulator.h"
#include "storage/stable_store.h"
#include "tosys/cluster.h"

namespace dvs {
namespace {

constexpr std::size_t kN = 4;
constexpr std::size_t kInitial = 3;  // p3 joins late: the join path is covered
const ProcessId kVictim{1};

/// Per-process event sequences, one string per spec event.
struct ProcessLog {
  std::vector<std::string> vs, dvs, to;
  std::vector<std::uint64_t> delivered;  // BRCV uids in delivery order
};

template <typename MsgT>
ProcessId owner(const spec::GroupEvent<MsgT>& e) {
  struct Visitor {
    ProcessId operator()(const spec::EvGpsnd<MsgT>& ev) const { return ev.p; }
    ProcessId operator()(const spec::EvGprcv<MsgT>& ev) const {
      return ev.receiver;
    }
    ProcessId operator()(const spec::EvSafe<MsgT>& ev) const {
      return ev.receiver;
    }
    ProcessId operator()(const spec::EvNewview& ev) const { return ev.p; }
    ProcessId operator()(const spec::EvRegister& ev) const { return ev.p; }
  };
  return std::visit(Visitor{}, e);
}

ProcessId owner(const spec::ToEvent& e) {
  struct Visitor {
    ProcessId operator()(const spec::EvBcast& ev) const { return ev.p; }
    ProcessId operator()(const spec::EvBrcv& ev) const { return ev.receiver; }
    ProcessId operator()(const spec::EvCrash& ev) const { return ev.p; }
    ProcessId operator()(const spec::EvHandoff& ev) const { return ev.p; }
  };
  return std::visit(Visitor{}, e);
}

net::NetConfig lossy_net() {
  net::NetConfig cfg;
  cfg.drop_probability = 0.02;
  cfg.duplicate_probability = 0.1;
  cfg.reorder_probability = 0.1;
  return cfg;
}

/// The shared script: `bcast(p, command)` is a client broadcast at p,
/// `restart(p)` crash-restarts p, `pause`/`resume` drive the network's
/// fault surface and `run(d)` advances simulated time.
template <typename Side>
void drive(Side& side) {
  side.start();
  side.run(400 * sim::kMillisecond);
  for (std::size_t i = 0; i < 6; ++i) {
    side.bcast(ProcessId{static_cast<std::uint32_t>(i % kInitial)},
               "put k" + std::to_string(i) + " v" + std::to_string(i));
    side.run(7 * sim::kMillisecond);
  }
  side.run(500 * sim::kMillisecond);
  side.pause(ProcessId{2});
  side.bcast(ProcessId{0}, "put during pause");
  side.run(1200 * sim::kMillisecond);
  side.resume(ProcessId{2});
  side.run(800 * sim::kMillisecond);
  side.restart(kVictim);
  side.bcast(ProcessId{3}, "put after restart");
  side.run(1500 * sim::kMillisecond);
  side.bcast(kVictim, "put from the new incarnation");
  side.bcast(ProcessId{2}, "put k0 again");
  side.run(2 * sim::kSecond);
}

/// Side A: one tosys::Cluster. Broadcasts reuse side B's uids, in order.
struct ClusterSide {
  tosys::Cluster cluster;
  const std::vector<std::uint64_t>& uids;
  std::size_t next_uid = 0;

  ClusterSide(std::uint64_t seed, const std::vector<std::uint64_t>& u)
      : cluster(config(), seed), uids(u) {}

  static tosys::ClusterConfig config() {
    tosys::ClusterConfig cc;
    cc.n_processes = kN;
    cc.initial_members = kInitial;
    cc.net = lossy_net();
    cc.persistence = true;
    return cc;
  }

  void start() { cluster.start(); }
  void run(sim::Time d) { cluster.run_for(d); }
  void pause(ProcessId p) { cluster.net().pause(p); }
  void resume(ProcessId p) { cluster.net().resume(p); }
  void restart(ProcessId p) { cluster.restart(p); }
  void bcast(ProcessId p, const std::string& command) {
    ASSERT_LT(next_uid, uids.size());
    cluster.bcast(p, AppMsg{uids[next_uid++], p, command});
  }

  [[nodiscard]] std::vector<ProcessLog> logs() const {
    std::vector<ProcessLog> out(kN);
    for (const spec::VsEvent& e : cluster.vs_trace()) {
      out[owner(e).value()].vs.push_back(spec::to_string(e));
    }
    for (const spec::DvsEvent& e : cluster.dvs_trace()) {
      out[owner(e).value()].dvs.push_back(spec::to_string(e));
    }
    for (const spec::ToEvent& e : cluster.to_trace()) {
      out[owner(e).value()].to.push_back(spec::to_string(e));
    }
    for (const tosys::Delivery& d : cluster.deliveries()) {
      out[d.receiver.value()].delivered.push_back(d.msg.uid);
    }
    return out;
  }
};

/// Side B: n NodeRuntimes over a SimNetwork seeded like the Cluster's.
struct RuntimeSide {
  sim::Simulator sim;
  Rng rng;
  net::SimNetwork net;
  storage::MemStableStore store;
  std::vector<std::unique_ptr<daemon::NodeRuntime>> nodes;
  std::vector<ProcessLog> logs = std::vector<ProcessLog>(kN);  // harvested
  std::vector<std::uint64_t> uids;

  explicit RuntimeSide(std::uint64_t seed)
      : rng(seed), net(sim, rng, lossy_net(), make_universe(kN)) {
    for (std::size_t i = 0; i < kN; ++i) {
      nodes.push_back(build(ProcessId{static_cast<std::uint32_t>(i)}));
    }
  }

  std::unique_ptr<daemon::NodeRuntime> build(ProcessId p) {
    daemon::RuntimeOptions options;
    options.record_in_memory = true;
    return std::make_unique<daemon::NodeRuntime>(
        p, kN, kInitial, net, sim, options, &store, nullptr,
        [this] { return sim.now(); });
  }

  void start() {
    for (auto& rt : nodes) rt->start();
  }
  void run(sim::Time d) { sim.run_until(sim.now() + d); }
  void pause(ProcessId p) { net.pause(p); }
  void resume(ProcessId p) { net.resume(p); }
  void restart(ProcessId p) {
    harvest(p);
    nodes[p.value()].reset();
    nodes[p.value()] = build(p);
    ASSERT_TRUE(nodes[p.value()]->recovered());
    nodes[p.value()]->start();
  }
  void bcast(ProcessId p, const std::string& command) {
    uids.push_back(nodes[p.value()]->bcast_command(command));
  }

  /// Moves p's current incarnation's events into logs[p].
  void harvest(ProcessId p) {
    ProcessLog& log = logs[p.value()];
    for (const daemon::TracedEvent& t : nodes[p.value()]->events()) {
      if (const auto* e = std::get_if<spec::VsEvent>(&t.event)) {
        log.vs.push_back(spec::to_string(*e));
      } else if (const auto* d = std::get_if<spec::DvsEvent>(&t.event)) {
        log.dvs.push_back(spec::to_string(*d));
      } else {
        log.to.push_back(spec::to_string(std::get<spec::ToEvent>(t.event)));
      }
    }
    for (const daemon::RuntimeDelivery& d : nodes[p.value()]->deliveries()) {
      log.delivered.push_back(d.msg.uid);
    }
  }
};

void expect_same(const std::vector<std::string>& cluster,
                 const std::vector<std::string>& runtime, const char* layer,
                 std::size_t p, std::uint64_t seed) {
  ASSERT_EQ(cluster.size(), runtime.size())
      << layer << " event count differs at p" << p << ", seed " << seed;
  for (std::size_t i = 0; i < cluster.size(); ++i) {
    ASSERT_EQ(cluster[i], runtime[i])
        << layer << " event " << i << " differs at p" << p << ", seed "
        << seed;
  }
}

TEST(AssemblyEquivalenceTest, ClusterAndRuntimesEmitIdenticalEvents) {
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    RuntimeSide b(seed);
    drive(b);
    for (std::size_t i = 0; i < kN; ++i) {
      b.harvest(ProcessId{static_cast<std::uint32_t>(i)});
    }

    ClusterSide a(seed, b.uids);
    drive(a);
    ASSERT_EQ(a.cluster.restarts(), 1u);
    ASSERT_TRUE(a.cluster.oracle().ok())
        << a.cluster.oracle().violation()->to_string();
    const std::vector<ProcessLog> la = a.logs();

    std::size_t delivered = 0;
    for (std::size_t p = 0; p < kN; ++p) {
      expect_same(la[p].vs, b.logs[p].vs, "VS", p, seed);
      expect_same(la[p].dvs, b.logs[p].dvs, "DVS", p, seed);
      expect_same(la[p].to, b.logs[p].to, "TO", p, seed);
      EXPECT_EQ(la[p].delivered, b.logs[p].delivered)
          << "delivery order differs at p" << p << ", seed " << seed;
      delivered += la[p].delivered.size();
    }
    // The script is not vacuous: the restart is on record and commands
    // were delivered on both sides.
    EXPECT_EQ(std::count(la[kVictim.value()].to.begin(),
                         la[kVictim.value()].to.end(),
                         spec::to_string(spec::ToEvent{
                             spec::EvCrash{kVictim}})),
              1);
    EXPECT_GT(delivered, 20u) << "seed " << seed;
  }
}

}  // namespace
}  // namespace dvs
