// A little VS-only cluster over the simulated network, with every VS event
// recorded for the VS acceptor — shared by the vsys protocol tests.
#pragma once

#include <map>
#include <memory>
#include <optional>
#include <vector>

#include "common/rng.h"
#include "net/sim_network.h"
#include "spec/acceptors.h"
#include "vsys/vs_node.h"

namespace dvs::vsys {

inline Msg opaque(std::uint64_t uid, unsigned sender) {
  return Msg{OpaqueMsg{uid, ProcessId{sender}}};
}

inline VsConfig mode_config(StabilityMode mode) {
  VsConfig cfg;
  cfg.stability = mode;
  return cfg;
}

class VsHarness {
 public:
  /// `n` processes, the first `members` of which form the initial view
  /// (the rest start with no view and must join).
  VsHarness(std::size_t n, std::size_t members, std::uint64_t seed,
            VsConfig config = {})
      : rng_(seed),
        universe_(make_universe(n)),
        v0_{ViewId::initial(), make_universe(members)},
        net_(sim_, rng_, net::NetConfig{}, universe_),
        config_(config) {
    for (ProcessId p : universe_) {
      VsCallbacks cb;
      cb.on_newview = [this, p](const View& v) {
        trace_.push_back(spec::EvNewview{p, v});
        views_[p].push_back(v);
      };
      cb.on_gprcv = [this, p](const Msg& m, ProcessId from) {
        trace_.push_back(spec::EvGprcv<Msg>{from, p, m});
        delivered_[p].push_back(m);
      };
      cb.on_safe = [this, p](const Msg& m, ProcessId from) {
        trace_.push_back(spec::EvSafe<Msg>{from, p, m});
        safes_[p].push_back(m);
      };
      cb.on_gpsnd = [this, p](const Msg& m) {
        trace_.push_back(spec::EvGpsnd<Msg>{p, m});
      };
      nodes_[p] = std::make_unique<VsNode>(
          p, v0_.contains(p) ? std::optional<View>{v0_} : std::nullopt, net_,
          sim_, config_, std::move(cb));
    }
  }
  /// Every one of the `n` processes in the initial view.
  VsHarness(std::size_t n, std::uint64_t seed, VsConfig config)
      : VsHarness(n, n, seed, config) {}

  void start() {
    for (auto& [p, node] : nodes_) node->start();
  }

  void run_for(sim::Time d) { sim_.run_until(sim_.now() + d); }
  [[nodiscard]] sim::Time now() const { return sim_.now(); }

  VsNode& node(unsigned p) { return *nodes_.at(ProcessId{p}); }
  net::SimNetwork& net() { return net_; }
  [[nodiscard]] const VsConfig& config() const { return config_; }

  spec::AcceptResult check_trace() {
    spec::VsAcceptor acceptor(universe_, v0_);
    return acceptor.feed_all(trace_);
  }

  std::map<ProcessId, std::vector<Msg>> delivered_;
  std::map<ProcessId, std::vector<Msg>> safes_;
  std::map<ProcessId, std::vector<View>> views_;

 private:
  Rng rng_;
  ProcessSet universe_;
  View v0_;
  sim::Simulator sim_;
  net::SimNetwork net_;
  VsConfig config_;
  std::map<ProcessId, std::unique_ptr<VsNode>> nodes_;
  std::vector<spec::VsEvent> trace_;
};

}  // namespace dvs::vsys
