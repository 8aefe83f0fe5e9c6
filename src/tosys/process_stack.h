// ProcessStack: one process's VS→DVS→TO column, the paper's composition
// (TO on DVS, DVS on VS) written once.
//
// Both deployments run exactly this column per process: tosys::Cluster
// holds n of them over its simulated network, daemon::NodeRuntime holds one
// over any Transport (UDP in dvsd, a shared SimNetwork in the differential
// tests). The stack owns:
//   * the bottom-up construction (VsNode, then DvsNode on it, then ToNode
//     on that);
//   * the one callback-wrapping scheme, which reports every VS/DVS/TO spec
//     event to a single StackObserver;
//   * the journals (vs/dvs/to keys of storage_key in the stable store);
//   * the crash-restart recovery sequence: VsNode::recover_epoch →
//     DvsNode::recover → ToNode::recover → rebuild → restore → report
//     spec::EvCrash. The recovered incarnation has no view and rejoins
//     through the membership protocol, remembering only what it journaled.
//
// Recovery is an explicit constructor input: the owner knows whether this
// is a restart (Cluster::restart) or infers it from the journals it finds
// (NodeRuntime, whose process has no other memory of having run).
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/types.h"
#include "common/view.h"
#include "dvsys/dvs_node.h"
#include "net/transport.h"
#include "obs/metrics.h"
#include "sim/simulator.h"
#include "spec/events.h"
#include "storage/stable_store.h"
#include "tosys/to_node.h"
#include "vsys/vs_node.h"

namespace dvs::tosys {

/// Per-layer knobs of one column.
struct StackOptions {
  vsys::VsConfig vs;
  /// Ablation knobs (see bench_ablation): the paper's garbage-collection
  /// and registration mechanisms can be switched off to measure their
  /// contribution to adaptivity.
  bool gc_enabled = true;
  bool registration_enabled = true;
  /// TO-automaton behaviour switches, e.g. printed_figure_mode to
  /// re-inject the paper's Figure 5 errata (harness self-validation: the
  /// oracle must reject such runs).
  toimpl::DvsToToOptions to_options;
  /// Vote weights for weighted dynamic voting (empty = the paper's
  /// unweighted rule).
  WeightMap weights;
};

/// Which spec events a stack reports. Wrappers are installed only for what
/// is observed, so an unobserved stack runs the bare layer callbacks.
enum class StackEvents {
  kNone,   // CRASH only (deliveries always reach on_deliver)
  kViews,  // + VS/DVS NEWVIEW, REGISTER, BCAST and BRCV
  kAll,    // + every VS/DVS GPSND, GPRCV and SAFE
};

/// Receives a stack's spec events, each tagged with its process.
class StackObserver {
 public:
  virtual void on_event(ProcessId p, const spec::VsEvent& e) = 0;
  virtual void on_event(ProcessId p, const spec::DvsEvent& e) = 0;
  virtual void on_event(ProcessId p, const spec::ToEvent& e) = 0;
  /// A BRCV handed to the application, right after its spec event.
  virtual void on_deliver(ProcessId p, ProcessId origin, const AppMsg& a) = 0;

 protected:
  ~StackObserver() = default;
};

class ProcessStack {
 public:
  /// Builds `self`'s column over `net`/`sim`. `store` (nullable) enables
  /// the journals; with `recover` the column is rebuilt from them (requires
  /// a store) and starts with no view, otherwise it starts in v0 when it is
  /// a member. `observer` must outlive the stack.
  ProcessStack(ProcessId self, const View& v0, net::Transport& net,
               sim::Simulator& sim, const StackOptions& options,
               storage::StableStore* store, bool recover,
               StackObserver& observer, StackEvents events);

  /// Attaches the net handler and arms the timers (VsNode::start).
  void start() { vs_->start(); }

  /// Client broadcast (TO BCAST), reported to the observer first.
  void bcast(const AppMsg& a);

  /// Binds every layer's metrics; returns the collector ids so an owner
  /// that rebuilds the stack can drop the stale collectors.
  std::vector<std::size_t> bind_metrics(obs::MetricsRegistry& metrics);

  [[nodiscard]] vsys::VsNode& vs() { return *vs_; }
  [[nodiscard]] dvsys::DvsNode& dvs() { return *dvs_; }
  [[nodiscard]] ToNode& to() { return *to_; }

  /// Stable-store key of p's `layer` journal ("vs" | "dvs" | "to"). Shard
  /// re-provisioning copies journals between slots under these keys.
  [[nodiscard]] static std::string storage_key(ProcessId p, const char* layer);

 private:
  void wire();

  ProcessId self_;
  StackObserver& observer_;
  StackEvents events_;
  // Declared bottom-up so destruction runs top-down (TO references DVS
  // references VS).
  std::unique_ptr<vsys::VsNode> vs_;
  std::unique_ptr<dvsys::DvsNode> dvs_;
  std::unique_ptr<ToNode> to_;
};

}  // namespace dvs::tosys
