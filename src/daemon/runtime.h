// NodeRuntime: one process's tosys::ProcessStack over an abstract
// Transport, with a replicated key-value state machine on top.
//
// The column itself — construction, callback wrapping, journals, the
// crash-restart recovery sequence — is the ProcessStack that tosys::Cluster
// also runs, one per process. What only NodeRuntime adds: the KV state
// machine (applied on delivery, replayed from the recovered TO order after
// a restart), spec events noted to an on-disk TraceSink (real deployments;
// the offline auditor replays them) and/or an in-memory log (in-process
// tests feed it to the same auditor without touching the filesystem), and
// clock-derived broadcast uids that stay unique across incarnations.
//
// Recovery is decided from the store: if it already holds journals for
// this process, the stack is built in recovery mode — the node starts with
// no view, rejoins through the membership protocol, and the stack records
// the spec::EvCrash that relaxes the TO sender-FIFO obligation for the
// lost incarnation.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "apps/state_machine.h"
#include "daemon/trace_io.h"
#include "tosys/process_stack.h"

namespace dvs::daemon {

/// The column's per-layer knobs (vs, gc/registration switches, TO
/// options, vote weights) plus the runtime's own.
struct RuntimeOptions : tosys::StackOptions {
  /// Keep every spec event in memory (events()); in-process tests audit
  /// these directly. dvsd turns it off — its events go to the TraceSink.
  bool record_in_memory = false;
};

/// One BRCV delivery applied to the local state machine.
struct RuntimeDelivery {
  ProcessId origin{};
  AppMsg msg;
  std::uint64_t ts_us = 0;
};

class NodeRuntime : private tosys::StackObserver {
 public:
  /// `store` (nullable) enables persistence; `sink` (nullable) enables
  /// on-disk traces; `now_us` supplies event timestamps (CLOCK_REALTIME in
  /// dvsd, sim time in tests). Both pointers must outlive the runtime.
  NodeRuntime(ProcessId self, std::size_t n, std::size_t initial_members,
              net::Transport& net, sim::Simulator& sim, RuntimeOptions options,
              storage::StableStore* store, TraceSink* sink,
              std::function<std::uint64_t()> now_us);

  /// Attaches the net handler and arms the timers (VsNode::start).
  void start() { stack_->start(); }

  /// True when the constructor found prior journals and rebuilt from them
  /// (this run is a crash-restart incarnation).
  [[nodiscard]] bool recovered() const { return recovered_; }

  /// Client broadcast of one state-machine command; returns the uid the
  /// command travels under (unique per origin across incarnations).
  std::uint64_t bcast_command(const std::string& command);

  [[nodiscard]] ProcessId self() const { return self_; }
  [[nodiscard]] const ProcessSet& universe() const { return universe_; }
  [[nodiscard]] const View& v0() const { return v0_; }
  [[nodiscard]] vsys::VsNode& vs() { return stack_->vs(); }
  [[nodiscard]] dvsys::DvsNode& dvs() { return stack_->dvs(); }
  [[nodiscard]] tosys::ToNode& to() { return stack_->to(); }
  [[nodiscard]] const apps::KvStateMachine& kv() const { return kv_; }

  [[nodiscard]] const std::vector<RuntimeDelivery>& deliveries() const {
    return deliveries_;
  }
  /// The in-memory spec-event log (empty unless record_in_memory).
  [[nodiscard]] const std::vector<TracedEvent>& events() const {
    return events_;
  }

  void set_delivery_hook(std::function<void(const RuntimeDelivery&)> hook) {
    delivery_hook_ = std::move(hook);
  }

  /// Records spec::EvHandoff: this incarnation adopted a migration donor's
  /// delivery cursor (shard re-provisioning). Call once, right after
  /// constructing a runtime over transferred journals — the constructor's
  /// EvCrash must precede it in the trace.
  void note_handoff(std::uint64_t next) {
    on_event(self_, spec::ToEvent{spec::EvHandoff{self_, next}});
  }

  /// vs/dvs/to counters plus app.applied.
  void bind_metrics(obs::MetricsRegistry& metrics);

 private:
  // StackObserver: spec events are noted to the sink and/or memory; BRCVs
  // are applied to the state machine.
  void on_event(ProcessId p, const spec::VsEvent& e) override;
  void on_event(ProcessId p, const spec::DvsEvent& e) override;
  void on_event(ProcessId p, const spec::ToEvent& e) override;
  void on_deliver(ProcessId p, ProcessId origin, const AppMsg& a) override;
  template <typename Event>
  void note(std::uint8_t layer, const Event& event);

  ProcessId self_;
  ProcessSet universe_;
  View v0_;
  RuntimeOptions options_;
  TraceSink* sink_;
  std::function<std::uint64_t()> now_us_;
  bool recovered_ = false;

  apps::KvStateMachine kv_;
  std::vector<RuntimeDelivery> deliveries_;
  std::vector<TracedEvent> events_;
  std::function<void(const RuntimeDelivery&)> delivery_hook_;
  std::uint64_t uid_salt_ = 0;
  // Last: built once everything it reports into exists, destroyed first.
  std::unique_ptr<tosys::ProcessStack> stack_;
};

}  // namespace dvs::daemon
