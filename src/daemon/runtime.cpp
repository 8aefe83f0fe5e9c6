#include "daemon/runtime.h"

namespace dvs::daemon {

NodeRuntime::NodeRuntime(ProcessId self, std::size_t n,
                         std::size_t initial_members, net::Transport& net,
                         sim::Simulator& sim, RuntimeOptions options,
                         storage::StableStore* store, TraceSink* sink,
                         std::function<std::uint64_t()> now_us)
    : self_(self),
      universe_(make_universe(n)),
      v0_{ViewId::initial(),
          make_universe(initial_members == 0 ? n : initial_members)},
      options_(std::move(options)),
      sink_(sink),
      now_us_(std::move(now_us)) {
  // A prior incarnation leaves journals behind; their presence IS the
  // crash-restart signal (the daemon has no other memory of having run).
  const auto journaled = [&](const char* layer) {
    return store->load(tosys::ProcessStack::storage_key(self_, layer))
        .has_value();
  };
  recovered_ = store != nullptr &&
               (journaled("vs") || journaled("dvs") || journaled("to"));
  const bool observed = sink_ != nullptr || options_.record_in_memory;
  tosys::StackObserver& observer = *this;
  stack_ = std::make_unique<tosys::ProcessStack>(
      self_, v0_, net, sim, options_, store, recovered_, observer,
      observed ? tosys::StackEvents::kAll : tosys::StackEvents::kNone);
  // On recovery, rebuild the KV state machine by replaying the recovered TO
  // order prefix up to nextreport: the restored delivery cursor suppresses
  // re-delivery of everything already reported. deliveries_/hooks see only
  // live deliveries — replay is application state reconstruction, not a
  // re-observation of the protocol.
  if (recovered_) {
    kv_ = apps::replay_kv(stack_->to().automaton());
  }
}

template <typename Event>
void NodeRuntime::note(std::uint8_t layer, const Event& event) {
  const std::uint64_t ts = now_us_();
  if (sink_ != nullptr) sink_->record(ts, event);
  if (options_.record_in_memory) events_.push_back({ts, layer, event});
}

void NodeRuntime::on_event(ProcessId, const spec::VsEvent& e) {
  note(kTraceVs, e);
}

void NodeRuntime::on_event(ProcessId, const spec::DvsEvent& e) {
  note(kTraceDvs, e);
}

void NodeRuntime::on_event(ProcessId, const spec::ToEvent& e) {
  note(kTraceTo, e);
}

void NodeRuntime::on_deliver(ProcessId, ProcessId origin, const AppMsg& a) {
  const RuntimeDelivery d{origin, a, now_us_()};
  deliveries_.push_back(d);
  kv_.apply(a.payload);
  if (delivery_hook_) delivery_hook_(d);
}

std::uint64_t NodeRuntime::bcast_command(const std::string& command) {
  // (uid, origin) must be unique across incarnations — a restart loses the
  // counter, so fold the clock in: restarts are many microseconds apart,
  // and the low bits disambiguate bursts within one microsecond.
  const std::uint64_t uid = (now_us_() << 12) | (uid_salt_++ & 0xFFF);
  stack_->bcast(AppMsg{uid, self_, command});
  return uid;
}

void NodeRuntime::bind_metrics(obs::MetricsRegistry& metrics) {
  (void)stack_->bind_metrics(metrics);
  metrics.add_collector([this, &metrics] {
    metrics.counter("app.applied").set(kv_.applied());
    metrics.counter("app.deliveries").set(deliveries_.size());
  });
}

}  // namespace dvs::daemon
