#include "tosys/process_stack.h"

#include <optional>
#include <stdexcept>
#include <utility>

namespace dvs::tosys {

std::string ProcessStack::storage_key(ProcessId p, const char* layer) {
  return p.to_string() + "/" + layer;
}

ProcessStack::ProcessStack(ProcessId self, const View& v0,
                           net::Transport& net, sim::Simulator& sim,
                           const StackOptions& options,
                           storage::StableStore* store, bool recover,
                           StackObserver& observer, StackEvents events)
    : self_(self), observer_(observer), events_(events) {
  if (recover && store == nullptr) {
    throw std::logic_error("ProcessStack: recovery requires a stable store");
  }
  // Recovery reads every layer's durable state before anything is rebuilt.
  struct Recovered {
    std::uint64_t epoch;
    impl::DvsDurableState dvs;
    toimpl::ToDurableState to;
  };
  std::optional<Recovered> r;
  if (recover) {
    r = Recovered{
        vsys::VsNode::recover_epoch(*store, storage_key(self, "vs")),
        dvsys::DvsNode::recover(*store, storage_key(self, "dvs"), self, v0),
        ToNode::recover(*store, storage_key(self, "to"))};
  }
  // Build bottom-up. A recovered incarnation has no view: it rejoins
  // through the membership protocol but remembers everything it persisted.
  vs_ = std::make_unique<vsys::VsNode>(
      self,
      !r && v0.contains(self) ? std::optional<View>{v0} : std::nullopt, net,
      sim, options.vs, vsys::VsCallbacks{});
  dvs_ = std::make_unique<dvsys::DvsNode>(
      self, v0, *vs_, dvsys::DvsCallbacks{},
      dvsys::DvsNodeOptions{.auto_gc = options.gc_enabled,
                            .weights = options.weights});
  to_ = std::make_unique<ToNode>(
      self, v0, *dvs_, ToCallbacks{},
      ToNodeOptions{.auto_register = options.registration_enabled,
                    .automaton = options.to_options});
  if (r) {
    vs_->restore_epoch(r->epoch);
    dvs_->restore(r->dvs);
    to_->restore(r->to);
    // Broadcasts the lost incarnation accepted but had not yet ordered
    // leave the TO sender-FIFO obligation (spec::EvCrash); reported before
    // any event of this incarnation.
    observer_.on_event(self, spec::ToEvent{spec::EvCrash{self}});
  }
  wire();
  if (store != nullptr) {
    // The baseline snapshots double as compaction of whatever a previous
    // incarnation left behind.
    vs_->attach_storage(*store, storage_key(self, "vs"));
    dvs_->attach_storage(*store, storage_key(self, "dvs"));
    to_->attach_storage(*store, storage_key(self, "to"));
  }
}

namespace {

/// Wraps a VS or DVS layer's callbacks (same member names, MsgT = Msg or
/// ClientMsg) so each observed action is reported before it is forwarded.
template <typename MsgT, typename Callbacks>
void report_group(Callbacks& cb, StackObserver& obs, ProcessId p,
                  StackEvents events) {
  using Event = spec::GroupEvent<MsgT>;
  if (events == StackEvents::kNone) return;
  cb.on_newview = [&obs, p, fwd = std::move(cb.on_newview)](const View& v) {
    obs.on_event(p, Event{spec::EvNewview{p, v}});
    if (fwd) fwd(v);
  };
  if (events != StackEvents::kAll) return;
  cb.on_gprcv = [&obs, p, fwd = std::move(cb.on_gprcv)](const MsgT& m,
                                                        ProcessId from) {
    obs.on_event(p, Event{spec::EvGprcv<MsgT>{from, p, m}});
    if (fwd) fwd(m, from);
  };
  cb.on_safe = [&obs, p, fwd = std::move(cb.on_safe)](const MsgT& m,
                                                      ProcessId from) {
    obs.on_event(p, Event{spec::EvSafe<MsgT>{from, p, m}});
    if (fwd) fwd(m, from);
  };
  cb.on_gpsnd = [&obs, p](const MsgT& m) {
    obs.on_event(p, Event{spec::EvGpsnd<MsgT>{p, m}});
  };
}

}  // namespace

void ProcessStack::wire() {
  const ProcessId p = self_;
  StackObserver& obs = observer_;
  const bool views = events_ != StackEvents::kNone;

  // TO on top of DVS.
  ToCallbacks to_cb;
  to_cb.on_brcv = [&obs, p, views](const AppMsg& a, ProcessId origin) {
    if (views) obs.on_event(p, spec::ToEvent{spec::EvBrcv{origin, p, a}});
    obs.on_deliver(p, origin, a);
  };
  to_->set_callbacks(std::move(to_cb));

  // DVS on top of VS, forwarding into the TO automaton.
  dvsys::DvsCallbacks dvs_cb = to_->dvs_callbacks();
  report_group<ClientMsg>(dvs_cb, obs, p, events_);
  if (views) {
    // Fires before the automaton consumes the event, so client-cur still
    // names the view being registered.
    dvs_cb.on_register = [&obs, p] {
      obs.on_event(p, spec::DvsEvent{spec::EvRegister{p}});
    };
  }
  dvs_->set_callbacks(std::move(dvs_cb));

  // VS, forwarding into the DVS automaton.
  vsys::VsCallbacks vs_cb = dvs_->vs_callbacks();
  report_group<Msg>(vs_cb, obs, p, events_);
  vs_->set_callbacks(std::move(vs_cb));
}

void ProcessStack::bcast(const AppMsg& a) {
  if (events_ != StackEvents::kNone) {
    observer_.on_event(self_, spec::ToEvent{spec::EvBcast{self_, a}});
  }
  to_->bcast(a);
}

std::vector<std::size_t> ProcessStack::bind_metrics(
    obs::MetricsRegistry& metrics) {
  return {vs_->bind_metrics(metrics), dvs_->bind_metrics(metrics),
          to_->bind_metrics(metrics)};
}

}  // namespace dvs::tosys
