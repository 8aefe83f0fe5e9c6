#include "dvsys/dvs_node.h"

namespace dvs::dvsys {

DvsNode::DvsNode(ProcessId self, const View& v0, vsys::VsNode& vs,
                 DvsCallbacks callbacks, DvsNodeOptions options)
    : automaton_(self, v0,
                 impl::VsToDvsOptions{.printed_figure_mode = false,
                                      .weights = options.weights}),
      vs_(vs),
      callbacks_(std::move(callbacks)),
      options_(std::move(options)) {}

void DvsNode::gpsnd(const ClientMsg& m) {
  if (callbacks_.on_gpsnd) callbacks_.on_gpsnd(m);
  automaton_.on_dvs_gpsnd(m);
  ++stats_.msgs_sent;
  drain();
}

void DvsNode::register_view() {
  if (callbacks_.on_register) callbacks_.on_register();
  automaton_.on_dvs_register();
  drain();
}

vsys::VsCallbacks DvsNode::vs_callbacks() {
  vsys::VsCallbacks cb;
  cb.on_newview = [this](const View& v) {
    automaton_.on_vs_newview(v);
    drain();
  };
  cb.on_gprcv = [this](const Msg& m, ProcessId from) {
    automaton_.on_vs_gprcv(m, from);
    drain();
  };
  cb.on_safe = [this](const Msg& m, ProcessId from) {
    automaton_.on_vs_safe(m, from);
    drain();
  };
  return cb;
}

namespace {

// DVS journal record types. Replay is idempotent: act records max-merge,
// the rest set-insert — duplicates (possible when a crash lands between an
// append and the action it logs being re-derived) are harmless.
constexpr std::uint8_t kDvsSnapshot = 1;  // full DvsDurableState
constexpr std::uint8_t kDvsAct = 2;       // act := view
constexpr std::uint8_t kDvsAmb = 3;       // amb ∪= {view}
constexpr std::uint8_t kDvsAttempt = 4;   // attempted ∪= {view}
constexpr std::uint8_t kDvsReg = 5;       // reg ∪= {view id}

void encode_snapshot(Writer& w, const impl::DvsDurableState& s) {
  w.view(s.act);
  w.varuint(s.amb.size());
  for (const auto& [g, v] : s.amb) w.view(v);
  w.varuint(s.attempted.size());
  for (const auto& [g, v] : s.attempted) w.view(v);
  w.varuint(s.reg.size());
  for (const ViewId& g : s.reg) w.view_id(g);
}

impl::DvsDurableState decode_snapshot(Reader& r) {
  impl::DvsDurableState s;
  s.act = r.view();
  for (std::size_t i = 0, n = r.count(2); i < n; ++i) {
    View v = r.view();
    s.amb.emplace(v.id(), std::move(v));
  }
  for (std::size_t i = 0, n = r.count(2); i < n; ++i) {
    View v = r.view();
    s.attempted.emplace(v.id(), std::move(v));
  }
  for (std::size_t i = 0, n = r.count(2); i < n; ++i) {
    s.reg.insert(r.view_id());
  }
  return s;
}

}  // namespace

void DvsNode::snapshot_state() {
  const impl::DvsDurableState s = automaton_.durable_state();
  wal_->snapshot(kDvsSnapshot, [&](Writer& w) { encode_snapshot(w, s); });
}

void DvsNode::attach_storage(storage::StableStore& store,
                             const std::string& key) {
  wal_.emplace(store, key);
  snapshot_state();
  impl::DvsDurabilityHooks hooks;
  hooks.on_act = [this](const View& v) {
    wal_->append(kDvsAct, [&](Writer& w) { w.view(v); });
    if (wal_->snapshot_due()) snapshot_state();
  };
  hooks.on_amb_add = [this](const View& v) {
    wal_->append(kDvsAmb, [&](Writer& w) { w.view(v); });
    if (wal_->snapshot_due()) snapshot_state();
  };
  hooks.on_attempt = [this](const View& v) {
    wal_->append(kDvsAttempt, [&](Writer& w) { w.view(v); });
    if (wal_->snapshot_due()) snapshot_state();
  };
  hooks.on_register = [this](const ViewId& g) {
    wal_->append(kDvsReg, [&](Writer& w) { w.view_id(g); });
    if (wal_->snapshot_due()) snapshot_state();
  };
  automaton_.set_durability_hooks(std::move(hooks));
}

impl::DvsDurableState DvsNode::recover(const storage::StableStore& store,
                                       const std::string& key, ProcessId self,
                                       const View& v0) {
  // Empty-log fallback: the durable state a fresh node would start with
  // (mirrors the impl::VsToDvs constructor).
  impl::DvsDurableState s;
  s.act = v0;
  if (v0.contains(self)) {
    s.attempted.emplace(v0.id(), v0);
    s.reg.insert(v0.id());
  }
  for (const storage::WalRecord& rec : storage::read_wal(store, key).records) {
    try {
      Reader r(rec.payload);
      switch (rec.type) {
        case kDvsSnapshot:
          s = decode_snapshot(r);
          break;
        case kDvsAct: {
          View v = r.view();
          if (v.id() > s.act.id()) s.act = std::move(v);
          break;
        }
        case kDvsAmb: {
          View v = r.view();
          s.amb.emplace(v.id(), std::move(v));
          break;
        }
        case kDvsAttempt: {
          View v = r.view();
          s.attempted.emplace(v.id(), std::move(v));
          break;
        }
        case kDvsReg:
          s.reg.insert(r.view_id());
          break;
        default:
          break;  // unknown record type: ignore (forward compatibility)
      }
    } catch (const DecodeError&) {
      break;  // undecodable payload ends the usable prefix
    }
  }
  return s;
}

std::size_t DvsNode::bind_metrics(obs::MetricsRegistry& metrics) {
  const std::string label = "{process=\"" + self().to_string() + "\"}";
  return metrics.add_collector([this, &metrics, label] {
    metrics.counter("dvs.views_attempted" + label).set(stats_.views_attempted);
    metrics.counter("dvs.msgs_sent" + label).set(stats_.msgs_sent);
    metrics.counter("dvs.msgs_delivered" + label).set(stats_.msgs_delivered);
    metrics.counter("dvs.safes_delivered" + label)
        .set(stats_.safes_delivered);
    metrics.counter("dvs.garbage_collections" + label)
        .set(stats_.garbage_collections);
    metrics.gauge("dvs.in_primary" + label).set(in_primary() ? 1 : 0);
  });
}

void DvsNode::drain() {
  bool progressed = true;
  while (progressed) {
    progressed = false;
    // Forward queued messages into the VS layer.
    while (auto m = automaton_.poll_vs_gpsnd()) {
      vs_.gpsnd(*m);
      progressed = true;
    }
    // Accept the current VS view as primary when the checks pass.
    if (automaton_.can_dvs_newview()) {
      const View v = automaton_.apply_dvs_newview();
      ++stats_.views_attempted;
      if (callbacks_.on_newview) callbacks_.on_newview(v);
      progressed = true;
    }
    // Client-facing deliveries and safe indications.
    while (auto d = automaton_.poll_dvs_gprcv()) {
      ++stats_.msgs_delivered;
      if (callbacks_.on_gprcv) callbacks_.on_gprcv(d->first, d->second);
      progressed = true;
    }
    while (auto s = automaton_.poll_dvs_safe()) {
      ++stats_.safes_delivered;
      if (callbacks_.on_safe) callbacks_.on_safe(s->first, s->second);
      progressed = true;
    }
    // Garbage collection of settled views.
    if (!options_.auto_gc) continue;
    for (const View& v : automaton_.gc_candidates()) {
      automaton_.apply_garbage_collect(v);
      ++stats_.garbage_collections;
      progressed = true;
      break;  // candidates changed; re-enumerate
    }
  }
}

}  // namespace dvs::dvsys
