#include "dvsys/exchange_node.h"

#include <algorithm>
#include <utility>

namespace dvs::dvsys {

namespace {

// Exchange journal record types. Replay is idempotent: peer records
// insert-or-assign (last writer wins per ⟨peer, view⟩), sent/confirmed
// records overwrite the single optional slot.
constexpr std::uint8_t kExSnapshot = 1;   // full ExchangeDurableState
constexpr std::uint8_t kExPeer = 2;       // peer_blobs[p][view] := blob
constexpr std::uint8_t kExSent = 3;       // last_sent := record
constexpr std::uint8_t kExConfirmed = 4;  // confirmed := record

void encode_sent(Writer& w, const ExchangeDurableState::SentRecord& s) {
  w.view_id(s.view);
  w.process_set(s.members);
  w.str(s.blob);
}

ExchangeDurableState::SentRecord decode_sent(Reader& r) {
  ExchangeDurableState::SentRecord s;
  s.view = r.view_id();
  s.members = r.process_set();
  s.blob = r.str();
  return s;
}

void encode_snapshot(Writer& w, const ExchangeDurableState& s) {
  w.varuint(s.peer_blobs.size());
  for (const auto& [p, history] : s.peer_blobs) {
    w.process_id(p);
    w.varuint(history.size());
    for (const auto& [g, blob] : history) {
      w.view_id(g);
      w.str(blob);
    }
  }
  w.u8(s.last_sent.has_value() ? 1 : 0);
  if (s.last_sent.has_value()) encode_sent(w, *s.last_sent);
  w.u8(s.confirmed.has_value() ? 1 : 0);
  if (s.confirmed.has_value()) encode_sent(w, *s.confirmed);
}

ExchangeDurableState decode_snapshot(Reader& r) {
  ExchangeDurableState s;
  for (std::size_t i = 0, n = r.count(2); i < n; ++i) {
    auto& history = s.peer_blobs[r.process_id()];
    for (std::size_t j = 0, m = r.count(2); j < m; ++j) {
      ViewId g = r.view_id();
      history.insert_or_assign(g, r.str());
    }
  }
  if (r.u8() != 0) s.last_sent = decode_sent(r);
  if (r.u8() != 0) s.confirmed = decode_sent(r);
  return s;
}

}  // namespace

ExchangeDvsNode::ExchangeDvsNode(ProcessId self, ExchangeCallbacks callbacks)
    : self_(self), callbacks_(std::move(callbacks)) {}

DvsCallbacks ExchangeDvsNode::dvs_callbacks(DvsNode& dvs) {
  DvsCallbacks cb;
  cb.on_newview = [this, &dvs](const View& v) { on_newview(dvs, v); };
  cb.on_gprcv = [this, &dvs](const ClientMsg& m, ProcessId from) {
    on_gprcv(dvs, m, from);
  };
  cb.on_safe = [this](const ClientMsg& m, ProcessId from) {
    // State-blob safes complete the exchange stabilization (and confirm
    // delta bases); application safes are forwarded only in established
    // views (a safe for a deferred message cannot arrive before the message
    // itself: deliver-before-safe).
    if (const auto* st = std::get_if<StateMsg>(&m)) {
      on_safe_state(*st, from);
      return;
    }
    if (established_ && callbacks_.on_safe) callbacks_.on_safe(m, from);
  };
  return cb;
}

void ExchangeDvsNode::on_newview(DvsNode& dvs, const View& v) {
  view_ = v;
  established_ = false;
  blobs_.clear();
  deferred_.clear();
  ++stats_.views_seen;
  // Multicast this node's state blob for the exchange — as a delta against
  // the last safely-exchanged blob when every recipient is known to hold
  // that base (safe ⇒ receipt at every member of the base's view), as the
  // full blob otherwise.
  const std::string blob = callbacks_.make_state ? callbacks_.make_state()
                                                 : std::string{};
  StateMsg st{v.id(), blob};
  if (confirmed_.has_value() &&
      std::includes(confirmed_->members.begin(), confirmed_->members.end(),
                    v.set().begin(), v.set().end())) {
    const auto [bit, nit] = std::mismatch(
        confirmed_->blob.begin(), confirmed_->blob.end(), blob.begin(),
        blob.end());
    const auto lcp = static_cast<std::uint64_t>(bit - confirmed_->blob.begin());
    if (lcp > 0) {
      st.is_delta = true;
      st.base_view = confirmed_->view;
      st.keep_len = lcp;
      st.blob = blob.substr(lcp);
      ++stats_.delta_blobs_sent;
      stats_.delta_bytes_saved += lcp;
    }
  }
  last_sent_ = SentExchange{v.id(), v.set(), blob};
  if (wal_.has_value()) {
    wal_->append(kExSent, [&](Writer& w) { encode_sent(w, *last_sent_); });
    maybe_compact();
  }
  dvs.gpsnd(ClientMsg{st});
  ++stats_.blobs_sent;
}

void ExchangeDvsNode::on_safe_state(const StateMsg& st, ProcessId from) {
  if (from != self_ || !last_sent_.has_value() ||
      st.view != last_sent_->view) {
    return;
  }
  // My own exchange blob went safe in the view it was sent for: every
  // member of that view holds the full content, so it is a sound base for
  // future deltas to any subset membership.
  confirmed_ = last_sent_;
  if (wal_.has_value()) {
    wal_->append(kExConfirmed,
                 [&](Writer& w) { encode_sent(w, *confirmed_); });
    maybe_compact();
  }
}

std::optional<std::string> ExchangeDvsNode::reconstruct_and_store(
    ProcessId from, const StateMsg& st) {
  auto& history = peer_blobs_[from];
  if (!st.is_delta) {
    history.insert_or_assign(st.view, st.blob);
    log_peer_blob(from, st.view, st.blob);
    return st.blob;
  }
  ++stats_.delta_blobs_received;
  const auto base = history.find(st.base_view);
  if (base == history.end() || st.keep_len > base->second.size()) {
    ++stats_.delta_unreconstructable;
    return std::nullopt;
  }
  std::string full = base->second.substr(0, st.keep_len) + st.blob;
  // The sender never deltas below this base again (its confirmed base is
  // monotone), so older history for this peer is dead weight.
  history.erase(history.begin(), base);
  history.insert_or_assign(st.view, full);
  // The journal gets the *reconstructed* full blob, before the exchange
  // acts on it: recovery must never have to re-resolve a delta whose base
  // only existed in volatile memory.
  log_peer_blob(from, st.view, full);
  return full;
}

void ExchangeDvsNode::log_peer_blob(ProcessId from, const ViewId& view,
                                    const std::string& blob) {
  if (!wal_.has_value()) return;
  wal_->append(kExPeer, [&](Writer& w) {
    w.process_id(from);
    w.view_id(view);
    w.str(blob);
  });
  maybe_compact();
}

void ExchangeDvsNode::on_gprcv(DvsNode& dvs, const ClientMsg& m,
                               ProcessId from) {
  if (const auto* st = std::get_if<StateMsg>(&m)) {
    // Record/reconstruct even when the exchange has moved on: a stale
    // exchange's content can still be the base of a future delta (the
    // sender only needs its safe, not our establishment).
    std::optional<std::string> full = reconstruct_and_store(from, *st);
    if (!view_.has_value() || st->view != view_->id()) {
      // A blob for a view the exchange already moved past; count the drop
      // so chaos runs can see how often exchanges restart mid-flight.
      ++stats_.stale_blobs;
      return;
    }
    if (!full.has_value()) return;  // counted as delta_unreconstructable
    blobs_.emplace(from, std::move(*full));
    ++stats_.blobs_received;
    maybe_establish(dvs);
    return;
  }
  if (!established_) {
    deferred_.emplace_back(m, from);
    return;
  }
  if (callbacks_.on_gprcv) callbacks_.on_gprcv(m, from);
}

void ExchangeDvsNode::maybe_establish(DvsNode& dvs) {
  if (established_ || !view_.has_value()) return;
  for (ProcessId q : view_->set()) {
    if (!blobs_.contains(q)) return;
  }
  established_ = true;
  ++stats_.views_established;
  if (callbacks_.on_established) callbacks_.on_established(*view_, blobs_);
  // The exchange is complete: tell the service (DVS-REGISTER), replay
  // deliveries that raced the exchange, then flush buffered client sends.
  dvs.register_view();
  while (!deferred_.empty()) {
    auto [m, from] = std::move(deferred_.front());
    deferred_.pop_front();
    if (callbacks_.on_gprcv) callbacks_.on_gprcv(m, from);
  }
  while (!outbox_.empty()) {
    dvs.gpsnd(outbox_.front());
    outbox_.pop_front();
  }
}

std::size_t ExchangeDvsNode::bind_metrics(obs::MetricsRegistry& metrics) {
  const std::string label = "{process=\"" + self_.to_string() + "\"}";
  return metrics.add_collector([this, &metrics, label] {
    metrics.counter("exchange.views_seen" + label).set(stats_.views_seen);
    metrics.counter("exchange.views_established" + label)
        .set(stats_.views_established);
    metrics.counter("exchange.blobs_sent" + label).set(stats_.blobs_sent);
    metrics.counter("exchange.blobs_received" + label)
        .set(stats_.blobs_received);
    metrics.counter("exchange.stale_blobs" + label).set(stats_.stale_blobs);
    metrics.counter("exchange.delta_blobs_sent" + label)
        .set(stats_.delta_blobs_sent);
    metrics.counter("exchange.delta_bytes_saved" + label)
        .set(stats_.delta_bytes_saved);
    metrics.counter("exchange.delta_blobs_received" + label)
        .set(stats_.delta_blobs_received);
    metrics.counter("exchange.delta_unreconstructable" + label)
        .set(stats_.delta_unreconstructable);
  });
}

ExchangeDurableState ExchangeDvsNode::durable_state() const {
  ExchangeDurableState s;
  s.peer_blobs = peer_blobs_;
  s.last_sent = last_sent_;
  s.confirmed = confirmed_;
  return s;
}

void ExchangeDvsNode::snapshot_state() {
  const ExchangeDurableState s = durable_state();
  wal_->snapshot(kExSnapshot, [&](Writer& w) { encode_snapshot(w, s); });
}

void ExchangeDvsNode::maybe_compact() {
  if (wal_->snapshot_due()) snapshot_state();
}

void ExchangeDvsNode::attach_storage(storage::StableStore& store,
                                     const std::string& key) {
  wal_.emplace(store, key);
  snapshot_state();
}

void ExchangeDvsNode::restore(const ExchangeDurableState& recovered) {
  peer_blobs_ = recovered.peer_blobs;
  last_sent_ = recovered.last_sent;
  confirmed_ = recovered.confirmed;
  view_ = std::nullopt;
  established_ = false;
  blobs_.clear();
  deferred_.clear();
  outbox_.clear();
}

ExchangeDurableState ExchangeDvsNode::recover(
    const storage::StableStore& store, const std::string& key) {
  ExchangeDurableState s;
  for (const storage::WalRecord& rec : storage::read_wal(store, key).records) {
    try {
      Reader r(rec.payload);
      switch (rec.type) {
        case kExSnapshot:
          s = decode_snapshot(r);
          break;
        case kExPeer: {
          ProcessId p = r.process_id();
          ViewId g = r.view_id();
          s.peer_blobs[p].insert_or_assign(g, r.str());
          break;
        }
        case kExSent:
          s.last_sent = decode_sent(r);
          break;
        case kExConfirmed:
          s.confirmed = decode_sent(r);
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

void ExchangeDvsNode::gpsnd(DvsNode& dvs, const ClientMsg& m) {
  if (!established_) {
    outbox_.push_back(m);
    return;
  }
  dvs.gpsnd(m);
}

}  // namespace dvs::dvsys
