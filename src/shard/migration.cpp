#include "shard/migration.h"

#include <algorithm>

#include "common/serialize.h"
#include "tosys/process_stack.h"
#include "tosys/to_node.h"

namespace dvs::shard {
namespace {

using tosys::ProcessStack;

constexpr std::size_t kTransferChunk = 32 * 1024;  // under max_datagram
constexpr const char* kMapKey = "assignments";
constexpr const char* kLayers[] = {"vs", "dvs", "to"};

Bytes load_or_empty(const storage::StableStore& store, const std::string& key) {
  return store.load(key).value_or(Bytes{});
}

}  // namespace

MigrationEngine::MigrationEngine(MigrationPort& port,
                                 std::vector<ShardAssignment> initial,
                                 std::optional<ProcessId> self)
    : port_(port), self_(self), assignments_(std::move(initial)) {
  storage::StableStore* store = port_.map_store();
  const std::optional<Bytes> stored =
      store == nullptr ? std::nullopt : store->load(kMapKey);
  if (!stored.has_value() || stored->empty()) return;
  // assignments := varuint count | (varuint group, varuint r, process_id*r)*
  Reader r(*stored);
  assignments_.assign(r.varuint(), {});
  for (ShardAssignment& a : assignments_) {
    a.group = static_cast<std::uint32_t>(r.varuint());
    a.replicas.resize(r.varuint());
    for (ProcessId& p : a.replicas) p = r.process_id();
  }
  r.expect_exhausted();
}

void MigrationEngine::persist_map() {
  storage::StableStore* store = port_.map_store();
  if (store == nullptr) return;
  Writer w;
  w.varuint(assignments_.size());
  for (const ShardAssignment& a : assignments_) {
    w.varuint(a.group);
    w.varuint(a.replicas.size());
    for (const ProcessId p : a.replicas) w.process_id(p);
  }
  store->replace(kMapKey, w.take());
}

void MigrationEngine::on_pool_view(const ProcessSet& live) {
  live_ = live;
  if (migrating_) return;
  migrating_ = true;
  std::vector<ShardAssignment> planned = assignments_;
  for (const auto& [group, join] : joins_) {
    planned[group - 1].replicas[join.slot.value()] = join.to;
  }
  const ReprovisionPlan plan = plan_reprovision(planned, live);
  stalls_ += plan.stalled;
  lost_ += plan.lost;
  for (const GroupMigration& gm : plan.migrations) {
    for (const SlotMove& m : gm.moves) apply_move(gm.group, gm.source_slot, m);
  }
  if (!plan.migrations.empty()) persist_map();
  // A join whose donor departed would wait forever (no later plan re-homes
  // a slot whose joiner is planned in): re-point it at the lowest-id live
  // replica, or keep the old donor, which may restart with its journals.
  for (auto& [group, join] : joins_) {
    if (live.contains(join.donor)) continue;
    for (const ProcessId p : assignments_[group - 1].replicas) {
      if (live.contains(p) && (!live.contains(join.donor) || p < join.donor)) {
        join.donor = p;
      }
    }
  }
  migrating_ = false;
}

void MigrationEngine::apply_move(std::uint32_t group, ProcessId donor_slot,
                                 const SlotMove& m) {
  std::vector<ProcessId>& row = assignments_[group - 1].replicas;
  if (!self_.has_value() || m.to == *self_) {
    Join& join = joins_[group];
    join = Join{m.slot, m.to, row[donor_slot.value()], {}};
    join.assembler.expect(nonce_ + 1);  // earlier answers never complete it
    retry(group);
    return;
  }
  if (m.from == *self_) {
    port_.teardown_column(group);  // a view declared us departed
  } else if (std::find(row.begin(), row.end(), *self_) != row.end()) {
    port_.remap(group, m.slot, m.to);
  }
  row[m.slot.value()] = m.to;
  ++migrations_;
}

void MigrationEngine::retry(std::uint32_t group) {
  const auto it = joins_.find(group);
  if (it == joins_.end()) return;  // completed: stop retrying
  TransferFrame req;
  req.group = group;
  req.slot = it->second.slot.value();
  req.episode = ++nonce_;
  port_.send_transfer(it->second.to, it->second.donor, req);
  // An in-process port answers inline; a join still open retries.
  if (joins_.contains(group)) port_.schedule_retry(group);
}

void MigrationEngine::on_transfer(ProcessId from, ProcessId to,
                                  const TransferFrame& frame) {
  const bool known = frame.group >= 1 && frame.group <= assignments_.size();
  if (frame.kind == TransferKind::kRequest) {
    if (known) serve(from, to, frame);
    return;
  }
  // A chunk counts only for the join in flight, from its donor, for its
  // slot: nothing else may complete an assembly under that slot's keys.
  const auto it = known ? joins_.find(frame.group) : joins_.end();
  if (it == joins_.end() || it->second.to != to ||
      it->second.donor != from || it->second.slot.value() != frame.slot) {
    ++ignored_;
    return;
  }
  if (it->second.assembler.add(frame)) finish_join(frame.group);
}

void MigrationEngine::serve(ProcessId from, ProcessId to,
                            const TransferFrame& req) {
  // The donor ships ITS journals under the requested slot: the joiner
  // adopts the donor's prefix of the order (spec::EvHandoff — it may
  // re-deliver the departed replica's tail, never invent order).
  const std::vector<ProcessId>& row = assignments_[req.group - 1].replicas;
  const auto at = std::find(row.begin(), row.end(), to);
  storage::StableStore* store =
      at == row.end() ? nullptr : port_.column_store(req.group, false);
  if (store == nullptr) return;  // not hosted here (yet): the joiner retries
  const ProcessId slot(static_cast<std::uint32_t>(at - row.begin()));
  SlotSnapshot snap;
  snap.vs = load_or_empty(*store, ProcessStack::storage_key(slot, "vs"));
  snap.dvs = load_or_empty(*store, ProcessStack::storage_key(slot, "dvs"));
  snap.to = load_or_empty(*store, ProcessStack::storage_key(slot, "to"));
  // TO journals every cursor advance synchronously.
  snap.next = tosys::ToNode::recover_cursor(snap.to);
  for (const TransferFrame& chunk :
       chunk_snapshot(req.group, req.slot, req.episode, encode_snapshot(snap),
                      kTransferChunk)) {
    port_.send_transfer(to, from, chunk);
  }
}

void MigrationEngine::finish_join(std::uint32_t group) {
  Join& join = joins_.at(group);
  const ProcessId slot = join.slot;
  barrier();
  const Bytes encoded = join.assembler.take();
  barrier();
  SlotSnapshot snap;
  try {
    snap = decode_snapshot(encoded);
  } catch (const DecodeError&) {
    join.assembler.expect(nonce_ + 1);  // quarantine; the retry re-asks
    return;
  }
  // All three layers, so no stale journal of an earlier incarnation of
  // this slot leaks into the adopted state.
  storage::StableStore& store = *port_.column_store(group, true);
  const Bytes* staged[] = {&snap.vs, &snap.dvs, &snap.to};
  for (std::size_t i = 0; i < 3; ++i) {
    barrier();
    store.replace(transfer_stage_key(slot, kLayers[i]), *staged[i]);
  }
  Writer marker;
  marker.process_id(join.to);
  marker.varuint(snap.next);
  barrier();
  store.replace(transfer_stage_key(slot, "meta"), marker.take());
  roll_forward(store, group, slot, join.to, snap.next);
}

void MigrationEngine::roll_forward(storage::StableStore& store,
                                   std::uint32_t group, ProcessId slot,
                                   ProcessId to, std::uint64_t next) {
  for (const char* layer : kLayers) {
    barrier();
    store.replace(ProcessStack::storage_key(slot, layer),
                  load_or_empty(store, transfer_stage_key(slot, layer)));
  }
  barrier();
  joins_.erase(group);
  assignments_[group - 1].replicas[slot.value()] = to;
  persist_map();
  barrier();
  port_.install_column(group, slot, to, next);
  ++migrations_;
  barrier();  // clearing the marker is last: a crash above re-installs
  store.replace(transfer_stage_key(slot, "meta"), Bytes{});
}

void MigrationEngine::recover() {
  migrating_ = false;  // a crash mid-episode left the guard set
  joins_.clear();  // unmarked episodes never happened
  for (const ShardAssignment& a : assignments_) {
    storage::StableStore* store = port_.column_store(a.group, false);
    for (std::size_t i = 0; store != nullptr && i < a.replicas.size(); ++i) {
      const ProcessId slot(static_cast<std::uint32_t>(i));
      const Bytes meta =
          load_or_empty(*store, transfer_stage_key(slot, "meta"));
      if (meta.empty()) continue;
      Reader r(meta);
      const ProcessId to = r.process_id();
      const std::uint64_t next = r.varuint();
      r.expect_exhausted();
      roll_forward(*store, a.group, slot, to, next);
    }
  }
  if (live_.has_value()) on_pool_view(*live_);
}

void MigrationEngine::barrier() {
  const std::size_t i = barriers_++;
  if (crash_hook_) crash_hook_(i);
}

}  // namespace dvs::shard
