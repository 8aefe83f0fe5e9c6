// MigrationEngine: the one implementation of a column-slot migration
// episode (shard/reprovision.h). ShardCluster and dvsd only supply a
// MigrationPort. Per move an engine is the joiner, a survivor (remaps the
// slot) or the departed host (tears its column down); without a node id it
// plays every pool process, so every move is its join. The joiner's steps,
// each behind a crash barrier: assemble → decode → stage vs/dvs/to →
// commit marker {to, next} → install vs/dvs/to → map + durable map →
// column with HANDOFF(next) → clear marker. docs/SHARDING.md "Cutover
// atomicity" has the argument.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <optional>
#include <vector>

#include "common/types.h"
#include "common/view.h"
#include "shard/provision.h"
#include "shard/reprovision.h"
#include "storage/stable_store.h"

namespace dvs::shard {

/// What an engine needs from its deployment. The last four are only
/// called by an engine with a node id (or, map_store, when one is given).
class MigrationPort {
 public:
  virtual void send_transfer(ProcessId from, ProcessId to,
                             const TransferFrame& frame) = 0;
  /// `group`'s journal store here; with !create, null if there is none.
  virtual storage::StableStore* column_store(std::uint32_t group,
                                             bool create) = 0;
  /// Brings `slot` up on pool process `to` from the installed journals;
  /// the new incarnation reports HANDOFF(next).
  virtual void install_column(std::uint32_t group, ProcessId slot,
                              ProcessId to, std::uint64_t next) = 0;
  virtual void remap(std::uint32_t /*group*/, ProcessId /*slot*/,
                     ProcessId /*to*/) {}
  virtual void teardown_column(std::uint32_t /*group*/) {}
  /// Calls MigrationEngine::retry(group) later.
  virtual void schedule_retry(std::uint32_t /*group*/) {}
  /// Where the map survives a crash; null keeps it in memory only.
  virtual storage::StableStore* map_store() { return nullptr; }

 protected:
  ~MigrationPort() = default;
};

class MigrationEngine {
 public:
  /// Starts from the port's durable map when one is stored, else from
  /// `initial`. `self` is this engine's pool process (nullopt: all).
  MigrationEngine(MigrationPort& port, std::vector<ShardAssignment> initial,
                  std::optional<ProcessId> self);

  [[nodiscard]] const std::vector<ShardAssignment>& assignments() const {
    return assignments_;
  }

  void on_pool_view(const ProcessSet& live);
  void on_transfer(ProcessId from, ProcessId to, const TransferFrame& frame);
  /// (Re-)requests `group`'s snapshot while its join is in flight.
  void retry(std::uint32_t group);
  /// The recovery scan: rolls every marked episode forward, forgets every
  /// other join, re-plans from the latest pool view (if any).
  void recover();
  /// Called with a run-global ordinal before every episode step; throwing
  /// MigrationCrash stops the episode there.
  void set_crash_hook(std::function<void(std::size_t)> hook) {
    crash_hook_ = std::move(hook);
  }

  // Counters; docs/OBSERVABILITY.md defines each.
  [[nodiscard]] std::uint64_t migrations() const { return migrations_; }
  [[nodiscard]] std::uint64_t stalls() const { return stalls_; }
  [[nodiscard]] std::uint64_t lost() const { return lost_; }
  [[nodiscard]] std::uint64_t transfer_ignored() const { return ignored_; }

 private:
  struct Join {
    ProcessId slot;
    ProcessId to;
    ProcessId donor;
    SnapshotAssembler assembler;
  };

  void apply_move(std::uint32_t group, ProcessId donor_slot,
                  const SlotMove& m);
  void serve(ProcessId from, ProcessId to, const TransferFrame& req);
  void finish_join(std::uint32_t group);
  void roll_forward(storage::StableStore& store, std::uint32_t group,
                    ProcessId slot, ProcessId to, std::uint64_t next);
  void persist_map();
  void barrier();

  MigrationPort& port_;
  std::optional<ProcessId> self_;
  std::vector<ShardAssignment> assignments_;
  std::map<std::uint32_t, Join> joins_;  // at most one per group
  std::optional<ProcessSet> live_;
  bool migrating_ = false;  // a plan's own cutovers must not re-plan
  /// Request nonce, monotone over every join: each request gets a fresh
  /// episode so the assembler never mixes two donor answers.
  std::uint32_t nonce_ = 0;
  std::uint64_t migrations_ = 0;
  std::uint64_t stalls_ = 0;
  std::uint64_t lost_ = 0;
  std::uint64_t ignored_ = 0;
  std::size_t barriers_ = 0;
  std::function<void(std::size_t)> crash_hook_;
};

}  // namespace dvs::shard
