// Crash-point sweep of shard::MigrationEngine over a dvsd-style port.
//
// Three engines — pool processes 0, 1, 2, each with its own MemStableStore
// as its disk — share column g1 = {0, 1}. Process 0 departs, so the view
// {1, 2} plans one move: slot 0 onto process 2, donor process 1. Unlike
// the in-process ShardCluster (which answers a request inline), the fake
// port here behaves like dvsd's GroupMux: every 0x48 frame is encoded,
// queued, and delivered late, duplicated and out of order, and unanswered
// requests retry. The donor's journals come from a real two-process column
// run with enough traffic that its answer spans several chunks.
//
// The joiner is crashed at every barrier ordinal of its episode. A crash
// loses the joiner's memory (engine, pending join, timers) but nothing on
// its disk; the next incarnation runs the recovery scan over the same
// store. Right after recovery exactly one of two things holds:
//   * the joiner hosts the slot, with journals byte-equal to the donor's
//     snapshot (the commit marker was durable: rolled forward), or
//   * its durable row is the pre-join row (rolled back), and the next view
//     re-plans the move.
// Either way the commit marker ends cleared, no column is ever installed
// over partial journals, and after the later view the joiner hosts the
// slot with the donor's journals.
#include <gtest/gtest.h>

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/rng.h"
#include "shard/migration.h"
#include "storage/stable_store.h"
#include "tosys/cluster.h"
#include "tosys/process_stack.h"

namespace dvs {
namespace {

using shard::MigrationEngine;
using tosys::ProcessStack;

const char* const kLayers[] = {"vs", "dvs", "to"};

/// What the donor serves: its slot's three journals and delivery cursor.
struct DonorState {
  Bytes journal[3];
  std::uint64_t next = 0;
};

/// A real column's journals after enough traffic that the encoded snapshot
/// exceeds one 32 KiB transfer chunk.
DonorState run_donor_column() {
  tosys::ClusterConfig cfg;
  cfg.n_processes = 2;
  cfg.persistence = true;
  tosys::Cluster column(cfg, /*seed=*/5);
  column.start();
  column.run_for(300 * sim::kMillisecond);
  for (std::uint64_t uid = 1; uid <= 200; ++uid) {
    const ProcessId origin(static_cast<std::uint32_t>(uid % 2));
    column.bcast(origin, AppMsg{uid, origin, std::string(200, 'x')});
  }
  column.run_for(2 * sim::kSecond);
  DonorState d;
  for (int i = 0; i < 3; ++i) {
    d.journal[i] = column.store()
                       ->load(ProcessStack::storage_key(ProcessId(1),
                                                        kLayers[i]))
                       .value_or(Bytes{});
  }
  d.next = column.to_node(ProcessId(1)).automaton().nextreport();
  return d;
}

struct Frame {
  ProcessId from;
  ProcessId to;
  Bytes bytes;
};

/// One pool process's side of the port: its disk and what the engine asked
/// of it. The disk and the records survive the process's crashes.
class FakePort final : public shard::MigrationPort {
 public:
  FakePort(std::vector<Frame>& wire, const DonorState& donor)
      : wire_(wire), donor_(donor) {}

  void send_transfer(ProcessId from, ProcessId to,
                     const shard::TransferFrame& frame) override {
    wire_.push_back(Frame{from, to, shard::encode_transfer(frame)});
  }
  storage::StableStore* column_store(std::uint32_t, bool) override {
    return &store;
  }
  void remap(std::uint32_t, ProcessId, ProcessId) override { ++remaps; }
  void install_column(std::uint32_t group, ProcessId slot, ProcessId to,
                      std::uint64_t next) override {
    // Never over partial journals: every layer is the donor's, in full.
    EXPECT_EQ(group, 1u);
    EXPECT_EQ(slot, ProcessId(0));
    EXPECT_EQ(to, ProcessId(2));
    EXPECT_TRUE(holds_donor_journals()) << "column installed over partial "
                                           "journals";
    EXPECT_EQ(next, donor_.next);
    ++installs;
  }
  void teardown_column(std::uint32_t) override { ++teardowns; }
  void schedule_retry(std::uint32_t group) override {
    retries.push_back(group);
  }
  storage::StableStore* map_store() override { return &store; }

  /// Slot 0's live journals are byte-equal to the donor's snapshot.
  [[nodiscard]] bool holds_donor_journals() const {
    for (int i = 0; i < 3; ++i) {
      const std::optional<Bytes> live =
          store.load(ProcessStack::storage_key(ProcessId(0), kLayers[i]));
      if (!live.has_value() || *live != donor_.journal[i]) return false;
    }
    return true;
  }
  [[nodiscard]] bool marker_cleared() const {
    const std::optional<Bytes> meta =
        store.load(shard::transfer_stage_key(ProcessId(0), "meta"));
    return !meta.has_value() || meta->empty();
  }

  storage::MemStableStore store;
  std::vector<std::uint32_t> retries;
  int installs = 0;
  int remaps = 0;
  int teardowns = 0;

 private:
  std::vector<Frame>& wire_;
  const DonorState& donor_;
};

const std::vector<ProcessId> kPriorRow = {ProcessId(0), ProcessId(1)};
const std::vector<ProcessId> kMovedRow = {ProcessId(2), ProcessId(1)};

/// Three pool processes over one lossy in-memory wire.
class Pool {
 public:
  explicit Pool(const DonorState& donor, std::uint64_t seed) : rng_(seed) {
    for (std::uint32_t p = 0; p < 3; ++p) {
      ports_.push_back(std::make_unique<FakePort>(wire_, donor));
      engines_.push_back(boot(ProcessId(p)));
    }
    for (int i = 0; i < 3; ++i) {
      port(ProcessId(1)).store.replace(
          ProcessStack::storage_key(ProcessId(1), kLayers[i]),
          donor.journal[i]);
    }
  }

  FakePort& port(ProcessId p) { return *ports_[p.value()]; }
  MigrationEngine& engine(ProcessId p) { return *engines_[p.value()]; }

  /// A fresh incarnation over p's disk: the durable map, no memory.
  std::unique_ptr<MigrationEngine> boot(ProcessId p) {
    return std::make_unique<MigrationEngine>(
        port(p), shard::provision(make_universe(3), 1, 2), p);
  }
  void crash_and_restart(ProcessId p) {
    port(p).retries.clear();  // timers die with the process
    engines_[p.value()] = boot(p);
    engine(p).recover();
  }

  /// Delivers frames in random order, leaving a duplicate behind for
  /// later delivery 30% of the time; fires pending retries whenever the
  /// wire goes quiet. Returns once nothing is left to deliver or retry.
  void pump() {
    for (int step = 0; step < 100000; ++step) {
      if (wire_.empty()) {
        bool fired = false;
        for (std::uint32_t p = 0; p < 3; ++p) {
          std::vector<std::uint32_t> due;
          due.swap(port(ProcessId(p)).retries);
          for (const std::uint32_t g : due) engine(ProcessId(p)).retry(g);
          fired = fired || !due.empty();
        }
        if (!fired) return;
        continue;
      }
      const std::size_t i = rng_.below(wire_.size());
      const Frame f = wire_[i];
      if (!rng_.chance(0.3)) {
        wire_.erase(wire_.begin() + static_cast<std::ptrdiff_t>(i));
      }
      engine(f.to).on_transfer(f.from, f.to, shard::decode_transfer(f.bytes));
    }
    FAIL() << "wire never went quiet";
  }

 private:
  Rng rng_;
  std::vector<Frame> wire_;
  std::vector<std::unique_ptr<FakePort>> ports_;
  std::vector<std::unique_ptr<MigrationEngine>> engines_;
};

TEST(MigrationEngineCrashSweep, EveryJoinerBarrierRollsForwardOrBack) {
  const DonorState donor = run_donor_column();
  ASSERT_GT(donor.journal[2].size(), 32u * 1024u)
      << "the donor's answer must span several chunks";
  // The cursor a donor derives from its TO journal is its live cursor.
  EXPECT_EQ(tosys::ToNode::recover(donor.journal[2]).nextreport, donor.next);

  const ProcessSet live = make_process_set({1, 2});
  const ProcessId joiner(2);
  std::size_t clean_at = 0;
  std::size_t rolled_forward = 0;
  std::size_t rolled_back = 0;
  for (std::size_t crash_at = 0;; ++crash_at) {
    ASSERT_LT(crash_at, 64u) << "sweep failed to terminate";
    Pool pool(donor, /*seed=*/100 + crash_at);
    pool.engine(joiner).set_crash_hook([crash_at](std::size_t i) {
      if (i == crash_at) throw shard::MigrationCrash(i);
    });
    pool.engine(ProcessId(1)).on_pool_view(live);
    pool.engine(joiner).on_pool_view(live);
    // Survivor role: the donor re-points the slot at once.
    EXPECT_EQ(pool.engine(ProcessId(1)).assignments()[0].replicas, kMovedRow);
    EXPECT_EQ(pool.engine(ProcessId(1)).migrations(), 1u);

    bool crashed = false;
    try {
      pool.pump();
    } catch (const shard::MigrationCrash&) {
      crashed = true;
    }
    FakePort& port = pool.port(joiner);
    if (crashed) {
      pool.crash_and_restart(joiner);
      EXPECT_TRUE(port.marker_cleared()) << "crash at " << crash_at;
      const std::vector<ProcessId>& row =
          pool.engine(joiner).assignments()[0].replicas;
      if (row == kMovedRow) {
        ++rolled_forward;
        EXPECT_TRUE(port.holds_donor_journals())
            << "rolled forward over partial journals at " << crash_at;
      } else {
        ++rolled_back;
        EXPECT_EQ(row, kPriorRow) << "crash at " << crash_at;
      }
      // A later view: a rolled-back move is re-planned and re-run.
      pool.engine(joiner).on_pool_view(live);
      pool.pump();
    } else {
      clean_at = crash_at;
    }

    EXPECT_GE(port.installs, 1) << "crash at " << crash_at;
    EXPECT_TRUE(port.holds_donor_journals()) << "crash at " << crash_at;
    EXPECT_TRUE(port.marker_cleared()) << "crash at " << crash_at;
    EXPECT_EQ(pool.engine(joiner).assignments()[0].replicas, kMovedRow);
    EXPECT_EQ(pool.boot(joiner)->assignments()[0].replicas, kMovedRow)
        << "the durable map lost the completed move at " << crash_at;
    EXPECT_EQ(pool.engine(joiner).migrations(), 1u);
    EXPECT_EQ(port.remaps, 0);

    // Departed-self role: the old host learns of the view and drops its
    // column; its map converges with everyone else's.
    pool.engine(ProcessId(0)).on_pool_view(live);
    EXPECT_EQ(pool.port(ProcessId(0)).teardowns, 1);
    EXPECT_EQ(pool.engine(ProcessId(0)).assignments()[0].replicas, kMovedRow);

    // A late duplicate chunk after the join completed is counted, not
    // applied.
    const std::uint64_t ignored = pool.engine(joiner).transfer_ignored();
    shard::TransferFrame stray;
    stray.kind = shard::TransferKind::kSnapshot;
    stray.group = 1;
    stray.episode = 1;
    stray.total = 1;
    pool.engine(joiner).on_transfer(ProcessId(1), joiner, stray);
    EXPECT_EQ(pool.engine(joiner).transfer_ignored(), ignored + 1);
    EXPECT_TRUE(port.holds_donor_journals());
    if (!crashed) break;  // the hook outran the episode: sweep complete
  }
  // assemble, decode, 3 stages, marker, 3 installs, map, column, clear:
  // a crash up to the marker write rolls back, any later one forward.
  EXPECT_EQ(clean_at, 12u);
  EXPECT_EQ(rolled_back, 6u);
  EXPECT_EQ(rolled_forward, 6u);
}

}  // namespace
}  // namespace dvs
