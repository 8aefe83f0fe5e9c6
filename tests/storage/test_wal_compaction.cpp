// Size-proportional journal compaction and the linear WAL scan.
//
// Every layer journal compacts by one rule in storage::Wal: a snapshot is
// due once at least Wal::kCompactMinRecords records have been appended
// since the last snapshot AND those records hold at least as many bytes as
// that snapshot. These tests pin the rule itself, its effect on a live
// simulated cluster (journal size bounded by about twice its snapshot,
// replay still exact, snapshot bytes per command flat over a run rather
// than growing with history), the on-disk format it must keep reading
// (journals framed by the two-buffer encoder earlier builds used), and
// read_wal's in-place scan over a 64k-record log.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "storage/stable_store.h"
#include "storage/wal.h"
#include "tosys/cluster.h"
#include "tosys/to_node.h"

namespace dvs::storage {
namespace {

using sim::kMillisecond;

/// Frames a record the way earlier builds did: the payload encoded into
/// its own buffer, then copied behind magic, type and a varuint length.
Bytes legacy_frame(std::uint8_t type, const Bytes& payload) {
  Writer record;
  record.u8(kWalMagic);
  record.u8(type);
  record.bytes_field(payload);
  const std::uint32_t crc = crc32(record.buffer());
  record.u32(crc);
  return record.take();
}

/// Framed size of a decoded record.
std::size_t framed_size(const WalRecord& r) {
  Writer length;
  length.varuint(r.payload.size());
  return 2 + length.size() + r.payload.size() + 4;
}

// ----- (a) the rule, at the Wal ----------------------------------------------

TEST(WalCompactionTest, DueOnlyOnceFloorAndSnapshotBytesAreBothCrossed) {
  MemStableStore store;
  Wal wal(store, "k");
  EXPECT_FALSE(wal.snapshot_due());
  const auto big_snapshot = [](Writer& w) { w.str(std::string(2000, 's')); };
  wal.snapshot(1, big_snapshot);
  const std::size_t snap = wal.snapshot_bytes();
  ASSERT_EQ(snap, store.load("k")->size());
  // 15-byte records: the 64-record floor is crossed long before the 2 KB
  // snapshot's worth of bytes, so the byte threshold decides.
  std::size_t snapshots_after = 0;
  for (std::uint64_t i = 1; i <= 400; ++i) {
    wal.append(2, [i](Writer& w) { w.u64(i); });
    const std::size_t tail = store.load("k")->size() - snap;
    const bool due = i >= Wal::kCompactMinRecords && tail >= snap;
    ASSERT_EQ(wal.snapshot_due(), due) << "record " << i;
    if (due) {
      wal.snapshot(1, big_snapshot);
      ++snapshots_after;
      EXPECT_EQ(i, (snap + 14) / 15);  // the first append reaching `snap`
      break;
    }
  }
  EXPECT_EQ(snapshots_after, 1u);
  EXPECT_EQ(store.stats().replaces, 2u);
  EXPECT_FALSE(wal.snapshot_due());
  EXPECT_EQ(read_wal(store, "k").records.size(), 1u);
}

TEST(WalCompactionTest, SmallSnapshotWaitsForTheRecordFloor) {
  MemStableStore store;
  Wal wal(store, "k");
  wal.snapshot(1, [](Writer& w) { w.u64(7); });
  // Each 200-byte record alone outweighs the snapshot; the floor decides.
  for (std::size_t i = 1; i <= Wal::kCompactMinRecords; ++i) {
    wal.append(2, [](Writer& w) { w.str(std::string(200, 'r')); });
    EXPECT_GE(wal.bytes_since_snapshot(), wal.snapshot_bytes());
    EXPECT_EQ(wal.snapshot_due(), i == Wal::kCompactMinRecords) << i;
  }
  wal.snapshot(1, [](Writer& w) { w.u64(8); });
  EXPECT_EQ(wal.records_since_snapshot(), 0u);
  EXPECT_EQ(wal.bytes_since_snapshot(), 0u);
  EXPECT_FALSE(wal.snapshot_due());
}

// ----- (b)+(c) a live cluster ------------------------------------------------

TEST(WalCompactionTest, LiveJournalsStayBoundedExactAndAmortised) {
  tosys::ClusterConfig cfg;
  cfg.n_processes = 3;
  cfg.persistence = true;
  tosys::Cluster c(cfg, 4242);
  c.start();
  c.run_for(300 * kMillisecond);
  auto* store = dynamic_cast<MemStableStore*>(c.store());
  ASSERT_NE(store, nullptr);

  constexpr std::uint64_t kCommands = 3000;
  constexpr std::uint64_t kSampleEvery = 100;
  std::uint64_t replaced_at_half = 0;
  for (std::uint64_t uid = 1; uid <= kCommands; ++uid) {
    const ProcessId p{static_cast<std::uint32_t>(uid % 3)};
    c.bcast(p, AppMsg{uid, p, "v" + std::to_string(uid)});
    c.run_for(5 * kMillisecond);
    if (uid % kSampleEvery != 0) continue;
    for (ProcessId q : c.universe()) {
      const std::string key = q.to_string() + "/to";
      const Bytes journal = store->load(key).value_or(Bytes{});
      const WalContents wal = read_wal(journal);
      ASSERT_FALSE(wal.corrupt_tail) << key;
      ASSERT_FALSE(wal.records.empty()) << key;
      ASSERT_EQ(wal.records.front().type, 1u) << key;  // the snapshot
      const std::size_t snap = framed_size(wal.records.front());
      const std::size_t tail_bytes = journal.size() - snap;
      const std::size_t tail_records = wal.records.size() - 1;
      std::size_t largest = 0;
      for (std::size_t i = 1; i < wal.records.size(); ++i) {
        largest = std::max(largest, framed_size(wal.records[i]));
      }
      // Either below the floor or below the snapshot's size, so at most
      // twice the snapshot plus the floor's worth of records.
      EXPECT_TRUE(tail_records < Wal::kCompactMinRecords || tail_bytes < snap)
          << key << " at " << uid;
      EXPECT_LE(journal.size(), 2 * snap + Wal::kCompactMinRecords * largest)
          << key << " at " << uid;
      const toimpl::ToDurableState live =
          c.to_node(q).automaton().durable_state();
      EXPECT_EQ(tosys::ToNode::recover(journal), live) << key << " at " << uid;
      EXPECT_EQ(tosys::ToNode::recover_cursor(journal), live.nextreport)
          << key << " at " << uid;
    }
    if (uid == kCommands / 2) replaced_at_half = store->stats().bytes_replaced;
  }
  c.run_for(sim::kSecond);
  ASSERT_TRUE(c.oracle().ok());
  ASSERT_EQ(c.to_node(ProcessId{0}).automaton().nextreport(), kCommands + 1);

  // Snapshot bytes per command must not grow with history: the second
  // half of the run may rewrite at most 1.5x what the first half did.
  // (Compacting every 64 records rewrites a snapshot that grows linearly,
  // which makes this ratio about 3.)
  const double first = static_cast<double>(replaced_at_half);
  const double second =
      static_cast<double>(store->stats().bytes_replaced - replaced_at_half);
  ASSERT_GT(first, 0.0);
  EXPECT_LE(second / first, 1.5) << "first half " << first
                                 << " B, second half " << second << " B";
}

// ----- (d) journals framed by earlier builds ---------------------------------

TEST(WalCompactionTest, LegacyFramedToJournalRecovers) {
  // TO record types (tosys/to_node.cpp): 1 snapshot, 2 content, 3 order,
  // 5 confirm, 6 report.
  const ViewId g{3, ProcessId{1}};
  const auto label = [&g](std::uint64_t seqno) {
    return Label{g, seqno, ProcessId{static_cast<std::uint32_t>(seqno % 3)}};
  };
  const auto msg = [](std::uint64_t uid) {
    return AppMsg{uid, ProcessId{static_cast<std::uint32_t>(uid % 3)},
                  "payload-" + std::to_string(uid)};
  };
  toimpl::ToDurableState want;
  want.highprimary = g;
  Writer snapshot;
  snapshot.varuint(2);
  for (std::uint64_t i = 1; i <= 2; ++i) {
    snapshot.label(label(i));
    snapshot.app_msg(msg(i));
    want.content.emplace(label(i), msg(i));
  }
  snapshot.varuint(2);
  for (std::uint64_t i = 1; i <= 2; ++i) {
    snapshot.label(label(i));
    want.order.push_back(label(i));
  }
  snapshot.varuint(3);  // nextconfirm
  snapshot.varuint(2);  // nextreport
  snapshot.view_id(g);
  Bytes journal = legacy_frame(1, snapshot.buffer());
  const auto add = [&journal](std::uint8_t type, const Writer& w) {
    const Bytes f = legacy_frame(type, w.buffer());
    journal.insert(journal.end(), f.begin(), f.end());
  };
  for (std::uint64_t i = 3; i <= 6; ++i) {
    Writer content;
    content.label(label(i));
    content.app_msg(msg(i));
    add(2, content);
    want.content.emplace(label(i), msg(i));
    Writer order;
    order.label(label(i));
    add(3, order);
    want.order.push_back(label(i));
    Writer confirm;
    confirm.varuint(i + 1);
    add(5, confirm);
    want.nextconfirm = i + 1;
    Writer report;
    report.varuint(i);
    add(6, report);
    want.nextreport = i;
  }
  EXPECT_EQ(tosys::ToNode::recover(journal), want);
  EXPECT_EQ(tosys::ToNode::recover_cursor(journal), want.nextreport);
}

TEST(WalCompactionTest, CursorScanStopsWhereReplayStops) {
  // A CRC-clean report record, then a CRC-clean snapshot whose one content
  // payload claims 2^64-1 bytes: both scans must end their prefix at the
  // snapshot (no wrapped bounds check, no crash) and agree on the cursor.
  Writer report;
  report.varuint(5);
  Bytes journal = legacy_frame(6, report.buffer());
  Writer snapshot;
  snapshot.varuint(1);
  snapshot.label(Label{ViewId{1, ProcessId{0}}, 1, ProcessId{0}});
  snapshot.u64(1);
  snapshot.process_id(ProcessId{0});
  snapshot.varuint(~std::uint64_t{0});
  const Bytes bad = legacy_frame(1, snapshot.buffer());
  journal.insert(journal.end(), bad.begin(), bad.end());
  ASSERT_EQ(read_wal(journal).records.size(), 2u);
  EXPECT_EQ(tosys::ToNode::recover(journal).nextreport, 5u);
  EXPECT_EQ(tosys::ToNode::recover_cursor(journal), 5u);
}

TEST(WalCompactionTest, FrameMatchesLegacyFramingAcrossLengthWidths) {
  // Payloads of 127/128 and 16383/16384 bytes (str adds a 1- or 2-byte
  // count): one-, two- and three-byte lengths on both sides of each edge.
  for (const std::size_t n : {0, 1, 126, 127, 16381, 16382}) {
    const std::string s(n, 'x');
    Writer payload;
    payload.str(s);
    EXPECT_EQ(Wal::frame(9, [&s](Writer& w) { w.str(s); }),
              legacy_frame(9, payload.buffer()))
        << n;
  }
}

// ----- the linear scan ---------------------------------------------------------

TEST(WalScanTest, RoundTrips64kRecords) {
  constexpr std::uint64_t kRecords = 64 * 1024;
  Bytes log;
  for (std::uint64_t i = 0; i < kRecords; ++i) {
    const Bytes f = Wal::frame(static_cast<std::uint8_t>(1 + i % 7),
                               [i](Writer& w) {
                                 w.u64(i);
                                 w.str(std::string(i % 13, 'p'));
                               });
    log.insert(log.end(), f.begin(), f.end());
  }
  const WalContents c = read_wal(log);
  EXPECT_FALSE(c.corrupt_tail);
  EXPECT_EQ(c.bytes_consumed, log.size());
  ASSERT_EQ(c.records.size(), kRecords);
  for (std::uint64_t i = 0; i < kRecords; ++i) {
    const WalRecord& r = c.records[i];
    ASSERT_EQ(r.type, 1 + i % 7) << i;
    Reader reader(r.payload);
    ASSERT_EQ(reader.u64(), i);
    ASSERT_EQ(reader.str().size(), i % 13);
    ASSERT_TRUE(reader.exhausted());
  }
  // A torn last record leaves every earlier one.
  log.pop_back();
  const WalContents torn = read_wal(log);
  EXPECT_TRUE(torn.corrupt_tail);
  EXPECT_EQ(torn.records.size(), kRecords - 1);
}

}  // namespace
}  // namespace dvs::storage
