// SST-style watermark stability (vsys/watermarks.h + VsConfig::stability):
// unit tests of the incremental per-member watermark table, plus VS-level
// protocol tests pinning the watermark mode's behaviour — identical
// delivery/safe semantics to the explicit-ack protocol, piggybacked
// watermark propagation, and the retransmit-liveness regression (a stalled
// peer watermark must still trip the holdoff resend, exactly like a silent
// acker in the old protocol).
#include "vsys/watermarks.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "common/rng.h"
#include "vs_harness.h"

namespace dvs::vsys {
namespace {

using sim::kMillisecond;
using sim::kSecond;

TEST(WatermarkTableTest, MinTracksMemberRows) {
  WatermarkTable t;
  t.resize(4);
  t.reset({0, 1, 2});
  EXPECT_EQ(t.min_delivered(), 0u);
  // raise returns true iff the column MINIMUM advanced — rows 1,2 still
  // hold it at 0 here.
  EXPECT_FALSE(t.raise_delivered(0, 5));
  EXPECT_EQ(t.min_delivered(), 0u);
  EXPECT_FALSE(t.raise_delivered(1, 3));
  EXPECT_EQ(t.min_delivered(), 0u);
  // The last binding row moves: min advances to the new column minimum.
  EXPECT_TRUE(t.raise_delivered(2, 7));
  EXPECT_EQ(t.min_delivered(), 3u);
  EXPECT_EQ(t.delivered(0), 5u);
  EXPECT_EQ(t.delivered(1), 3u);
  EXPECT_EQ(t.delivered(2), 7u);
}

TEST(WatermarkTableTest, RaiseIsMonotoneAndReportsAdvance) {
  WatermarkTable t;
  t.resize(2);
  t.reset({0, 1});
  EXPECT_FALSE(t.raise_delivered(0, 4));  // row 1 still binds the min at 0
  // A stale (lower or equal) watermark is ignored.
  EXPECT_FALSE(t.raise_delivered(0, 2));
  EXPECT_FALSE(t.raise_delivered(0, 4));
  EXPECT_EQ(t.delivered(0), 4u);
  // raise returns whether the *minimum* advanced, not the cell: moving the
  // last binding row reports the advance.
  EXPECT_TRUE(t.raise_delivered(1, 9));
  EXPECT_EQ(t.min_delivered(), 4u);
}

TEST(WatermarkTableTest, NonMemberRowsCannotDisturbTheMin) {
  WatermarkTable t;
  t.resize(4);
  t.reset({0, 1});
  // Row 3 is in the universe but not in the view: raising it must be a
  // no-op (a corrupted-but-decodable frame from a non-member must not move
  // stability).
  EXPECT_FALSE(t.raise_delivered(3, 100));
  EXPECT_EQ(t.delivered(3), 0u);
  t.raise_delivered(0, 2);
  t.raise_delivered(1, 2);
  EXPECT_EQ(t.min_delivered(), 2u);
  EXPECT_FALSE(t.raise_delivered(3, 1));
  EXPECT_EQ(t.min_delivered(), 2u);
}

TEST(WatermarkTableTest, ResetReinstallsMembership) {
  WatermarkTable t;
  t.resize(3);
  t.reset({0, 1, 2});
  t.raise_delivered(0, 5);
  t.raise_delivered(1, 5);
  t.raise_delivered(2, 5);
  EXPECT_EQ(t.min_delivered(), 5u);
  // New view with fewer members: rows zero, old member drops out.
  t.reset({0, 1});
  EXPECT_EQ(t.min_delivered(), 0u);
  EXPECT_EQ(t.delivered(0), 0u);
  EXPECT_FALSE(t.raise_delivered(2, 9));  // no longer a member
  t.raise_delivered(0, 1);
  t.raise_delivered(1, 1);
  EXPECT_EQ(t.min_delivered(), 1u);
}

TEST(WatermarkTableTest, DifferentialAgainstNaiveMin) {
  // Random raises on both columns; the incrementally maintained minimum
  // must always equal a from-scratch scan over the member rows.
  WatermarkTable t;
  constexpr std::size_t kRows = 5;
  t.resize(kRows);
  const std::vector<std::size_t> members{0, 2, 4};
  t.reset(members);
  std::vector<std::uint64_t> delivered(kRows, 0);
  std::vector<std::uint64_t> safe(kRows, 0);
  Rng rng(123);
  for (int step = 0; step < 20000; ++step) {
    const std::size_t row = rng.below(kRows);  // non-members included
    const auto bump = static_cast<std::uint64_t>(rng.below(4));
    const bool which = rng.below(2) == 0;
    auto& shadow = which ? delivered : safe;
    const std::uint64_t v = shadow[row] + bump;
    if (which) {
      t.raise_delivered(row, v);
    } else {
      t.raise_safe(row, v);
    }
    if (std::find(members.begin(), members.end(), row) != members.end()) {
      shadow[row] = std::max(shadow[row], v);
    }
    auto naive = [&](const std::vector<std::uint64_t>& col) {
      std::uint64_t m = col[members.front()];
      for (std::size_t r : members) m = std::min(m, col[r]);
      return m;
    };
    ASSERT_EQ(t.min_delivered(), naive(delivered)) << "step " << step;
    ASSERT_EQ(t.min_safe(), naive(safe)) << "step " << step;
  }
}

// ----- VS-level protocol tests ---------------------------------------------

TEST(WatermarkModeTest, StableGroupOrdersAndStabilizes) {
  VsHarness h(3, 1, mode_config(StabilityMode::kWatermark));
  h.start();
  h.run_for(100 * kMillisecond);
  // A rapid burst: several messages deliver between consecutive 20 ms
  // heartbeats, so the Data/Seq piggybacks carry fresher watermarks than
  // the last heartbeat — stability travels at data rate.
  constexpr unsigned kBurst = 30;
  for (unsigned k = 0; k < kBurst; ++k) {
    h.node(k % 3).gpsnd(opaque(k + 1, k % 3));
    h.run_for(2 * kMillisecond);
  }
  h.run_for(1 * kSecond);
  const auto& d0 = h.delivered_.at(ProcessId{0});
  ASSERT_EQ(d0.size(), kBurst);
  EXPECT_EQ(h.delivered_.at(ProcessId{1}), d0);
  EXPECT_EQ(h.delivered_.at(ProcessId{2}), d0);
  // Safes at everyone: the watermark minimum reached every message.
  for (unsigned i = 0; i < 3; ++i) {
    EXPECT_EQ(h.safes_[ProcessId{i}].size(), kBurst) << "p" << i;
  }
  // The piggyback path actually advanced rows ahead of the heartbeats.
  std::uint64_t updates = 0;
  for (unsigned i = 0; i < 3; ++i) {
    updates += h.node(i).stats().watermark_updates;
  }
  EXPECT_GT(updates, 0u);
  const auto r = h.check_trace();
  EXPECT_TRUE(r.ok) << r.error;
}

TEST(WatermarkModeTest, ExplicitAckModeNeverTouchesTheTablePiggyback) {
  VsHarness h(3, 2, mode_config(StabilityMode::kExplicitAck));
  h.start();
  h.run_for(100 * kMillisecond);
  h.node(0).gpsnd(opaque(1, 0));
  h.run_for(1 * kSecond);
  EXPECT_EQ(h.safes_[ProcessId{0}].size(), 1u);
  for (unsigned i = 0; i < 3; ++i) {
    EXPECT_EQ(h.node(i).stats().watermark_updates, 0u) << "p" << i;
  }
  const auto r = h.check_trace();
  EXPECT_TRUE(r.ok) << r.error;
}

TEST(WatermarkModeTest, BothModesDeliverIdenticalSequences) {
  VsHarness wm(3, 7, mode_config(StabilityMode::kWatermark));
  VsHarness ack(3, 7, mode_config(StabilityMode::kExplicitAck));
  for (VsHarness* h : {&wm, &ack}) {
    h->start();
    h->run_for(100 * kMillisecond);
    h->node(0).gpsnd(opaque(1, 0));
    h->node(1).gpsnd(opaque(2, 1));
    h->node(2).gpsnd(opaque(3, 2));
    h->run_for(2 * kSecond);
  }
  EXPECT_EQ(wm.delivered_, ack.delivered_);
  EXPECT_EQ(wm.safes_, ack.safes_);
  EXPECT_TRUE(wm.views_[ProcessId{0}].empty());
  EXPECT_TRUE(ack.views_[ProcessId{0}].empty());
}

TEST(WatermarkModeTest, StalledWatermarkStillRetransmits) {
  // The satellite-f liveness regression: a partition blip shorter than the
  // suspect timeout drops the SEQ in flight to p1/p2, so their published
  // watermarks stall at the pre-blip value. Heartbeats (which carry the
  // watermark columns in both modes) keep flowing after the heal; the
  // sender's holdoff cursor must treat the stalled watermark exactly like a
  // silent acker and resend the un-acked suffix — the message must get
  // through without any view change.
  VsHarness h(3, 8, mode_config(StabilityMode::kWatermark));
  h.start();
  h.run_for(100 * kMillisecond);
  h.node(0).gpsnd(opaque(1, 0));
  h.net().set_partition({make_process_set({0}), make_process_set({1, 2})});
  h.run_for(30 * kMillisecond);  // below the 100 ms suspect timeout
  h.net().heal();
  h.run_for(2 * kSecond);
  ASSERT_EQ(h.delivered_[ProcessId{1}].size(), 1u);
  EXPECT_EQ(h.delivered_[ProcessId{1}].front(), opaque(1, 0));
  EXPECT_TRUE(h.views_[ProcessId{0}].empty()) << "no view change expected";
  // And stability completed after the resend: safes at the sender too.
  EXPECT_EQ(h.safes_[ProcessId{0}].size(), 1u);
  const auto r = h.check_trace();
  EXPECT_TRUE(r.ok) << r.error;
}

TEST(WatermarkModeTest, SafeRequiresEveryMemberUnderPause) {
  // A paused (but not yet suspected) member blocks stability in watermark
  // mode just as it blocks acks: min over the table cannot advance past a
  // silent row.
  VsHarness h(3, 9, mode_config(StabilityMode::kWatermark));
  h.start();
  h.run_for(100 * kMillisecond);
  h.net().pause(ProcessId{2});
  h.node(0).gpsnd(opaque(1, 0));
  h.run_for(60 * kMillisecond);  // deliveries happen, stability must not
  EXPECT_TRUE(h.safes_[ProcessId{0}].empty());
  EXPECT_TRUE(h.safes_[ProcessId{1}].empty());
  h.net().resume(ProcessId{2});
  h.run_for(2 * kSecond);
  // After the resume (no view change needed at 60 ms < timeout... or after
  // one, either way) the message eventually stabilizes somewhere.
  const auto r = h.check_trace();
  EXPECT_TRUE(r.ok) << r.error;
}

}  // namespace
}  // namespace dvs::vsys
