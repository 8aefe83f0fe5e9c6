// Watermark push (VsConfig::stability == kWatermark): when try_deliver
// raises a member's delivered count, the member sends one WATERMARK frame
// to every other member of its view. These tests pin the push's contract —
// stability within a few link delays instead of a heartbeat period, at
// most n-1 frames per delivery batch, a received push applied but never
// answered, the push count exported as vs.watermark_pushes — and that
// explicit-ack mode never pushes.
#include <gtest/gtest.h>

#include <string>

#include "obs/metrics.h"
#include "vs_harness.h"

namespace dvs::vsys {
namespace {

using sim::kMillisecond;
using sim::kSecond;

/// Sends one message from p1 (not the sequencer) 1 ms after a heartbeat
/// tick of a quiet 3-node group, then steps the clock in 100 µs slices
/// until every member has emitted its safe indication. Returns the time
/// from gpsnd to the last member's SAFE.
sim::Time safe_latency(VsHarness& h) {
  h.start();
  h.run_for(5 * h.config().heartbeat_period + 1 * kMillisecond);
  const sim::Time sent = h.now();
  h.node(1).gpsnd(opaque(1, 1));
  const auto all_safe = [&h] {
    for (unsigned i = 0; i < 3; ++i) {
      if (h.safes_[ProcessId{i}].size() != 1) return false;
    }
    return true;
  };
  while (!all_safe() && h.now() - sent < 1 * kSecond) {
    h.run_for(100 * sim::kMicrosecond);
  }
  EXPECT_TRUE(all_safe());
  return h.now() - sent;
}

TEST(WatermarkPushTest, OneSendIsSafeEverywhereWithinLinkDelays) {
  VsHarness h(3, 21, mode_config(StabilityMode::kWatermark));
  const sim::Time latency = safe_latency(h);
  // DATA to the sequencer, SEQ back, one push: three ~1.5 ms hops — well
  // under the heartbeat period the explicit-ack protocol has to wait for.
  EXPECT_LT(latency, h.config().heartbeat_period / 2)
      << "safe latency " << latency << " us";
  std::uint64_t pushes = 0;
  for (unsigned i = 0; i < 3; ++i) pushes += h.node(i).stats().watermark_pushes;
  EXPECT_GT(pushes, 0u);
  const auto r = h.check_trace();
  EXPECT_TRUE(r.ok) << r.error;
}

TEST(WatermarkPushTest, ExplicitAckStaysHeartbeatPacedAndNeverPushes) {
  VsHarness ack(3, 21, mode_config(StabilityMode::kExplicitAck));
  VsHarness wm(3, 21, mode_config(StabilityMode::kWatermark));
  const sim::Time ack_latency = safe_latency(ack);
  const sim::Time wm_latency = safe_latency(wm);
  // Sent 1 ms after a tick: explicit-ack stability waits for the next
  // heartbeat round, ~19 ms away.
  EXPECT_GE(ack_latency, ack.config().heartbeat_period / 2)
      << "safe latency " << ack_latency << " us";
  EXPECT_LT(wm_latency, ack_latency);
  for (unsigned i = 0; i < 3; ++i) {
    EXPECT_EQ(ack.node(i).stats().watermark_pushes, 0u) << "p" << i;
    EXPECT_EQ(ack.node(i).stats().watermark_updates, 0u) << "p" << i;
  }
  EXPECT_EQ(ack.delivered_, wm.delivered_);
  EXPECT_EQ(ack.safes_, wm.safes_);
}

TEST(WatermarkPushTest, AtMostOnePushPerPeerPerDeliveryBatch) {
  VsHarness h(3, 22, mode_config(StabilityMode::kWatermark));
  h.start();
  h.run_for(100 * kMillisecond);
  // Spaced sends: every delivery is its own batch, so each member pushes
  // exactly once to each of its two peers per delivery.
  for (unsigned k = 0; k < 6; ++k) {
    h.node(k % 3).gpsnd(opaque(k + 1, k % 3));
    h.run_for(30 * kMillisecond);
  }
  for (unsigned i = 0; i < 3; ++i) {
    const VsNodeStats& st = h.node(i).stats();
    EXPECT_EQ(st.msgs_delivered, 6u) << "p" << i;
    EXPECT_EQ(st.watermark_pushes, 2 * st.msgs_delivered) << "p" << i;
  }
  // A burst: batches may hold several deliveries, never fewer than one.
  for (unsigned k = 0; k < 30; ++k) {
    h.node(k % 3).gpsnd(opaque(100 + k, k % 3));
  }
  h.run_for(1 * kSecond);
  for (unsigned i = 0; i < 3; ++i) {
    const VsNodeStats& st = h.node(i).stats();
    EXPECT_EQ(st.msgs_delivered, 36u) << "p" << i;
    EXPECT_LE(st.watermark_pushes, 2 * st.msgs_delivered) << "p" << i;
    EXPECT_EQ(h.safes_[ProcessId{i}].size(), 36u) << "p" << i;
  }
  const auto r = h.check_trace();
  EXPECT_TRUE(r.ok) << r.error;
}

TEST(WatermarkPushTest, ReceivedPushIsAppliedButNeverAnswered) {
  VsHarness h(3, 23, mode_config(StabilityMode::kWatermark));
  h.start();
  // 1 ms past a tick: nothing is in flight until the next heartbeat round.
  h.run_for(5 * h.config().heartbeat_period + 1 * kMillisecond);
  const VsNodeStats before = h.node(0).stats();
  const std::uint64_t sent_before = h.net().stats().sent;
  const ViewId v0 = h.node(0).view()->id();
  h.net().send(ProcessId{1}, ProcessId{0}, encode(WireMsg{Watermark{v0, 0, 0}}));
  h.net().send(ProcessId{2}, ProcessId{0}, encode(WireMsg{Watermark{v0, 5, 0}}));
  h.run_for(10 * kMillisecond);
  const VsNodeStats& after = h.node(0).stats();
  // Only the row the second push raised counts; neither push is answered.
  EXPECT_EQ(after.watermark_updates, before.watermark_updates + 1);
  EXPECT_EQ(after.watermark_pushes, before.watermark_pushes);
  EXPECT_EQ(h.net().stats().sent, sent_before + 2);
  EXPECT_EQ(h.node(0).watermarks().delivered(2), 5u);
}

TEST(WatermarkPushTest, PushCountIsExportedPerProcess) {
  VsHarness h(3, 24, mode_config(StabilityMode::kWatermark));
  obs::MetricsRegistry metrics;
  for (unsigned i = 0; i < 3; ++i) h.node(i).bind_metrics(metrics);
  h.start();
  h.run_for(100 * kMillisecond);
  h.node(2).gpsnd(opaque(1, 2));
  h.run_for(100 * kMillisecond);
  metrics.collect();
  for (unsigned i = 0; i < 3; ++i) {
    const std::string key =
        "vs.watermark_pushes{process=\"p" + std::to_string(i) + "\"}";
    EXPECT_EQ(metrics.counter(key).value(), 2u) << key;
  }
}

}  // namespace
}  // namespace dvs::vsys
