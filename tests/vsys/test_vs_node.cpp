// Protocol-level tests of the distributed VS layer (vsys): membership
// agreement, sequencer ordering, safe indications, retransmission and the
// failure detector — driving VsNode instances directly over the simulated
// network, with recorded traces replayed through the VS acceptor.
#include <gtest/gtest.h>

#include "vs_harness.h"

namespace dvs::vsys {
namespace {

using sim::kMillisecond;
using sim::kSecond;

TEST(VsNodeTest, StableGroupOrdersAndStabilizesMessages) {
  VsHarness h(3, 3, 1);
  h.start();
  h.run_for(100 * kMillisecond);
  h.node(0).gpsnd(opaque(1, 0));
  h.node(1).gpsnd(opaque(2, 1));
  h.node(2).gpsnd(opaque(3, 2));
  h.run_for(1 * kSecond);

  // Everyone delivered all three, in the same order, and got safes for all.
  const auto& d0 = h.delivered_.at(ProcessId{0});
  ASSERT_EQ(d0.size(), 3u);
  EXPECT_EQ(h.delivered_.at(ProcessId{1}), d0);
  EXPECT_EQ(h.delivered_.at(ProcessId{2}), d0);
  EXPECT_EQ(h.safes_.at(ProcessId{0}).size(), 3u);
  const auto r = h.check_trace();
  EXPECT_TRUE(r.ok) << r.error;
}

TEST(VsNodeTest, NoViewChangeInStableGroup) {
  VsHarness h(4, 4, 2);
  h.start();
  h.run_for(5 * kSecond);
  for (unsigned i = 0; i < 4; ++i) {
    EXPECT_TRUE(h.views_[ProcessId{i}].empty())
        << "p" << i << " installed a view in a stable group";
    EXPECT_EQ(h.node(i).stats().proposals_started, 0u);
  }
}

TEST(VsNodeTest, SuspectedProcessTriggersViewChange) {
  VsHarness h(3, 3, 3);
  h.start();
  h.run_for(100 * kMillisecond);
  h.net().pause(ProcessId{2});
  h.run_for(1 * kSecond);
  ASSERT_FALSE(h.views_[ProcessId{0}].empty());
  const View& v = h.views_[ProcessId{0}].back();
  EXPECT_EQ(v.set(), make_process_set({0, 1}));
  EXPECT_EQ(h.node(0).view()->id(), v.id());
  EXPECT_EQ(h.node(1).view()->id(), v.id());
  const auto r = h.check_trace();
  EXPECT_TRUE(r.ok) << r.error;
}

TEST(VsNodeTest, ConcurrentPartitionsInstallDistinctViews) {
  VsHarness h(4, 4, 4);
  h.start();
  h.run_for(100 * kMillisecond);
  h.net().set_partition({make_process_set({0, 1}), make_process_set({2, 3})});
  h.run_for(2 * kSecond);
  ASSERT_TRUE(h.node(0).view().has_value());
  ASSERT_TRUE(h.node(2).view().has_value());
  const View& a = *h.node(0).view();
  const View& b = *h.node(2).view();
  EXPECT_EQ(a.set(), make_process_set({0, 1}));
  EXPECT_EQ(b.set(), make_process_set({2, 3}));
  EXPECT_NE(a.id(), b.id()) << "concurrent coordinators minted the same id";
  const auto r = h.check_trace();
  EXPECT_TRUE(r.ok) << r.error;
}

TEST(VsNodeTest, MessagesDoNotCrossViews) {
  VsHarness h(3, 3, 5);
  h.start();
  h.run_for(100 * kMillisecond);
  // p2 departs; messages sent in the old 3-view must never be delivered in
  // the new 2-view.
  h.node(0).gpsnd(opaque(1, 0));
  h.net().pause(ProcessId{2});
  h.run_for(2 * kSecond);
  h.node(0).gpsnd(opaque(2, 0));
  h.run_for(1 * kSecond);
  const auto r = h.check_trace();
  EXPECT_TRUE(r.ok) << r.error;  // the acceptor enforces per-view delivery
  // The new-view message arrives at both survivors.
  const auto& d1 = h.delivered_.at(ProcessId{1});
  ASSERT_FALSE(d1.empty());
  EXPECT_EQ(d1.back(), opaque(2, 0));
}

TEST(VsNodeTest, SafeRequiresEveryMemberEvenUnderLag) {
  VsHarness h(2, 2, 6);
  h.start();
  h.run_for(100 * kMillisecond);
  h.node(0).gpsnd(opaque(1, 0));
  h.run_for(1 * kSecond);
  // Both nodes delivered and acked through heartbeats → safes at both.
  EXPECT_EQ(h.safes_[ProcessId{0}].size(), 1u);
  EXPECT_EQ(h.safes_[ProcessId{1}].size(), 1u);
  const auto r = h.check_trace();
  EXPECT_TRUE(r.ok) << r.error;
}

TEST(VsNodeTest, RetransmissionSurvivesLoss) {
  // A partition blip shorter than the suspect timeout drops in-flight
  // traffic without triggering a view change; retransmission must still get
  // the client message through.
  VsHarness lossy(3, 3, 8);
  lossy.start();
  lossy.run_for(100 * kMillisecond);
  lossy.node(0).gpsnd(opaque(1, 0));
  lossy.net().set_partition({make_process_set({0}),
                             make_process_set({1, 2})});
  lossy.run_for(30 * kMillisecond);  // below the 100 ms suspect timeout
  lossy.net().heal();
  lossy.run_for(2 * kSecond);
  // The message was lost in the blip but retransmitted afterwards.
  ASSERT_EQ(lossy.delivered_[ProcessId{1}].size(), 1u);
  EXPECT_EQ(lossy.delivered_[ProcessId{1}].front(), opaque(1, 0));
  EXPECT_TRUE(lossy.views_[ProcessId{0}].empty()) << "no view change expected";
  const auto r = lossy.check_trace();
  EXPECT_TRUE(r.ok) << r.error;
}

TEST(VsNodeTest, LateJoinerGetsAView) {
  VsHarness h(3, 2, 9);  // p2 starts with no view
  h.start();
  EXPECT_FALSE(h.node(2).view().has_value());
  h.run_for(2 * kSecond);
  ASSERT_TRUE(h.node(2).view().has_value());
  EXPECT_EQ(h.node(2).view()->set(), make_process_set({0, 1, 2}));
  const auto r = h.check_trace();
  EXPECT_TRUE(r.ok) << r.error;
}

TEST(VsNodeTest, SendWithoutViewIsDropped) {
  VsHarness h(3, 2, 10);
  h.start();
  h.node(2).gpsnd(opaque(1, 2));  // p2 has no view yet
  h.run_for(500 * kMillisecond);
  EXPECT_EQ(h.node(2).stats().msgs_sent, 0u);
  const auto r = h.check_trace();
  EXPECT_TRUE(r.ok) << r.error;
}

TEST(VsNodeTest, EstimateTracksConnectivity) {
  VsHarness h(3, 3, 11);
  h.start();
  h.run_for(200 * kMillisecond);
  EXPECT_EQ(h.node(0).estimate(), make_process_set({0, 1, 2}));
  h.net().pause(ProcessId{1});
  h.run_for(500 * kMillisecond);
  EXPECT_EQ(h.node(0).estimate(), make_process_set({0, 2}));
  h.net().resume(ProcessId{1});
  h.run_for(500 * kMillisecond);
  EXPECT_EQ(h.node(0).estimate(), make_process_set({0, 1, 2}));
}

}  // namespace
}  // namespace dvs::vsys

namespace dvs::vsys {
namespace {

using sim::kMillisecond;
using sim::kSecond;

TEST(VsNodeTest, DuelingCoordinatorsConvergeAfterMerge) {
  // Two partitions each install their own view (two concurrent
  // coordinators); on heal, one fresh proposal must absorb everyone and the
  // surviving view id must exceed both partition views.
  VsHarness h(4, 4, 21);
  h.start();
  h.run_for(100 * kMillisecond);
  h.net().set_partition({make_process_set({0, 1}), make_process_set({2, 3})});
  h.run_for(2 * kSecond);
  ASSERT_TRUE(h.node(0).view().has_value());
  ASSERT_TRUE(h.node(2).view().has_value());
  const ViewId left = h.node(0).view()->id();
  const ViewId right = h.node(2).view()->id();
  ASSERT_NE(left, right);

  h.net().heal();
  h.run_for(3 * kSecond);
  ASSERT_TRUE(h.node(0).view().has_value());
  const View merged = *h.node(0).view();
  EXPECT_EQ(merged.set(), make_process_set({0, 1, 2, 3}));
  EXPECT_GT(merged.id(), left);
  EXPECT_GT(merged.id(), right);
  for (unsigned i = 1; i < 4; ++i) {
    ASSERT_TRUE(h.node(i).view().has_value());
    EXPECT_EQ(h.node(i).view()->id(), merged.id()) << "p" << i;
  }
  const auto r = h.check_trace();
  EXPECT_TRUE(r.ok) << r.error;
}

TEST(VsNodeTest, RepeatedFlappingStaysMonotoneAndUnique) {
  // Rapid partition/heal flapping: every install at every node must be
  // monotone (enforced by the trace acceptor) and ids globally unique.
  VsHarness h(3, 3, 22);
  h.start();
  h.run_for(100 * kMillisecond);
  for (int i = 0; i < 6; ++i) {
    h.net().set_partition({make_process_set({0}), make_process_set({1, 2})});
    h.run_for(600 * kMillisecond);
    h.net().heal();
    h.run_for(600 * kMillisecond);
  }
  h.run_for(2 * kSecond);
  const auto r = h.check_trace();
  EXPECT_TRUE(r.ok) << r.error;
  // Converged to one full view.
  ASSERT_TRUE(h.node(0).view().has_value());
  EXPECT_EQ(h.node(0).view()->set(), make_process_set({0, 1, 2}));
  EXPECT_EQ(h.node(1).view()->id(), h.node(0).view()->id());
}

TEST(VsNodeTest, ProposalAbortAndRetryUnderAckLoss) {
  // The coordinator's proposal dies when a member is unreachable during the
  // flush round; after the member resumes, a retried proposal (with a
  // higher epoch) succeeds.
  VsHarness h(3, 3, 23);
  h.start();
  h.run_for(100 * kMillisecond);
  // p2 pauses: the coordinator first suspects it and re-forms {0,1}.
  h.net().pause(ProcessId{2});
  h.run_for(1 * kSecond);
  ASSERT_TRUE(h.node(0).view().has_value());
  EXPECT_EQ(h.node(0).view()->set(), make_process_set({0, 1}));
  // Resume: a new proposal absorbs p2 again; epochs never repeat.
  h.net().resume(ProcessId{2});
  h.run_for(2 * kSecond);
  EXPECT_EQ(h.node(0).view()->set(), make_process_set({0, 1, 2}));
  const auto r = h.check_trace();
  EXPECT_TRUE(r.ok) << r.error;  // acceptor rejects duplicate/regressing ids
  EXPECT_GE(h.node(0).stats().views_installed, 2u);
}

}  // namespace
}  // namespace dvs::vsys
