// Allocation-free hot path (ISSUE 6 tentpole lock): a global counting
// operator new proves that once a 3-node stack reaches steady state —
// ring buffers grown, arena slots parked, simulator slots recycled,
// scratch writers at capacity — delivering messages performs ZERO heap
// allocations. Also pins graceful degradation when the arena's retention
// budget is exhausted, and that the arena path is behaviour-invariant
// against the plain-heap path.
//
// The real receive path is held to the same line: once warm, draining raw
// and BATCH datagrams from a loopback UdpTransport allocates nothing.
//
// This file must be its own test binary: it replaces the global
// operator new/delete.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <map>
#include <memory>
#include <new>
#include <vector>

#include "net/sim_network.h"
#include "net/udp_transport.h"
#include "vsys/vs_node.h"

// Sanitizer builds wrap the allocator and may allocate internally; the
// exact-zero assertion only holds in plain builds. Under a sanitizer the
// same tests still run (that's the point of the ASan perf gate — recycled
// arena/ring storage is where a stale handle would hide) with the bound
// relaxed to "well under one allocation per delivery".
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define DVS_SANITIZED 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
#define DVS_SANITIZED 1
#endif
#endif
#ifndef DVS_SANITIZED
#define DVS_SANITIZED 0
#endif

namespace {
std::atomic<std::uint64_t> g_allocs{0};

std::uint64_t alloc_count() {
  return g_allocs.load(std::memory_order_relaxed);
}

void* counted_alloc(std::size_t size) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc();
}
}  // namespace

// Global replacements: every heap allocation in the binary goes through
// the counter (sized/aligned deletes forward to free).
void* operator new(std::size_t size) { return counted_alloc(size); }
void* operator new[](std::size_t size) { return counted_alloc(size); }
void* operator new(std::size_t size, std::align_val_t) {
  return counted_alloc(size);
}
void* operator new[](std::size_t size, std::align_val_t) {
  return counted_alloc(size);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}

namespace dvs::vsys {
namespace {

using sim::kMillisecond;
using sim::kSecond;

Msg opaque(std::uint64_t uid, unsigned sender) {
  return Msg{OpaqueMsg{uid, ProcessId{sender}}};
}

/// Minimal 3-node VS cluster whose callbacks only bump counters — the
/// harness itself must not allocate inside the measurement window.
class QuietStack {
 public:
  QuietStack(net::NetConfig net_config, VsConfig vs_config, std::uint64_t seed)
      : rng_(seed),
        universe_(make_universe(3)),
        v0_{ViewId::initial(), make_universe(3)},
        net_(sim_, rng_, net_config, universe_) {
    for (ProcessId p : universe_) {
      VsCallbacks cb;
      cb.on_gprcv = [this](const Msg&, ProcessId) { ++delivered_; };
      cb.on_safe = [this](const Msg&, ProcessId) { ++safes_; };
      nodes_[p] = std::make_unique<VsNode>(p, std::optional<View>{v0_}, net_,
                                           sim_, vs_config, std::move(cb));
    }
    for (auto& [p, node] : nodes_) node->start();
  }

  /// Runs `seconds` of one-broadcast-per-20ms round-robin traffic.
  void pump(unsigned seconds) {
    const sim::Time end = sim_.now() + seconds * kSecond;
    unsigned turn = 0;
    while (sim_.now() < end) {
      nodes_.at(ProcessId{turn % 3})->gpsnd(opaque(++uid_, turn % 3));
      ++turn;
      sim_.run_until(sim_.now() + 20 * kMillisecond);
    }
  }

  void settle(unsigned ms) { sim_.run_until(sim_.now() + ms * kMillisecond); }

  VsNode& node(unsigned p) { return *nodes_.at(ProcessId{p}); }
  net::SimNetwork& net() { return net_; }

  std::uint64_t delivered_ = 0;
  std::uint64_t safes_ = 0;

 private:
  Rng rng_;
  ProcessSet universe_;
  View v0_;
  sim::Simulator sim_;
  net::SimNetwork net_;
  std::map<ProcessId, std::unique_ptr<VsNode>> nodes_;
  std::uint64_t uid_ = 0;
};

TEST(AllocFreeTest, SteadyStateDeliveryAllocatesNothing) {
  net::NetConfig nc;  // payload_arena defaults on
  VsConfig vc;        // watermark stability defaults on
  QuietStack stack(nc, vc, 11);

  // Warmup: grow every ring/arena/scratch buffer to its high-water mark.
  stack.pump(3);
  stack.settle(500);

  const std::uint64_t allocs_before = alloc_count();
  const std::uint64_t delivered_before = stack.delivered_;
  const std::uint64_t safes_before = stack.safes_;
  stack.pump(3);
  const std::uint64_t window_allocs = alloc_count() - allocs_before;
  const std::uint64_t window_delivered = stack.delivered_ - delivered_before;

  // ~150 broadcasts → ~450 deliveries in the window, with heartbeats,
  // watermark piggybacks and stability GC all running — and not one
  // trip to the heap.
  EXPECT_GT(window_delivered, 300u);
  EXPECT_GT(stack.safes_ - safes_before, 300u);
  if (DVS_SANITIZED) {
    EXPECT_LT(static_cast<double>(window_allocs),
              0.25 * static_cast<double>(window_delivered));
  } else {
    EXPECT_EQ(window_allocs, 0u)
        << window_allocs << " allocations for " << window_delivered
        << " deliveries ("
        << static_cast<double>(window_allocs) /
               static_cast<double>(window_delivered)
        << " per delivery)";
  }
}

TEST(AllocFreeTest, ExplicitAckModeStaysCheapButIsNotRequiredToBeZero) {
  // The fallback protocol may allocate (per-message ack bookkeeping), but
  // the containers still amortize: well under one allocation per delivery.
  net::NetConfig nc;
  VsConfig vc;
  vc.stability = StabilityMode::kExplicitAck;
  QuietStack stack(nc, vc, 12);
  stack.pump(3);
  stack.settle(500);

  const std::uint64_t allocs_before = alloc_count();
  const std::uint64_t delivered_before = stack.delivered_;
  stack.pump(3);
  const std::uint64_t window_allocs = alloc_count() - allocs_before;
  const std::uint64_t window_delivered = stack.delivered_ - delivered_before;
  ASSERT_GT(window_delivered, 300u);
  EXPECT_LT(static_cast<double>(window_allocs),
            0.25 * static_cast<double>(window_delivered));
}

TEST(AllocFreeTest, ArenaExhaustionDegradesGracefully) {
  // A retention budget far below the in-flight population: the arena must
  // fall back to plain allocation (counted, never refused) and the
  // protocol must stay fully live.
  net::NetConfig nc;
  nc.arena_max_retained = 2;
  VsConfig vc;
  QuietStack stack(nc, vc, 13);
  stack.pump(2);
  stack.settle(1000);
  EXPECT_GT(stack.delivered_, 200u);
  EXPECT_GT(stack.safes_, 200u);
  EXPECT_GT(stack.net().arena().stats().exhausted_acquires, 0u);
  for (unsigned i = 0; i < 3; ++i) {
    EXPECT_EQ(stack.node(i).stats().decode_errors, 0u) << "p" << i;
  }
}

TEST(AllocFreeTest, ArenaPathIsBehaviourInvariant) {
  // Same seed, arena on vs off: identical delivery and safe counts — the
  // arena only changes where bytes live, never what happens.
  net::NetConfig with_arena;
  with_arena.payload_arena = true;
  net::NetConfig heap_only;
  heap_only.payload_arena = false;
  VsConfig vc;
  QuietStack a(with_arena, vc, 14);
  QuietStack b(heap_only, vc, 14);
  a.pump(3);
  a.settle(500);
  b.pump(3);
  b.settle(500);
  EXPECT_EQ(a.delivered_, b.delivered_);
  EXPECT_EQ(a.safes_, b.safes_);
}

TEST(AllocFreeTest, UdpDrainOfRawAndBatchDatagramsAllocatesNothing) {
  const char* no_net = std::getenv("DVS_NO_NET");
  if (no_net != nullptr && no_net[0] == '1') {
    GTEST_SKIP() << "DVS_NO_NET=1: skipping loopback UDP";
  }
  const ProcessSet universe = make_universe(2);
  net::UdpConfig rc;
  rc.self = ProcessId{0};
  net::UdpConfig sc;
  sc.self = ProcessId{1};
  net::UdpTransport receiver(rc, universe);
  net::UdpTransport sender(sc, universe);
  sender.set_peer(ProcessId{0}, {"127.0.0.1", receiver.local_port()});
  std::uint64_t frames = 0;
  std::uint64_t bytes = 0;
  receiver.attach(ProcessId{0}, [&](ProcessId, const Bytes& payload) {
    ++frames;
    bytes += payload.size();
  });

  // One round = a single-frame flush (travels raw) and a three-frame flush
  // (one BATCH envelope); 4 frames in 2 datagrams.
  const Bytes small(24, std::byte{0x11});
  const Bytes big(400, std::byte{0x22});
  const auto send_round = [&] {
    sender.send(ProcessId{1}, ProcessId{0}, big);
    sender.flush();
    for (int i = 0; i < 3; ++i) sender.send(ProcessId{1}, ProcessId{0}, small);
    sender.flush();
  };
  // Drains until `want` frames arrived (loopback delivery is prompt; the
  // deadline only guards a broken socket).
  const auto receive = [&](std::uint64_t want) {
    for (int spins = 0; frames < want && spins < 2000; ++spins) {
      receiver.pump(1000);
    }
  };

  for (int i = 0; i < 20; ++i) send_round();
  receive(80);
  ASSERT_EQ(frames, 80u);

  for (int i = 0; i < 50; ++i) send_round();
  const std::uint64_t allocs_before = alloc_count();
  receive(80 + 200);
  const std::uint64_t window_allocs = alloc_count() - allocs_before;
  ASSERT_EQ(frames, 280u);
  EXPECT_EQ(bytes, 70u * (400 + 3 * 24));
  EXPECT_EQ(receiver.stats().batches, 0u);  // the receiver never sent
  EXPECT_EQ(sender.stats().batches, 70u);
  if (DVS_SANITIZED) {
    EXPECT_LT(window_allocs, 100u);
  } else {
    EXPECT_EQ(window_allocs, 0u)
        << window_allocs << " allocations draining 100 datagrams";
  }
}

}  // namespace
}  // namespace dvs::vsys
