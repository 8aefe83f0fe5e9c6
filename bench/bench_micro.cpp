// Micro-benchmarks (experiment E13): the primitive operations every layer
// leans on — wire codec, view-set operations, the event queue, and the TO
// recovery functions, and the WAL scan every recovery starts with.
#include <benchmark/benchmark.h>

#include <deque>
#include <map>

#include "common/arena.h"
#include "common/labels.h"
#include "common/ring.h"
#include "common/serialize.h"
#include "common/view.h"
#include "obs/metrics.h"
#include "sim/simulator.h"
#include "storage/wal.h"
#include "vsys/wire.h"

namespace {

using namespace dvs;  // NOLINT

void BM_EncodeDecodeSeq(benchmark::State& state) {
  const vsys::Seq sq{ViewId{12, ProcessId{3}}, 417, ProcessId{2},
                     Msg{OpaqueMsg{99, ProcessId{2}}}};
  for (auto _ : state) {
    const Bytes data = vsys::encode(vsys::WireMsg{sq});
    benchmark::DoNotOptimize(vsys::decode(data));
  }
}
BENCHMARK(BM_EncodeDecodeSeq);

void BM_EncodeDecodeSummary(benchmark::State& state) {
  Summary x;
  for (std::uint64_t i = 1; i <= static_cast<std::uint64_t>(state.range(0));
       ++i) {
    const Label l{ViewId{1, ProcessId{0}}, i, ProcessId{i % 4}};
    x.con.emplace(l, AppMsg{i, ProcessId{i % 4}, "payload"});
    x.ord.push_back(l);
  }
  x.next = x.ord.size();
  x.high = ViewId{1, ProcessId{0}};
  for (auto _ : state) {
    Writer w;
    w.summary(x);
    const Bytes data = w.take();
    Reader r(data);
    benchmark::DoNotOptimize(r.summary());
  }
  state.SetLabel(std::to_string(state.range(0)) + " labels");
}
BENCHMARK(BM_EncodeDecodeSummary)->Arg(10)->Arg(100)->Arg(1000);

void BM_MajorityCheck(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const ProcessSet a = make_universe(n);
  ProcessSet b;
  for (std::size_t i = n / 3; i < n; ++i) {
    b.insert(ProcessId{static_cast<ProcessId::Rep>(i)});
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(majority_of(a, b));
  }
}
BENCHMARK(BM_MajorityCheck)->Arg(5)->Arg(50)->Arg(500);

void BM_EventQueue(benchmark::State& state) {
  for (auto _ : state) {
    sim::Simulator sim;
    std::uint64_t sink = 0;
    for (int i = 0; i < 1000; ++i) {
      sim.schedule_at(static_cast<sim::Time>((i * 7919) % 10000),
                      [&sink] { ++sink; });
    }
    sim.run_all();
    benchmark::DoNotOptimize(sink);
  }
  state.SetItemsProcessed(state.iterations() * 1000);
}
BENCHMARK(BM_EventQueue);

void BM_Fullorder(benchmark::State& state) {
  // The TO recovery hot path: combine summaries from n members.
  const auto n = static_cast<std::size_t>(state.range(0));
  std::map<ProcessId, Summary> gotstate;
  for (std::size_t q = 0; q < n; ++q) {
    Summary x;
    for (std::uint64_t i = 1; i <= 200; ++i) {
      const Label l{ViewId{1, ProcessId{0}}, i,
                    ProcessId{static_cast<ProcessId::Rep>(i % n)}};
      x.con.emplace(l, AppMsg{i, l.origin, ""});
      if (i % (q + 1) == 0) x.ord.push_back(l);
    }
    x.high = ViewId{static_cast<std::uint64_t>(q), ProcessId{0}};
    gotstate.emplace(ProcessId{static_cast<ProcessId::Rep>(q)}, std::move(x));
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(fullorder(gotstate));
  }
}
BENCHMARK(BM_Fullorder)->Arg(3)->Arg(8);

// Arena/ring primitives (ISSUE 6): the steady-state cost of the recycled
// containers vs the std containers they replaced on the hot path.

void BM_ArenaAcquireRelease(benchmark::State& state) {
  MsgArena arena(64);
  const std::size_t payload = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    const MsgArena::Handle h = arena.acquire();
    arena.at(h).resize(payload);
    benchmark::DoNotOptimize(arena.at(h).data());
    arena.release(h);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ArenaAcquireRelease)->Arg(64)->Arg(1024);

void BM_HeapBytesAllocFree(benchmark::State& state) {
  // The baseline the arena replaces: a fresh Bytes per in-flight payload.
  const std::size_t payload = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    Bytes b(payload);
    benchmark::DoNotOptimize(b.data());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_HeapBytesAllocFree)->Arg(64)->Arg(1024);

void BM_RingBufferChurn(benchmark::State& state) {
  // Steady-state FIFO churn at a fixed backlog: the retransmit/order-queue
  // access pattern.
  RingBuffer<std::uint64_t> rb;
  for (std::uint64_t i = 0; i < 32; ++i) rb.push_back(i);
  std::uint64_t next = 32;
  for (auto _ : state) {
    rb.push_back(next++);
    benchmark::DoNotOptimize(rb.front());
    rb.pop_front();
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_RingBufferChurn);

void BM_DequeChurn(benchmark::State& state) {
  std::deque<std::uint64_t> dq;
  for (std::uint64_t i = 0; i < 32; ++i) dq.push_back(i);
  std::uint64_t next = 32;
  for (auto _ : state) {
    dq.push_back(next++);
    benchmark::DoNotOptimize(dq.front());
    dq.pop_front();
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_DequeChurn);

void BM_RingBufferPayloadChurn(benchmark::State& state) {
  // The stack's actual queue elements carry heap payloads. append_slot
  // hands back the recycled slot, so the payload's capacity survives the
  // pop/push lap and the assign below never allocates.
  const std::size_t bytes = static_cast<std::size_t>(state.range(0));
  const Bytes payload(bytes, std::byte{0x5a});
  RingBuffer<Bytes> rb;
  for (int i = 0; i < 32; ++i) rb.append_slot() = payload;
  for (auto _ : state) {
    Bytes& slot = rb.append_slot();
    slot.assign(payload.begin(), payload.end());
    benchmark::DoNotOptimize(rb.front().data());
    rb.pop_front();
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_RingBufferPayloadChurn)->Arg(64)->Arg(1024);

void BM_DequePayloadChurn(benchmark::State& state) {
  // std::deque destroys the popped element, so every push re-allocates the
  // payload buffer it just freed.
  const std::size_t bytes = static_cast<std::size_t>(state.range(0));
  const Bytes payload(bytes, std::byte{0x5a});
  std::deque<Bytes> dq;
  for (int i = 0; i < 32; ++i) dq.push_back(payload);
  for (auto _ : state) {
    dq.emplace_back(payload.begin(), payload.end());
    benchmark::DoNotOptimize(dq.front().data());
    dq.pop_front();
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_DequePayloadChurn)->Arg(64)->Arg(1024);

void BM_SeqWindowChurn(benchmark::State& state) {
  // Sliding issued-window churn: insert at hi, probe, GC below — the
  // sequencer's per-message bookkeeping.
  SeqWindow<std::uint64_t> w;
  for (std::uint64_t k = 1; k <= 32; ++k) w.insert(k) = k;
  std::uint64_t hi = 32;
  for (auto _ : state) {
    ++hi;
    w.insert(hi) = hi;
    benchmark::DoNotOptimize(w.find(hi - 16));
    w.erase_below(hi - 31);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SeqWindowChurn);

void BM_MapChurn(benchmark::State& state) {
  std::map<std::uint64_t, std::uint64_t> m;
  for (std::uint64_t k = 1; k <= 32; ++k) m.emplace(k, k);
  std::uint64_t hi = 32;
  for (auto _ : state) {
    ++hi;
    m.emplace(hi, hi);
    benchmark::DoNotOptimize(m.find(hi - 16));
    m.erase(m.begin(), m.lower_bound(hi - 31));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_MapChurn);

void BM_ObsCounterInc(benchmark::State& state) {
  // The instrumentation hot path: a relaxed atomic add, no lock.
  obs::MetricsRegistry reg;
  obs::Counter& c = reg.counter("bench.hits");
  for (auto _ : state) {
    c.inc();
  }
  benchmark::DoNotOptimize(c.value());
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ObsCounterInc);

void BM_ObsHistogramObserve(benchmark::State& state) {
  obs::MetricsRegistry reg;
  obs::Histogram& h = reg.histogram("bench.lat", obs::latency_buckets_us());
  std::uint64_t v = 1;
  for (auto _ : state) {
    h.observe(v);
    v = v * 6364136223846793005ULL + 1442695040888963407ULL;
    v %= 20'000'000;  // spans the full bucket range incl. overflow
  }
  benchmark::DoNotOptimize(h.snapshot().count);
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ObsHistogramObserve);

void BM_ObsSnapshotExport(benchmark::State& state) {
  // Scrape + serialize cost for a registry the size of a chaos cluster's.
  obs::MetricsRegistry reg;
  for (int p = 0; p < 4; ++p) {
    const std::string label = "{process=\"p" + std::to_string(p) + "\"}";
    for (int m = 0; m < 10; ++m) {
      reg.counter("layer.metric" + std::to_string(m) + label).set(1000 + m);
    }
    obs::Histogram& h =
        reg.histogram("layer.lat" + label, obs::latency_buckets_us());
    for (std::uint64_t v = 100; v < 100000; v *= 3) h.observe(v);
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(reg.snapshot().to_json());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ObsSnapshotExport);

void BM_ReadWal(benchmark::State& state) {
  // read_wal over a log of N TO-sized records (about 40 bytes each). The
  // scan decodes in place, so the time per record (items/s) stays flat as
  // the log grows.
  Bytes log;
  for (std::int64_t i = 0; i < state.range(0); ++i) {
    const Bytes f = storage::Wal::frame(2, [i](Writer& w) {
      w.u64(static_cast<std::uint64_t>(i));
      w.str("payload-of-a-content-record");
    });
    log.insert(log.end(), f.begin(), f.end());
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(storage::read_wal(log).records.size());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_ReadWal)->Arg(2 << 10)->Arg(32 << 10);

}  // namespace

BENCHMARK_MAIN();
