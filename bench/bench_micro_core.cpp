// Microbenchmarks of the substrate (google-benchmark): event-queue
// operations, header serialization, queue datapaths, and end-to-end
// simulated-packet throughput. These guard the simulator's performance —
// packet-level experiments execute tens of millions of events.
//
// Two extra facilities beyond plain google-benchmark:
//  - a global operator new/delete counter (alloc_probe.hpp), so the hot
//    benchmarks report allocs_per_event alongside events_per_sec (the
//    allocation-free core contract, docs/perf.md);
//  - a --smoke mode that runs a fixed workload and prints machine-readable
//    `events_per_sec=` / `allocs_per_event=` / `e2e_allocs_per_event=` lines
//    for scripts/check.sh to compare against BENCH_core.json.
#include <benchmark/benchmark.h>

#include <chrono>
#include <cstdio>
#include <string_view>

#include "alloc_probe.hpp"
#include "innetwork/queues.hpp"
#include "mtp/endpoint.hpp"
#include "net/network.hpp"
#include "proto/mtp_header.hpp"
#include "sim/simulator.hpp"

using namespace mtp;
using namespace mtp::sim::literals;

namespace {

void BM_SimulatorScheduleRun(benchmark::State& state) {
  const int batch = static_cast<int>(state.range(0));
  for (auto _ : state) {
    sim::Simulator sim;
    int counter = 0;
    for (int i = 0; i < batch; ++i) {
      sim.schedule(sim::SimTime::nanoseconds(i % 64), [&counter] { ++counter; });
    }
    sim.run();
    benchmark::DoNotOptimize(counter);
  }
  state.SetItemsProcessed(state.iterations() * batch);
}
BENCHMARK(BM_SimulatorScheduleRun)->Arg(1024)->Arg(16384);

// Steady-state scheduler churn: one warmed-up simulator, waves of
// schedule+run. This is the shape every long experiment settles into, and
// the allocation-free contract applies exactly here: allocs_per_event must
// read 0.00 (slot pool, heap storage, and free list are all recycled).
void BM_SimulatorSteadyChurn(benchmark::State& state) {
  sim::Simulator sim;
  int counter = 0;
  for (int i = 0; i < 512; ++i) {
    sim.schedule(sim::SimTime::nanoseconds(i % 64), [&counter] { ++counter; });
  }
  sim.run();  // warm-up: grow pool and heap to steady state
  const std::uint64_t allocs_before = bench::heap_allocs();
  std::uint64_t events = 0;
  for (auto _ : state) {
    for (int i = 0; i < 512; ++i) {
      sim.schedule(sim::SimTime::nanoseconds(i % 64), [&counter] { ++counter; });
    }
    events += sim.run();
    benchmark::DoNotOptimize(counter);
  }
  const std::uint64_t allocs = bench::heap_allocs() - allocs_before;
  state.SetItemsProcessed(static_cast<std::int64_t>(events));
  state.counters["allocs_per_event"] =
      benchmark::Counter(static_cast<double>(allocs) / static_cast<double>(events));
}
BENCHMARK(BM_SimulatorSteadyChurn);

void BM_SimulatorCancel(benchmark::State& state) {
  for (auto _ : state) {
    sim::Simulator sim;
    std::vector<sim::EventId> ids;
    ids.reserve(1024);
    for (int i = 0; i < 1024; ++i) {
      ids.push_back(sim.schedule(1_us, [] {}));
    }
    for (auto id : ids) sim.cancel(id);
    sim.run();
  }
  state.SetItemsProcessed(state.iterations() * 1024);
}
BENCHMARK(BM_SimulatorCancel);

proto::MtpHeader typical_data_header() {
  proto::MtpHeader h;
  h.src_port = 1234;
  h.dst_port = 80;
  h.msg_id = 424242;
  h.msg_len_bytes = 1'000'000;
  h.msg_len_pkts = 1000;
  h.pkt_num = 500;
  h.pkt_offset = 500'000;
  h.pkt_len = 1000;
  h.path_feedback() = {{1, 0, {proto::FeedbackType::kEcn, 1}},
                     {2, 0, {proto::FeedbackType::kRate, 40'000'000'000}}};
  return h;
}

void BM_MtpHeaderSerialize(benchmark::State& state) {
  const proto::MtpHeader h = typical_data_header();
  std::vector<std::uint8_t> buf;
  for (auto _ : state) {
    buf.clear();
    h.serialize(buf);
    benchmark::DoNotOptimize(buf.data());
  }
  state.SetBytesProcessed(state.iterations() * static_cast<std::int64_t>(h.wire_size()));
}
BENCHMARK(BM_MtpHeaderSerialize);

void BM_MtpHeaderParse(benchmark::State& state) {
  const proto::MtpHeader h = typical_data_header();
  std::vector<std::uint8_t> buf;
  h.serialize(buf);
  for (auto _ : state) {
    auto parsed = proto::MtpHeader::parse(buf);
    benchmark::DoNotOptimize(parsed);
  }
  state.SetBytesProcessed(state.iterations() * static_cast<std::int64_t>(buf.size()));
}
BENCHMARK(BM_MtpHeaderParse);

net::Packet make_pkt(proto::TrafficClassId tc) {
  net::Packet p;
  p.src = 1;
  p.dst = 2;
  p.payload_bytes = 1000;
  p.header_bytes = 64;
  p.tc = tc;
  proto::MtpHeader h;
  h.msg_len_pkts = 1;
  h.pkt_len = 1000;
  p.header = h;
  return p;
}

void BM_DropTailQueue(benchmark::State& state) {
  net::DropTailQueue q({.capacity_pkts = 1024, .ecn_threshold_pkts = 64});
  for (auto _ : state) {
    for (int i = 0; i < 64; ++i) q.enqueue(make_pkt(0));
    for (int i = 0; i < 64; ++i) benchmark::DoNotOptimize(q.dequeue());
  }
  state.SetItemsProcessed(state.iterations() * 128);
}
BENCHMARK(BM_DropTailQueue);

void BM_WfqQueue(benchmark::State& state) {
  innetwork::WfqQueue q({.per_tc_capacity_pkts = 1024});
  for (auto _ : state) {
    for (int i = 0; i < 64; ++i) q.enqueue(make_pkt(static_cast<proto::TrafficClassId>(i % 4)));
    for (int i = 0; i < 64; ++i) benchmark::DoNotOptimize(q.dequeue());
  }
  state.SetItemsProcessed(state.iterations() * 128);
}
BENCHMARK(BM_WfqQueue);

// One end-to-end MTP transfer over host -> switch -> host; the workload
// behind BM_EndToEndMtpTransfer and the --smoke probe. Returns the number of
// simulator events executed.
std::uint64_t run_e2e_transfer() {
  net::Network net;
  auto* a = net.add_host("a");
  auto* b = net.add_host("b");
  auto* sw = net.add_switch("sw");
  net.connect(*a, *sw, sim::Bandwidth::gbps(100), 1_us);
  net.connect(*sw, *b, sim::Bandwidth::gbps(100), 1_us);
  sw->add_route(a->id(), 0);
  sw->add_route(b->id(), 1);
  core::MtpEndpoint src(*a, {});
  core::MtpEndpoint dst(*b, {});
  dst.listen(80, [](const core::ReceivedMessage&) {});
  src.send_message(b->id(), 1'000'000, {.dst_port = 80});
  net.simulator().run();
  benchmark::DoNotOptimize(dst.msgs_delivered());
  return net.simulator().events_executed();
}

// End-to-end: packets/second the full stack simulates (hosts, switch,
// queues, MTP endpoints with acking). Reports events_per_sec and
// allocs_per_event (whole-stack: endpoint bookkeeping included, so this is
// the honest per-event allocation trajectory, not just the kernel's).
void BM_EndToEndMtpTransfer(benchmark::State& state) {
  const std::uint64_t allocs_before = bench::heap_allocs();
  std::uint64_t events = 0;
  for (auto _ : state) {
    events += run_e2e_transfer();
  }
  const std::uint64_t allocs = bench::heap_allocs() - allocs_before;
  // 1000 data packets + 1000 acks per iteration.
  state.SetItemsProcessed(state.iterations() * 2000);
  state.counters["events_per_sec"] =
      benchmark::Counter(static_cast<double>(events), benchmark::Counter::kIsRate);
  state.counters["allocs_per_event"] =
      benchmark::Counter(static_cast<double>(allocs) / static_cast<double>(events));
}
BENCHMARK(BM_EndToEndMtpTransfer)->Unit(benchmark::kMicrosecond);

// --smoke: fixed workload, machine-readable output, no benchmark machinery.
// scripts/check.sh compares events_per_sec against BENCH_core.json (>25%
// regression fails), bounds allocs_per_event on the pure-scheduler churn, and
// bounds e2e_allocs_per_event on the whole-stack transfer.
int smoke_main() {
  using Clock = std::chrono::steady_clock;

  // Throughput probe: the end-to-end transfer, best-of-3 to shrug off
  // scheduler noise on shared CI machines. Its allocations (set-up and
  // teardown of each transfer's network included) over all 60 transfers are
  // the whole-stack allocation rate.
  double best_events_per_sec = 0.0;
  std::uint64_t e2e_events = 0;
  const std::uint64_t e2e_allocs_before = bench::heap_allocs();
  for (int attempt = 0; attempt < 3; ++attempt) {
    std::uint64_t events = 0;
    const auto t0 = Clock::now();
    for (int i = 0; i < 20; ++i) events += run_e2e_transfer();
    const std::chrono::duration<double> dt = Clock::now() - t0;
    best_events_per_sec = std::max(best_events_per_sec, static_cast<double>(events) / dt.count());
    e2e_events += events;
  }
  const std::uint64_t e2e_allocs = bench::heap_allocs() - e2e_allocs_before;

  // Allocation probe: steady-state scheduler churn (the kernel contract).
  sim::Simulator sim;
  int counter = 0;
  for (int i = 0; i < 512; ++i) {
    sim.schedule(sim::SimTime::nanoseconds(i % 64), [&counter] { ++counter; });
  }
  sim.run();
  const std::uint64_t allocs_before = bench::heap_allocs();
  std::uint64_t churn_events = 0;
  for (int round = 0; round < 200; ++round) {
    for (int i = 0; i < 512; ++i) {
      sim.schedule(sim::SimTime::nanoseconds(i % 64), [&counter] { ++counter; });
    }
    churn_events += sim.run();
  }
  const std::uint64_t churn_allocs = bench::heap_allocs() - allocs_before;
  benchmark::DoNotOptimize(counter);

  std::printf("events_per_sec=%.0f\n", best_events_per_sec);
  std::printf("allocs_per_event=%.6f\n",
              static_cast<double>(churn_allocs) / static_cast<double>(churn_events));
  std::printf("e2e_allocs_per_event=%.6f\n",
              static_cast<double>(e2e_allocs) / static_cast<double>(e2e_events));
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    if (std::string_view(argv[i]) == "--smoke") return smoke_main();
  }
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
