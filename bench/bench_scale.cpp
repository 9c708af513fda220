// Scale-out fabric benchmark: 100k+ concurrent messages on a fat-tree.
//
// The paper argues MTP's per-message state is what lets in-network fabrics
// scale; this bench puts a number on it. Three probes:
//
//  1. Capacity + throughput: a k=8 fat-tree (128 hosts, 16 cores) where
//     every host bursts 800 x 10 KB messages to a host 37 ranks away —
//     102,400 messages injected inside 10 us, far faster than they drain, so
//     >= 100k messages are concurrently in flight. The per-message retx
//     timers live on the shared sim::TimerWheel (one bucket op per arm, not
//     an O(inflight) scan), and the workload replays through
//     workload::KeyedReplay, one pending event at a time. Reports events/s
//     against the BENCH_core.json end-to-end rate and peak RSS (getrusage).
//  2. Idle-message footprint: park 100k admitted-but-window-limited
//     messages on one endpoint and report net heap bytes per message (the
//     compact PktMeta/PktFifo layout; the old two-deque layout burned
//     ~1.2 KB per idle message in empty deque chunks alone).
//  3. Determinism at scale: the same k=4 fat-tree sweep run serially and on
//     a sim::ParallelSweep must produce bit-identical digests.
//  4. Space-parallel speedup: the k=16 burst run on 1/2/4/8 sim::sharded
//     shards (`--shards N` runs one shard count by itself). The completion
//     digest — an XOR of per-source-host streams, so it is independent of
//     how completions interleave across shards — must be bit-identical for
//     every shard count; events/s against shards=1 is the speedup. The
//     table also lands in a telemetry::RunReport ("scale_shards").
//
// `--smoke` runs probes 1-4 at k=8/k=16 and prints machine-readable lines
// for scripts/check.sh (compared against BENCH_scale.json); the default mode
// also runs the k=16 (1024-host) smoke to prove the fabric constructs and
// routes at four-digit host counts.
#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string_view>
#include <thread>
#include <vector>

#include "alloc_probe.hpp"
#include "net/fat_tree.hpp"
#include "scenario/hybrid.hpp"
#include "scenario/scenario.hpp"
#include "sim/parallel.hpp"
#include "stats/table.hpp"
#include "telemetry/report.hpp"
#include "transport/tcp.hpp"

using namespace mtp;
using namespace mtp::sim::literals;

namespace {

constexpr std::int64_t kMsgBytes = 10'000;  // 10 packets at the 1000 B MTU

std::uint64_t splitmix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

/// CPUs this process may actually run on (the cgroup/affinity mask, not the
/// machine) — what decides whether a sharded speedup is measurable here.
unsigned available_cores() {
  cpu_set_t set;
  if (sched_getaffinity(0, sizeof(set), &set) == 0) {
    const int n = CPU_COUNT(&set);
    if (n > 0) return static_cast<unsigned>(n);
  }
  const unsigned hw = std::thread::hardware_concurrency();
  return hw > 0 ? hw : 1;
}

struct ScaleResult {
  int hosts = 0;
  unsigned shards = 1;
  std::uint64_t messages = 0;
  std::uint64_t completed = 0;
  std::uint64_t peak_concurrent = 0;
  std::uint64_t events = 0;
  std::uint64_t windows = 0;
  std::uint64_t digest = 0;
  double wall_sec = 0;
  double sim_ms = 0;
  double events_per_sec = 0;
};

/// Probes 1 and 4: burst `msgs_per_host` messages from every fat-tree host
/// to the host 37 ranks away, all inside the first 10 us of simulated time,
/// on `shards` space shards. The digest folds each completion into a cell
/// owned by its *source host* and XORs the cells: per-host completion order
/// is part of the (shard-invariant) timeline while cross-host interleaving
/// is not, so equal digests across shard counts mean the sharded run
/// completed the same messages at the same simulated times.
ScaleResult run_fat_tree_burst(int k, int msgs_per_host,
                               scenario::Forwarding fwd = scenario::Forwarding::kEcmp,
                               unsigned shards = 1) {
  using Clock = std::chrono::steady_clock;
  const int hosts = k * k * k / 4;

  // One flat schedule: src field = sender host index. Under shards > 1 the
  // scenario replays each host's arrivals on the shard that owns the host,
  // keyed by global schedule index (workload::KeyedReplay).
  workload::ArrivalSchedule sched;
  for (int m = 0; m < msgs_per_host; ++m) {
    const sim::SimTime at = sim::SimTime::nanoseconds(m * 10'000 / msgs_per_host);
    for (int h = 0; h < hosts; ++h) {
      sched.add(at, static_cast<std::uint32_t>(h), kMsgBytes);
    }
  }

  auto s = scenario::ScenarioBuilder()
               .seed(7)
               .shards(shards)
               .topology(scenario::topo::fat_tree({.k = k}))
               .forwarding(fwd)
               .transport("mtp")
               .workload(std::move(sched))
               .build();

  ScaleResult r;
  r.hosts = hosts;
  r.shards = shards;
  r.messages = static_cast<std::uint64_t>(hosts) * msgs_per_host;

  // Counters live per shard (cacheline-padded: each slot is written only by
  // its shard's worker thread) and digest cells per source host (each host
  // lives on exactly one shard).
  struct alignas(64) ShardStat {
    std::uint64_t outstanding = 0;
    std::uint64_t peak = 0;
    std::uint64_t completed = 0;
  };
  std::vector<ShardStat> st(shards);
  std::vector<std::uint64_t> cell(hosts);
  for (int h = 0; h < hosts; ++h) cell[h] = splitmix64(0xc2b2ae3d27d4eb4fULL ^ h);

  scenario::Scenario* sp = s.get();
  s->set_arrival_handler([sp, &st, &cell, hosts](const workload::ArrivalSchedule::Arrival& a) {
    const int src = static_cast<int>(a.src);
    const auto dst = sp->topo().senders[(src + 37) % hosts]->id();
    ShardStat& ss = st[sp->network().shard_of(*sp->topo().senders[src])];
    ++ss.outstanding;
    if (ss.outstanding > ss.peak) ss.peak = ss.outstanding;
    sp->mtp_sender(a.src)->send_message(
        dst, a.bytes, {.dst_port = 80},
        [&ss, c = &cell[src]](proto::MsgId, sim::SimTime fct) {
          --ss.outstanding;
          ++ss.completed;
          *c ^= splitmix64(*c ^ static_cast<std::uint64_t>(fct.ns()));
        });
  });

  const auto t0 = Clock::now();
  r.events = s->run(200_ms);
  r.wall_sec = std::chrono::duration<double>(Clock::now() - t0).count();
  for (const ShardStat& ss : st) {
    r.completed += ss.completed;
    r.peak_concurrent += ss.peak;  // sum of per-shard peaks (== peak at shards=1)
  }
  for (int h = 0; h < hosts; ++h) r.digest ^= cell[h];
  r.windows = s->windows();
  r.sim_ms = s->simulator().now().ms();
  r.events_per_sec = static_cast<double>(r.events) / r.wall_sec;
  return r;
}

/// Probe 2: park `count` window-limited messages on one endpoint and
/// report net heap bytes per parked message.
double idle_message_bytes(int count) {
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
  // Warm up internal tables so their first-touch growth isn't attributed
  // to the parked population.
  src.send_message(b->id(), kMsgBytes, {.dst_port = 80});
  net.simulator().run();

  const std::int64_t before = mtp::bench::heap_live_bytes();
  for (int i = 0; i < count; ++i) {
    // No done-callback: we are measuring protocol state, not app closures.
    src.send_message(b->id(), kMsgBytes, {.dst_port = 80});
  }
  const std::int64_t after = mtp::bench::heap_live_bytes();
  const double per_msg = static_cast<double>(after - before) / count;
  net.simulator().run();  // drain so destructors run cleanly
  return per_msg;
}

/// Probe 3: FNV-1a digest over completion data of a 4-job k=4 fat-tree
/// sweep. Must be identical serial vs parallel.
std::uint64_t sweep_digest(unsigned workers) {
  sim::ParallelSweep pool(workers);
  const std::vector<std::uint64_t> digests =
      pool.map(4, [](std::size_t job) -> std::uint64_t {
        auto s = scenario::ScenarioBuilder()
                     .seed(100 + job)
                     .topology(scenario::topo::fat_tree({.k = 4}))
                     .forwarding(scenario::Forwarding::kMessageAware)
                     .transport("mtp")
                     .build();
        const int hosts = static_cast<int>(s->num_senders());
        std::uint64_t digest = 14695981039346656037ull;
        auto mix = [&digest](std::uint64_t v) {
          digest = (digest ^ v) * 1099511628211ull;
        };
        for (int h = 0; h < hosts; ++h) {
          const auto dst = s->topo().senders[(h + 5) % hosts]->id();
          for (int m = 0; m < 40; ++m) {
            s->mtp_sender(h)->send_message(
                dst, kMsgBytes, {.dst_port = 80},
                [&mix, h, m](proto::MsgId, sim::SimTime fct) {
                  mix(static_cast<std::uint64_t>(fct.ns()) + h * 1000003ull + m);
                });
          }
        }
        mix(s->simulator().run(50_ms));
        return digest;
      });
  std::uint64_t combined = 14695981039346656037ull;
  for (std::uint64_t d : digests) combined = (combined ^ d) * 1099511628211ull;
  return combined;
}

/// Probe 2b: park `count` idle *established* TCP connections (both endpoints
/// in-process) and report net heap bytes per connection — the Fig 3 cost MTP
/// deletes by not keeping connections at all. Compare bytes_per_idle_msg:
/// an idle MTP message is transient state, an idle TCP connection is
/// permanent state.
double idle_connection_bytes(int count) {
  net::Network net;
  auto* a = net.add_host("a");
  auto* b = net.add_host("b");
  auto* sw = net.add_switch("sw");
  net.connect(*a, *sw, sim::Bandwidth::gbps(100), 1_us);
  net.connect(*sw, *b, sim::Bandwidth::gbps(100), 1_us);
  sw->add_route(a->id(), 0);
  sw->add_route(b->id(), 1);
  transport::TcpStack src(*a, {});
  transport::TcpStack dst(*b, {});
  std::vector<std::shared_ptr<transport::TcpConnection>> opened, accepted;
  dst.listen(7, [&accepted](std::shared_ptr<transport::TcpConnection> c) {
    accepted.push_back(std::move(c));
  });
  // Warm up stack tables and pre-size the app-side vectors so neither
  // first-touch growth nor reallocation churn lands in the measurement.
  opened.reserve(count + 1);
  accepted.reserve(count + 1);
  opened.push_back(src.connect(b->id(), 7));
  net.simulator().run();

  const std::int64_t before = mtp::bench::heap_live_bytes();
  for (int i = 0; i < count; ++i) {
    opened.push_back(src.connect(b->id(), 7));
  }
  net.simulator().run();  // drive every handshake to ESTABLISHED
  const std::int64_t after = mtp::bench::heap_live_bytes();
  return static_cast<double>(after - before) / count;
}

double peak_rss_mb() {
  struct rusage ru {};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // Linux: KB -> MB
}

/// Two runs are "the same experiment" when they completed the same messages
/// at the same simulated times. Raw event counts are NOT compared: each
/// shard runs its own sim::TimerWheel, so one serial bucket-wake serving
/// timers of several shards becomes one wake per shard — a handful of extra
/// bookkeeping events that never touch the model timeline.
bool same_run(const ScaleResult& a, const ScaleResult& b) {
  return a.digest == b.digest && a.completed == b.completed;
}

int smoke_main() {
  // The wall-clock-rate floors (events_per_sec, shard1/shard8) are judged
  // best-of-3, with the three configurations *interleaved* round-robin: a
  // noisy-neighbor burst on a shared CI box then degrades one sample of
  // each config instead of every sample of one config, so the per-config
  // max recovers the machine's real rate. Digests must agree across rounds
  // (same seed, same timeline) — gated below alongside the shard digests.
  ScaleResult r{}, s1{}, s8{};
  bool repeat_match = true;
  for (int round = 0; round < 3; ++round) {
    const ScaleResult a = run_fat_tree_burst(/*k=*/8, /*msgs_per_host=*/800);
    const ScaleResult b = run_fat_tree_burst(/*k=*/16, /*msgs_per_host=*/64,
                                             scenario::Forwarding::kEcmp, /*shards=*/1);
    const ScaleResult c = run_fat_tree_burst(/*k=*/16, /*msgs_per_host=*/64,
                                             scenario::Forwarding::kEcmp, /*shards=*/8);
    if (round == 0) {
      r = a;
      s1 = b;
      s8 = c;
    } else {
      repeat_match = repeat_match && same_run(r, a) && same_run(s1, b) && same_run(s8, c);
      if (a.events_per_sec > r.events_per_sec) r = a;
      if (b.events_per_sec > s1.events_per_sec) s1 = b;
      if (c.events_per_sec > s8.events_per_sec) s8 = c;
    }
  }
  const double idle = idle_message_bytes(100'000);
  const double idle_conn = idle_connection_bytes(20'000);
  const std::uint64_t serial = sweep_digest(1);
  const std::uint64_t parallel = sweep_digest(0);

  // Probe 4 (sharded): digest equality at k=8 across 1/2/4 shards, then the
  // k=16 speedup pair. scripts/check.sh gates the digests unconditionally
  // and the speedup only when shard_available_cores is large enough to make
  // a wall-clock ratio meaningful (a 1-vCPU CI box timeslices the shards).
  const ScaleResult d1 = run_fat_tree_burst(/*k=*/8, /*msgs_per_host=*/64,
                                            scenario::Forwarding::kEcmp, /*shards=*/1);
  const ScaleResult d2 = run_fat_tree_burst(/*k=*/8, /*msgs_per_host=*/64,
                                            scenario::Forwarding::kEcmp, /*shards=*/2);
  const ScaleResult d4 = run_fat_tree_burst(/*k=*/8, /*msgs_per_host=*/64,
                                            scenario::Forwarding::kEcmp, /*shards=*/4);
  const bool shard_match =
      repeat_match && same_run(d1, d2) && same_run(d1, d4) && same_run(s1, s8);

  // Probe 5 (hybrid): the fluid bulk model must reproduce the packet-level
  // foreground percentiles on the fig3/fig7 rigs while collapsing the bulk
  // share of events, and the k=32 (8192-host) tenant-isolation scenario
  // must complete digest-identically on 1/2/4 shards.
  const auto f3 = scenario::hybrid::fig3_fidelity();
  const auto f7 = scenario::hybrid::fig7_fidelity();
  const auto k32a = scenario::hybrid::tenant_isolation(/*k=*/32, /*shards=*/1);
  const auto k32b = scenario::hybrid::tenant_isolation(/*k=*/32, /*shards=*/2);
  const auto k32c = scenario::hybrid::tenant_isolation(/*k=*/32, /*shards=*/4);
  const bool k32_match = k32a.digest == k32b.digest && k32a.digest == k32c.digest &&
                         k32a.fg_completed == k32a.fg_sent &&
                         k32a.bulk_completed == k32a.bulk_count;
  const double hybrid_delta =
      f3.fct_delta_pct > f7.fct_delta_pct ? f3.fct_delta_pct : f7.fct_delta_pct;
  const double hybrid_ratio =
      f3.bulk_event_ratio < f7.bulk_event_ratio ? f3.bulk_event_ratio : f7.bulk_event_ratio;
  double k32_best = k32a.events_per_sec;
  if (k32b.events_per_sec > k32_best) k32_best = k32b.events_per_sec;
  if (k32c.events_per_sec > k32_best) k32_best = k32c.events_per_sec;
  // Teardown is gated on the worst of the three: every shard count destroys
  // the same ~116k metric providers.
  const double k32_teardown =
      std::max({k32a.teardown_sec, k32b.teardown_sec, k32c.teardown_sec});

  std::printf("events_per_sec=%.0f\n", r.events_per_sec);
  std::printf("peak_concurrent_msgs=%llu\n",
              static_cast<unsigned long long>(r.peak_concurrent));
  std::printf("completed_msgs=%llu\n", static_cast<unsigned long long>(r.completed));
  std::printf("bytes_per_idle_msg=%.1f\n", idle);
  std::printf("peak_rss_mb=%.1f\n", peak_rss_mb());
  std::printf("digest_serial=%016llx\n", static_cast<unsigned long long>(serial));
  std::printf("digest_parallel=%016llx\n", static_cast<unsigned long long>(parallel));
  std::printf("digest_match=%d\n", serial == parallel ? 1 : 0);
  std::printf("shard_available_cores=%u\n", available_cores());
  std::printf("shard_digest_match=%d\n", shard_match ? 1 : 0);
  std::printf("shard1_events_per_sec=%.0f\n", s1.events_per_sec);
  std::printf("shard8_events_per_sec=%.0f\n", s8.events_per_sec);
  std::printf("shard8_windows=%llu\n", static_cast<unsigned long long>(s8.windows));
  std::printf("shard_speedup=%.2f\n", s8.events_per_sec / s1.events_per_sec);
  std::printf("bytes_per_idle_conn=%.1f\n", idle_conn);
  std::printf("hybrid_fct_delta_pct=%.2f\n", hybrid_delta);
  std::printf("hybrid_bulk_event_ratio=%.1f\n", hybrid_ratio);
  std::printf("hybrid_k32_hosts=%d\n", k32a.hosts);
  std::printf("hybrid_k32_digest_match=%d\n", k32_match ? 1 : 0);
  std::printf("hybrid_k32_events_per_sec=%.0f\n", k32_best);
  std::printf("hybrid_k32_teardown_sec=%.3f\n", k32_teardown);
  return (serial == parallel && shard_match && k32_match) ? 0 : 1;
}

/// `--bulk-mode flow|packet|none` in full: the fig3/fig7 fidelity tables and
/// the k=32 tenant-isolation run, with the requested mode's column called out.
int hybrid_main(std::string_view mode) {
  std::printf("=== Hybrid fidelity: packet foreground over %.*s-mode bulk ===\n\n",
              static_cast<int>(mode.size()), mode.data());
  stats::Table t({"experiment", "mode", "fg p50 (us)", "fg p99 (us)", "events",
                  "bulk done"});
  telemetry::RunReport report("scale_hybrid");
  for (const auto& [name, f] :
       {std::pair<const char*, scenario::hybrid::FidelityResult>{
            "fig3 incast", scenario::hybrid::fig3_fidelity()},
        {"fig7 tenants", scenario::hybrid::fig7_fidelity()}}) {
    t.add_row({name, "none", stats::format("%.1f", f.p50_none),
               stats::format("%.1f", f.p99_none),
               stats::format("%llu", static_cast<unsigned long long>(f.events_none)),
               "-"});
    t.add_row({name, "packet", stats::format("%.1f", f.p50_packet),
               stats::format("%.1f", f.p99_packet),
               stats::format("%llu", static_cast<unsigned long long>(f.events_packet)),
               stats::format("%zu", f.bulk_count)});
    t.add_row({name, "flow", stats::format("%.1f", f.p50_flow),
               stats::format("%.1f", f.p99_flow),
               stats::format("%llu", static_cast<unsigned long long>(f.events_flow)),
               stats::format("%zu", f.bulk_count)});
    auto& sec = report.section(name);
    sec.add_scalar("fct_delta_pct", f.fct_delta_pct);
    sec.add_scalar("bulk_event_ratio", f.bulk_event_ratio);
    std::printf("%s: fct_delta=%.2f%% bulk_event_ratio=%.1fx\n", name,
                f.fct_delta_pct, f.bulk_event_ratio);
  }
  t.print();

  std::printf("\n--- k=32 tenant isolation (8192 hosts, fluid bulk) ---\n");
  bool match = true;
  std::uint64_t digest0 = 0;
  for (unsigned shards : {1u, 2u, 4u}) {
    const auto r = scenario::hybrid::tenant_isolation(/*k=*/32, shards);
    if (shards == 1) digest0 = r.digest;
    match = match && r.digest == digest0 && r.fg_completed == r.fg_sent &&
            r.bulk_completed == r.bulk_count;
    std::printf(
        "shards=%u events=%llu wall=%.2fs Mevents/s=%.1f teardown=%.2fs fg=%zu/%zu "
        "bulk=%zu/%zu digest=%016llx\n",
        shards, static_cast<unsigned long long>(r.events), r.wall_sec,
        r.events_per_sec / 1e6, r.teardown_sec, r.fg_completed, r.fg_sent,
        r.bulk_completed, r.bulk_count, static_cast<unsigned long long>(r.digest));
    auto& sec = report.section(stats::format("k32_shards_%u", shards));
    sec.add_scalar("events", static_cast<double>(r.events));
    sec.add_scalar("wall_sec", r.wall_sec);
    sec.add_scalar("events_per_sec", r.events_per_sec);
    sec.add_scalar("teardown_sec", r.teardown_sec);
    sec.add_text("digest",
                 stats::format("%016llx", static_cast<unsigned long long>(r.digest)));
  }
  std::printf("k=32 digests %s across {1,2,4} shards\n",
              match ? "bit-identical" : "MISMATCH");
  report.write();
  return match ? 0 : 1;
}

/// Probe 4 in full: the k=16 burst at 1/2/4/8 shards, printed as a table
/// and written to a telemetry::RunReport.
bool shard_speedup_main(const std::vector<unsigned>& shard_counts) {
  std::printf("\n=== sim::sharded speedup: k=16 burst, %u core(s) available ===\n\n",
              available_cores());
  stats::Table t({"shards", "events", "windows", "wall (s)", "Mevents/s",
                  "speedup", "digest"});
  telemetry::RunReport report("scale_shards");
  std::vector<ScaleResult> rs;
  for (unsigned n : shard_counts) {
    rs.push_back(run_fat_tree_burst(/*k=*/16, /*msgs_per_host=*/64,
                                    scenario::Forwarding::kEcmp, n));
  }
  const double base = rs.front().events_per_sec;
  bool match = true;
  for (const ScaleResult& r : rs) {
    match = match && same_run(rs.front(), r);
    t.add_row({stats::format("%u", r.shards),
               stats::format("%llu", static_cast<unsigned long long>(r.events)),
               stats::format("%llu", static_cast<unsigned long long>(r.windows)),
               stats::format("%.2f", r.wall_sec),
               stats::format("%.1f", r.events_per_sec / 1e6),
               stats::format("%.2fx", r.events_per_sec / base),
               stats::format("%016llx", static_cast<unsigned long long>(r.digest))});
    auto& sec = report.section(stats::format("shards_%u", r.shards));
    sec.add_scalar("shards", r.shards);
    sec.add_scalar("hosts", r.hosts);
    sec.add_scalar("events", static_cast<double>(r.events));
    sec.add_scalar("windows", static_cast<double>(r.windows));
    sec.add_scalar("completed_msgs", static_cast<double>(r.completed));
    sec.add_scalar("wall_sec", r.wall_sec);
    sec.add_scalar("events_per_sec", r.events_per_sec);
    sec.add_scalar("speedup_vs_1", r.events_per_sec / base);
    sec.add_text("digest", stats::format("%016llx",
                                         static_cast<unsigned long long>(r.digest)));
  }
  t.print();
  std::printf("shard digests %s across {", match ? "bit-identical" : "MISMATCH");
  for (std::size_t i = 0; i < shard_counts.size(); ++i) {
    std::printf("%s%u", i ? "," : "", shard_counts[i]);
  }
  std::printf("} shards; %u core(s) available\n", available_cores());
  report.section("env").add_scalar("available_cores", available_cores());
  report.write();
  return match;
}

}  // namespace

int main(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    if (std::string_view(argv[i]) == "--smoke") return smoke_main();
    if (std::string_view(argv[i]) == "--bulk-mode" && i + 1 < argc) {
      const std::string_view mode(argv[i + 1]);
      if (mode != "flow" && mode != "packet" && mode != "none") {
        std::fprintf(stderr, "bench_scale: --bulk-mode wants flow|packet|none\n");
        return 2;
      }
      return hybrid_main(mode);
    }
    if (std::string_view(argv[i]) == "--shards" && i + 1 < argc) {
      // One shard count by itself (plus the shards=1 baseline it is judged
      // against): the handle for profiling a single configuration.
      const unsigned n = static_cast<unsigned>(std::atoi(argv[i + 1]));
      if (n == 0) {
        std::fprintf(stderr, "bench_scale: --shards needs a count >= 1\n");
        return 2;
      }
      return shard_speedup_main(n == 1 ? std::vector<unsigned>{1}
                                       : std::vector<unsigned>{1, n})
                 ? 0
                 : 1;
    }
  }

  std::printf("=== Scale-out fabrics: fat-tree capacity and event-core throughput ===\n\n");

  stats::Table t({"fabric", "hosts", "messages", "peak in flight", "events",
                  "sim time (ms)", "wall (s)", "Mevents/s"});
  auto row = [&](const char* name, const ScaleResult& r) {
    t.add_row({name, stats::format("%d", r.hosts),
               stats::format("%llu", static_cast<unsigned long long>(r.messages)),
               stats::format("%llu", static_cast<unsigned long long>(r.peak_concurrent)),
               stats::format("%llu", static_cast<unsigned long long>(r.events)),
               stats::format("%.1f", r.sim_ms), stats::format("%.2f", r.wall_sec),
               stats::format("%.1f", r.events_per_sec / 1e6)});
  };

  // The capacity rows run ECMP forwarding: the probe measures the
  // transport + event core at 100k concurrent messages, and per-flow
  // hashing is stateless at the switches. The msg-aware row shows the
  // extra per-hop cost of the paper's per-message placement (a pin-table
  // lookup per packet per switch); the figure benches study its behaviour.
  const ScaleResult k8 = run_fat_tree_burst(/*k=*/8, /*msgs_per_host=*/800);
  row("k=8 ecmp", k8);
  const ScaleResult k8ma = run_fat_tree_burst(/*k=*/8, /*msgs_per_host=*/800,
                                              scenario::Forwarding::kMessageAware);
  row("k=8 msg-aware", k8ma);
  // 1024 hosts: a lighter burst — the point is that construction, routing
  // and the timer wheel hold up at four-digit host counts, not raw volume.
  const ScaleResult k16 = run_fat_tree_burst(/*k=*/16, /*msgs_per_host=*/64);
  row("k=16 ecmp", k16);
  t.print();

  const double idle = idle_message_bytes(100'000);
  std::printf("\nidle-message footprint: %.1f bytes/message (100k parked)\n", idle);

  const std::uint64_t serial = sweep_digest(1);
  const std::uint64_t parallel = sweep_digest(0);
  std::printf("sweep digest: serial=%016llx parallel=%016llx (%s)\n",
              static_cast<unsigned long long>(serial),
              static_cast<unsigned long long>(parallel),
              serial == parallel ? "bit-identical" : "MISMATCH");
  std::printf("peak RSS: %.1f MB\n", peak_rss_mb());

  const bool shard_match = shard_speedup_main({1, 2, 4, 8});
  return (serial == parallel && shard_match) ? 0 : 1;
}
