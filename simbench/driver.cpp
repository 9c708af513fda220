// Simulator benchmark driver: runs one named workload for a host-time
// budget and prints every metric by name and unit, then one JSON result line.
//
//   simbench --workload burst_k8|rpc_l7lb|tenants_k32 --seed N --seconds S
//            --trace 0|1 [--spans-out FILE]
//
// --trace 0 measures the end-to-end metrics (setup_s, ops_per_s, teardown_s,
// peak_rss_mb, allocs_per_op) with no tracing hooks installed. --trace 1
// alternates untraced and traced iterations and reports the per-layer
// metrics of the traced run plus the tracing overhead. One iteration is
// generate -> build -> run slices -> destroy of a fresh Scenario; a run
// repeats iterations until the budget is spent and reports medians. Every
// iteration's outputs are checked (exactly-once completion, no unroutable or
// misdelivered packets, workload checks, identical completion digests); any
// violation makes the run exit non-zero.
#include <sys/resource.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "alloc_probe.hpp"
#include "tracer.hpp"
#include "workloads.hpp"

using namespace simbench;
using namespace mtp;

namespace {

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string spans_out;
};

double cpu_seconds() {
  struct rusage ru {};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
         static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) * 1e-6;
}

double peak_rss_mb() {
  struct rusage ru {};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // Linux reports KiB
}

double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

/// Everything measured in one generate -> build -> run -> destroy iteration.
struct Iteration {
  bool traced = false;
  double gen_s = 0, build_s = 0, run_s = 0, destroy_s = 0, cpu_s = 0;
  std::uint64_t expected_ops = 0;
  Outcome out;
  std::uint64_t events = 0;
  std::uint64_t run_allocs = 0;
  std::uint64_t providers = 0;
  std::uint64_t windows = 0;
  std::uint64_t flow_resolves = 0;
  double event_imbalance = 1;
  unsigned shards = 1;
  int slices_run = 0;
  std::uint64_t peak_inflight = 0;
  double heap_bytes_per_inflight = 0;
  double pkt_hops = 0, queue_drops = 0, ecn_marks = 0;
  double data_pkts = 0, retx_pkts = 0, acks = 0;
  std::vector<std::string> violations;
  // Traced iterations only.
  HotStats hot[kHotCount];
  double run_self_s = 0;

  double setup_s() const { return gen_s + build_s; }
  double ops_per_s() const { return static_cast<double>(out.completed) / run_s; }
  std::uint64_t failed() const { return expected_ops - out.completed; }
};

Iteration run_iteration(const Args& a, bool traced) {
  Tracer& tr = Tracer::global();
  tr.reset();
  Iteration it;
  it.traced = traced;
  auto exp = make_experiment(a.workload, traced);

  const int g = tr.begin_cold("workload.gen", a.seed);
  exp->generate(a.seed);
  it.gen_s = tr.end_cold(g);
  const int b = tr.begin_cold("scenario.build");
  exp->build();
  it.build_s = tr.end_cold(b);
  scenario::Scenario& s = exp->scenario();
  it.providers = telemetry::MetricRegistry::global().provider_count();
  it.shards = s.shards();
  it.expected_ops = exp->total_ops();

  const alloc::Totals a0 = alloc::totals();
  const double cpu0 = cpu_seconds();
  std::uint64_t best_inflight = 0;
  for (const sim::SimTime until : exp->slices()) {
    const int r = tr.begin_cold("sim.run", static_cast<std::uint64_t>(until.ns()));
    tr.set_current_run_slice(r);
    it.events += exp->run_slice(until);
    it.run_s += tr.end_cold(r);
    ++it.slices_run;
    // Heap probe at the slice boundary with the most operations in flight.
    const std::uint64_t inflight = exp->inflight();
    if (inflight > best_inflight) {
      best_inflight = inflight;
      it.heap_bytes_per_inflight =
          static_cast<double>(alloc::totals().live_bytes - a0.live_bytes) /
          static_cast<double>(inflight);
    }
    if (exp->all_done()) break;
  }
  it.cpu_s = cpu_seconds() - cpu0;
  it.run_allocs = alloc::totals().allocs - a0.allocs;
  it.out = exp->outcome();
  it.peak_inflight = exp->peak_inflight();

  const telemetry::RegistrySnapshot snap = s.snapshot();
  it.pkt_hops = snap.total("link", "pkts_delivered");
  it.queue_drops = snap.total("queue", "dropped");
  it.ecn_marks = snap.total("queue", "ecn_marked");
  it.data_pkts = snap.total("mtp", "pkts_sent");
  it.retx_pkts = snap.total("mtp", "pkts_retransmitted");
  it.acks = snap.total("mtp", "acks_sent");
  if (const double n = snap.total("switch", "no_route_drops"); n != 0) {
    it.violations.push_back(std::to_string(static_cast<long long>(n)) + " no_route_drops");
  }
  if (const double n = snap.total("host", "misdelivered_packets"); n != 0) {
    it.violations.push_back(std::to_string(static_cast<long long>(n)) +
                            " misdelivered_packets");
  }
  if (it.out.duplicates != 0) {
    it.violations.push_back(std::to_string(it.out.duplicates) +
                            " operations completed more than once");
  }
  exp->check(snap, it.violations);

  std::uint64_t max_ev = 0, sum_ev = 0;
  for (unsigned i = 0; i < it.shards; ++i) {
    const std::uint64_t e = s.network().simulator(i).events_executed();
    max_ev = std::max(max_ev, e);
    sum_ev += e;
  }
  if (sum_ev > 0) it.event_imbalance = static_cast<double>(max_ev) * it.shards / sum_ev;
  it.windows = s.windows();
  if (const auto* fm = s.flow_model(0)) it.flow_resolves = fm->resolves();

  if (traced) {
    for (int h = 0; h < kHotCount; ++h) it.hot[h] = tr.hot(static_cast<Hot>(h));
    it.run_self_s = it.run_s * it.shards - static_cast<double>(tr.top_level_child_ns()) * 1e-9;
  }

  const int d = tr.begin_cold("scenario.destroy");
  exp->destroy();
  it.destroy_s = tr.end_cold(d);
  if (traced && !a.spans_out.empty()) {
    const std::string header = "{\"workload\":\"" + a.workload +
                               "\",\"seed\":" + std::to_string(a.seed) + "}";
    if (!tr.write_spans(a.spans_out, header)) {
      std::fprintf(stderr, "simbench: cannot write spans to %s\n", a.spans_out.c_str());
    }
  }
  return it;
}

/// Set-up alone (generate + build, destroy untimed): extra set-up samples.
double setup_only(const Args& a) {
  auto exp = make_experiment(a.workload, false);
  const std::int64_t t0 = now_ns();
  exp->generate(a.seed);
  exp->build();
  const double s = static_cast<double>(now_ns() - t0) * 1e-9;
  exp->destroy();
  return s;
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

void print_json(bool correct, std::uint64_t attempted, std::uint64_t failed,
                const std::vector<Metric>& metrics) {
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": {",
              correct ? "true" : "false", static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed));
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", i ? ", " : "",
                metrics[i].name.c_str(), metrics[i].value, metrics[i].unit.c_str());
  }
  std::printf("}}\n");
}

bool parse(int argc, char** argv, Args& a) {
  bool have_workload = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string k = argv[i];
    const char* v = argv[i + 1];
    if (k == "--workload") {
      a.workload = v;
      have_workload = true;
    } else if (k == "--seed") {
      a.seed = std::strtoull(v, nullptr, 10);
    } else if (k == "--seconds") {
      a.seconds = std::atof(v);
    } else if (k == "--trace") {
      a.trace = std::strcmp(v, "0") != 0;
    } else if (k == "--spans-out") {
      a.spans_out = v;
    } else {
      return false;
    }
  }
  if (argc % 2 == 0 || !have_workload || a.seconds <= 0) return false;
  const auto& names = workload_names();
  return std::find(names.begin(), names.end(), a.workload) != names.end();
}

}  // namespace

int main(int argc, char** argv) {
  Args a;
  if (!parse(argc, argv, a)) {
    std::fprintf(stderr,
                 "usage: simbench --workload <burst_k8|rpc_l7lb|tenants_k32> --seed N "
                 "--seconds S --trace 0|1 [--spans-out FILE]\n");
    return 2;
  }
  std::setvbuf(stdout, nullptr, _IOLBF, 0);
  const std::int64_t t_start = now_ns();
  const auto elapsed = [t_start] { return static_cast<double>(now_ns() - t_start) * 1e-9; };

  // Iterations until the budget is spent; a traced run alternates untraced
  // and traced iterations and needs one of each.
  std::vector<Iteration> its;
  double last = 0;
  for (;;) {
    const bool traced = a.trace && its.size() % 2 == 1;
    const double t0 = elapsed();
    its.push_back(run_iteration(a, traced));
    last = elapsed() - t0;
    const Iteration& it = its.back();
    std::printf(
        "iter %zu%s: setup %.4fs run %.4fs teardown %.4fs ops %llu/%llu failed %llu "
        "events %llu digest %016llx\n",
        its.size(), traced ? " (traced)" : "", it.setup_s(), it.run_s, it.destroy_s,
        static_cast<unsigned long long>(it.out.completed),
        static_cast<unsigned long long>(it.expected_ops),
        static_cast<unsigned long long>(it.failed()),
        static_cast<unsigned long long>(it.events),
        static_cast<unsigned long long>(it.out.digest));
    // Stop once the next iteration would end more than half an iteration
    // past the budget.
    const bool have_min = !a.trace || its.size() >= 2;
    if (have_min && elapsed() + last / 2 > a.seconds) break;
  }
  // Extra set-up samples (generate + build + untimed destroy) where they are
  // cheap: at most six, within a tenth of the budget.
  std::vector<double> setups;
  if (!a.trace) {
    const Iteration& first = its.front();
    const double cost = first.setup_s() + first.destroy_s;
    const int reps = std::min(6, static_cast<int>(0.1 * a.seconds / cost));
    for (int i = 0; i < reps; ++i) setups.push_back(setup_only(a));
  }

  // Correctness over every iteration.
  bool correct = true;
  std::uint64_t attempted = 0, failed = 0;
  for (const Iteration& it : its) {
    attempted += it.expected_ops;
    failed += it.failed();
    for (const std::string& v : it.violations) {
      std::printf("VIOLATION: %s\n", v.c_str());
      correct = false;
    }
    if (it.out.digest != its.front().out.digest || it.failed() != its.front().failed()) {
      std::printf("VIOLATION: completion digest differs between iterations\n");
      correct = false;
    }
  }
  const Iteration& ref = its.front();
  std::printf("workload %s seed %llu shards %u: ops_attempted %llu ops_failed %llu "
              "digest %016llx model.op_p50_us %.3f model.op_p99_us %.3f\n",
              a.workload.c_str(), static_cast<unsigned long long>(a.seed), ref.shards,
              static_cast<unsigned long long>(ref.expected_ops),
              static_cast<unsigned long long>(ref.failed()),
              static_cast<unsigned long long>(ref.out.digest), ref.out.p50_us, ref.out.p99_us);

  // Every end-to-end metric is the median over iterations (set-up also over
  // the set-up-only samples).
  std::vector<Metric> m;
  std::vector<double> plain_ops, traced_ops, teardown, allocs, ns_per_event, cpu_util;
  for (const Iteration& it : its) {
    if (it.traced) {
      traced_ops.push_back(it.ops_per_s());
      continue;
    }
    setups.push_back(it.setup_s());
    plain_ops.push_back(it.ops_per_s());
    teardown.push_back(it.destroy_s);
    allocs.push_back(static_cast<double>(it.run_allocs) /
                     static_cast<double>(std::max<std::uint64_t>(1, it.out.completed)));
    ns_per_event.push_back(it.run_s * 1e9 / static_cast<double>(it.events));
    cpu_util.push_back(it.cpu_s / (it.run_s * it.shards));
  }
  if (!a.trace) {
    m = {{"setup_s", median(setups), "s"},
         {"ops_per_s", median(plain_ops), "op/s"},
         {"teardown_s", median(teardown), "s"},
         {"peak_rss_mb", peak_rss_mb(), "MB"},
         {"allocs_per_op", median(allocs), "allocs/op"}};
  } else {
    const Iteration* t = nullptr;  // the last traced iteration
    for (const Iteration& it : its) {
      if (it.traced) t = &it;
    }
    const double ops = static_cast<double>(std::max<std::uint64_t>(1, t->out.completed));
    const auto per = [](double n, double d) { return d > 0 ? n / d : 0.0; };
    const HotStats& send = t->hot[static_cast<int>(Hot::kMtpSend)];
    const HotStats& fwd = t->hot[static_cast<int>(Hot::kNetForward)];
    const HotStats& l7 = t->hot[static_cast<int>(Hot::kL7Process)];
    m = {{"scenario.build_s", t->build_s, "s"},
         {"workload.gen_s", t->gen_s, "s"},
         {"scenario.destroy_s", t->destroy_s, "s"},
         {"telemetry.providers", static_cast<double>(t->providers), "count"},
         {"sim.events", static_cast<double>(t->events), "count"},
         {"sim.events_per_op", static_cast<double>(t->events) / ops, "events/op"},
         {"sim.ns_per_event", median(ns_per_event), "ns"},
         {"sim.run_self_s", t->run_self_s, "s"},
         {"sim.sharded.windows", static_cast<double>(t->windows), "count"},
         {"sim.sharded.cpu_util", median(cpu_util), "ratio"},
         {"sim.sharded.event_imbalance", t->event_imbalance, "ratio"},
         {"sim.flow.resolves", static_cast<double>(t->flow_resolves), "count"},
         {"net.pkt_hops", t->pkt_hops, "count"},
         {"net.hops_per_op", t->pkt_hops / ops, "hops/op"},
         {"net.queue.drops", t->queue_drops, "count"},
         {"net.queue.ecn_marks", t->ecn_marks, "count"},
         {"net.forward.calls", static_cast<double>(fwd.calls), "count"},
         {"net.forward.ns_p50", fwd.hist.quantile(0.5), "ns"},
         {"net.forward.ns_p99", fwd.hist.quantile(0.99), "ns"},
         {"net.forward.allocs_per_call", per(fwd.allocs, fwd.calls), "allocs/call"},
         {"net.forward.self_s", fwd.self_ns * 1e-9, "s"},
         {"mtp.send_calls", static_cast<double>(send.calls), "count"},
         {"mtp.send_ns_p50", send.hist.quantile(0.5), "ns"},
         {"mtp.send_ns_p99", send.hist.quantile(0.99), "ns"},
         {"mtp.allocs_per_send", per(send.allocs, send.calls), "allocs/call"},
         {"mtp.send_message.self_s", send.self_ns * 1e-9, "s"},
         {"mtp.retx_frac", per(t->retx_pkts, t->data_pkts), "ratio"},
         {"mtp.acks_per_data_pkt", per(t->acks, t->data_pkts), "ratio"},
         {"mtp.peak_inflight_msgs", static_cast<double>(t->peak_inflight), "msgs"},
         {"mtp.heap_bytes_per_inflight_msg", t->heap_bytes_per_inflight, "B/msg"},
         {"innetwork.l7lb.process_calls", static_cast<double>(l7.calls), "count"},
         {"innetwork.l7lb.process_ns_p50", l7.hist.quantile(0.5), "ns"},
         {"innetwork.l7lb.process_ns_p99", l7.hist.quantile(0.99), "ns"},
         {"innetwork.l7lb.process.self_s", l7.self_ns * 1e-9, "s"},
         {"trace.overhead_pct", (median(plain_ops) / median(traced_ops) - 1) * 100, "%"}};

    // The per-layer self-time table of the traced iteration. Shares are of
    // its lane time: wall time, with sim.run counted once per shard lane.
    const double lane_s = t->setup_s() + t->run_s * t->shards + t->destroy_s;
    std::printf("\nself time, traced iteration (%s, %u lane%s in sim.run):\n",
                a.workload.c_str(), t->shards, t->shards == 1 ? "" : "s");
    std::printf("  %-26s %12s %12s %8s\n", "span", "calls", "self_s", "share");
    const auto row = [lane_s](const char* name, double calls, double self) {
      std::printf("  %-26s %12.0f %12.6f %7.2f%%\n", name, calls, self, 100 * self / lane_s);
    };
    row("workload.gen", 1, t->gen_s);
    row("scenario.build", 1, t->build_s);
    row("sim.run", t->slices_run, t->run_self_s);
    row("mtp.send_message", static_cast<double>(send.calls), send.self_ns * 1e-9);
    row("net.forward", static_cast<double>(fwd.calls), fwd.self_ns * 1e-9);
    row("innetwork.l7lb.process", static_cast<double>(l7.calls), l7.self_ns * 1e-9);
    row("scenario.destroy", 1, t->destroy_s);
    std::printf("\n");
  }
  for (const Metric& x : m) std::printf("%-36s %18.6f %s\n", x.name.c_str(), x.value, x.unit.c_str());
  print_json(correct, attempted, failed, m);
  return correct ? 0 : 1;
}
