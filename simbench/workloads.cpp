#include "workloads.hpp"

#include <sched.h>

#include <algorithm>
#include <stdexcept>
#include <thread>

#include "innetwork/l7_lb.hpp"
#include "net/forwarding.hpp"
#include "sim/random.hpp"
#include "tracer.hpp"

namespace simbench {

using namespace mtp;
using namespace mtp::sim::literals;

namespace {

std::uint64_t splitmix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

unsigned available_cores() {
  cpu_set_t set;
  if (sched_getaffinity(0, sizeof(set), &set) == 0 && CPU_COUNT(&set) > 0) {
    return static_cast<unsigned>(CPU_COUNT(&set));
  }
  const unsigned hw = std::thread::hardware_concurrency();
  return hw > 0 ? hw : 1;
}

/// Fat-tree fabric with the benchmark's own per-switch policy factory, so a
/// traced run can wrap every policy in a TracedPolicy. `wire` adds devices
/// and routes after the fabric exists. The returned Topology lists no
/// lb_switches: the factory has already installed every policy.
scenario::TopologyFn fabric(int k, bool message_aware, bool traced,
                            std::function<void(net::FatTree&)> wire = {}) {
  return [=](net::Network& net) {
    net::FatTree::PolicyFactory factory = [message_aware, traced] {
      std::unique_ptr<net::ForwardingPolicy> p;
      if (message_aware) {
        p = std::make_unique<net::MessageAwarePolicy>();
      } else {
        p = std::make_unique<net::EcmpPolicy>();
      }
      if (traced) p = std::make_unique<TracedPolicy>(std::move(p));
      return p;
    };
    auto ft = std::make_shared<net::FatTree>(net, net::FatTree::Config{.k = k}, factory);
    if (wire) wire(*ft);
    scenario::Topology t;
    t.senders = ft->hosts();
    t.keepalive = std::move(ft);
    return t;
  };
}

// ------------------------------------------------------------------ burst

/// Every host sends `msgs_per_host` x 10 KB MTP messages to the host 37
/// ranks away inside the first 10 us (per-seed jitter inside each host's
/// 10us/msgs_per_host slot keeps every host's own order). With fluid_bulk a
/// fluid bulk ring (one 4 MB, 20 Gbps-capped transfer per 8 hosts, to the
/// host half a fabric away) shares the fabric: the hybrid tenant-isolation
/// rig of scenario::hybrid::tenant_isolation.
class Burst final : public Experiment {
 public:
  struct Params {
    int k;
    int msgs_per_host;
    unsigned shards;
    bool fluid_bulk;
    sim::SimTime horizon;
  };
  Burst(bool traced, Params p) : Experiment(traced), p_(p), hosts_(p.k * p.k * p.k / 4) {}

  void generate(std::uint64_t seed) override {
    seed_ = seed;
    sim::Rng rng(seed);
    const std::int64_t slot = 10'000 / p_.msgs_per_host;
    struct Item {
      std::int64_t at;
      std::uint32_t src;
    };
    std::vector<Item> items;
    items.reserve(static_cast<std::size_t>(hosts_) * p_.msgs_per_host);
    for (int m = 0; m < p_.msgs_per_host; ++m) {
      for (int h = 0; h < hosts_; ++h) {
        items.push_back({1 + m * slot + rng.uniform_int(0, slot - 2),
                         static_cast<std::uint32_t>(h)});
      }
    }
    std::stable_sort(items.begin(), items.end(),
                     [](const Item& a, const Item& b) { return a.at < b.at; });
    sched_ = workload::ArrivalSchedule{};
    for (const Item& it : items) sched_.add(sim::SimTime::nanoseconds(it.at), it.src, 10'000);
    bulk_.clear();
    if (p_.fluid_bulk) {
      for (int i = 0; i < hosts_ / 8; ++i) {
        bulk_.push_back({.at = sim::SimTime::nanoseconds(1 + i * 200),
                         .src = static_cast<std::uint32_t>(i * 8),
                         .dst = static_cast<std::uint32_t>((i * 8 + hosts_ / 2) % hosts_),
                         .bytes = 4'000'000,
                         .rate_cap_bps = 20'000'000'000LL});
      }
    }
    reset_ops(items.size(), p_.shards);
    next_m_.assign(hosts_, 0);
  }

  void build() override {
    scenario::ScenarioBuilder b;
    b.seed(seed_)
        .shards(p_.shards)
        .topology(fabric(p_.k, /*message_aware=*/false, traced_))
        .transport("mtp")
        .workload(std::move(sched_));
    if (!bulk_.empty()) b.bulk_transfers(bulk_).bulk_mode(scenario::BulkMode::kFlowLevel);
    scenario_ = b.build();
    scenario::Scenario* sp = scenario_.get();
    sp->set_arrival_handler([this, sp](const workload::ArrivalSchedule::Arrival& a) {
      const int src = static_cast<int>(a.src);
      // Per-host arrivals replay in order, so the host's m-th arrival is op
      // m * hosts + src; next_m_[src] is touched only by src's shard.
      const auto op = static_cast<std::uint32_t>(next_m_[src]++ * hosts_ + src);
      const unsigned shard = sp->network().shard_of(*sp->topo().senders[src]);
      issue(op, shard, a.at);
      send(*sp->mtp_sender(a.src), sp->topo().senders[(src + 37) % hosts_]->id(), a.bytes,
           {.dst_port = 80}, op, [this, op, shard](proto::MsgId, sim::SimTime fct) {
             complete(op, shard, fct);
           });
    });
  }

  std::vector<sim::SimTime> slices() const override { return {10_us, p_.horizon}; }

  Outcome outcome() const override {
    Outcome o = Experiment::outcome();
    // Bulk completion times fold in exactly (index, last-bit time).
    for (const auto& [idx, at] : scenario_->bulk_completions()) {
      o.digest ^= splitmix64((std::uint64_t{idx} << 40) ^ static_cast<std::uint64_t>(at.ns()));
    }
    return o;
  }

  void check(const telemetry::RegistrySnapshot&,
             std::vector<std::string>& violations) const override {
    if (scenario_->bulk_completed() != bulk_.size()) {
      violations.push_back("bulk transfers completed " +
                           std::to_string(scenario_->bulk_completed()) + " of " +
                           std::to_string(bulk_.size()));
    }
  }

 private:
  Params p_;
  int hosts_;
  std::uint64_t seed_ = 0;
  workload::ArrivalSchedule sched_;
  std::vector<workload::BulkTransfer> bulk_;
  std::vector<std::uint32_t> next_m_;
};

// -------------------------------------------------------------------- rpc

/// Open-loop Poisson RPCs on a k=8 fat-tree with message-aware forwarding.
/// Every edge switch runs an L7LoadBalancer that fronts its rack as one
/// virtual service; each RPC goes from a uniformly random host to a random
/// other rack's service, whose balancer picks the replica. Requests are
/// 200-2000 B (1-2 packets); responses are bounded-Pareto 500 B - 50 KB.
/// The aggregate rate offers each host half its link rate in request plus
/// response bytes (sim time). An op completes when the client receives the
/// whole response.
class Rpc final : public Experiment {
 public:
  static constexpr int kK = 8;
  static constexpr double kLoad = 0.5;
  static constexpr net::NodeId kVirtualBase = 0x40000000u;
  static constexpr proto::PortNum kServicePort = 80;
  static constexpr proto::PortNum kReplyPort = 9000;
  static constexpr std::int64_t kRequestMin = 200;
  static constexpr std::int64_t kRequestMax = 2000;

  Rpc(bool traced, sim::SimTime arrivals_for) : Experiment(traced), span_(arrivals_for) {}

  void generate(std::uint64_t seed) override {
    seed_ = seed;
    sim::Rng rng(seed);
    const int half = kK / 2;
    const int hosts = kK * kK * kK / 4;
    const int racks = kK * half;
    const auto resp = workload::SizeDist::skewed(500, 50'000);
    const double bytes_per_rpc = (kRequestMin + kRequestMax) / 2.0 + resp.mean();
    const double host_bytes_per_s = 100e9 / 8.0 * kLoad;
    const double rpcs_per_s = host_bytes_per_s / bytes_per_rpc * hosts;
    const sim::SimTime gap = sim::SimTime::from_seconds(1.0 / rpcs_per_s);

    sched_ = workload::ArrivalSchedule{};
    rack_.clear();
    resp_bytes_.clear();
    std::vector<std::size_t> per_host(hosts, 1), per_rack(racks, 0);
    for (sim::SimTime t = rng.exponential_time(gap); t < span_;
         t += rng.exponential_time(gap)) {
      const auto src = static_cast<std::uint32_t>(rng.uniform_int(0, hosts - 1));
      const int own = static_cast<int>(src) / half;
      int rack = static_cast<int>(rng.uniform_int(0, racks - 2));
      if (rack >= own) ++rack;
      sched_.add(t, src, rng.uniform_int(kRequestMin, kRequestMax));
      rack_.push_back(static_cast<std::uint16_t>(rack));
      resp_bytes_.push_back(static_cast<std::uint32_t>(resp.sample(rng)));
      ++per_host[src];
      ++per_rack[rack];
    }
    // msg id -> op tables, sized for the most messages each host can send
    // (its requests plus every request its rack could route to it), so the
    // run phase never grows them.
    op_of_msg_.assign(hosts, {});
    for (int h = 0; h < hosts; ++h) op_of_msg_[h].assign(per_host[h] + per_rack[h / half] + 1, 0);
    reset_ops(sched_.size(), 1);
    next_op_ = 0;
  }

  void build() override {
    const int half = kK / 2;
    auto wire = [half, traced = traced_](net::FatTree& ft) {
      for (int p = 0; p < kK; ++p) {
        for (int e = 0; e < half; ++e) {
          const net::NodeId vs = kVirtualBase + static_cast<net::NodeId>(p * half + e);
          innetwork::L7LoadBalancer::Config cfg;
          cfg.virtual_service = vs;
          cfg.service_port = kServicePort;
          for (int h = 0; h < half; ++h) cfg.replicas.push_back(ft.host(p, e, h)->id());
          cfg.name = "rack" + std::to_string(p * half + e);
          std::shared_ptr<net::IngressProcessor> lb =
              std::make_shared<innetwork::L7LoadBalancer>(std::move(cfg));
          if (traced) lb = std::make_shared<TracedIngress>(std::move(lb));
          ft.edge(p, e)->add_ingress(std::move(lb));
          // The service address routes like a host of that rack.
          for (int a = 0; a < half; ++a) {
            ft.agg(p, a)->add_route(vs, static_cast<net::PortIndex>(e));
          }
          for (int c = 0; c < ft.num_cores(); ++c) {
            ft.core(c)->add_route(vs, static_cast<net::PortIndex>(p));
          }
        }
      }
    };
    scenario_ = scenario::ScenarioBuilder()
                    .seed(seed_)
                    .topology(fabric(kK, /*message_aware=*/true, traced_, wire))
                    .transport("mtp")
                    .workload(sched_)
                    .build();
    scenario::Scenario* sp = scenario_.get();
    const auto& hosts = sp->topo().senders;
    net::NodeId max_id = 0;
    for (const net::Host* h : hosts) max_id = std::max(max_id, h->id());
    index_of_.assign(max_id + 1, -1);
    for (std::size_t i = 0; i < hosts.size(); ++i) index_of_[hosts[i]->id()] = static_cast<int>(i);

    for (std::size_t i = 0; i < hosts.size(); ++i) {
      core::MtpEndpoint* ep = sp->mtp_sender(i);
      // Server: answer each request from the client's msg id -> op table.
      ep->listen(kServicePort, [this, ep, i](const core::ReceivedMessage& m) {
        const std::uint32_t op = op_of_msg_[index_of_[m.src]][m.msg_id];
        const proto::MsgId id =
            send(*ep, m.src, resp_bytes_[op], {.dst_port = kReplyPort}, op);
        op_of_msg_[i][id] = op;
      });
      // Client: the response completes the op.
      ep->listen(kReplyPort, [this](const core::ReceivedMessage& m) {
        const std::uint32_t op = op_of_msg_[index_of_[m.src]][m.msg_id];
        complete(op, 0, m.completed_at - sched_.arrivals()[op].at);
      });
    }
    sp->set_arrival_handler([this, sp](const workload::ArrivalSchedule::Arrival& a) {
      const std::uint32_t op = next_op_++;
      issue(op, 0, a.at);
      const net::NodeId vs = kVirtualBase + rack_[op];
      const proto::MsgId id =
          send(*sp->mtp_sender(a.src), vs, a.bytes, {.dst_port = kServicePort}, op);
      op_of_msg_[a.src][id] = op;
    });
  }

  std::vector<sim::SimTime> slices() const override {
    return {span_ / 4, span_ / 2, span_ * 3 / 4, span_, span_ + 20_ms};
  }

  void check(const telemetry::RegistrySnapshot& snap,
             std::vector<std::string>& violations) const override {
    const auto assigned = static_cast<std::uint64_t>(snap.total("l7_lb", "requests_assigned"));
    if (assigned != next_op_) {
      violations.push_back("l7_lb assigned " + std::to_string(assigned) + " requests, " +
                           std::to_string(next_op_) + " sent");
    }
  }

 private:
  sim::SimTime span_;
  std::uint64_t seed_ = 0;
  workload::ArrivalSchedule sched_;
  std::vector<std::uint16_t> rack_;
  std::vector<std::uint32_t> resp_bytes_;
  std::vector<std::vector<std::uint32_t>> op_of_msg_;  ///< [host][msg id] -> op
  std::vector<int> index_of_;                          ///< NodeId -> host index
  std::uint32_t next_op_ = 0;  ///< requests sent so far
};

}  // namespace

// ------------------------------------------------------------- Experiment

void Experiment::reset_ops(std::size_t n, unsigned shards) {
  counts_.assign(shards, ShardCount{});
  start_ns_.assign(n, 0);
  latency_ns_.assign(n, -1);
}

proto::MsgId Experiment::send(core::MtpEndpoint& ep, net::NodeId dst, std::int64_t bytes,
                              core::MessageOptions opts, std::uint32_t op,
                              core::MtpEndpoint::DoneFn done) {
  if (!traced_) return ep.send_message(dst, bytes, std::move(opts), std::move(done));
  HotSpan span(Hot::kMtpSend, op);
  return ep.send_message(dst, bytes, std::move(opts), std::move(done));
}

std::uint64_t Experiment::inflight() const {
  std::uint64_t n = 0;
  for (const ShardCount& c : counts_) n += c.issued - c.completed;
  return n;
}

bool Experiment::all_done() const {
  std::uint64_t completed = 0;
  for (const ShardCount& c : counts_) completed += c.completed;
  return completed == total_ops();
}

std::uint64_t Experiment::peak_inflight() const {
  std::uint64_t n = 0;
  for (const ShardCount& c : counts_) n += c.peak;
  return n;
}

Outcome Experiment::outcome() const {
  Outcome o;
  for (const ShardCount& c : counts_) {
    o.attempted += c.issued;
    o.completed += c.completed;
    o.duplicates += c.duplicates;
  }
  // Fold (op, latency) in op order: independent of completion interleaving
  // and of the shard count.
  std::vector<std::int64_t> lat;
  lat.reserve(o.completed);
  std::uint64_t d = 0x2545f4914f6cdd1dULL;
  for (std::size_t op = 0; op < latency_ns_.size(); ++op) {
    d = splitmix64(d ^ (op << 1) ^ static_cast<std::uint64_t>(latency_ns_[op]));
    if (latency_ns_[op] >= 0) lat.push_back(latency_ns_[op]);
  }
  o.digest = d;
  if (!lat.empty()) {
    std::sort(lat.begin(), lat.end());
    o.p50_us = static_cast<double>(lat[(lat.size() - 1) / 2]) / 1e3;
    o.p99_us = static_cast<double>(lat[(lat.size() - 1) * 99 / 100]) / 1e3;
  }
  return o;
}

/// Fat-tree arity of tenants_k32; README.md explains why it is not 32.
constexpr int kTenantsK = 20;

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names{"burst_k8", "rpc_l7lb", "tenants_k32"};
  return names;
}

unsigned workload_shards(const std::string& name) {
  return name == "tenants_k32" ? std::min(4u, available_cores()) : 1u;
}

std::unique_ptr<Experiment> make_experiment(const std::string& name, bool traced) {
  if (name == "burst_k8") {
    return std::make_unique<Burst>(traced, Burst::Params{8, 800, 1, false, 200_ms});
  }
  if (name == "rpc_l7lb") return std::make_unique<Rpc>(traced, 75_us);
  if (name == "tenants_k32") {
    return std::make_unique<Burst>(
        traced, Burst::Params{kTenantsK, 8, workload_shards(name), true, 50_ms});
  }
  throw std::invalid_argument("unknown workload '" + name + "'");
}

}  // namespace simbench
