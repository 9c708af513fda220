// Scenario library: one fluent builder for experiment harnesses.
//
// Every figure bench used to hand-roll the same five steps — topology,
// forwarding policy, per-host transports, workload, telemetry sinks — with
// small copy-paste drift between binaries. ScenarioBuilder makes the steps
// explicit and ordered:
//
//   auto s = ScenarioBuilder()
//                .seed(7)
//                .topology(topo::dual_path(/*senders=*/2))
//                .forwarding(Forwarding::kMessageAware)
//                .transport("homa")
//                .workload(std::move(schedule))
//                .goodput_window(32_us)
//                .build();
//   s->run();
//
// Transports are chosen by name from transport::TransportRegistry ("mtp",
// "tcp", "dctcp", "homa", "mptcp", plus whatever tests register); unknown
// names fail listing the registered set. The built Scenario owns the network
// and a transport::TransportFleet — one transport::Transport per sender
// host — so harness code never touches MtpEndpoint / TcpStack unless it
// opts into the concrete accessors. Topologies are plain functors over
// net::Network; the canned ones in namespace topo cover the paper's rigs,
// and callers can pass their own.
//
// .shards(n) partitions the experiment across n sim::sharded space shards
// (net::Network's conservative engine). The workload replays through one
// workload::KeyedReplay per shard — always keyed, even for n = 1, so every
// shard count executes the identical event timeline — and completions are
// logged per shard, merged into fct() on demand. fct() sample *order* is
// shard-grouped; the multiset of samples (and thus every percentile/total)
// is independent of n.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <unordered_map>
#include <vector>

#include "fault/fault.hpp"
#include "mtp/endpoint.hpp"
#include "mtp/stream/stream.hpp"
#include "net/fat_tree.hpp"
#include "net/network.hpp"
#include "proto/boxed.hpp"
#include "sim/flow/fluid.hpp"
#include "stats/stats.hpp"
#include "telemetry/metrics.hpp"
#include "transport/transport.hpp"
#include "workload/workload.hpp"

namespace mtp::scenario {

using namespace mtp::sim::literals;

/// How declared bulk transfers (bulk_transfer) are simulated.
///   kPacket:    paced packet streams — every byte costs per-packet events.
///   kFlowLevel: fluid rate processes (sim::flow) that reserve link capacity
///               along their path; packet traffic sees the residual as
///               serialization-delay inflation. Orders of magnitude fewer
///               events for the same background load.
enum class BulkMode { kPacket, kFlowLevel };

/// Policy applied to every multipath (lb) switch the topology reports.
enum class Forwarding {
  kStatic,       ///< first candidate (models an ECMP hash pin)
  kEcmp,         ///< per-flow hashing
  kSpray,        ///< per-packet spraying
  kMessageAware, ///< the paper's per-message placement
  kAlternating,  ///< time-based path flip (Fig 5's optical switch)
};

/// What a topology functor hands back to the builder.
struct Topology {
  std::vector<net::Host*> senders;
  /// Null means peer-to-peer: every sender also listens, and the caller
  /// drives endpoints directly (bench_scale's any-to-any pattern).
  net::Host* receiver = nullptr;
  std::vector<net::Switch*> lb_switches;  ///< get the Forwarding policy
  std::vector<net::Link*> fault_links;    ///< flap() targets, in order
  std::vector<net::Link*> paths;          ///< parallel sender->receiver paths
  std::shared_ptr<void> keepalive;        ///< owns helper objects (FatTree, ...)
};
using TopologyFn = std::function<Topology(net::Network&)>;

namespace topo {

/// Fig 5: sender -> switch -> receiver over a fast and a slow simplex path.
/// paths[0] is fast, paths[1] slow. Pair with Forwarding::kAlternating.
TopologyFn two_path_flip(sim::Bandwidth fast_bw = sim::Bandwidth::gbps(100),
                         sim::Bandwidth slow_bw = sim::Bandwidth::gbps(10));

/// Fig 6: `senders` hosts share an LB switch toward one receiver over two
/// 100G paths; the second has +1us extra delay.
TopologyFn dual_path(int senders);

/// Fault-recovery fabric: snd -- sw1 ==(two 25G two-hop paths)== sw2 -- rcv.
/// fault_links[0] is the sw1->swA uplink; pathlets 1/2 tag the two choices.
TopologyFn dual_hop_fabric();

/// Fig 7: two tenant hosts -> switch -> 100G/10us bottleneck -> receiver.
/// `make_queue` builds the bottleneck queue (WFQ vs shared drop-tail);
/// default drop-tail 256/ECN 40. paths[0] is the bottleneck link.
TopologyFn shared_bottleneck(
    std::function<std::unique_ptr<net::Queue>()> make_queue = {});

/// Fig 3: `senders` hosts into one switch, one 100G link to the receiver.
TopologyFn incast(int senders);

/// Three-tier fat-tree (net::FatTree) in peer-to-peer mode: every host is a
/// sender, there is no designated receiver, and with transport("mtp") every
/// endpoint listens on dst_port. Drive traffic through the concrete
/// mtp_sender(i) accessors (bench_scale's any-to-any pattern). The
/// Forwarding policy applies to all edge and aggregation switches.
TopologyFn fat_tree(net::FatTree::Config cfg);

}  // namespace topo

/// A built experiment. Move-averse on purpose (callbacks capture `this`);
/// ScenarioBuilder::build() returns it behind a unique_ptr.
class Scenario {
 public:
  net::Network& network() { return *net_; }
  sim::Simulator& simulator() { return net_->simulator(); }
  const Topology& topo() const { return topo_; }
  std::size_t num_senders() const { return topo_.senders.size(); }
  unsigned shards() const { return net_->shards(); }
  /// Conservative windows the sharded engine executed (0 when shards == 1).
  std::uint64_t windows() const { return net_->windows(); }

  /// Unified per-sender submission (bound to receiver:dst_port). Only
  /// available when the topology has a receiver.
  transport::Transport& sender(std::size_t i) { return fleet_->sender(i); }

  /// The whole fleet: name(), per-sender transports, metrics() roll-up.
  transport::TransportFleet& fleet() { return *fleet_; }
  std::string transport_name() const { return fleet_->name(); }
  /// RunReport columns: completions, pkts, retransmits, timeouts, grants.
  transport::TransportMetrics transport_metrics() const { return fleet_->metrics(); }

  // Concrete access for scenario-specific wiring; null when the scenario
  // runs a different transport.
  core::MtpEndpoint* mtp_sender(std::size_t i) {
    auto* f = dynamic_cast<transport::MtpFleet*>(fleet_.get());
    return f ? &f->sender_endpoint(i) : nullptr;
  }
  core::MtpEndpoint* mtp_receiver() {
    auto* f = dynamic_cast<transport::MtpFleet*>(fleet_.get());
    return f ? f->receiver_endpoint() : nullptr;
  }
  transport::TcpStack* tcp_sender(std::size_t i) {
    auto* f = dynamic_cast<transport::TcpFleet*>(fleet_.get());
    return f ? &f->sender_stack(i) : nullptr;
  }
  transport::TcpStack* tcp_receiver() {
    auto* f = dynamic_cast<transport::TcpFleet*>(fleet_.get());
    return f ? f->receiver_stack() : nullptr;
  }

  // Stream mode (ScenarioBuilder::stream_workload): one mtp::stream per
  // sender into the receiver's StreamMux. fct() then records per-record
  // delivery latency (arrival -> in-order delivery at the receiver).
  stream::StreamMux* stream_mux(std::size_t i) {
    return stream_muxes_.empty() ? nullptr : stream_muxes_[i].get();
  }
  stream::StreamMux* stream_receiver() { return stream_rcv_.get(); }
  stream::Stream* stream_sender(std::size_t i) {
    return stream_senders_.empty() ? nullptr : stream_senders_[i];
  }
  /// Sum over every mux (sender sides + receiver side).
  stream::StreamMux::Stats stream_stats() const;
  /// Fold of every mux digest — the shard-equality check for stream runs.
  std::uint64_t stream_digest() const;

  /// Completion-time recorder over every workload completion so far.
  /// Merged lazily from the per-shard logs; sample order is shard-grouped
  /// under shards > 1, the sample multiset is shard-count-invariant.
  stats::FctRecorder& fct();
  /// Order-independent hash of the (fct, bytes) completion multiset — equal
  /// across shard counts for every transport (the conformance check).
  std::uint64_t fct_digest() const;
  /// Receiver-side goodput meter; null unless goodput_window() was set.
  stats::ThroughputMeter* goodput() { return meter_.get(); }
  workload::ArrivalSchedule& schedule() { return schedule_; }
  /// Workload arrivals delivered so far, summed over shards.
  std::size_t replayed() const;

  /// Peer-to-peer topologies: route every workload arrival to `fn` instead
  /// of the built-in sender(i).send_message path. `fn` runs on the simulator
  /// thread of the shard that owns senders[arrival.src], so per-source state
  /// is safe but state shared across sources needs per-shard slots. Must be
  /// set before the first run.
  void set_arrival_handler(workload::ArrivalSchedule::SendFn fn) {
    arrival_handler_ = std::move(fn);
  }

  /// Fluid replica for `shard` (null unless built with BulkMode::kFlowLevel
  /// and at least one bulk_transfer). Replicas are state-identical at equal
  /// sim times; shard 0's is the one to introspect.
  sim::flow::FluidModel* flow_model(unsigned shard = 0) {
    return shard < flow_models_.size() ? flow_models_[shard].get() : nullptr;
  }
  /// Bulk-transfer completions so far, merged across shards and sorted by
  /// transfer index: (index, completion time). In kFlowLevel mode the time
  /// is the fluid model's last-bit time; in kPacket mode the receiver-side
  /// delivery of the last packet.
  std::vector<std::pair<std::uint32_t, sim::SimTime>> bulk_completions() const;
  std::size_t bulk_completed() const;
  std::size_t bulk_transfer_count() const { return bulk_transfers_.size(); }

  /// First call starts the workload replay (and bulk sources), then runs
  /// the network — all shards, under sim::sharded when shards > 1; later
  /// calls just continue. Returns events executed across shards.
  std::uint64_t run(sim::SimTime until);
  std::uint64_t run();  ///< run to quiescence

  telemetry::RegistrySnapshot snapshot() const {
    return telemetry::MetricRegistry::global().snapshot();
  }

 public:
  ~Scenario();

 private:
  friend class ScenarioBuilder;
  struct PacedBulk;
  Scenario();
  void start();
  void start_paced_bulk();
  net::Host* bulk_host(std::uint32_t idx) const;

  /// Declared first, so destroyed last: once the fabric and its packets are
  /// gone, the boxes they parked on this thread go back to the allocator,
  /// and the next build does not allocate around them.
  struct ReleaseParkedBoxes {
    ~ReleaseParkedBoxes() { proto::release_parked_boxes(); }
  } release_parked_boxes_;
  std::unique_ptr<net::Network> net_;
  Topology topo_;
  proto::PortNum dst_port_ = 80;
  std::int64_t bulk_bytes_ = 0;  ///< 0 = no bulk; <0 = endless
  BulkMode bulk_mode_ = BulkMode::kPacket;
  std::vector<workload::BulkTransfer> bulk_transfers_;
  /// One fluid replica per shard (kFlowLevel). Replicas execute identical
  /// event sequences; side effects (link reservations, completion logs) are
  /// installed only on the owning shard's replica.
  std::vector<std::unique_ptr<sim::flow::FluidModel>> flow_models_;
  /// Per-shard bulk completion logs, appended on the owning shard's thread.
  std::vector<std::vector<std::pair<std::uint32_t, sim::SimTime>>> bulk_done_;
  std::vector<std::unique_ptr<PacedBulk>> paced_;       ///< kPacket mode state
  std::vector<std::int64_t> paced_rx_bytes_;            ///< per transfer, receiver side
  bool started_ = false;

  std::unique_ptr<transport::TransportFleet> fleet_;

  // Stream mode. Sender muxes live on sender shards; receiver-side record
  // accounting (cursor/marks) is touched only on the receiver's shard.
  std::vector<std::unique_ptr<stream::StreamMux>> stream_muxes_;
  std::unique_ptr<stream::StreamMux> stream_rcv_;
  std::vector<stream::Stream*> stream_senders_;  ///< one per sender, owned by mux
  std::unordered_map<net::NodeId, std::size_t> stream_src_index_;
  struct RecordMark {
    sim::SimTime at;         ///< workload arrival time
    std::int64_t bytes = 0;  ///< record size
    std::uint64_t cum = 0;   ///< stream byte offset at which it is delivered
  };
  std::vector<std::vector<RecordMark>> record_marks_;  ///< per sender, in order
  std::vector<std::size_t> record_cursor_;
  std::vector<std::size_t> writes_left_;  ///< records not yet written (sender shard)

  std::unique_ptr<stats::ThroughputMeter> meter_;
  stats::FctRecorder fct_;  ///< merged view, rebuilt by fct() when stale
  workload::ArrivalSchedule schedule_;
  std::vector<workload::KeyedReplay> replays_;  ///< one per shard
  /// Per-shard completion logs: appended on the owning shard's thread.
  std::vector<std::vector<std::pair<sim::SimTime, std::int64_t>>> fct_samples_;
  std::size_t fct_merged_ = 0;  ///< samples already folded into fct_
  workload::ArrivalSchedule::SendFn arrival_handler_;
  std::unique_ptr<fault::FaultInjector> faults_;
};

class ScenarioBuilder {
 public:
  ScenarioBuilder& seed(std::uint64_t s) { seed_ = s; return *this; }
  /// Partition the experiment across `n` space shards (sim::sharded). The
  /// timeline, fct() statistics and fault digests are bit-identical for
  /// every n; only wall-clock changes.
  ScenarioBuilder& shards(unsigned n) { shards_ = n; return *this; }
  ScenarioBuilder& topology(TopologyFn fn) { topo_fn_ = std::move(fn); return *this; }
  ScenarioBuilder& forwarding(Forwarding f, sim::SimTime alternating_period = 0_us) {
    forwarding_ = f;
    alternating_period_ = alternating_period;
    return *this;
  }
  /// Pick the transport by registry name ("mtp", "tcp", "dctcp", "homa",
  /// "mptcp", or anything tests registered). Unknown names make build()
  /// throw, listing the registered set.
  ScenarioBuilder& transport(std::string name) {
    transport_ = std::move(name);
    return *this;
  }
  /// Same, with a full per-transport config bundle in one call.
  ScenarioBuilder& transport(std::string name, transport::TransportConfig cfg) {
    transport_ = std::move(name);
    tcfg_ = std::move(cfg);
    return *this;
  }
  ScenarioBuilder& transport_config(transport::TransportConfig cfg) {
    tcfg_ = std::move(cfg);
    return *this;
  }
  ScenarioBuilder& mtp_config(core::MtpConfig cfg) { tcfg_.mtp = std::move(cfg); return *this; }
  /// Overload-control knobs alone, leaving the rest of the MTP config as
  /// configured (receiver-driven admission, watermark shedding, deadlines).
  ScenarioBuilder& mtp_overload(core::MtpConfig::OverloadControl ov) {
    tcfg_.mtp.overload = std::move(ov);
    return *this;
  }
  ScenarioBuilder& tcp_config(transport::TcpConfig cfg) { tcfg_.tcp = std::move(cfg); return *this; }
  ScenarioBuilder& homa_config(transport::HomaConfig cfg) { tcfg_.homa = std::move(cfg); return *this; }
  ScenarioBuilder& mptcp_config(transport::MptcpConfig cfg) { tcfg_.mptcp = std::move(cfg); return *this; }
  ScenarioBuilder& dst_port(proto::PortNum p) { dst_port_ = p; return *this; }
  /// Per-sender traffic class (MessageOptions.tc for MTP, TcpConfig.tc for
  /// TCP). Missing entries default to 0.
  ScenarioBuilder& sender_tcs(std::vector<proto::TrafficClassId> tcs) {
    sender_tcs_ = std::move(tcs);
    return *this;
  }
  /// Open-loop arrivals, replayed on run(): arrival.src picks the sender,
  /// completions land in Scenario::fct().
  ScenarioBuilder& workload(workload::ArrivalSchedule sched) {
    schedule_ = std::move(sched);
    return *this;
  }
  /// Send every workload arrival as one record on a per-sender mtp::stream
  /// (ordered + FEC per `cfg`) instead of as an independent message.
  /// Requires transport("mtp") and a receiver topology. fct() records
  /// per-record delivery latency; each stream finish()es after its last
  /// scheduled record, so run() quiesces once all streams complete.
  ScenarioBuilder& stream_workload(stream::StreamConfig cfg = {}) {
    stream_on_ = true;
    stream_cfg_ = cfg;
    return *this;
  }
  /// One long transfer from sender 0 (bytes < 0 = endless for TCP, a 1 GB
  /// message for MTP) — Fig 5's long-lived flow.
  ScenarioBuilder& bulk(std::int64_t bytes = -1) { bulk_bytes_ = bytes; return *this; }
  /// How declared bulk_transfer()s run: paced packet streams (default) or
  /// fluid rate processes (sim::flow) with no per-packet events.
  ScenarioBuilder& bulk_mode(BulkMode m) { bulk_mode_ = m; return *this; }
  /// Declare one long bulk transfer. src/dst index the topology's sender
  /// hosts; dst == kBulkToReceiver targets the topology receiver instead.
  ScenarioBuilder& bulk_transfer(workload::BulkTransfer t) {
    bulk_transfers_.push_back(t);
    return *this;
  }
  ScenarioBuilder& bulk_transfers(std::vector<workload::BulkTransfer> v) {
    for (const auto& t : v) bulk_transfers_.push_back(t);
    return *this;
  }
  /// Fluid flows may claim at most num/den of any link (default 95/100), so
  /// packet traffic always keeps a serialization residual.
  ScenarioBuilder& flow_capacity_fraction(std::uint32_t num, std::uint32_t den) {
    flow_cap_num_ = num;
    flow_cap_den_ = den;
    return *this;
  }
  /// Mirror the declared foreground workload into the fluid model as
  /// external-load windows on each source's uplink: flows yield (re-solve)
  /// while a declared packet burst occupies a shared conduit. Off by
  /// default — CBR (rate-capped) bulk does not yield to bursts, and that is
  /// the regime the packet-mode oracle compares against.
  ScenarioBuilder& bulk_foreground_coupling(bool on) {
    fg_coupling_ = on;
    return *this;
  }
  /// Take topology fault_links[link] down over [at, at + duration).
  ScenarioBuilder& flap(std::size_t link, sim::SimTime at, sim::SimTime duration) {
    flaps_.push_back({link, at, duration});
    return *this;
  }
  /// Attach a receiver-side ThroughputMeter with this sample window.
  ScenarioBuilder& goodput_window(sim::SimTime w) { goodput_window_ = w; return *this; }

  std::unique_ptr<Scenario> build();

 private:
  struct Flap {
    std::size_t link;
    sim::SimTime at;
    sim::SimTime duration;
  };

  std::uint64_t seed_ = 1;
  unsigned shards_ = 1;
  TopologyFn topo_fn_;
  Forwarding forwarding_ = Forwarding::kStatic;
  sim::SimTime alternating_period_ = 0_us;
  std::string transport_ = "mtp";
  transport::TransportConfig tcfg_;
  proto::PortNum dst_port_ = 80;
  std::vector<proto::TrafficClassId> sender_tcs_;
  bool stream_on_ = false;
  stream::StreamConfig stream_cfg_;
  workload::ArrivalSchedule schedule_;
  std::int64_t bulk_bytes_ = 0;
  BulkMode bulk_mode_ = BulkMode::kPacket;
  std::vector<workload::BulkTransfer> bulk_transfers_;
  std::uint32_t flow_cap_num_ = 95;
  std::uint32_t flow_cap_den_ = 100;
  bool fg_coupling_ = false;
  std::vector<Flap> flaps_;
  sim::SimTime goodput_window_ = 0_us;

  void wire_flow_level(Scenario& s);
};

/// bulk_transfer() dst sentinel: target the topology's receiver host.
inline constexpr std::uint32_t kBulkToReceiver = 0xffffffffu;

}  // namespace mtp::scenario
