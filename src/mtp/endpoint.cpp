#include "mtp/endpoint.hpp"

#include <algorithm>
#include <cassert>
#include <utility>

#include "sim/logging.hpp"
#include "telemetry/trace.hpp"

namespace mtp::core {

namespace {
std::uint64_t mtp_flow_hash(net::NodeId a, proto::PortNum ap, net::NodeId b,
                            proto::PortNum bp) {
  std::uint64_t h = (static_cast<std::uint64_t>(a) << 48) ^
                    (static_cast<std::uint64_t>(b) << 32) ^
                    (static_cast<std::uint64_t>(ap) << 16) ^ bp;
  h ^= h >> 30;
  h *= 0xbf58476d1ce4e5b9ULL;
  h ^= h >> 27;
  return h;
}
}  // namespace

MtpEndpoint::MtpEndpoint(net::Host& host, MtpConfig cfg)
    : host_(host), cfg_(cfg), sim_(host.simulator()) {
  host_.set_mtp_handler([this](net::Packet&& pkt) { on_packet(std::move(pkt)); });
  paths_.push_back({proto::kDefaultPathlet});  // PathIndex 0 = default path
  // Retransmission timers live on the simulator's shared timer wheel, one
  // per message with in-flight packets — an idle endpoint leaves the event
  // queue empty (simulations can run to quiescence).
  ack_flush_task_ = std::make_unique<sim::PeriodicTask>(
      sim_, cfg_.ack_flush_timeout, [this] { flush_acks(); });
  metrics_ = telemetry::MetricRegistry::global().add(
      "mtp", host_.name(), [this](std::vector<telemetry::MetricSample>& out) {
        using telemetry::MetricKind;
        out.push_back({"pkts_sent", MetricKind::kCounter,
                       static_cast<double>(pkts_sent_)});
        out.push_back({"pkts_retransmitted", MetricKind::kCounter,
                       static_cast<double>(pkts_retx_)});
        out.push_back({"acks_sent", MetricKind::kCounter,
                       static_cast<double>(acks_sent_)});
        out.push_back({"msgs_delivered", MetricKind::kCounter,
                       static_cast<double>(msgs_delivered_)});
        out.push_back({"outstanding_messages", MetricKind::kGauge,
                       static_cast<double>(outgoing_.size())});
        out.push_back({"known_pathlets", MetricKind::kGauge,
                       static_cast<double>(known_pathlets())});
        out.push_back({"srtt_us", MetricKind::kGauge,
                       rtt_valid_ ? static_cast<double>(srtt_.ns()) / 1000.0 : 0.0});
        out.push_back({"checksum_drops", MetricKind::kCounter,
                       static_cast<double>(checksum_drops_)});
        out.push_back({"rto_backoff", MetricKind::kGauge, rto_backoff_});
        out.push_back({"excluded_pathlets", MetricKind::kGauge,
                       static_cast<double>(excluded_until_.size())});
      });
  if (cfg_.overload.enabled) {
    admission_ = overload::Admission(cfg_.overload.admission);
    overload_metrics_ = telemetry::MetricRegistry::global().add(
        "overload", host_.name(),
        [this](std::vector<telemetry::MetricSample>& out) {
          using telemetry::MetricKind;
          out.push_back({"grants_issued", MetricKind::kCounter,
                         static_cast<double>(grants_issued_)});
          out.push_back({"busy_rejects_sent", MetricKind::kCounter,
                         static_cast<double>(busy_rejects_sent_)});
          out.push_back({"msgs_rejected", MetricKind::kCounter,
                         static_cast<double>(msgs_rejected_)});
          out.push_back({"deadline_expiries", MetricKind::kCounter,
                         static_cast<double>(deadline_expiries_)});
          out.push_back({"service_rate_gbps", MetricKind::kGauge,
                         admission_.rate_gbps()});
          out.push_back({"active_senders", MetricKind::kGauge,
                         static_cast<double>(admission_.active_senders())});
        });
  }
}

MtpEndpoint::~MtpEndpoint() = default;

// ------------------------------------------------------------------ sender

proto::MsgId MtpEndpoint::send_message(net::NodeId dst, std::int64_t bytes,
                                       MessageOptions opts, DoneFn on_delivered) {
  assert(bytes > 0 && "empty messages are not a thing in MTP");
  const proto::MsgId id = next_msg_id_++;
  OutgoingMessage msg;
  msg.id = id;
  msg.dst = dst;
  msg.opts = std::move(opts);
  msg.total_bytes = bytes;
  msg.total_pkts = static_cast<std::uint32_t>((bytes + cfg_.mss - 1) / cfg_.mss);
  msg.pkts.assign(msg.total_pkts, PktMeta{});
  msg.started_at = sim_.now();
  msg.done = std::move(on_delivered);
  OutgoingMessage& slot = outgoing_.emplace(id, std::move(msg)).first->second;
  if (cfg_.scheduling == MtpConfig::Scheduling::kSrpt) {
    srpt_order_.push_back(id);
  } else {
    enqueue_send(slot, /*urgent=*/false);
  }
  pump();
  return id;
}

MtpEndpoint::SendGroup& MtpEndpoint::group_for(const OutgoingMessage& msg) {
  const std::uint64_t key = (static_cast<std::uint64_t>(msg.dst) << 16) |
                            (static_cast<std::uint64_t>(msg.opts.tc) << 8) |
                            msg.opts.priority;
  auto it = group_index_.find(key);
  if (it != group_index_.end()) return *it->second;
  auto group = std::make_unique<SendGroup>();
  group->dst = msg.dst;
  group->tc = msg.opts.tc;
  group->priority = msg.opts.priority;
  SendGroup* raw = group.get();
  // Keep groups_ ordered by priority (desc), creation order within a level —
  // the same service order the old global stable sort produced.
  auto pos = groups_.begin();
  while (pos != groups_.end() && (*pos)->priority >= raw->priority) ++pos;
  groups_.insert(pos, std::move(group));
  group_index_.emplace(key, raw);
  return *raw;
}

void MtpEndpoint::enqueue_send(OutgoingMessage& msg, bool urgent) {
  // SRPT re-derives its service order from srpt_order_ each pump and never
  // drains the group queues, so don't grow them.
  if (cfg_.scheduling == MtpConfig::Scheduling::kSrpt) return;
  if (msg.send_queued) return;
  msg.send_queued = true;
  SendGroup& g = group_for(msg);
  if (urgent) {
    g.q.push_front(msg.id);
  } else {
    g.q.push_back(msg.id);
  }
}

void MtpEndpoint::listen(proto::PortNum port, MessageHandler handler) {
  handlers_[port] = std::move(handler);
}

void MtpEndpoint::exclude_pathlet(proto::PathletId pathlet, sim::SimTime duration) {
  excluded_until_[pathlet] = sim_.now() + duration;
  // Forget learned paths that cross the excluded pathlet: new packets to
  // those destinations fall back to the per-destination virtual pathlet and
  // the next ACK teaches the rerouted path. Without this, the sender would
  // keep charging (and capping traffic to) a path it just asked the network
  // to stop using.
  for (auto it = current_path_.begin(); it != current_path_.end();) {
    const auto& pathlets = paths_[it->second];
    const bool crosses =
        std::find(pathlets.begin(), pathlets.end(), pathlet) != pathlets.end();
    it = crosses ? current_path_.erase(it) : ++it;
  }
}

void MtpEndpoint::stamp_exclusions(proto::MtpHeader& hdr) {
  // Only a live exclusion takes the header's list box: the data path sends
  // without one.
  for (auto it = excluded_until_.begin(); it != excluded_until_.end();) {
    if (it->second <= sim_.now()) {
      it = excluded_until_.erase(it);
    } else {
      hdr.path_exclude().push_back({it->first, 0});
      ++it;
    }
  }
}

void MtpEndpoint::penalize(proto::PathletId pathlet, proto::TrafficClassId tc,
                           LossKind kind) {
  const sim::SimTime gap =
      rtt_valid_ ? std::max(srtt_ * 2, cfg_.retx_scan_period) : cfg_.min_rto;
  CcState& st = cc_[CcKey{pathlet, tc}];
  if (st.decreased_once && sim_.now() - st.last_decrease < gap) return;
  st.last_decrease = sim_.now();
  st.decreased_once = true;
  if (!st.algo) st.algo = make_cc(proto::FeedbackType::kNone, cfg_.cc);
  st.algo->on_loss(kind);
  if (cfg_.auto_exclude_after_losses > 0 && kind == LossKind::kTimeout &&
      ++consecutive_losses_[pathlet] >= cfg_.auto_exclude_after_losses) {
    exclude_pathlet(pathlet, cfg_.exclude_duration);
    consecutive_losses_[pathlet] = 0;
  }
}

PathletCc& MtpEndpoint::cc(proto::PathletId pathlet, proto::TrafficClassId tc,
                           proto::FeedbackType type_hint) {
  CcState& st = cc_[CcKey{pathlet, tc}];
  if (!st.algo) st.algo = make_cc(type_hint, cfg_.cc);
  return *st.algo;
}

const PathletCc* MtpEndpoint::pathlet_cc(proto::PathletId id,
                                         proto::TrafficClassId tc) const {
  auto it = cc_.find(CcKey{id, tc});
  return it == cc_.end() ? nullptr : it->second.algo.get();
}

MtpEndpoint::PathIndex MtpEndpoint::intern_path(
    const std::vector<proto::PathletId>& pathlets) {
  for (std::size_t i = 0; i < paths_.size(); ++i) {
    if (paths_[i] == pathlets) return static_cast<PathIndex>(i);
  }
  paths_.push_back(pathlets);
  return static_cast<PathIndex>(paths_.size() - 1);
}

std::vector<proto::PathletId> MtpEndpoint::current_path(net::NodeId dst) const {
  auto it = current_path_.find(dst);
  if (it == current_path_.end()) return {};
  return paths_[it->second];
}

bool MtpEndpoint::admit(PathIndex path, proto::TrafficClassId tc, std::int64_t bytes) {
  for (const proto::PathletId p : paths_[path]) {
    auto it = cc_.find(CcKey{p, tc});
    if (it == cc_.end()) {
      if (bytes > cfg_.cc.init_window_bytes()) return false;
      continue;
    }
    const CcState& st = it->second;
    const std::int64_t wnd =
        st.algo ? st.algo->window_bytes() : cfg_.cc.init_window_bytes();
    if (st.inflight + bytes > wnd) return false;
  }
  return true;
}

void MtpEndpoint::charge(PathIndex path, proto::TrafficClassId tc, std::int64_t bytes) {
  for (const proto::PathletId p : paths_[path]) cc_[CcKey{p, tc}].inflight += bytes;
}

void MtpEndpoint::uncharge(PathIndex path, proto::TrafficClassId tc, std::int64_t bytes) {
  for (const proto::PathletId p : paths_[path]) {
    auto it = cc_.find(CcKey{p, tc});
    if (it != cc_.end()) {
      it->second.inflight = std::max<std::int64_t>(0, it->second.inflight - bytes);
    }
  }
}

void MtpEndpoint::pump() {
  if (cfg_.scheduling == MtpConfig::Scheduling::kSrpt) {
    pump_srpt();
    return;
  }
  // Serve groups in priority order; inside a group, drain messages FIFO
  // until one is window-blocked — every message behind it shares the same
  // (dst-derived path, tc) admission budget, so it would block too. A parked
  // message keeps send_queued and is retried when its group's window frees.
  for (const auto& gp : groups_) {
    SendGroup& g = *gp;
    while (!g.q.empty()) {
      auto it = outgoing_.find(g.q.front());
      if (it == outgoing_.end()) {  // completed since it queued
        g.q.pop_front();
        continue;
      }
      OutgoingMessage& msg = it->second;
      if (!service_msg(msg)) break;
      msg.send_queued = false;
      g.q.pop_front();
    }
  }
}

/// Shortest remaining processing time: fewest unacknowledged packets first;
/// application priority still dominates. Re-sorting by remaining work on
/// every pump is inherently O(n log n) — SRPT keeps the old global-scan
/// machinery and is not meant for six-digit message counts.
void MtpEndpoint::pump_srpt() {
  if (srpt_order_.empty()) return;
  std::erase_if(srpt_order_, [this](proto::MsgId id) { return !outgoing_.contains(id); });
  // `order` is a reused member scratch: pump runs once per received ack, and
  // a fresh vector here was one malloc/free per call.
  std::vector<proto::MsgId>& order = pump_order_;
  order.assign(srpt_order_.begin(), srpt_order_.end());
  if (order.size() > 1) {
    std::stable_sort(order.begin(), order.end(), [this](proto::MsgId a, proto::MsgId b) {
      const OutgoingMessage& ma = outgoing_.at(a);
      const OutgoingMessage& mb = outgoing_.at(b);
      if (ma.opts.priority != mb.opts.priority) {
        return ma.opts.priority > mb.opts.priority;
      }
      return ma.total_pkts - ma.sacked < mb.total_pkts - mb.sacked;
    });
  }
  for (const proto::MsgId id : order) {
    auto it = outgoing_.find(id);
    if (it == outgoing_.end()) continue;
    service_msg(it->second);
  }
}

bool MtpEndpoint::service_msg(OutgoingMessage& msg) {
  // Retransmissions first: they unblock message completion.
  while (!msg.retx_queue.empty()) {
    const std::uint32_t pkt = msg.retx_queue.front();
    if (msg.state(pkt) != PktState::kLost) {  // already re-sacked meanwhile
      msg.retx_queue.pop_front();
      continue;
    }
    if (!try_send_pkt(msg, pkt, /*is_retx=*/true)) return false;
    msg.retx_queue.pop_front();
  }
  while (msg.next_unsent < msg.total_pkts) {
    if (!try_send_pkt(msg, msg.next_unsent, /*is_retx=*/false)) return false;
    ++msg.next_unsent;
  }
  return true;
}

bool MtpEndpoint::try_send_pkt(OutgoingMessage& msg, std::uint32_t pkt, bool is_retx) {
  auto path_it = current_path_.find(msg.dst);
  if (path_it == current_path_.end()) {
    // No feedback learned yet: use a per-destination default pathlet. One
    // pathlet covering the whole network mimics TCP (paper §4), and TCP
    // state is per-connection — so the default window is per destination,
    // keeping an unreachable destination from starving the others.
    const proto::PathletId virtual_id =
        kVirtualPathletFlag | (msg.dst & ~kVirtualPathletFlag);
    path_it = current_path_.emplace(msg.dst, intern_path({virtual_id})).first;
  }
  const PathIndex path = path_it->second;
  const std::int64_t bytes = msg.pkt_len(pkt, cfg_.mss);
  if (!admit(path, msg.opts.tc, bytes)) return false;
  if (!grant_admit(msg.dst, bytes)) return false;
  charge(path, msg.opts.tc, bytes);
  grant_charge(msg.dst, bytes);
  msg.pkts[pkt].charged_path = path;
  msg.set_state(pkt, PktState::kInflight);
  msg.pkts[pkt].sent_at = sim_.now();
  if (is_retx) {
    msg.mark_retransmitted(pkt);
    ++pkts_retx_;
  }
  msg.inflight_fifo.push_back(pkt, msg.total_pkts);
  if (!sim_.timers().armed(msg.retx_timer)) arm_retx(msg, sim_.now() + rto());
  send_data_pkt(msg, pkt, path);
  return true;
}

void MtpEndpoint::send_data_pkt(OutgoingMessage& msg, std::uint32_t pkt, PathIndex) {
  net::Packet p;
  p.src = host_.id();
  p.dst = msg.dst;
  p.payload_bytes = msg.pkt_len(pkt, cfg_.mss);
  p.ecn = net::Ecn::kEct;
  p.tc = msg.opts.tc;
  p.priority = msg.opts.priority;
  p.flow_hash = mtp_flow_hash(p.src, msg.opts.src_port, msg.dst, msg.opts.dst_port);
  p.uid = sim_.next_packet_uid();

  auto& hdr = p.header.emplace<proto::MtpHeader>();
  hdr.src_port = msg.opts.src_port;
  hdr.dst_port = msg.opts.dst_port;
  hdr.type = proto::MtpPacketType::kData;
  hdr.msg_id = msg.id;
  hdr.priority = msg.opts.priority;
  hdr.tc = msg.opts.tc;
  hdr.msg_len_bytes = static_cast<std::uint64_t>(msg.total_bytes);
  hdr.msg_len_pkts = msg.total_pkts;
  hdr.pkt_num = pkt;
  hdr.pkt_offset = static_cast<std::uint64_t>(pkt) * cfg_.mss;
  hdr.pkt_len = p.payload_bytes;
  stamp_exclusions(hdr);
  if (pkt == 0 && msg.opts.app) p.app = *msg.opts.app;
  if (pkt == 0 && msg.opts.stream) hdr.stream = *msg.opts.stream;
  if (pkt == 0 && msg.opts.deadline.ns() > 0) {
    hdr.overload.ensure().deadline_ns =
        static_cast<std::uint64_t>(msg.opts.deadline.ns());
  }
  p.header_bytes = cfg_.base_header_bytes +
                   static_cast<std::uint32_t>(std::as_const(hdr).path_exclude().size() * 5);
  ++pkts_sent_;
  host_.send(std::move(p));
}

void MtpEndpoint::complete_outgoing(OutgoingMessage& msg) {
  const sim::SimTime fct = sim_.now() - msg.started_at;
  auto done = std::move(msg.done);
  const proto::MsgId id = msg.id;
  sim_.timers().cancel(msg.retx_timer);
  outgoing_.erase(id);  // msg is dangling beyond this point
  if (done) done(id, fct);
}

void MtpEndpoint::rtt_sample(sim::SimTime sample) {
  if (!rtt_valid_) {
    srtt_ = sample;
    rttvar_ = sample / 2;
    rtt_valid_ = true;
  } else {
    const sim::SimTime err = sample >= srtt_ ? sample - srtt_ : srtt_ - sample;
    rttvar_ = rttvar_.scaled(0.75) + err.scaled(0.25);
    srtt_ = srtt_.scaled(0.875) + sample.scaled(0.125);
  }
}

sim::SimTime MtpEndpoint::rto() const {
  sim::SimTime r = rtt_valid_ ? srtt_ * 2 + rttvar_ * 4 : cfg_.min_rto.scaled(5.0);
  r = r.scaled(rto_backoff_);
  r = std::max(r, cfg_.min_rto);
  r = std::min(r, cfg_.max_rto);
  return r;
}

void MtpEndpoint::retx_fire(void* self, std::uint64_t id) {
  static_cast<MtpEndpoint*>(self)->on_retx_timer(static_cast<proto::MsgId>(id));
}

void MtpEndpoint::arm_retx(OutgoingMessage& msg, sim::SimTime deadline) {
  // Never (re)arm in the past or at the current instant: a deadline that has
  // already passed still needs a fresh wheel tick so the expiry check runs
  // from a clean event, and an `== now` arm would re-fire at this timestamp
  // forever when the oldest packet sits exactly at its deadline.
  const sim::SimTime floor = sim_.now() + sim_.timers().granularity();
  msg.retx_timer =
      sim_.timers().arm(std::max(deadline, floor), &MtpEndpoint::retx_fire, this, msg.id);
}

/// Per-message expiry check, driven by the shared timer wheel. Replaces the
/// old O(outstanding-messages) periodic retx_scan: each message wakes only
/// when its own oldest in-flight packet may have timed out.
void MtpEndpoint::on_retx_timer(proto::MsgId id) {
  auto it = outgoing_.find(id);
  if (it == outgoing_.end()) return;  // completed between arm and fire
  OutgoingMessage& msg = it->second;
  const sim::SimTime deadline = rto();
  const sim::SimTime now = sim_.now();
  bool any_lost = false;
  while (!msg.inflight_fifo.empty()) {
    const std::uint32_t pkt = msg.inflight_fifo.front();
    if (msg.state(pkt) != PktState::kInflight) {
      msg.inflight_fifo.pop_front();
      continue;
    }
    if (now - msg.pkts[pkt].sent_at <= deadline) break;  // FIFO: rest are newer
    msg.inflight_fifo.pop_front();
    msg.set_state(pkt, PktState::kLost);
    const std::int64_t bytes = msg.pkt_len(pkt, cfg_.mss);
    uncharge(msg.pkts[pkt].charged_path, msg.opts.tc, bytes);
    grant_uncharge(msg.dst, bytes);
    msg.retx_queue.push_back(pkt, msg.total_pkts);
    enqueue_send(msg, /*urgent=*/true);
    any_lost = true;
    if (telemetry::TraceSink::enabled()) {
      telemetry::TraceEvent ev;
      ev.t = now;
      ev.type = telemetry::TraceEventType::kRto;
      ev.component = host_.name();
      ev.src = host_.id();
      ev.dst = msg.dst;
      ev.msg_id = id;
      ev.pkt_num = pkt;
      ev.bytes = static_cast<std::uint32_t>(bytes);
      ev.tc = msg.opts.tc;
      ev.value = static_cast<std::uint64_t>(deadline.ns());
      telemetry::trace().record(ev);
    }
    for (const proto::PathletId p : paths_[msg.pkts[pkt].charged_path]) {
      penalize(p, msg.opts.tc, LossKind::kTimeout);
    }
  }
  if (!msg.inflight_fifo.empty()) {
    // The surviving front packet defines the next deadline. (If everything
    // expired, the next transmission rearms in try_send_pkt.)
    arm_retx(msg, msg.pkts[msg.inflight_fifo.front()].sent_at + deadline);
  }
  if (any_lost) {
    // Consecutive timeouts back the timer off exponentially (a blackholed
    // path must not be hammered at a fixed rate); any new SACK resets it.
    // At most one doubling per scan period: many messages expiring in the
    // same window are one timeout episode, as under the old single scan.
    if (now - last_backoff_at_ >= cfg_.retx_scan_period) {
      rto_backoff_ = std::min(rto_backoff_ * 2.0, kMaxRtoBackoff);
      last_backoff_at_ = now;
    }
    pump();
  }
}

// ---------------------------------------------------------------- receiver

void MtpEndpoint::on_packet(net::Packet&& pkt) {
  if (!pkt.checksum_ok()) {
    // Payload damaged in flight: count and drop, never deliver. For data,
    // NACK like an NDP trim (header intact, payload gone) so the sender
    // retransmits in ~1 RTT; a corrupted ACK is simply dropped — the
    // sender's timer recovers.
    ++checksum_drops_;
    if (telemetry::TraceSink::enabled()) {
      const auto& hdr = pkt.mtp();
      telemetry::TraceEvent ev;
      ev.t = sim_.now();
      ev.type = telemetry::TraceEventType::kChecksumDrop;
      ev.component = host_.name();
      ev.src = pkt.src;
      ev.dst = pkt.dst;
      ev.msg_id = hdr.msg_id;
      ev.pkt_num = hdr.pkt_num;
      ev.bytes = pkt.size_bytes();
      ev.tc = pkt.tc;
      ev.flow = pkt.flow_hash;
      telemetry::trace().record(ev);
    }
    if (!pkt.mtp().is_ack()) queue_ack(pkt, /*nack=*/true, {}, /*flush_now=*/true);
    return;
  }
  if (pkt.corrupted) ++corrupted_delivered_;  // checksum missed real damage
  if (pkt.mtp().is_ack()) {
    on_ack(pkt);
  } else {
    on_data(std::move(pkt));
  }
}

void MtpEndpoint::queue_ack(const net::Packet& data, bool nack,
                            std::span<const proto::SackEntry> gap_nacks, bool flush_now) {
  const auto& dh = data.mtp();
  // Fast path: this ack would flush immediately (NACKs, completions, and
  // everything when coalescing is off — the default) and nothing is batched
  // for the source, so build it straight from the data packet. Skips the
  // pending_acks_ node churn: a map insert + full Packet copy + erase per
  // received data packet.
  const bool immediate =
      flush_now || nack || !gap_nacks.empty() || cfg_.ack_coalesce <= 1;
  if (immediate && !pending_acks_.contains(data.src)) {
    // Gap NACKs only ride a SACK (a NACKed packet is trimmed or damaged and
    // triggers no gap check), so each list is one span.
    assert(!nack || gap_nacks.empty());
    const proto::SackEntry self{dh.msg_id, dh.pkt_num};
    if (nack) {
      emit_ack(data, {}, {&self, 1});
    } else {
      emit_ack(data, {&self, 1}, gap_nacks);
    }
    return;
  }
  auto& pa = pending_acks_[data.src];
  pa.last_data = data;  // freshest template: ports, tc, echoed path feedback
  if (nack) {
    pa.nacks.push_back({dh.msg_id, dh.pkt_num});
  } else {
    pa.sacks.push_back({dh.msg_id, dh.pkt_num});
  }
  pa.nacks.insert(pa.nacks.end(), gap_nacks.begin(), gap_nacks.end());
  // NACKs and completions flush immediately; otherwise batch to the
  // configured depth with a timer backstop.
  if (flush_now || !pa.nacks.empty() || pa.sacks.size() >= cfg_.ack_coalesce) {
    emit_ack(pa.last_data, pa.sacks, pa.nacks);
    pending_acks_.erase(data.src);
    if (pending_acks_.empty() && ack_flush_task_->running()) ack_flush_task_->stop();
    return;
  }
  if (!ack_flush_task_->running()) ack_flush_task_->start(cfg_.ack_flush_timeout);
}

void MtpEndpoint::flush_acks() {
  for (auto& [src, pa] : pending_acks_) {
    emit_ack(pa.last_data, pa.sacks, pa.nacks);
  }
  pending_acks_.clear();
  ack_flush_task_->stop();
}

void MtpEndpoint::emit_ack(const net::Packet& data, std::span<const proto::SackEntry> sacks,
                           std::span<const proto::SackEntry> nacks) {
  const auto& dh = data.mtp();
  net::Packet p;
  p.src = host_.id();
  p.dst = data.src;
  p.payload_bytes = 0;
  p.ecn = net::Ecn::kNotEct;
  p.tc = data.tc;
  p.priority = data.priority;
  p.flow_hash = mtp_flow_hash(p.src, dh.dst_port, data.src, dh.src_port);
  p.uid = sim_.next_packet_uid();

  auto& hdr = p.header.emplace<proto::MtpHeader>();
  hdr.src_port = dh.dst_port;
  hdr.dst_port = dh.src_port;
  hdr.type = proto::MtpPacketType::kAck;
  hdr.msg_id = dh.msg_id;
  hdr.tc = dh.tc;
  hdr.priority = dh.priority;
  hdr.msg_len_bytes = dh.msg_len_bytes;
  hdr.msg_len_pkts = dh.msg_len_pkts;
  hdr.pkt_num = dh.pkt_num;
  // The receiver copies the data packet's accumulated path feedback into the
  // ACK's feedback list — the core of pathlet congestion control. With
  // coalescing, the freshest packet's feedback stands in for the batch
  // (paper §4: "feedback can be aggregated"). The entries are written into
  // the header's own (recycled) lists: no vector is built and moved in.
  const auto& feedback = dh.path_feedback();
  if (!feedback.empty() || !sacks.empty() || !nacks.empty()) {
    auto& lists = hdr.lists.ensure();
    lists.ack_path_feedback.assign(feedback.begin(), feedback.end());
    lists.sack.assign(sacks.begin(), sacks.end());
    lists.nack.assign(nacks.begin(), nacks.end());
  }
  if (cfg_.overload.enabled) {
    // Receiver-driven admission: stamp this endpoint's per-sender credit so
    // the sender paces new in-flight bytes to the receiver's service rate.
    hdr.overload.ensure().grant_bytes =
        static_cast<std::uint64_t>(admission_.grant_bytes(sim_.now()));
    ++grants_issued_;
  }
  p.header_bytes = cfg_.base_header_bytes +
                   static_cast<std::uint32_t>(feedback.size() * 14 +
                                              (sacks.size() + nacks.size()) * 12);
  ++acks_sent_;
  if (telemetry::TraceSink::enabled()) {
    const auto& h = p.mtp();
    telemetry::TraceEvent ev;
    ev.t = sim_.now();
    ev.type = telemetry::TraceEventType::kAck;
    ev.component = host_.name();
    ev.src = p.src;
    ev.dst = p.dst;
    ev.msg_id = h.msg_id;
    ev.pkt_num = h.pkt_num;
    ev.bytes = p.size_bytes();
    ev.tc = p.tc;
    ev.flow = p.flow_hash;
    ev.value = h.sack().size();
    telemetry::trace().record(ev);
    for (const auto& n : h.nack()) {
      telemetry::TraceEvent ne = ev;
      ne.type = telemetry::TraceEventType::kNack;
      ne.msg_id = n.msg_id;
      ne.pkt_num = n.pkt_num;
      ne.value = 0;
      telemetry::trace().record(ne);
    }
  }
  host_.send(std::move(p));
}

void MtpEndpoint::on_data(net::Packet&& pkt) {
  const auto& hdr = pkt.mtp();
  const MsgKey key{pkt.src, hdr.msg_id};

  // Packet of a message this endpoint busy-rejected: re-reject to quench the
  // sender (mirrors the completed_ re-ACK). A rejected message must never be
  // partially reassembled, let alone delivered.
  if (!rejected_.empty() && rejected_.contains(key)) {
    send_busy_reject(pkt, proto::kOverloadBusy);
    return;
  }

  // NDP-style trimmed packet: header survived, payload didn't. NACK so the
  // sender retransmits immediately instead of waiting for a timeout.
  const bool trimmed = pkt.payload_bytes == 0 && hdr.pkt_len > 0;
  if (trimmed) {
    queue_ack(pkt, /*nack=*/true, {}, /*flush_now=*/true);
    return;
  }

  // Duplicate of an already-delivered message: re-ACK to quench the sender.
  if (completed_.contains(key)) {
    queue_ack(pkt, /*nack=*/false, {}, /*flush_now=*/true);
    return;
  }

  if (hdr.msg_len_pkts == 0 || hdr.pkt_num >= hdr.msg_len_pkts) return;  // malformed

  // Overload shedding — only for messages not yet under reassembly (an
  // admitted message is a commitment: it completes). Deadline-expired work
  // is shed first (serving it would be wasted — the metastable-failure
  // fuel), then the watermark sheds low-priority fresh messages while the
  // reassembly table is saturated. Both paths send an explicit kBusy reject,
  // never a silent drop.
  const auto& ov = cfg_.overload;
  if (ov.enabled && !incoming_.contains(key)) {
    const std::uint64_t dl = hdr.deadline_ns();
    if (ov.shed_expired && dl != 0 &&
        static_cast<std::uint64_t>(sim_.now().ns()) > dl) {
      ++deadline_expiries_;
      reject_message(key, pkt, proto::kOverloadBusy | proto::kOverloadExpired);
      return;
    }
    if (ov.max_incoming_msgs != 0 && incoming_.size() >= ov.max_incoming_msgs &&
        hdr.priority < ov.shed_below_priority) {
      reject_message(key, pkt, proto::kOverloadBusy);
      return;
    }
  }

  auto [it, fresh] = incoming_.try_emplace(key);
  IncomingMessage& msg = it->second;
  if (fresh) {
    msg.have.assign(hdr.msg_len_pkts, false);
    msg.total_pkts = hdr.msg_len_pkts;
    msg.total_bytes = static_cast<std::int64_t>(hdr.msg_len_bytes);
    msg.priority = hdr.priority;
    msg.tc = hdr.tc;
    msg.src_port = hdr.src_port;
    msg.dst_port = hdr.dst_port;
    msg.first_pkt_at = sim_.now();
  }
  if (pkt.app) msg.app = *pkt.app;
  if (hdr.has_stream()) msg.stream = *hdr.stream;
  if (hdr.deadline_ns() != 0) msg.deadline_ns = hdr.deadline_ns();
  if (!msg.have[hdr.pkt_num]) {
    msg.have[hdr.pkt_num] = true;
    ++msg.received;
    if (on_payload) on_payload(pkt.payload_bytes);
    if (cfg_.overload.enabled) {
      admission_.on_delivered(pkt.src, pkt.payload_bytes, sim_.now());
    }
  }

  // Gap NACKs: packets more than nack_gap_threshold behind this arrival that
  // are still missing were almost certainly lost — ask for them now (each at
  // most once; the sender's timer is the backstop if the retransmission is
  // lost too).
  std::vector<proto::SackEntry>& gap_nacks = gap_nacks_;  // reused scratch
  gap_nacks.clear();
  if (cfg_.nack_gap_threshold != 0 && hdr.pkt_num >= cfg_.nack_gap_threshold) {
    const std::uint32_t frontier = hdr.pkt_num - cfg_.nack_gap_threshold;
    while (msg.gap_checked < frontier && gap_nacks.size() < 32) {
      if (!msg.have[msg.gap_checked]) {
        gap_nacks.push_back({hdr.msg_id, msg.gap_checked});
      }
      ++msg.gap_checked;
    }
  }
  const bool completes = msg.received == msg.total_pkts;
  queue_ack(pkt, /*nack=*/false, gap_nacks,
            /*flush_now=*/completes || cfg_.ack_coalesce <= 1);

  if (completes) {
    ReceivedMessage done;
    done.src = pkt.src;
    done.msg_id = hdr.msg_id;
    done.bytes = msg.total_bytes;
    done.priority = msg.priority;
    done.tc = msg.tc;
    done.src_port = msg.src_port;
    done.dst_port = msg.dst_port;
    done.app = std::move(msg.app);
    done.stream = std::move(msg.stream);
    done.deadline =
        sim::SimTime::nanoseconds(static_cast<std::int64_t>(msg.deadline_ns));
    done.first_pkt_at = msg.first_pkt_at;
    done.completed_at = sim_.now();
    incoming_.erase(it);
    completed_.insert(key);
    completed_fifo_.push_back(key);
    while (completed_fifo_.size() > cfg_.completed_cache) {
      completed_.erase(completed_fifo_.front());
      completed_fifo_.pop_front();
    }
    ++msgs_delivered_;
    auto handler = handlers_.find(done.dst_port);
    if (handler != handlers_.end()) {
      handler->second(done);
    } else if (default_handler_) {
      default_handler_(done);
    }
  }
}

void MtpEndpoint::on_ack(const net::Packet& pkt) {
  const auto& hdr = pkt.mtp();

  if (hdr.has_overload()) {
    const auto& ov = *hdr.overload;
    if (cfg_.overload.enabled && ov.grant_bytes > 0) {
      auto [git, fresh_grant] = grants_.try_emplace(
          pkt.src, DstGrant{cfg_.overload.unsolicited_grant_bytes, 0});
      git->second.grant = static_cast<std::int64_t>(ov.grant_bytes);
      (void)fresh_grant;
    }
    if (ov.busy()) {
      // Explicit busy-reject (receiver or in-network device): the message
      // will never be accepted there — abort it instead of retransmitting
      // into the overload. Busy ACKs carry no SACK/feedback payload.
      abort_outgoing(hdr.msg_id, ov.expired());
      pump();
      return;
    }
  }

  if (telemetry::TraceSink::enabled()) {
    for (const auto& pf : hdr.ack_path_feedback()) {
      telemetry::TraceEvent ev;
      ev.t = sim_.now();
      ev.type = telemetry::TraceEventType::kPathletFeedback;
      ev.component = host_.name();
      ev.src = pkt.src;
      ev.dst = pkt.dst;
      ev.msg_id = hdr.msg_id;
      ev.tc = pf.tc;
      ev.flow = pkt.flow_hash;
      ev.pathlet = pf.pathlet;
      ev.value = pf.feedback.value;
      telemetry::trace().record(ev);
    }
  }

  // Learn the destination's current path from the echoed feedback, and feed
  // each pathlet's algorithm. (The ACK's source is the message destination.)
  if (!hdr.ack_path_feedback().empty()) {
    std::vector<proto::PathletId>& pathlets = ack_pathlets_;  // reused scratch
    pathlets.clear();
    for (const auto& pf : hdr.ack_path_feedback()) pathlets.push_back(pf.pathlet);
    current_path_[pkt.src] = intern_path(pathlets);
  }

  auto handle_entries = [&](const std::vector<proto::SackEntry>& entries, bool is_nack) {
    for (const auto& e : entries) {
      auto it = outgoing_.find(e.msg_id);
      if (it == outgoing_.end()) continue;
      OutgoingMessage& msg = it->second;
      if (e.pkt_num >= msg.total_pkts) continue;
      const std::int64_t bytes = msg.pkt_len(e.pkt_num, cfg_.mss);

      if (is_nack) {
        if (msg.state(e.pkt_num) == PktState::kInflight) {
          msg.set_state(e.pkt_num, PktState::kLost);
          uncharge(msg.pkts[e.pkt_num].charged_path, msg.opts.tc, bytes);
          grant_uncharge(msg.dst, bytes);
          msg.retx_queue.push_back(e.pkt_num, msg.total_pkts);
          enqueue_send(msg, /*urgent=*/true);
          for (const proto::PathletId p : paths_[msg.pkts[e.pkt_num].charged_path]) {
            penalize(p, msg.opts.tc, LossKind::kTrim);
          }
        }
        continue;
      }

      const PktState prev = msg.state(e.pkt_num);
      if (prev == PktState::kSacked) continue;
      if (prev == PktState::kInflight) {
        uncharge(msg.pkts[e.pkt_num].charged_path, msg.opts.tc, bytes);
        grant_uncharge(msg.dst, bytes);
      }
      msg.set_state(e.pkt_num, PktState::kSacked);
      ++msg.sacked;
      rto_backoff_ = 1.0;  // forward progress: leave timeout backoff

      const bool karn_valid = !msg.retransmitted(e.pkt_num);
      const sim::SimTime rtt = sim_.now() - msg.pkts[e.pkt_num].sent_at;
      if (karn_valid) rtt_sample(rtt);

      // Feed pathlet algorithms: feedback TLVs first, then the ack credit.
      for (const auto& pf : hdr.ack_path_feedback()) {
        PathletCc& algo = cc(pf.pathlet, pf.tc, pf.feedback.type);
        algo.on_feedback(pf.feedback, bytes);
        consecutive_losses_[pf.pathlet] = 0;
      }
      if (hdr.ack_path_feedback().empty()) {
        // No pathlet info on this path: evolve whatever the packet was
        // charged to (the per-destination virtual pathlet).
        for (const proto::PathletId p : paths_[msg.pkts[e.pkt_num].charged_path]) {
          cc(p, msg.opts.tc, proto::FeedbackType::kNone)
              .on_ack(bytes, karn_valid ? rtt : srtt_);
        }
      } else {
        for (const auto& pf : hdr.ack_path_feedback()) {
          cc(pf.pathlet, pf.tc, pf.feedback.type)
              .on_ack(bytes, karn_valid ? rtt : srtt_);
        }
      }

      if (msg.sacked == msg.total_pkts) {
        complete_outgoing(msg);  // erases msg from outgoing_
        continue;                // later entries re-resolve via the map lookup
      }
    }
  };

  handle_entries(hdr.sack(), /*is_nack=*/false);
  handle_entries(hdr.nack(), /*is_nack=*/true);
  pump();
}

// ------------------------------------------------------------ mtp::overload

bool MtpEndpoint::grant_admit(net::NodeId dst, std::int64_t bytes) {
  if (!cfg_.overload.enabled) return true;
  auto [it, fresh] = grants_.try_emplace(
      dst, DstGrant{cfg_.overload.unsolicited_grant_bytes, 0});
  (void)fresh;
  const DstGrant& g = it->second;
  // inflight == 0 always admits: a stale or tiny grant can slow a sender to
  // one packet per RTT, but can never wedge it entirely.
  return g.inflight == 0 || g.inflight + bytes <= g.grant;
}

void MtpEndpoint::grant_charge(net::NodeId dst, std::int64_t bytes) {
  if (!cfg_.overload.enabled) return;
  grants_[dst].inflight += bytes;
}

void MtpEndpoint::grant_uncharge(net::NodeId dst, std::int64_t bytes) {
  if (!cfg_.overload.enabled) return;
  auto it = grants_.find(dst);
  if (it != grants_.end()) {
    it->second.inflight = std::max<std::int64_t>(0, it->second.inflight - bytes);
  }
}

/// Busy-reject received for an outgoing message: stop sending it. In-flight
/// packets are uncharged from their pathlets (they will never be SACKed) and
/// the DoneFn is dropped unfired — on_rejected is the completion signal.
void MtpEndpoint::abort_outgoing(proto::MsgId id, bool expired) {
  auto it = outgoing_.find(id);
  if (it == outgoing_.end()) return;  // duplicate reject, already aborted
  OutgoingMessage& msg = it->second;
  for (std::uint32_t k = 0; k < msg.total_pkts; ++k) {
    if (msg.state(k) == PktState::kInflight) {
      const std::int64_t bytes = msg.pkt_len(k, cfg_.mss);
      uncharge(msg.pkts[k].charged_path, msg.opts.tc, bytes);
      grant_uncharge(msg.dst, bytes);
    }
  }
  sim_.timers().cancel(msg.retx_timer);
  const net::NodeId dst = msg.dst;
  ++msgs_rejected_;
  outgoing_.erase(it);  // msg is dangling beyond this point
  if (on_rejected) on_rejected(id, dst, expired);
}

/// Receiver-side shed: remember the reject (so retransmissions are quenched,
/// and the message can never later be accepted) and tell the sender.
void MtpEndpoint::reject_message(const MsgKey& key, const net::Packet& data,
                                 std::uint8_t flags) {
  if (rejected_.insert(key).second) {
    rejected_fifo_.push_back(key);
    while (rejected_fifo_.size() > cfg_.completed_cache) {
      rejected_.erase(rejected_fifo_.front());
      rejected_fifo_.pop_front();
    }
  }
  ++busy_rejects_sent_;
  send_busy_reject(data, flags);
}

void MtpEndpoint::send_busy_reject(const net::Packet& data, std::uint8_t flags) {
  const auto& dh = data.mtp();
  net::Packet p;
  p.src = host_.id();
  p.dst = data.src;
  p.payload_bytes = 0;
  p.ecn = net::Ecn::kNotEct;
  p.tc = data.tc;
  p.priority = data.priority;
  p.flow_hash = mtp_flow_hash(p.src, dh.dst_port, data.src, dh.src_port);
  p.uid = sim_.next_packet_uid();

  proto::MtpHeader hdr;
  hdr.src_port = dh.dst_port;
  hdr.dst_port = dh.src_port;
  hdr.type = proto::MtpPacketType::kAck;
  hdr.msg_id = dh.msg_id;
  hdr.tc = dh.tc;
  hdr.priority = dh.priority;
  hdr.msg_len_bytes = dh.msg_len_bytes;
  hdr.msg_len_pkts = dh.msg_len_pkts;
  hdr.pkt_num = dh.pkt_num;
  hdr.overload.ensure().flags = flags;
  p.header_bytes = cfg_.base_header_bytes;
  p.header = std::move(hdr);
  ++acks_sent_;
  if (telemetry::TraceSink::enabled()) {
    telemetry::TraceEvent ev;
    ev.t = sim_.now();
    ev.type = telemetry::TraceEventType::kBusy;
    ev.component = host_.name();
    ev.src = p.src;
    ev.dst = p.dst;
    ev.msg_id = dh.msg_id;
    ev.pkt_num = dh.pkt_num;
    ev.bytes = data.size_bytes();
    ev.tc = data.tc;
    ev.flow = p.flow_hash;
    ev.value = flags;
    telemetry::trace().record(ev);
  }
  host_.send(std::move(p));
}

}  // namespace mtp::core
