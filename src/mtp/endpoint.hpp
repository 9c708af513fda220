// MtpEndpoint: the MTP transport attached to one host (paper §3).
//
// Message transport (§3.1.2):
//   - Messages are independent; no connection setup. send_message() packetizes
//     and transmits immediately.
//   - Every packet carries the message id, total length in bytes and packets,
//     and its own number/offset — so any device can parse and make
//     per-message decisions with bounded state.
//   - Acknowledgement and retransmission are per (Msg ID, Pkt Num): receivers
//     SACK every packet, NACK trimmed ones, and senders retransmit unacked
//     packets after an adaptive timeout.
//
// Pathlet congestion control (§3.1.3):
//   - Links stamp (Path ID, TC, Feedback) TLVs onto data packets; receivers
//     echo them in ACKs.
//   - The endpoint keeps one PathletCc per (pathlet, TC) — state is shared by
//     all messages/destinations crossing that pathlet, which is the paper's
//     coarser-than-flow isolation granularity.
//   - A packet is admitted when every pathlet on its destination's current
//     path has window headroom; it is "charged" to those pathlets until
//     acknowledged or declared lost.
//   - Persistently congested pathlets can be excluded: their ids ride in the
//     Path Exclude header list and exclusion-aware switches route around them.
#pragma once

#include <deque>
#include <functional>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "mtp/cc_algorithm.hpp"
#include "mtp/overload/admission.hpp"
#include "net/host.hpp"
#include "sim/simulator.hpp"
#include "sim/timer_wheel.hpp"
#include "telemetry/metrics.hpp"

namespace mtp::core {

struct MtpConfig {
  std::uint32_t mss = 1000;          ///< payload bytes per packet
  std::uint32_t base_header_bytes = 64;  ///< accounted fixed header + IP overhead
  CcConfig cc;

  sim::SimTime min_rto = sim::SimTime::microseconds(200);
  sim::SimTime max_rto = sim::SimTime::milliseconds(100);
  /// Consecutive-timeout window: RTO backoff doubles at most once per this
  /// period, no matter how many messages expire inside it. (Historically the
  /// retransmit-scan period; timers now live on the simulator's timer wheel
  /// and fire per message — see docs/scale.md.)
  sim::SimTime retx_scan_period = sim::SimTime::microseconds(100);

  /// Completed-message tombstones kept to re-ACK duplicate retransmissions.
  std::size_t completed_cache = 1 << 14;

  /// Automatically exclude a pathlet after this many consecutive timeout
  /// losses on it (0 disables auto-exclusion).
  int auto_exclude_after_losses = 0;
  sim::SimTime exclude_duration = sim::SimTime::milliseconds(1);

  /// Receiver-side gap NACKs: when packet N of a message arrives and packet
  /// K < N - threshold is still missing, NACK K once so the sender
  /// retransmits in ~1 RTT instead of waiting out the timeout. The threshold
  /// absorbs benign reordering. 0 disables gap NACKs.
  std::uint32_t nack_gap_threshold = 16;

  /// Order in which the sender serves its outstanding messages.
  enum class Scheduling {
    kPriorityFifo,  ///< application priority, FIFO within a level (default)
    kSrpt,          ///< shortest remaining message first (minimizes mean FCT)
  };
  Scheduling scheduling = Scheduling::kPriorityFifo;

  /// ACK coalescing (paper §4 "Packet Header Overheads": feedback can be
  /// aggregated): batch up to this many SACKs per source into one ACK.
  /// 1 = ack every packet. Batches flush on the Nth packet, on message
  /// completion, on any NACK, and on a short timer so senders never stall.
  std::uint32_t ack_coalesce = 1;
  sim::SimTime ack_flush_timeout = sim::SimTime::microseconds(20);

  /// mtp::overload — receiver-driven admission + busy-reject shedding.
  /// Disabled by default: existing runs are byte-identical with the
  /// subsystem compiled in (no grants stamped, no pacing, no sheds).
  struct OverloadControl {
    bool enabled = false;
    /// Receiver service-rate EWMA and grant sizing (see overload/admission).
    overload::AdmissionConfig admission;
    /// Blind-start credit per destination before the first grant arrives.
    std::int64_t unsolicited_grant_bytes = 16000;
    /// Receiver watermark: above this many messages under reassembly, fresh
    /// messages with priority < shed_below_priority are busy-rejected
    /// (0 disables watermark shedding; grants still pace senders).
    std::size_t max_incoming_msgs = 0;
    std::uint8_t shed_below_priority = 1;
    /// Busy-reject deadline-expired fresh messages instead of serving them.
    bool shed_expired = true;
  };
  OverloadControl overload;
};

struct MessageOptions {
  std::uint8_t priority = 0;
  proto::TrafficClassId tc = 0;
  proto::PortNum src_port = 0;
  proto::PortNum dst_port = 0;
  std::optional<net::AppData> app;  ///< rides on packet 0 (request key, ...)
  std::optional<proto::StreamHeader> stream;  ///< rides on packet 0 (mtp::stream)
  /// Absolute deadline carried in the header overload block on packet 0
  /// (zero = none). Devices and receivers shed the message once expired.
  sim::SimTime deadline;
};

/// A completed incoming message handed to the application.
struct ReceivedMessage {
  net::NodeId src = net::kInvalidNode;
  proto::MsgId msg_id = 0;
  std::int64_t bytes = 0;
  std::uint8_t priority = 0;
  proto::TrafficClassId tc = 0;
  proto::PortNum src_port = 0;
  proto::PortNum dst_port = 0;
  std::optional<net::AppData> app;
  std::optional<proto::StreamHeader> stream;
  sim::SimTime deadline;  ///< absolute deadline the sender stamped (0 = none)
  sim::SimTime first_pkt_at;
  sim::SimTime completed_at;
};

class MtpEndpoint {
 public:
  using MessageHandler = std::function<void(const ReceivedMessage&)>;
  using DoneFn = std::function<void(proto::MsgId, sim::SimTime fct)>;

  MtpEndpoint(net::Host& host, MtpConfig cfg);
  ~MtpEndpoint();
  MtpEndpoint(const MtpEndpoint&) = delete;
  MtpEndpoint& operator=(const MtpEndpoint&) = delete;

  /// Send an independent message of `bytes` payload to `dst`. Returns its id.
  proto::MsgId send_message(net::NodeId dst, std::int64_t bytes,
                            MessageOptions opts = {}, DoneFn on_delivered = {});

  /// Deliver completed messages addressed to `port` to `handler`.
  void listen(proto::PortNum port, MessageHandler handler);
  /// Catch-all for ports without a specific listener.
  void listen_any(MessageHandler handler) { default_handler_ = std::move(handler); }

  /// Fine-grained goodput hook: fires once per *new* (non-duplicate) data
  /// packet with its payload size. Experiments meter receive rate with this
  /// rather than waiting for whole messages.
  std::function<void(std::int64_t bytes)> on_payload;

  /// Fires when an outgoing message is busy-rejected by the receiver or an
  /// in-network device (explicit kBusy NACK, never a silent drop). `expired`
  /// means the rejecter shed it because its deadline had passed. The message
  /// is aborted — its DoneFn will never fire — so RPC layers can fail fast
  /// or consult their retry budget instead of burning the full timeout.
  std::function<void(proto::MsgId, net::NodeId dst, bool expired)> on_rejected;

  /// Ask the network to avoid `pathlet` for `duration` (Path Exclude list).
  void exclude_pathlet(proto::PathletId pathlet, sim::SimTime duration);

  // --- Introspection (tests, experiments).
  const PathletCc* pathlet_cc(proto::PathletId id, proto::TrafficClassId tc) const;
  /// Pathlets with a live congestion-control algorithm (charge-only entries
  /// that never saw feedback or loss don't count).
  std::size_t known_pathlets() const {
    std::size_t n = 0;
    for (const auto& [key, st] : cc_) n += st.algo != nullptr;
    return n;
  }
  std::size_t outstanding_messages() const { return outgoing_.size(); }
  std::uint64_t pkts_sent() const { return pkts_sent_; }
  std::uint64_t pkts_retransmitted() const { return pkts_retx_; }
  std::uint64_t msgs_delivered() const { return msgs_delivered_; }
  /// Packets dropped on payload checksum mismatch (fault injection).
  std::uint64_t checksum_drops() const { return checksum_drops_; }
  /// Corrupted packets that *passed* verification — must stay 0; the chaos
  /// harness asserts on it (ground truth vs the checksum mechanism).
  std::uint64_t corrupted_delivered() const { return corrupted_delivered_; }
  /// Current RTO backoff multiplier (1.0 = no consecutive timeouts).
  double rto_backoff() const { return rto_backoff_; }
  // --- mtp::overload counters (all zero while overload control is off).
  /// Outgoing messages aborted by a busy-reject.
  std::uint64_t msgs_rejected() const { return msgs_rejected_; }
  /// Busy-rejects this endpoint emitted as a receiver.
  std::uint64_t busy_rejects_sent() const { return busy_rejects_sent_; }
  /// ACKs stamped with an admission grant.
  std::uint64_t grants_issued() const { return grants_issued_; }
  /// Fresh messages shed because their deadline had already passed.
  std::uint64_t deadline_expiries() const { return deadline_expiries_; }
  const overload::Admission& admission() const { return admission_; }
  sim::SimTime srtt() const { return srtt_; }
  const MtpConfig& config() const { return cfg_; }
  net::Host& host() { return host_; }
  /// Current path (pathlet ids) learned for a destination; empty if unknown.
  std::vector<proto::PathletId> current_path(net::NodeId dst) const;

 private:
  // --- Interned paths: the (pathlet, tc) sets packets get charged to.
  // Path 0 is always the default path {kDefaultPathlet}. Destinations with
  // no feedback yet get a per-destination virtual pathlet (high bit set) so
  // their TCP-like default windows evolve independently.
  static constexpr proto::PathletId kVirtualPathletFlag = 0x8000'0000;
  using PathIndex = std::uint16_t;
  struct CcKey {
    proto::PathletId pathlet;
    proto::TrafficClassId tc;
    bool operator==(const CcKey&) const = default;
  };
  struct CcKeyHash {
    std::size_t operator()(const CcKey& k) const {
      return std::hash<std::uint64_t>()(
          (static_cast<std::uint64_t>(k.pathlet) << 8) | k.tc);
    }
  };

  enum class PktState : std::uint8_t { kUnsent, kInflight, kSacked, kLost };

  /// Per-packet sender state, one 16-byte record instead of four parallel
  /// vectors: a 1-packet message costs one small allocation, not four.
  struct PktMeta {
    sim::SimTime sent_at;
    PathIndex charged_path = 0;
    std::uint8_t flags = 0;  ///< bits 0-1: PktState, bit 2: retransmitted (Karn)
  };

  /// FIFO of packet numbers. A vector with a head cursor: unlike std::deque
  /// (whose empty libstdc++ instance still owns a 512-byte chunk) it holds no
  /// memory until used, which dominates idle per-message footprint at scale.
  class PktFifo {
   public:
    bool empty() const { return head_ == q_.size(); }
    std::size_t size() const { return q_.size() - head_; }
    std::uint32_t front() const { return q_[head_]; }
    /// The first push sizes the buffer for `expected` entries (the message's
    /// packet count), so the FIFO allocates once instead of doubling.
    void push_back(std::uint32_t v, std::size_t expected) {
      if (q_.capacity() == 0) q_.reserve(expected);
      q_.push_back(v);
    }
    void pop_front() {
      if (++head_ == q_.size()) {  // drained: restart at the buffer's front
        q_.clear();
        head_ = 0;
      }
    }

   private:
    std::vector<std::uint32_t> q_;
    std::size_t head_ = 0;
  };

  struct OutgoingMessage {
    proto::MsgId id = 0;
    net::NodeId dst = net::kInvalidNode;
    MessageOptions opts;
    std::int64_t total_bytes = 0;
    std::uint32_t total_pkts = 0;
    std::vector<PktMeta> pkts;  // per packet
    std::uint32_t next_unsent = 0;
    std::uint32_t sacked = 0;
    PktFifo retx_queue;
    /// Packet numbers in transmission order; the front is always the oldest
    /// in-flight packet, so expiry checks are O(1) until a loss.
    PktFifo inflight_fifo;
    /// True while the message sits in its SendGroup queue (has packets to
    /// send but may be window-blocked). Guards against double-enqueue.
    bool send_queued = false;
    sim::SimTime started_at;
    /// Wheel timer for the oldest in-flight packet's deadline; null when
    /// nothing is in flight.
    sim::TimerId retx_timer;
    DoneFn done;

    PktState state(std::uint32_t pkt) const {
      return static_cast<PktState>(pkts[pkt].flags & 0x3);
    }
    void set_state(std::uint32_t pkt, PktState s) {
      pkts[pkt].flags =
          static_cast<std::uint8_t>((pkts[pkt].flags & ~0x3u) | static_cast<std::uint8_t>(s));
    }
    bool retransmitted(std::uint32_t pkt) const { return (pkts[pkt].flags & 0x4) != 0; }
    void mark_retransmitted(std::uint32_t pkt) { pkts[pkt].flags |= 0x4; }

    std::uint32_t pkt_len(std::uint32_t pkt, std::uint32_t mss) const {
      const std::uint64_t off = static_cast<std::uint64_t>(pkt) * mss;
      return static_cast<std::uint32_t>(
          std::min<std::uint64_t>(mss, static_cast<std::uint64_t>(total_bytes) - off));
    }
  };

  struct IncomingMessage {
    std::vector<bool> have;
    std::uint32_t received = 0;
    std::uint32_t gap_checked = 0;  ///< packets below this were gap-NACKed once
    std::uint32_t total_pkts = 0;
    std::int64_t total_bytes = 0;
    std::uint8_t priority = 0;
    proto::TrafficClassId tc = 0;
    proto::PortNum src_port = 0;
    proto::PortNum dst_port = 0;
    std::optional<net::AppData> app;
    std::optional<proto::StreamHeader> stream;
    std::uint64_t deadline_ns = 0;  ///< from the packet-0 overload block
    sim::SimTime first_pkt_at;
  };

  struct MsgKey {
    net::NodeId src;
    proto::MsgId id;
    bool operator==(const MsgKey&) const = default;
  };
  struct MsgKeyHash {
    std::size_t operator()(const MsgKey& k) const {
      return std::hash<std::uint64_t>()((static_cast<std::uint64_t>(k.src) << 32) ^ k.id);
    }
  };

  void on_packet(net::Packet&& pkt);
  void on_data(net::Packet&& pkt);
  void on_ack(const net::Packet& pkt);
  void queue_ack(const net::Packet& data, bool nack,
                 std::span<const proto::SackEntry> gap_nacks, bool flush_now);
  /// Sends the ACK for `data`, writing the entries straight into its header.
  void emit_ack(const net::Packet& data, std::span<const proto::SackEntry> sacks,
                std::span<const proto::SackEntry> nacks);
  void flush_acks();
  void pump();
  void pump_srpt();
  /// Send msg's pending retransmissions then unsent packets while admission
  /// allows. Returns false if it stopped window-blocked with work remaining.
  bool service_msg(OutgoingMessage& msg);
  bool try_send_pkt(OutgoingMessage& msg, std::uint32_t pkt, bool is_retx);
  void send_data_pkt(OutgoingMessage& msg, std::uint32_t pkt, PathIndex path);
  void complete_outgoing(OutgoingMessage& msg);
  void on_retx_timer(proto::MsgId id);
  static void retx_fire(void* self, std::uint64_t id);  ///< wheel trampoline
  void arm_retx(OutgoingMessage& msg, sim::SimTime deadline);
  void rtt_sample(sim::SimTime sample);
  sim::SimTime rto() const;

  PathletCc& cc(proto::PathletId pathlet, proto::TrafficClassId tc,
                proto::FeedbackType type_hint);
  /// Apply on_loss at most once per RTT per (pathlet, TC).
  void penalize(proto::PathletId pathlet, proto::TrafficClassId tc, LossKind kind);
  PathIndex intern_path(const std::vector<proto::PathletId>& pathlets);
  bool admit(PathIndex path, proto::TrafficClassId tc, std::int64_t bytes);
  void charge(PathIndex path, proto::TrafficClassId tc, std::int64_t bytes);
  void uncharge(PathIndex path, proto::TrafficClassId tc, std::int64_t bytes);
  /// Appends the live Path Exclude entries to hdr, expiring stale ones.
  void stamp_exclusions(proto::MtpHeader& hdr);

  // --- mtp::overload: receiver grants pace the sender per destination, and
  // busy-rejects abort outgoing messages instead of letting them time out.
  bool grant_admit(net::NodeId dst, std::int64_t bytes);
  void grant_charge(net::NodeId dst, std::int64_t bytes);
  void grant_uncharge(net::NodeId dst, std::int64_t bytes);
  void abort_outgoing(proto::MsgId id, bool expired);
  void reject_message(const MsgKey& key, const net::Packet& data,
                      std::uint8_t flags);
  void send_busy_reject(const net::Packet& data, std::uint8_t flags);

  net::Host& host_;
  MtpConfig cfg_;
  sim::Simulator& sim_;

  /// Everything the sender tracks per (pathlet, TC), in one map so the
  /// admit/charge/uncharge hot path does a single hash lookup (three separate
  /// maps before). `algo` is created lazily on first feedback/ack/loss;
  /// `last_decrease` rate-limits multiplicative decreases — losses within
  /// one RTT are a single congestion event and must cut the window once.
  struct CcState {
    std::unique_ptr<PathletCc> algo;
    std::int64_t inflight = 0;
    sim::SimTime last_decrease;
    bool decreased_once = false;
  };

  /// Pending-send queue for one (dst, tc, priority) bucket. Admission is
  /// per-(path, tc) and a message's path is a pure function of its
  /// destination, so when the front of a group is window-blocked the rest of
  /// the group is too: pump() parks the whole group after one failed admit
  /// and moves on. That makes a pump cost O(groups + packets actually sent)
  /// instead of O(all queued messages) — the property that keeps 100k
  /// concurrent messages serviceable (the old global scan re-sorted and
  /// re-visited every parked message on every ack).
  struct SendGroup {
    net::NodeId dst;
    proto::TrafficClassId tc = 0;
    std::uint8_t priority = 0;
    std::deque<proto::MsgId> q;  ///< FIFO; retransmit-bearing messages jump the line
  };
  SendGroup& group_for(const OutgoingMessage& msg);
  /// Queue msg for pump service. `urgent` puts it at the front of its group
  /// (retransmissions unblock completion, mirroring the old retx-first rule).
  void enqueue_send(OutgoingMessage& msg, bool urgent);

  // --- Sender.
  proto::MsgId next_msg_id_ = 1;
  std::unordered_map<proto::MsgId, OutgoingMessage> outgoing_;
  /// Groups ordered by (priority desc, creation); few in practice. Stable
  /// pointers — indexed by group_index_.
  std::vector<std::unique_ptr<SendGroup>> groups_;
  std::unordered_map<std::uint64_t, SendGroup*> group_index_;
  std::vector<proto::MsgId> srpt_order_;  ///< SRPT only: ids in arrival order
  std::vector<proto::MsgId> pump_order_;  ///< pump_srpt() scratch (reused)
  std::vector<proto::PathletId> ack_pathlets_;  ///< on_ack() scratch (reused)
  std::unordered_map<CcKey, CcState, CcKeyHash> cc_;
  std::vector<std::vector<proto::PathletId>> paths_;  ///< interned path table
  std::unordered_map<net::NodeId, PathIndex> current_path_;
  std::unordered_map<proto::PathletId, sim::SimTime> excluded_until_;
  std::unordered_map<proto::PathletId, int> consecutive_losses_;
  sim::SimTime srtt_;
  sim::SimTime rttvar_;
  bool rtt_valid_ = false;
  /// Exponential RTO backoff under consecutive timeouts (capped ×64,
  /// clamped to max_rto by rto()); reset by any new SACK progress. Karn-safe:
  /// srtt_ only ever learns from non-retransmitted packets.
  double rto_backoff_ = 1.0;
  static constexpr double kMaxRtoBackoff = 64.0;
  /// Per-message wheel timers can expire many messages inside what used to
  /// be one scan tick; the backoff doubles at most once per scan period.
  sim::SimTime last_backoff_at_;
  std::uint64_t pkts_sent_ = 0;
  std::uint64_t pkts_retx_ = 0;
  std::uint64_t checksum_drops_ = 0;
  std::uint64_t corrupted_delivered_ = 0;

  /// Per-destination admission credit (sender side of mtp::overload). The
  /// receiver's grant caps new in-flight bytes; inflight == 0 always admits
  /// one packet so a zero/stale grant can never wedge a sender.
  struct DstGrant {
    std::int64_t grant = 0;
    std::int64_t inflight = 0;
  };
  std::unordered_map<net::NodeId, DstGrant> grants_;
  std::uint64_t msgs_rejected_ = 0;

  // --- Receiver.
  std::unordered_map<MsgKey, IncomingMessage, MsgKeyHash> incoming_;
  std::unordered_set<MsgKey, MsgKeyHash> completed_;
  std::deque<MsgKey> completed_fifo_;
  std::unordered_map<proto::PortNum, MessageHandler> handlers_;
  MessageHandler default_handler_;
  std::uint64_t msgs_delivered_ = 0;

  /// ACK coalescing state: the next ACK to each source, built from the most
  /// recent data packet (template) plus accumulated SACK entries.
  struct PendingAck {
    net::Packet last_data;  ///< template: ports, feedback echo, tc, priority
    std::vector<proto::SackEntry> sacks;
    std::vector<proto::SackEntry> nacks;
  };
  std::unordered_map<net::NodeId, PendingAck> pending_acks_;
  std::vector<proto::SackEntry> gap_nacks_;  ///< on_data() scratch (reused)
  std::unique_ptr<sim::PeriodicTask> ack_flush_task_;
  std::uint64_t acks_sent_ = 0;

  /// Receiver side of mtp::overload: service-rate EWMA feeding grants, plus
  /// the busy-rejected tombstones that quench retransmissions of messages
  /// this endpoint refused (a message must never be both rejected and
  /// delivered, so rejects are remembered exactly like completions).
  overload::Admission admission_;
  std::unordered_set<MsgKey, MsgKeyHash> rejected_;
  std::deque<MsgKey> rejected_fifo_;
  std::uint64_t busy_rejects_sent_ = 0;
  std::uint64_t grants_issued_ = 0;
  std::uint64_t deadline_expiries_ = 0;

  telemetry::Registration metrics_;
  telemetry::Registration overload_metrics_;

 public:
  std::uint64_t acks_sent() const { return acks_sent_; }
};

}  // namespace mtp::core
