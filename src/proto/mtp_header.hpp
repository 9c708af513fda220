// The MTP packet header (paper Figure 4).
//
// Layout, in order:
//   SRC Port | DST Port | Msg ID | Msg Pri | Msg Len (bytes/pkts) | Pkt Num |
//   Pkt Offset/Len (bytes) | Path Exclude list of (Path ID, TC) |
//   Path Feedback list of (Path ID, TC, Feedback) |
//   ACK Path Feedback list of (Path ID, TC, Feedback) |
//   SACK list of (Msg ID, Pkt Num) | NACK list of (Msg ID, Pkt Num)
//
// Path Feedback starts empty and is appended by network devices en route;
// the receiver copies it into ACK Path Feedback on the reply, which is how
// pathlet congestion information reaches the sender (paper §3.1.1/§3.1.3).
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "proto/boxed.hpp"
#include "proto/types.hpp"

namespace mtp::proto {

/// Per-pathlet congestion feedback, carried as a Type-Length-Value so
/// different pathlets can run different congestion-control algorithms
/// simultaneously (paper §3.1.3).
enum class FeedbackType : std::uint8_t {
  kNone = 0,
  kEcn = 1,       ///< value: 1 if the packet saw queue >= marking threshold (DCTCP-style)
  kRate = 2,      ///< value: explicit fair rate in bits/sec (RCP-style)
  kDelay = 3,     ///< value: queueing delay in ns experienced at the pathlet (Swift-style)
  kTrimmed = 4,   ///< value: unused; payload was trimmed at an overloaded queue (NDP-style)
};

struct Feedback {
  FeedbackType type = FeedbackType::kNone;
  std::uint64_t value = 0;
  bool operator==(const Feedback&) const = default;
};

/// (Path ID, TC) — element of the Path Exclude list: pathlets the sender asks
/// the network to avoid because it has seen congestion feedback for them.
struct PathRef {
  PathletId pathlet = kDefaultPathlet;
  TrafficClassId tc = 0;
  bool operator==(const PathRef&) const = default;
};

/// (Path ID, TC, Feedback) — element of the Path Feedback lists.
struct PathFeedback {
  PathletId pathlet = kDefaultPathlet;
  TrafficClassId tc = 0;
  Feedback feedback;
  bool operator==(const PathFeedback&) const = default;
};

/// (Msg ID, Pkt Num) — element of the SACK/NACK lists.
struct SackEntry {
  MsgId msg_id = 0;
  std::uint32_t pkt_num = 0;
  bool operator==(const SackEntry&) const = default;
  auto operator<=>(const SackEntry&) const = default;
};

/// Packet roles. DATA carries message payload; ACK carries SACK/NACK lists
/// and echoed path feedback. A trimmed DATA packet keeps its header but has
/// payload_bytes == 0 (NDP-style packet trimming).
enum class MtpPacketType : std::uint8_t { kData = 0, kAck = 1 };

/// Role of an mtp::stream message. kData carries one stream segment, kParity
/// carries one FEC parity segment coding a group of data segments, kFeedback
/// is the receiver's cumulative/selective progress report.
enum class StreamKind : std::uint8_t { kData = 0, kParity = 1, kFeedback = 2 };

inline constexpr std::uint8_t kStreamFin = 1;    ///< data: last segment of the stream
inline constexpr std::uint8_t kStreamReset = 2;  ///< feedback: receiver lost stream state

/// mtp::stream segment/feedback metadata. Rides packet 0 of the MTP message
/// that carries one stream segment (or one feedback report); boxed on
/// MtpHeader because most MTP messages are not stream traffic.
struct StreamHeader {
  std::uint32_t stream_id = 0;
  StreamKind kind = StreamKind::kData;
  std::uint8_t flags = 0;    ///< kStreamFin / kStreamReset
  std::uint32_t seq = 0;     ///< data: segment seq; parity: group base seq; feedback: cumulative ack
  std::uint64_t offset = 0;  ///< data: stream byte offset; feedback: in-order bytes delivered

  // --- FEC group description (parity segments only).
  std::uint32_t fec_group = 0;
  std::uint8_t fec_k = 0;      ///< data segments coded into the group
  std::uint8_t fec_r = 0;      ///< parity segments emitted for the group
  std::uint8_t fec_index = 0;  ///< which parity row [0, fec_r) this segment is
  std::vector<std::uint32_t> seg_lens;  ///< parity: payload length of each data segment

  // --- Receiver loss/repair telemetry (feedback only; drives adaptive r).
  std::vector<std::uint32_t> sack;  ///< seqs received above the cumulative ack (capped)
  std::uint64_t fec_repaired = 0;   ///< cumulative segments repaired by parity
  std::uint32_t gap_events = 0;     ///< cumulative segments first observed missing

  bool fin() const { return flags & kStreamFin; }
  bool reset() const { return flags & kStreamReset; }
  bool operator==(const StreamHeader&) const = default;
};

inline constexpr std::uint8_t kOverloadBusy = 1;     ///< receiver/device rejected the message
inline constexpr std::uint8_t kOverloadExpired = 2;  ///< shed because its deadline had passed

/// mtp::overload metadata. Rides ACKs (receiver-driven admission grants,
/// busy rejects) and packet 0 of deadline-carrying data messages; boxed on
/// MtpHeader because most traffic carries none of it.
struct OverloadInfo {
  std::uint8_t flags = 0;          ///< kOverloadBusy / kOverloadExpired
  /// ACKs: the receiver's per-sender new-message credit (admission window).
  std::uint64_t grant_bytes = 0;
  /// Data packet 0: absolute deadline in sim ns (0 = none). Devices shed
  /// expired messages before service; servers propagate it to children.
  std::uint64_t deadline_ns = 0;

  bool busy() const { return flags & kOverloadBusy; }
  bool expired() const { return flags & kOverloadExpired; }
  bool operator==(const OverloadInfo&) const = default;
};

struct MtpHeader {
  PortNum src_port = 0;
  PortNum dst_port = 0;
  MtpPacketType type = MtpPacketType::kData;

  // --- Message-level information (enables per-message decisions in-network).
  MsgId msg_id = 0;
  std::uint8_t priority = 0;       ///< application-assigned relative priority
  TrafficClassId tc = 0;           ///< entity/tenant the message belongs to
  std::uint64_t msg_len_bytes = 0; ///< total message payload length
  std::uint32_t msg_len_pkts = 0;  ///< total packets in the message
  std::uint32_t pkt_num = 0;       ///< this packet's index within the message
  std::uint64_t pkt_offset = 0;    ///< byte offset of this packet's payload
  std::uint32_t pkt_len = 0;       ///< payload bytes in this packet

  // --- Variable-length lists (pathlet CC + selective acknowledgement).
  //
  // Boxed behind one pointer: most data packets in flight carry none of
  // them, and the packet is moved on every hop, so the five lists would
  // otherwise dominate sizeof(MtpHeader). Mutable accessors take a block on
  // first touch (recycled per thread, see boxed.hpp); const accessors read
  // empty lists for free, so read paths must go through a const header.
  struct Lists {
    std::vector<PathRef> path_exclude;
    std::vector<PathFeedback> path_feedback;
    std::vector<PathFeedback> ack_path_feedback;
    std::vector<SackEntry> sack;
    std::vector<SackEntry> nack;
    bool operator==(const Lists&) const = default;
    /// Empties every list, keeping capacity: how a recycled box is parked.
    void clear() {
      path_exclude.clear();
      path_feedback.clear();
      ack_path_feedback.clear();
      sack.clear();
      nack.clear();
    }
  };
  Boxed<Lists> lists;

  std::vector<PathRef>& path_exclude() { return lists.ensure().path_exclude; }
  const std::vector<PathRef>& path_exclude() const { return lists.view().path_exclude; }
  /// Appended by devices en route.
  std::vector<PathFeedback>& path_feedback() { return lists.ensure().path_feedback; }
  const std::vector<PathFeedback>& path_feedback() const { return lists.view().path_feedback; }
  /// Echoed by the receiver.
  std::vector<PathFeedback>& ack_path_feedback() { return lists.ensure().ack_path_feedback; }
  const std::vector<PathFeedback>& ack_path_feedback() const {
    return lists.view().ack_path_feedback;
  }
  std::vector<SackEntry>& sack() { return lists.ensure().sack; }
  const std::vector<SackEntry>& sack() const { return lists.view().sack; }
  std::vector<SackEntry>& nack() { return lists.ensure().nack; }
  const std::vector<SackEntry>& nack() const { return lists.view().nack; }

  // mtp::stream metadata, present only on stream traffic (packet 0 of the
  // carrying message). Same boxing rationale as the lists above.
  Boxed<StreamHeader> stream;
  bool has_stream() const { return stream.has_value(); }

  // mtp::overload metadata (grants, busy rejects, deadlines); absent on
  // traffic that never touches the overload subsystem.
  Boxed<OverloadInfo> overload;
  bool has_overload() const { return overload.has_value(); }
  /// Absolute deadline carried by this packet, 0 if none.
  std::uint64_t deadline_ns() const { return overload ? overload->deadline_ns : 0; }

  bool is_ack() const { return type == MtpPacketType::kAck; }
  bool is_last_pkt() const { return msg_len_pkts != 0 && pkt_num + 1 == msg_len_pkts; }

  /// Wire size in bytes of this header as laid out by serialize().
  std::size_t wire_size() const;

  /// Fixed portion size (everything before the variable-length lists).
  static constexpr std::size_t kFixedSize =
      2 + 2 + 1 + 8 + 1 + 1 + 8 + 4 + 4 + 8 + 4;  // see serialize()

  void serialize(std::vector<std::uint8_t>& out) const;
  static std::optional<MtpHeader> parse(std::span<const std::uint8_t> in);

  bool operator==(const MtpHeader&) const = default;
};

}  // namespace mtp::proto
