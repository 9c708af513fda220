// The transport zoo's common API.
//
// Every transport the scenarios compare — MTP, (DC)TCP, the Homa-style
// receiver-driven transport, the MPTCP subflow model — is reached through
// the same two types:
//
//   Transport       one sender endpoint: send_message(bytes, opts, done),
//                   send_bulk(), completed(), name(). SendOptions carries
//                   the per-message knobs (priority / tc / deadline) that
//                   the old MessageSender shim could not express.
//   TransportFleet  everything one scenario needs for one transport, built
//                   by name ("mtp", "tcp", "dctcp", "homa", "mptcp"; an
//                   unknown name throws listing them): the per-sender
//                   Transport objects plus the receiver-side state (sink
//                   endpoint/stack, grant machinery), built in one
//                   deterministic order, and a metrics() roll-up.
//
// The fleet also exposes its concrete endpoints (mtp_sender, tcp_sender,
// ...) for scenarios that must reach under the abstraction — streams ride
// MTP endpoints, fig7 drives raw TCP stacks.
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "mtp/endpoint.hpp"
#include "net/network.hpp"
#include "stats/stats.hpp"
#include "transport/apps.hpp"
#include "transport/homa.hpp"
#include "transport/mptcp.hpp"
#include "transport/tcp.hpp"

namespace mtp::transport {

/// Per-message options, understood by every transport to the extent its
/// protocol can express them (TCP-family transports ignore priority; only
/// MTP enforces deadlines in-network).
struct SendOptions {
  std::uint8_t priority = 0;
  proto::TrafficClassId tc = 0;
  sim::SimTime deadline;  ///< absolute sim time; 0 = none
};

/// Uniform counter roll-up the fleet reports (RunReport columns).
struct TransportMetrics {
  std::uint64_t msgs_completed = 0;
  std::uint64_t pkts_sent = 0;
  std::uint64_t retransmits = 0;
  std::uint64_t timeouts = 0;
  std::uint64_t grants_issued = 0;

  TransportMetrics& operator+=(const TransportMetrics& o) {
    msgs_completed += o.msgs_completed;
    pkts_sent += o.pkts_sent;
    retransmits += o.retransmits;
    timeouts += o.timeouts;
    grants_issued += o.grants_issued;
    return *this;
  }
};

/// One sender endpoint of one transport, bound to the scenario's receiver.
class Transport {
 public:
  /// Completion callback: flow completion time and message size.
  using DoneFn = std::function<void(sim::SimTime fct, std::int64_t bytes)>;

  virtual ~Transport() = default;

  /// Send one `bytes`-long message with explicit options.
  virtual void send_message(std::int64_t bytes, const SendOptions& opts,
                            DoneFn done) = 0;

  /// Send with this sender's defaults (its scenario-assigned traffic class).
  void send_message(std::int64_t bytes, DoneFn done = {}) {
    send_message(bytes, defaults_, std::move(done));
  }

  /// Long-running background transfer; bytes < 0 means "effectively endless"
  /// (TCP keeps a bottomless connection open, message transports send one
  /// huge message).
  virtual void send_bulk(std::int64_t bytes) {
    send_message(bytes < 0 ? (std::int64_t{1} << 30) : bytes, defaults_, {});
  }

  /// Messages whose completion callback has fired (aborted transfers count,
  /// mirroring TCP's per-message client).
  virtual std::uint64_t completed() const = 0;

  virtual std::string name() const = 0;

  const SendOptions& defaults() const { return defaults_; }

 protected:
  explicit Transport(SendOptions defaults) : defaults_(defaults) {}
  SendOptions defaults_;
};

/// What the fleet is built from: the built topology plus the scenario's
/// addressing and metering choices.
struct TransportBuildContext {
  net::Network* net = nullptr;
  std::vector<net::Host*> senders;
  net::Host* receiver = nullptr;  ///< null = peer-to-peer topology
  proto::PortNum dst_port = 80;
  std::vector<proto::TrafficClassId> sender_tcs;
  stats::ThroughputMeter* meter = nullptr;

  proto::TrafficClassId tc_of(std::size_t i) const {
    return i < sender_tcs.size() ? sender_tcs[i] : proto::TrafficClassId{0};
  }
};

/// Everything a scenario holds for its chosen transport. The per-family
/// members of the other families stay empty, so metrics() is one sum and
/// the concrete accessors are plain getters (null when not this family).
class TransportFleet {
 public:
  static constexpr std::array<std::string_view, 5> kNames = {
      "mtp", "tcp", "dctcp", "homa", "mptcp"};

  /// Builds sender endpoints/stacks in sender order, then the receiver, then
  /// the sink, then the Transport adapters — that order fixes the metric
  /// registry order and so the RunReport bytes. `mtp_cfg` configures the
  /// MTP senders only; every other family runs its defaults. Throws
  /// std::invalid_argument listing kNames when `name` is not one of them.
  TransportFleet(const std::string& name, const TransportBuildContext& ctx,
                 const core::MtpConfig& mtp_cfg);

  const std::string& name() const { return name_; }
  std::size_t num_senders() const { return senders_.size(); }
  Transport& sender(std::size_t i) { return *senders_.at(i); }
  TransportMetrics metrics() const;

  core::MtpEndpoint* mtp_sender(std::size_t i) {
    return i < mtp_.size() ? mtp_[i].get() : nullptr;
  }
  core::MtpEndpoint* mtp_receiver() { return mtp_rcv_.get(); }
  /// tcp, dctcp and mptcp (whose subflows ride these stacks).
  TcpStack* tcp_sender(std::size_t i) {
    return i < tcp_.size() ? tcp_[i].get() : nullptr;
  }
  TcpStack* tcp_receiver() { return tcp_rcv_.get(); }

 private:
  std::string name_;
  std::vector<std::unique_ptr<core::MtpEndpoint>> mtp_;
  std::unique_ptr<core::MtpEndpoint> mtp_rcv_;
  std::vector<std::unique_ptr<HomaEndpoint>> homa_;
  std::unique_ptr<HomaEndpoint> homa_rcv_;
  std::vector<std::unique_ptr<TcpStack>> tcp_;
  std::unique_ptr<TcpStack> tcp_rcv_;
  std::unique_ptr<TcpSink> sink_;
  std::vector<std::unique_ptr<Transport>> senders_;
};

}  // namespace mtp::transport
