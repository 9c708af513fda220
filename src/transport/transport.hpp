// The transport zoo's common API.
//
// Every transport the scenarios compare — MTP, (DC)TCP, the Homa-style
// receiver-driven transport, the MPTCP subflow model — is reached through
// the same three types:
//
//   Transport       one sender endpoint: send_message(bytes, opts, done),
//                   send_bulk(), completed(), name(). SendOptions carries
//                   the per-message knobs (priority / tc / deadline) that
//                   the old MessageSender shim could not express.
//   TransportFleet  everything one scenario needs for one transport: the
//                   per-sender Transport objects plus the receiver-side
//                   state (sink endpoint/stack, grant machinery), built in
//                   one deterministic order, and a metrics() roll-up.
//   TransportRegistry  string-keyed factory ("mtp", "tcp", "dctcp", "homa",
//                   "mptcp"): ScenarioBuilder::transport("homa") resolves
//                   here, and unknown names fail listing what is registered.
//
// Fleets also expose their concrete endpoints (MtpFleet::sender_endpoint,
// TcpFleet::sender_stack, ...) for scenarios that must reach under the
// abstraction — streams ride MTP endpoints, fig7 drives raw TCP stacks.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <string>
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

/// Uniform counter roll-up every fleet reports (RunReport columns).
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

/// Everything a scenario holds for its chosen transport.
class TransportFleet {
 public:
  virtual ~TransportFleet() = default;
  virtual std::string name() const = 0;
  virtual std::size_t num_senders() const = 0;
  virtual Transport& sender(std::size_t i) = 0;
  virtual TransportMetrics metrics() const = 0;
};

/// What a factory gets to build a fleet from: the built topology plus the
/// scenario's addressing and metering choices.
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

/// Per-transport configuration, one struct per transport so a scenario can
/// tune any of them before choosing one by name. MPTCP's subflows use `tcp`
/// as their per-subflow base config.
struct TransportConfig {
  core::MtpConfig mtp;
  TcpConfig tcp;
  HomaConfig homa;
  MptcpConfig mptcp;
};

/// String-keyed factory registry. `global()` arrives pre-loaded with the
/// built-in transports; tests may add their own.
class TransportRegistry {
 public:
  using Factory = std::function<std::unique_ptr<TransportFleet>(
      const TransportBuildContext&, const TransportConfig&)>;

  static TransportRegistry& global();

  void add(std::string name, Factory factory);
  std::vector<std::string> names() const;

  /// Throws std::invalid_argument naming the registered transports when
  /// `name` is unknown.
  std::unique_ptr<TransportFleet> build(const std::string& name,
                                        const TransportBuildContext& ctx,
                                        const TransportConfig& cfg) const;

 private:
  mutable std::mutex mu_;  ///< ParallelSweep builds scenarios on worker threads
  std::vector<std::pair<std::string, Factory>> factories_;
};

// ---------------------------------------------------------------------------
// Concrete fleets, exposed so scenarios can reach the protocol-specific
// machinery beneath the uniform API (dynamic_cast from TransportFleet).

class MtpFleet : public TransportFleet {
 public:
  MtpFleet(const TransportBuildContext& ctx, const TransportConfig& cfg);
  std::string name() const override { return "mtp"; }
  std::size_t num_senders() const override;
  Transport& sender(std::size_t i) override;
  TransportMetrics metrics() const override;

  core::MtpEndpoint& sender_endpoint(std::size_t i) { return *eps_[i]; }
  core::MtpEndpoint* receiver_endpoint() { return rcv_.get(); }

 private:
  std::vector<std::unique_ptr<core::MtpEndpoint>> eps_;
  std::unique_ptr<core::MtpEndpoint> rcv_;
  std::vector<std::unique_ptr<Transport>> senders_;
};

class TcpFleet : public TransportFleet {
 public:
  TcpFleet(const TransportBuildContext& ctx, const TransportConfig& cfg);
  std::string name() const override;
  std::size_t num_senders() const override;
  Transport& sender(std::size_t i) override;
  TransportMetrics metrics() const override;

  TcpStack& sender_stack(std::size_t i) { return *stacks_[i]; }
  TcpStack* receiver_stack() { return rcv_.get(); }
  TcpSink* sink() { return sink_.get(); }

 private:
  std::vector<std::unique_ptr<TcpStack>> stacks_;
  std::unique_ptr<TcpStack> rcv_;
  std::unique_ptr<TcpSink> sink_;
  std::vector<std::unique_ptr<Transport>> senders_;
};

class HomaFleet : public TransportFleet {
 public:
  HomaFleet(const TransportBuildContext& ctx, const TransportConfig& cfg);
  std::string name() const override { return "homa"; }
  std::size_t num_senders() const override;
  Transport& sender(std::size_t i) override;
  TransportMetrics metrics() const override;

 private:
  std::vector<std::unique_ptr<HomaEndpoint>> eps_;
  std::unique_ptr<HomaEndpoint> rcv_;
  std::vector<std::unique_ptr<Transport>> senders_;
};

class MptcpFleet : public TransportFleet {
 public:
  MptcpFleet(const TransportBuildContext& ctx, const TransportConfig& cfg);
  std::string name() const override { return "mptcp"; }
  std::size_t num_senders() const override;
  Transport& sender(std::size_t i) override;
  TransportMetrics metrics() const override;

 private:
  std::vector<std::unique_ptr<TcpStack>> stacks_;
  std::unique_ptr<TcpStack> rcv_;
  std::unique_ptr<TcpSink> sink_;
  std::vector<std::unique_ptr<Transport>> senders_;
};

}  // namespace mtp::transport
