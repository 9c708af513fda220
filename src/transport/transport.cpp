#include "transport/transport.hpp"

#include <algorithm>
#include <stdexcept>

namespace mtp::transport {

namespace {

// ------------------------------------------------------------------- MTP

class MtpTransport : public Transport {
 public:
  MtpTransport(core::MtpEndpoint& ep, net::NodeId dst, proto::PortNum dst_port,
               SendOptions defaults)
      : Transport(defaults), ep_(ep), dst_(dst), dst_port_(dst_port) {}

  void send_message(std::int64_t bytes, const SendOptions& opts,
                    DoneFn done) override {
    core::MessageOptions mo;
    mo.priority = opts.priority;
    mo.tc = opts.tc;
    mo.dst_port = dst_port_;
    mo.deadline = opts.deadline;
    ep_.send_message(dst_, bytes, std::move(mo),
                     [this, bytes, done = std::move(done)](
                         proto::MsgId, sim::SimTime fct) mutable {
                       ++completed_;
                       if (done) done(fct, bytes);
                     });
  }

  std::uint64_t completed() const override { return completed_; }
  std::string name() const override { return "mtp"; }

 private:
  core::MtpEndpoint& ep_;
  net::NodeId dst_;
  proto::PortNum dst_port_;
  std::uint64_t completed_ = 0;
};

// ------------------------------------------------------------------- TCP

class TcpTransport : public Transport {
 public:
  TcpTransport(TcpStack& stack, net::NodeId dst, proto::PortNum dst_port,
               SendOptions defaults)
      : Transport(defaults),
        stack_(stack),
        dst_(dst),
        dst_port_(dst_port),
        client_(stack, dst, dst_port) {}

  // Per-call tc/priority cannot be honored: a TCP stack's traffic class is
  // per-stack configuration, already set by the fleet.
  void send_message(std::int64_t bytes, const SendOptions&, DoneFn done) override {
    client_.send_message(bytes, std::move(done));
  }

  void send_bulk(std::int64_t bytes) override {
    bulk_.push_back(
        std::make_unique<TcpBulkSource>(stack_, dst_, dst_port_, bytes));
  }

  std::uint64_t completed() const override { return client_.completed(); }
  std::string name() const override {
    return stack_.config().dctcp ? "dctcp" : "tcp";
  }

 private:
  TcpStack& stack_;
  net::NodeId dst_;
  proto::PortNum dst_port_;
  TcpPerMessageClient client_;
  std::vector<std::unique_ptr<TcpBulkSource>> bulk_;
};

// ------------------------------------------------------------------ Homa

class HomaTransport : public Transport {
 public:
  HomaTransport(HomaEndpoint& ep, net::NodeId dst, proto::PortNum dst_port,
                SendOptions defaults)
      : Transport(defaults), ep_(ep), dst_(dst), dst_port_(dst_port) {}

  void send_message(std::int64_t bytes, const SendOptions& opts,
                    DoneFn done) override {
    // Receiver-driven SRPT makes sender-assigned priority moot; deadlines
    // are not part of the Homa model.
    HomaOptions ho;
    ho.tc = opts.tc;
    ho.dst_port = dst_port_;
    ep_.send_message(dst_, bytes, ho,
                     [this, bytes, done = std::move(done)](
                         proto::MsgId, sim::SimTime fct) mutable {
                       ++completed_;
                       if (done) done(fct, bytes);
                     });
  }

  std::uint64_t completed() const override { return completed_; }
  std::string name() const override { return "homa"; }

 private:
  HomaEndpoint& ep_;
  net::NodeId dst_;
  proto::PortNum dst_port_;
  std::uint64_t completed_ = 0;
};

// ----------------------------------------------------------------- MPTCP

class MptcpTransport : public Transport {
 public:
  MptcpTransport(TcpStack& stack, net::NodeId dst, proto::PortNum dst_port,
                 SendOptions defaults)
      : Transport(defaults), stack_(stack), dst_(dst), dst_port_(dst_port) {}

  void send_message(std::int64_t bytes, const SendOptions&, DoneFn done) override {
    // Prune only fully-unwound sessions: a closed-loop done callback calls
    // send_message while its session's finish() (and the subflow connection
    // that drove it) are still on the stack — such a session is finished()
    // but not yet reapable().
    std::erase_if(sessions_, [](const auto& s) { return s->reapable(); });
    sessions_.push_back(std::make_unique<MptcpSession>(
        stack_, dst_, dst_port_, bytes,
        [this, done = std::move(done)](sim::SimTime fct,
                                       std::int64_t sent) mutable {
          ++completed_;
          if (done) done(fct, sent);
        }));
  }

  std::uint64_t completed() const override { return completed_; }
  std::string name() const override { return "mptcp"; }

 private:
  TcpStack& stack_;
  net::NodeId dst_;
  proto::PortNum dst_port_;
  std::vector<std::unique_ptr<MptcpSession>> sessions_;
  std::uint64_t completed_ = 0;
};

}  // namespace

// ----------------------------------------------------------------- fleet

TransportFleet::TransportFleet(const std::string& name,
                               const TransportBuildContext& ctx,
                               const core::MtpConfig& mtp_cfg)
    : name_(name) {
  const bool mtp = name == "mtp";
  const bool homa = name == "homa";
  if (std::find(kNames.begin(), kNames.end(), name) == kNames.end()) {
    std::string msg = "unknown transport '" + name + "'; known:";
    for (std::string_view n : kNames) msg.append(" ").append(n);
    throw std::invalid_argument(msg);
  }
  net::Host* rcv = ctx.receiver;
  TcpConfig tcp_cfg;
  tcp_cfg.dctcp = name == "dctcp";
  for (std::size_t i = 0; i < ctx.senders.size(); ++i) {
    net::Host& h = *ctx.senders[i];
    // Peer-to-peer topologies: every message endpoint also accepts messages.
    if (mtp) {
      mtp_.push_back(std::make_unique<core::MtpEndpoint>(h, mtp_cfg));
      if (!rcv) mtp_.back()->listen(ctx.dst_port, [](const core::ReceivedMessage&) {});
    } else if (homa) {
      homa_.push_back(std::make_unique<HomaEndpoint>(h));
      if (!rcv) homa_.back()->listen(ctx.dst_port, [](net::NodeId, std::int64_t) {});
    } else {
      TcpConfig c = tcp_cfg;
      c.tc = ctx.tc_of(i);
      tcp_.push_back(std::make_unique<TcpStack>(h, c));
    }
  }
  if (!rcv) return;

  // The receiver's shard clock: payload deliveries (and so the meter) run
  // on that shard's worker thread only.
  auto* sim = &ctx.net->simulator(ctx.net->shard_of(*rcv));
  auto* meter = ctx.meter;
  auto record = [meter, sim](std::int64_t bytes) { meter->record(sim->now(), bytes); };
  if (mtp) {
    // The receiver runs a plain default config: sender-side knobs
    // (scheduling, pathlet CC tuning) must not distort the sink.
    mtp_rcv_ = std::make_unique<core::MtpEndpoint>(*rcv, core::MtpConfig{});
    mtp_rcv_->listen(ctx.dst_port, [](const core::ReceivedMessage&) {});
    if (meter) mtp_rcv_->on_payload = record;
  } else if (homa) {
    homa_rcv_ = std::make_unique<HomaEndpoint>(*rcv);
    homa_rcv_->listen(ctx.dst_port, [](net::NodeId, std::int64_t) {});
    if (meter) homa_rcv_->on_payload = record;
  } else {
    tcp_rcv_ = std::make_unique<TcpStack>(*rcv, tcp_cfg);
    sink_ = std::make_unique<TcpSink>(*tcp_rcv_, ctx.dst_port, meter);
  }

  for (std::size_t i = 0; i < ctx.senders.size(); ++i) {
    SendOptions defaults;
    defaults.tc = ctx.tc_of(i);
    const net::NodeId dst = rcv->id();
    if (mtp) {
      senders_.push_back(
          std::make_unique<MtpTransport>(*mtp_[i], dst, ctx.dst_port, defaults));
    } else if (homa) {
      senders_.push_back(
          std::make_unique<HomaTransport>(*homa_[i], dst, ctx.dst_port, defaults));
    } else if (name == "mptcp") {
      senders_.push_back(
          std::make_unique<MptcpTransport>(*tcp_[i], dst, ctx.dst_port, defaults));
    } else {
      senders_.push_back(
          std::make_unique<TcpTransport>(*tcp_[i], dst, ctx.dst_port, defaults));
    }
  }
}

TransportMetrics TransportFleet::metrics() const {
  TransportMetrics m;
  for (const auto& t : senders_) m.msgs_completed += t->completed();
  // Message transports count sender-side packets; grants come from the
  // receiver.
  auto add_senders = [&m](const auto& eps) {
    for (const auto& ep : eps) {
      m.pkts_sent += ep->pkts_sent();
      m.retransmits += ep->pkts_retransmitted();
    }
  };
  add_senders(mtp_);
  add_senders(homa_);
  if (mtp_rcv_) m.grants_issued += mtp_rcv_->grants_issued();
  if (homa_rcv_) m.grants_issued += homa_rcv_->grants_issued();
  // TCP counts both directions: the receiver's ACKs are segments too.
  auto add_stack = [&m](const TcpStack& s) {
    m.pkts_sent += s.total_pkts_sent();
    m.retransmits += s.total_retransmits();
    m.timeouts += s.total_timeouts();
  };
  for (const auto& s : tcp_) add_stack(*s);
  if (tcp_rcv_) add_stack(*tcp_rcv_);
  return m;
}

}  // namespace mtp::transport
