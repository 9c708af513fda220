// mtp::telemetry tests: registry lifecycle and lookup, trace ring semantics,
// filters, JSONL round-trip, end-to-end event ordering on a real transfer,
// and run-report rendering.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <map>

#include "mtp/endpoint.hpp"
#include "net/network.hpp"
#include "stats/stats.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/report.hpp"
#include "telemetry/trace.hpp"

namespace mtp::telemetry {
namespace {

using namespace mtp::sim::literals;

/// Every test starts from a clean, disabled sink and leaves it that way —
/// the sink is process-global state shared with every other test.
class TelemetryTest : public ::testing::Test {
 protected:
  void SetUp() override {
    TraceSink::set_enabled(false);
    trace().set_capacity(1 << 16);  // also clears
    trace().clear_filters();
  }
  void TearDown() override {
    TraceSink::set_enabled(false);
    trace().set_capacity(1 << 16);
    trace().clear_filters();
  }
};

TraceEvent make_event(std::uint64_t msg_id, TraceEventType type = TraceEventType::kTx) {
  TraceEvent ev;
  ev.t = sim::SimTime::nanoseconds(static_cast<std::int64_t>(msg_id));
  ev.type = type;
  ev.component = "test";
  ev.msg_id = msg_id;
  return ev;
}

// ---------------------------------------------------------------- registry

TEST_F(TelemetryTest, RegistryProviderAppearsInSnapshotAndDeregistersOnDrop) {
  auto& reg = MetricRegistry::global();
  const std::size_t before = reg.provider_count();
  double live = 7;
  {
    Registration r = reg.add("widget", "w0", [&](std::vector<MetricSample>& out) {
      out.push_back({"spins", MetricKind::kCounter, live});
    });
    EXPECT_EQ(reg.provider_count(), before + 1);

    RegistrySnapshot snap = reg.snapshot();
    ASSERT_TRUE(snap.value("widget", "w0", "spins").has_value());
    EXPECT_EQ(*snap.value("widget", "w0", "spins"), 7);

    // Snapshots sample live state: the provider is re-polled each time.
    live = 8;
    EXPECT_EQ(*reg.snapshot().value("widget", "w0", "spins"), 8);
  }
  EXPECT_EQ(reg.provider_count(), before);
  EXPECT_FALSE(reg.snapshot().value("widget", "w0", "spins").has_value());
}

TEST_F(TelemetryTest, RegistrationIsMovable) {
  auto& reg = MetricRegistry::global();
  const std::size_t before = reg.provider_count();
  Registration outer;
  {
    Registration inner = reg.add("widget", "w1", [](std::vector<MetricSample>& out) {
      out.push_back({"x", MetricKind::kGauge, 1});
    });
    outer = std::move(inner);
    EXPECT_FALSE(inner.active());  // NOLINT(bugprone-use-after-move)
  }
  // The provider survived its original handle's scope via the move.
  EXPECT_EQ(reg.provider_count(), before + 1);
  EXPECT_TRUE(outer.active());
  outer.reset();
  EXPECT_EQ(reg.provider_count(), before);
}

TEST_F(TelemetryTest, SnapshotTotalSumsAcrossInstances) {
  auto& reg = MetricRegistry::global();
  auto mk = [&](const char* inst, double v) {
    return reg.add("widget", inst, [v](std::vector<MetricSample>& out) {
      out.push_back({"spins", MetricKind::kCounter, v});
    });
  };
  Registration a = mk("a", 3), b = mk("b", 4);
  EXPECT_EQ(reg.snapshot().total("widget", "spins"), 7);
  EXPECT_EQ(reg.snapshot().total("widget", "absent"), 0);
}

TEST_F(TelemetryTest, SnapshotJsonEscapesAndRenders) {
  auto& reg = MetricRegistry::global();
  Registration r = reg.add("widget", "quo\"te", [](std::vector<MetricSample>& out) {
    out.push_back({"spins", MetricKind::kCounter, 42});
  });
  const std::string json = reg.snapshot().to_json();
  EXPECT_NE(json.find("\"quo\\\"te\""), std::string::npos);
  EXPECT_NE(json.find("\"spins\":42"), std::string::npos);
}

// Registry contract under churn. Each test owns a private registry so the
// provider lists it checks hold exactly the providers it added.

/// A provider whose one sample carries its registration index.
Registration add_indexed(MetricRegistry& reg, int i) {
  return reg.add("widget", "w" + std::to_string(i),
                 [i](std::vector<MetricSample>& out) {
                   out.push_back({"index", MetricKind::kGauge, static_cast<double>(i)});
                 });
}

/// The `index` samples of a snapshot, in snapshot order.
std::vector<int> snapshot_indices(const MetricRegistry& reg) {
  std::vector<int> out;
  for (const auto& p : reg.snapshot().providers) {
    EXPECT_EQ(p.instance, "w" + std::to_string(static_cast<int>(p.metrics.at(0).value)));
    out.push_back(static_cast<int>(p.metrics.at(0).value));
  }
  return out;
}

TEST_F(TelemetryTest, RegistryOutOfOrderRemovalsThenAddsKeepRegistrationOrder) {
  MetricRegistry reg;
  std::vector<Registration> h;
  for (int i = 0; i < 8; ++i) h.push_back(add_indexed(reg, i));
  for (int i : {5, 1, 6, 2}) h[i].reset();
  EXPECT_EQ(reg.provider_count(), 4u);
  EXPECT_EQ(snapshot_indices(reg), (std::vector<int>{0, 3, 4, 7}));

  for (int i = 8; i < 11; ++i) h.push_back(add_indexed(reg, i));
  h[0].reset();
  h[9].reset();
  EXPECT_EQ(reg.provider_count(), 5u);
  EXPECT_EQ(snapshot_indices(reg), (std::vector<int>{3, 4, 7, 8, 10}));
}

TEST_F(TelemetryTest, RegistrySnapshotAfterCompactionKeepsOrderAndExactCount) {
  MetricRegistry reg;
  std::vector<Registration> h;
  for (int i = 0; i < 100; ++i) h.push_back(add_indexed(reg, i));
  // Drop every index not divisible by 4, back half first: 75 removals, so
  // the tombstones pass half the entries and at least one compaction runs.
  std::vector<int> live;
  for (int i = 99; i >= 0; i -= 2) h[i].reset();
  for (int i = 2; i < 100; i += 4) h[i].reset();
  for (int i = 0; i < 100; i += 4) live.push_back(i);
  EXPECT_EQ(reg.provider_count(), live.size());
  EXPECT_EQ(snapshot_indices(reg), live);

  // Providers added after a compaction land behind the survivors.
  for (int i = 100; i < 104; ++i) {
    h.push_back(add_indexed(reg, i));
    live.push_back(i);
  }
  h[40].reset();
  std::erase(live, 40);
  EXPECT_EQ(reg.provider_count(), live.size());
  EXPECT_EQ(snapshot_indices(reg), live);
}

TEST_F(TelemetryTest, RegistryDoubleDropAndMoveOntoLiveHandleLeaveOthersAlone) {
  MetricRegistry reg;
  Registration a = add_indexed(reg, 0);
  Registration b = add_indexed(reg, 1);
  Registration c = add_indexed(reg, 2);
  Registration d = add_indexed(reg, 3);

  b.reset();
  b.reset();  // the second drop is a no-op
  EXPECT_FALSE(b.active());
  EXPECT_EQ(reg.provider_count(), 3u);
  EXPECT_EQ(snapshot_indices(reg), (std::vector<int>{0, 2, 3}));

  // Moving d onto the live handle a drops a's provider and keeps d's.
  a = std::move(d);
  EXPECT_TRUE(a.active());
  EXPECT_FALSE(d.active());  // NOLINT(bugprone-use-after-move)
  EXPECT_EQ(reg.provider_count(), 2u);
  EXPECT_EQ(snapshot_indices(reg), (std::vector<int>{2, 3}));

  d.reset();  // a moved-from handle owns nothing
  EXPECT_EQ(snapshot_indices(reg), (std::vector<int>{2, 3}));
  a.reset();
  EXPECT_EQ(snapshot_indices(reg), (std::vector<int>{2}));
}

TEST_F(TelemetryTest, RegistryEmptiedByRemovalsSnapshotsEmpty) {
  MetricRegistry reg;
  {
    std::vector<Registration> h;
    for (int i = 0; i < 5; ++i) h.push_back(add_indexed(reg, i));
    h[2].reset();
  }
  EXPECT_EQ(reg.provider_count(), 0u);
  EXPECT_TRUE(reg.snapshot().empty());
  EXPECT_EQ(reg.snapshot().to_json(), "[]");

  Registration again = add_indexed(reg, 7);
  EXPECT_EQ(snapshot_indices(reg), (std::vector<int>{7}));
}

TEST_F(TelemetryTest, RegistryMatchesReferenceModelUnderRandomChurn) {
  MetricRegistry reg;
  std::vector<Registration> h;
  std::vector<int> live;  // reference model: live indices in registration order
  std::uint64_t x = 0x9e3779b97f4a7c15ULL;
  for (int step = 0; step < 4000; ++step) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    if (live.empty() || x % 5 < 3) {
      const int i = static_cast<int>(h.size());
      h.push_back(add_indexed(reg, i));
      live.push_back(i);
    } else {
      const auto pos = static_cast<std::ptrdiff_t>((x >> 8) % live.size());
      h[live[pos]].reset();
      live.erase(live.begin() + pos);
    }
    ASSERT_EQ(reg.provider_count(), live.size());
    if (step % 97 == 0) {
      ASSERT_EQ(snapshot_indices(reg), live);
    }
  }
  EXPECT_EQ(snapshot_indices(reg), live);
}

// Teardown must not be quadratic in fabric size. A quadratic removal path
// takes minutes for 200k providers; ctest's TIMEOUT on this suite catches it.
TEST_F(TelemetryTest, RegistryDropsTwoHundredThousandProvidersWithoutQuadraticCost) {
  constexpr int kProviders = 200'000;
  MetricRegistry reg;
  std::vector<Registration> h;
  h.reserve(kProviders);
  for (int pass = 0; pass < 2; ++pass) {
    for (int i = 0; i < kProviders; ++i) {
      h.push_back(reg.add("q", "i", [](std::vector<MetricSample>&) {}));
    }
    ASSERT_EQ(reg.provider_count(), static_cast<std::size_t>(kProviders));
    if (pass == 0) {
      for (auto& r : h) r.reset();  // first-to-last
    } else {
      for (auto it = h.rbegin(); it != h.rend(); ++it) it->reset();  // last-to-first
    }
    EXPECT_EQ(reg.provider_count(), 0u);
    EXPECT_TRUE(reg.snapshot().empty());
    h.clear();
  }
}

// ------------------------------------------------------------------- sink

TEST_F(TelemetryTest, EnabledFlagGatesInstrumentation) {
  // The flag is the contract every hook checks before building an event;
  // with it off, an instrumented simulation records nothing.
  EXPECT_FALSE(TraceSink::enabled());

  net::Network net;
  net::Host* a = net.add_host("a");
  net::Host* b = net.add_host("b");
  net.connect(*a, *b, sim::Bandwidth::gbps(10), 1_us, {.capacity_pkts = 16});
  core::MtpEndpoint tx(*a, {});
  core::MtpEndpoint rx(*b, {});
  rx.listen(80, [](const core::ReceivedMessage&) {});
  tx.send_message(b->id(), 5'000, {.dst_port = 80});
  net.simulator().run();

  EXPECT_GT(tx.pkts_sent(), 0u);
  EXPECT_EQ(trace().size(), 0u);
  EXPECT_EQ(trace().recorded(), 0u);
}

TEST_F(TelemetryTest, RingBoundsMemoryAndOverwritesOldest) {
  TraceSink::set_enabled(true);
  trace().set_capacity(8);
  for (std::uint64_t i = 0; i < 20; ++i) trace().record(make_event(i));
  EXPECT_EQ(trace().size(), 8u);
  EXPECT_EQ(trace().capacity(), 8u);
  EXPECT_EQ(trace().recorded(), 20u);

  const auto events = trace().events();
  ASSERT_EQ(events.size(), 8u);
  for (std::size_t i = 0; i < events.size(); ++i) {
    EXPECT_EQ(events[i].msg_id, 12 + i) << "oldest-first order after wrap";
  }
}

TEST_F(TelemetryTest, FiltersSuppressNonMatchingEvents) {
  TraceSink::set_enabled(true);
  trace().filter_message(5);
  trace().record(make_event(5));
  trace().record(make_event(6));
  EXPECT_EQ(trace().size(), 1u);
  EXPECT_EQ(trace().suppressed(), 1u);
  EXPECT_EQ(trace().events().front().msg_id, 5u);

  trace().clear_filters();
  trace().record(make_event(6));
  EXPECT_EQ(trace().size(), 2u);
}

TEST_F(TelemetryTest, NodeFilterMatchesEitherEndpoint) {
  TraceSink::set_enabled(true);
  trace().filter_node(9);
  TraceEvent from = make_event(1);
  from.src = 9;
  TraceEvent to = make_event(2);
  to.dst = 9;
  TraceEvent neither = make_event(3);
  trace().record(from);
  trace().record(to);
  trace().record(neither);
  EXPECT_EQ(trace().size(), 2u);
  EXPECT_EQ(trace().suppressed(), 1u);
}

TEST_F(TelemetryTest, CountByType) {
  TraceSink::set_enabled(true);
  trace().record(make_event(1, TraceEventType::kTx));
  trace().record(make_event(2, TraceEventType::kTx));
  trace().record(make_event(3, TraceEventType::kDrop));
  EXPECT_EQ(trace().count(TraceEventType::kTx), 2u);
  EXPECT_EQ(trace().count(TraceEventType::kDrop), 1u);
  EXPECT_EQ(trace().count(TraceEventType::kRto), 0u);
}

TEST_F(TelemetryTest, EventTypeNamesRoundTrip) {
  for (int i = 0; i <= static_cast<int>(TraceEventType::kPathletFeedback); ++i) {
    const auto type = static_cast<TraceEventType>(i);
    const auto back = trace_event_type_from_string(to_string(type));
    ASSERT_TRUE(back.has_value()) << to_string(type);
    EXPECT_EQ(*back, type);
  }
  EXPECT_FALSE(trace_event_type_from_string("bogus").has_value());
}

TEST_F(TelemetryTest, JsonlRoundTrips) {
  TraceSink::set_enabled(true);
  TraceEvent ev;
  ev.t = 1500_ns;
  ev.type = TraceEventType::kEcnMark;
  ev.component = "sw->rcv";
  ev.src = 3;
  ev.dst = 4;
  ev.msg_id = 77;
  ev.pkt_num = 12;
  ev.bytes = 1064;
  ev.tc = 2;
  ev.flow = 0xdeadbeefcafeULL;
  ev.pathlet = 9;
  ev.value = 123;
  trace().record(ev);
  trace().record(make_event(78, TraceEventType::kAck));

  const std::string jsonl = trace().to_jsonl();
  const auto parsed = TraceSink::parse_jsonl(jsonl);
  ASSERT_EQ(parsed.size(), 2u);
  const TraceEvent& p = parsed.front();
  EXPECT_EQ(p.t, ev.t);
  EXPECT_EQ(p.type, ev.type);
  EXPECT_EQ(p.component, ev.component);
  EXPECT_EQ(p.src, ev.src);
  EXPECT_EQ(p.dst, ev.dst);
  EXPECT_EQ(p.msg_id, ev.msg_id);
  EXPECT_EQ(p.pkt_num, ev.pkt_num);
  EXPECT_EQ(p.bytes, ev.bytes);
  EXPECT_EQ(p.tc, ev.tc);
  EXPECT_EQ(p.flow, ev.flow);
  EXPECT_EQ(p.pathlet, ev.pathlet);
  EXPECT_EQ(p.value, ev.value);
}

TEST_F(TelemetryTest, ParseJsonlSkipsGarbageLines) {
  const auto parsed = TraceSink::parse_jsonl(
      "not json\n"
      "{\"t_ns\":5,\"type\":\"tx\",\"component\":\"l\",\"src\":1,\"dst\":2,"
      "\"msg_id\":3,\"pkt_num\":4,\"bytes\":5,\"tc\":6,\"flow\":7,\"pathlet\":8,"
      "\"value\":9}\n"
      "{\"type\":\"unknowntype\",\"t_ns\":1}\n");
  ASSERT_EQ(parsed.size(), 1u);
  EXPECT_EQ(parsed.front().msg_id, 3u);
}

// ----------------------------------------------------- end-to-end transfer

TEST_F(TelemetryTest, TwoHostTransferProducesOrderedEvents) {
  TraceSink::set_enabled(true);

  net::Network net;
  net::Host* alice = net.add_host("alice");
  net::Host* bob = net.add_host("bob");
  net::Switch* sw = net.add_switch("tor");
  net.connect(*alice, *sw, sim::Bandwidth::gbps(100), 1_us, {.capacity_pkts = 128});
  net.connect(*sw, *bob, sim::Bandwidth::gbps(100), 1_us, {.capacity_pkts = 128});
  sw->add_route(alice->id(), 0);
  sw->add_route(bob->id(), 1);

  core::MtpEndpoint tx(*alice, {});
  core::MtpEndpoint rx(*bob, {});
  rx.listen(80, [](const core::ReceivedMessage&) {});
  const proto::MsgId msg = tx.send_message(bob->id(), 50'000, {.dst_port = 80});
  net.simulator().run();

  const std::uint32_t total_pkts = 50;  // 50'000 bytes / 1000 MSS
  ASSERT_EQ(tx.pkts_sent(), total_pkts);
  ASSERT_EQ(tx.pkts_retransmitted(), 0u);

  // Per-(link, packet) lifecycle: every data packet on the first hop was
  // enqueued, dequeued, serialized and delivered, in that time order.
  std::map<std::uint32_t, std::map<TraceEventType, sim::SimTime>> uplink;
  for (const auto& ev : trace().events()) {
    if (ev.component == "alice->tor" && ev.msg_id == msg) {
      uplink[ev.pkt_num][ev.type] = ev.t;
    }
  }
  ASSERT_EQ(uplink.size(), total_pkts);
  for (const auto& [pkt, stages] : uplink) {
    ASSERT_TRUE(stages.contains(TraceEventType::kEnqueue)) << "pkt " << pkt;
    ASSERT_TRUE(stages.contains(TraceEventType::kDequeue)) << "pkt " << pkt;
    ASSERT_TRUE(stages.contains(TraceEventType::kTx)) << "pkt " << pkt;
    ASSERT_TRUE(stages.contains(TraceEventType::kRx)) << "pkt " << pkt;
    EXPECT_LE(stages.at(TraceEventType::kEnqueue), stages.at(TraceEventType::kDequeue));
    EXPECT_LE(stages.at(TraceEventType::kDequeue), stages.at(TraceEventType::kTx));
    EXPECT_LE(stages.at(TraceEventType::kTx), stages.at(TraceEventType::kRx));
  }

  // ACK events come from the receiving endpoint and match its counter.
  EXPECT_EQ(trace().count(TraceEventType::kAck), rx.acks_sent());
  EXPECT_GT(rx.acks_sent(), 0u);
  // Clean run: no drops, losses or NACKs.
  EXPECT_EQ(trace().count(TraceEventType::kDrop), 0u);
  EXPECT_EQ(trace().count(TraceEventType::kRto), 0u);
  EXPECT_EQ(trace().count(TraceEventType::kNack), 0u);

  // The registry agrees with the component accessors while the rig is alive.
  const RegistrySnapshot snap = MetricRegistry::global().snapshot();
  EXPECT_EQ(*snap.value("mtp", "alice", "pkts_sent"), static_cast<double>(tx.pkts_sent()));
  EXPECT_EQ(*snap.value("mtp", "bob", "acks_sent"), static_cast<double>(rx.acks_sent()));
  EXPECT_EQ(*snap.value("mtp", "bob", "msgs_delivered"), 1.0);
  EXPECT_GE(*snap.value("link", "alice->tor", "pkts_delivered"),
            static_cast<double>(total_pkts));
  EXPECT_EQ(*snap.value("queue", "alice->tor", "dropped"), 0.0);
  EXPECT_EQ(*snap.value("host", "bob", "unhandled_packets"), 0.0);
  EXPECT_EQ(*snap.value("switch", "tor", "no_route_drops"), 0.0);
}

// ----------------------------------------------------------------- report

TEST_F(TelemetryTest, RunReportRendersSectionsScalarsAndRegistry) {
  auto& reg = MetricRegistry::global();
  Registration r = reg.add("widget", "w0", [](std::vector<MetricSample>& out) {
    out.push_back({"spins", MetricKind::kCounter, 11});
  });

  stats::FctRecorder fct;
  fct.record(10_us, 1'000);    // short
  fct.record(20_us, 1'000);    // short
  fct.record(500_us, 900'000); // long

  RunReport report("unit_test");
  auto& sec = report.section("scheme_a");
  sec.add_scalar("goodput_gbps", 87.5);
  sec.add_text("note", "hello \"world\"");
  sec.add_fct("fct", fct, /*split_bytes=*/100'000);
  sec.set_registry(reg.snapshot());
  report.section("scheme_b").add_scalar("goodput_gbps", 42.0);

  const std::string json = report.to_json();
  EXPECT_NE(json.find("\"experiment\": \"unit_test\""), std::string::npos);
  EXPECT_NE(json.find("\"schema\": \"mtp.telemetry.run_report/v1\""), std::string::npos);
  EXPECT_NE(json.find("\"scheme_a\""), std::string::npos);
  EXPECT_NE(json.find("\"scheme_b\""), std::string::npos);
  EXPECT_NE(json.find("\"goodput_gbps\":87.5"), std::string::npos);
  EXPECT_NE(json.find("hello \\\"world\\\""), std::string::npos);
  EXPECT_NE(json.find("\"spins\":11"), std::string::npos);
  // FCT summary with the short/long split present.
  EXPECT_NE(json.find("\"count\":3"), std::string::npos);
  EXPECT_NE(json.find("\"short\""), std::string::npos);
  EXPECT_NE(json.find("\"long\""), std::string::npos);

  // Section lookup is get-or-create: the same name returns the same section.
  report.section("scheme_a").add_scalar("extra", 1.0);
  EXPECT_NE(report.to_json().find("\"extra\":1"), std::string::npos);
}

TEST_F(TelemetryTest, RunReportWritesFile) {
  RunReport report("file_test");
  report.section("only").add_scalar("x", 3.0);
  const std::string path = ::testing::TempDir() + "telemetry_file_test.json";
  ASSERT_TRUE(report.write_file(path));
  std::FILE* f = std::fopen(path.c_str(), "rb");
  ASSERT_NE(f, nullptr);
  char buf[4096];
  const std::size_t n = std::fread(buf, 1, sizeof(buf) - 1, f);
  std::fclose(f);
  buf[n] = '\0';
  EXPECT_NE(std::string(buf).find("\"file_test\""), std::string::npos);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace mtp::telemetry
