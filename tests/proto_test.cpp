// Wire-format tests: round-trip serialization of every header, malformed
// input rejection, a seeded property sweep over random MTP headers, and the
// value semantics and per-thread recycling of the Boxed header fields.
#include <gtest/gtest.h>

#include <thread>
#include <utility>

#if defined(__SANITIZE_ADDRESS__)
#include <sanitizer/asan_interface.h>
#endif

#include "proto/boxed.hpp"
#include "proto/mtp_header.hpp"
#include "proto/tcp_header.hpp"
#include "sim/random.hpp"

namespace mtp::proto {
namespace {

MtpHeader sample_header() {
  MtpHeader h;
  h.src_port = 1234;
  h.dst_port = 80;
  h.type = MtpPacketType::kData;
  h.msg_id = 0xdeadbeefcafe;
  h.priority = 7;
  h.tc = 2;
  h.msg_len_bytes = 1'000'000;
  h.msg_len_pkts = 1000;
  h.pkt_num = 41;
  h.pkt_offset = 41'000;
  h.pkt_len = 1000;
  h.path_exclude() = {{5, 1}, {9, 0}};
  h.path_feedback() = {{5, 1, {FeedbackType::kEcn, 1}},
                     {7, 1, {FeedbackType::kRate, 40'000'000'000}}};
  h.ack_path_feedback() = {{5, 1, {FeedbackType::kDelay, 12'345}}};
  h.sack() = {{12, 3}, {12, 4}};
  h.nack() = {{13, 0}};
  return h;
}

TEST(MtpHeader, RoundTripsAllFields) {
  const MtpHeader h = sample_header();
  std::vector<std::uint8_t> buf;
  h.serialize(buf);
  const auto parsed = MtpHeader::parse(buf);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(*parsed, h);
}

TEST(MtpHeader, WireSizeMatchesSerializedLength) {
  const MtpHeader h = sample_header();
  std::vector<std::uint8_t> buf;
  h.serialize(buf);
  EXPECT_EQ(buf.size(), h.wire_size());
}

TEST(MtpHeader, EmptyListsRoundTrip) {
  MtpHeader h;
  h.msg_id = 1;
  h.msg_len_bytes = 10;
  h.msg_len_pkts = 1;
  h.pkt_len = 10;
  std::vector<std::uint8_t> buf;
  h.serialize(buf);
  // Five u16 list counts + the stream and overload presence bytes.
  EXPECT_EQ(buf.size(), MtpHeader::kFixedSize + 12);
  const auto parsed = MtpHeader::parse(buf);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(*parsed, h);
}

TEST(MtpHeader, TruncatedInputRejectedAtEveryLength) {
  const MtpHeader h = sample_header();
  std::vector<std::uint8_t> buf;
  h.serialize(buf);
  for (std::size_t len = 0; len < buf.size(); ++len) {
    EXPECT_FALSE(MtpHeader::parse(std::span(buf.data(), len)).has_value())
        << "accepted truncation at " << len;
  }
}

TEST(MtpHeader, RejectsBadPacketType) {
  MtpHeader h;
  h.msg_len_pkts = 1;
  std::vector<std::uint8_t> buf;
  h.serialize(buf);
  buf[4] = 0x77;  // type byte
  EXPECT_FALSE(MtpHeader::parse(buf).has_value());
}

TEST(MtpHeader, RejectsBadFeedbackType) {
  MtpHeader h = sample_header();
  std::vector<std::uint8_t> buf;
  h.serialize(buf);
  // Corrupt the first feedback TLV's type byte: it sits right after the
  // fixed part + exclude list (2 + 2*5 bytes) + feedback count (2) + path id
  // (4) + tc (1).
  const std::size_t pos = MtpHeader::kFixedSize + 2 + h.path_exclude().size() * 5 + 2 + 4 + 1;
  buf[pos] = 0x99;
  EXPECT_FALSE(MtpHeader::parse(buf).has_value());
}

TEST(MtpHeader, OverloadBlockRoundTrips) {
  MtpHeader h = sample_header();
  auto& ov = h.overload.ensure();
  ov.flags = kOverloadBusy | kOverloadExpired;
  ov.grant_bytes = 123'456;
  ov.deadline_ns = 987'654'321;
  std::vector<std::uint8_t> buf;
  h.serialize(buf);
  EXPECT_EQ(buf.size(), h.wire_size());
  const auto parsed = MtpHeader::parse(buf);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(*parsed, h);
  EXPECT_TRUE(parsed->has_overload());
  EXPECT_TRUE(parsed->overload->busy());
  EXPECT_TRUE(parsed->overload->expired());
  EXPECT_EQ(parsed->deadline_ns(), 987'654'321u);
}

TEST(MtpHeader, RejectsBadOverloadFlags) {
  MtpHeader h;
  h.msg_len_pkts = 1;
  h.overload.ensure().flags = kOverloadBusy;
  std::vector<std::uint8_t> buf;
  h.serialize(buf);
  buf[buf.size() - 17] = 0xf0;  // flags byte: reserved bits must be zero
  EXPECT_FALSE(MtpHeader::parse(buf).has_value());
}

TEST(MtpHeader, IsLastPkt) {
  MtpHeader h;
  h.msg_len_pkts = 3;
  h.pkt_num = 2;
  EXPECT_TRUE(h.is_last_pkt());
  h.pkt_num = 1;
  EXPECT_FALSE(h.is_last_pkt());
}

TEST(MtpHeader, AckOverheadIsModest) {
  // The paper (§4) worries about header growth; verify a typical ACK with a
  // couple of pathlets stays well under a TCP+options header's ~60 bytes
  // plus reasonable slack.
  MtpHeader ack;
  ack.type = MtpPacketType::kAck;
  ack.ack_path_feedback() = {{1, 0, {FeedbackType::kEcn, 1}},
                           {2, 0, {FeedbackType::kEcn, 0}}};
  ack.sack() = {{100, 5}};
  EXPECT_LE(ack.wire_size(), 100u);
}

// --- Property sweep: random headers must round-trip exactly.

class MtpHeaderFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(MtpHeaderFuzz, RandomHeaderRoundTrips) {
  sim::Rng rng(GetParam());
  MtpHeader h;
  h.src_port = static_cast<PortNum>(rng.next_u64());
  h.dst_port = static_cast<PortNum>(rng.next_u64());
  h.type = rng.bernoulli(0.5) ? MtpPacketType::kData : MtpPacketType::kAck;
  h.msg_id = rng.next_u64();
  h.priority = static_cast<std::uint8_t>(rng.next_u64());
  h.tc = static_cast<TrafficClassId>(rng.next_u64());
  h.msg_len_bytes = rng.next_u64() >> 20;
  h.msg_len_pkts = static_cast<std::uint32_t>(rng.next_u64());
  h.pkt_num = static_cast<std::uint32_t>(rng.next_u64());
  h.pkt_offset = rng.next_u64() >> 20;
  h.pkt_len = static_cast<std::uint32_t>(rng.next_u64());
  const auto n_excl = rng.uniform_int(0, 8);
  for (int i = 0; i < n_excl; ++i) {
    h.path_exclude().push_back({static_cast<PathletId>(rng.next_u64()),
                              static_cast<TrafficClassId>(rng.next_u64())});
  }
  auto random_feedback = [&rng] {
    return Feedback{static_cast<FeedbackType>(rng.uniform_int(0, 4)), rng.next_u64()};
  };
  for (int i = 0, n = static_cast<int>(rng.uniform_int(0, 8)); i < n; ++i) {
    h.path_feedback().push_back({static_cast<PathletId>(rng.next_u64()),
                               static_cast<TrafficClassId>(rng.next_u64()),
                               random_feedback()});
  }
  for (int i = 0, n = static_cast<int>(rng.uniform_int(0, 8)); i < n; ++i) {
    h.ack_path_feedback().push_back({static_cast<PathletId>(rng.next_u64()),
                                   static_cast<TrafficClassId>(rng.next_u64()),
                                   random_feedback()});
  }
  for (int i = 0, n = static_cast<int>(rng.uniform_int(0, 16)); i < n; ++i) {
    h.sack().push_back({rng.next_u64(), static_cast<std::uint32_t>(rng.next_u64())});
  }
  for (int i = 0, n = static_cast<int>(rng.uniform_int(0, 16)); i < n; ++i) {
    h.nack().push_back({rng.next_u64(), static_cast<std::uint32_t>(rng.next_u64())});
  }

  std::vector<std::uint8_t> buf;
  h.serialize(buf);
  EXPECT_EQ(buf.size(), h.wire_size());
  const auto parsed = MtpHeader::parse(buf);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(*parsed, h);
}

INSTANTIATE_TEST_SUITE_P(Seeds, MtpHeaderFuzz, ::testing::Range<std::uint64_t>(1, 33));

TEST(TcpHeader, RoundTrips) {
  TcpHeader h;
  h.src_port = 4242;
  h.dst_port = 443;
  h.seq = 1'000'000'007;
  h.ack = 999;
  h.flags = kTcpAck | kTcpEce;
  h.rwnd = 1 << 20;
  h.payload = 1448;
  h.sack() = {{1000, 2000}, {5000, 6000}};
  std::vector<std::uint8_t> buf;
  h.serialize(buf);
  EXPECT_EQ(buf.size(), h.wire_size());
  const auto parsed = TcpHeader::parse(buf);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(*parsed, h);
}

TEST(TcpHeader, RejectsTooManySackBlocks) {
  TcpHeader h;
  h.sack() = {{1, 2}, {3, 4}, {5, 6}};
  std::vector<std::uint8_t> buf;
  h.serialize(buf);
  buf[TcpHeader::kFixedSize - 1] = 9;  // corrupt the block count
  EXPECT_FALSE(TcpHeader::parse(buf).has_value());
}

TEST(TcpHeader, RejectsInvertedSackBlock) {
  TcpHeader h;
  h.sack() = {{100, 50}};
  std::vector<std::uint8_t> buf;
  h.serialize(buf);
  EXPECT_FALSE(TcpHeader::parse(buf).has_value());
}

TEST(TcpHeader, FlagHelpers) {
  TcpHeader h;
  h.flags = kTcpSyn | kTcpAck;
  EXPECT_TRUE(h.has(kTcpSyn));
  EXPECT_TRUE(h.has(kTcpAck));
  EXPECT_FALSE(h.has(kTcpFin));
}

TEST(TcpHeader, TruncatedRejected) {
  TcpHeader h;
  std::vector<std::uint8_t> buf;
  h.serialize(buf);
  buf.pop_back();
  EXPECT_FALSE(TcpHeader::parse(buf).has_value());
}

TEST(UdpHeader, RoundTrips) {
  UdpHeader h{53, 5353, 512};
  std::vector<std::uint8_t> buf;
  h.serialize(buf);
  EXPECT_EQ(buf.size(), UdpHeader::kWireSize);
  const auto parsed = UdpHeader::parse(buf);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(*parsed, h);
}

// --- Boxed: value semantics and per-thread recycling.

using Lists = MtpHeader::Lists;
using ListsPool = detail::BoxPool<Lists>;

Lists full_lists() {
  Lists l;
  l.path_exclude = {{5, 1}};
  l.path_feedback = {{5, 1, {FeedbackType::kEcn, 1}}};
  l.ack_path_feedback = {{7, 0, {FeedbackType::kDelay, 9}}};
  l.sack = {{12, 3}, {12, 4}};
  l.nack = {{13, 0}};
  return l;
}

TEST(Boxed, CopiesAreDeepMovesStealNullEqualsEmpty) {
  Boxed<Lists> null_box;
  Boxed<Lists> empty;
  empty.ensure();
  EXPECT_FALSE(null_box);
  EXPECT_TRUE(empty);
  EXPECT_EQ(null_box, empty);  // null reads as a default-constructed value
  EXPECT_EQ(null_box.view(), Lists{});

  Boxed<Lists> a = full_lists();
  Boxed<Lists> b = a;  // deep copy
  ASSERT_TRUE(b);
  EXPECT_NE(&*a, &*b);
  EXPECT_EQ(a, b);
  b->sack.push_back({14, 0});
  EXPECT_EQ(a->sack.size(), 2u);
  EXPECT_NE(a, b);

  const Lists* held = &*a;
  Boxed<Lists> c = std::move(a);  // steals the box
  EXPECT_FALSE(a);
  EXPECT_EQ(&*c, held);
  b = c;  // copy-assign into a held box
  EXPECT_EQ(b, c);
  EXPECT_NE(&*b, &*c);
  b = Boxed<Lists>{};
  EXPECT_FALSE(b);
  EXPECT_EQ(b, empty);
  b = std::move(c);
  EXPECT_EQ(&*b, held);
  EXPECT_FALSE(c);
}

TEST(Boxed, ReleasedBoxReadsEmptyWhenReacquired) {
  Boxed<Lists> box = full_lists();
  const Lists* addr = &*box;
  const std::size_t sack_capacity = box->sack.capacity();
  const std::uint32_t parked = ListsPool::parked();
  box.reset();
  EXPECT_FALSE(box);
  EXPECT_EQ(ListsPool::parked(), parked + 1);
#if defined(__SANITIZE_ADDRESS__)
  EXPECT_TRUE(__asan_address_is_poisoned(addr));  // use-after-release reports
#endif
  const Lists& again = box.ensure();  // the list is LIFO: the box just parked
  EXPECT_EQ(&again, addr);
  EXPECT_EQ(ListsPool::parked(), parked);
  EXPECT_EQ(again, Lists{});  // no stale SACK, NACK or feedback entry
  EXPECT_EQ(again.sack.capacity(), sack_capacity);  // the buffer was kept

  // A copy takes a parked box too, and a header built on a recycled box
  // serializes exactly like one built on a fresh box.
  Boxed<Lists> src;
  src.ensure().sack = {{1, 2}};
  box.reset();
  MtpHeader h;
  h.lists = src;
  EXPECT_EQ(&*h.lists, addr);
  MtpHeader fresh;
  fresh.sack() = {{1, 2}};
  std::vector<std::uint8_t> a, b;
  h.serialize(a);
  fresh.serialize(b);
  EXPECT_EQ(a, b);
  EXPECT_EQ(h.wire_size(), fresh.wire_size());
}

TEST(Boxed, TypesWithoutClearAreReassignedOnRelease) {
  Boxed<OverloadInfo> ov;
  ov.ensure() = {kOverloadBusy, 100, 200};
  ov.reset();
  EXPECT_EQ(ov.ensure(), OverloadInfo{});
  Boxed<StreamHeader> st;
  st.ensure().seg_lens = {1, 2, 3};
  st->fec_k = 3;
  st.reset();
  EXPECT_EQ(st.ensure(), StreamHeader{});
}

TEST(Boxed, BoxReleasedOnAnotherThreadJoinsThatThreadsList) {
  Boxed<Lists> box = full_lists();
  const std::uint32_t here = ListsPool::parked();
  std::uint32_t there_before = 0, there_after = 0;
  std::thread([&] {
    there_before = ListsPool::parked();
    Boxed<Lists> moved = std::move(box);
    moved.reset();
    there_after = ListsPool::parked();
  }).join();  // the thread frees its list at exit
  EXPECT_EQ(there_before, 0u);
  EXPECT_EQ(there_after, 1u);
  EXPECT_EQ(ListsPool::parked(), here);
}

TEST(Boxed, ReleaseParkedBoxesEmptiesEveryListOfTheThread) {
  std::uint32_t lists_before = 0, lists_after = 0, overload_after = 0;
  std::thread([&] {
    Boxed<Lists> lists = full_lists();
    Boxed<OverloadInfo> overload;
    overload.ensure().grant_bytes = 1;
    lists.reset();
    overload.reset();
    lists_before = ListsPool::parked();
    release_parked_boxes();
    lists_after = ListsPool::parked();
    overload_after = detail::BoxPool<OverloadInfo>::parked();
    EXPECT_EQ(lists.ensure(), Lists{});  // the list still works after a drain
  }).join();
  EXPECT_EQ(lists_before, 1u);
  EXPECT_EQ(lists_after, 0u);
  EXPECT_EQ(overload_after, 0u);
}

TEST(Boxed, FreeListIsBounded) {
  std::uint32_t parked = 0;
  std::thread([&] {
    std::vector<Boxed<Lists>> boxes(ListsPool::kMaxParked + 8);
    for (auto& b : boxes) b.ensure();
    boxes.clear();
    parked = ListsPool::parked();
  }).join();
  EXPECT_EQ(parked, ListsPool::kMaxParked);
}

}  // namespace
}  // namespace mtp::proto
