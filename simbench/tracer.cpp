#include "tracer.hpp"

#include <bit>
#include <cmath>
#include <cstdio>

namespace simbench {
namespace {

const char* hot_name(Hot h) {
  switch (h) {
    case Hot::kMtpSend: return "mtp.send_message";
    case Hot::kNetForward: return "net.forward";
    case Hot::kL7Process: return "innetwork.l7lb.process";
  }
  return "?";
}

}  // namespace

// ------------------------------------------------------------ DurationHist

int DurationHist::bucket(std::uint64_t v) {
  if (v < kSub) return static_cast<int>(v);
  const int msb = 63 - std::countl_zero(v);  // >= 4
  const int sub = static_cast<int>((v >> (msb - 4)) & (kSub - 1));
  return (msb - 3) * kSub + sub;
}

double DurationHist::midpoint(int b) {
  if (b < kSub) return b;
  const int msb = b / kSub + 3;
  const int sub = b % kSub;
  const double lo = std::ldexp(1.0, msb) + sub * std::ldexp(1.0, msb - 4);
  return lo + std::ldexp(1.0, msb - 5);
}

void DurationHist::add(std::int64_t ns) {
  ++n_[bucket(ns > 0 ? static_cast<std::uint64_t>(ns) : 0)];
  ++count_;
}

void DurationHist::merge(const DurationHist& o) {
  for (int i = 0; i < kBuckets; ++i) n_[i] += o.n_[i];
  count_ += o.count_;
}

double DurationHist::quantile(double q) const {
  if (count_ == 0) return 0;
  const auto rank = static_cast<std::uint64_t>(q * static_cast<double>(count_ - 1));
  std::uint64_t seen = 0;
  for (int i = 0; i < kBuckets; ++i) {
    seen += n_[i];
    if (seen > rank) return midpoint(i);
  }
  return midpoint(kBuckets - 1);
}

void HotStats::merge(const HotStats& o) {
  calls += o.calls;
  total_ns += o.total_ns;
  self_ns += o.self_ns;
  allocs += o.allocs;
  hist.merge(o.hist);
}

// ------------------------------------------------------------------ Tracer

Tracer& Tracer::global() {
  static Tracer t;
  return t;
}

Tracer::ThreadRec& Tracer::thread_rec() {
  thread_local ThreadRec* rec = nullptr;
  if (rec == nullptr) {
    Tracer& t = global();
    std::lock_guard<std::mutex> lock(t.mu_);
    t.threads_.push_back(std::make_unique<ThreadRec>());
    rec = t.threads_.back().get();
  }
  return *rec;
}

void Tracer::reset() {
  cold_.clear();
  current_slice_ = -1;
  std::lock_guard<std::mutex> lock(mu_);
  for (auto& r : threads_) {
    r->stats = {};
    r->child_ns = 0;
    r->top_child_ns = 0;
    r->depth = 0;
    r->samples.clear();
  }
}

int Tracer::begin_cold(const char* name, std::uint64_t key) {
  cold_.push_back({name, now_ns(), 0, key, -1});
  return static_cast<int>(cold_.size()) - 1;
}

double Tracer::end_cold(int idx) {
  Span& s = cold_[idx];
  s.end_ns = now_ns();
  return static_cast<double>(s.end_ns - s.start_ns) * 1e-9;
}

HotStats Tracer::hot(Hot h) const {
  HotStats out;
  std::lock_guard<std::mutex> lock(mu_);
  for (const auto& r : threads_) out.merge(r->stats[static_cast<int>(h)]);
  return out;
}

std::int64_t Tracer::top_level_child_ns() const {
  std::int64_t n = 0;
  std::lock_guard<std::mutex> lock(mu_);
  for (const auto& r : threads_) n += r->top_child_ns;
  return n;
}

bool Tracer::write_spans(const std::string& path, const std::string& header) const {
  std::FILE* f = std::fopen(path.c_str(), "a");
  if (f == nullptr) return false;
  std::fprintf(f, "%s\n", header.c_str());
  const auto emit = [f](const Span& s, int id) {
    std::fprintf(f,
                 "{\"id\":%d,\"name\":\"%s\",\"start_ns\":%lld,\"end_ns\":%lld,"
                 "\"key\":%llu,\"parent\":%d}\n",
                 id, s.name, static_cast<long long>(s.start_ns),
                 static_cast<long long>(s.end_ns), static_cast<unsigned long long>(s.key),
                 s.parent);
  };
  int id = 0;
  for (const Span& s : cold_) emit(s, id++);
  std::lock_guard<std::mutex> lock(mu_);
  for (const auto& r : threads_) {
    for (const Span& s : r->samples) emit(s, id++);
  }
  return std::fclose(f) == 0;
}

// ----------------------------------------------------------------- HotSpan

HotSpan::~HotSpan() {
  const std::int64_t end = now_ns();
  const std::int64_t dur = end - start_;
  HotStats& st = rec_.stats[static_cast<int>(h_)];
  ++st.calls;
  st.total_ns += dur;
  st.self_ns += dur - rec_.child_ns;
  st.allocs += alloc::thread_allocs() - allocs0_;
  st.hist.add(dur);
  if (st.calls % Tracer::kSampleEvery == 1) {
    rec_.samples.push_back({hot_name(h_), start_, end, key_,
                            Tracer::global().current_slice_});
  }
  rec_.child_ns = saved_child_ + dur;
  if (--rec_.depth == 0) rec_.top_child_ns += dur;
}

// -------------------------------------------------------------- decorators

mtp::net::PortIndex TracedPolicy::select(const mtp::net::Packet& pkt,
                                         std::span<const mtp::net::PortIndex> c,
                                         mtp::net::Switch& sw) {
  HotSpan span(Hot::kNetForward, pkt.is_mtp() ? pkt.mtp().msg_id : 0);
  return inner_->select(pkt, c, sw);
}

bool TracedIngress::process(mtp::net::Packet& pkt, mtp::net::Switch& sw) {
  HotSpan span(Hot::kL7Process, pkt.is_mtp() ? pkt.mtp().msg_id : 0);
  return inner_->process(pkt, sw);
}

}  // namespace simbench
