// Span recorder for the traced benchmark mode.
//
// Spans are recorded from the benchmark's own code, around the calls it makes
// into each layer: scenario.build, workload.gen, sim.run (one per run slice),
// scenario.destroy on the driving thread, and three hot boundaries that fire
// inside the simulation — mtp.send_message (keyed by op id), net.forward and
// innetwork.l7lb.process (keyed by the packet's msg id). The hot boundaries
// keep exact call counts, summed and self durations, allocation counts and a
// log-linear duration histogram per thread, and keep every kSampleEvery-th
// call as an individual span. Everything stays in memory until write_spans().
//
// Self time is a span's duration minus the time its child spans cover. Hot
// spans nest through a per-thread child-time accumulator; hot spans that run
// at top level on a thread are children of the sim.run slice that executes
// them. Under sim::sharded a run slice has one lane per shard, so its self
// time is run wall time x lanes minus the covered child time of all lanes.
#pragma once

#include <array>
#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "alloc_probe.hpp"
#include "net/switch.hpp"

namespace simbench {

enum class Hot : int { kMtpSend = 0, kNetForward = 1, kL7Process = 2 };
inline constexpr int kHotCount = 3;

inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Log-linear histogram of nanosecond durations: exact below 16 ns, then 16
/// sub-buckets per power of two (<= 6.25% relative error).
class DurationHist {
 public:
  void add(std::int64_t ns);
  void merge(const DurationHist& o);
  /// Value at quantile q in [0, 1]; the bucket midpoint.
  double quantile(double q) const;

 private:
  static constexpr int kSub = 16;
  static constexpr int kBuckets = 64 * kSub;
  static int bucket(std::uint64_t v);
  static double midpoint(int b);
  std::array<std::uint64_t, kBuckets> n_{};
  std::uint64_t count_ = 0;
};

struct Span {
  const char* name;
  std::int64_t start_ns;
  std::int64_t end_ns;
  std::uint64_t key;     ///< op id or msg id (0 = none)
  std::int32_t parent;   ///< index of the causing cold span, -1 = none
};

/// Per-boundary totals for one hot span kind.
struct HotStats {
  std::uint64_t calls = 0;
  std::int64_t total_ns = 0;
  std::int64_t self_ns = 0;
  std::uint64_t allocs = 0;
  DurationHist hist;
  void merge(const HotStats& o);
};

class Tracer {
 public:
  static constexpr std::uint64_t kSampleEvery = 1024;

  /// Drop all recorded state (between benchmark iterations).
  void reset();

  /// Cold spans on the driving thread. Returns the span index.
  int begin_cold(const char* name, std::uint64_t key = 0);
  /// Ends the span; returns its duration in seconds.
  double end_cold(int idx);

  /// Hot-span bookkeeping, called by HotSpan.
  struct ThreadRec;
  static ThreadRec& thread_rec();
  void set_current_run_slice(int idx) { current_slice_ = idx; }

  /// Roll-ups over all threads.
  HotStats hot(Hot h) const;
  /// Child time covered at top level on every thread (children of sim.run).
  std::int64_t top_level_child_ns() const;

  /// Append every recorded span (cold + sampled hot) as JSON lines.
  bool write_spans(const std::string& path, const std::string& header) const;

  static Tracer& global();

 private:
  friend class HotSpan;
  std::vector<Span> cold_;
  int current_slice_ = -1;
  mutable std::mutex mu_;
  std::vector<std::unique_ptr<ThreadRec>> threads_;
};

struct Tracer::ThreadRec {
  std::array<HotStats, kHotCount> stats;
  std::int64_t child_ns = 0;  ///< time covered by children of the open span
  std::int64_t top_child_ns = 0;
  int depth = 0;
  std::vector<Span> samples;
};

/// RAII timer for one hot boundary call.
class HotSpan {
 public:
  HotSpan(Hot h, std::uint64_t key)
      : rec_(Tracer::thread_rec()), h_(h), key_(key), saved_child_(rec_.child_ns),
        allocs0_(alloc::thread_allocs()), start_(now_ns()) {
    rec_.child_ns = 0;
    ++rec_.depth;
  }
  ~HotSpan();
  HotSpan(const HotSpan&) = delete;
  HotSpan& operator=(const HotSpan&) = delete;

 private:
  Tracer::ThreadRec& rec_;
  Hot h_;
  std::uint64_t key_;
  std::int64_t saved_child_;
  std::uint64_t allocs0_;
  std::int64_t start_;
};

/// Times every ForwardingPolicy::select() of the wrapped policy.
class TracedPolicy final : public mtp::net::ForwardingPolicy {
 public:
  explicit TracedPolicy(std::unique_ptr<mtp::net::ForwardingPolicy> inner)
      : inner_(std::move(inner)) {}
  mtp::net::PortIndex select(const mtp::net::Packet& pkt,
                             std::span<const mtp::net::PortIndex> c,
                             mtp::net::Switch& sw) override;
  std::string name() const override { return inner_->name(); }

 private:
  std::unique_ptr<mtp::net::ForwardingPolicy> inner_;
};

/// Times every IngressProcessor::process() of the wrapped device.
class TracedIngress final : public mtp::net::IngressProcessor {
 public:
  explicit TracedIngress(std::shared_ptr<mtp::net::IngressProcessor> inner)
      : inner_(std::move(inner)) {}
  bool process(mtp::net::Packet& pkt, mtp::net::Switch& sw) override;

 private:
  std::shared_ptr<mtp::net::IngressProcessor> inner_;
};

}  // namespace simbench
