// Workload generation: message-size distributions and arrival processes.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <variant>

#include "sim/random.hpp"
#include "sim/simulator.hpp"

namespace mtp::workload {

/// Message-size model. The paper's Fig 6 workload is "10 KB-1 GB skewed
/// toward short messages as per [DCTCP]"; skewed() builds that shape.
class SizeDist {
 public:
  static SizeDist fixed(std::int64_t bytes) { return SizeDist{Fixed{bytes}}; }
  static SizeDist bounded_pareto(std::int64_t lo, std::int64_t hi, double alpha) {
    return SizeDist{sim::BoundedPareto(static_cast<double>(lo), static_cast<double>(hi), alpha)};
  }
  static SizeDist empirical(sim::EmpiricalCdf cdf) { return SizeDist{std::move(cdf)}; }

  /// The paper's skewed mix over [lo, hi]: bounded Pareto with shape 1.2 —
  /// the majority of messages land within ~4x of `lo`, with a heavy tail.
  static SizeDist skewed(std::int64_t lo, std::int64_t hi) {
    return bounded_pareto(lo, hi, 1.2);
  }

  /// Web-search workload (DCTCP paper, Fig. 2 shape): mostly short queries
  /// with a minority of multi-MB background transfers.
  static SizeDist web_search() {
    return empirical(sim::EmpiricalCdf({{6'000, 0.0},
                                        {10'000, 0.15},
                                        {20'000, 0.40},
                                        {50'000, 0.60},
                                        {200'000, 0.75},
                                        {1'000'000, 0.90},
                                        {5'000'000, 0.97},
                                        {30'000'000, 1.0}}));
  }

  /// Data-mining workload (VL2/DCTCP literature): extreme skew — ~80% of
  /// flows under 10 KB, but most *bytes* in 100 MB-scale shuffles.
  static SizeDist data_mining() {
    return empirical(sim::EmpiricalCdf({{100, 0.0},
                                        {1'000, 0.50},
                                        {10'000, 0.80},
                                        {1'000'000, 0.95},
                                        {10'000'000, 0.98},
                                        {100'000'000, 1.0}}));
  }

  std::int64_t sample(sim::Rng& rng) const {
    return std::visit(
        [&](const auto& d) -> std::int64_t {
          using T = std::decay_t<decltype(d)>;
          if constexpr (std::is_same_v<T, Fixed>) {
            return d.bytes;
          } else {
            return std::max<std::int64_t>(1, d.sample_int(rng));
          }
        },
        dist_);
  }

  double mean() const {
    return std::visit(
        [](const auto& d) -> double {
          using T = std::decay_t<decltype(d)>;
          if constexpr (std::is_same_v<T, Fixed>) {
            return static_cast<double>(d.bytes);
          } else {
            return d.mean();
          }
        },
        dist_);
  }

 private:
  struct Fixed {
    std::int64_t bytes;
  };
  using Variant = std::variant<Fixed, sim::BoundedPareto, sim::EmpiricalCdf>;
  explicit SizeDist(Variant v) : dist_(std::move(v)) {}
  Variant dist_;
};

/// Open-loop Poisson message generator: draws exponential inter-arrival
/// times targeting `offered_load` of `capacity`, samples a size, and calls
/// `send(bytes)`. Stop by destroying or calling stop().
class PoissonGenerator {
 public:
  using SendFn = std::function<void(std::int64_t bytes)>;

  PoissonGenerator(sim::Simulator& simulator, sim::Rng& rng, SizeDist sizes,
                   sim::Bandwidth capacity, double offered_load, SendFn send)
      : sim_(simulator),
        rng_(rng),
        sizes_(std::move(sizes)),
        send_(std::move(send)) {
    const double bytes_per_sec =
        static_cast<double>(capacity.bits_per_sec()) / 8.0 * offered_load;
    mean_interarrival_ = sim::SimTime::from_seconds(sizes_.mean() / bytes_per_sec);
  }

  void start() {
    stopped_ = false;
    schedule_next();
  }
  void stop() {
    stopped_ = true;
    sim_.cancel(next_);
  }

  std::uint64_t messages_sent() const { return sent_; }
  sim::SimTime mean_interarrival() const { return mean_interarrival_; }

 private:
  void schedule_next() {
    next_ = sim_.schedule(rng_.exponential_time(mean_interarrival_), [this] {
      if (stopped_) return;
      ++sent_;
      send_(sizes_.sample(rng_));
      schedule_next();
    });
  }

  sim::Simulator& sim_;
  sim::Rng& rng_;
  SizeDist sizes_;
  SendFn send_;
  sim::SimTime mean_interarrival_;
  sim::EventId next_;
  bool stopped_ = true;
  std::uint64_t sent_ = 0;
};

/// Precomputed open-loop arrival schedule, replayed by KeyedReplay. Benches
/// used to park one scheduled event per message upfront — at 100k+
/// concurrent messages that is 100k live heap slots and closures before the
/// first packet moves. A schedule is one flat vector (16 bytes per arrival)
/// and a replay keeps exactly one pending simulator event at any moment, so
/// generating load does not allocate per arrival during the run.
class ArrivalSchedule {
 public:
  struct Arrival {
    sim::SimTime at;
    std::uint32_t src = 0;  ///< caller-defined (e.g. sender host index)
    std::uint32_t bytes = 0;
  };
  using SendFn = std::function<void(const Arrival&)>;

  /// Poisson arrivals over [0, horizon): one aggregate exponential process
  /// with each arrival assigned uniformly to a source. Statistically
  /// identical to `sources` independent thinned processes.
  static ArrivalSchedule poisson(sim::Rng& rng, const SizeDist& sizes,
                                 std::uint32_t sources, sim::SimTime mean_interarrival,
                                 sim::SimTime horizon) {
    ArrivalSchedule s;
    sim::SimTime t = rng.exponential_time(mean_interarrival);
    while (t < horizon) {
      const std::uint32_t src =
          sources <= 1 ? 0 : static_cast<std::uint32_t>(rng.uniform_int(0, sources - 1));
      s.add(t, src, sizes.sample(rng));
      t += rng.exponential_time(mean_interarrival);
    }
    return s;
  }

  /// Append one arrival. Times must be non-decreasing (replay asserts).
  void add(sim::SimTime at, std::uint32_t src, std::int64_t bytes) {
    arrivals_.push_back(
        {at, src, static_cast<std::uint32_t>(std::min<std::int64_t>(bytes, UINT32_MAX))});
  }

  std::size_t size() const { return arrivals_.size(); }
  bool empty() const { return arrivals_.empty(); }
  const std::vector<Arrival>& arrivals() const { return arrivals_; }

 private:
  std::vector<Arrival> arrivals_;
};

/// One long bulk transfer, declared to ScenarioBuilder::bulk_transfer().
/// `src`/`dst` index the topology's sender hosts. rate_cap_bps > 0 paces the
/// transfer (a CBR source); 0 lets it take its max-min fair share. In
/// BulkMode::kFlowLevel these become fluid flows (sim/flow) — no per-packet
/// events; in BulkMode::kPacket the same transfers run as paced packet
/// streams, which is what the flow-vs-packet oracle test compares against.
struct BulkTransfer {
  sim::SimTime at;
  std::uint32_t src = 0;
  std::uint32_t dst = 0;
  std::int64_t bytes = 0;
  std::int64_t rate_cap_bps = 0;
};

/// `count` bulk transfers spread across `hosts` sources: source h sends to
/// the host `stride` ranks away, staggered `spacing` apart — the canned
/// background-load pattern the hybrid fidelity scenarios and the k=32
/// tenant-isolation rig share.
inline std::vector<BulkTransfer> bulk_ring(std::uint32_t hosts, std::uint32_t count,
                                           std::int64_t bytes, std::uint32_t stride,
                                           sim::SimTime spacing = sim::SimTime::zero(),
                                           std::int64_t rate_cap_bps = 0) {
  std::vector<BulkTransfer> v;
  v.reserve(count);
  for (std::uint32_t i = 0; i < count; ++i) {
    const std::uint32_t src =
        hosts == 0 ? 0 : static_cast<std::uint32_t>((std::uint64_t{i} * 97) % hosts);
    v.push_back({spacing * static_cast<std::int64_t>(i), src,
                 (src + stride) % (hosts == 0 ? 1 : hosts), bytes, rate_cap_bps});
  }
  return v;
}

/// Shard-invariant replay of a subset of an ArrivalSchedule.
///
/// Every arrival executes as its own *keyed* event at (arrival.at,
/// kArrivalKeyBase | schedule index). The tie-break position among
/// same-timestamp events is derived from the schedule, not from when the
/// replay's next event happened to be scheduled, so S replays over S
/// disjoint subsets (one per shard, each on its own simulator) execute every
/// arrival at exactly the position the serial single-replay run would. One
/// pending simulator event per replay at any moment.
class KeyedReplay {
 public:
  using Arrival = ArrivalSchedule::Arrival;
  using SendFn = ArrivalSchedule::SendFn;

  /// Select the subset at construction: `take(arrival)` in schedule order.
  /// An empty `take` selects everything (the serial case — used for shard
  /// count 1 too, so one- and many-shard runs replay through identical
  /// machinery).
  KeyedReplay(const ArrivalSchedule& schedule, std::function<bool(const Arrival&)> take)
      : schedule_(&schedule) {
    const auto& all = schedule.arrivals();
    for (std::size_t i = 0; i < all.size(); ++i) {
      if (!take || take(all[i])) picks_.push_back(i);
    }
  }

  void start(sim::Simulator& simulator, SendFn send) {
    send_ = std::move(send);
    cursor_ = 0;
    schedule_next(simulator);
  }

  std::size_t size() const { return picks_.size(); }
  std::size_t replayed() const { return cursor_; }

 private:
  void schedule_next(sim::Simulator& simulator) {
    if (cursor_ >= picks_.size()) return;
    const std::size_t idx = picks_[cursor_];
    const Arrival& a = schedule_->arrivals()[idx];
    simulator.schedule_keyed_at(a.at, sim::kArrivalKeyBase | idx, [this, &simulator] {
      const Arrival& arr = schedule_->arrivals()[picks_[cursor_]];
      ++cursor_;
      schedule_next(simulator);  // chain first so send_ may run() recursively
      send_(arr);
    });
  }

  const ArrivalSchedule* schedule_;
  std::vector<std::size_t> picks_;  ///< global schedule indices, ascending
  std::size_t cursor_ = 0;
  SendFn send_;
};

/// Closed-loop generator: keeps exactly `concurrency` messages outstanding;
/// the owner must call on_complete() when one finishes.
class ClosedLoopGenerator {
 public:
  using SendFn = std::function<void(std::int64_t bytes)>;

  ClosedLoopGenerator(sim::Rng& rng, SizeDist sizes, std::size_t concurrency, SendFn send)
      : rng_(rng), sizes_(std::move(sizes)), concurrency_(concurrency), send_(std::move(send)) {}

  void start() {
    for (std::size_t i = 0; i < concurrency_; ++i) launch();
  }
  void on_complete() {
    if (!stopped_) launch();
  }
  void stop() { stopped_ = true; }
  std::uint64_t messages_sent() const { return sent_; }

 private:
  void launch() {
    ++sent_;
    send_(sizes_.sample(rng_));
  }

  sim::Rng& rng_;
  SizeDist sizes_;
  std::size_t concurrency_;
  SendFn send_;
  bool stopped_ = false;
  std::uint64_t sent_ = 0;
};

}  // namespace mtp::workload
