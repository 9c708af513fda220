// The benchmark's three workloads. Each Experiment owns one Scenario plus
// the benchmark-side bookkeeping that checks every operation completes at
// most once; the driver times its phases (generate, build, run slices,
// destroy) from outside.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "scenario/scenario.hpp"

namespace simbench {

/// Correctness outputs of one run phase.
struct Outcome {
  std::uint64_t attempted = 0;   ///< operations issued
  std::uint64_t completed = 0;   ///< operations completed by the horizon
  std::uint64_t duplicates = 0;  ///< second completions of one operation (must be 0)
  std::uint64_t digest = 0;      ///< completion digest (sim-time, order-free)
  double p50_us = 0;             ///< sim-time operation latency
  double p99_us = 0;
};

class Experiment {
 public:
  virtual ~Experiment() = default;

  /// workload.gen: derive every input from `seed`.
  virtual void generate(std::uint64_t seed) = 0;
  /// scenario.build: ScenarioBuilder::build() plus the benchmark's wiring.
  virtual void build() = 0;
  /// Sim-time ends of the run slices; the last one is the horizon.
  virtual std::vector<mtp::sim::SimTime> slices() const = 0;
  /// Workload-specific checks against the registry snapshot; appends a
  /// reason for every violation.
  virtual void check(const mtp::telemetry::RegistrySnapshot&,
                     std::vector<std::string>& /*violations*/) const {}

  std::uint64_t run_slice(mtp::sim::SimTime until) { return scenario_->run(until); }
  /// scenario.destroy.
  void destroy() { scenario_.reset(); }
  mtp::scenario::Scenario& scenario() { return *scenario_; }

  /// Operations issued and not yet completed, summed over shards.
  std::uint64_t inflight() const;
  /// Operations the workload defines (issued or not by the horizon).
  std::uint64_t total_ops() const { return latency_ns_.size(); }
  /// Every operation issued and completed.
  bool all_done() const;
  /// Sum over shards of each shard's peak in-flight count.
  std::uint64_t peak_inflight() const;
  virtual Outcome outcome() const;

 protected:
  explicit Experiment(bool traced) : traced_(traced) {}

  /// Size the per-operation tables (call from generate()).
  void reset_ops(std::size_t n, unsigned shards);
  void issue(std::uint32_t op, unsigned shard, mtp::sim::SimTime at) {
    start_ns_[op] = at.ns();
    ShardCount& c = counts_[shard];
    ++c.issued;
    if (c.issued - c.completed > c.peak) c.peak = c.issued - c.completed;
  }
  void complete(std::uint32_t op, unsigned shard, mtp::sim::SimTime latency) {
    ShardCount& c = counts_[shard];
    if (latency_ns_[op] >= 0) {
      ++c.duplicates;
      return;
    }
    latency_ns_[op] = latency.ns();
    ++c.completed;
  }
  /// Send through MtpEndpoint::send_message, timed as an mtp.send_message
  /// span keyed by `op` in traced runs.
  mtp::proto::MsgId send(mtp::core::MtpEndpoint& ep, mtp::net::NodeId dst,
                         std::int64_t bytes, mtp::core::MessageOptions opts,
                         std::uint32_t op, mtp::core::MtpEndpoint::DoneFn done = {});

  const bool traced_;
  std::unique_ptr<mtp::scenario::Scenario> scenario_;

 private:
  struct alignas(64) ShardCount {
    std::uint64_t issued = 0;
    std::uint64_t completed = 0;
    std::uint64_t peak = 0;
    std::uint64_t duplicates = 0;
  };
  std::vector<ShardCount> counts_;
  std::vector<std::int64_t> start_ns_;
  std::vector<std::int64_t> latency_ns_;  ///< -1 until completed
};

/// Known workload names, in BENCHMARK.json order.
const std::vector<std::string>& workload_names();
/// Shards the workload runs on (never more than the CPUs available).
unsigned workload_shards(const std::string& name);
std::unique_ptr<Experiment> make_experiment(const std::string& name, bool traced);

}  // namespace simbench
