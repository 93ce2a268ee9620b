// Shared plumbing of mlight_perfbench: command-line options, host
// timing, percentiles, peak memory and the one-line JSON result.
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "dht/cost.h"

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Where the traced run writes its spans (one TSV row per span).
  std::string traceOut;
  /// Reference-figure variants, outside BENCHMARK.json: `single_insert`
  /// (ne_ingest through insert() instead of insertBatched) and
  /// `balance_off` (zipf_mixed with query-load balancing off).
  std::string variant;
};

/// Parses argv; prints usage and exits with code 2 on a malformed line.
Options parseOptions(int argc, char** argv);

/// Monotonic host clock in nanoseconds.
inline std::int64_t nowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Linear-interpolated percentile (p in [0,100]); 0 for an empty sample.
double percentile(std::vector<double> values, double p);
double median(std::vector<double> values);

/// Peak resident set of this process so far, MiB.
double peakRssMb();

/// Envelopes addressed to each physical peer between two meter
/// snapshots: max over mean across all physical peers.
double loadMaxOverAvg(const std::vector<std::uint64_t>& before,
                      const std::vector<std::uint64_t>& after,
                      std::size_t physicalPeers);

/// The run's verdict and metrics, printed as the last stdout line.
class Result {
 public:
  void add(const std::string& name, double value, const std::string& unit);
  void fail(const std::string& why);  ///< marks correct=false, logs why
  bool correct() const noexcept { return correct_; }
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  void print() const;

 private:
  struct Metric {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Metric> metrics_;
  bool correct_ = true;
};

/// Simulated-cost sample of one operation (paper units).
struct SimSample {
  double latencyMs = 0.0;
  double rounds = 0.0;
};

/// The simulated part of the end-to-end metrics: computed over a fixed,
/// seed-determined prefix of the operation stream, so two runs with the
/// same seed report identical values whatever the host speed.
struct SimTotals {
  std::uint64_t ops = 0;
  mlight::dht::CostMeter cost;
  /// Per-operation samples by group; percentiles are taken within each
  /// group and averaged over the groups, so two populations as far apart
  /// as PHT's and DST's queries weigh the same and neither one's edge
  /// becomes the median.
  std::vector<std::vector<SimSample>> groups{1};
  double loadRatio = 0.0;
};

/// Host-time totals of the timed phase.
struct HostTotals {
  std::uint64_t ops = 0;
  double seconds = 0.0;  ///< summed host time inside the measured calls
  double rate() const {
    return seconds > 0.0 ? static_cast<double>(ops) / seconds : 0.0;
  }
};

/// Adds the end-to-end metrics every workload reports.
void addEndToEnd(Result& out, double setupSeconds, double opsPerSecond,
                 const SimTotals& sim);

}  // namespace perfbench
