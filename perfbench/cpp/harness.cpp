#include "harness.h"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <stdexcept>

namespace perfbench {

namespace {

[[noreturn]] void usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --workload NAME --seed N --seconds S --trace 0|1 "
               "[--trace-out FILE] [--variant single_insert|balance_off]\n",
               argv0);
  std::exit(2);
}

}  // namespace

Options parseOptions(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (i + 1 >= argc) usage(argv[0]);
    const std::string v = argv[++i];
    try {
      if (a == "--workload") {
        o.workload = v;
      } else if (a == "--seed") {
        o.seed = std::stoull(v);
      } else if (a == "--seconds") {
        o.seconds = std::stod(v);
      } else if (a == "--trace") {
        if (v != "0" && v != "1") usage(argv[0]);
        o.trace = v == "1";
      } else if (a == "--trace-out") {
        o.traceOut = v;
      } else if (a == "--variant") {
        o.variant = v;
      } else {
        usage(argv[0]);
      }
    } catch (const std::logic_error&) {
      usage(argv[0]);
    }
  }
  if (o.workload.empty() || !(o.seconds > 0.0)) usage(argv[0]);
  return o;
}

double percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = p / 100.0 * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(rank);
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return values[lo] * (1.0 - frac) + values[hi] * frac;
}

double median(std::vector<double> values) {
  return percentile(std::move(values), 50.0);
}

double peakRssMb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
}

double loadMaxOverAvg(const std::vector<std::uint64_t>& before,
                      const std::vector<std::uint64_t>& after,
                      std::size_t physicalPeers) {
  double total = 0.0;
  double peak = 0.0;
  for (std::size_t p = 0; p < physicalPeers; ++p) {
    const std::uint64_t a = p < after.size() ? after[p] : 0;
    const std::uint64_t b = p < before.size() ? before[p] : 0;
    const auto d = static_cast<double>(a - b);
    total += d;
    peak = std::max(peak, d);
  }
  if (physicalPeers == 0 || total == 0.0) return 0.0;
  return peak / (total / static_cast<double>(physicalPeers));
}

void Result::add(const std::string& name, double value,
                 const std::string& unit) {
  if (!std::isfinite(value)) {
    fail("metric " + name + " is not finite");
    value = 0.0;
  }
  metrics_.push_back({name, value, unit});
}

void Result::fail(const std::string& why) {
  if (correct_) std::fprintf(stderr, "CHECK FAILED: %s\n", why.c_str());
  correct_ = false;
}

void Result::print() const {
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              correct_ ? "true" : "false",
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed));
  for (std::size_t i = 0; i < metrics_.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %.12g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", metrics_[i].name.c_str(),
                metrics_[i].value, metrics_[i].unit.c_str());
  }
  std::printf("}}\n");
  std::fflush(stdout);
}

void addEndToEnd(Result& out, double setupSeconds, double opsPerSecond,
                 const SimTotals& sim) {
  const auto perOp = [&](std::uint64_t v) {
    return sim.ops == 0 ? 0.0
                        : static_cast<double>(v) / static_cast<double>(sim.ops);
  };
  double rounds50 = 0.0;
  double latency50 = 0.0;
  double latency99 = 0.0;
  for (const auto& group : sim.groups) {
    std::vector<double> latency;
    std::vector<double> rounds;
    for (const SimSample& s : group) {
      latency.push_back(s.latencyMs);
      rounds.push_back(s.rounds);
    }
    const auto share = 1.0 / static_cast<double>(sim.groups.size());
    rounds50 += share * percentile(rounds, 50.0);
    latency50 += share * percentile(latency, 50.0);
    latency99 += share * percentile(latency, 99.0);
  }
  out.add("setup_s", setupSeconds, "s");
  out.add("ops_per_s", opsPerSecond, "ops/s");
  out.add("lookups_per_op", perOp(sim.cost.lookups), "lookups/op");
  out.add("rounds_p50", rounds50, "rounds");
  out.add("sim_latency_p50_ms", latency50, "ms");
  out.add("sim_latency_p99_ms", latency99, "ms");
  out.add("peer_load_max_over_avg", sim.loadRatio, "ratio");
  out.add("peak_rss_mb", peakRssMb(), "MiB");
}

}  // namespace perfbench
