// Times the calls a workload makes into an index.  In an untraced run
// every block is untraced; in a traced run blocks alternate traced and
// untraced, so `tracing.overhead` compares the two halves of one run
// over the same stretch of the operation stream.
#pragma once

#include <array>
#include <cstdint>
#include <vector>

#include "harness.h"
#include "index/types.h"
#include "mlight/index.h"
#include "trace.h"

namespace perfbench {

class Runner {
 public:
  explicit Runner(const Options& options) : options_(options) {}

  /// Starts the timed phase: from here the run lasts options.seconds.
  void startClock() { startNs_ = nowNs(); }
  bool timeUp() const {
    return static_cast<double>(nowNs() - startNs_) * 1e-9 >= options_.seconds;
  }

  /// Opens a block of operations on `net`.  `index` (may be null) gets
  /// the probe-trace sink while the block is traced.
  void beginBlock(mlight::dht::Network& net,
                  mlight::core::MLightIndex* index) {
    traced_ = options_.trace && !traced_;
    if (!traced_) return;
    tracer_.arm(net);
    index_ = index;
    if (index_ != nullptr) index_->setTracer(tracer_.probeSink());
  }
  void endBlock() {
    if (!traced_) return;
    tracer_.disarm();
    if (index_ != nullptr) index_->setTracer(nullptr);
    index_ = nullptr;
  }

  /// Runs `fn` (one index call on `net`, covering `ops` operations of
  /// the workload) inside the host timer.
  template <class Fn>
  auto timed(Call call, mlight::dht::Network& net, Fn&& fn,
             std::uint64_t ops = 1) {
    const std::int64_t t0 = nowNs();
    if (traced_) tracer_.beginOp(call, net, t0);
    auto res = fn();
    const std::int64_t t1 = nowNs();
    if (traced_) {
      tracer_.endOp(net, t1, recordsOf(res), ops);
    } else {
      auto& c = untracedCalls_[static_cast<std::size_t>(call)];
      c.ops += ops;
      c.seconds += static_cast<double>(t1 - t0) * 1e-9;
      untraced_.ops += ops;
      untraced_.seconds += static_cast<double>(t1 - t0) * 1e-9;
      segment_.ops += ops;
      segment_.seconds += static_cast<double>(t1 - t0) * 1e-9;
    }
    return res;
  }

  /// Closes a segment of the timed phase.  The reported host rate is the
  /// median of the segments' rates, so a burst of interference from
  /// elsewhere on the host moves a few segments, not the result.
  void endSegment() {
    if (segment_.ops > 0) segmentRates_.push_back(segment_.rate());
    segment_ = {};
  }
  double opsPerSecond() const {
    return segmentRates_.empty() ? untraced_.rate() : median(segmentRates_);
  }

  const HostTotals& untracedCall(Call call) const noexcept {
    return untracedCalls_[static_cast<std::size_t>(call)];
  }
  Tracer& tracer() noexcept { return tracer_; }
  const Options& options() const noexcept { return options_; }

  /// Adds the per-layer metrics the runner itself can fold: the tracer's
  /// layer table, untraced PHT/DST query rates and tracing.overhead.
  void addLayerMetrics(Result& out) const {
    tracer_.addLayerMetrics(out);
    for (const Call c : {Call::kPhtRange, Call::kDstRange}) {
      out.add(c == Call::kPhtRange ? "pht.queries_per_s" : "dst.queries_per_s",
              untracedCall(c).rate(), "queries/s");
    }
    const double traced = tracer_.hostSeconds() > 0.0
                              ? static_cast<double>(tracer_.ops()) /
                                    tracer_.hostSeconds()
                              : 0.0;
    out.add("tracing.overhead",
            traced > 0.0 ? untraced_.rate() / traced : 0.0, "ratio");
  }

 private:
  static std::size_t recordsOf(const mlight::index::RangeResult& r) {
    return r.records.size();
  }
  static std::size_t recordsOf(const mlight::index::PointResult& r) {
    return r.records.size();
  }
  template <class T>
  static std::size_t recordsOf(const T&) {
    return 0;
  }

  Options options_;
  std::int64_t startNs_ = 0;
  bool traced_ = false;
  mlight::core::MLightIndex* index_ = nullptr;
  Tracer tracer_;
  HostTotals untraced_;
  HostTotals segment_;
  std::vector<double> segmentRates_;
  std::array<HostTotals, kCallCount> untracedCalls_{};
};

}  // namespace perfbench
