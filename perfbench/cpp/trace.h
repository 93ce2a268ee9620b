// The traced run: spans around every call the benchmark makes into an
// index, child spans for every RPC delivery inside it (observed through
// Network::setRpcTrace), per-call cost deltas and the m-LIGHT probe
// trace.  Spans stay in memory and are written out once the run ends;
// the per-layer metrics are folded from the same records.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "dht/cost.h"
#include "dht/network.h"
#include "mlight/index.h"

namespace perfbench {

class Result;

/// Every index call the workloads time.  Names double as metric labels.
enum class Call : std::uint8_t {
  kInsertBatched,
  kInsert,
  kRangeH1,
  kRangeH4,
  kPoint,
  kPhtRange,
  kDstRange,
};
inline constexpr std::size_t kCallCount = 7;
const char* callName(Call call);

inline constexpr std::size_t kKindCount = 7;  // RpcKind values 1..6

class Tracer {
 public:
  /// Starts observing `net` (installs the delivery hook) until disarm().
  void arm(mlight::dht::Network& net);
  void disarm();

  /// Opens the span of one index call on `net`.
  void beginOp(Call call, const mlight::dht::Network& net,
               std::int64_t startNs);
  /// Closes it; `records` is the number of records the call returned.
  void endOp(const mlight::dht::Network& net, std::int64_t endNs,
             std::size_t records, std::uint64_t ops);

  /// Sink for MLightIndex::setTracer, cleared per operation.
  std::vector<mlight::core::MLightIndex::TraceEvent>* probeSink() {
    return &probes_;
  }

  /// Writes every span as one TSV row: id, parent, op, name, start_ns,
  /// end_ns (parent -1 for an operation span).
  void writeSpans(const std::string& path) const;

  /// Adds the index.*, dht.*, store traffic, cache flow, null-probe and
  /// pht/dst per-query metrics folded from the traced operations.
  void addLayerMetrics(Result& out) const;

  /// Workload operations covered by the traced calls.
  std::uint64_t ops() const noexcept { return workOps_; }
  double hostSeconds() const noexcept { return hostNs_ * 1e-9; }

 private:
  struct Span {
    std::int64_t parent;
    std::uint64_t op;
    std::uint32_t name;  ///< Call index, or kCallCount + RpcKind value
    std::int64_t startNs;
    std::int64_t endNs;
  };
  struct PerCall {
    std::uint64_t ops = 0;
    std::vector<double> hostUs;
    mlight::dht::CostMeter cost;
    std::uint64_t records = 0;
  };

  void onDelivery(const mlight::dht::RpcDelivery& d);
  void closeDelivery(std::int64_t endNs);

  mlight::dht::Network* armed_ = nullptr;
  std::vector<Span> spans_;
  std::array<PerCall, kCallCount> calls_{};
  std::array<std::uint64_t, kKindCount> deliveries_{};
  std::array<double, kKindCount> afterDeliveryNs_{};
  std::vector<double> transitMs_;
  std::vector<mlight::core::MLightIndex::TraceEvent> probes_;
  std::uint64_t probeCount_ = 0;
  std::uint64_t nullProbes_ = 0;
  mlight::dht::CostMeter costBefore_;
  mlight::dht::CostMeter costAll_;
  std::int64_t openOp_ = -1;
  std::int64_t openDelivery_ = -1;
  Call openCall_ = Call::kInsert;
  std::uint64_t opCount_ = 0;  ///< traced calls (span op ids)
  std::uint64_t workOps_ = 0;
  double hostNs_ = 0.0;
};

}  // namespace perfbench
