#include "trace.h"

#include <cstdio>
#include <stdexcept>

#include "harness.h"

namespace perfbench {

namespace {

constexpr const char* kCallNames[kCallCount] = {
    "insertBatched", "insert", "rangeQuery_h1", "rangeQuery_h4",
    "pointQuery",    "pht_rangeQuery", "dst_rangeQuery"};

// Indexed by RpcKind value; 0 is unused.
constexpr const char* kKindNames[kKindCount] = {
    "none", "get", "put", "visit", "response", "hint_probe", "batch_put"};

double ratio(double num, double den) { return den == 0.0 ? 0.0 : num / den; }

}  // namespace

const char* callName(Call call) {
  return kCallNames[static_cast<std::size_t>(call)];
}

void Tracer::arm(mlight::dht::Network& net) {
  net.setRpcTrace(
      [this](const mlight::dht::RpcDelivery& d) { onDelivery(d); });
  armed_ = &net;
}

void Tracer::disarm() {
  if (armed_ != nullptr) armed_->setRpcTrace(nullptr);
  armed_ = nullptr;
}

void Tracer::beginOp(Call call, const mlight::dht::Network& net,
                     std::int64_t startNs) {
  openCall_ = call;
  openOp_ = static_cast<std::int64_t>(spans_.size());
  spans_.push_back({-1, opCount_, static_cast<std::uint32_t>(call), startNs,
                    startNs});
  costBefore_ = net.totalCost();
  probes_.clear();
}

void Tracer::endOp(const mlight::dht::Network& net, std::int64_t endNs,
                   std::size_t records, std::uint64_t ops) {
  closeDelivery(endNs);
  Span& op = spans_[static_cast<std::size_t>(openOp_)];
  op.endNs = endNs;
  PerCall& pc = calls_[static_cast<std::size_t>(openCall_)];
  const double ns = static_cast<double>(endNs - op.startNs);
  pc.hostUs.push_back(ns * 1e-3);
  ++pc.ops;
  pc.records += records;
  const mlight::dht::CostMeter delta = net.totalCost() - costBefore_;
  pc.cost += delta;
  costAll_ += delta;
  for (const auto& ev : probes_) {
    ++probeCount_;
    nullProbes_ += ev.foundLeaf.empty() ? 1 : 0;
  }
  probes_.clear();
  hostNs_ += ns;
  ++opCount_;
  workOps_ += ops;
  openOp_ = -1;
}

void Tracer::onDelivery(const mlight::dht::RpcDelivery& d) {
  if (openOp_ < 0) return;  // set-up or check traffic
  const std::int64_t now = nowNs();
  closeDelivery(now);
  const auto kind = static_cast<std::size_t>(d.env.kind);
  if (kind >= kKindCount) throw std::runtime_error("unknown RpcKind");
  ++deliveries_[kind];
  transitMs_.push_back(d.deliveredAt - d.sentAt);
  openDelivery_ = static_cast<std::int64_t>(spans_.size());
  spans_.push_back({openOp_, opCount_,
                    static_cast<std::uint32_t>(kCallCount + kind), now, now});
}

void Tracer::closeDelivery(std::int64_t endNs) {
  if (openDelivery_ < 0) return;
  Span& s = spans_[static_cast<std::size_t>(openDelivery_)];
  s.endNs = endNs;
  afterDeliveryNs_[s.name - kCallCount] +=
      static_cast<double>(endNs - s.startNs);
  openDelivery_ = -1;
}

void Tracer::writeSpans(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) throw std::runtime_error("cannot write " + path);
  std::fprintf(f, "id\tparent\top\tname\tstart_ns\tend_ns\n");
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    const char* name = s.name < kCallCount ? kCallNames[s.name]
                                           : kKindNames[s.name - kCallCount];
    std::fprintf(f, "%zu\t%lld\t%llu\t%s%s\t%lld\t%lld\n", i,
                 static_cast<long long>(s.parent),
                 static_cast<unsigned long long>(s.op),
                 s.name < kCallCount ? "index." : "dht.", name,
                 static_cast<long long>(s.startNs),
                 static_cast<long long>(s.endNs));
  }
  if (std::fclose(f) != 0) throw std::runtime_error("cannot write " + path);
}

void Tracer::addLayerMetrics(Result& out) const {
  const auto ops = static_cast<double>(workOps_);
  for (std::size_t c = 0; c < kCallCount; ++c) {
    if (c == static_cast<std::size_t>(Call::kPhtRange) ||
        c == static_cast<std::size_t>(Call::kDstRange)) {
      continue;  // reported per lookup under pht.* / dst.*
    }
    out.add(std::string("index.host_us_p50.") + kCallNames[c],
            percentile(calls_[c].hostUs, 50.0), "us");
    out.add(std::string("index.host_us_p99.") + kCallNames[c],
            percentile(calls_[c].hostUs, 99.0), "us");
  }

  std::uint64_t deliveries = 0;
  for (const std::uint64_t n : deliveries_) deliveries += n;
  out.add("dht.messages_per_op",
          ratio(static_cast<double>(costAll_.messages), ops), "msgs/op");
  out.add("dht.host_us_per_message",
          ratio(hostNs_ * 1e-3, static_cast<double>(deliveries)), "us");
  for (std::size_t k = 1; k < kKindCount; ++k) {
    out.add(std::string("dht.deliveries.") + kKindNames[k],
            ratio(static_cast<double>(deliveries_[k]), ops), "msgs/op");
  }
  for (std::size_t k = 1; k < kKindCount; ++k) {
    out.add(std::string("dht.after_delivery_us.") + kKindNames[k],
            ratio(afterDeliveryNs_[k] * 1e-3,
                  static_cast<double>(deliveries_[k])),
            "us");
  }
  out.add("dht.hops_per_lookup",
          ratio(static_cast<double>(costAll_.hops),
                static_cast<double>(costAll_.lookups)),
          "hops");
  out.add("dht.transit_ms_p50", percentile(transitMs_, 50.0), "ms");

  out.add("store.bytes_moved_per_op",
          ratio(static_cast<double>(costAll_.bytesMoved), ops), "bytes/op");
  out.add("store.records_moved_per_op",
          ratio(static_cast<double>(costAll_.recordsMoved), ops),
          "records/op");

  double reads = 0.0;
  mlight::dht::CostMeter readCost;
  std::uint64_t readRecords = 0;
  for (const Call c : {Call::kRangeH1, Call::kRangeH4, Call::kPoint}) {
    const PerCall& pc = calls_[static_cast<std::size_t>(c)];
    reads += static_cast<double>(pc.ops);
    readCost += pc.cost;
    readRecords += pc.records;
  }
  out.add("cache.hits_per_read",
          ratio(static_cast<double>(readCost.cacheHits), reads), "hits/read");
  out.add("cache.stale_per_read",
          ratio(static_cast<double>(readCost.staleHints), reads),
          "stale/read");
  out.add("cache.evictions", static_cast<double>(costAll_.hintEvictions),
          "count");
  out.add("mlight.null_probe_ratio",
          ratio(static_cast<double>(nullProbes_),
                static_cast<double>(probeCount_)),
          "ratio");
  out.add("mlight.records_per_lookup",
          ratio(static_cast<double>(readRecords),
                static_cast<double>(readCost.lookups)),
          "records/lookup");

  for (const Call c : {Call::kPhtRange, Call::kDstRange}) {
    const PerCall& pc = calls_[static_cast<std::size_t>(c)];
    const std::string prefix = c == Call::kPhtRange ? "pht." : "dst.";
    double hostUs = 0.0;
    for (const double us : pc.hostUs) hostUs += us;
    const auto lookups = static_cast<double>(pc.cost.lookups);
    out.add(prefix + "lookups_per_query",
            ratio(lookups, static_cast<double>(pc.ops)), "lookups/query");
    out.add(prefix + "host_us_per_lookup", ratio(hostUs, lookups), "us");
  }
}

}  // namespace perfbench
