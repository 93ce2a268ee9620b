// The four workloads.  Each builds its inputs from the seed, sets up
// kSetupRepeats times (setup_s is the median), runs a fixed,
// seed-determined prefix of its operation stream that yields the
// simulated metrics, then keeps going until the run length is used up,
// in whole rounds.  Every check runs between the timed calls.
#include "workloads.h"

#include <algorithm>
#include <cmath>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "common/rng.h"
#include "dht/network.h"
#include "dst/dst_index.h"
#include "mlight/index.h"
#include "mlight/naming.h"
#include "pht/pht_index.h"
#include "runner.h"
#include "truth.h"
#include "workload/datasets.h"
#include "workload/queries.h"

namespace perfbench {

namespace {

using mlight::common::Rect;
using mlight::core::MLightConfig;
using mlight::core::MLightIndex;
using mlight::dht::Network;
using mlight::index::Record;

constexpr std::size_t kSetupRepeats = 5;
/// The paper evaluates on one fixed NE set; the figure benches draw
/// their stand-in with this seed.
constexpr std::uint64_t kNortheastSeed = 20090401;
constexpr std::size_t kPeers = 128;  // §7: "more than one hundred" peers
constexpr std::size_t kInsertChunk = 64;  // insertBatched's default
constexpr std::size_t kChunksPerSegment = 32;

/// Range spans (area), log-spaced from 1e-4 to Fig 7's largest, 0.6.
constexpr std::size_t kSpanCount = 10;
double spanAt(std::size_t i) {
  return 1e-4 * std::pow(6000.0, static_cast<double>(i) /
                                      static_cast<double>(kSpanCount - 1));
}

std::uint64_t derive(std::uint64_t seed, std::uint64_t salt) {
  mlight::common::Rng rng(seed * 0x9E3779B97F4A7C15ull + salt);
  return rng.next();
}

double secondsSince(std::int64_t t0) {
  return static_cast<double>(nowNs() - t0) * 1e-9;
}

/// The paper's m-LIGHT settings (§7): θ_split 100, θ_merge 50, D 28.
MLightConfig paperConfig(std::uint64_t seed) {
  MLightConfig cfg;
  cfg.thetaSplit = 100;
  cfg.thetaMerge = 50;
  cfg.maxEdgeDepth = 28;
  cfg.seed = seed;
  cfg.cache.enabled = false;  // explicit: MLIGHT_CACHE must not leak in
  return cfg;
}

/// Per-peer envelope counts, snapshotted to measure one stretch.
struct LoadWindow {
  explicit LoadWindow(const Network& net)
      : net_(&net), before_(net.peerLoads().counts()) {}
  double ratio() const {
    return loadMaxOverAvg(before_, net_->peerLoads().counts(),
                          net_->physicalCount());
  }
  const Network* net_;
  std::vector<std::uint64_t> before_;
};

/// One row of the range-query stream: the box and the lookahead it runs
/// with.
struct RangeOp {
  Rect box;
  std::size_t lookahead = 1;
};

/// `count` square boxes of area `span`, uniformly placed inside the unit
/// square like workload::uniformRangeQueries, but as a systematic sample:
/// the placement range is cut into a g x g grid (g*g >= count), one
/// seeded offset is shared by every cell, and the boxes take the cells in
/// a seeded random order.  Every box is still uniform over the square;
/// the mean cost of a run's boxes varies far less from seed to seed.
std::vector<Rect> systematicBoxes(std::size_t count, double span,
                                  std::uint64_t seed) {
  const double side = std::sqrt(span);
  const double room = 1.0 - side;
  const auto g = static_cast<std::size_t>(
      std::ceil(std::sqrt(static_cast<double>(count))));
  std::vector<std::size_t> cells(g * g);
  for (std::size_t i = 0; i < cells.size(); ++i) cells[i] = i;
  mlight::common::Rng rng(seed);
  for (std::size_t i = cells.size(); i > 1; --i) {
    std::swap(cells[i - 1], cells[rng.below(i)]);
  }
  const double offset[2] = {rng.uniform(), rng.uniform()};
  std::vector<Rect> out;
  out.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    mlight::common::Point lo(2);
    mlight::common::Point hi(2);
    const std::size_t cell[2] = {cells[i] % g, cells[i] / g};
    for (std::size_t d = 0; d < 2; ++d) {
      lo[d] = room * (static_cast<double>(cell[d]) + offset[d]) /
              static_cast<double>(g);
      hi[d] = std::min(1.0, lo[d] + side);
    }
    out.emplace_back(lo, hi);
  }
  return out;
}

/// `rounds` rounds of kSpanCount spans x {h=1, h=4}: every span appears
/// once per round with each lookahead, each with its own box.
std::vector<RangeOp> rangeStream(std::size_t rounds, std::uint64_t seed) {
  std::vector<std::vector<Rect>> boxes;
  for (std::size_t s = 0; s < kSpanCount; ++s) {
    boxes.push_back(
        systematicBoxes(2 * rounds, spanAt(s), derive(seed, 100 + s)));
  }
  std::vector<RangeOp> out;
  for (std::size_t r = 0; r < rounds; ++r) {
    for (std::size_t s = 0; s < kSpanCount; ++s) {
      out.push_back({boxes[s][2 * r], 1});
      out.push_back({boxes[s][2 * r + 1], 4});
    }
  }
  return out;
}

void addSample(std::vector<SimSample>& group,
               const mlight::index::QueryStats& stats) {
  group.push_back({stats.latencyMs, static_cast<double>(stats.rounds)});
}

/// Per-layer values read from the store, cache, m-LIGHT and WAL getters
/// at the end of a run.  Every workload reports every field; a layer a
/// workload leaves idle reads 0.
struct LayerCounts {
  double buckets = 0.0;
  double hotPromotions = 0.0;
  double boostedLeaves = 0.0;
  double ringKeyCacheSize = 0.0;
  double failoverReads = 0.0;
  double failedReads = 0.0;
  double cacheOccupancy = 0.0;
  double recordsPerGroup = 0.0;
  double splitMoves = 0.0;
  double splitStayLocal = 0.0;
  double splitShipBytesPerRecord = 0.0;
  double walFramesPerRecord = 0.0;
  double walBytesPerRecord = 0.0;

  template <class Store>
  void addStore(const Store& store) {
    buckets += static_cast<double>(store.bucketCount());
    hotPromotions += static_cast<double>(store.hotPromotions());
    boostedLeaves += static_cast<double>(store.boostedLeafCount());
    ringKeyCacheSize += static_cast<double>(store.ringKeyCacheSize());
    failoverReads += static_cast<double>(store.failoverReads());
    failedReads += static_cast<double>(store.failedReads());
  }
};

/// Prints the end-to-end metrics (untraced run) or the per-layer table
/// (traced run).
void finish(const Runner& run, Result& out, double setupSeconds,
            const SimTotals& sim, const LayerCounts& c) {
  if (!run.options().trace) {
    addEndToEnd(out, setupSeconds, run.opsPerSecond(), sim);
    return;
  }
  run.addLayerMetrics(out);
  out.add("store.buckets", c.buckets, "count");
  out.add("store.hot_promotions", c.hotPromotions, "count");
  out.add("store.boosted_leaves", c.boostedLeaves, "count");
  out.add("store.ring_key_cache_size", c.ringKeyCacheSize, "count");
  out.add("store.failover_reads", c.failoverReads, "count");
  out.add("store.failed_reads", c.failedReads, "count");
  out.add("cache.occupancy", c.cacheOccupancy, "count");
  out.add("mlight.records_per_group", c.recordsPerGroup, "records/group");
  out.add("mlight.split_moves", c.splitMoves, "count");
  out.add("mlight.split_stay_local", c.splitStayLocal, "count");
  out.add("mlight.split_ship_bytes_per_record", c.splitShipBytesPerRecord,
          "bytes/record");
  out.add("wal.frames_per_record", c.walFramesPerRecord, "frames/record");
  out.add("wal.bytes_per_record", c.walBytesPerRecord, "bytes/record");
}

// --- ne_ingest -----------------------------------------------------------

MLightConfig ingestConfig(std::uint64_t seed) {
  MLightConfig cfg = paperConfig(seed);
  cfg.replication = 2;
  cfg.wal = true;
  return cfg;
}

/// A ring and the index on it.  The index unregisters from its network
/// when destroyed, so it always goes first.
struct Ring {
  std::unique_ptr<Network> net;
  std::unique_ptr<MLightIndex> index;

  void build(std::size_t peers, std::size_t vnodes, const MLightConfig& cfg) {
    index.reset();
    net = std::make_unique<Network>(peers, cfg.seed, vnodes);
    index = std::make_unique<MLightIndex>(*net, cfg);
  }
};

void neIngest(Runner& run, Result& out) {
  const std::uint64_t seed = run.options().seed;
  const bool single = run.options().variant == "single_insert";
  std::vector<double> setups;
  std::vector<Record> data;
  Ring ring;
  for (std::size_t i = 0; i < kSetupRepeats; ++i) {
    const std::int64_t t0 = nowNs();
    data = mlight::workload::northeastDataset(mlight::workload::kNortheastSize,
                                              derive(seed, 1));
    ring.build(kPeers, 1, ingestConfig(derive(seed, 2)));
    setups.push_back(secondsSince(t0));
  }

  SimTotals sim;
  std::uint64_t groups = 0;
  std::uint64_t acked = 0;
  double wal0Frames = 0.0;
  double wal0Bytes = 0.0;
  MLightIndex::MaintenanceBreakdown split0{};
  run.startClock();
  for (std::size_t round = 0; round == 0 || !run.timeUp(); ++round) {
    if (round > 0) ring.build(kPeers, 1, ingestConfig(derive(seed, 2)));
    Network& net = *ring.net;
    MLightIndex& index = *ring.index;
    const bool simPass = round == 0;
    const LoadWindow load(net);
    std::uint64_t roundAcked = 0;
    for (std::size_t base = 0; base < data.size(); base += kInsertChunk) {
      const std::size_t n = std::min(kInsertChunk, data.size() - base);
      const std::span<const Record> slice(data.data() + base, n);
      run.beginBlock(net, &index);
      const double t0 = net.beginTimeline();
      if (single) {
        for (const Record& r : slice) {
          run.timed(Call::kInsert, net, [&] {
            index.insert(r);
            return 0;
          });
        }
        roundAcked += n;
      } else {
        const auto res = run.timed(
            Call::kInsertBatched, net,
            [&] { return index.insertBatched(slice); }, n);
        roundAcked += res.acked;
        groups += res.groups;
      }
      run.endBlock();
      if ((base / kInsertChunk) % kChunksPerSegment == kChunksPerSegment - 1) {
        run.endSegment();
      }
      out.attempted += n;
      if (simPass) {
        sim.groups[0].push_back({net.now() - t0,
                               static_cast<double>(net.timelineMaxRound())});
      }
    }
    acked += roundAcked;
    out.failed += index.failedInserts();  // covers insertBatched's too
    if (roundAcked != data.size() || index.size() != data.size()) {
      out.fail("ingest acked " + std::to_string(roundAcked) + ", size " +
               std::to_string(index.size()) + ", want " +
               std::to_string(data.size()));
    }
    index.checkInvariants();  // aborts the run on a broken tree
    if (simPass) {
      wal0Frames = static_cast<double>(index.walSet()->totalFrames());
      wal0Bytes = static_cast<double>(index.walSet()->totalBytes());
      split0 = index.maintenanceBreakdown();
      sim.ops = data.size();
      sim.cost = net.totalCost();
      sim.loadRatio = load.ratio();
    }
  }

  LayerCounts counts;
  counts.addStore(ring.index->store());
  counts.recordsPerGroup =
      groups == 0 ? 0.0
                  : static_cast<double>(acked) / static_cast<double>(groups);
  counts.splitMoves = static_cast<double>(split0.splitBucketMoves);
  counts.splitStayLocal = static_cast<double>(split0.splitStayLocal);
  counts.splitShipBytesPerRecord =
      static_cast<double>(split0.splitShipBytes) / static_cast<double>(data.size());
  counts.walFramesPerRecord = wal0Frames / static_cast<double>(data.size());
  counts.walBytesPerRecord = wal0Bytes / static_cast<double>(data.size());
  finish(run, out, median(setups), sim, counts);
}

// --- ne_range ------------------------------------------------------------

/// Rounds of the range stream that give the simulated metrics.
constexpr std::size_t kRangeSimRounds = 40;

void neRange(Runner& run, Result& out) {
  const std::uint64_t seed = run.options().seed;
  std::vector<double> setups;
  std::vector<Record> data;
  Ring ring;
  for (std::size_t i = 0; i < kSetupRepeats; ++i) {
    const std::int64_t t0 = nowNs();
    data = mlight::workload::northeastDataset(mlight::workload::kNortheastSize,
                                              kNortheastSeed);
    ring.build(kPeers, 1, paperConfig(derive(seed, 2)));
    ring.index->bulkLoad(data);
    setups.push_back(secondsSince(t0));
  }
  Network& net = *ring.net;
  MLightIndex& index = *ring.index;
  RangeTruth truth(data);
  const std::vector<RangeOp> stream =
      rangeStream(kRangeSimRounds, derive(seed, 3));

  SimTotals sim;
  const LoadWindow load(net);
  const mlight::dht::CostMeter before = net.totalCost();
  run.startClock();
  for (std::size_t i = 0; i < stream.size() || !run.timeUp();) {
    run.beginBlock(net, &index);
    for (std::size_t j = 0; j < 2 * kSpanCount; ++j, ++i) {  // one round
      const RangeOp& op = stream[i % stream.size()];
      index.setLookahead(op.lookahead);
      const auto res = run.timed(
          op.lookahead == 1 ? Call::kRangeH1 : Call::kRangeH4, net,
          [&] { return index.rangeQuery(op.box); });
      ++out.attempted;
      out.failed += res.stats.complete() ? 0 : 1;
      if (const std::string why = truth.check(op.box, res.records);
          !why.empty()) {
        out.fail("ne_range: " + why);
      }
      if (i < stream.size()) addSample(sim.groups[0], res.stats);
    }
    run.endBlock();
    run.endSegment();
    if (i == stream.size()) {
      sim.ops = stream.size();
      sim.cost = net.totalCost() - before;
      sim.loadRatio = load.ratio();
    }
  }
  LayerCounts counts;
  counts.addStore(index.store());
  finish(run, out, median(setups), sim, counts);
}

// --- zipf_mixed ----------------------------------------------------------

constexpr std::size_t kZipfPeers = 512;
/// One ring position per peer: the warm hint caches are per position,
/// and 512 x 8 positions x ~2,100 leaves would not fit in memory.
constexpr std::size_t kZipfVnodes = 1;
constexpr double kZipfTheta = 0.9;
/// Zipf reads per block of ten operations; the other two are one insert
/// of a held-back record and one read of a record inserted earlier.
constexpr std::size_t kZipfReadsPerBlock = 8;
/// Blocks of the stream that give the simulated metrics.
constexpr std::size_t kZipfSimBlocks = 2000;
constexpr std::size_t kZipfBlocksPerSegment = 100;

MLightConfig zipfConfig(std::uint64_t seed, bool balanced) {
  MLightConfig cfg = paperConfig(seed);
  cfg.cache.enabled = true;
  cfg.cache.perDimCapacity = 4096;  // room for every leaf of the NE set
  cfg.loadBalance.enabled = balanced;
  // The extra_hotspot settings: promotion at 24 in-window reads, 15 extra
  // copies, and one heat window for the whole run.  With the default 5 s
  // window one operation at a time advances simulated time by 0.4-0.9 s,
  // so no leaf ever reaches promoteReads and balancing never acts.
  cfg.loadBalance.promoteReads = 24;
  cfg.loadBalance.boostCopies = 15;
  cfg.loadBalance.windowMs = 1e9;
  return cfg;
}

/// Steady state of a long-running ring (the extra_hotspot convention):
/// every peer's hint cache knows every leaf, so a read is one direct
/// probe unless a split made its hint stale.
void warmHintCaches(Network& net, MLightIndex& index) {
  std::vector<mlight::common::BitString> leaves;
  index.store().forEach(
      [&](const mlight::common::BitString&, const mlight::core::LeafBucket& b,
          mlight::dht::RingId) { leaves.push_back(b.label); });
  for (const mlight::dht::RingId peer : net.peers()) {
    auto& cache = index.hintCaches().forPeer(peer.value);
    for (const auto& leaf : leaves) {
      cache.learn(leaf, static_cast<std::uint32_t>(
                            mlight::core::edgeDepth(leaf, 2)));
    }
  }
}

void zipfMixed(Runner& run, Result& out) {
  const std::uint64_t seed = run.options().seed;
  const bool balanced = run.options().variant != "balance_off";
  const std::size_t n = mlight::workload::kNortheastSize;
  std::vector<double> setups;
  std::vector<Record> data;
  std::vector<std::size_t> ranks;
  Ring ring;
  for (std::size_t i = 0; i < kSetupRepeats; ++i) {
    const std::int64_t t0 = nowNs();
    // One NE draw of 2n records: the first n are loaded, the rest are
    // the held-back inserts, so both share the metro/town structure.
    data = mlight::workload::northeastDataset(2 * n, kNortheastSeed);
    ranks = mlight::workload::zipfIndices(kZipfReadsPerBlock * n, n,
                                          kZipfTheta, derive(seed, 4));
    ring.build(kZipfPeers, kZipfVnodes, zipfConfig(derive(seed, 2), balanced));
    ring.index->bulkLoad(std::span<const Record>(data.data(), n));
    warmHintCaches(*ring.net, *ring.index);
    setups.push_back(secondsSince(t0));
  }
  Network& net = *ring.net;
  MLightIndex& index = *ring.index;
  const Record* loaded = data.data();
  const Record* held = data.data() + n;
  mlight::common::Rng pickRng(derive(seed, 5));

  SimTotals sim;
  const LoadWindow load(net);
  const mlight::dht::CostMeter before = net.totalCost();
  const auto read = [&](const Record& want, bool simPass) {
    const auto res = run.timed(Call::kPoint, net,
                               [&] { return index.pointQuery(want.key); });
    ++out.attempted;
    out.failed += res.stats.complete() ? 0 : 1;
    if (!holds(res.records, want)) {
      out.fail("zipf_mixed: read of record " + std::to_string(want.id) +
               " missed it");
    }
    if (simPass) addSample(sim.groups[0], res.stats);
  };
  run.startClock();
  std::size_t block = 0;
  for (; block < n && (block < kZipfSimBlocks || !run.timeUp()); ++block) {
    const bool simPass = block < kZipfSimBlocks;
    run.beginBlock(net, &index);
    const double t0 = net.beginTimeline();
    const std::size_t failedBefore = index.failedInserts();
    run.timed(Call::kInsert, net, [&] {
      index.insert(held[block]);
      return 0;
    });
    ++out.attempted;
    out.failed += index.failedInserts() - failedBefore;
    if (simPass) {
      sim.groups[0].push_back(
          {net.now() - t0, static_cast<double>(net.timelineMaxRound())});
    }
    for (std::size_t j = 0; j < kZipfReadsPerBlock; ++j) {
      read(loaded[ranks[kZipfReadsPerBlock * block + j]], simPass);
    }
    read(held[pickRng.below(block + 1)], simPass);
    run.endBlock();
    if (block % kZipfBlocksPerSegment == kZipfBlocksPerSegment - 1) {
      run.endSegment();
    }
    if (block + 1 == kZipfSimBlocks) {
      sim.ops = 10 * kZipfSimBlocks;
      sim.cost = net.totalCost() - before;
      sim.loadRatio = load.ratio();
    }
  }
  if (index.size() != n + block) out.fail("zipf_mixed: index size drifted");
  LayerCounts counts;
  counts.addStore(index.store());
  counts.cacheOccupancy = static_cast<double>(index.hintCaches().totalHints());
  finish(run, out, median(setups), sim, counts);
}

// --- baseline_range ------------------------------------------------------

/// NE sample loaded into PHT and DST: keeps their record-at-a-time
/// set-up to a few seconds.
constexpr std::size_t kBaselineRecords = 20000;
constexpr std::size_t kBaselineSimRounds = 4;
/// One fixed sweep of boxes for every seed: DST's cost per box swings
/// with where the box edges fall on its dyadic grid (87k to 132k lookups
/// at span 0.6), so seeded boxes made the run-to-run spread the boxes'
/// rather than the program's.  The seed draws the record sample.
constexpr std::uint64_t kBaselineBoxSeed = 7000;

/// `count` records drawn without replacement from `all`, renumbered
/// 0..count-1 in draw order.
std::vector<Record> sampleRecords(std::vector<Record> all, std::size_t count,
                                  std::uint64_t seed) {
  mlight::common::Rng rng(seed);
  for (std::size_t i = 0; i < count; ++i) {
    std::swap(all[i], all[i + rng.below(all.size() - i)]);
    all[i].id = i;
  }
  all.resize(count);
  return all;
}

void baselineRange(Runner& run, Result& out) {
  const std::uint64_t seed = run.options().seed;
  std::vector<double> setups;
  std::vector<Record> data;
  std::unique_ptr<Network> net;
  std::unique_ptr<mlight::pht::PhtIndex> pht;
  std::unique_ptr<mlight::dst::DstIndex> dst;
  for (std::size_t i = 0; i < kSetupRepeats; ++i) {
    pht.reset();
    dst.reset();
    const std::int64_t t0 = nowNs();
    data = sampleRecords(
        mlight::workload::northeastDataset(mlight::workload::kNortheastSize,
                                           kNortheastSeed),
        kBaselineRecords, derive(seed, 1));
    net = std::make_unique<Network>(kPeers, derive(seed, 2));
    mlight::pht::PhtConfig pc;  // the fig7 settings
    pc.thetaSplit = 100;
    pc.thetaMerge = 50;
    pc.maxDepth = 28;
    pc.cache.enabled = false;
    pc.seed = derive(seed, 5);  // initiator choices
    pht = std::make_unique<mlight::pht::PhtIndex>(*net, pc);
    mlight::dst::DstConfig dc;
    dc.maxDepth = 28;
    dc.gamma = 100;
    dc.seed = derive(seed, 6);
    dst = std::make_unique<mlight::dst::DstIndex>(*net, dc);
    for (const Record& r : data) {
      pht->insert(r);
      dst->insert(r);
    }
    setups.push_back(secondsSince(t0));
  }
  RangeTruth truth(data);
  const std::vector<RangeOp> stream =
      rangeStream(kBaselineSimRounds, kBaselineBoxSeed);

  SimTotals sim;
  sim.groups.resize(2);  // PHT, DST
  const LoadWindow load(*net);
  const mlight::dht::CostMeter before = net->totalCost();
  const auto query = [&](Call call, mlight::index::IndexBase& index,
                         const Rect& box, bool simPass) {
    const auto res =
        run.timed(call, *net, [&] { return index.rangeQuery(box); });
    ++out.attempted;
    out.failed += res.stats.complete() ? 0 : 1;
    if (const std::string why = truth.check(box, res.records); !why.empty()) {
      out.fail(std::string(callName(call)) + ": " + why);
    }
    if (simPass) {
      addSample(sim.groups[call == Call::kPhtRange ? 0 : 1], res.stats);
    }
  };
  run.startClock();
  for (std::size_t i = 0; i < stream.size() || !run.timeUp();) {
    run.beginBlock(*net, nullptr);
    for (std::size_t j = 0; j < 2 * kSpanCount; ++j, ++i) {  // one round
      const Rect& box = stream[i % stream.size()].box;
      query(Call::kPhtRange, *pht, box, i < stream.size());
      query(Call::kDstRange, *dst, box, i < stream.size());
    }
    run.endBlock();
    run.endSegment();
    if (i == stream.size()) {
      sim.ops = 2 * stream.size();
      sim.cost = net->totalCost() - before;
      sim.loadRatio = load.ratio();
    }
  }
  LayerCounts counts;
  counts.addStore(pht->store());
  counts.addStore(dst->store());
  counts.cacheOccupancy = static_cast<double>(pht->hintCaches().totalHints());
  finish(run, out, median(setups), sim, counts);
}

}  // namespace

bool runWorkload(Runner& run, Result& out) {
  const std::string& w = run.options().workload;
  if (w == "ne_ingest") {
    neIngest(run, out);
  } else if (w == "ne_range") {
    neRange(run, out);
  } else if (w == "zipf_mixed") {
    zipfMixed(run, out);
  } else if (w == "baseline_range") {
    baselineRange(run, out);
  } else {
    return false;
  }
  return true;
}

}  // namespace perfbench
