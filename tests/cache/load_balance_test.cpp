// Query-load balancing: hot-leaf read replication + least-loaded
// adaptive routing (src/store LoadBalancePolicy).
//
// Covered here:
//  * the policy is off by default and leaves zero balancing state;
//  * a read-hot leaf is promoted and its query load spreads across the
//    boosted replica set without changing any answer;
//  * routing survives losing the hottest replica mid-sweep (failover
//    with zero wrong answers, traffic keeps spreading);
//  * the whole feature is deterministic — state digests and answers are
//    bit-identical across schedule-shuffle seeds and shard counts;
//  * hint-cache eviction metering (CostMeter::hintEvictions) and the
//    PeerLoadMeter snapshot math.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/digest.h"
#include "dht/cost.h"
#include "dht/network.h"
#include "mlight/index.h"
#include "workload/datasets.h"

namespace mlight {
namespace {

using dht::LatencyModel;
using dht::Network;

/// Constant-latency LAN: heavy same-time tie collisions, so the
/// determinism matrix below actually stresses the deferred
/// promotion/demotion machinery.
LatencyModel lanModel() { return LatencyModel{2.0, 2.0, 1.0}; }

/// Heat window short enough that a key read once per window is demoted
/// within one test run (simulated milliseconds).
constexpr double kWindowMs = 2000.0;

core::MLightConfig balancedConfig() {
  core::MLightConfig cfg;
  cfg.thetaSplit = 16;
  cfg.thetaMerge = 8;
  cfg.cache.enabled = true;
  cfg.loadBalance.enabled = true;
  cfg.loadBalance.promoteReads = 8;
  cfg.loadBalance.boostCopies = 6;
  cfg.loadBalance.windowMs = 1e9;  // stationary hotspot: no demotions
  return cfg;
}

/// Per-physical-peer envelope deltas between two PeerLoadMeter
/// snapshots, padded to the physical peer count.
std::vector<std::uint64_t> loadDelta(const Network& net,
                                     const std::vector<std::uint64_t>& before) {
  const std::vector<std::uint64_t>& after = net.peerLoads().counts();
  std::vector<std::uint64_t> delta(net.physicalCount(), 0);
  for (std::size_t p = 0; p < delta.size(); ++p) {
    const std::uint64_t a = p < after.size() ? after[p] : 0;
    const std::uint64_t b = p < before.size() ? before[p] : 0;
    delta[p] = a - b;
  }
  return delta;
}

/// Point query that must find the queried record (every key queried in
/// this file is a live record's key).
bool queryOk(core::MLightIndex& index, const common::Point& key) {
  const auto out = index.pointQuery(key);
  for (const auto& r : out.records) {
    if (r.key == key) return true;
  }
  return false;
}

TEST(LoadBalance, DisabledByDefaultKeepsZeroState) {
  Network net(16, 3);
  core::MLightConfig cfg;
  cfg.thetaSplit = 16;
  cfg.thetaMerge = 8;
  cfg.cache.enabled = true;
  ASSERT_FALSE(cfg.loadBalance.enabled);
  core::MLightIndex index(net, cfg);
  const auto data = workload::northeastDataset(200, 9);
  index.bulkLoad(data);
  for (std::size_t q = 0; q < 100; ++q) {
    EXPECT_TRUE(queryOk(index, data[0].key));
  }
  EXPECT_EQ(index.store().boostedLeafCount(), 0u);
  EXPECT_EQ(index.store().hotPromotions(), 0u);
  EXPECT_EQ(index.store().hotDemotions(), 0u);
}

// The core promise: hammering one key promotes its leaf, and the
// boosted replica set absorbs the traffic — the hottest peer's measured
// delta drops by at least 2x vs the unbalanced run of the exact same
// workload, with every answer still correct.
TEST(LoadBalance, HotLeafPromotedAndLoadSpreads) {
  const auto data = workload::northeastDataset(300, 9);
  const std::size_t warmup = 60;
  const std::size_t measured = 240;

  auto hottestDelta = [&](bool balanced, std::uint64_t* promotions) {
    Network net(32, 3);
    core::MLightConfig cfg = balancedConfig();
    cfg.loadBalance.enabled = balanced;
    core::MLightIndex index(net, cfg);
    index.bulkLoad(data);
    for (std::size_t q = 0; q < warmup; ++q) {
      EXPECT_TRUE(queryOk(index, data[0].key));
    }
    const std::vector<std::uint64_t> before = net.peerLoads().counts();
    for (std::size_t q = 0; q < measured; ++q) {
      EXPECT_TRUE(queryOk(index, data[0].key));
    }
    const auto delta = loadDelta(net, before);
    *promotions = index.store().hotPromotions();
    if (balanced) {
      EXPECT_GE(index.store().boostedLeafCount(), 1u);
    }
    return *std::max_element(delta.begin(), delta.end());
  };

  std::uint64_t promotionsOff = 0;
  std::uint64_t promotionsOn = 0;
  const std::uint64_t maxOff = hottestDelta(false, &promotionsOff);
  const std::uint64_t maxOn = hottestDelta(true, &promotionsOn);
  EXPECT_EQ(promotionsOff, 0u);
  EXPECT_GE(promotionsOn, 1u);
  EXPECT_LE(2 * maxOn, maxOff)
      << "boosted replicas did not absorb the hot leaf's read load";
}

// Kill the hottest replica mid-sweep: reads must fail over to the
// surviving copies with zero wrong answers, and the load must keep
// spreading over more than one peer afterwards.
TEST(HotspotRouting, FailoverUnderChurnZeroWrongAnswers) {
  Network net(32, 5);
  core::MLightConfig cfg = balancedConfig();
  cfg.replication = 2;  // base replicas so a crash cannot lose the bucket
  core::MLightIndex index(net, cfg);
  const auto data = workload::northeastDataset(300, 9);
  for (const auto& r : data) index.insert(r);

  // Phase 1: promote the hot leaf and find the hottest physical peer.
  const std::vector<std::uint64_t> s0 = net.peerLoads().counts();
  for (std::size_t q = 0; q < 120; ++q) {
    ASSERT_TRUE(queryOk(index, data[0].key));
  }
  ASSERT_GE(index.store().hotPromotions(), 1u);
  const auto hotDelta = loadDelta(net, s0);
  const std::size_t hottest = static_cast<std::size_t>(
      std::max_element(hotDelta.begin(), hotDelta.end()) - hotDelta.begin());

  // Crash the vnode of the hottest physical peer that carried the load.
  dht::RingId victim{};
  bool found = false;
  for (const auto peer : net.peers()) {
    if (net.physicalOf(peer) == hottest) {
      victim = peer;
      found = true;
      break;
    }
  }
  ASSERT_TRUE(found);
  net.crashPeer(victim);

  // Phase 2: the sweep continues; every answer must still be exact.
  const std::vector<std::uint64_t> s1 = net.peerLoads().counts();
  std::size_t ok = 0;
  for (std::size_t q = 0; q < 120; ++q) {
    ok += queryOk(index, data[0].key);
  }
  EXPECT_EQ(ok, 120u) << "failover produced wrong or missing answers";

  // Re-convergence witness: surviving replicas share the load — more
  // than one live peer received query traffic after the crash.
  const auto postDelta = loadDelta(net, s1);
  std::size_t carriers = 0;
  for (std::size_t p = 0; p < postDelta.size(); ++p) {
    carriers += postDelta[p] > 0;
  }
  EXPECT_GE(carriers, 2u);
  index.checkInvariants();
}

// Determinism: promotions, boosted placement, frozen read routing, and
// the replica-aware hints must all be schedule-independent.  Digest and
// answers are compared across shuffle seeds x shard counts against the
// unshuffled serial run.
TEST(LoadBalance, DigestStableAcrossShuffleSeedsAndShards) {
  struct Outcome {
    std::uint64_t indexDigest = 0;
    std::uint64_t netDigest = 0;
    std::uint64_t boosted = 0;
    std::size_t ok = 0;
  };
  auto runOnce = [](std::uint64_t shuffleSeed, std::size_t shards) {
    Network net(24, 7, /*vnodesPerPeer=*/1, lanModel());
    net.setSimShards(shards);
    net.setScheduleShuffleSeed(shuffleSeed);
    core::MLightConfig cfg = balancedConfig();
    cfg.replication = 2;
    core::MLightIndex index(net, cfg);
    const auto data = workload::northeastDataset(200, 11);
    for (const auto& r : data) index.insert(r);
    Outcome out;
    for (std::size_t q = 0; q < 150; ++q) {
      out.ok += queryOk(index, data[q % 4].key);
    }
    index.checkInvariants();
    out.indexDigest = index.stateDigest();
    common::Digest nd;
    net.digestState(nd);
    out.netDigest = nd.value();
    out.boosted = index.store().boostedLeafCount();
    return out;
  };

  const Outcome base = runOnce(0, 1);
  EXPECT_EQ(base.ok, 150u);
  EXPECT_GE(base.boosted, 1u);
  for (const std::uint64_t seed : {0ull, 17ull, 23ull, 71ull}) {
    for (const std::size_t shards : {std::size_t{1}, std::size_t{4}}) {
      if (seed == 0 && shards == 1) continue;
      const Outcome run = runOnce(seed, shards);
      const std::string label =
          "seed " + std::to_string(seed) + ", shards " + std::to_string(shards);
      EXPECT_EQ(base.indexDigest, run.indexDigest) << label;
      EXPECT_EQ(base.netDigest, run.netDigest) << label;
      EXPECT_EQ(base.boosted, run.boosted) << label;
      EXPECT_EQ(base.ok, run.ok) << label;
    }
  }
}

/// From-scratch least-loaded copy of one installed copy set: loads read
/// through a fresh network resolution of each holder (never the copy's
/// cached physical index), strict `<` so the lowest replica index wins
/// ties — the rule refreshReadRouting() must reproduce.
using CopyTarget = store::DistributedStore<core::LeafBucket>::CopyTarget;

std::size_t argminSalt(const Network& net,
                       const std::vector<CopyTarget>& copies) {
  std::size_t bestSalt = 0;
  std::uint64_t bestLoad = ~std::uint64_t{0};
  for (const auto& t : copies) {
    const std::uint64_t load = net.peerLoads().countOf(net.physicalOf(t.holder));
    if (load < bestLoad) {
      bestLoad = load;
      bestSalt = t.salt;
    }
  }
  return bestSalt;
}

/// The route every boosted, stored label must get from the next
/// operation's refresh, computed at the quiescent point before it.
std::map<common::BitString, std::size_t> expectedRoutes(
    const core::MLightIndex& index, const Network& net) {
  std::map<common::BitString, std::size_t> out;
  index.store().forEach([&](const common::BitString& label, const auto&,
                            dht::RingId) {
    if (!index.store().isBoosted(label)) return;
    out.emplace(label,
                argminSalt(net, index.store().installedCopies(label)));
  });
  return out;
}

/// Runs one point query and checks that the frozen route it installed
/// for every label boosted before it matches the from-scratch argmin.
/// Labels demoted by the query's own drain have no route left to check.
/// Returns how many routes were compared.
std::size_t queryAndCheckRoutes(core::MLightIndex& index, const Network& net,
                                const common::Point& key,
                                const std::string& when) {
  const auto expected = expectedRoutes(index, net);
  EXPECT_TRUE(queryOk(index, key)) << when;
  std::size_t compared = 0;
  for (const auto& [label, salt] : expected) {
    if (!index.store().isBoosted(label)) continue;
    const auto frozen = index.store().frozenReadSalt(label);
    EXPECT_TRUE(frozen.has_value()) << when;
    if (!frozen) continue;
    EXPECT_EQ(*frozen, salt) << when;
    ++compared;
  }
  return compared;
}

// The frozen route table is refreshed in place from each copy's cached
// physical-peer index.  Across promotion, a crash of a copy-holder under
// both repair policies, the holder's rejoin under its old name (which
// renumbers its physical peer) and the hot leaf's demotion, every route
// must equal the argmin computed from scratch through the network.
TEST(LoadBalance, FrozenRoutesMatchFromScratchArgmin) {
  for (const store::RepairPolicy policy :
       {store::RepairPolicy::kEager, store::RepairPolicy::kOnRead}) {
    const std::string name =
        policy == store::RepairPolicy::kEager ? "eager" : "on-read";
    Network net(32, 5);
    core::MLightConfig cfg = balancedConfig();
    cfg.replication = 2;
    cfg.repair = policy;
    cfg.loadBalance.windowMs = kWindowMs;
    core::MLightIndex index(net, cfg);
    const auto data = workload::northeastDataset(300, 9);
    for (const auto& r : data) index.insert(r);
    const common::Point hot = data[0].key;

    // Each phase must compare some routes, or it proves nothing.
    std::size_t compared = 0;
    const auto hammer = [&](std::size_t n, const std::string& phase) {
      compared = 0;
      for (std::size_t q = 0; q < n; ++q) {
        compared += queryAndCheckRoutes(index, net, hot, name + " " + phase);
      }
      EXPECT_GT(compared, 0u) << name << " " << phase;
    };

    // Promote: hammer one key until its leaf is boosted.
    hammer(40, "promote");
    ASSERT_GE(index.store().hotPromotions(), 1u) << name;
    common::BitString hotLeaf;
    index.store().forEach([&](const common::BitString& label,
                              const core::LeafBucket& bucket, dht::RingId) {
      for (const auto& r : bucket.records) {
        if (r.key == hot) hotLeaf = label;
      }
    });
    ASSERT_TRUE(index.store().isBoosted(hotLeaf)) << name;

    // Crash a non-primary holder of the hot leaf, keep reading, then
    // bring the peer back under its old name.
    const auto copies = index.store().installedCopies(hotLeaf);
    ASSERT_GE(copies.size(), 2u) << name;
    const dht::RingId victim = copies[1].holder;
    const std::string victimName = net.physicalNameOf(victim);
    const std::size_t oldPhysical = net.physicalOf(victim);
    ASSERT_TRUE(net.crashPeer(victim)) << name;
    hammer(10, "crashed");
    net.addPeer(victimName);
    ASSERT_NE(net.physicalOf(victim), oldPhysical) << name;
    const auto rejoinedCopies = index.store().installedCopies(hotLeaf);
    const auto victimCopy =
        std::find_if(rejoinedCopies.begin(), rejoinedCopies.end(),
                     [&](const CopyTarget& t) { return t.holder == victim; });
    ASSERT_NE(victimCopy, rejoinedCopies.end())
        << name << ": the rejoined peer should hold a copy again";
    // Renumbered, the rejoined peer has served nothing yet: it is the
    // least-loaded copy, which a route read through its old physical
    // index would miss.
    hammer(1, "rejoined");
    EXPECT_EQ(index.store().frozenReadSalt(hotLeaf), victimCopy->salt)
        << name;
    hammer(10, "rejoined");

    // Demote: the hot key goes quiet (one read per window) while the
    // rest of the key set keeps the clock moving.
    compared = 0;
    for (std::size_t q = 0; q < 400 && index.store().isBoosted(hotLeaf); ++q) {
      const common::Point& key =
          q % 20 == 0 ? hot : data[1 + (q * 7) % (data.size() - 1)].key;
      compared += queryAndCheckRoutes(index, net, key, name + " cooling");
    }
    EXPECT_FALSE(index.store().isBoosted(hotLeaf)) << name;
    EXPECT_GE(index.store().hotDemotions(), 1u) << name;
    EXPECT_FALSE(index.store().frozenReadSalt(hotLeaf).has_value()) << name;
    EXPECT_GT(compared, 0u) << name << " cooling";
    index.checkInvariants();
  }
}

// Eviction metering: a tiny hint cache under a wide key set must churn,
// and the churn must surface as CostMeter::hintEvictions, with the
// occupancy gauge (HintCacheSet::totalHints) bounded by capacity.
TEST(LoadBalance, HintEvictionsAreMetered) {
  Network net(8, 1);
  core::MLightConfig cfg;
  cfg.thetaSplit = 16;
  cfg.thetaMerge = 8;
  cfg.cache.enabled = true;
  cfg.cache.perDimCapacity = 2;
  core::MLightIndex index(net, cfg);
  const auto data = workload::northeastDataset(400, 9);
  index.bulkLoad(data);
  for (std::size_t q = 0; q < 200; ++q) {
    EXPECT_TRUE(queryOk(index, data[(q * 7) % data.size()].key));
  }
  EXPECT_GT(net.totalCost().hintEvictions, 0u);
  EXPECT_GT(index.hintCaches().totalHints(), 0u);
}

TEST(LoadBalance, PeerLoadMeterSnapshotMath) {
  dht::PeerLoadMeter meter;
  for (int i = 0; i < 6; ++i) meter.note(2);
  meter.note(0);
  meter.note(5);
  EXPECT_EQ(meter.countOf(2), 6u);
  EXPECT_EQ(meter.countOf(7), 0u);  // beyond the vector: implicit zero
  const auto snap = meter.snapshot(8);
  EXPECT_EQ(snap.total, 8u);
  EXPECT_EQ(snap.max, 6u);
  EXPECT_DOUBLE_EQ(snap.avg, 1.0);
  EXPECT_EQ(snap.p99, 6u);  // nearest-rank p99 of 8 samples = the max
  EXPECT_DOUBLE_EQ(snap.maxOverAvg, 6.0);

  // The meter is digest-stable: same notes, same digest.
  common::Digest a;
  common::Digest b;
  meter.digestTo(a);
  dht::PeerLoadMeter other;
  for (int i = 0; i < 6; ++i) other.note(2);
  other.note(0);
  other.note(5);
  other.digestTo(b);
  EXPECT_EQ(a.value(), b.value());
}

}  // namespace
}  // namespace mlight
