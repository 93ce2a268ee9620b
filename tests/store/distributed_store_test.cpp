#include "store/distributed_store.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/bitstring.h"
#include "common/serde.h"
#include "dht/network.h"

namespace mlight::store {
namespace {

using mlight::common::BitString;
using mlight::dht::CostMeter;
using mlight::dht::MeterScope;
using mlight::dht::Network;

struct FakeBucket {
  int value = 0;
  std::size_t bytes = 100;
  std::size_t records = 1;
  std::size_t byteSize() const noexcept { return bytes; }
  std::size_t recordCount() const noexcept { return records; }

  void serialize(mlight::common::Writer& w) const {
    w.writeU32(static_cast<std::uint32_t>(value));
    w.writeU32(static_cast<std::uint32_t>(records));
    // Pad to the declared byteSize so the wire-size check holds.
    for (std::size_t i = 8; i < bytes; ++i) w.writeU8(0);
  }
  static FakeBucket deserialize(mlight::common::Reader& r) {
    FakeBucket b;
    b.value = static_cast<int>(r.readU32());
    b.records = r.readU32();
    std::size_t padding = 0;
    while (!r.atEnd()) {
      r.readU8();
      ++padding;
    }
    b.bytes = 8 + padding;
    return b;
  }
};

TEST(DistributedStore, PlaceAndFind) {
  Network net(16);
  DistributedStore<FakeBucket> store(net, "t/");
  const BitString key = BitString::fromString("0101");
  store.place(net.peers()[0], key, FakeBucket{7, 10, 1});
  const auto found = store.routeAndFind(net.peers()[1], key);
  ASSERT_NE(found.bucket, nullptr);
  EXPECT_EQ(found.bucket->value, 7);
  EXPECT_EQ(found.owner, store.ownerOf(key));
}

TEST(DistributedStore, FindMissingReturnsNull) {
  Network net(16);
  DistributedStore<FakeBucket> store(net, "t/");
  const auto found =
      store.routeAndFind(net.peers()[0], BitString::fromString("111"));
  EXPECT_EQ(found.bucket, nullptr);
}

TEST(DistributedStore, RouteAndFindMetersOneLookup) {
  Network net(16);
  DistributedStore<FakeBucket> store(net, "t/");
  CostMeter meter;
  {
    MeterScope scope(net, meter);
    store.routeAndFind(net.peers()[0], BitString::fromString("0"));
    store.routeAndFind(net.peers()[0], BitString::fromString("1"));
  }
  EXPECT_EQ(meter.lookups, 2u);
}

TEST(DistributedStore, PlaceShipsBytesOnlyAcrossPeers) {
  Network net(16);
  DistributedStore<FakeBucket> store(net, "t/");
  const BitString key = BitString::fromString("0011");
  const auto owner = store.ownerOf(key);

  CostMeter fromOwner;
  {
    MeterScope scope(net, fromOwner);
    store.place(owner, key, FakeBucket{1, 500, 5});
  }
  EXPECT_EQ(fromOwner.lookups, 1u);
  EXPECT_EQ(fromOwner.bytesMoved, 0u);  // source already owns the key

  // Re-place from a different peer: payload moves.
  auto other = net.peers()[0] == owner ? net.peers()[1] : net.peers()[0];
  CostMeter fromOther;
  {
    MeterScope scope(net, fromOther);
    store.place(other, key, FakeBucket{2, 500, 5});
  }
  EXPECT_EQ(fromOther.bytesMoved, 500u);
  EXPECT_EQ(fromOther.recordsMoved, 5u);
}

TEST(DistributedStore, PlaceLocalIsFree) {
  Network net(16);
  DistributedStore<FakeBucket> store(net, "t/");
  CostMeter meter;
  {
    MeterScope scope(net, meter);
    store.placeLocal(BitString::fromString("01"), FakeBucket{});
  }
  EXPECT_EQ(meter.lookups, 0u);
  EXPECT_EQ(meter.bytesMoved, 0u);
  EXPECT_NE(store.peek(BitString::fromString("01")), nullptr);
}

TEST(DistributedStore, EraseRemoves) {
  Network net(8);
  DistributedStore<FakeBucket> store(net, "t/");
  const BitString key = BitString::fromString("10");
  store.placeLocal(key, FakeBucket{});
  EXPECT_TRUE(store.erase(key));
  EXPECT_FALSE(store.erase(key));
  EXPECT_EQ(store.peek(key), nullptr);
}

TEST(DistributedStore, NamespacesIsolateIndexes) {
  Network net(8);
  DistributedStore<FakeBucket> a(net, "a/");
  DistributedStore<FakeBucket> b(net, "b/");
  const BitString key = BitString::fromString("0");
  a.placeLocal(key, FakeBucket{1});
  EXPECT_EQ(b.peek(key), nullptr);
  // Same label generally lands on different peers under different
  // namespaces (hash includes the namespace).
  EXPECT_EQ(a.ringKey(key).value == b.ringKey(key).value, false);
}

TEST(DistributedStore, ChurnMigratesOwnership) {
  Network net(8);
  DistributedStore<FakeBucket> store(net, "t/");
  for (int i = 0; i < 100; ++i) {
    store.placeLocal(
        mlight::common::BitString::fromString(
            [&] {
              std::string s;
              for (int b = 0; b < 10; ++b) s.push_back((i >> b) % 2 ? '1' : '0');
              return s;
            }()),
        FakeBucket{i, 64, 1});
  }
  CostMeter churn;
  {
    MeterScope scope(net, churn);
    net.addPeer("newcomer");
  }
  // The newcomer took over some arcs; those buckets shipped.
  std::size_t misplaced = 0;
  store.forEach([&](const BitString& key, const FakeBucket&,
                    mlight::dht::RingId owner) {
    if (owner != store.ownerOf(key)) ++misplaced;
  });
  EXPECT_EQ(misplaced, 0u);
  EXPECT_GT(churn.bytesMoved, 0u);

  // Removing a peer re-homes its buckets too.
  CostMeter churn2;
  {
    MeterScope scope(net, churn2);
    net.removePeer(net.peers()[2]);
  }
  misplaced = 0;
  store.forEach([&](const BitString& key, const FakeBucket&,
                    mlight::dht::RingId owner) {
    if (owner != store.ownerOf(key)) ++misplaced;
  });
  EXPECT_EQ(misplaced, 0u);
}

TEST(DistributedStore, PerPeerRecordsAggregates) {
  Network net(4);
  DistributedStore<FakeBucket> store(net, "t/");
  store.placeLocal(BitString::fromString("0"), FakeBucket{0, 10, 3});
  store.placeLocal(BitString::fromString("1"), FakeBucket{0, 10, 4});
  const auto load = store.perPeerRecords();
  std::size_t total = 0;
  for (const auto& [peer, records] : load) total += records;
  EXPECT_EQ(total, 7u);
}

TEST(DistributedStore, DestructionUnregistersFromNetwork) {
  Network net(4);
  {
    DistributedStore<FakeBucket> store(net, "t/");
    store.placeLocal(BitString::fromString("0"), FakeBucket{});
  }
  // Must not crash touching a dead store's rebalance callback.
  net.addPeer("after-destruction");
  SUCCEED();
}

/// The naming function spelled out independently of the store: the
/// namespace, the label's bits as '0'/'1', and "#r<salt>" for replica
/// salts, hashed onto the ring.
mlight::dht::RingId namedRingKey(const std::string& ns,
                                 const BitString& label, std::size_t salt) {
  std::string key = ns;
  key += label.toString();
  if (salt != 0) {
    key += "#r";
    key += std::to_string(salt);
  }
  return mlight::dht::keyId(key);
}

BitString counterLabel(std::size_t value, std::size_t bits) {
  BitString label;
  for (std::size_t i = bits; i-- > 0;) label.pushBack(((value >> i) & 1) != 0);
  return label;
}

TEST(DistributedStore, RingKeyMemoIsExactThroughGrowthCapAndReplicaSalts) {
  Network net(8);
  DistributedStore<FakeBucket> store(net, "memo/");
  constexpr std::size_t kCap = DistributedStore<FakeBucket>::kRingKeyCacheCap;
  // Growth: the memo rehashes many times on the way to the cap; replica
  // salts are asked out of order on a sample, and every answer is
  // checked twice (miss, then hit).
  for (std::size_t i = 0; i < kCap; ++i) {
    const BitString label = counterLabel(i, 18);
    ASSERT_EQ(store.ringKey(label), namedRingKey("memo/", label, 0)) << i;
    if (i % 997 == 0) {
      for (const std::size_t salt : {3u, 1u, 7u, 2u}) {
        ASSERT_EQ(store.ringKey(label, salt),
                  namedRingKey("memo/", label, salt));
      }
    }
  }
  EXPECT_EQ(store.ringKeyCacheSize(), kCap);
  for (std::size_t i = 0; i < kCap; i += 311) {
    const BitString label = counterLabel(i, 18);
    ASSERT_EQ(store.ringKey(label), namedRingKey("memo/", label, 0));
    ASSERT_EQ(store.ringKey(label, 4), namedRingKey("memo/", label, 4));
  }
  // Past the cap new labels are computed, not memoized — still exact.
  for (std::size_t i = 0; i < 200; ++i) {
    const BitString label = counterLabel(i, 19).withBack(true);
    ASSERT_EQ(store.ringKey(label, i % 3), namedRingKey("memo/", label, i % 3));
  }
  EXPECT_EQ(store.ringKeyCacheSize(), kCap);
}

TEST(DistributedStore, RingKeyMemoEvictsMournedLabelsAndRecyclesTheirSalts) {
  Network net(8);
  DistributedStore<FakeBucket> store(net, "evict/");  // R = 1: crashes lose
  std::vector<BitString> labels;
  for (std::size_t i = 0; i < 96; ++i) {
    labels.push_back(counterLabel(i, 7));
    store.placeLocal(labels.back(), FakeBucket{static_cast<int>(i)});
    // Memoize replica salts too, so eviction has runs to recycle.
    ASSERT_EQ(store.ringKey(labels.back(), 3),
              namedRingKey("evict/", labels.back(), 3));
  }
  ASSERT_EQ(store.ringKeyCacheSize(), labels.size());

  ASSERT_TRUE(net.crashPeer(store.ownerOf(labels[0])));
  std::size_t mourned = 0;
  for (const BitString& label : labels) mourned += store.isMourned(label);
  ASSERT_GT(mourned, 0u);
  EXPECT_EQ(store.ringKeyCacheSize(), labels.size() - mourned);

  // New labels pick up the recycled replica runs: no salt of an evicted
  // label may leak into them.
  for (std::size_t i = 0; i < 64; ++i) {
    const BitString label = counterLabel(i, 9);
    for (const std::size_t salt : {2u, 1u, 5u}) {
      ASSERT_EQ(store.ringKey(label, salt),
                namedRingKey("evict/", label, salt));
    }
  }
  // Mourned and surviving labels alike still answer exactly.
  for (const BitString& label : labels) {
    for (std::size_t salt = 0; salt <= 4; ++salt) {
      ASSERT_EQ(store.ringKey(label, salt),
                namedRingKey("evict/", label, salt));
    }
  }
  EXPECT_EQ(store.ringKeyCacheSize(), labels.size() + 64);
}

}  // namespace
}  // namespace mlight::store
