// Tests for the link-latency model and virtual-node support.
#include <gtest/gtest.h>

#include <set>

#include "common/rng.h"
#include "dht/network.h"

namespace mlight::dht {
namespace {

TEST(Latency, LinkMsIsSymmetricDeterministicAndInRange) {
  Network net(32);
  const auto& peers = net.peers();
  for (std::size_t i = 0; i < 10; ++i) {
    for (std::size_t j = 0; j < 10; ++j) {
      const double ms = net.linkMs(peers[i], peers[j]);
      if (i == j) {
        EXPECT_EQ(ms, 0.0);
      } else {
        EXPECT_GE(ms, 10.0);
        EXPECT_LT(ms, 100.0);
        EXPECT_EQ(ms, net.linkMs(peers[j], peers[i]));  // symmetric
        EXPECT_EQ(ms, net.linkMs(peers[i], peers[j]));  // deterministic
      }
    }
  }
}

TEST(Latency, CustomModelRangeRespected) {
  Network net(16, 1, 1, LatencyModel{0.1, 1.0});
  const auto& peers = net.peers();
  for (std::size_t i = 1; i < peers.size(); ++i) {
    const double ms = net.linkMs(peers[0], peers[i]);
    EXPECT_GE(ms, 0.1);
    EXPECT_LT(ms, 1.0);
  }
}

TEST(Latency, LookupMsAccumulatesOverHops) {
  Network net(64);
  mlight::common::Rng rng(3);
  for (int i = 0; i < 200; ++i) {
    const RingId key{rng.next()};
    const auto res = net.lookup(net.peers()[rng.below(64)], key);
    if (res.hops == 0) {
      EXPECT_EQ(res.ms, 0.0);
    } else {
      // Each hop contributes 10..100 ms.
      EXPECT_GE(res.ms, 10.0 * static_cast<double>(res.hops));
      EXPECT_LT(res.ms, 100.0 * static_cast<double>(res.hops));
    }
  }
}

TEST(Latency, CoLocatedVnodesAreFreeLinks) {
  Network net(4, 1, 8);
  // Find two vnodes of the same physical peer.
  const auto& peers = net.peers();
  for (std::size_t i = 0; i < peers.size(); ++i) {
    for (std::size_t j = i + 1; j < peers.size(); ++j) {
      if (net.physicalOf(peers[i]) == net.physicalOf(peers[j])) {
        EXPECT_EQ(net.linkMs(peers[i], peers[j]), 0.0);
        return;
      }
    }
  }
  FAIL() << "no co-located vnodes found";
}

TEST(VirtualNodes, RingHasPeerTimesVnodePositions) {
  Network net(16, 1, 8);
  EXPECT_EQ(net.peerCount(), 16u * 8u);
  EXPECT_EQ(net.physicalCount(), 16u);
  EXPECT_EQ(net.livePhysicalCount(), 16u);
  // Every vnode maps to a valid physical index.
  for (const RingId v : net.peers()) {
    EXPECT_LT(net.physicalOf(v), 16u);
  }
}

TEST(VirtualNodes, SmoothKeyDistribution) {
  // The point of vnodes: per-physical-peer key share concentrates around
  // the mean much more tightly than with single positions.
  auto relVariance = [](Network& net) {
    std::map<std::size_t, int> load;
    for (int i = 0; i < 30000; ++i) {
      std::string key = "k";
      key += std::to_string(i);
      load[net.physicalOf(net.responsibleForKey(key))]++;
    }
    double sum = 0.0;
    double sq = 0.0;
    for (std::size_t p = 0; p < net.physicalCount(); ++p) {
      const double v = load.contains(p) ? load[p] : 0;
      sum += v;
      sq += v * v;
    }
    const double n = static_cast<double>(net.physicalCount());
    const double mean = sum / n;
    return (sq / n - mean * mean) / (mean * mean);
  };
  Network flat(64, 1, 1);
  Network smooth(64, 1, 16);
  EXPECT_LT(relVariance(smooth), 0.5 * relVariance(flat));
}

TEST(VirtualNodes, RemovePeerDropsAllItsVnodes) {
  Network net(8, 1, 4);
  const RingId victim = net.peers()[5];
  const std::size_t victimPhysical = net.physicalOf(victim);
  EXPECT_TRUE(net.removePeer(victim));
  EXPECT_EQ(net.peerCount(), 7u * 4u);
  EXPECT_EQ(net.livePhysicalCount(), 7u);
  for (const RingId v : net.peers()) {
    EXPECT_NE(net.physicalOf(v), victimPhysical);
  }
}

TEST(VirtualNodes, CrashReportsAllVnodesInChange) {
  Network net(8, 1, 4);
  std::vector<RingId> removed;
  Network::MembershipChange::Kind kind{};
  net.registerStore([&](const Network::MembershipChange& change) {
    removed = change.removedVnodes;
    kind = change.kind;
  });
  net.crashPeer(net.peers()[0]);
  EXPECT_EQ(kind, Network::MembershipChange::Kind::kCrash);
  EXPECT_EQ(removed.size(), 4u);
}

TEST(VirtualNodes, GracefulLeaveReportsKind) {
  Network net(8, 1, 2);
  Network::MembershipChange::Kind kind{};
  net.registerStore([&](const Network::MembershipChange& change) {
    kind = change.kind;
  });
  net.removePeer(net.peers()[0]);
  EXPECT_EQ(kind, Network::MembershipChange::Kind::kGracefulLeave);
  net.addPeer("x");
  EXPECT_EQ(kind, Network::MembershipChange::Kind::kJoin);
}

}  // namespace
}  // namespace mlight::dht
