// FlatLabelMap: the open-addressed label table behind the store's bucket
// table and ring-key memo.  Checked against std::map as a model under
// random insert/erase churn (backward-shift deletion must keep every
// probe run reachable), for value address stability across growth, and
// for the hash-free scan used by the paranoid audit.
#include "common/flat_label_map.h"

#include <gtest/gtest.h>

#include <cstddef>
#include <map>
#include <vector>

#include "common/bitstring.h"
#include "common/digest.h"
#include "common/rng.h"

namespace mlight::common {
namespace {

BitString randomLabel(Rng& rng) {
  // Mostly short labels (dense collisions in the low bits), some past
  // the 256-bit inline buffer.
  const std::size_t bits =
      rng.chance(0.05) ? 256 + rng.below(64) : rng.below(24);
  BitString label;
  for (std::size_t i = 0; i < bits; ++i) label.pushBack(rng.chance(0.5));
  return label;
}

TEST(FlatLabelMap, MatchesOrderedMapModelUnderChurn) {
  Rng rng(20090601);
  FlatLabelMap<int> table;
  std::map<BitString, int> model;
  for (int step = 0; step < 40000; ++step) {
    const BitString label = randomLabel(rng);
    const int value = static_cast<int>(rng.below(1000));
    switch (rng.below(4)) {
      case 0:
      case 1: {
        const bool fresh = model.find(label) == model.end();
        const auto [stored, inserted] = table.tryEmplace(label, value);
        EXPECT_EQ(inserted, fresh);
        if (fresh) model.emplace(label, value);
        EXPECT_EQ(*stored, model.at(label));
        break;
      }
      case 2:
        table.insertOrAssign(label, value);
        model[label] = value;
        break;
      default:
        EXPECT_EQ(table.erase(label), model.erase(label) > 0);
        break;
    }
    ASSERT_EQ(table.size(), model.size());
  }
  for (const auto& [label, value] : model) {
    const int* found = table.find(label);
    ASSERT_NE(found, nullptr) << label.toString();
    EXPECT_EQ(*found, value);
    EXPECT_EQ(table.findByScan(label), found);
  }
  std::vector<BitString> modelKeys;
  for (const auto& [label, value] : model) modelKeys.push_back(label);
  EXPECT_EQ(sortedKeys(table), modelKeys);
}

TEST(FlatLabelMap, ValueAddressesSurviveGrowthAndErasure) {
  FlatLabelMap<std::vector<int>> table;
  const BitString first = BitString::fromString("0110");
  std::vector<int>* held = table.tryEmplace(first).first;
  held->assign({1, 2, 3});
  Rng rng(7);
  std::vector<BitString> others;
  for (int i = 0; i < 5000; ++i) {
    BitString label = randomLabel(rng);
    if (label == first) continue;
    if (table.tryEmplace(label, std::vector<int>{i}).second) {
      others.push_back(label);
    }
  }
  for (std::size_t i = 0; i < others.size(); i += 2) {
    ASSERT_TRUE(table.erase(others[i]));
  }
  EXPECT_EQ(table.find(first), held);
  EXPECT_EQ(*held, (std::vector<int>{1, 2, 3}));
  // Re-inserting over the erased labels recycles node storage without
  // touching the live value.
  for (std::size_t i = 0; i < others.size(); i += 2) {
    table.insertOrAssign(others[i], std::vector<int>{-1});
  }
  EXPECT_EQ(table.find(first), held);
  EXPECT_EQ(table.size(), others.size() + 1);
}

TEST(FlatLabelMap, MissesAndScanAgreeOnAbsentLabels) {
  FlatLabelMap<int> table;
  EXPECT_EQ(table.find(BitString{}), nullptr);
  EXPECT_FALSE(table.erase(BitString{}));
  table.tryEmplace(BitString{}, 5);
  table.tryEmplace(BitString::fromString("1"), 6);
  EXPECT_EQ(*table.find(BitString{}), 5);
  const BitString absent = BitString::fromString("10");
  EXPECT_EQ(table.find(absent), nullptr);
  EXPECT_EQ(table.findByScan(absent), nullptr);
  table.clear();
  EXPECT_TRUE(table.empty());
  EXPECT_EQ(table.find(BitString{}), nullptr);
}

}  // namespace
}  // namespace mlight::common
