// FlatLabelMap: an open-addressed BitString-keyed hash table.
//
// Every simulated DHT access probes label-keyed tables twice or more —
// the ring-key memo on the sending side, the bucket table at the owner.
// A node-based std::unordered_map walks bucket → previous node → node →
// next node, each a dependent cache miss.  Here a lookup reads one
// 16-byte slot {hash64, node index} from a flat power-of-two array
// (linear probing; the stored hash rejects almost every mismatch without
// leaving the slot array) and then the one node it names, which holds
// the key next to its value.
//
// Nodes live in fixed-size chunks that never move, so a value's address
// stays valid across inserts and rehashes (owner-side handlers hold a
// Bucket* while they place new buckets); erase() destroys the node and
// recycles its storage.  Slots are removed by backward-shift deletion,
// so the table needs no tombstones.  Both arrays grow with the content,
// starting empty — no up-front sizing.
//
// Iteration walks the slot array, i.e. hash order: like an unordered
// container it must never feed anything order-sensitive (the DET-A rule
// of scripts/lint_determinism.py knows this type); walk
// common::sortedKeys instead.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <new>
#include <tuple>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/bitstring.h"

namespace mlight::common {

template <typename V>
class FlatLabelMap {
 public:
  using key_type = BitString;
  using mapped_type = V;
  using value_type = std::pair<const BitString, V>;

  FlatLabelMap() = default;
  ~FlatLabelMap() { clear(); }
  FlatLabelMap(const FlatLabelMap&) = delete;
  FlatLabelMap& operator=(const FlatLabelMap&) = delete;

  std::size_t size() const noexcept { return size_; }
  bool empty() const noexcept { return size_ == 0; }

  /// The value stored under `key`, or nullptr.
  V* find(const BitString& key) noexcept {
    const std::size_t slot = findSlot(key);
    return slot == kNone ? nullptr : &node(slots_[slot].node)->second;
  }
  const V* find(const BitString& key) const noexcept {
    return const_cast<FlatLabelMap*>(this)->find(key);
  }

  /// The value under `key`, found without the hash: a scan of every
  /// live node comparing keys.  O(size) — an independent resolution
  /// path for audits of find().
  const V* findByScan(const BitString& key) const noexcept {
    for (const Slot& s : slots_) {
      if (s.node == kEmpty) continue;
      const value_type* n = node(s.node);
      if (n->first == key) return &n->second;
    }
    return nullptr;
  }

  /// Inserts `key` with `value` if absent; returns the stored value and
  /// whether it was inserted (an existing value is left untouched).
  template <typename... Args>
  std::pair<V*, bool> tryEmplace(const BitString& key, Args&&... args) {
    const std::uint64_t hash = key.hash64();
    if (const std::size_t slot = findSlot(key, hash); slot != kNone) {
      return {&node(slots_[slot].node)->second, false};
    }
    if ((size_ + 1) * 4 > slots_.size() * 3) rehash(growTarget());
    const std::uint32_t index = allocNode();
    value_type* n = ::new (static_cast<void*>(node(index)))
        value_type(std::piecewise_construct, std::forward_as_tuple(key),
                   std::forward_as_tuple(std::forward<Args>(args)...));
    placeSlot(Slot{hash, index});
    ++size_;
    return {&n->second, true};
  }

  /// Stores `value` under `key`, replacing any existing value in place
  /// (its address is unchanged).
  V& insertOrAssign(const BitString& key, V value) {
    if (V* stored = find(key)) {
      *stored = std::move(value);
      return *stored;
    }
    return *tryEmplace(key, std::move(value)).first;
  }

  /// Removes `key`; returns true if it was present.
  bool erase(const BitString& key) noexcept {
    std::size_t hole = findSlot(key);
    if (hole == kNone) return false;
    releaseNode(slots_[hole].node);
    --size_;
    // Backward-shift deletion: pull later members of the probe run into
    // the hole whenever the hole lies between their home slot and their
    // current slot, so every remaining key stays reachable.
    const std::size_t mask = slots_.size() - 1;
    for (std::size_t j = (hole + 1) & mask; slots_[j].node != kEmpty;
         j = (j + 1) & mask) {
      const std::size_t home = homeSlot(slots_[j].hash);
      if (((j - home) & mask) >= ((j - hole) & mask)) {
        slots_[hole] = slots_[j];
        hole = j;
      }
    }
    slots_[hole] = Slot{};
    return true;
  }

  /// Drops every entry and releases all storage.
  void clear() noexcept {
    for (const Slot& s : slots_) {
      if (s.node != kEmpty) node(s.node)->~value_type();
    }
    slots_.clear();
    slots_.shrink_to_fit();
    shift_ = 64;
    chunks_.clear();
    freeNodes_.clear();
    carved_ = 0;
    size_ = 0;
  }

  /// Forward iteration in slot (hash) order — see the header comment.
  template <bool Const>
  class Iter {
   public:
    using Map = std::conditional_t<Const, const FlatLabelMap, FlatLabelMap>;
    using Ref = std::conditional_t<Const, const value_type&, value_type&>;
    Iter(Map* map, std::size_t slot) noexcept : map_(map), slot_(slot) {
      skip();
    }
    Ref operator*() const noexcept {
      return *map_->node(map_->slots_[slot_].node);
    }
    auto* operator->() const noexcept { return &**this; }
    Iter& operator++() noexcept {
      ++slot_;
      skip();
      return *this;
    }
    bool operator==(const Iter& o) const noexcept { return slot_ == o.slot_; }

   private:
    void skip() noexcept {
      while (slot_ < map_->slots_.size() &&
             map_->slots_[slot_].node == kEmpty) {
        ++slot_;
      }
    }
    Map* map_;
    std::size_t slot_;
  };
  Iter<false> begin() noexcept { return {this, 0}; }
  Iter<false> end() noexcept { return {this, slots_.size()}; }
  Iter<true> begin() const noexcept { return {this, 0}; }
  Iter<true> end() const noexcept { return {this, slots_.size()}; }

 private:
  struct Slot {
    std::uint64_t hash = 0;
    std::uint32_t node = 0;  ///< node index + 1; 0 = empty slot
  };
  static constexpr std::uint32_t kEmpty = 0;
  static constexpr std::size_t kNone = ~std::size_t{0};
  static constexpr std::size_t kChunkNodes = 64;
  static constexpr std::size_t kMinSlots = 16;

  struct Chunk {
    alignas(value_type) unsigned char raw[sizeof(value_type) * kChunkNodes];
  };

  value_type* node(std::uint32_t ref) const noexcept {
    const std::size_t i = ref - 1;
    return std::launder(reinterpret_cast<value_type*>(
        chunks_[i / kChunkNodes]->raw +
        sizeof(value_type) * (i % kChunkNodes)));
  }

  /// Fibonacci hashing: the multiply spreads FNV's low-entropy high bits
  /// before the top bits pick the home slot.
  std::size_t homeSlot(std::uint64_t hash) const noexcept {
    return static_cast<std::size_t>((hash * 0x9E3779B97F4A7C15ull) >>
                                    shift_);
  }

  std::size_t findSlot(const BitString& key) const noexcept {
    return findSlot(key, key.hash64());
  }
  std::size_t findSlot(const BitString& key,
                       std::uint64_t hash) const noexcept {
    if (size_ == 0) return kNone;
    const std::size_t mask = slots_.size() - 1;
    for (std::size_t i = homeSlot(hash);; i = (i + 1) & mask) {
      const Slot& s = slots_[i];
      if (s.node == kEmpty) return kNone;
      if (s.hash == hash && node(s.node)->first == key) return i;
    }
  }

  void placeSlot(Slot slot) noexcept {
    const std::size_t mask = slots_.size() - 1;
    std::size_t i = homeSlot(slot.hash);
    while (slots_[i].node != kEmpty) i = (i + 1) & mask;
    slots_[i] = slot;
  }

  std::size_t growTarget() const noexcept {
    return slots_.empty() ? kMinSlots : slots_.size() * 2;
  }

  void rehash(std::size_t slotCount) {
    std::vector<Slot> old = std::move(slots_);
    slots_.assign(slotCount, Slot{});
    shift_ = 64;
    for (std::size_t n = slotCount; n > 1; n >>= 1) --shift_;
    for (const Slot& s : old) {
      if (s.node != kEmpty) placeSlot(s);
    }
  }

  std::uint32_t allocNode() {
    if (!freeNodes_.empty()) {
      const std::uint32_t ref = freeNodes_.back();
      freeNodes_.pop_back();
      return ref;
    }
    if (carved_ == chunks_.size() * kChunkNodes) {
      chunks_.push_back(std::make_unique_for_overwrite<Chunk>());
    }
    return static_cast<std::uint32_t>(++carved_);
  }

  void releaseNode(std::uint32_t ref) noexcept {
    node(ref)->~value_type();
    freeNodes_.push_back(ref);
  }

  std::vector<Slot> slots_;
  int shift_ = 64;
  std::vector<std::unique_ptr<Chunk>> chunks_;
  std::vector<std::uint32_t> freeNodes_;
  std::size_t carved_ = 0;  ///< nodes ever handed out of chunks_
  std::size_t size_ = 0;
};

}  // namespace mlight::common
