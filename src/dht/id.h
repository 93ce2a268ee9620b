// Identifier space of the simulated DHT.
//
// Chord-style overlays place nodes and keys on a ring of 2^b identifiers.
// We use b = 64: identifiers are the first 8 bytes of a SHA-1 digest, which
// keeps ring arithmetic in native integers while preserving the uniform
// placement that consistent hashing relies on.
#pragma once

#include <compare>
#include <cstdint>
#include <string>
#include <string_view>

#include "common/sha1.h"

namespace mlight::dht {

/// A position on the identifier ring.  Strong type so node ids and raw
/// integers cannot be mixed up.
struct RingId {
  std::uint64_t value = 0;

  friend auto operator<=>(const RingId&, const RingId&) = default;
};

/// Hash of an application key string onto the ring.
inline RingId keyId(std::string_view key) noexcept {
  return RingId{mlight::common::sha1Prefix64(key)};
}

/// Clockwise distance from `from` to `to` on the ring (mod 2^64).
inline std::uint64_t clockwise(RingId from, RingId to) noexcept {
  return to.value - from.value;  // wraps mod 2^64 by construction
}

/// True iff `x` lies in the half-open clockwise arc (from, to].
inline bool inArc(RingId x, RingId from, RingId to) noexcept {
  return clockwise(from, x) != 0 && clockwise(from, x) <= clockwise(from, to);
}

std::string toString(RingId id);

}  // namespace mlight::dht
