// SHA-1, implemented from scratch (FIPS 180-1).
//
// DHT node identifiers and key placement in Chord-style overlays are
// classically derived from SHA-1 digests.  We implement the full algorithm
// rather than pull in a crypto dependency: the repo has no external
// dependencies beyond gtest/benchmark, and DHT id distribution only needs a
// well-mixed deterministic digest, which SHA-1 provides.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <string_view>

namespace mlight::common {

using Sha1Digest = std::array<std::uint8_t, 20>;

/// Incremental SHA-1 hasher.  Typical use:
///   Sha1 h; h.update(bytes); Sha1Digest d = h.finish();
class Sha1 {
 public:
  Sha1() noexcept { reset(); }

  void reset() noexcept;
  void update(std::span<const std::uint8_t> data) noexcept;
  void update(std::string_view text) noexcept;

  /// Finalizes and returns the 160-bit digest.  The hasher must be reset()
  /// before reuse.
  Sha1Digest finish() noexcept;

 private:
  void processBlock(const std::uint8_t* block) noexcept;

  std::array<std::uint32_t, 5> state_{};
  std::array<std::uint8_t, 64> buffer_{};
  std::uint64_t totalBytes_ = 0;
  std::size_t bufferLen_ = 0;
};

/// One-shot digest of a byte span.  Messages of at most 55 bytes (which
/// pad into a single block) take a one-compression path that skips the
/// streaming buffer; longer ones stream.
Sha1Digest sha1(std::span<const std::uint8_t> data) noexcept;

/// One-shot digest of text.
Sha1Digest sha1(std::string_view text) noexcept;

/// Lowercase hex rendering of a digest (40 chars).
std::string toHex(const Sha1Digest& digest);

/// First 8 bytes of the digest as a big-endian 64-bit integer.  Used to
/// place keys and nodes on the simulated ring.
std::uint64_t digestPrefix64(const Sha1Digest& digest) noexcept;

/// digestPrefix64(sha1(text)), reading the prefix straight from the
/// final state words.  Every DHT key and peer name in the simulator fits
/// the one-block path.
std::uint64_t sha1Prefix64(std::string_view text) noexcept;

}  // namespace mlight::common
