#include "common/sha1.h"

#include <bit>
#include <cstring>

namespace mlight::common {

namespace {

constexpr std::uint32_t rotl(std::uint32_t v, int s) noexcept {
  return std::rotl(v, s);
}

std::uint32_t loadBigEndian32(const std::uint8_t* p) noexcept {
  return (static_cast<std::uint32_t>(p[0]) << 24) |
         (static_cast<std::uint32_t>(p[1]) << 16) |
         (static_cast<std::uint32_t>(p[2]) << 8) |
         static_cast<std::uint32_t>(p[3]);
}

/// The SHA-1 compression function over one 64-byte block.  The message
/// schedule rolls through the block's own 16 words (w[t] overwrites
/// w[t - 16], the only entry no later round reads), so no 80-word array
/// is zeroed or filled per block.
void compress(std::array<std::uint32_t, 5>& state,
              const std::uint8_t* block) noexcept {
  std::uint32_t w[16];
  for (std::size_t t = 0; t < 16; ++t) w[t] = loadBigEndian32(block + 4 * t);

  std::uint32_t a = state[0];
  std::uint32_t b = state[1];
  std::uint32_t c = state[2];
  std::uint32_t d = state[3];
  std::uint32_t e = state[4];
  const auto schedule = [&w](std::size_t t) noexcept {
    if (t < 16) return w[t];
    const std::uint32_t v = rotl(w[(t + 13) & 15] ^ w[(t + 8) & 15] ^
                                     w[(t + 2) & 15] ^ w[t & 15],
                                 1);
    w[t & 15] = v;
    return v;
  };
  const auto round = [&](std::uint32_t f, std::uint32_t k,
                         std::uint32_t wt) noexcept {
    const std::uint32_t temp = rotl(a, 5) + f + e + k + wt;
    e = d;
    d = c;
    c = rotl(b, 30);
    b = a;
    a = temp;
  };
  for (std::size_t t = 0; t < 20; ++t) {
    round((b & c) | ((~b) & d), 0x5A827999u, schedule(t));
  }
  for (std::size_t t = 20; t < 40; ++t) {
    round(b ^ c ^ d, 0x6ED9EBA1u, schedule(t));
  }
  for (std::size_t t = 40; t < 60; ++t) {
    round((b & c) | (b & d) | (c & d), 0x8F1BBCDCu, schedule(t));
  }
  for (std::size_t t = 60; t < 80; ++t) {
    round(b ^ c ^ d, 0xCA62C1D6u, schedule(t));
  }

  state[0] += a;
  state[1] += b;
  state[2] += c;
  state[3] += d;
  state[4] += e;
}

constexpr std::array<std::uint32_t, 5> kInitialState = {
    0x67452301u, 0xEFCDAB89u, 0x98BADCFEu, 0x10325476u, 0xC3D2E1F0u};

/// Largest message that pads into a single block: the 0x80 marker and
/// the 8-byte bit length must fit after it.
constexpr std::size_t kOneBlockMax = 64 - 1 - 8;

/// Digest state of a message of at most kOneBlockMax bytes: the message,
/// its padding and its length assembled in one block, one compression.
std::array<std::uint32_t, 5> oneBlockState(
    std::span<const std::uint8_t> data) noexcept {
  std::array<std::uint8_t, 64> block{};
  std::memcpy(block.data(), data.data(), data.size());
  block[data.size()] = 0x80;
  const std::uint64_t bitLen = data.size() * 8;
  block[62] = static_cast<std::uint8_t>(bitLen >> 8);
  block[63] = static_cast<std::uint8_t>(bitLen);
  std::array<std::uint32_t, 5> state = kInitialState;
  compress(state, block.data());
  return state;
}

Sha1Digest digestOf(const std::array<std::uint32_t, 5>& state) noexcept {
  Sha1Digest digest{};
  for (std::size_t i = 0; i < 5; ++i) {
    digest[4 * i + 0] = static_cast<std::uint8_t>(state[i] >> 24);
    digest[4 * i + 1] = static_cast<std::uint8_t>(state[i] >> 16);
    digest[4 * i + 2] = static_cast<std::uint8_t>(state[i] >> 8);
    digest[4 * i + 3] = static_cast<std::uint8_t>(state[i]);
  }
  return digest;
}

std::span<const std::uint8_t> bytesOf(std::string_view text) noexcept {
  return {reinterpret_cast<const std::uint8_t*>(text.data()), text.size()};
}

}  // namespace

void Sha1::reset() noexcept {
  state_ = kInitialState;
  totalBytes_ = 0;
  bufferLen_ = 0;
}

void Sha1::update(std::span<const std::uint8_t> data) noexcept {
  totalBytes_ += data.size();
  std::size_t offset = 0;
  if (bufferLen_ != 0) {
    const std::size_t take = std::min(data.size(), 64 - bufferLen_);
    std::memcpy(buffer_.data() + bufferLen_, data.data(), take);
    bufferLen_ += take;
    offset += take;
    if (bufferLen_ == 64) {
      processBlock(buffer_.data());
      bufferLen_ = 0;
    }
  }
  while (offset + 64 <= data.size()) {
    processBlock(data.data() + offset);
    offset += 64;
  }
  if (offset < data.size()) {
    bufferLen_ = data.size() - offset;
    std::memcpy(buffer_.data(), data.data() + offset, bufferLen_);
  }
}

void Sha1::update(std::string_view text) noexcept { update(bytesOf(text)); }

Sha1Digest Sha1::finish() noexcept {
  // Length is latched before padding; update() below keeps adjusting
  // totalBytes_ but that no longer matters.  The 0x80 marker, the zero
  // run, and the 8-byte big-endian bit length are assembled into one
  // buffer so padding costs one or two block transforms, not a 1-byte
  // update() call per padding byte.
  const std::uint64_t bitLen = totalBytes_ * 8;
  std::array<std::uint8_t, 128> pad{};
  pad[0] = 0x80;
  const std::size_t padLen =
      (bufferLen_ < 56 ? 56 - bufferLen_ : 120 - bufferLen_);
  for (int i = 0; i < 8; ++i) {
    pad[padLen + static_cast<std::size_t>(i)] =
        static_cast<std::uint8_t>(bitLen >> (56 - 8 * i));
  }
  update(std::span<const std::uint8_t>(pad.data(), padLen + 8));
  return digestOf(state_);
}

void Sha1::processBlock(const std::uint8_t* block) noexcept {
  compress(state_, block);
}

Sha1Digest sha1(std::span<const std::uint8_t> data) noexcept {
  if (data.size() <= kOneBlockMax) return digestOf(oneBlockState(data));
  Sha1 h;
  h.update(data);
  return h.finish();
}

Sha1Digest sha1(std::string_view text) noexcept { return sha1(bytesOf(text)); }

std::uint64_t sha1Prefix64(std::string_view text) noexcept {
  const std::span<const std::uint8_t> data = bytesOf(text);
  if (data.size() > kOneBlockMax) return digestPrefix64(sha1(data));
  const std::array<std::uint32_t, 5> state = oneBlockState(data);
  return (static_cast<std::uint64_t>(state[0]) << 32) | state[1];
}

std::string toHex(const Sha1Digest& digest) {
  static constexpr char kHex[] = "0123456789abcdef";
  std::string out;
  out.reserve(40);
  for (std::uint8_t byte : digest) {
    out.push_back(kHex[byte >> 4]);
    out.push_back(kHex[byte & 0x0f]);
  }
  return out;
}

std::uint64_t digestPrefix64(const Sha1Digest& digest) noexcept {
  std::uint64_t v = 0;
  for (std::size_t i = 0; i < 8; ++i) v = (v << 8) | digest[i];
  return v;
}

}  // namespace mlight::common
