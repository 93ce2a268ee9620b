#include "common/sha1.h"

#include <gtest/gtest.h>

#include <string>

namespace mlight::common {
namespace {

// FIPS 180-1 / RFC 3174 reference vectors.
TEST(Sha1, EmptyString) {
  EXPECT_EQ(toHex(sha1("")), "da39a3ee5e6b4b0d3255bfef95601890afd80709");
}

TEST(Sha1, Abc) {
  EXPECT_EQ(toHex(sha1("abc")), "a9993e364706816aba3e25717850c26c9cd0d89d");
}

TEST(Sha1, TwoBlockMessage) {
  EXPECT_EQ(
      toHex(sha1("abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq")),
      "84983e441c3bd26ebaae4aa1f95129e5e54670f1");
}

TEST(Sha1, MillionAs) {
  Sha1 h;
  const std::string chunk(1000, 'a');
  for (int i = 0; i < 1000; ++i) h.update(chunk);
  EXPECT_EQ(toHex(h.finish()),
            "34aa973cd4c4daa4f61eeb2bdbad27316534016f");
}

TEST(Sha1, QuickBrownFox) {
  EXPECT_EQ(toHex(sha1("The quick brown fox jumps over the lazy dog")),
            "2fd4e1c67a2d28fced849ee1bb76e7391b93eb12");
}

TEST(Sha1, IncrementalMatchesOneShot) {
  const std::string msg =
      "m-LIGHT: Indexing Multi-Dimensional Data over DHTs";
  Sha1 h;
  for (char c : msg) h.update(std::string_view(&c, 1));
  EXPECT_EQ(h.finish(), sha1(msg));
}

TEST(Sha1, UpdateSplitAtEveryOffsetMatches) {
  const std::string msg(150, 'x');
  const Sha1Digest want = sha1(msg);
  for (std::size_t cut = 0; cut <= msg.size(); cut += 13) {
    Sha1 h;
    h.update(std::string_view(msg).substr(0, cut));
    h.update(std::string_view(msg).substr(cut));
    EXPECT_EQ(h.finish(), want) << "cut=" << cut;
  }
}

TEST(Sha1, OneBlockMatchesStreaming) {
  // sha1() and sha1Prefix64() take a one-compression path up to 55 bytes
  // and stream beyond; both must equal a byte-at-a-time streaming hash
  // on either side of every padding boundary (55/56 and 63/64 included).
  for (std::size_t n = 0; n <= 130; ++n) {
    std::string msg(n, '\0');
    for (std::size_t i = 0; i < n; ++i) {
      msg[i] = static_cast<char>((i * 131 + n * 7 + 1) & 0xff);
    }
    Sha1 streaming;
    for (const char c : msg) streaming.update(std::string_view(&c, 1));
    const Sha1Digest want = streaming.finish();
    EXPECT_EQ(sha1(msg), want) << "n=" << n;
    EXPECT_EQ(sha1Prefix64(msg), digestPrefix64(want)) << "n=" << n;
  }
}

TEST(Sha1, BoundaryLengthsAroundBlockSize) {
  // Padding edge cases: 55/56/63/64/65 bytes exercise the length-field
  // placement paths.
  for (std::size_t n : {55u, 56u, 63u, 64u, 65u, 119u, 127u, 128u}) {
    const std::string msg(n, 'q');
    Sha1 a;
    a.update(msg);
    const Sha1Digest incr = a.finish();
    EXPECT_EQ(incr, sha1(msg)) << n;
    // Sanity: distinct lengths hash differently.
    EXPECT_NE(toHex(incr), toHex(sha1(std::string(n + 1, 'q'))));
  }
}

TEST(Sha1, DigestPrefix64IsBigEndianHead) {
  const Sha1Digest d = sha1("abc");
  // a9993e364706816a...
  EXPECT_EQ(digestPrefix64(d), 0xa9993e364706816aull);
}

TEST(Sha1, ResetAllowsReuse) {
  Sha1 h;
  h.update("garbage");
  (void)h.finish();
  h.reset();
  h.update("abc");
  EXPECT_EQ(toHex(h.finish()), "a9993e364706816aba3e25717850c26c9cd0d89d");
}

}  // namespace
}  // namespace mlight::common
