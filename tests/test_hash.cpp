// Unit tests for src/hash: MD5 against the RFC 1321 vectors, SuperFastHash
// behaviour, and the BlockHasher facade, including hash_many() and every
// vector tier of batch_kernels() against the single-block path.
#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <string_view>
#include <unordered_set>
#include <vector>

#include "common/rng.hpp"
#include "hash/block_hasher.hpp"
#include "hash/md5.hpp"
#include "hash/superfast.hpp"

namespace concord::hash {
namespace {

std::string hex(const std::array<std::uint8_t, 16>& d) {
  static constexpr char kHex[] = "0123456789abcdef";
  std::string out;
  for (const std::uint8_t b : d) {
    out.push_back(kHex[b >> 4]);
    out.push_back(kHex[b & 0xf]);
  }
  return out;
}

std::span<const std::byte> bytes(const std::string& s) {
  return {reinterpret_cast<const std::byte*>(s.data()), s.size()};
}

// The complete RFC 1321 appendix A.5 test suite.
struct Rfc1321Case {
  const char* input;
  const char* digest;
};

class Md5Rfc : public ::testing::TestWithParam<Rfc1321Case> {};

TEST_P(Md5Rfc, MatchesReferenceDigest) {
  const auto& [input, want] = GetParam();
  const std::string s(input);
  EXPECT_EQ(hex(Md5::digest(bytes(s))), want);
}

INSTANTIATE_TEST_SUITE_P(
    Rfc1321, Md5Rfc,
    ::testing::Values(
        Rfc1321Case{"", "d41d8cd98f00b204e9800998ecf8427e"},
        Rfc1321Case{"a", "0cc175b9c0f1b6a831c399e269772661"},
        Rfc1321Case{"abc", "900150983cd24fb0d6963f7d28e17f72"},
        Rfc1321Case{"message digest", "f96b697d7cb7938d525a2f31aaf161d0"},
        Rfc1321Case{"abcdefghijklmnopqrstuvwxyz", "c3fcd3d76192e4007dfb496cca67e13b"},
        Rfc1321Case{"ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789",
                    "d174ab98d277d9f5a5611c2c9f419d9f"},
        Rfc1321Case{"1234567890123456789012345678901234567890123456789012345678901234567890123456"
                    "7890",
                    "57edf4a22be3c955ac49da2e2107b67a"}));

TEST(Md5, IncrementalEqualsOneShotAtAllSplitPoints) {
  // Feeding the same bytes in two chunks must give the same digest no matter
  // where the split falls relative to the 64-byte block boundary.
  std::string data(300, '\0');
  Rng rng(11);
  for (auto& c : data) c = static_cast<char>(rng() & 0xff);
  const auto want = Md5::digest(bytes(data));

  for (std::size_t split : {std::size_t{0}, std::size_t{1}, std::size_t{63}, std::size_t{64},
                            std::size_t{65}, std::size_t{128}, std::size_t{299}}) {
    Md5 md5;
    md5.update(bytes(data).subspan(0, split));
    md5.update(bytes(data).subspan(split));
    EXPECT_EQ(md5.final_digest(), want) << "split=" << split;
  }
}

TEST(Md5, ContentHashUsesFullDigestBigEndian) {
  const ContentHash h = Md5::content_hash(bytes(std::string("abc")));
  EXPECT_EQ(h.to_string(), "900150983cd24fb0d6963f7d28e17f72");
}

TEST(Md5, DistinctInputsDistinctHashes) {
  std::unordered_set<ContentHash> seen;
  std::vector<std::byte> page(4096, std::byte{0});
  for (std::uint32_t i = 0; i < 500; ++i) {
    std::memcpy(page.data(), &i, sizeof(i));
    seen.insert(Md5::content_hash(page));
  }
  EXPECT_EQ(seen.size(), 500u);
}

TEST(SuperFast, DeterministicAndSeedSensitive) {
  const std::string s = "hello superfast";
  EXPECT_EQ(superfast32(bytes(s)), superfast32(bytes(s)));
  EXPECT_NE(superfast32(bytes(s), 1), superfast32(bytes(s), 2));
}

TEST(SuperFast, TailLengthsAllCovered) {
  // Lengths 0..7 exercise every switch arm.
  for (std::size_t len = 0; len < 8; ++len) {
    const std::string s(len, 'x');
    const std::string t = s + "y";
    if (len > 0) {
      EXPECT_NE(superfast32(bytes(s)), superfast32(bytes(s.substr(0, len - 1))));
    }
    EXPECT_NE(superfast32(bytes(s)), superfast32(bytes(t)));
  }
}

TEST(SuperFast, PinnedContentHashes) {
  // Known answers from the original byte-at-a-time implementation: the
  // template rewrite (scalar and four-lane) must keep every content name.
  // The prefixes cover every tail length; the page covers the 4-byte loop.
  struct Case {
    std::size_t len;
    const char* want;
  };
  const std::string fox = "The quick brown fox jumps over the lazy dog";
  const Case cases[] = {{0, "0000000003a7409406474838f87619ca"},
                        {1, "70a549c3b62f058ca1c251f1ad3da829"},
                        {2, "b0adfd9f194aa8016712bfa77dfc8fac"},
                        {3, "4cc3bc0e2ea0ad9fe9aaeaedd5d19ef9"},
                        {4, "00f85410e7017204b7c8f028d6a9b684"},
                        {5, "9c82f6a7e5d7437e2ff40793d3994770"},
                        {6, "7d4b1f13d6d568fe6b2f329125df1c22"},
                        {7, "39d667750e6e83d5fa42bf26a5a3221b"},
                        {43, "05bf7ce309798cd7a22b98275edf0719"}};
  const BlockHasher sf(Algorithm::kSuperFast);
  for (const auto& [len, want] : cases) {
    const auto data = bytes(fox).subspan(0, len);
    EXPECT_EQ(superfast_content_hash(data).to_string(), want) << "len " << len;
    const std::vector<std::span<const std::byte>> four(4, data);
    std::vector<ContentHash> out(4);
    sf.hash_many(four, out);
    EXPECT_EQ(out[3].to_string(), want) << "len " << len;
  }
  std::vector<std::byte> page(4096);
  for (std::size_t i = 0; i < page.size(); ++i) page[i] = static_cast<std::byte>(i * 7 + 3);
  EXPECT_EQ(superfast32(page), 0x9ff0d098u);
  EXPECT_EQ(superfast_content_hash(page).to_string(), "9ff0d09847f3945a162ec8627f2c852a");
}

TEST(SuperFast, ContentHashHasNoTrivialCollisions) {
  std::unordered_set<ContentHash> seen;
  std::vector<std::byte> page(4096, std::byte{0});
  for (std::uint32_t i = 0; i < 2000; ++i) {
    std::memcpy(page.data() + 100, &i, sizeof(i));
    seen.insert(superfast_content_hash(page));
  }
  EXPECT_EQ(seen.size(), 2000u);
}

TEST(Fnv1a, MatchesKnownVector) {
  // FNV-1a("a") = 0xaf63dc4c8601ec8c
  const std::string s = "a";
  EXPECT_EQ(fnv1a64(bytes(s)), 0xaf63dc4c8601ec8cULL);
}

TEST(BlockHasher, AlgorithmsDiffer) {
  std::vector<std::byte> page(4096, std::byte{7});
  const BlockHasher md5(Algorithm::kMd5);
  const BlockHasher sf(Algorithm::kSuperFast);
  EXPECT_NE(md5(page), sf(page));
  EXPECT_EQ(md5(page), Md5::content_hash(page));
  EXPECT_EQ(sf(page), superfast_content_hash(page));
}

TEST(BlockHasher, EqualContentEqualHash) {
  std::vector<std::byte> a(4096, std::byte{1});
  std::vector<std::byte> b(4096, std::byte{1});
  for (const Algorithm algo : {Algorithm::kMd5, Algorithm::kSuperFast}) {
    const BlockHasher h(algo);
    EXPECT_EQ(h(a), h(b)) << to_string(algo);
    b[100] = std::byte{2};
    EXPECT_NE(h(a), h(b)) << to_string(algo);
    b[100] = std::byte{1};
  }
}


// ----------------------------------------------------- BlockHasher::hash_many

constexpr Algorithm kAlgorithms[] = {Algorithm::kMd5, Algorithm::kSuperFast};

std::vector<std::byte> random_bytes(std::size_t n, std::uint64_t seed) {
  std::vector<std::byte> out(n);
  Rng rng(seed);
  for (auto& b : out) b = static_cast<std::byte>(rng() & 0xff);
  return out;
}

/// hash_many over `blocks` must equal operator() on each block.
void expect_many_matches_single(const BlockHasher& h,
                                const std::vector<std::span<const std::byte>>& blocks,
                                const std::string& what) {
  std::vector<ContentHash> out(blocks.size());
  h.hash_many(blocks, out);
  for (std::size_t i = 0; i < blocks.size(); ++i) {
    EXPECT_EQ(out[i], h(blocks[i]))
        << to_string(h.algorithm()) << " " << what << " block " << i;
  }
}

TEST(HashMany, EveryLengthMatchesSingleBlock) {
  // 0-300 crosses the 55/56/63/64-byte padding boundaries of MD5 several
  // times and every SuperFastHash tail length; 4096 is the page size.
  std::vector<std::size_t> lengths;
  for (std::size_t len = 0; len <= 300; ++len) lengths.push_back(len);
  lengths.push_back(4096);
  const std::vector<std::byte> pool = random_bytes(4 * 4096, 21);
  for (const Algorithm algo : kAlgorithms) {
    const BlockHasher h(algo);
    for (const std::size_t len : lengths) {
      std::vector<std::span<const std::byte>> blocks;
      for (std::size_t l = 0; l < 4; ++l) blocks.emplace_back(pool.data() + l * 4096, len);
      expect_many_matches_single(h, blocks, "len " + std::to_string(len));
    }
  }
}

TEST(HashMany, EveryBatchSizeUpToNine) {
  const std::vector<std::byte> pool = random_bytes(9 * 4096, 22);
  for (const Algorithm algo : kAlgorithms) {
    const BlockHasher h(algo);
    for (std::size_t n = 0; n <= 9; ++n) {
      std::vector<std::span<const std::byte>> blocks;
      for (std::size_t i = 0; i < n; ++i) blocks.emplace_back(pool.data() + i * 4096, 4096);
      expect_many_matches_single(h, blocks, "batch " + std::to_string(n));
    }
  }
}

TEST(HashMany, MixedLengthBatch) {
  // Groups of four with unequal lengths (the odd one out in lane 3, 1 and
  // 2) split into shorter runs, which take the single-block path; the
  // equal-length group still takes the four-lane kernel.
  const std::vector<std::byte> pool = random_bytes(17 * 4096, 23);
  const std::size_t lengths[] = {4096, 4096, 4096, 100, 64, 64, 64, 64, 56,
                                 55,   56,   56,   7,   7,  9,  7,  3};
  for (const Algorithm algo : kAlgorithms) {
    const BlockHasher h(algo);
    std::vector<std::span<const std::byte>> blocks;
    for (std::size_t i = 0; i < std::size(lengths); ++i) {
      blocks.emplace_back(pool.data() + i * 4096, lengths[i]);
    }
    expect_many_matches_single(h, blocks, "mixed");
  }
}

TEST(HashMany, FourLanesWithDistinctContent) {
  // Lanes differing only in one byte, and identical lanes, stay apart or
  // together exactly as the single-block path says.
  std::vector<std::vector<std::byte>> pages(4, std::vector<std::byte>(4096, std::byte{9}));
  pages[1][0] = std::byte{1};
  pages[2][4095] = std::byte{1};
  for (const Algorithm algo : kAlgorithms) {
    const BlockHasher h(algo);
    const std::vector<std::span<const std::byte>> blocks(pages.begin(), pages.end());
    std::vector<ContentHash> out(4);
    h.hash_many(blocks, out);
    expect_many_matches_single(h, blocks, "distinct");
    EXPECT_NE(out[0], out[1]) << to_string(algo);
    EXPECT_NE(out[0], out[2]) << to_string(algo);
    EXPECT_NE(out[1], out[2]) << to_string(algo);
    EXPECT_EQ(out[0], out[3]) << to_string(algo);
  }
}

TEST(HashMany, UnalignedBasePointer) {
  const std::vector<std::byte> pool = random_bytes(4 * 4096 + 16, 24);
  for (const Algorithm algo : kAlgorithms) {
    const BlockHasher h(algo);
    for (const std::size_t shift : {std::size_t{1}, std::size_t{3}, std::size_t{7}}) {
      std::vector<std::span<const std::byte>> blocks;
      for (std::size_t l = 0; l < 4; ++l) {
        blocks.emplace_back(pool.data() + shift + l * 4097, 4093);
      }
      expect_many_matches_single(h, blocks, "shift " + std::to_string(shift));
    }
  }
}

TEST(HashMany, Rfc1321VectorsInEveryLane) {
  // Each reference input sits in one lane next to three random buffers of
  // the same length, so the four-lane kernel computes its digest.
  const Rfc1321Case cases[] = {
      {"", "d41d8cd98f00b204e9800998ecf8427e"},
      {"a", "0cc175b9c0f1b6a831c399e269772661"},
      {"abc", "900150983cd24fb0d6963f7d28e17f72"},
      {"message digest", "f96b697d7cb7938d525a2f31aaf161d0"},
      {"abcdefghijklmnopqrstuvwxyz", "c3fcd3d76192e4007dfb496cca67e13b"},
      {"ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789",
       "d174ab98d277d9f5a5611c2c9f419d9f"},
      {"1234567890123456789012345678901234567890123456789012345678901234567890123456"
       "7890",
       "57edf4a22be3c955ac49da2e2107b67a"}};
  const BlockHasher md5(Algorithm::kMd5);
  const std::vector<std::byte> filler = random_bytes(3 * 128, 25);
  for (const auto& [input, want] : cases) {
    const std::string s(input);
    for (std::size_t lane = 0; lane < 4; ++lane) {
      std::vector<std::span<const std::byte>> blocks;
      for (std::size_t l = 0, f = 0; l < 4; ++l) {
        blocks.push_back(l == lane ? bytes(s) : std::span(filler).subspan(128 * f++, s.size()));
      }
      std::vector<ContentHash> out(4);
      md5.hash_many(blocks, out);
      EXPECT_EQ(out[lane].to_string(), want) << "input \"" << s << "\" lane " << lane;
    }
  }
}


// ------------------------------------------------------------ batch_kernels

/// Tier `t`'s kernel over t.lanes buffers of `len` bytes at `bases` must
/// equal the single-block path on each; returns the kernel's digests.
std::vector<ContentHash> expect_tier_matches_single(const BatchKernel& t, Algorithm algo,
                                                    const std::vector<const std::byte*>& bases,
                                                    std::size_t len, const std::string& what) {
  EXPECT_EQ(bases.size(), t.lanes);
  std::vector<ContentHash> out(t.lanes);
  (algo == Algorithm::kMd5 ? t.md5 : t.superfast)(bases.data(), len, out.data());
  const BlockHasher h(algo);
  for (std::size_t l = 0; l < t.lanes; ++l) {
    EXPECT_EQ(out[l], h({bases[l], len}))
        << t.isa << " " << to_string(algo) << " " << what << " lane " << l;
  }
  return out;
}

TEST(BatchKernels, BaselineFirstThenEveryTierTheCpuSupports) {
  const std::span<const BatchKernel> tiers = batch_kernels();
  ASSERT_FALSE(tiers.empty());
  EXPECT_EQ(tiers[0].isa, "baseline");
  EXPECT_EQ(tiers[0].lanes, 4u);
  std::vector<std::string_view> want = {"baseline"};
#if defined(__x86_64__)
  if (__builtin_cpu_supports("avx2")) want.push_back("avx2");
  if (__builtin_cpu_supports("avx512f")) want.push_back("avx512f");
#endif
  std::vector<std::string_view> got;
  for (std::size_t i = 0; i < tiers.size(); ++i) {
    got.push_back(tiers[i].isa);
    EXPECT_NE(tiers[i].md5, nullptr);
    EXPECT_NE(tiers[i].superfast, nullptr);
    EXPECT_LE(tiers[i].lanes, 16u);
    if (i > 0) {
      EXPECT_EQ(tiers[i].lanes, 2 * tiers[i - 1].lanes) << tiers[i].isa;
    }
  }
  EXPECT_EQ(got, want);
  EXPECT_EQ(batch_kernels().data(), tiers.data()) << "resolved once";
}

TEST(BatchKernels, EveryLengthMatchesSingleBlockInEveryTier) {
  std::vector<std::size_t> lengths;
  for (std::size_t len = 0; len <= 300; ++len) lengths.push_back(len);
  lengths.push_back(4096);
  const std::vector<std::byte> pool = random_bytes(16 * 4096, 31);
  for (const BatchKernel& t : batch_kernels()) {
    std::vector<const std::byte*> bases;
    for (std::size_t l = 0; l < t.lanes; ++l) bases.push_back(pool.data() + l * 4096);
    for (const Algorithm algo : kAlgorithms) {
      for (const std::size_t len : lengths) {
        expect_tier_matches_single(t, algo, bases, len, "len " + std::to_string(len));
      }
    }
  }
}

TEST(BatchKernels, UnalignedBasesInEveryTier) {
  const std::vector<std::byte> pool = random_bytes(16 * 4097 + 16, 32);
  for (const BatchKernel& t : batch_kernels()) {
    for (const std::size_t shift : {std::size_t{1}, std::size_t{3}, std::size_t{7}}) {
      std::vector<const std::byte*> bases;
      for (std::size_t l = 0; l < t.lanes; ++l) bases.push_back(pool.data() + shift + l * 4097);
      for (const Algorithm algo : kAlgorithms) {
        expect_tier_matches_single(t, algo, bases, 4093, "shift " + std::to_string(shift));
      }
    }
  }
}

TEST(BatchKernels, DistinctAndIdenticalLanesInEveryTier) {
  // Every lane differs from lane 0 in one byte except the last, which is a
  // separate copy of lane 0's content.
  for (const BatchKernel& t : batch_kernels()) {
    std::vector<std::vector<std::byte>> pages(t.lanes, std::vector<std::byte>(4096, std::byte{9}));
    for (std::size_t l = 1; l + 1 < t.lanes; ++l) pages[l][(l * 997) % 4096] = std::byte{1};
    std::vector<const std::byte*> bases;
    for (const auto& p : pages) bases.push_back(p.data());
    for (const Algorithm algo : kAlgorithms) {
      const std::vector<ContentHash> out =
          expect_tier_matches_single(t, algo, bases, 4096, "distinct");
      const std::unordered_set<ContentHash> distinct(out.begin(), out.end());
      EXPECT_EQ(distinct.size(), t.lanes - 1) << t.isa << " " << to_string(algo);
      EXPECT_EQ(out.front(), out.back()) << t.isa << " " << to_string(algo);
    }
  }
}

TEST(BatchKernels, Rfc1321VectorsInEveryLaneOfEveryTier) {
  const Rfc1321Case cases[] = {
      {"", "d41d8cd98f00b204e9800998ecf8427e"},
      {"a", "0cc175b9c0f1b6a831c399e269772661"},
      {"abc", "900150983cd24fb0d6963f7d28e17f72"},
      {"message digest", "f96b697d7cb7938d525a2f31aaf161d0"},
      {"abcdefghijklmnopqrstuvwxyz", "c3fcd3d76192e4007dfb496cca67e13b"},
      {"ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789",
       "d174ab98d277d9f5a5611c2c9f419d9f"},
      {"1234567890123456789012345678901234567890123456789012345678901234567890123456"
       "7890",
       "57edf4a22be3c955ac49da2e2107b67a"}};
  const std::vector<std::byte> filler = random_bytes(16 * 128, 33);
  for (const BatchKernel& t : batch_kernels()) {
    for (const auto& [input, want] : cases) {
      const std::string s(input);
      for (std::size_t lane = 0; lane < t.lanes; ++lane) {
        std::vector<const std::byte*> bases;
        for (std::size_t l = 0; l < t.lanes; ++l) {
          bases.push_back(l == lane ? bytes(s).data() : filler.data() + 128 * l);
        }
        std::vector<ContentHash> out(t.lanes);
        t.md5(bases.data(), s.size(), out.data());
        EXPECT_EQ(out[lane].to_string(), want)
            << t.isa << " input \"" << s << "\" lane " << lane;
      }
    }
  }
}

TEST(HashMany, EveryBatchSizeUpToTwiceTheWidestTierPlusFive) {
  const std::size_t max_n = 2 * batch_kernels().back().lanes + 5;
  const std::vector<std::byte> pool = random_bytes(max_n * 4096, 34);
  for (const Algorithm algo : kAlgorithms) {
    const BlockHasher h(algo);
    for (std::size_t n = 0; n <= max_n; ++n) {
      std::vector<std::span<const std::byte>> blocks;
      for (std::size_t i = 0; i < n; ++i) blocks.emplace_back(pool.data() + i * 4096, 4096);
      expect_many_matches_single(h, blocks, "batch " + std::to_string(n));
    }
  }
}

TEST(HashMany, OddBlockAtEveryLaneOfEveryTier) {
  // One group of `lanes` equal-length blocks per tier, with the block at
  // each position in turn given another length (shorter, longer, and the
  // empty block), followed by a full group: hash_many must split around
  // the odd one and still match the single-block path everywhere.
  const std::vector<std::byte> pool = random_bytes(32 * 4096, 35);
  for (const BatchKernel& t : batch_kernels()) {
    for (const std::size_t odd_len : {std::size_t{0}, std::size_t{100}, std::size_t{4095}}) {
      for (std::size_t odd = 0; odd < t.lanes; ++odd) {
        std::vector<std::span<const std::byte>> blocks;
        for (std::size_t i = 0; i < 2 * t.lanes; ++i) {
          blocks.emplace_back(pool.data() + i * 4096, i == odd ? odd_len : 1000);
        }
        for (const Algorithm algo : kAlgorithms) {
          expect_many_matches_single(BlockHasher(algo), blocks,
                                     std::string(t.isa) + " odd lane " + std::to_string(odd) +
                                         " len " + std::to_string(odd_len));
        }
      }
    }
  }
}

}  // namespace
}  // namespace concord::hash
