#include "hash/superfast.hpp"

#include "common/rng.hpp"
#include "hash/lanes.hpp"

namespace concord::hash {

namespace {

using detail::load_le32;
using detail::U32x4;

std::uint32_t load_le16(const std::byte* p) noexcept {
  return std::uint32_t{std::to_integer<std::uint8_t>(p[0])} |
         (std::uint32_t{std::to_integer<std::uint8_t>(p[1])} << 8);
}

/// One buffer read as std::uint32_t words.
struct ScalarSource {
  const std::byte* p;
  std::uint32_t le32(std::size_t off) const noexcept { return load_le32(p + off); }
  std::uint32_t le16(std::size_t off) const noexcept { return load_le16(p + off); }
  std::uint32_t byte(std::size_t off) const noexcept {
    return std::to_integer<std::uint8_t>(p[off]);
  }
};

/// Four equal-length buffers read as U32x4 words, one buffer per lane.
struct QuadSource {
  const std::byte* const* p;
  U32x4 le32(std::size_t off) const noexcept { return detail::load_le32x4(p, off); }
  U32x4 le16(std::size_t off) const noexcept {
    return U32x4{load_le16(p[0] + off), load_le16(p[1] + off), load_le16(p[2] + off),
                 load_le16(p[3] + off)};
  }
  U32x4 byte(std::size_t off) const noexcept {
    return U32x4{ScalarSource{p[0]}.byte(off), ScalarSource{p[1]}.byte(off),
                 ScalarSource{p[2]}.byte(off), ScalarSource{p[3]}.byte(off)};
  }
};

/// SuperFastHash over `len` bytes of `src`, advancing every running hash in
/// `h` (one per seed) with the same data in one sweep. Each h[k] must start
/// at seed_k ^ len.
template <typename W, std::size_t N, typename Source>
[[gnu::always_inline]] inline void superfast_sweep(W (&h)[N], std::size_t len,
                                                   const Source& src) noexcept {
  std::size_t off = 0;
  for (; len - off >= 4; off += 4) {
    const W w = src.le32(off);
    const W lo = w & 0xffffu;
    const W hi = w >> 16;
    for (W& x : h) {
      x += lo;
      const W tmp = (hi << 11) ^ x;
      x = (x << 16) ^ tmp;
      x += x >> 11;
    }
  }

  switch (len - off) {
    case 3: {
      const W w = src.le16(off);
      const W last = src.byte(off + 2) << 18;
      for (W& x : h) {
        x += w;
        x ^= x << 16;
        x ^= last;
        x += x >> 11;
      }
      break;
    }
    case 2: {
      const W w = src.le16(off);
      for (W& x : h) {
        x += w;
        x ^= x << 11;
        x += x >> 17;
      }
      break;
    }
    case 1: {
      const W w = src.byte(off);
      for (W& x : h) {
        x += w;
        x ^= x << 10;
        x += x >> 1;
      }
      break;
    }
    default:
      break;
  }

  for (W& x : h) {
    x ^= x << 3;
    x += x >> 5;
    x ^= x << 4;
    x += x >> 17;
    x ^= x << 25;
    x += x >> 6;
  }
}

// Two independently seeded passes give 64 bits of real entropy; the low
// word is derived by mixing. This keeps the cheap hasher genuinely cheap
// (the whole point of §5.2's SuperHash option) at the cost of a larger
// collision probability than MD5 — acceptable for a best-effort content
// name, exactly the paper's trade.
constexpr std::uint32_t kSeeds[2] = {0x00000000u, 0x9e3779b9u};

ContentHash fold_seeds(std::uint32_t a, std::uint32_t b, std::size_t len) noexcept {
  const std::uint64_t hi = (std::uint64_t{a} << 32) | b;
  std::uint64_t mix = hi ^ (0x9e3779b97f4a7c15ULL * (len + 1));
  return ContentHash{hi, splitmix64(mix)};
}

}  // namespace

std::uint32_t superfast32(std::span<const std::byte> data, std::uint32_t seed) noexcept {
  std::uint32_t h[1] = {seed ^ static_cast<std::uint32_t>(data.size())};
  superfast_sweep(h, data.size(), ScalarSource{data.data()});
  return h[0];
}

ContentHash superfast_content_hash(std::span<const std::byte> data) noexcept {
  const auto len32 = static_cast<std::uint32_t>(data.size());
  std::uint32_t h[2] = {kSeeds[0] ^ len32, kSeeds[1] ^ len32};
  superfast_sweep(h, data.size(), ScalarSource{data.data()});
  return fold_seeds(h[0], h[1], data.size());
}

void superfast_content_hash_x4(const std::byte* const (&blocks)[4], std::size_t len,
                               ContentHash (&out)[4]) noexcept {
  const auto len32 = static_cast<std::uint32_t>(len);
  U32x4 h[2] = {U32x4{} + (kSeeds[0] ^ len32), U32x4{} + (kSeeds[1] ^ len32)};
  superfast_sweep(h, len, QuadSource{blocks});
  for (std::size_t l = 0; l < 4; ++l) out[l] = fold_seeds(h[0][l], h[1][l], len);
}

}  // namespace concord::hash
