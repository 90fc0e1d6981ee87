#include "hash/superfast.hpp"

#include "common/rng.hpp"
#include "hash/lanes.hpp"

namespace concord::hash {

namespace {

using detail::kLanesOf;

std::uint32_t load_le16(const std::byte* p) noexcept {
  return std::uint32_t{std::to_integer<std::uint8_t>(p[0])} |
         (std::uint32_t{std::to_integer<std::uint8_t>(p[1])} << 8);
}

/// kLanesOf<W> equal-length buffers, one per lane, read as W words;
/// W = std::uint32_t reads one buffer.
template <typename W>
struct LaneSource {
  const std::byte* const* p;
  [[gnu::always_inline]] void le32(W& w, std::size_t off) const noexcept {
    detail::load_le32(w, p, off);
  }
  [[gnu::always_inline]] void le16(W& w, std::size_t off) const noexcept {
    detail::load_lanes(w, p, [off](const std::byte* q) { return load_le16(q + off); });
  }
  [[gnu::always_inline]] void byte(W& w, std::size_t off) const noexcept {
    detail::load_lanes(w, p, [off](const std::byte* q) {
      return std::uint32_t{std::to_integer<std::uint8_t>(q[off])};
    });
  }
};

/// SuperFastHash over `len` bytes of `src`, advancing every running hash in
/// `h` (one per seed) with the same data in one sweep. Each h[k] must start
/// at seed_k ^ len.
template <typename W, std::size_t N>
[[gnu::always_inline]] inline void superfast_sweep(W (&h)[N], std::size_t len,
                                                   const LaneSource<W>& src) noexcept {
  std::size_t off = 0;
  for (; len - off >= 4; off += 4) {
    W w;
    src.le32(w, off);
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
      W w;
      src.le16(w, off);
      W last;
      src.byte(last, off + 2);
      last <<= 18;
      for (W& x : h) {
        x += w;
        x ^= x << 16;
        x ^= last;
        x += x >> 11;
      }
      break;
    }
    case 2: {
      W w;
      src.le16(w, off);
      for (W& x : h) {
        x += w;
        x ^= x << 11;
        x += x >> 17;
      }
      break;
    }
    case 1: {
      W w;
      src.byte(w, off);
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

/// superfast_content_hash() of kLanesOf<W> buffers of `len` bytes each: the
/// blocks times the two seeds ride one lockstep sweep.
template <typename W>
[[gnu::always_inline]] inline void content_hash_lanes(const std::byte* const* blocks,
                                                      std::size_t len,
                                                      ContentHash* out) noexcept {
  const auto len32 = static_cast<std::uint32_t>(len);
  W h[2] = {W{} + (kSeeds[0] ^ len32), W{} + (kSeeds[1] ^ len32)};
  superfast_sweep(h, len, LaneSource<W>{blocks});
  for (std::size_t l = 0; l < kLanesOf<W>; ++l) out[l] = fold_seeds(h[0][l], h[1][l], len);
}

}  // namespace

std::uint32_t superfast32(std::span<const std::byte> data, std::uint32_t seed) noexcept {
  const std::byte* const p[1] = {data.data()};
  std::uint32_t h[1] = {seed ^ static_cast<std::uint32_t>(data.size())};
  superfast_sweep(h, data.size(), LaneSource<std::uint32_t>{p});
  return h[0];
}

ContentHash superfast_content_hash(std::span<const std::byte> data) noexcept {
  const std::byte* const p[1] = {data.data()};
  const auto len32 = static_cast<std::uint32_t>(data.size());
  std::uint32_t h[2] = {kSeeds[0] ^ len32, kSeeds[1] ^ len32};
  superfast_sweep(h, data.size(), LaneSource<std::uint32_t>{p});
  return fold_seeds(h[0], h[1], data.size());
}

namespace detail {

void superfast_x4(const std::byte* const* blocks, std::size_t len, ContentHash* out) noexcept {
  content_hash_lanes<U32x4>(blocks, len, out);
}

#if defined(__x86_64__)
[[gnu::target("avx2")]] void superfast_x8(const std::byte* const* blocks, std::size_t len,
                                          ContentHash* out) noexcept {
  content_hash_lanes<U32x8>(blocks, len, out);
}

[[gnu::target("avx512f")]] void superfast_x16(const std::byte* const* blocks, std::size_t len,
                                              ContentHash* out) noexcept {
  content_hash_lanes<U32x16>(blocks, len, out);
}
#endif

}  // namespace detail

}  // namespace concord::hash
