#include "hash/md5.hpp"

#include <algorithm>
#include <cstring>
#include <utility>

#include "hash/lanes.hpp"

namespace concord::hash {

namespace {

using detail::kLanesOf;
using detail::load_le32;
using detail::rotl;

// Per-step shift amounts (RFC 1321 §3.4).
constexpr int kShift[64] = {
    7, 12, 17, 22, 7, 12, 17, 22, 7, 12, 17, 22, 7, 12, 17, 22,
    5, 9,  14, 20, 5, 9,  14, 20, 5, 9,  14, 20, 5, 9,  14, 20,
    4, 11, 16, 23, 4, 11, 16, 23, 4, 11, 16, 23, 4, 11, 16, 23,
    6, 10, 15, 21, 6, 10, 15, 21, 6, 10, 15, 21, 6, 10, 15, 21};

// K[i] = floor(2^32 * abs(sin(i+1))).
constexpr std::uint32_t kSine[64] = {
    0xd76aa478, 0xe8c7b756, 0x242070db, 0xc1bdceee, 0xf57c0faf, 0x4787c62a,
    0xa8304613, 0xfd469501, 0x698098d8, 0x8b44f7af, 0xffff5bb1, 0x895cd7be,
    0x6b901122, 0xfd987193, 0xa679438e, 0x49b40821, 0xf61e2562, 0xc040b340,
    0x265e5a51, 0xe9b6c7aa, 0xd62f105d, 0x02441453, 0xd8a1e681, 0xe7d3fbc8,
    0x21e1cde6, 0xc33707d6, 0xf4d50d87, 0x455a14ed, 0xa9e3e905, 0xfcefa3f8,
    0x676f02d9, 0x8d2a4c8a, 0xfffa3942, 0x8771f681, 0x6d9d6122, 0xfde5380c,
    0xa4beea44, 0x4bdecfa9, 0xf6bb4b60, 0xbebfbc70, 0x289b7ec6, 0xeaa127fa,
    0xd4ef3085, 0x04881d05, 0xd9d4d039, 0xe6db99e5, 0x1fa27cf8, 0xc4ac5665,
    0xf4292244, 0x432aff97, 0xab9423a7, 0xfc93a039, 0x655b59c3, 0x8f0ccc92,
    0xffeff47d, 0x85845dd1, 0x6fa87e4f, 0xfe2ce6e0, 0xa3014314, 0x4e0811a1,
    0xf7537e82, 0xbd3af235, 0x2ad7d2bb, 0xeb86d391};

constexpr std::uint32_t kInit[4] = {0x67452301, 0xefcdab89, 0x98badcfe, 0x10325476};

/// Message word consumed by step `i`.
constexpr std::size_t message_index(std::size_t i) {
  if (i < 16) return i;
  if (i < 32) return (5 * i + 1) & 15;
  if (i < 48) return (3 * i + 5) & 15;
  return (7 * i) & 15;
}

/// Step I of 64. The state words trade roles every step instead of being
/// shuffled: step I's (a, b, c, d) are v[-I], v[1-I], v[2-I], v[3-I] mod 4,
/// and it overwrites only its `a`.
template <std::size_t I, typename W>
[[gnu::always_inline]] inline void md5_step(W (&v)[4], const W (&m)[16]) noexcept {
  W& a = v[(4 - I % 4) % 4];
  const W b = v[(5 - I % 4) % 4];
  const W c = v[(6 - I % 4) % 4];
  const W d = v[(7 - I % 4) % 4];
  W f{};
  if constexpr (I < 16) {
    f = d ^ (b & (c ^ d));  // (b & c) | (~b & d)
  } else if constexpr (I < 32) {
    f = c ^ (d & (b ^ c));  // (d & b) | (~d & c)
  } else if constexpr (I < 48) {
    f = b ^ c ^ d;
  } else {
    f = c ^ (b | ~d);
  }
  W t = a + f + kSine[I] + m[message_index(I)];
  rotl<kShift[I]>(t);
  a = b + t;
}

template <typename W, std::size_t... I>
[[gnu::always_inline]] inline void md5_steps(W (&v)[4], const W (&m)[16],
                                             std::index_sequence<I...>) noexcept {
  (md5_step<I>(v, m), ...);
}

/// The MD5 compression function over one 64-byte chunk per lane of W.
template <typename W>
[[gnu::always_inline]] inline void md5_compress(W (&state)[4], const W (&m)[16]) noexcept {
  W v[4] = {state[0], state[1], state[2], state[3]};
  md5_steps(v, m, std::make_index_sequence<64>{});
  for (std::size_t r = 0; r < 4; ++r) state[r] += v[r];
}

/// Digest bytes are the state words little-endian; ContentHash reads them
/// big-endian (byte 0 is the top byte of `hi`). Always inlined: an
/// out-of-line call from the AVX kernels led GCC at -O2 to return from them
/// without a vzeroupper, leaving the upper vector state dirty for the
/// caller's SSE code.
[[gnu::always_inline]] inline ContentHash fold_state(const std::uint32_t (&s)[4]) noexcept {
  ContentHash h;
  for (std::size_t r = 0; r < 4; ++r) {
    std::uint64_t& half = r < 2 ? h.hi : h.lo;
    for (int i = 0; i < 4; ++i) half = (half << 8) | ((s[r] >> (8 * i)) & 0xff);
  }
  return h;
}

/// Md5::content_hash() of kLanesOf<W> buffers of `len` bytes each, one
/// buffer per lane of W, in one lockstep pass.
template <typename W>
[[gnu::always_inline]] inline void content_hash_lanes(const std::byte* const* blocks,
                                                      std::size_t len,
                                                      ContentHash* out) noexcept {
  constexpr std::size_t kN = kLanesOf<W>;
  W state[4] = {W{} + kInit[0], W{} + kInit[1], W{} + kInit[2], W{} + kInit[3]};
  W m[16] = {};

  std::size_t off = 0;
  for (; len - off >= 64; off += 64) {
    for (std::size_t i = 0; i < 16; ++i) load_le32(m[i], blocks, off + 4 * i);
    md5_compress(state, m);
  }

  // Padding (RFC 1321 §3.1-3.2): the tail, 0x80, zeros and the 64-bit
  // little-endian bit length, in one chunk if the tail leaves room for the
  // length and in two otherwise. Equal lengths give every lane the same shape.
  const std::size_t rem = len - off;
  const std::size_t tail_len = rem < 56 ? 64 : 128;
  const std::uint64_t bit_len = std::uint64_t{len} * 8;
  std::byte tail[kN][128] = {};
  const std::byte* lanes[kN];
  for (std::size_t l = 0; l < kN; ++l) {
    lanes[l] = tail[l];
    if (rem != 0) std::memcpy(tail[l], blocks[l] + off, rem);
    tail[l][rem] = std::byte{0x80};
    for (std::size_t i = 0; i < 8; ++i) {
      tail[l][tail_len - 8 + i] = static_cast<std::byte>(bit_len >> (8 * i));
    }
  }
  for (std::size_t t = 0; t < tail_len; t += 64) {
    for (std::size_t i = 0; i < 16; ++i) load_le32(m[i], lanes, t + 4 * i);
    md5_compress(state, m);
  }

  for (std::size_t l = 0; l < kN; ++l) {
    out[l] = fold_state({state[0][l], state[1][l], state[2][l], state[3][l]});
  }
}

}  // namespace

void Md5::reset() noexcept {
  std::memcpy(state_, kInit, sizeof(state_));
  total_len_ = 0;
  buf_len_ = 0;
}

void Md5::process_block(const std::byte* block) noexcept {
  std::uint32_t m[16] = {};
  for (std::size_t i = 0; i < 16; ++i) m[i] = load_le32(block + 4 * i);
  md5_compress(state_, m);
}

void Md5::update(std::span<const std::byte> data) noexcept {
  const std::byte* p = data.data();
  std::size_t n = data.size();
  total_len_ += n;

  if (buf_len_ != 0) {
    const std::size_t take = std::min(n, buf_.size() - buf_len_);
    std::memcpy(buf_.data() + buf_len_, p, take);
    buf_len_ += take;
    p += take;
    n -= take;
    if (buf_len_ == buf_.size()) {
      process_block(buf_.data());
      buf_len_ = 0;
    }
  }
  while (n >= 64) {
    process_block(p);
    p += 64;
    n -= 64;
  }
  if (n != 0) {
    std::memcpy(buf_.data(), p, n);
    buf_len_ = n;
  }
}

std::array<std::uint8_t, 16> Md5::final_digest() noexcept {
  const std::uint64_t bit_len = total_len_ * 8;

  // Pad: 0x80, zeros, then the 64-bit little-endian bit length.
  static constexpr std::byte kPad[64] = {std::byte{0x80}};
  const std::size_t pad_len =
      (buf_len_ < 56) ? (56 - buf_len_) : (120 - buf_len_);
  update(std::span<const std::byte>(kPad, pad_len));

  std::uint8_t len_le[8];
  for (int i = 0; i < 8; ++i) len_le[i] = static_cast<std::uint8_t>(bit_len >> (8 * i));
  update(std::as_bytes(std::span<const std::uint8_t>(len_le, 8)));

  std::array<std::uint8_t, 16> out;
  for (std::size_t r = 0; r < 4; ++r) {
    for (std::size_t i = 0; i < 4; ++i) {
      out[4 * r + i] = static_cast<std::uint8_t>(state_[r] >> (8 * i));
    }
  }
  return out;
}

std::array<std::uint8_t, 16> Md5::digest(std::span<const std::byte> data) noexcept {
  Md5 md5;
  md5.update(data);
  return md5.final_digest();
}

ContentHash Md5::content_hash(std::span<const std::byte> data) noexcept {
  Md5 md5;
  md5.update(data);
  (void)md5.final_digest();
  return fold_state(md5.state_);
}

namespace detail {

void md5_x4(const std::byte* const* blocks, std::size_t len, ContentHash* out) noexcept {
  content_hash_lanes<U32x4>(blocks, len, out);
}

#if defined(__x86_64__)
[[gnu::target("avx2")]] void md5_x8(const std::byte* const* blocks, std::size_t len,
                                    ContentHash* out) noexcept {
  content_hash_lanes<U32x8>(blocks, len, out);
}

[[gnu::target("avx512f")]] void md5_x16(const std::byte* const* blocks, std::size_t len,
                                        ContentHash* out) noexcept {
  content_hash_lanes<U32x16>(blocks, len, out);
}
#endif

}  // namespace detail

}  // namespace concord::hash
