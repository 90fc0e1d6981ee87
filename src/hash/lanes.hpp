// Word types shared by the hash kernels.
//
// MD5 and SuperFastHash are each written once as templates over their word
// type and lane count. The scalar instantiation uses std::uint32_t; the
// multi-buffer ones use GCC/Clang generic vectors of 4, 8 or 16 32-bit lanes,
// each lane carrying one of that many independent, equal-length blocks through
// the same arithmetic in lockstep, so each lane computes exactly the scalar
// result. The 4-lane instance needs nothing beyond the baseline target (SSE2
// on x86-64, NEON on AArch64). On x86-64 the 8- and 16-lane instances are
// compiled with [[gnu::target("avx2")]] and [[gnu::target("avx512f")]], and
// batch_kernels() (block_hasher.hpp) picks the ones the CPU runs at run time.
// No intrinsics or build flags are involved.
//
// Helpers never pass or return a vector by value: a function that did would
// change its calling convention between the baseline and the AVX targets
// (GCC's -Wpsabi), so rotl() works in place and the loads write through W&.
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstring>

namespace concord::hash::detail {

typedef std::uint32_t U32x4 __attribute__((vector_size(16)));
typedef std::uint32_t U32x8 __attribute__((vector_size(32)));
typedef std::uint32_t U32x16 __attribute__((vector_size(64)));

/// Blocks carried by one pass of word type W (std::uint32_t: one).
template <typename W>
inline constexpr std::size_t kLanesOf = sizeof(W) / sizeof(std::uint32_t);

/// Lanes of the widest kernel; bounds the per-pass pointer arrays.
inline constexpr std::size_t kMaxLanes = kLanesOf<U32x16>;

/// Rotate x left by a compile-time count, in place; one definition for every
/// word type.
template <int S, typename W>
[[gnu::always_inline]] inline void rotl(W& x) noexcept {
  x = (x << S) | (x >> (32 - S));
}

[[gnu::always_inline]] inline std::uint32_t load_le32(const std::byte* p) noexcept {
  return std::uint32_t{std::to_integer<std::uint8_t>(p[0])} |
         (std::uint32_t{std::to_integer<std::uint8_t>(p[1])} << 8) |
         (std::uint32_t{std::to_integer<std::uint8_t>(p[2])} << 16) |
         (std::uint32_t{std::to_integer<std::uint8_t>(p[3])} << 24);
}

/// w[l] = read(lanes[l]) for each lane l of W; W = std::uint32_t is one lane.
template <typename W, typename Read>
[[gnu::always_inline]] inline void load_lanes(W& w, const std::byte* const* lanes,
                                              Read read) noexcept {
  std::uint32_t words[kLanesOf<W>];
  for (std::size_t l = 0; l < kLanesOf<W>; ++l) words[l] = read(lanes[l]);
  std::memcpy(&w, words, sizeof(w));
}

/// w[l] = the little-endian word at byte offset `off` of lanes[l].
template <typename W>
[[gnu::always_inline]] inline void load_le32(W& w, const std::byte* const* lanes,
                                             std::size_t off) noexcept {
  load_lanes(w, lanes, [off](const std::byte* p) { return load_le32(p + off); });
}

}  // namespace concord::hash::detail
