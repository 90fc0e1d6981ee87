// Word types shared by the hash kernels.
//
// MD5 and SuperFastHash are each written once as templates over their word
// type. The scalar instantiation uses std::uint32_t; the multi-buffer one
// uses U32x4, a GCC/Clang generic vector of four 32-bit lanes that carries
// four independent, equal-length blocks through the same arithmetic in
// lockstep. Generic vectors lower to whatever the baseline target offers
// (SSE2 on x86-64, NEON on AArch64), so no intrinsics, build flags or
// runtime CPU dispatch are involved, and each lane computes exactly the
// scalar result.
#pragma once

#include <cstddef>
#include <cstdint>

namespace concord::hash::detail {

typedef std::uint32_t U32x4 __attribute__((vector_size(16)));

/// Blocks carried by one U32x4 pass.
inline constexpr std::size_t kLanes = 4;

/// Rotate left by a compile-time count; one definition for both word types.
template <int S, typename W>
[[gnu::always_inline]] inline W rotl(W x) noexcept {
  return (x << S) | (x >> (32 - S));
}

[[gnu::always_inline]] inline std::uint32_t load_le32(const std::byte* p) noexcept {
  return std::uint32_t{std::to_integer<std::uint8_t>(p[0])} |
         (std::uint32_t{std::to_integer<std::uint8_t>(p[1])} << 8) |
         (std::uint32_t{std::to_integer<std::uint8_t>(p[2])} << 16) |
         (std::uint32_t{std::to_integer<std::uint8_t>(p[3])} << 24);
}

/// The little-endian word at byte offset `off` of each of four lanes.
[[gnu::always_inline]] inline U32x4 load_le32x4(const std::byte* const* lanes,
                                                std::size_t off) noexcept {
  return U32x4{load_le32(lanes[0] + off), load_le32(lanes[1] + off),
               load_le32(lanes[2] + off), load_le32(lanes[3] + off)};
}

}  // namespace concord::hash::detail
