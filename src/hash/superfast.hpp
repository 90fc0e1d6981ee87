// SuperFastHash (Paul Hsieh), the paper's non-cryptographic "SuperHash".
//
// §5.2: with SuperFastHash the monitor's scan overhead drops from 6.4% to
// 2.2% CPU at a 2 s period. The raw function yields 32 bits; ConCORD needs a
// 128-bit content name, so superfast_content_hash() runs two differently
// seeded passes over the data (the seed only sets the starting value, so
// both ride one sweep over the bytes) — still far cheaper than MD5.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>

#include "common/types.hpp"

namespace concord::hash {

/// The classic 32-bit SuperFastHash with an explicit seed.
[[nodiscard]] std::uint32_t superfast32(std::span<const std::byte> data,
                                        std::uint32_t seed = 0) noexcept;

/// 128-bit content name from two independently-seeded passes (64 effective
/// bits; see the .cpp for the trade-off discussion).
[[nodiscard]] ContentHash superfast_content_hash(std::span<const std::byte> data) noexcept;

namespace detail {

// superfast_content_hash() of 4, 8 or 16 buffers of `len` bytes each: the
// blocks times the two seeds run as 8, 16 or 32 lanes in one lockstep sweep.
// out[i] is bit-identical to superfast_content_hash({blocks[i], len}). The 8-
// and 16-lane kernels run only where batch_kernels() (block_hasher.hpp) lists
// their ISA.
void superfast_x4(const std::byte* const* blocks, std::size_t len, ContentHash* out) noexcept;
#if defined(__x86_64__)
[[gnu::target("avx2")]] void superfast_x8(const std::byte* const* blocks, std::size_t len,
                                          ContentHash* out) noexcept;
[[gnu::target("avx512f")]] void superfast_x16(const std::byte* const* blocks, std::size_t len,
                                              ContentHash* out) noexcept;
#endif

}  // namespace detail

/// FNV-1a 64-bit — used for cheap non-content hashing (shard placement of
/// strings, test oracles), not for content names.
[[nodiscard]] constexpr std::uint64_t fnv1a64(std::span<const std::byte> data) noexcept {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const std::byte b : data) {
    h ^= static_cast<std::uint64_t>(b);
    h *= 0x100000001b3ULL;
  }
  return h;
}

}  // namespace concord::hash
