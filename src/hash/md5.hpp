// MD5 (RFC 1321), implemented from scratch.
//
// The paper's memory update monitors hash every changed 4 KB block; MD5 is
// the cryptographic option (6.4% CPU at a 2 s scan period on their oldest
// hardware) and SuperFastHash the cheap one. ConCORD uses the digest purely
// as a content name — collision resistance is what matters, not security.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <span>

#include "common/types.hpp"

namespace concord::hash {

/// Incremental MD5. Feed bytes with update(), read the digest with final_digest().
class Md5 {
 public:
  Md5() noexcept { reset(); }

  void reset() noexcept;
  void update(std::span<const std::byte> data) noexcept;

  /// Finalizes and returns the 16-byte digest. The object must be reset()
  /// before reuse.
  [[nodiscard]] std::array<std::uint8_t, 16> final_digest() noexcept;

  /// One-shot convenience: digest of a single buffer.
  [[nodiscard]] static std::array<std::uint8_t, 16> digest(std::span<const std::byte> data) noexcept;

  /// One-shot digest folded into ConCORD's 128-bit content-hash type
  /// (big-endian: byte 0 is the top byte of `hi`).
  [[nodiscard]] static ContentHash content_hash(std::span<const std::byte> data) noexcept;

 private:
  void process_block(const std::byte* block) noexcept;

  std::uint32_t state_[4] = {};
  std::uint64_t total_len_ = 0;    // bytes fed so far
  std::array<std::byte, 64> buf_;  // partial block
  std::size_t buf_len_ = 0;
};

namespace detail {

// Md5::content_hash() of 4, 8 or 16 buffers of `len` bytes each, computed in
// one lockstep pass with one buffer per 32-bit vector lane: out[i] is
// bit-identical to Md5::content_hash({blocks[i], len}). The 8- and 16-lane
// kernels run only where batch_kernels() (block_hasher.hpp) lists their ISA.
void md5_x4(const std::byte* const* blocks, std::size_t len, ContentHash* out) noexcept;
#if defined(__x86_64__)
[[gnu::target("avx2")]] void md5_x8(const std::byte* const* blocks, std::size_t len,
                                    ContentHash* out) noexcept;
[[gnu::target("avx512f")]] void md5_x16(const std::byte* const* blocks, std::size_t len,
                                        ContentHash* out) noexcept;
#endif

}  // namespace detail

}  // namespace concord::hash
