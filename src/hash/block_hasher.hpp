// BlockHasher: the single seam through which all block content is named.
//
// The memory update monitor is configured with one of these; everything
// downstream (DHT, queries, service commands) only ever sees ContentHash.
// Matches the paper's MD5-vs-SuperHash choice (§5.2). Whole-entity loops
// (monitor scans, the command's local phase, migration) go through
// hash_many(), which hashes 4, 8 or 16 equal-length blocks per lockstep pass
// at the widest vector width the CPU runs (batch_kernels()) and yields the
// same digests.
#pragma once

#include <cstddef>
#include <span>
#include <string_view>

#include "common/types.hpp"

namespace concord::hash {

enum class Algorithm : std::uint8_t { kMd5, kSuperFast };

[[nodiscard]] constexpr std::string_view to_string(Algorithm a) noexcept {
  switch (a) {
    case Algorithm::kMd5: return "md5";
    case Algorithm::kSuperFast: return "superfast";
  }
  return "unknown";
}

/// One vector tier of the lockstep kernels: `md5` and `superfast` hash
/// `lanes` buffers of `len` bytes each, out[i] bit-identical to the
/// single-block digest of blocks[i].
struct BatchKernel {
  using Fn = void (*)(const std::byte* const* blocks, std::size_t len,
                      ContentHash* out) noexcept;
  std::string_view isa;  // "baseline", "avx2" or "avx512f"
  std::size_t lanes;
  Fn md5;
  Fn superfast;
};

/// The tiers this CPU runs, narrowest first: "baseline" (4 lanes, every
/// target), then on x86-64 "avx2" (8) and "avx512f" (16) when the CPU and
/// OS support them. Resolved once, on first call.
[[nodiscard]] std::span<const BatchKernel> batch_kernels() noexcept;

class BlockHasher {
 public:
  explicit BlockHasher(Algorithm algo = Algorithm::kMd5) noexcept : algo_(algo) {}

  [[nodiscard]] Algorithm algorithm() const noexcept { return algo_; }

  [[nodiscard]] ContentHash operator()(std::span<const std::byte> block) const noexcept;

  /// out[i] = (*this)(blocks[i]) for every i, bit for bit; `out` must be as
  /// long as `blocks`. At each position the widest tier of batch_kernels()
  /// whose next `lanes` blocks have equal lengths hashes them in one
  /// lockstep pass; where no tier fits, one block takes the single-block
  /// path.
  void hash_many(std::span<const std::span<const std::byte>> blocks,
                 std::span<ContentHash> out) const noexcept;

 private:
  Algorithm algo_;
};

}  // namespace concord::hash
