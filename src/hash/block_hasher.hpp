// BlockHasher: the single seam through which all block content is named.
//
// The memory update monitor is configured with one of these; everything
// downstream (DHT, queries, service commands) only ever sees ContentHash.
// Matches the paper's MD5-vs-SuperHash choice (§5.2). Whole-entity loops
// (monitor scans, the command's local phase, migration) go through
// hash_many(), which hashes four blocks per pass and yields the same digests.
#pragma once

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

class BlockHasher {
 public:
  explicit BlockHasher(Algorithm algo = Algorithm::kMd5) noexcept : algo_(algo) {}

  [[nodiscard]] Algorithm algorithm() const noexcept { return algo_; }

  [[nodiscard]] ContentHash operator()(std::span<const std::byte> block) const noexcept;

  /// out[i] = (*this)(blocks[i]) for every i, bit for bit; `out` must be as
  /// long as `blocks`. Each run of four equal-length blocks goes through the
  /// four-lane kernel in one lockstep pass; a shorter remainder or a group
  /// of unequal lengths takes the single-block path.
  void hash_many(std::span<const std::span<const std::byte>> blocks,
                 std::span<ContentHash> out) const noexcept;

 private:
  Algorithm algo_;
};

}  // namespace concord::hash
