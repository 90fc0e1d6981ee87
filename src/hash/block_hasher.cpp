#include "hash/block_hasher.hpp"

#include <cassert>

#include "hash/lanes.hpp"
#include "hash/md5.hpp"
#include "hash/superfast.hpp"

namespace concord::hash {

ContentHash BlockHasher::operator()(std::span<const std::byte> block) const noexcept {
  switch (algo_) {
    case Algorithm::kMd5: return Md5::content_hash(block);
    case Algorithm::kSuperFast: return superfast_content_hash(block);
  }
  return {};
}

void BlockHasher::hash_many(std::span<const std::span<const std::byte>> blocks,
                            std::span<ContentHash> out) const noexcept {
  assert(out.size() == blocks.size());
  constexpr std::size_t kLanes = detail::kLanes;
  std::size_t i = 0;
  for (; i + kLanes <= blocks.size(); i += kLanes) {
    const std::size_t len = blocks[i].size();
    if (blocks[i + 1].size() != len || blocks[i + 2].size() != len ||
        blocks[i + 3].size() != len) {
      for (std::size_t k = i; k < i + kLanes; ++k) out[k] = (*this)(blocks[k]);
      continue;
    }
    const std::byte* const lanes[kLanes] = {blocks[i].data(), blocks[i + 1].data(),
                                            blocks[i + 2].data(), blocks[i + 3].data()};
    ContentHash group[kLanes];
    switch (algo_) {
      case Algorithm::kMd5: Md5::content_hash_x4(lanes, len, group); break;
      case Algorithm::kSuperFast: superfast_content_hash_x4(lanes, len, group); break;
    }
    for (std::size_t k = 0; k < kLanes; ++k) out[i + k] = group[k];
  }
  for (; i < blocks.size(); ++i) out[i] = (*this)(blocks[i]);
}

}  // namespace concord::hash
