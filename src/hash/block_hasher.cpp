#include "hash/block_hasher.hpp"

#include <array>
#include <cassert>

#include "hash/lanes.hpp"
#include "hash/md5.hpp"
#include "hash/superfast.hpp"

namespace concord::hash {

std::span<const BatchKernel> batch_kernels() noexcept {
  struct Table {
    std::array<BatchKernel, 3> tiers;
    std::size_t size = 0;
  };
  // A function-local static, so the CPU probe runs on first use and never
  // from a namespace-scope initializer.
  static const Table table = [] {
    Table t;
    t.tiers[t.size++] = {"baseline", 4, detail::md5_x4, detail::superfast_x4};
#if defined(__x86_64__)
    __builtin_cpu_init();
    if (__builtin_cpu_supports("avx2")) {
      t.tiers[t.size++] = {"avx2", 8, detail::md5_x8, detail::superfast_x8};
    }
    if (__builtin_cpu_supports("avx512f")) {
      t.tiers[t.size++] = {"avx512f", 16, detail::md5_x16, detail::superfast_x16};
    }
#endif
    return t;
  }();
  return {table.tiers.data(), table.size};
}

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
  const std::span<const BatchKernel> tiers = batch_kernels();
  const std::size_t widest = tiers.back().lanes;
  std::size_t i = 0;
  while (i < blocks.size()) {
    // Equal-length run starting at i, capped at the widest tier.
    const std::size_t len = blocks[i].size();
    std::size_t run = 1;
    while (run < widest && i + run < blocks.size() && blocks[i + run].size() == len) ++run;
    const BatchKernel* tier = nullptr;
    for (const BatchKernel& t : tiers) {
      if (t.lanes <= run) tier = &t;
    }
    if (tier == nullptr) {
      out[i] = (*this)(blocks[i]);
      ++i;
      continue;
    }
    const std::byte* lanes[detail::kMaxLanes];
    for (std::size_t l = 0; l < tier->lanes; ++l) lanes[l] = blocks[i + l].data();
    (algo_ == Algorithm::kMd5 ? tier->md5 : tier->superfast)(lanes, len, &out[i]);
    i += tier->lanes;
  }
}

}  // namespace concord::hash
