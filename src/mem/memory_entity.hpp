// MemoryEntity: an object that has memory (process, VM, ...).
//
// ConCORD is deliberately entity-agnostic (§3): the core tracks "entities"
// and only node-specific modules (NSMs) know how to reach a particular kind
// of memory. In the paper the NSM inspects a process via ptrace or a VM's
// guest-physical memory via the Palacios VMM; here the entity owns real
// buffers and exposes the same surface the monitors need:
//   * block-granularity read access,
//   * a write path that records dirtiness (standing in for the dirty-bit /
//     copy-on-write page-table techniques of §3.1),
//   * stable identity (EntityId, host NodeId, kind).
#pragma once

#include <cassert>
#include <cstdint>
#include <span>
#include <vector>

#include "common/bitmap.hpp"
#include "common/types.hpp"

namespace concord::mem {

class MemoryEntity {
 public:
  MemoryEntity(EntityId id, NodeId host, EntityKind kind, std::size_t num_blocks,
               std::size_t block_size = kDefaultBlockSize)
      : id_(id),
        host_(host),
        kind_(kind),
        block_size_(block_size),
        data_(num_blocks * block_size),
        dirty_(num_blocks) {
    // A fresh entity is all-dirty: nothing has been scanned yet.
    for (std::size_t b = 0; b < num_blocks; ++b) dirty_.set(b);
  }

  [[nodiscard]] EntityId id() const noexcept { return id_; }
  [[nodiscard]] NodeId host() const noexcept { return host_; }
  [[nodiscard]] EntityKind kind() const noexcept { return kind_; }
  [[nodiscard]] std::size_t block_size() const noexcept { return block_size_; }
  [[nodiscard]] std::size_t num_blocks() const noexcept {
    return block_size_ == 0 ? 0 : data_.size() / block_size_;
  }
  [[nodiscard]] std::size_t memory_bytes() const noexcept { return data_.size(); }

  [[nodiscard]] std::span<const std::byte> block(BlockIndex b) const noexcept {
    assert(b < num_blocks());
    return {data_.data() + b * block_size_, block_size_};
  }

  /// Read views of every block in index order (the input shape of
  /// BlockHasher::hash_many).
  [[nodiscard]] std::vector<std::span<const std::byte>> blocks() const {
    std::vector<std::span<const std::byte>> out(num_blocks());
    for (BlockIndex b = 0; b < out.size(); ++b) out[b] = block(b);
    return out;
  }

  /// Mutable access *through the write-tracking path*: marks the block dirty
  /// exactly like a hardware dirty bit / CoW fault would (§3.1), and bumps
  /// writes(). The count moves at the call, so write through the span before
  /// anything else reads the entity.
  [[nodiscard]] std::span<std::byte> write_block(BlockIndex b) noexcept {
    assert(b < num_blocks());
    dirty_.set(b);
    ++writes_;
    return {data_.data() + b * block_size_, block_size_};
  }

  void write_block(BlockIndex b, std::span<const std::byte> content) noexcept {
    auto dst = write_block(b);
    assert(content.size() == dst.size());
    std::copy(content.begin(), content.end(), dst.begin());
  }

  /// Count of write_block() calls over the entity's lifetime. write_block is
  /// the only mutable accessor of the bytes, so an unchanged count means
  /// unchanged content — what lets a reader keep hashes it took earlier.
  /// Unlike dirty(), a monitor scan does not reset it.
  [[nodiscard]] std::uint64_t writes() const noexcept { return writes_; }

  /// Blocks written since the last consume_dirty(). Read-only view.
  [[nodiscard]] const Bitmap& dirty() const noexcept { return dirty_; }

  /// Hands the dirty set to a monitor and clears it (the "periodically mark
  /// clean, rescan for dirty" cycle of §3.1). The monitor tracking the entity
  /// must be its only caller: that monitor treats its last scanned hash of a
  /// clean block as exact (MemoryUpdateMonitor::current_hashes), which holds
  /// only while every cleared bit went through one of its scans.
  [[nodiscard]] Bitmap consume_dirty() {
    Bitmap out = std::move(dirty_);
    dirty_ = Bitmap(num_blocks());
    return out;
  }

 private:
  EntityId id_;
  NodeId host_;
  EntityKind kind_;
  std::size_t block_size_;
  std::vector<std::byte> data_;
  Bitmap dirty_;
  std::uint64_t writes_ = 0;
};

}  // namespace concord::mem
