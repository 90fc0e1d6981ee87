// Dynamic bitset used for entity sets inside the DHT.
//
// The paper's DHT maps each content hash to "a bitmap representation of the
// set of entities that currently have the corresponding content" (§3.3).
// Entity ids are dense site-wide, so a bitmap is both compact and fast to
// union/intersect during collective query aggregation.
#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace concord {

class Bitmap {
 public:
  Bitmap() = default;
  explicit Bitmap(std::size_t nbits) : nbits_(nbits), words_((nbits + 63) / 64, 0) {}

  [[nodiscard]] std::size_t size() const noexcept { return nbits_; }

  void set(std::size_t i) {
    grow_to(i + 1);
    words_[i >> 6] |= (std::uint64_t{1} << (i & 63));
  }

  void reset(std::size_t i) noexcept {
    if (i >= nbits_) return;
    words_[i >> 6] &= ~(std::uint64_t{1} << (i & 63));
  }

  [[nodiscard]] bool test(std::size_t i) const noexcept {
    if (i >= nbits_) return false;
    return (words_[i >> 6] >> (i & 63)) & 1u;
  }

  [[nodiscard]] std::size_t count() const noexcept {
    std::size_t n = 0;
    for (std::uint64_t w : words_) n += static_cast<std::size_t>(std::popcount(w));
    return n;
  }

  /// In-place union / intersection / difference. The result is sized to
  /// cover both operands.
  Bitmap& operator|=(const Bitmap& o);
  Bitmap& operator&=(const Bitmap& o);
  Bitmap& operator-=(const Bitmap& o);

  [[nodiscard]] bool intersects(const Bitmap& o) const noexcept;

  friend bool operator==(const Bitmap& a, const Bitmap& b) noexcept;

  /// Invokes fn(index) for every set bit, ascending.
  template <typename Fn>
  void for_each(Fn&& fn) const {
    for (std::size_t wi = 0; wi < words_.size(); ++wi) {
      std::uint64_t w = words_[wi];
      while (w != 0) {
        const int b = std::countr_zero(w);
        fn(wi * 64 + static_cast<std::size_t>(b));
        w &= w - 1;
      }
    }
  }

  [[nodiscard]] std::vector<std::uint32_t> to_indices() const;

  /// First set bit at or after `from`; returns size() if none.
  [[nodiscard]] std::size_t find_next(std::size_t from) const noexcept;

  /// The i-th 64-bit storage word (0 past the end). Lets hot loops intersect
  /// against raw word arrays without per-bit calls.
  [[nodiscard]] std::uint64_t word(std::size_t i) const noexcept {
    return i < words_.size() ? words_[i] : 0;
  }

  /// Heap bytes used by the word storage (for Fig. 6 style accounting).
  [[nodiscard]] std::size_t memory_bytes() const noexcept {
    return words_.capacity() * sizeof(std::uint64_t);
  }

  void clear() noexcept {
    nbits_ = 0;
    words_.clear();
  }

 private:
  void grow_to(std::size_t nbits) {
    if (nbits > nbits_) {
      nbits_ = nbits;
      words_.resize((nbits_ + 63) / 64, 0);
    }
  }

  std::size_t nbits_ = 0;
  std::vector<std::uint64_t> words_;
};

}  // namespace concord
