#include "core/cost_model.hpp"

#include <algorithm>
#include <cstring>
#include <span>
#include <vector>

#include "common/rng.hpp"
#include "compress/cgz.hpp"
#include "dht/dht_store.hpp"
#include "obs/host_clock.hpp"

namespace concord::core {

namespace {

/// Fastest of `reps` timed runs. Host noise only ever adds time, so the
/// minimum is the run that noise touched least; a median still carries one
/// slow moment of the host into every charge the process makes.
template <typename Fn>
double min_ns(Fn&& fn, int reps = 9) {
  double best = 0;
  for (int r = 0; r < reps; ++r) {
    const auto ns = static_cast<double>(obs::host_timed_ns(fn));
    if (r == 0 || ns < best) best = ns;
  }
  return best;
}

}  // namespace

CostModel CostModel::calibrate() {
  CostModel m;
  constexpr std::size_t kBuf = 256 * 1024;

  std::vector<std::byte> src(kBuf), dst(kBuf);
  Rng rng(12345);
  for (auto& b : src) b = static_cast<std::byte>(rng() & 0xff);

  // Hash costs: 64 pages of 4 KB per repetition, through hash_many() — the
  // path every whole-entity loop takes.
  std::vector<std::span<const std::byte>> pages;
  for (std::size_t off = 0; off < kBuf; off += 4096) {
    pages.push_back(std::span<const std::byte>(src).subspan(off, 4096));
  }
  // MD5 and SuperFast alternate rep by rep, so both minima come from the
  // same stretch of host load; timed one after the other, a slow stretch
  // can cover every rep of one algorithm and invert the two costs.
  std::vector<ContentHash> digests(pages.size());
  std::uint64_t sink = 0;
  const hash::BlockHasher md5(hash::Algorithm::kMd5);
  const hash::BlockHasher superfast(hash::Algorithm::kSuperFast);
  const auto hash_ns = [&](const hash::BlockHasher& hasher) {
    return static_cast<double>(obs::host_timed_ns([&] {
      hasher.hash_many(pages, digests);
      sink ^= digests.back().lo;
    }));
  };
  double md5_ns = hash_ns(md5);
  double superfast_ns = hash_ns(superfast);
  for (int r = 1; r < 9; ++r) {
    md5_ns = std::min(md5_ns, hash_ns(md5));
    superfast_ns = std::min(superfast_ns, hash_ns(superfast));
  }
  m.md5_ns_per_byte = md5_ns / static_cast<double>(kBuf);
  m.superfast_ns_per_byte = superfast_ns / static_cast<double>(kBuf);

  // Touch cost: memcpy.
  m.touch_ns_per_byte =
      min_ns([&] { std::memcpy(dst.data(), src.data(), kBuf); }) /
      static_cast<double>(kBuf);

  // Entry scan cost: enumerate a populated shard, intersecting bitmaps the
  // way the query/command engines do.
  dht::DhtStore store(64, dht::AllocMode::kPool);
  for (std::uint64_t i = 0; i < 20000; ++i) {
    std::uint64_t s = i;
    store.insert(ContentHash{splitmix64(s), splitmix64(s)},
                 entity_id(static_cast<std::uint32_t>(i % 64)));
  }
  m.entry_scan_ns = min_ns([&] {
                      std::uint64_t acc = 0;
                      store.for_each_entry([&](const ContentHash& h, const std::uint64_t* w,
                                               std::size_t nw) {
                        acc ^= h.lo;
                        for (std::size_t i = 0; i < nw; ++i) acc += w[i];
                      });
                      sink ^= acc;
                    }) /
                    20000.0;

  // Compression: cgz over a representative half-structured buffer.
  {
    std::vector<std::byte> mixed(kBuf);
    for (std::size_t i = 0; i < kBuf; ++i) {
      mixed[i] = (i % 4096) < 2048 ? static_cast<std::byte>(i & 0x0f)
                                   : static_cast<std::byte>(rng() & 0xff);
    }
    m.cgz_ns_per_byte = min_ns([&] { sink ^= compress::compressed_size(mixed); }, 3) /
                        static_cast<double>(kBuf);
  }

  // Callback overhead: a virtual call through a small dispatch table plus a
  // hash-map probe, the engine's per-callback bookkeeping.
  struct Iface {
    virtual ~Iface() = default;
    virtual std::uint64_t f(std::uint64_t) = 0;
  };
  struct Impl final : Iface {
    std::uint64_t f(std::uint64_t x) override { return x * 2654435761u; }
  };
  Impl impl;
  Iface* iface = &impl;
  std::unordered_map<std::uint64_t, std::uint64_t> table;
  for (std::uint64_t i = 0; i < 1024; ++i) table[i] = i;
  m.callback_ns = min_ns([&] {
                    for (std::uint64_t i = 0; i < 4096; ++i) {
                      sink ^= iface->f(i) + table.count(i & 1023);
                    }
                  }) /
                  4096.0;

  // Keep the compiler honest about sink.
  if (sink == 0xdeadbeefcafef00dULL) m.callback_ns += 1e-9;
  return m;
}

const CostModel& CostModel::instance() {
  static const CostModel model = calibrate();
  return model;
}

}  // namespace concord::core
