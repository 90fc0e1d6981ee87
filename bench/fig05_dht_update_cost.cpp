// Figure 5: CPU time of DHT updates as a function of the number of unique
// hashes in the local store.
//
// Paper: insert-hash ~5-6 us, delete-hash ~4-5 us, insert/delete-block
// ~1-3 us on 2008-era hardware, *independent of store size* up to 56M
// hashes. We sweep to 8M hashes (the emulation host has 16 GB of RAM) and
// expect the same flat curves, faster in absolute terms.
//
// Two hash streams feed the shard-owner columns:
//   * random — every synthetic hash, as an unsharded store would see;
//   * shard  — only hashes homed on node 0 of a 256-node Placement, which is
//              what one shard of a real site holds. They share the low bits
//              placement reduces modulo N, so a store that probed from those
//              bits would cluster them onto 1/256 of its table.
// `--smoke` runs small sizes and exits non-zero when a shard-stream cost
// exceeds 2x the random-stream cost at the same size.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <vector>

#include "bench_util.hpp"
#include "dht/dht_store.hpp"
#include "dht/placement.hpp"
#include "mem/local_block_map.hpp"

using namespace concord;

namespace {

constexpr std::uint32_t kEntities = 64;
constexpr std::uint64_t kOps = 100000;  // measured ops per point
constexpr std::uint32_t kShardSiteNodes = 256;

/// Inverse of `x ^= x >> s`.
std::uint64_t unshift(std::uint64_t y, int s) {
  std::uint64_t x = y;
  for (int k = s; k < 64; k += s) x = y ^ (x >> s);
  return x;
}

/// Multiplicative inverse of an odd constant modulo 2^64 (Newton's method).
constexpr std::uint64_t mul_inverse(std::uint64_t a) {
  std::uint64_t x = a;  // correct to 3 bits; each step doubles that
  for (int i = 0; i < 5; ++i) x *= 2 - a * x;
  return x;
}

/// Synthetic hashes homed on node 0 of a kShardSiteNodes site. Filtering
/// random hashes would cost kShardSiteNodes draws per hash (minutes at 8M,
/// and a compute burst before every timed loop), so each hash is built
/// directly: pick a well_mixed() value that placement maps to node 0, undo
/// well_mixed()'s bijective finalizer, and solve its first line for `lo`.
class ShardStream {
 public:
  ContentHash operator()() {
    const std::uint64_t mixed = bench::synth_hash(next_).hi / kShardSiteNodes * kShardSiteNodes;
    const std::uint64_t hi = bench::synth_hash(next_++).lo;
    std::uint64_t x = unshift(mixed, 31);
    x *= mul_inverse(0x94d049bb133111ebULL);
    x = unshift(x, 27);
    x *= mul_inverse(0xbf58476d1ce4e5b9ULL);
    x = unshift(x, 30);
    const ContentHash h{hi, (x ^ hi) - 0x9e3779b97f4a7c15ULL - (hi << 6) - (hi >> 2)};
    if (h.well_mixed() != mixed || placement_.home(h) != 0) {
      std::fprintf(stderr, "fig05: shard hash construction out of sync with well_mixed()\n");
      std::abort();
    }
    return h;
  }

 private:
  std::uint64_t next_ = 0;
  dht::Placement placement_{kShardSiteNodes};
};

struct Costs {
  double insert_ns = 0;
  double delete_ns = 0;
};

/// Per-op cost of kOps inserts then kOps deletes of fresh hashes on a store
/// preloaded with `preload` hashes. `gen` yields the hash stream.
template <typename Gen>
Costs measure_store(std::uint64_t preload, Gen gen) {
  dht::DhtStore store(kEntities, dht::AllocMode::kPool);
  store.reserve(preload + kOps);  // steady-state cost, not amortized rehashing
  for (std::uint64_t i = 0; i < preload; ++i) {
    store.insert(gen(), entity_id(static_cast<std::uint32_t>(i % kEntities)));
  }
  // Generated up front so the timed loops measure the store alone.
  std::vector<ContentHash> fresh(kOps);
  for (ContentHash& h : fresh) h = gen();
  Costs c;
  c.insert_ns = static_cast<double>(bench::wall_ns([&] {
                  for (const ContentHash& h : fresh) store.insert(h, entity_id(0));
                })) /
                static_cast<double>(kOps);
  c.delete_ns = static_cast<double>(bench::wall_ns([&] {
                  for (const ContentHash& h : fresh) store.remove(h, entity_id(0));
                })) /
                static_cast<double>(kOps);
  return c;
}

struct Point {
  std::uint64_t preload;
  Costs random, shard;
  double insert_block_ns, delete_block_ns;
};

Point measure(std::uint64_t preload) {
  Point pt{preload, {}, {}, 0, 0};

  // --- hash updates: the shard-owner side (hash -> entity bitmap).
  std::uint64_t next = 0;
  pt.random = measure_store(preload, [&next] { return bench::synth_hash(next++); });
  pt.shard = measure_store(preload, ShardStream{});

  // --- block updates: the NSM side (hash -> local block locations).
  mem::LocalBlockMap map;
  map.reserve(preload + kOps);
  for (std::uint64_t i = 0; i < preload; ++i) {
    map.add(bench::synth_hash(i), {entity_id(0), i});
  }
  pt.insert_block_ns = static_cast<double>(bench::wall_ns([&] {
                         for (std::uint64_t i = 0; i < kOps; ++i) {
                           map.add(bench::synth_hash(preload + i), {entity_id(0), preload + i});
                         }
                       })) /
                       static_cast<double>(kOps);
  pt.delete_block_ns =
      static_cast<double>(bench::wall_ns([&] {
        for (std::uint64_t i = 0; i < kOps; ++i) {
          map.remove(bench::synth_hash(preload + i), {entity_id(0), preload + i});
        }
      })) /
      static_cast<double>(kOps);
  return pt;
}

/// Best of `reps` measurements per column: the smoke gate compares two
/// costs on a shared host, so one slow moment must not decide it.
Point best_of(std::uint64_t preload, int reps) {
  Point best = measure(preload);
  for (int r = 1; r < reps; ++r) {
    const Point p = measure(preload);
    best.random.insert_ns = std::min(best.random.insert_ns, p.random.insert_ns);
    best.random.delete_ns = std::min(best.random.delete_ns, p.random.delete_ns);
    best.shard.insert_ns = std::min(best.shard.insert_ns, p.shard.insert_ns);
    best.shard.delete_ns = std::min(best.shard.delete_ns, p.shard.delete_ns);
    best.insert_block_ns = std::min(best.insert_block_ns, p.insert_block_ns);
    best.delete_block_ns = std::min(best.delete_block_ns, p.delete_block_ns);
  }
  return best;
}

}  // namespace

int main(int argc, char** argv) {
  const bool smoke = argc > 1 && std::strcmp(argv[1], "--smoke") == 0;

  bench::banner(
      "Figure 5 — CPU time of DHT updates vs unique hashes in the local store",
      "update costs are independent of how many unique content hashes are stored",
      "preload swept to 8M hashes (paper: 56M); per-op cost from 100k measured ops; "
      "shard columns hold only hashes homed on node 0 of a 256-node site");

  std::vector<std::uint64_t> sweep = {100000, 500000, 1000000, 2000000, 4000000, 8000000};
  int reps = 1;
  if (smoke) {
    sweep = {400, 4000, 40000};
    reps = 5;
  }

  std::printf("%12s %16s %16s %16s %16s %16s %16s\n", "hashes", "insert-hash ns",
              "delete-hash ns", "shard ins ns", "shard del ns", "insert-block ns",
              "delete-block ns");
  bool ok = true;
  for (const std::uint64_t preload : sweep) {
    const Point p = best_of(preload, reps);
    std::printf("%12llu %16.1f %16.1f %16.1f %16.1f %16.1f %16.1f\n",
                static_cast<unsigned long long>(p.preload), p.random.insert_ns,
                p.random.delete_ns, p.shard.insert_ns, p.shard.delete_ns, p.insert_block_ns,
                p.delete_block_ns);
    if (p.shard.insert_ns > 2 * p.random.insert_ns ||
        p.shard.delete_ns > 2 * p.random.delete_ns) {
      ok = false;
    }
  }
  if (smoke) {
    std::printf("\n  [smoke] shard-stream cost within 2x of random-stream cost: %s\n",
                ok ? "PASS" : "FAIL");
    return ok ? 0 : 1;
  }
  return 0;
}
