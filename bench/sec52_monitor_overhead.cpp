// §5.2 (text): memory update monitor CPU overhead and network load.
//
// Paper (Old-cluster, 2004-era Xeons): scanning a typical HPC process and
// hashing its pages costs 6.4% CPU at a 2 s period and 2.6% at 5 s with
// MD5; 2.2% and <1% with SuperHash. Updates consume ~1% of the outgoing
// link bandwidth. We measure the same quantities on the host: full-scan
// time of a process image, divided by the scan period, plus the update
// stream's share of a 1 Gbit/s link. Modern hardware hashes much faster, so
// absolute percentages are lower; the MD5-vs-SuperHash ratio and the
// period scaling are the shape to check.
//
// This binary is also the google-benchmark microbenchmark for the two hash
// functions (run with --benchmark_filter to see per-page costs): *Page
// hashes one page per call, *Batch 64 pages per hash_many() call, and
// *Batch/<isa> the same 64 pages through one tier of hash::batch_kernels()
// (every tier this CPU runs), `lanes` pages per kernel call.
// BM_SeGroundTruth/{full,monitor} take one service entity's current block
// hashes by hashing all of it, or from the update monitor.
#include <benchmark/benchmark.h>

#include <cstdio>
#include <memory>
#include <string>

#include "bench_util.hpp"
#include "core/service_daemon.hpp"
#include "mem/update_monitor.hpp"
#include "workload/workloads.hpp"

using namespace concord;

namespace {

constexpr std::size_t kProcMb = 128;  // process image size for the scan table
constexpr std::size_t kBlocks = kProcMb * 1024 * 1024 / kDefaultBlockSize;

void print_scan_table() {
  bench::banner(
      "Section 5.2 — memory update monitor CPU overhead and network load",
      "MD5: 6.4% CPU at 2 s scans, 2.6% at 5 s; SuperHash: 2.2% and <1%; update "
      "traffic ~1% of the outgoing link",
      "128 MB process image, full-scan mode; modern host hashes faster than the "
      "2004-era testbed, so absolute % is lower; MD5/SuperHash ratio is the shape");

  const hash::BatchKernel& tier = hash::batch_kernels().back();
  std::printf("hash_many tier: %s, %zu lanes (CPU tiers:",
              std::string(tier.isa).c_str(), tier.lanes);
  for (const hash::BatchKernel& t : hash::batch_kernels()) {
    std::printf(" %s", std::string(t.isa).c_str());
  }
  std::printf(")\n\n");
  std::printf("%12s %14s %14s %14s %16s\n", "hash", "scan ms", "CPU% @2s", "CPU% @5s",
              "update Gbps %");
  for (const hash::Algorithm algo : {hash::Algorithm::kMd5, hash::Algorithm::kSuperFast}) {
    mem::MemoryEntity proc(entity_id(0), node_id(0), EntityKind::kProcess, kBlocks,
                           kDefaultBlockSize);
    workload::fill(proc, workload::defaults_for(workload::Kind::kMoldy, 1));
    mem::MemoryUpdateMonitor monitor{hash::BlockHasher(algo)};
    monitor.attach(proc);
    // First scan = the worst case (everything changed): time it.
    std::uint64_t updates = 0;
    const std::int64_t scan_ns = bench::wall_ns([&] {
      const mem::ScanStats st = monitor.scan([&](const mem::ContentUpdate&) { ++updates; });
      benchmark::DoNotOptimize(st.blocks_hashed);
    });
    const double scan_ms = static_cast<double>(scan_ns) / 1e6;
    const double update_bytes =
        static_cast<double>(updates) *
        (core::kDhtUpdateBytes + net::kWireHeaderBytes);
    // Update stream share of a 1 Gbit/s link when spread over a 2 s period.
    const double link_pct = 100.0 * (update_bytes * 8.0 / 2.0) / 1e9;
    std::printf("%12s %14.1f %14.2f %14.2f %16.3f\n",
                std::string(to_string(algo)).c_str(), scan_ms, 100.0 * scan_ms / 2000.0,
                100.0 * scan_ms / 5000.0, link_pct);
  }
  std::printf("\n");
}

void bm_hash_page(benchmark::State& state, hash::Algorithm algo) {
  std::vector<std::byte> page(kDefaultBlockSize);
  Rng rng(1);
  for (auto& b : page) b = static_cast<std::byte>(rng() & 0xff);
  const hash::BlockHasher hasher(algo);
  for (auto _ : state) {
    benchmark::DoNotOptimize(hasher(page));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(kDefaultBlockSize));
}

constexpr std::size_t kBatchPages = 64;

std::vector<std::byte> random_pages() {
  std::vector<std::byte> buf(kBatchPages * kDefaultBlockSize);
  Rng rng(1);
  for (auto& b : buf) b = static_cast<std::byte>(rng() & 0xff);
  return buf;
}

/// hash_many() over 64 distinct pages: the multi-buffer path that monitor
/// scans, the command's local phase and migration run.
void bm_hash_batch(benchmark::State& state, hash::Algorithm algo) {
  const std::vector<std::byte> buf = random_pages();
  std::vector<std::span<const std::byte>> pages;
  for (std::size_t p = 0; p < kBatchPages; ++p) {
    pages.push_back(std::span<const std::byte>(buf).subspan(p * kDefaultBlockSize,
                                                            kDefaultBlockSize));
  }
  std::vector<ContentHash> out(kBatchPages);
  const hash::BlockHasher hasher(algo);
  for (auto _ : state) {
    hasher.hash_many(pages, out);
    benchmark::DoNotOptimize(out.data());
    benchmark::ClobberMemory();
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(buf.size()));
}

/// The same 64 pages through one tier's kernel, `lanes` pages per call.
void bm_hash_tier(benchmark::State& state, hash::BatchKernel::Fn kernel, std::size_t lanes) {
  const std::vector<std::byte> buf = random_pages();
  std::vector<const std::byte*> pages;
  for (std::size_t p = 0; p < kBatchPages; ++p) pages.push_back(&buf[p * kDefaultBlockSize]);
  std::vector<ContentHash> out(kBatchPages);
  for (auto _ : state) {
    for (std::size_t p = 0; p < kBatchPages; p += lanes) {
      kernel(&pages[p], kDefaultBlockSize, &out[p]);
    }
    benchmark::DoNotOptimize(out.data());
    benchmark::ClobberMemory();
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(buf.size()));
}

constexpr std::size_t kSeBlocks = 384;  // one service entity of 384 × 4 KiB
constexpr std::size_t kSeDirtyStride = 100;  // every 100th block written: 4 of 384, ~1%

/// A service command's ground truth for one SE whose every 100th block was
/// written since the monitor's last dirty-bit scan. `full` hashes every
/// block with hash_many; `monitor` is MemoryUpdateMonitor::current_hashes,
/// which copies the last scanned hashes and rehashes the written blocks.
/// Bytes processed count the whole SE, so MB/s is SE memory resolved per
/// second.
void bm_se_ground_truth(benchmark::State& state, bool from_monitor) {
  mem::MemoryEntity se(entity_id(0), node_id(0), EntityKind::kProcess, kSeBlocks,
                       kDefaultBlockSize);
  workload::fill(se, workload::defaults_for(workload::Kind::kMoldy, 1));
  mem::MemoryUpdateMonitor monitor(hash::BlockHasher{}, mem::DetectMode::kDirtyBit);
  monitor.attach(se);
  (void)monitor.scan([](const mem::ContentUpdate&) {});
  for (BlockIndex b = 0; b < kSeBlocks; b += kSeDirtyStride) {
    se.write_block(b)[0] ^= std::byte{1};
  }

  std::vector<ContentHash> out(kSeBlocks);
  for (auto _ : state) {
    if (from_monitor) {
      monitor.current_hashes(se, out);
    } else {
      monitor.hasher().hash_many(se.blocks(), out);
    }
    benchmark::DoNotOptimize(out.data());
    benchmark::ClobberMemory();
  }
  state.counters["stale_blocks"] = static_cast<double>(se.dirty().count());
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(se.memory_bytes()));
}

void BM_Md5Page(benchmark::State& state) { bm_hash_page(state, hash::Algorithm::kMd5); }
void BM_SuperFastPage(benchmark::State& state) {
  bm_hash_page(state, hash::Algorithm::kSuperFast);
}
void BM_Md5Batch(benchmark::State& state) { bm_hash_batch(state, hash::Algorithm::kMd5); }
void BM_SuperFastBatch(benchmark::State& state) {
  bm_hash_batch(state, hash::Algorithm::kSuperFast);
}
BENCHMARK(BM_Md5Page);
BENCHMARK(BM_SuperFastPage);
BENCHMARK(BM_Md5Batch);
BENCHMARK(BM_SuperFastBatch);
BENCHMARK_CAPTURE(bm_se_ground_truth, full, false)->Name("BM_SeGroundTruth/full");
BENCHMARK_CAPTURE(bm_se_ground_truth, monitor, true)->Name("BM_SeGroundTruth/monitor");

}  // namespace

int main(int argc, char** argv) {
  print_scan_table();
  for (const hash::BatchKernel& t : hash::batch_kernels()) {
    const std::string isa(t.isa);
    benchmark::RegisterBenchmark(("BM_Md5Batch/" + isa).c_str(), bm_hash_tier, t.md5, t.lanes);
    benchmark::RegisterBenchmark(("BM_SuperFastBatch/" + isa).c_str(), bm_hash_tier,
                                 t.superfast, t.lanes);
  }
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
