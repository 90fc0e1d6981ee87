// WorkerPool: a fixed-size fork-join pool for node-partitioned host work.
//
// The pool exists to cut *real* wall-time; it is invisible to the emulation.
// Work is partitioned into one contiguous index chunk per worker (the
// caller's thread takes the first chunk), each worker writes results into
// disjoint slots of a caller-owned index-aligned array, and run() returns
// only after every chunk is done. No worker ever touches shared mutable
// state, so the caller can replay results in index order and keep every
// metric, emit, and virtual-clock charge byte-identical to the serial
// pipeline. Two consumers ride this recipe: the memory update monitor's
// per-scan block hashing (ClusterParams::hash_workers) and the cluster's
// sharded scan epochs (ClusterParams::sim_workers).
#pragma once

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <thread>
#include <utility>
#include <vector>

#include "common/thread_annotations.hpp"

namespace concord::sim {

class WorkerPool {
 public:
  /// Total workers including the calling thread; `workers - 1` host threads
  /// are spawned and parked until run(). Must be >= 1.
  explicit WorkerPool(std::size_t workers);
  ~WorkerPool();

  WorkerPool(const WorkerPool&) = delete;
  WorkerPool& operator=(const WorkerPool&) = delete;

  [[nodiscard]] std::size_t workers() const noexcept { return workers_; }

  /// Partitions [0, count) into one contiguous chunk per worker and invokes
  /// fn(begin, end) on each. Blocks until all chunks complete. fn must only
  /// write to slots it owns (its index range).
  void run(std::size_t count, const std::function<void(std::size_t, std::size_t)>& fn);

 private:
  void worker_loop(std::size_t slot);
  /// Chunk bounds for worker `slot` of `count` items.
  [[nodiscard]] std::pair<std::size_t, std::size_t> chunk(std::size_t slot,
                                                          std::size_t count) const noexcept;

  const std::size_t workers_;  // immutable after construction
  // concord-lint: unguarded(owner-thread only: filled in the constructor,
  // joined in the destructor; workers never touch the vector)
  std::vector<std::thread> threads_;

  common::Mutex mu_;
  std::condition_variable start_cv_;
  std::condition_variable done_cv_;
  std::uint64_t epoch_ CONCORD_GUARDED_BY(mu_) = 0;      // bumped per run()
  std::size_t job_count_ CONCORD_GUARDED_BY(mu_) = 0;    // items in the current job
  std::size_t outstanding_ CONCORD_GUARDED_BY(mu_) = 0;  // chunks not yet finished
  const std::function<void(std::size_t, std::size_t)>* job_fn_
      CONCORD_GUARDED_BY(mu_) = nullptr;
  bool stopping_ CONCORD_GUARDED_BY(mu_) = false;
};

}  // namespace concord::sim
