// CostModel: calibrated per-operation costs for charging local computation
// to the virtual clock.
//
// The emulation charges every node's computation to virtual time. Measuring
// each tiny operation with the host clock would make barrier-style results
// (max over thousands of samples) grow with the *number* of measurements —
// every OS hiccup lands in some sample and the slowest sample gates the
// phase. Instead, unit costs are micro-calibrated once per process (fastest
// of repeated runs, so the numbers are real for this host and one slow
// moment of it does not inflate every later charge) and engines charge
// `count x unit` deterministically. This both removes the
// heavy-tailed measurement noise and makes simulations bit-for-bit
// reproducible.
//
// Coarse one-shot measurements (e.g. compressing a whole checkpoint) remain
// genuinely measured — a single large sample has no tail-amplification
// problem.
#pragma once

#include <cstdint>

#include "hash/block_hasher.hpp"
#include "sim/simulation.hpp"

namespace concord::core {

class CostModel {
 public:
  /// The process-wide calibrated instance (calibrated on first use).
  static const CostModel& instance();

  /// Hashing `bytes` of memory with `algo`. Calibrated on
  /// BlockHasher::hash_many (at the widest vector tier the host runs, so
  /// the unit costs follow the host's lane count), the path the scan,
  /// migration and the command's per-SE ground-truth pass (dispatch
  /// verification of SE blocks and the local phase) run. The few
  /// single-block rehashes left (verification of a participant's block,
  /// integrity scrub) are charged at that batched rate too.
  [[nodiscard]] sim::Time hash_cost(hash::Algorithm algo, std::size_t bytes) const {
    const double per_byte =
        algo == hash::Algorithm::kMd5 ? md5_ns_per_byte : superfast_ns_per_byte;
    return static_cast<sim::Time>(per_byte * static_cast<double>(bytes));
  }

  /// Reading/writing `bytes` of memory (memcpy-class work).
  [[nodiscard]] sim::Time touch_cost(std::size_t bytes) const {
    return static_cast<sim::Time>(touch_ns_per_byte * static_cast<double>(bytes));
  }

  /// Fixed overhead of invoking one service callback (dispatch, lookups).
  [[nodiscard]] sim::Time callback_cost() const {
    return static_cast<sim::Time>(callback_ns);
  }

  /// Enumerating `entries` DHT entries (scan + bitmap intersection).
  [[nodiscard]] sim::Time scan_cost(std::size_t entries) const {
    return static_cast<sim::Time>(entry_scan_ns * static_cast<double>(entries));
  }

  /// Compressing `bytes` with the cgz stream compressor.
  [[nodiscard]] sim::Time compress_cost(std::size_t bytes) const {
    return static_cast<sim::Time>(cgz_ns_per_byte * static_cast<double>(bytes));
  }

  // Calibrated unit costs, ns. Public so tests and reports can inspect them.
  double md5_ns_per_byte = 3.0;
  double superfast_ns_per_byte = 1.0;
  double touch_ns_per_byte = 0.05;
  double callback_ns = 250.0;
  double entry_scan_ns = 60.0;
  double cgz_ns_per_byte = 40.0;

  /// Runs the micro-calibration (minimum of repetitions). Exposed for tests;
  /// production code uses instance().
  static CostModel calibrate();
};

}  // namespace concord::core
