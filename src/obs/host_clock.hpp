// The one sanctioned host-clock access point.
//
// Everything else in the tree runs on the simulation's virtual clock so runs
// replay bit-for-bit; concord-lint (rule D1, concord-determinism) bans the
// <chrono> clocks everywhere except this header, the rest of src/obs,
// common/rng and src/sim. Code that genuinely needs to *measure* host time — the
// cost-model calibration and the "charge a local computation to virtual time"
// pattern in the query/service engines — goes through these helpers, which
// keeps every such site greppable and auditable.
//
// Values returned here must never be folded into emitted bytes (snapshots,
// wire payloads, checkpoint contents); they may only be charged to the
// virtual clock as a duration or printed in human-facing reports.
#pragma once

#include <chrono>
#include <cstdint>

namespace concord::obs {

/// Monotonic host time in nanoseconds. Not comparable across processes.
[[nodiscard]] inline std::int64_t host_now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Host-clock nanoseconds spent in fn(): the measurement half of the
/// "run locally, charge virtually" idiom.
template <typename Fn>
[[nodiscard]] inline std::int64_t host_timed_ns(Fn&& fn) {
  const std::int64_t t0 = host_now_ns();
  fn();
  return host_now_ns() - t0;
}

}  // namespace concord::obs
