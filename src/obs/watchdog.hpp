// Watchdog: declarative invariants checked in-loop, not in postmortems.
//
// Cheap Recovery's lesson (PAPERS.md) is that self-managing state needs
// continuous, cheap monitoring of its own invariants — waiting for a test
// to fail externalizes the cost of every silent accounting bug. The
// watchdog holds a catalog of named checks (closures over the metric
// registry and cluster structures: the fabric's conservation identity, DHT
// gauge-vs-structure consistency, credit-purse non-negativity,
// breaker/suspicion wiring) and evaluates them at quiescent points — scan
// epochs, end of benches, between chaos rounds. Evaluations tick
// `obs/watchdog_runs`; findings tick `obs/watchdog_violations` and the
// invariant's own `obs/watchdog_viol.<name>` (all resolved before the first
// evaluation and zero until then), fire a violation hook (the cluster wires
// it to a flight-recorder dump), and optionally hard-fail the process — the
// mode tests and `--smoke` benches run under.
// concord-lint: emit-path — bytes or messages produced here must not depend on
// hash-map iteration order.
#pragma once

#include <functional>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "obs/metrics.hpp"

namespace concord::obs {

class Watchdog {
 public:
  /// A check returns std::nullopt when the invariant holds, or a short
  /// human-readable detail of the violation.
  using Check = std::function<std::optional<std::string>()>;

  struct Finding {
    std::string invariant;
    std::string detail;
  };

  using ViolationHook = std::function<void(const Finding&)>;

  explicit Watchdog(Registry& registry)
      : registry_(registry),
        runs_(registry.counter("obs", "watchdog_runs")),
        violations_(registry.counter("obs", "watchdog_violations")) {}
  Watchdog(const Watchdog&) = delete;
  Watchdog& operator=(const Watchdog&) = delete;

  /// Registers a named invariant and resolves its obs/watchdog_viol.<name>
  /// cell. Evaluation order is registration order (deterministic).
  void add_invariant(std::string name, Check check);

  /// When set, any violation aborts the process after reporting — the mode
  /// tests and bench --smoke runs use so regressions cannot scroll past.
  void set_hard_fail(bool on) noexcept { hard_fail_ = on; }
  [[nodiscard]] bool hard_fail() const noexcept { return hard_fail_; }

  /// Hook fired once per violating invariant per evaluation (before any
  /// hard-fail abort).
  void on_violation(ViolationHook hook) { hook_ = std::move(hook); }

  /// Runs every invariant once. Returns the number of violations found in
  /// this pass; details are kept in last_findings().
  std::size_t evaluate();

  [[nodiscard]] std::uint64_t runs() const noexcept { return runs_.value(); }
  [[nodiscard]] std::uint64_t violations() const noexcept { return violations_.value(); }
  [[nodiscard]] const std::vector<Finding>& last_findings() const noexcept {
    return last_findings_;
  }
  [[nodiscard]] std::size_t invariant_count() const noexcept { return invariants_.size(); }

 private:
  struct Invariant {
    std::string name;
    Check check;
    Counter* violations;  // obs/watchdog_viol.<name>
  };

  Registry& registry_;
  Counter& runs_;
  Counter& violations_;
  std::vector<Invariant> invariants_;
  ViolationHook hook_;
  bool hard_fail_ = false;
  std::vector<Finding> last_findings_;
};

}  // namespace concord::obs
