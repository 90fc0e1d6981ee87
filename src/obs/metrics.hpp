// Unified metrics registry for every ConCORD subsystem.
//
// The paper's evaluation (Figs. 5-17, §5) is assembled from per-subsystem
// counters; this registry gives them one home so numbers can be correlated
// per node, per subsystem, and per metric instead of being scattered across
// ad-hoc structs. Design constraints:
//
//   * Every cell exists from its owner's construction. Each component gets
//     its registry once, in its constructor (given_or_owned), calls
//     counter()/gauge()/histogram() there for every cell it will ever
//     increment, and keeps the returned references; no map lookup, lock,
//     null check or atomic is ever on the instrumented path, and a cell
//     whose event never happens reads zero in every snapshot. Cells live in
//     std::map nodes, so references stay stable forever. Resolution takes a
//     mutex so the map insertion stays safe whichever thread constructs an
//     owner; the sharded scan workers (ClusterParams::sim_workers) touch
//     disjoint per-node cells, so increments stay plain adds.
//   * Snapshots are deterministic: metrics are ordered by (subsystem, name,
//     node) and serialized with integer-only formatting, so two identical
//     simulated runs produce byte-identical JSON/CSV.
//   * Existing public stats structs (net::NodeTraffic, svc::CommandStats,
//     mem::ScanStats) remain as thin views materialized from these cells.
// concord-lint: emit-path — bytes or messages produced here must not depend on
// hash-map iteration order.
#pragma once

#include <array>
#include <bit>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <variant>

#include "common/thread_annotations.hpp"

namespace concord::obs {

/// Monotonic event count.
class Counter {
 public:
  void inc(std::uint64_t n = 1) noexcept { v_ += n; }
  [[nodiscard]] std::uint64_t value() const noexcept { return v_; }
  void reset() noexcept { v_ = 0; }

 private:
  std::uint64_t v_ = 0;
};

/// Instantaneous level (occupancy, bytes held, ...).
class Gauge {
 public:
  void set(std::int64_t v) noexcept { v_ = v; }
  void add(std::int64_t d) noexcept { v_ += d; }
  [[nodiscard]] std::int64_t value() const noexcept { return v_; }
  void reset() noexcept { v_ = 0; }

 private:
  std::int64_t v_ = 0;
};

/// Log-scale (power-of-two bucket) histogram of non-negative samples.
/// Bucket i counts samples whose bit width is i: bucket 0 holds the value 0,
/// bucket i (i >= 1) holds [2^(i-1), 2^i). 65 buckets cover all of uint64.
class Histogram {
 public:
  static constexpr std::size_t kBuckets = 65;

  static constexpr std::size_t bucket_of(std::uint64_t v) noexcept {
    return static_cast<std::size_t>(std::bit_width(v));
  }
  /// Smallest value landing in bucket i.
  static constexpr std::uint64_t bucket_floor(std::size_t i) noexcept {
    return i == 0 ? 0 : std::uint64_t{1} << (i - 1);
  }

  void record(std::uint64_t v) noexcept {
    ++buckets_[bucket_of(v)];
    ++count_;
    sum_ += v;
    if (count_ == 1 || v < min_) min_ = v;
    if (v > max_) max_ = v;
  }

  [[nodiscard]] std::uint64_t count() const noexcept { return count_; }
  [[nodiscard]] std::uint64_t sum() const noexcept { return sum_; }
  [[nodiscard]] std::uint64_t min() const noexcept { return count_ == 0 ? 0 : min_; }
  [[nodiscard]] std::uint64_t max() const noexcept { return max_; }
  [[nodiscard]] std::uint64_t bucket(std::size_t i) const noexcept { return buckets_[i]; }
  /// Mean rounded down; 0 when empty.
  [[nodiscard]] std::uint64_t mean() const noexcept { return count_ == 0 ? 0 : sum_ / count_; }

  void reset() noexcept { *this = Histogram{}; }

 private:
  std::array<std::uint64_t, kBuckets> buckets_{};
  std::uint64_t count_ = 0;
  std::uint64_t sum_ = 0;
  std::uint64_t min_ = 0;
  std::uint64_t max_ = 0;
};

/// Labels one metric: which subsystem emitted it, what it measures, and
/// which node it belongs to (kSiteWide for cluster-global metrics).
struct MetricKey {
  std::string subsystem;
  std::string name;
  std::int32_t node;

  friend auto operator<=>(const MetricKey&, const MetricKey&) = default;
};

class Registry {
 public:
  static constexpr std::int32_t kSiteWide = -1;

  Registry() = default;
  Registry(const Registry&) = delete;
  Registry& operator=(const Registry&) = delete;

  /// Returns the uniquely-labeled cell, creating it if absent. Call from the
  /// owner's constructor: the reference stays valid for the registry's
  /// lifetime, so resolve once and keep it. Requesting an existing key with
  /// a different kind aborts.
  Counter& counter(std::string_view subsystem, std::string_view name,
                   std::int32_t node = kSiteWide);
  Gauge& gauge(std::string_view subsystem, std::string_view name,
               std::int32_t node = kSiteWide);
  Histogram& histogram(std::string_view subsystem, std::string_view name,
                       std::int32_t node = kSiteWide);

  /// Sums a counter over every node label (including kSiteWide).
  [[nodiscard]] std::uint64_t counter_total(std::string_view subsystem,
                                            std::string_view name) const;
  /// Sums a gauge over every node label.
  [[nodiscard]] std::int64_t gauge_total(std::string_view subsystem,
                                         std::string_view name) const;

  [[nodiscard]] std::size_t size() const noexcept { return metrics_.size(); }

  /// Zeroes every metric (registrations and resolved references survive).
  void reset();
  /// Zeroes only the metrics of one subsystem.
  void reset(std::string_view subsystem);

  /// Deterministic snapshot: {"counters":[...],"gauges":[...],
  /// "histograms":[...]}, each sorted by (subsystem, name, node).
  [[nodiscard]] std::string to_json() const;
  /// One line per metric: kind,subsystem,name,node,value,count,sum,min,max.
  [[nodiscard]] std::string to_csv() const;

  using Cell = std::variant<Counter, Gauge, Histogram>;

  /// Invokes fn(key, cell) in deterministic key order.
  template <typename Fn>
  void for_each(Fn&& fn) const {
    for (const auto& [key, cell] : metrics_) fn(key, cell);
  }

 private:
  template <typename T>
  T& resolve(std::string_view subsystem, std::string_view name, std::int32_t node)
      CONCORD_EXCLUDES(resolve_mu_);

  // std::map node stability is what makes resolved references permanent.
  // concord-lint: unguarded(resolve_mu_ guards insertion only; reads —
  // for_each, totals, snapshots — run at quiescent points with no resolver
  // in flight, and cell mutation stays on disjoint per-node cells)
  std::map<MetricKey, Cell> metrics_;
  // Guards the map insertion in resolve(); see the header comment.
  common::Mutex resolve_mu_;
};

/// The registry a component accounts into for its whole life: `given` when
/// non-null, else a private one created into `owned` (a component built
/// standalone, as tests and benches do).
inline Registry& given_or_owned(Registry* given, std::unique_ptr<Registry>& owned) {
  if (given != nullptr) return *given;
  owned = std::make_unique<Registry>();
  return *owned;
}

}  // namespace concord::obs
