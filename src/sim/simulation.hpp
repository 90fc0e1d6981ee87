// Discrete-event simulation core for the emulated parallel machine.
//
// The paper evaluates ConCORD on physical clusters of 8–824 nodes; we stand
// those up as actors inside one deterministic event loop with a virtual
// nanosecond clock. Network latency/bandwidth/loss (src/net) and daemon
// processing delays are charged to virtual time, so end-to-end latencies and
// scaling *shapes* are faithful while the whole thing runs on one host.
// Events at equal timestamps fire in scheduling order, making every run
// bit-for-bit reproducible for a given seed.
//
// Besides the heap of closures, the loop holds at most one *sorted run*:
// caller-owned (time, seq, index) keys already in (time, seq) order, fired
// through one dispatcher. A scan epoch's fabric deliveries travel this way
// (net::Fabric::set_bulk). Each key carries the seq at() would have given
// its event (take_seq), and step() fires whichever of the run's front and
// the heap's top is smaller by (time, seq). Events therefore fire in exactly
// the order they would have had all on the heap, while a run entry costs no
// closure and no heap push or pop.
#pragma once

#include <cassert>
#include <cstdint>
#include <functional>
#include <limits>
#include <queue>
#include <span>
#include <vector>

#include "common/rng.hpp"

namespace concord::sim {

/// Virtual time in nanoseconds since simulation start.
using Time = std::int64_t;

inline constexpr Time kMicrosecond = 1'000;
inline constexpr Time kMillisecond = 1'000'000;
inline constexpr Time kSecond = 1'000'000'000;

/// One entry of a sorted run (Simulation::load_run).
struct RunKey {
  Time time;
  std::uint64_t seq;    // from Simulation::take_seq()
  std::uint32_t index;  // handed to the run's dispatcher
};

class Simulation {
 public:
  explicit Simulation(std::uint64_t seed = 42) : rng_(seed) {}

  Simulation(const Simulation&) = delete;
  Simulation& operator=(const Simulation&) = delete;

  [[nodiscard]] Time now() const noexcept { return now_; }
  [[nodiscard]] Rng& rng() noexcept { return rng_; }

  /// Schedules fn at absolute virtual time t (>= now).
  void at(Time t, std::function<void()> fn) {
    assert(t >= now_);
    queue_.push(Event{t, next_seq_++, std::move(fn)});
  }

  /// Schedules fn `dt` nanoseconds from now.
  void after(Time dt, std::function<void()> fn) { at(now_ + dt, std::move(fn)); }

  /// The sequence number the next at() would have used. An event deferred
  /// into a sorted run takes its seq here, where it would have called at().
  [[nodiscard]] std::uint64_t take_seq() noexcept { return next_seq_++; }

  /// Loads a sorted run: `keys` in (time, seq) order, every seq from
  /// take_seq() and every time >= now. Each entry fires as fire(index),
  /// merged with the heap by (time, seq). The caller keeps `keys` alive and
  /// unchanged until the run is consumed; the previous run must be.
  void load_run(std::span<const RunKey> keys, std::function<void(std::uint32_t)> fire) {
    assert(run_pos_ == run_.size());
    run_ = keys;
    run_pos_ = 0;
    run_fire_ = std::move(fire);
  }

  /// Runs one event; returns false if nothing is pending.
  bool step() {
    if (run_pos_ < run_.size() && (queue_.empty() || run_fires_first())) {
      const RunKey& k = run_[run_pos_++];
      now_ = k.time;
      run_fire_(k.index);
      return true;
    }
    if (queue_.empty()) return false;
    // priority_queue::top is const; the handler is moved out via const_cast,
    // which is safe because the element is popped before the handler runs.
    Event ev = std::move(const_cast<Event&>(queue_.top()));
    queue_.pop();
    now_ = ev.time;
    ev.fn();
    return true;
  }

  /// Runs until the heap and the run drain.
  void run() {
    while (step()) {
    }
  }

  /// Runs events with time <= deadline; the clock ends at
  /// max(now, deadline) even if the queue drains early.
  void run_until(Time deadline) {
    while (next_time() <= deadline && step()) {
    }
    if (now_ < deadline) now_ = deadline;
  }

  /// Heap events plus unfired run entries.
  [[nodiscard]] std::size_t pending_events() const noexcept {
    return queue_.size() + (run_.size() - run_pos_);
  }

 private:
  struct Event {
    Time time;
    std::uint64_t seq;  // FIFO among equal timestamps
    std::function<void()> fn;
  };
  struct Later {
    bool operator()(const Event& a, const Event& b) const noexcept {
      if (a.time != b.time) return a.time > b.time;
      return a.seq > b.seq;
    }
  };

  /// Whether the run's front precedes the heap's top (both non-empty).
  [[nodiscard]] bool run_fires_first() const noexcept {
    const RunKey& k = run_[run_pos_];
    const Event& e = queue_.top();
    return k.time < e.time || (k.time == e.time && k.seq < e.seq);
  }
  /// Time of the next event to fire; the maximum Time when none is pending.
  [[nodiscard]] Time next_time() const noexcept {
    Time t = queue_.empty() ? std::numeric_limits<Time>::max() : queue_.top().time;
    if (run_pos_ < run_.size() && run_[run_pos_].time < t) t = run_[run_pos_].time;
    return t;
  }

  Time now_ = 0;
  std::uint64_t next_seq_ = 0;
  std::priority_queue<Event, std::vector<Event>, Later> queue_;
  std::span<const RunKey> run_;
  std::size_t run_pos_ = 0;
  std::function<void(std::uint32_t)> run_fire_;
  Rng rng_;
};

}  // namespace concord::sim
