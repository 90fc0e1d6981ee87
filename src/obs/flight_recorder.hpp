// FlightRecorder: an always-on black box for postmortems.
//
// Every node gets a fixed-capacity ring of compact structured events —
// message sends/receives/drops/sheds, breaker transitions, epoch changes,
// command phase transitions, pressure actions. Recording is two appends
// (a slot store plus an index bump) into storage allocated once up front,
// so it rides in release builds unconditionally; unlike the tracer it keeps
// only the recent past, which is exactly what a postmortem needs when a
// command completes kDegraded, a breaker trips, or a DhtAudit pass finds
// drift. Those triggers call dump(): the rings are copied into a snapshot
// and the `obs/blackbox_dumps` counter ticks. The snapshot is formatted as
// deterministic JSON only when something reads it — last_dump(), or an
// optional sink (a bench writing artifacts, a test asserting on the dump),
// which receives the document at once — so a dump nobody reads costs one
// copy of the rings and no formatting.
// concord-lint: emit-path — bytes or messages produced here must not depend on
// hash-map iteration order.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <vector>

#include "obs/metrics.hpp"
#include "sim/simulation.hpp"

namespace concord::obs {

/// Event kinds, kept to one byte. The wire/metric layers record the first
/// group; control-plane layers (engine, detector, watchdog) the rest.
enum class FrEvent : std::uint8_t {
  kMsgSend,
  kMsgRecv,
  kMsgDrop,
  kMsgShed,
  kMsgBlackholed,
  kBreakerTrip,
  kBreakerFastFail,
  kEpochChange,
  kPhaseStart,
  kPhaseDone,
  kNodeExcluded,
  kPressure,
  kDegradedCommand,
  kAuditMismatch,
  kWatchdogViolation,
  kMsgCorrupt,         // checksum-verified datagram failed verification, dropped
  kEntryQuarantined,   // DHT entry failed re-hash verification, removed
  kEntryRepaired,      // quarantined entry healed (donor resync or republish)
  kCkptRecordBad,      // checkpoint record failed checksum / re-hash on restore
};

[[nodiscard]] std::string_view to_string(FrEvent e) noexcept;

/// One recorded event. `a` carries a small discriminant (message type,
/// phase number, status), `peer` the other node involved, `d1` a payload
/// detail (bytes, command id, epoch) — all optional per event kind.
struct FlightEvent {
  sim::Time ts = 0;
  FrEvent type{};
  std::uint16_t a = 0;
  std::uint32_t peer = 0;
  std::uint64_t d1 = 0;
};

class FlightRecorder {
 public:
  static constexpr std::size_t kDefaultCapacity = 512;

  using DumpSink = std::function<void(std::string_view reason, const std::string& json)>;

  /// `registry` receives the `obs/blackbox_dumps` counter.
  FlightRecorder(Registry& registry, std::uint32_t nodes,
                 std::size_t capacity = kDefaultCapacity);
  FlightRecorder(const FlightRecorder&) = delete;
  FlightRecorder& operator=(const FlightRecorder&) = delete;

  /// Records one event into `node`'s ring. Out-of-range nodes are dropped
  /// (standalone fabrics may address nodes the recorder never sized for).
  void record(std::uint32_t node, sim::Time ts, FrEvent type, std::uint16_t a = 0,
              std::uint32_t peer = 0, std::uint64_t d1 = 0) noexcept;

  /// Records a site-wide event (epoch change, watchdog finding) into every
  /// ring, so any single node's dump shows it in context.
  void record_all(sim::Time ts, FrEvent type, std::uint16_t a = 0, std::uint32_t peer = 0,
                  std::uint64_t d1 = 0) noexcept;

  /// Sink invoked on every dump() with (reason, json).
  void set_sink(DumpSink sink) { sink_ = std::move(sink); }

  /// Snapshots all rings and the reason (last_dump()/last_reason()), bumps
  /// the dump counter, and fires the sink with the formatted snapshot.
  void dump(std::string_view reason);

  [[nodiscard]] std::uint64_t dumps() const noexcept { return dump_cell_.value(); }
  /// to_json_all(reason) as it read at the last dump(); formatted from the
  /// snapshot on first read. Empty before any dump.
  [[nodiscard]] const std::string& last_dump() const;
  [[nodiscard]] const std::string& last_reason() const noexcept { return last_reason_; }

  /// JSON for one node's ring, oldest event first.
  [[nodiscard]] std::string to_json(std::uint32_t node) const;
  /// JSON document covering every ring: {"reason":...,"capacity":...,
  /// "nodes":[...]}.
  [[nodiscard]] std::string to_json_all(std::string_view reason) const;

  [[nodiscard]] std::uint32_t nodes() const noexcept {
    return static_cast<std::uint32_t>(rings_.size());
  }
  [[nodiscard]] std::size_t capacity() const noexcept { return capacity_; }
  /// Events ever recorded on `node` (can exceed capacity; the ring keeps the
  /// newest `capacity()` of them).
  [[nodiscard]] std::uint64_t recorded(std::uint32_t node) const noexcept;

 private:
  struct Ring {
    std::vector<FlightEvent> ev;  // reserved to capacity_ once, never grows
    std::size_t head = 0;         // next overwrite slot once full
    std::uint64_t total = 0;      // events ever recorded
  };

  static void append_ring_json(std::string& out, std::uint32_t node, const Ring& r);
  [[nodiscard]] std::string rings_json(std::string_view reason,
                                       const std::vector<Ring>& rings) const;

  const std::size_t capacity_;  // immutable after construction
  // concord-lint: unguarded(event-loop confined: record()/dump() run only on
  // the simulation thread — scan-pool workers deliver no messages, so no ring
  // is ever touched concurrently; adding a lock here would tax every send)
  std::vector<Ring> rings_;
  // concord-lint: unguarded(event-loop confined, as rings_)
  Counter& dump_cell_;  // obs/blackbox_dumps
  // concord-lint: unguarded(event-loop confined, as rings_)
  DumpSink sink_;
  // concord-lint: unguarded(event-loop confined, as rings_)
  std::vector<Ring> snapshot_;  // rings_ as the last dump() found them
  // concord-lint: unguarded(event-loop confined, as rings_)
  mutable std::string last_dump_;  // snapshot_ formatted, once pending_ clears
  // concord-lint: unguarded(event-loop confined, as rings_)
  mutable bool pending_ = false;  // snapshot_ not yet formatted into last_dump_
  // concord-lint: unguarded(event-loop confined, as rings_)
  std::string last_reason_;
};

}  // namespace concord::obs
