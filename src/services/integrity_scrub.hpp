// IntegrityScrub: re-hash verification and quarantine-and-repair for the
// content-tracing DHT; the explicit-scrub trigger of DHT reconciliation
// (DESIGN.md §16 "DHT reconciliation").
//
// The audit (dht_audit.hpp) trusts the host's block map: an entry is clean
// if ground truth *says* the entity holds the content. Corruption breaks
// that trust from the other side — a bit-flipped update datagram (checksums
// off) plants a hash nobody ever held, and bit-rot in restored memory makes
// the block map itself a lie. The scrub closes the loop by re-hashing: an
// entry (h, e) at a shard member is verifiable only if some block of e,
// hashed *right now* with the site hasher, actually produces h.
//
// Entries that fail re-hash are *quarantined*: removed from the shard,
// counted on the dht/entries_quarantined gauge, and stamped into the
// member's flight-recorder ring. Quarantine alone leaves a coverage hole,
// so scrub_and_heal() repairs it the way every DHT gap is repaired: each
// quarantined member's home shard goes dirty and is streamed back from the
// group's donor, or, where no donor exists (always at R = 1), re-published
// from the hosts' block maps. A following verify pass that quarantines
// nothing certifies the heal; every pending quarantined entry is then
// credited to dht/entries_repaired, so a converged scrub always ends with
// entries_repaired == entries_quarantined.
#pragma once

#include <vector>

#include "core/cluster.hpp"

namespace concord::services {

struct ScrubReport {
  std::uint64_t entries_checked = 0;  // (hash, entity) pairs re-hashed
  std::uint64_t quarantined = 0;      // entries removed as unverifiable
  std::uint64_t repaired = 0;         // entries credited healed this call
  std::uint64_t rounds = 0;           // verify passes run (scrub_and_heal)
  sim::Time latency = 0;

  [[nodiscard]] bool clean() const noexcept { return quarantined == 0; }
};

class IntegrityScrub {
 public:
  explicit IntegrityScrub(core::Cluster& cluster);

  IntegrityScrub(const IntegrityScrub&) = delete;
  IntegrityScrub& operator=(const IntegrityScrub&) = delete;

  /// One verify pass over every alive shard: re-hashes each entry the
  /// current placement maps here and quarantines the failures. Entries
  /// whose authoritative host (or entity) is down or dead are skipped —
  /// unverifiable is not provably corrupt. Call from the top level only.
  ScrubReport scrub();

  static constexpr int kMaxRounds = 4;
  /// Verify/heal rounds until a pass quarantines nothing (or kMaxRounds
  /// is hit): scrub, heal the quarantine list through a donor stream or a
  /// block-map republish, re-verify. The terminating clean pass
  /// credits every pending quarantined entry as repaired.
  ScrubReport scrub_and_heal();

  /// Re-hash verification of one entry: true iff some block of `e`, hashed
  /// now on the entity's host, produces `h`. Also used by DhtAudit when a
  /// scrub is attached to it.
  [[nodiscard]] bool verify_entry(const ContentHash& h, EntityId e) const;

  /// Quarantines (h, e) at `member`: removes it from the shard, ticks
  /// dht/entries_quarantined, records kEntryQuarantined in the member's
  /// ring, and queues the entry for repair credit. Exposed for audit-time
  /// detection; scrub() uses it internally.
  void quarantine(NodeId member, const ContentHash& h, EntityId e);

  [[nodiscard]] std::uint64_t total_quarantined() const noexcept {
    return quarantined_.value();
  }
  [[nodiscard]] std::uint64_t total_repaired() const noexcept { return repaired_.value(); }
  /// Quarantined entries not yet certified healed by a clean verify pass.
  [[nodiscard]] std::size_t pending_repairs() const noexcept { return pending_.size(); }

 private:
  struct Quarantined {
    ContentHash hash;
    EntityId entity{};
    NodeId member{};
  };

  void heal();

  core::Cluster& cluster_;
  std::vector<Quarantined> pending_;
  obs::Counter& quarantined_;     // dht/entries_quarantined
  obs::Counter& repaired_;        // dht/entries_repaired
  obs::Counter& resync_shards_;   // dht/resync_shards (heal streams)
  obs::Counter& resync_records_;  // dht/resync_records
};

}  // namespace concord::services
