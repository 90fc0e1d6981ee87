// Causal trace context carried (optionally) by every datagram.
//
// A command or scan names a *root* id; each hop records the span it was
// sent under as *parent*. Sixteen bytes on the wire — and only on the wire
// when tracing is actually on: the codec emits them behind the traced flag
// bit of its version byte, so a tracing-off datagram carries none of them.
// A zero root means "no context"; root ids are
// allocated from disjoint spaces (command ids, scan roots with the top bit
// set) so one trace file can carry both without collision.
#pragma once

#include <cstdint>

namespace concord::net {

struct TraceContext {
  std::uint64_t root = 0;    // command id / scan root; 0 == untraced
  std::uint64_t parent = 0;  // span id of the sending hop (informational)

  [[nodiscard]] constexpr bool valid() const noexcept { return root != 0; }

  friend constexpr bool operator==(const TraceContext&, const TraceContext&) = default;
};

/// Wire bytes a traced datagram adds between the codec header and body.
inline constexpr std::size_t kTraceCtxBytes = 8 + 8;

}  // namespace concord::net
