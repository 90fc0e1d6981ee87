// The content-aware service command callback interface (Fig. 4).
//
// An application service is a parametrization of ConCORD's single generic
// query: the developer implements these callbacks and the engine
// (command_engine.hpp) executes them across the machine in four stages —
// service initialization, the best-effort *collective* phase driven by the
// DHT, the ground-truth *local* phase, and teardown.
//
// The paper's C interface threads an opaque `private_service_state` pointer
// through every callback; in this C++ rendering a service object holds its
// own per-node state (callbacks receive the NodeId they execute on), which
// is the same contract without the void*.
//
// Callbacks execute "on a node": the engine charges their measured cost to
// that node's virtual timeline, so a slow callback slows exactly the node
// that runs it.
#pragma once

#include <optional>
#include <span>

#include "common/config.hpp"
#include "common/status.hpp"
#include "common/types.hpp"

namespace concord::svc {

/// Role of an entity in a command's scope (§4.2): service entities (SEs)
/// are operated *on*; participating entities (PEs) merely contribute
/// content replicas.
enum class Role : std::uint8_t { kService, kParticipant };

/// Execution mode (§4.2). In interactive mode callbacks apply their effect
/// immediately; in batch mode the service records a plan and applies it
/// during local_finalize()/service_deinit(). The engine's protocol is
/// identical — the mode is a contract with the service.
enum class Mode : std::uint8_t { kInteractive, kBatch };

class ApplicationService {
 public:
  virtual ~ApplicationService() = default;

  // ----- service initialization -----

  /// Executed once on each node holding a service or participating entity.
  [[nodiscard]] virtual Status service_init(NodeId node, Mode mode, const Config& config) = 0;

  // ----- collective phase -----

  /// Executed exactly once per scope entity, on its host node. `partial` is
  /// the advisory set of content hashes the local DHT shard believes the
  /// entity contains (a "slice of life", possibly stale and incomplete).
  [[nodiscard]] virtual Status collective_start(NodeId node, Role role, EntityId entity,
                                  std::span<const ContentHash> partial) = 0;

  /// Optional replica choice: given a hash and the candidate entities that
  /// appear to hold it, pick one. Returning nullopt lets ConCORD choose at
  /// random. Invoked on the shard-owner node driving the hash.
  virtual std::optional<EntityId> collective_select(NodeId node, const ContentHash& hash,
                                                    std::span<const EntityId> candidates) {
    (void)node;
    (void)hash;
    (void)candidates;
    return std::nullopt;
  }

  /// The per-distinct-hash work, invoked on the node hosting the selected
  /// replica with a pointer to verified local content for `hash`. Returns
  /// an opaque 64-bit private value on success (e.g. a file offset); the
  /// engine redistributes it to SE hosts as the "handled" information
  /// consumed by local_command(). A failure marks the hash unhandled.
  [[nodiscard]] virtual Result<std::uint64_t> collective_command(NodeId node, EntityId entity,
                                                   const ContentHash& hash,
                                                   std::span<const std::byte> data) = 0;

  /// Per scope entity, after every relevant hash has been driven. Acts as a
  /// barrier.
  [[nodiscard]] virtual Status collective_finalize(NodeId node, Role role, EntityId entity) = 0;

  // ----- local phase (service entities only) -----

  [[nodiscard]] virtual Status local_start(NodeId node, EntityId entity) = 0;

  /// Invoked for every memory block of every SE, with the block's *current*
  /// content and hash (ground truth, hashed during this command). `handled`
  /// is the private value from a successful collective_command() for this
  /// hash, or nullptr if ConCORD did not handle it (unknown, stale, or the
  /// handled notification was lost) — the service must then cover the block
  /// itself.
  [[nodiscard]] virtual Status local_command(NodeId node, EntityId entity, BlockIndex block,
                               const ContentHash& hash, std::span<const std::byte> data,
                               const std::uint64_t* handled) = 0;

  [[nodiscard]] virtual Status local_finalize(NodeId node, EntityId entity) = 0;

  // ----- teardown -----

  /// Executed on each scope node; interprets final state to declare the
  /// service's overall success.
  [[nodiscard]] virtual Status service_deinit(NodeId node) = 0;
};

}  // namespace concord::svc
