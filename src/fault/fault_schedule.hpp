// Declarative fault schedules for the deterministic fault engine.
//
// A FaultConfig is pure data: a list of one-shot events (crash, restart,
// partition open/heal, targeted message kills) anchored to the engine's
// logical clock or to the Nth message of a kind, plus per-message
// probabilities for background message chaos (drop / duplicate / delay).
// All of it is evaluated by FaultEngine under the token-passing scheduler,
// so the same seed and schedule reproduce the same fault trace bit for bit.
//
// Logical time: the clock advances by one tick per message that passes the
// Transport choke point.  Expressing triggers and lock leases in message
// ticks (not wall time) is what keeps injection deterministic.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "common/ids.hpp"
#include "net/message.hpp"

namespace lotec {

/// What a schedule event does when it fires.
enum class FaultAction : std::uint8_t {
  kCrashNode,       ///< node dies: unreachable; store + cached GDO state wiped
  kRestartNode,     ///< node returns: durable pages restored, GDO rebuilt
  kPartitionStart,  ///< cut the links between two node groups
  kPartitionHeal,   ///< restore the cut links
  kDropMessage,     ///< kill exactly the triggering message
};

[[nodiscard]] constexpr const char* to_string(FaultAction a) noexcept {
  switch (a) {
    case FaultAction::kCrashNode: return "crash";
    case FaultAction::kRestartNode: return "restart";
    case FaultAction::kPartitionStart: return "partition";
    case FaultAction::kPartitionHeal: return "heal";
    case FaultAction::kDropMessage: return "drop";
  }
  return "?";
}

/// How a crash/drop event picks its node when triggered by a message
/// (kFixed uses FaultEvent::node and works with tick triggers too).
enum class FaultTarget : std::uint8_t { kFixed, kMessageSrc, kMessageDst };

struct FaultEvent {
  FaultAction action = FaultAction::kCrashNode;

  // --- trigger: exactly one of the two forms --------------------------------
  /// Fire when the logical clock reaches this tick (0 = disabled; the clock
  /// starts at 1 with the first message).
  std::uint64_t at_tick = 0;
  /// Alternative trigger: fire on the `nth` message of kind `on_kind`
  /// (1-based).  This is how tests park a crash exactly inside a commit's
  /// release batch or a page gather.
  std::optional<MessageKind> on_kind;
  std::uint64_t nth = 1;

  // --- target ---------------------------------------------------------------
  FaultTarget target = FaultTarget::kFixed;
  NodeId node{};  ///< kFixed crash/restart target
  /// Partition events cut every link between the two groups (both ways).
  std::vector<NodeId> group_a;
  std::vector<NodeId> group_b;
};

struct FaultConfig {
  std::vector<FaultEvent> events;

  /// Background message chaos, applied per interruptible message (request /
  /// fetch traffic; see FaultEngine for the kind whitelist).
  double drop_probability = 0.0;
  double duplicate_probability = 0.0;
  double delay_probability = 0.0;
  /// Ticks of latency charged per delayed message (accounting only; the
  /// synchronous emulation cannot reorder a send).
  std::uint64_t delay_ticks = 4;

  /// Seed of the engine's private RNG (probability faults).
  std::uint64_t seed = 1;

  /// Lease term, in logical ticks, attached to every global lock grant.
  /// Bounds how long a crashed family's orphaned locks can block survivors.
  std::uint64_t lease_term_ticks = 48;

  /// Install the Transport hooks even when no fault is configured — the
  /// zero-overhead ablation runs the full engine pipeline with every fault
  /// off and asserts byte-identical traffic.
  bool install_hooks = false;

  [[nodiscard]] bool enabled() const noexcept {
    return install_hooks || !events.empty() || drop_probability > 0.0 ||
           duplicate_probability > 0.0 || delay_probability > 0.0;
  }

  [[nodiscard]] bool has_node_faults() const noexcept {
    for (const FaultEvent& e : events)
      if (e.action == FaultAction::kCrashNode ||
          e.action == FaultAction::kRestartNode)
        return true;
    return false;
  }
};

// --- scenario presets -------------------------------------------------------

namespace fault_presets {

/// Crash `node` at `crash_tick`, restart it at `restart_tick`.
inline FaultConfig crash_restart(NodeId node, std::uint64_t crash_tick,
                                 std::uint64_t restart_tick) {
  FaultConfig cfg;
  FaultEvent crash;
  crash.action = FaultAction::kCrashNode;
  crash.at_tick = crash_tick;
  crash.node = node;
  FaultEvent restart;
  restart.action = FaultAction::kRestartNode;
  restart.at_tick = restart_tick;
  restart.node = node;
  cfg.events = {crash, restart};
  return cfg;
}

/// Background message chaos only (no node faults).
inline FaultConfig message_chaos(std::uint64_t seed, double drop, double dup,
                                 double delay) {
  FaultConfig cfg;
  cfg.seed = seed;
  cfg.drop_probability = drop;
  cfg.duplicate_probability = dup;
  cfg.delay_probability = delay;
  return cfg;
}

/// Cut the links between two groups over [start_tick, heal_tick).
inline FaultConfig partition_window(std::vector<NodeId> group_a,
                                    std::vector<NodeId> group_b,
                                    std::uint64_t start_tick,
                                    std::uint64_t heal_tick) {
  FaultConfig cfg;
  FaultEvent cut;
  cut.action = FaultAction::kPartitionStart;
  cut.at_tick = start_tick;
  cut.group_a = group_a;
  cut.group_b = group_b;
  FaultEvent heal;
  heal.action = FaultAction::kPartitionHeal;
  heal.at_tick = heal_tick;
  heal.group_a = std::move(group_a);
  heal.group_b = std::move(group_b);
  cfg.events = {std::move(cut), std::move(heal)};
  return cfg;
}

/// The acceptance chaos scenario: crash + restart two nodes (typically a
/// directory home and a page-holding site) mid-workload, with mild
/// background message drop.
inline FaultConfig chaos(NodeId first, NodeId second, std::uint64_t seed,
                         std::uint64_t first_crash_tick = 60,
                         std::uint64_t window = 120, double drop = 0.01) {
  FaultConfig cfg = crash_restart(first, first_crash_tick,
                                  first_crash_tick + window);
  const FaultConfig more =
      crash_restart(second, first_crash_tick + 2 * window,
                    first_crash_tick + 3 * window);
  cfg.events.insert(cfg.events.end(), more.events.begin(), more.events.end());
  cfg.seed = seed;
  cfg.drop_probability = drop;
  return cfg;
}

}  // namespace fault_presets

/// One entry of the engine's fault trace (what fired, when, to whom).
struct FaultRecord {
  std::uint64_t tick = 0;
  FaultAction action{};
  NodeId node{};          ///< crash/restart target (invalid for partitions)
  MessageKind kind{};     ///< triggering/affected message kind
  ObjectId object{};      ///< object of the affected message, if any

  friend bool operator==(const FaultRecord&, const FaultRecord&) = default;
};

/// Counters the recovery machinery bumps (reported by bench/tools).
struct FaultStats {
  std::uint64_t messages_seen = 0;
  std::uint64_t dropped = 0;
  std::uint64_t duplicated = 0;
  std::uint64_t delayed = 0;
  std::uint64_t delay_ticks_total = 0;
  std::uint64_t partition_drops = 0;
  std::uint64_t crashes = 0;
  std::uint64_t restarts = 0;
  std::uint64_t pages_restored = 0;
  std::uint64_t gdo_entries_rebuilt = 0;
  std::uint64_t locks_reclaimed = 0;
  std::uint64_t waiters_purged = 0;
};

}  // namespace lotec
