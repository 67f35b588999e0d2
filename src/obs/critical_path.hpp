// Critical-path analysis over a completed causal span DAG.
//
// Input: the spans (and optionally messages) of one traced run.  The
// analysis picks the slowest root family.attempt span, walks the causal
// tree under it — children are spans whose cross-lane `link` (preferred)
// or in-lane `parent` points at a tree member, restricted to the root's
// trace id — and produces:
//
//   - per-phase SELF-time attribution: each span's duration minus the part
//     covered by its children, so the per-phase totals sum to the root's
//     wall time (exactly under well-nested spans);
//   - the longest blocking chain: from the root, repeatedly descend into
//     the child with the largest duration;
//   - per-message-kind cost: count and accounted bytes of every message
//     the trace's spans sent (matched by the message's causal trace id).
#pragma once

#include <array>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "obs/span.hpp"

namespace lotec {

struct CriticalPathStep {
  std::uint64_t id = 0;
  SpanPhase phase = SpanPhase::kFamilyAttempt;
  std::uint64_t family = 0;
  std::uint32_t node = 0;
  std::uint64_t object = SpanRecord::kNoObject;
  std::uint64_t duration = 0;  ///< end - begin
  std::uint64_t self = 0;      ///< duration not covered by children
};

struct MessageKindCost {
  std::uint64_t messages = 0;
  std::uint64_t bytes = 0;
};

struct CriticalPath {
  std::uint64_t trace_id = 0;
  std::uint64_t root = 0;   ///< root span id (0 = no family.attempt found)
  std::uint64_t family = 0;
  std::uint32_t node = 0;
  std::uint64_t wall_ticks = 0;
  /// Self time per phase across the whole causal tree; sums to wall_ticks.
  std::array<std::uint64_t, kNumSpanPhases> phase_self{};
  /// Root-to-leaf chain of slowest children.
  std::vector<CriticalPathStep> chain;
  /// Message cost attributed to this trace, keyed by MessageKind name.
  std::map<std::string, MessageKindCost> by_kind;

  [[nodiscard]] bool valid() const noexcept { return root != 0; }
  [[nodiscard]] std::uint64_t phase_self_total() const noexcept {
    std::uint64_t total = 0;
    for (const std::uint64_t v : phase_self) total += v;
    return total;
  }
};

/// Analyze the slowest root family of a completed trace.  Returns an
/// invalid (root == 0) result when the trace has no family.attempt span.
[[nodiscard]] CriticalPath analyze_critical_path(
    const std::vector<SpanRecord>& spans,
    const std::vector<MessageRecord>& messages = {});

}  // namespace lotec
