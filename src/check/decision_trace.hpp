// DecisionTrace: the recorded nondeterminism of one explored schedule.
//
// Under the token scheduler every interleaving choice funnels through one
// decision point (TokenScheduler::schedule_next's pick among the
// runnable families plus the optional spawn slot).  The picker is consulted
// only when more than one choice exists, so a schedule is fully determined
// by the sequence of (k, pick) pairs — k choices offered, pick taken.
// Replaying the same trace against a fresh cluster with the same seed and
// workload reproduces the run bit-identically (same messages, same events,
// same violation), which is what makes counterexamples minimizable and
// shippable as CI artifacts.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace lotec::check {

struct Decision {
  std::uint32_t k = 0;     ///< choices offered (>= 2 whenever recorded)
  std::uint32_t pick = 0;  ///< chosen index in [0, k)

  friend bool operator==(const Decision&, const Decision&) = default;
};

struct DecisionTrace {
  std::vector<Decision> decisions;

  /// Replay convention (ReplayStrategy): a pick out of range for the k the
  /// scheduler actually offers — or a decision point past the end of the
  /// trace — falls back to choice 0.  This makes every edited trace (ddmin
  /// zeroing, truncation) a valid schedule, just not necessarily the same
  /// one.
  [[nodiscard]] std::size_t nonzero_picks() const noexcept;

  /// Text form: a header line, then one "k pick" pair per line.
  [[nodiscard]] std::string serialize() const;
  /// Inverse of serialize(); throws Error on malformed input.
  static DecisionTrace parse(const std::string& text);

  friend bool operator==(const DecisionTrace&, const DecisionTrace&) =
      default;
};

}  // namespace lotec::check
