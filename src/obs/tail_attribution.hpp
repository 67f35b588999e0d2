// Population-level tail-latency attribution (PROTOCOL.md §16).
//
// The critical-path analysis (PR 5) decomposes ONE family — the slowest —
// into per-phase self time.  This module generalizes that decomposition to
// EVERY root family attempt in a trace: each attempt's sojourn is classified
// into exclusive phase buckets (lock wait, GDO round, page gather, execute,
// undo, commit report, snapshot, wire, other), and attempts are
// then grouped into percentile bands by sojourn so the report can answer
// "what do the p99.9 outliers spend their time on that the median does not".
//
// The bucket decomposition is exact by construction: every span interval is
// clipped to its parent's (already-clipped) interval before self time is
// measured, so each logical tick of a root's [begin, end) is attributed to
// exactly one bucket — the deepest span covering it — and the buckets of one
// attempt sum to its sojourn ticks identically (asserted by the
// deterministic-scheduler test, like the PR 5 self-time identity).
#pragma once

#include <array>
#include <cstdint>
#include <iosfwd>
#include <string_view>
#include <vector>

#include "obs/span.hpp"

namespace lotec {

/// Exclusive sojourn buckets.  Coarser than SpanPhase on purpose: the
/// question is "what protocol activity stalled this family", not which
/// specific span type ran.
enum class TailBucket : std::uint8_t {
  kLockWait = 0,  ///< lock.acquire / lock.inherit / cache.callback_round /
                  ///< lock.grant
  kGdoRound,      ///< gdo.round / gdo.serve
  kPageGather,    ///< page.gather / page.serve
  kExecute,       ///< method.execute
  kUndo,          ///< txn.undo
  kCommitReport,  ///< commit.report
  kSnapshot,      ///< snapshot.map_round / snapshot.fetch (mv_read)
  kWire,          ///< wire.deliver (worker-side frame delivery)
  kOther,         ///< root self time: scheduling, retries, fault events,
                  ///< batch flushes — everything no child span covers
};

inline constexpr std::size_t kNumTailBuckets = 9;

[[nodiscard]] std::string_view to_string(TailBucket bucket) noexcept;
[[nodiscard]] TailBucket tail_bucket_for(SpanPhase phase) noexcept;

/// One root family attempt's decomposition.
struct AttemptAttribution {
  std::uint64_t root = 0;    ///< family.attempt span id
  std::uint64_t family = 0;
  std::uint64_t trace = 0;
  std::uint32_t node = 0;
  std::uint64_t sojourn = 0;  ///< end - begin, logical ticks
  std::array<std::uint64_t, kNumTailBuckets> buckets{};
};

/// One percentile band of the attempt population, by sojourn.
struct TailBand {
  std::string_view label;     ///< "p0-50", ..., "p99.9-100"
  std::uint64_t attempts = 0;
  std::uint64_t sojourn = 0;  ///< total ticks in the band
  std::array<std::uint64_t, kNumTailBuckets> buckets{};

  /// Bucket share of the band's total sojourn, in [0, 1] (0 on an empty
  /// band).
  [[nodiscard]] double share(TailBucket b) const noexcept {
    return sojourn == 0
               ? 0.0
               : static_cast<double>(
                     buckets[static_cast<std::size_t>(b)]) /
                     static_cast<double>(sojourn);
  }
};

inline constexpr std::size_t kNumTailBands = 5;

struct TailAttribution {
  std::vector<AttemptAttribution> attempts;  ///< sorted by sojourn ascending
  std::array<TailBand, kNumTailBands> bands{};

  [[nodiscard]] bool empty() const noexcept { return attempts.empty(); }
};

/// Decompose every root family attempt in `spans`.  Bands split the sorted
/// population at p50 / p90 / p99 / p99.9 (an attempt belongs to exactly one
/// band; small populations leave the upper bands empty).
[[nodiscard]] TailAttribution analyze_tail_attribution(
    const std::vector<SpanRecord>& spans);

/// Human-readable band table (the `trace_report --tail-attribution` output).
void write_tail_attribution(const TailAttribution& ta, std::ostream& os);

}  // namespace lotec
