#include "obs/tail_attribution.hpp"

#include <algorithm>
#include <iomanip>
#include <ostream>
#include <unordered_map>
#include <unordered_set>

namespace lotec {

std::string_view to_string(TailBucket bucket) noexcept {
  switch (bucket) {
    case TailBucket::kLockWait: return "lock_wait";
    case TailBucket::kGdoRound: return "gdo_round";
    case TailBucket::kPageGather: return "page_gather";
    case TailBucket::kExecute: return "execute";
    case TailBucket::kUndo: return "undo";
    case TailBucket::kCommitReport: return "commit_report";
    case TailBucket::kSnapshot: return "snapshot";
    case TailBucket::kWire: return "wire";
    case TailBucket::kOther: return "other";
  }
  return "unknown";
}

TailBucket tail_bucket_for(SpanPhase phase) noexcept {
  switch (phase) {
    case SpanPhase::kLockAcquire:
    case SpanPhase::kLockInherit:
    case SpanPhase::kCallbackRound:
    case SpanPhase::kLockGrant:
      return TailBucket::kLockWait;
    case SpanPhase::kGdoRound:
    case SpanPhase::kGdoServe:
      return TailBucket::kGdoRound;
    case SpanPhase::kPageGather:
    case SpanPhase::kPageServe:
      return TailBucket::kPageGather;
    case SpanPhase::kMethodExecute:
      return TailBucket::kExecute;
    case SpanPhase::kUndo:
      return TailBucket::kUndo;
    case SpanPhase::kCommitReport:
      return TailBucket::kCommitReport;
    case SpanPhase::kSnapshotMapRound:
    case SpanPhase::kSnapshotFetch:
      return TailBucket::kSnapshot;
    case SpanPhase::kWireDeliver:
      return TailBucket::kWire;
    case SpanPhase::kFamilyAttempt:
    case SpanPhase::kFaultEvent:
    case SpanPhase::kBatchFlush:
      return TailBucket::kOther;
  }
  return TailBucket::kOther;
}

namespace {

/// Causal tree-parent: cross-lane link when present, in-lane parent
/// otherwise (same rule as the critical-path analysis).
std::uint64_t tree_parent(const SpanRecord& span) noexcept {
  return span.link != 0 ? span.link : span.parent;
}

struct Interval {
  std::uint64_t lo;
  std::uint64_t hi;
};

/// Attribute every tick of `clip` (the span's interval already clipped to
/// its ancestors) to the deepest covering span's bucket.  Children are
/// clipped to `clip` before recursion, overlapping children deduplicated,
/// so exactly |clip| ticks are attributed across the subtree — the
/// buckets-sum-to-sojourn identity holds on ANY input, not just properly
/// nested traces.
void attribute(const SpanRecord& span, Interval clip,
               const std::unordered_map<std::uint64_t,
                                        std::vector<const SpanRecord*>>& kids,
               std::unordered_set<std::uint64_t>& visited,
               std::array<std::uint64_t, kNumTailBuckets>& buckets) {
  std::vector<std::pair<Interval, const SpanRecord*>> clipped;
  if (const auto it = kids.find(span.id); it != kids.end()) {
    for (const SpanRecord* kid : it->second) {
      if (!visited.insert(kid->id).second) continue;  // corrupt-input guard
      const std::uint64_t lo = std::max(kid->begin, clip.lo);
      const std::uint64_t hi = std::min(kid->end, clip.hi);
      if (lo < hi) clipped.push_back({{lo, hi}, kid});
      // Zero-width children (instants, fully out-of-window spans) still
      // recurse so their own descendants are marked visited, but they
      // cannot claim ticks.
    }
  }
  std::sort(clipped.begin(), clipped.end(),
            [](const auto& a, const auto& b) {
              return a.first.lo != b.first.lo ? a.first.lo < b.first.lo
                                              : a.second->id < b.second->id;
            });
  // Sweep: ticks covered by a child go to that child's subtree (the first
  // child to cover a tick wins on overlap); uncovered ticks are this span's
  // self time.
  std::uint64_t covered = 0;
  std::uint64_t cursor = clip.lo;
  for (auto& [iv, kid] : clipped) {
    const std::uint64_t lo = std::max(iv.lo, cursor);
    if (lo >= iv.hi) continue;  // fully shadowed by an earlier sibling
    attribute(*kid, {lo, iv.hi}, kids, visited, buckets);
    covered += iv.hi - lo;
    cursor = iv.hi;
  }
  const std::uint64_t width = clip.hi - clip.lo;
  buckets[static_cast<std::size_t>(tail_bucket_for(span.phase))] +=
      width - covered;
}

}  // namespace

TailAttribution analyze_tail_attribution(const std::vector<SpanRecord>& spans) {
  TailAttribution out;

  // Index children by tree-parent.  Span ids are globally unique (the
  // tracer allocates them from one counter; worker-side ids live in their
  // own namespaced range), so one flat index serves every attempt's tree
  // even over merged multi-worker files.
  std::unordered_map<std::uint64_t, std::vector<const SpanRecord*>> kids;
  kids.reserve(spans.size());
  for (const auto& span : spans) {
    if (span.phase == SpanPhase::kFamilyAttempt) continue;
    const std::uint64_t up = tree_parent(span);
    if (up != 0) kids[up].push_back(&span);
  }

  for (const auto& span : spans) {
    if (span.phase != SpanPhase::kFamilyAttempt) continue;
    AttemptAttribution a;
    a.root = span.id;
    a.family = span.family;
    a.trace = span.trace;
    a.node = span.node;
    a.sojourn = span.end - span.begin;
    std::unordered_set<std::uint64_t> visited;
    visited.insert(span.id);
    attribute(span, {span.begin, span.end}, kids, visited, a.buckets);
    out.attempts.push_back(a);
  }

  std::sort(out.attempts.begin(), out.attempts.end(),
            [](const AttemptAttribution& x, const AttemptAttribution& y) {
              return x.sojourn != y.sojourn ? x.sojourn < y.sojourn
                                            : x.root < y.root;
            });

  // Percentile bands over the sorted population.  Edges are attempt-count
  // ranks; every attempt lands in exactly one band.
  static constexpr std::array<std::string_view, kNumTailBands> kLabels = {
      "p0-50", "p50-90", "p90-99", "p99-99.9", "p99.9-100"};
  static constexpr std::array<double, kNumTailBands> kLo = {0.0, 0.50, 0.90,
                                                            0.99, 0.999};
  const std::size_t n = out.attempts.size();
  std::array<std::size_t, kNumTailBands + 1> edge{};
  for (std::size_t b = 0; b < kNumTailBands; ++b)
    edge[b] = static_cast<std::size_t>(kLo[b] * static_cast<double>(n));
  edge[kNumTailBands] = n;
  for (std::size_t b = 0; b < kNumTailBands; ++b) {
    TailBand& band = out.bands[b];
    band.label = kLabels[b];
    for (std::size_t i = edge[b]; i < edge[b + 1]; ++i) {
      const AttemptAttribution& a = out.attempts[i];
      ++band.attempts;
      band.sojourn += a.sojourn;
      for (std::size_t k = 0; k < kNumTailBuckets; ++k)
        band.buckets[k] += a.buckets[k];
    }
  }
  return out;
}

void write_tail_attribution(const TailAttribution& ta, std::ostream& os) {
  os << "tail attribution: " << ta.attempts.size()
     << " root family attempts\n";
  if (ta.empty()) return;
  os << std::left << std::setw(11) << "band" << std::right << std::setw(9)
     << "attempts" << std::setw(12) << "sojourn";
  for (std::size_t k = 0; k < kNumTailBuckets; ++k)
    os << std::setw(14) << to_string(static_cast<TailBucket>(k));
  os << '\n';
  const auto flags = os.flags();
  const auto precision = os.precision();
  for (const TailBand& band : ta.bands) {
    os << std::left << std::setw(11) << band.label << std::right
       << std::setw(9) << band.attempts << std::setw(12) << band.sojourn;
    for (std::size_t k = 0; k < kNumTailBuckets; ++k) {
      os << std::setw(13) << std::fixed << std::setprecision(1)
         << band.share(static_cast<TailBucket>(k)) * 100.0 << '%';
      os.flags(flags);
      os.precision(precision);
    }
    os << '\n';
  }
}

}  // namespace lotec
