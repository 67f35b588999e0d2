// MetricsRegistry: named counters and latency histograms for the whole
// runtime — the single backing store behind ScenarioResult's counter map
// and the per-phase breakdowns the figure benches emit.
//
// Usage pattern ("registered once, queried by name"): a component resolves
// its handles at construction time —
//
//   MetricsCounter& regrants = registry.counter("cache.regrants");
//
// — and the hot path is a single increment through the cached reference;
// the name -> handle map is touched only at registration.  Handles are
// stable for the registry's lifetime.
//
// Counters are always on: they generate no messages and cost one add, so
// enabling them cannot perturb traffic (the bit-identity property
// the obs ablation gates).  Histograms are fed from span durations and only
// accumulate while span tracing is enabled.
//
// The canonical metric names are documented in docs/PROTOCOL.md §9.
#pragma once

#include <array>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

namespace lotec {

/// A monotonically increasing named tally.
class MetricsCounter {
 public:
  void add(std::uint64_t n = 1) noexcept { value_ += n; }

  [[nodiscard]] std::uint64_t value() const noexcept { return value_; }

  void reset() noexcept { value_ = 0; }

 private:
  std::uint64_t value_ = 0;
};

/// Point-in-time copy of a histogram (what ScenarioResult carries).
struct HistogramSnapshot {
  static constexpr std::size_t kBuckets = 32;

  std::uint64_t count = 0;
  std::uint64_t sum = 0;
  std::uint64_t min = 0;
  std::uint64_t max = 0;
  /// Power-of-two buckets: bucket i counts samples in [2^i - 1, 2^(i+1) - 1)
  /// (bucket 0 holds zeros and ones).
  std::array<std::uint64_t, kBuckets> buckets{};

  [[nodiscard]] double mean() const noexcept {
    return count == 0 ? 0.0
                      : static_cast<double>(sum) / static_cast<double>(count);
  }

  /// Bucket-resolution percentile estimate (upper bound of the bucket the
  /// p-th sample falls into); exact min/max at the extremes.  Total on any
  /// input: an empty histogram yields 0.0 for every p, a NaN p yields 0.0,
  /// and out-of-range p is clamped to [0, 100] — never NaN, never UB.
  [[nodiscard]] double percentile(double p) const noexcept;
};

/// Fixed-bucket latency histogram over logical-tick durations (samples come
/// from span ends).
class LatencyHistogram {
 public:
  void record(std::uint64_t ticks) noexcept;
  [[nodiscard]] HistogramSnapshot snapshot() const;
  void reset() noexcept;

 private:
  HistogramSnapshot data_;
};

class MetricsRegistry {
 public:
  /// Get-or-register; the returned reference is stable for the registry's
  /// lifetime (callers cache it).
  [[nodiscard]] MetricsCounter& counter(const std::string& name);
  [[nodiscard]] LatencyHistogram& histogram(const std::string& name);

  /// Value of a counter by name; 0 when the name was never registered.
  [[nodiscard]] std::uint64_t value(const std::string& name) const;

  /// Name-sorted snapshot of every counter (the map ScenarioResult keeps).
  [[nodiscard]] std::map<std::string, std::uint64_t> counters() const;
  [[nodiscard]] std::map<std::string, HistogramSnapshot> histograms() const;

  /// Bumped whenever a NEW counter or histogram name is registered.  The
  /// timeseries collector compares this against the generation its handle
  /// table was built at: unchanged means every registered metric already has
  /// a cached handle and the scrape stays allocation-free.
  [[nodiscard]] std::uint64_t generation() const;

  /// Name-sorted stable handles to every registered counter / histogram
  /// (valid for the registry's lifetime).  Allocates; called only when
  /// generation() moved.
  [[nodiscard]] std::vector<std::pair<std::string, const MetricsCounter*>>
  counter_handles() const;
  [[nodiscard]] std::vector<std::pair<std::string, const LatencyHistogram*>>
  histogram_handles() const;

  /// Zero every counter and histogram (registrations stay).
  void reset();

 private:
  // unique_ptr values keep handles stable across map rehash/insertion.
  std::map<std::string, std::unique_ptr<MetricsCounter>> counters_;
  std::map<std::string, std::unique_ptr<LatencyHistogram>> histograms_;
  std::uint64_t generation_ = 0;
};

}  // namespace lotec
