// Time-series telemetry plane (PROTOCOL.md §16).
//
// The metrics stack (PR 3/PR 5) answers "what happened over the whole run":
// cumulative counters and one histogram per span phase.  The
// TimeseriesCollector answers "what is happening *over time*": it scrapes
// MetricsRegistry on a configurable interval — every N transport messages
// (the deterministic logical clock) or at explicit close points a wall-clock
// driver picks — into per-window counter deltas plus windowed latency
// histograms, retained in a bounded ring, and emits them three ways: a JSONL
// stream (one line per window, the input of `lotec_top --jsonl` and the
// throughput bench's timeseries artifact), Prometheus text exposition
// (`write_prometheus_text`, also the payload format of the wire plane's
// kStatsScrapeReply), and per-window rows in BenchJson (the bench iterates
// `windows()` itself).
//
// Gating discipline (same as the span tracer): the collector is OFF unless
// installed; when off the transport's hook is one pointer comparison, and
// the collector never sends a message either way, so traffic and span
// output are bit-identical with telemetry on or off.  The steady-state
// scrape is allocation-free: handles into the registry are cached and
// refreshed only when MetricsRegistry::generation() moves, and the ring's
// window storage is pre-sized at that same refresh point (asserted by the
// counting-operator-new test, as for note_message).
#pragma once

#include <array>
#include <cstdint>
#include <iosfwd>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "obs/metrics.hpp"

namespace lotec {

/// Saturating add in the window buckets' narrower width: a window that
/// overflows uint32 pins at the ceiling instead of wrapping (satellite: the
/// percentile walk stays monotonic even on absurd merge chains).
[[nodiscard]] constexpr std::uint32_t saturating_add_u32(
    std::uint32_t a, std::uint64_t b) noexcept {
  // Compare before adding: a + b itself can wrap uint64 when b is huge.
  return b >= 0xFFFFFFFFull - a
             ? 0xFFFFFFFFu
             : static_cast<std::uint32_t>(a + static_cast<std::uint32_t>(b));
}

/// One window's worth of a latency histogram: the bucket-wise delta between
/// two cumulative HistogramSnapshots.  Buckets are uint32 (a window is
/// bounded; the retention ring holds many of these) and all arithmetic
/// saturates.  min/max are bucket-resolution approximations — cumulative
/// snapshots cannot recover the exact window extremes — clamped to the
/// cumulative max so percentile() never exceeds a value that was actually
/// recorded.
struct WindowHistogram {
  static constexpr std::size_t kBuckets = HistogramSnapshot::kBuckets;

  std::uint64_t count = 0;
  std::uint64_t sum = 0;
  std::uint64_t min = 0;
  std::uint64_t max = 0;
  std::array<std::uint32_t, kBuckets> buckets{};

  /// Delta of two cumulative snapshots (`prev` taken earlier on the SAME
  /// histogram).  A registry reset between the two (now.count < prev.count)
  /// degrades gracefully to `now` alone.
  [[nodiscard]] static WindowHistogram delta(const HistogramSnapshot& now,
                                             const HistogramSnapshot& prev);

  /// Merge another window in.  An empty `o` is a strict no-op (it must not
  /// perturb min/max or any percentile); merging into an empty *this copies.
  void merge(const WindowHistogram& o) noexcept;

  /// Same NaN-safe bucket-resolution percentile as HistogramSnapshot.
  [[nodiscard]] double percentile(double p) const noexcept;

  friend bool operator==(const WindowHistogram&,
                         const WindowHistogram&) = default;
};

/// One closed window: deltas of every registered counter and histogram over
/// [open_tick, close_tick].  The name tables live on the collector
/// (`counter_names()` / `histogram_names()`); the vectors here are parallel
/// to them.
struct TimeseriesWindow {
  std::uint64_t index = 0;       ///< 0-based window sequence number
  std::uint64_t open_tick = 0;   ///< collector message count at open
  std::uint64_t close_tick = 0;  ///< ... and at close
  std::vector<std::uint64_t> counter_deltas;
  std::vector<WindowHistogram> hist_deltas;
};

struct TimeseriesConfig {
  /// Close a window every this many transport messages observed at the
  /// Transport choke point (the deterministic logical interval).  0 = only
  /// explicit close_window() calls (wall-clock drivers pace themselves).
  std::uint64_t tick_interval = 0;
  /// Windows retained in the ring (older windows are overwritten).
  std::size_t retain = 256;
  /// When non-empty, stream one JSON line per closed window here.
  std::string jsonl_path;
};

class TimeseriesCollector {
 public:
  explicit TimeseriesCollector(MetricsRegistry& registry,
                               TimeseriesConfig config = {});
  ~TimeseriesCollector();

  TimeseriesCollector(const TimeseriesCollector&) = delete;
  TimeseriesCollector& operator=(const TimeseriesCollector&) = delete;

  /// Hot-path hook, called by Transport::send for every accounted message.
  /// One increment; the message that crosses the interval boundary closes
  /// the window.  Never sends, never throws.
  void on_message() noexcept {
    ++ticks_;
    if (interval_ != 0 && ticks_ >= next_close_) close_window_at(ticks_);
  }

  /// Explicit close (wall-clock pacing, end-of-run flush).  No-op when
  /// nothing was recorded since the last close and the registry is
  /// unchanged?  No: an empty window is still a window (zero txn/s is a
  /// signal); callers that want to skip empties check the return.  Returns
  /// the closed window's index.
  std::uint64_t close_window();

  /// Number of windows closed so far (monotonic; the ring retains the last
  /// `retain` of them).
  [[nodiscard]] std::uint64_t windows_closed() const;

  /// Copies of the retained windows, oldest first.
  [[nodiscard]] std::vector<TimeseriesWindow> windows() const;

  /// Name tables the window vectors are parallel to (stable between
  /// registry generations).
  [[nodiscard]] std::vector<std::string> counter_names() const;
  [[nodiscard]] std::vector<std::string> histogram_names() const;

  /// Write every retained window as JSONL to `os` (same line format as the
  /// streaming sink).
  void write_jsonl(std::ostream& os) const;

  /// Prometheus text exposition of the CURRENT cumulative registry state
  /// plus `lotec_window_*` gauges derived from the most recent closed
  /// window.  `labels` are attached to every sample (protocol/transport/
  /// node), values escaped per the text format.
  void write_prometheus(
      std::ostream& os,
      const std::vector<std::pair<std::string, std::string>>& labels) const;

 private:
  std::uint64_t close_window_at(std::uint64_t now_ticks);
  /// Rebuild handle tables + pre-size ring storage; called when the
  /// registry generation moved (the only allocating path).
  void refresh_handles();
  void emit_jsonl(const TimeseriesWindow& w);

  MetricsRegistry& registry_;
  const std::uint64_t interval_;
  const std::size_t retain_;

  std::uint64_t ticks_ = 0;
  std::uint64_t next_close_ = 0;

  std::uint64_t seen_generation_ = ~std::uint64_t{0};
  std::vector<std::string> counter_names_;
  std::vector<const MetricsCounter*> counter_handles_;
  std::vector<std::uint64_t> counter_last_;
  std::vector<std::string> histogram_names_;
  std::vector<const LatencyHistogram*> histogram_handles_;
  std::vector<HistogramSnapshot> histogram_last_;
  std::uint64_t open_tick_ = 0;
  std::uint64_t closed_ = 0;
  std::vector<TimeseriesWindow> ring_;  ///< slot = index % retain_
  std::unique_ptr<std::ostream> jsonl_;
};

// --- Prometheus text exposition helpers ----------------------------------

/// Sanitize a registry metric name ("span.family.attempt") into a
/// Prometheus metric name ("lotec_span_family_attempt"): every char outside
/// [a-zA-Z0-9_:] becomes '_', a leading digit gets a '_' prefix, and the
/// "lotec_" namespace prefix is prepended unless already present.
[[nodiscard]] std::string prom_metric_name(std::string_view name);

/// Escape a label VALUE per the text format: backslash, double-quote and
/// newline become \\, \" and \n.
[[nodiscard]] std::string prom_escape_label(std::string_view value);

/// Write counters (as `# TYPE ... counter`, name suffixed `_total`) and
/// histograms (as native `_bucket{le=...}` / `_sum` / `_count` series,
/// upper bounds 2^(i+1)-2 per the power-of-two bucket layout) with `labels`
/// on every sample.  Deterministic output: samples are emitted in the map
/// order of the inputs.
void write_prometheus_text(
    const std::map<std::string, std::uint64_t>& counters,
    const std::map<std::string, HistogramSnapshot>& histograms,
    const std::vector<std::pair<std::string, std::string>>& labels,
    std::ostream& os);

/// One parsed exposition sample (round-trip checks and lotec_top's scrape
/// decoding).  Histogram series come back as their component samples
/// (`..._bucket`, `..._sum`, `..._count`) — the parser does not reassemble.
struct PromSample {
  std::string name;
  std::vector<std::pair<std::string, std::string>> labels;
  double value = 0.0;

  friend bool operator==(const PromSample&, const PromSample&) = default;
};

/// Parse text exposition: returns every sample line, skipping comments and
/// blanks.  Throws Error on lines that are neither (hostile scrape payloads
/// must not crash lotec_top).
[[nodiscard]] std::vector<PromSample> parse_prometheus_text(
    std::string_view text);

}  // namespace lotec
