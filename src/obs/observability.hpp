// The per-cluster observability bundle: one MetricsRegistry (always on —
// counters are free), one SpanTracer (off unless ObsConfig asks) and one
// FlightRecorder (always on, see obs/flight_recorder.hpp).  ClusterCore
// owns an Observability instance and hands pointers to the tracer and the
// recorder down to Transport, GdoService, FamilyRunner and the fault
// engine.
#pragma once

#include <cstddef>
#include <memory>
#include <string>

#include "obs/flight_recorder.hpp"
#include "obs/metrics.hpp"
#include "obs/span.hpp"
#include "obs/timeseries.hpp"

namespace lotec {

struct ObsConfig {
  /// Record per-family phase spans.  Off by default; a disabled run is
  /// bit-identical in message traffic to a build without the layer.
  bool trace_spans = false;
  /// When non-empty (and trace_spans), stream spans as JSON lines here.
  std::string spans_jsonl;
  /// When non-empty (and trace_spans), write Chrome trace-event JSON here
  /// on flush (open in Perfetto via `trace_report spans`).
  std::string chrome_trace;
  /// When non-empty, the fault engine dumps the recorder here on every
  /// node-crash event (second crash appends ".2", and so on).
  std::string flight_dump;
  /// Time-series telemetry plane (PROTOCOL.md §16).  Off by default; when
  /// off, traffic AND span output are bit-identical to a build without the
  /// collector (it is simply never installed on the transport).
  bool timeseries = false;
  /// Logical window length: close a window every this many transport
  /// messages.  0 = explicit close_window() only (wall-clock pacing).
  std::uint64_t timeseries_interval = 0;
  /// When non-empty, stream one JSON line per closed window here (what
  /// `lotec_top --jsonl` tails).
  std::string timeseries_jsonl;
};

/// Flight-recorder ring capacity per node (events retained for the
/// post-mortem).
inline constexpr std::size_t kFlightRecorderCapacity = 512;

struct Observability {
  MetricsRegistry metrics;
  SpanTracer tracer;
  std::unique_ptr<FlightRecorder> recorder;
  std::unique_ptr<TimeseriesCollector> timeseries;

  /// Apply config: attach the registry, create the flight recorder (one
  /// ring per node) and enable/attach span sinks.
  void configure(const ObsConfig& cfg, std::size_t nodes) {
    tracer.set_registry(&metrics);
    recorder = std::make_unique<FlightRecorder>(nodes, kFlightRecorderCapacity);
    tracer.set_flight_recorder(recorder.get());
    if (cfg.timeseries) {
      TimeseriesConfig ts;
      ts.tick_interval = cfg.timeseries_interval;
      ts.jsonl_path = cfg.timeseries_jsonl;
      timeseries = std::make_unique<TimeseriesCollector>(metrics, ts);
    }
    if (!cfg.trace_spans) return;
    if (!cfg.spans_jsonl.empty()) {
      tracer.add_sink(std::make_unique<JsonLinesSink>(cfg.spans_jsonl));
    }
    if (!cfg.chrome_trace.empty()) {
      tracer.add_sink(std::make_unique<ChromeTraceSink>(cfg.chrome_trace));
    }
    tracer.enable();
  }
};

}  // namespace lotec
