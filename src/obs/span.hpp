// Span tracer: per-family phase spans stamped with a deterministic logical
// clock.  The clock advances once per transport message (Transport calls
// tick_message()) and once per span edge, so timestamps are reproducible
// across runs with the same seed — a trace diff is a real behaviour diff.
//
// Disabled is the default and must be provably free: every entry point
// checks one bool (ScopedSpan latches it in its constructor), no memory is
// touched, and no message is ever generated either way, so traced and
// untraced runs carry bit-identical wire traffic.  The causal TraceContext
// piggybacked on WireMessage (obs/trace_context.hpp) rides in the fixed
// frame's padding and is never accounted, preserving that contract.
//
// Span phases (the taxonomy is documented in docs/PROTOCOL.md §9):
//   family.attempt       one (re)execution attempt of a root family
//   lock.acquire         acquiring the global lock for one object
//   lock.inherit         pre-commit lock inheritance to the parent (instant)
//   gdo.round            the remote GDO request/grant round inside acquire
//   page.gather          fetching pages for an object from caching sites
//   method.execute       running a method body
//   txn.undo             undoing a subtree or family on abort
//   commit.report        the commit-time release/report round
//   cache.callback_round one callback revocation round at the directory
//   fault.event          an injected fault firing (instant)
//   gdo.serve            the directory serving one request (remote side)
//   page.serve           a site serving one page-fetch request (remote side)
//   lock.grant           a queued request waking with a grant (instant)
//   wire.deliver         a wire-transport worker delivering one frame
//                        (distributed runs only; emitted by lotec_worker)
//   snapshot.map_round   a read-only family refreshing its snapshot page
//                        map from the directory (mv_read path)
//   snapshot.fetch       a read-only family fetching committed page
//                        versions for its snapshot (mv_read path)
//   batch.flush          the outermost batch window closing and flushing
//                        its deferred messages (instant)
#pragma once

#include <cstdint>
#include <iosfwd>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/ids.hpp"
#include "obs/trace_context.hpp"

namespace lotec {

class MetricsRegistry;
class LatencyHistogram;
class FlightRecorder;

enum class SpanPhase : std::uint8_t {
  kFamilyAttempt = 0,
  kLockAcquire,
  kLockInherit,
  kGdoRound,
  kPageGather,
  kMethodExecute,
  kUndo,
  kCommitReport,
  kCallbackRound,
  kFaultEvent,
  kGdoServe,
  kPageServe,
  kLockGrant,
  kWireDeliver,
  kSnapshotMapRound,
  kSnapshotFetch,
  kBatchFlush,
};

inline constexpr std::size_t kNumSpanPhases = 17;

[[nodiscard]] std::string_view to_string(SpanPhase phase) noexcept;

/// Returns a stable-backed copy of `kind` for MessageRecord::kind when the
/// caller's string is transient (e.g. parsed from a JSONL file).  Interned
/// strings live until process exit; the set of message kinds is tiny, so
/// this never grows past a few dozen entries.
[[nodiscard]] std::string_view intern_message_kind(std::string_view kind);

/// One completed span (or instant, when begin == end and the phase is an
/// instant phase).  family == 0 marks the directory lane (GDO-side work not
/// attributable to a single family).  object == kNoObject when the span is
/// not about one object.
struct SpanRecord {
  static constexpr std::uint64_t kNoObject = ~std::uint64_t{0};

  std::uint64_t id = 0;
  std::uint64_t parent = 0;  // 0 = root (no enclosing span)
  SpanPhase phase = SpanPhase::kFamilyAttempt;
  std::uint64_t family = 0;  // 0 = directory lane
  std::uint32_t node = 0;
  std::uint64_t object = kNoObject;
  std::uint64_t begin = 0;  // logical ticks
  std::uint64_t end = 0;
  /// Causal domain: the trace id minted for the enclosing family.attempt
  /// (0 for spans recorded before causal tracing, e.g. old jsonl files).
  std::uint64_t trace = 0;
  /// Cross-lane causal parent (the span whose message caused this one);
  /// distinct from `parent`, which always stays in-lane so the LIFO lane
  /// rule and containment invariants are untouched.  0 = none.
  std::uint64_t link = 0;

  friend bool operator==(const SpanRecord&, const SpanRecord&) = default;
};

/// One message observed at the Transport choke point while tracing was
/// enabled — the per-message-kind axis of the critical-path analysis.
/// `kind` is the MessageKind name (src/obs cannot depend on src/net).  It is
/// a view, not an owned string: the hot path hands in `to_string(kind)`
/// (static storage) and pays zero allocations; anything loading records from
/// disk must go through intern_message_kind() to get a stable backing.
struct MessageRecord {
  std::uint64_t tick = 0;  ///< tracer clock right after the message's tick
  std::string_view kind;
  std::uint32_t src = 0;
  std::uint32_t dst = 0;
  std::uint64_t object = SpanRecord::kNoObject;
  std::uint64_t bytes = 0;      ///< accounted wire bytes (header + payload)
  std::uint64_t trace = 0;      ///< causal domain (0 = untraced sender)
  std::uint64_t span = 0;       ///< sender's open span when it left

  friend bool operator==(const MessageRecord&, const MessageRecord&) = default;
};

/// Receives completed spans, in span-end order.  Implementations must not
/// call back into the tracer.
class SpanSink {
 public:
  virtual ~SpanSink() = default;
  virtual void on_span(const SpanRecord& span) = 0;
  /// Messages observed at the choke point (send order).  Default: ignored.
  virtual void on_message(const MessageRecord& /*message*/) {}
  virtual void flush() {}
};

/// Test sink: collects spans in memory.
class InMemorySink final : public SpanSink {
 public:
  void on_span(const SpanRecord& span) override { spans_.push_back(span); }
  [[nodiscard]] const std::vector<SpanRecord>& spans() const { return spans_; }

 private:
  std::vector<SpanRecord> spans_;
};

/// Writes one JSON object per line (machine-readable stream; the input
/// format of `trace_report spans`).  Message records are written as lines
/// with a "msg" key; old readers that only know span lines skip them.
class JsonLinesSink final : public SpanSink {
 public:
  explicit JsonLinesSink(const std::string& path);
  explicit JsonLinesSink(std::ostream& os);  // caller keeps os alive
  ~JsonLinesSink() override;

  void on_span(const SpanRecord& span) override;
  void on_message(const MessageRecord& message) override;
  void flush() override;

 private:
  std::unique_ptr<std::ostream> owned_;
  std::ostream* os_;
};

/// Buffers spans and writes a Chrome trace-event JSON file on flush (or
/// destruction) — loadable in Perfetto / chrome://tracing.  Spans carrying
/// a `link` additionally emit flow events so Perfetto draws causal arrows.
class ChromeTraceSink final : public SpanSink {
 public:
  explicit ChromeTraceSink(std::string path);
  ~ChromeTraceSink() override;

  void on_span(const SpanRecord& span) override { spans_.push_back(span); }
  void flush() override;

 private:
  std::string path_;
  std::vector<SpanRecord> spans_;
  bool written_ = false;
};

/// One open span on an execution context's span stack (see
/// SpanTracer::set_context_stack).
struct SpanContextEntry {
  std::uint64_t span;
  std::uint64_t trace;
  SpanPhase phase;
};

class SpanTracer {
 public:
  SpanTracer() = default;
  SpanTracer(const SpanTracer&) = delete;
  SpanTracer& operator=(const SpanTracer&) = delete;

  /// Turn tracing on.  Pre-resolves one `span.<phase>` histogram handle per
  /// phase when a registry was attached, so span ends stay cheap.
  void enable();
  [[nodiscard]] bool enabled() const noexcept { return enabled_; }

  /// Attach the registry that receives span-duration histograms.  Call
  /// before enable().
  void set_registry(MetricsRegistry* registry) { registry_ = registry; }

  /// Attach the always-on flight recorder; span begin/end/instant events
  /// are mirrored into its ring while tracing is enabled.  Owned by the
  /// caller (ClusterCore).
  void set_flight_recorder(FlightRecorder* recorder) noexcept {
    recorder_ = recorder;
  }

  /// Sinks receive every completed span; the tracer always also keeps an
  /// in-memory record (spans()).
  void add_sink(std::unique_ptr<SpanSink> sink);

  /// Advance the logical clock for one transport message.  The disabled
  /// cost of observability on the message path is exactly this bool check.
  void tick_message() noexcept {
    if (enabled_) ++clock_;
  }

  [[nodiscard]] std::uint64_t now() const noexcept { return clock_; }

  /// Open a span; returns its id (0 when disabled).  Parent is the
  /// innermost open span of the same lane (family lane, or the node's
  /// directory lane when family == 0).  A kFamilyAttempt span mints a
  /// fresh trace id (so every retry starts a new causal domain); every
  /// other span inherits the lane top's trace.
  std::uint64_t begin(SpanPhase phase, std::uint64_t family,
                      std::uint32_t node,
                      std::uint64_t object = SpanRecord::kNoObject);

  /// Open a remote-side serve span on `node`'s directory lane, causally
  /// linked to the sender context the triggering message carried: the
  /// span's trace is ctx.trace_id and its link is ctx.parent_span.
  std::uint64_t begin_remote(SpanPhase phase, std::uint32_t node,
                             const TraceContext& ctx,
                             std::uint64_t object = SpanRecord::kNoObject);

  /// Close the innermost open span of the lane that `id` was opened on
  /// (abandoned inner spans are closed LIFO first).  `family` is the
  /// opener's lane hint, used only when `id`'s lane is unknown.
  void end(std::uint64_t id, std::uint64_t family);

  /// Record a zero-duration event (begin == end).
  void instant(SpanPhase phase, std::uint64_t family, std::uint32_t node,
               std::uint64_t object = SpanRecord::kNoObject);
  /// Linked instant: like instant(), with a cross-lane causal link to
  /// ctx.parent_span (e.g. the grant that woke a queued family).
  void instant_linked(SpanPhase phase, std::uint64_t family,
                      std::uint32_t node, const TraceContext& ctx,
                      std::uint64_t object = SpanRecord::kNoObject);

  /// The running context's innermost open span on this tracer, as a
  /// message context ({} when none / disabled).  Valid because every span
  /// is begun and ended by the context doing the traced work.
  [[nodiscard]] TraceContext current_context() const;

  /// Switch the open-span stack that begin/end/current_context use to the
  /// one of the context about to run (a family fiber's), or back to the
  /// tracer's own stack with nullptr.  The scheduler calls this at every
  /// fiber switch, so each family sees only the spans it opened.
  void set_context_stack(std::vector<SpanContextEntry>* stack) noexcept {
    context_ = stack != nullptr ? stack : &own_context_;
  }

  /// Record one message observed at the Transport choke point (called by
  /// Transport::send only while tracing is enabled).
  void note_message(std::string_view kind, std::uint32_t src,
                    std::uint32_t dst, std::uint64_t object,
                    std::uint64_t bytes, const TraceContext& ctx);

  /// Pre-size the message record buffer so note_message stays allocation
  /// free up to `n` records (benches call this with the expected message
  /// count; growth past it just falls back to amortized doubling).
  void reserve_messages(std::size_t n) { messages_.reserve(n); }

  /// All completed spans so far, in completion order.
  [[nodiscard]] std::vector<SpanRecord> spans() const;
  /// All messages recorded while tracing was enabled, in send order.
  [[nodiscard]] std::vector<MessageRecord> messages() const;
  /// Spans currently open across all lanes (0 on a quiescent tracer).
  [[nodiscard]] std::size_t open_count() const;

  void flush_sinks();

 private:
  /// Directory work is keyed per NODE (family 0 output stays 0): two nodes'
  /// serve spans must not share a LIFO stack.  Family ids are dense small
  /// integers; the top bit namespace cannot collide.
  static constexpr std::uint64_t kDirectoryLaneBase = std::uint64_t{1} << 62;
  [[nodiscard]] static std::uint64_t lane_for(std::uint64_t family,
                                              std::uint32_t node) noexcept {
    return family != 0 ? family : (kDirectoryLaneBase | node);
  }

  std::uint64_t next_tick() noexcept { return clock_++; }
  std::uint64_t begin_span(SpanPhase phase, std::uint64_t family,
                             std::uint32_t node, std::uint64_t object,
                             std::uint64_t trace_override,
                             std::uint64_t link);
  void emit(const SpanRecord& span);

  bool enabled_ = false;
  std::uint64_t clock_ = 0;
  MetricsRegistry* registry_ = nullptr;
  FlightRecorder* recorder_ = nullptr;
  LatencyHistogram* phase_hist_[kNumSpanPhases] = {};

  std::uint64_t next_id_ = 1;
  std::uint64_t next_trace_ = 1;
  // Per lane stack of open spans (record kept until end()).
  std::map<std::uint64_t, std::vector<SpanRecord>> open_;
  // Open span id -> its lane, so end() can close directory-lane spans
  // without knowing the node they were opened on.
  std::map<std::uint64_t, std::uint64_t> open_lane_;
  std::vector<SpanRecord> done_;
  std::vector<MessageRecord> messages_;
  std::vector<std::unique_ptr<SpanSink>> sinks_;
  /// Open spans of the context not running in a fiber, innermost last.
  std::vector<SpanContextEntry> own_context_;
  std::vector<SpanContextEntry>* context_ = &own_context_;
};

/// RAII span.  Latches the enabled check once; all methods are no-ops on a
/// disabled tracer or null pointer.
class ScopedSpan {
 public:
  ScopedSpan(SpanTracer* tracer, SpanPhase phase, std::uint64_t family,
             std::uint32_t node,
             std::uint64_t object = SpanRecord::kNoObject)
      : tracer_(tracer && tracer->enabled() ? tracer : nullptr),
        family_(family) {
    if (tracer_) id_ = tracer_->begin(phase, family, node, object);
  }
  ~ScopedSpan() { finish(); }

  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  /// Close early (idempotent).
  void finish() {
    if (tracer_) {
      tracer_->end(id_, family_);
      tracer_ = nullptr;
    }
  }

 private:
  SpanTracer* tracer_;
  std::uint64_t family_;
  std::uint64_t id_ = 0;
};

/// RAII remote-side serve span on a node's directory lane, causally linked
/// to the running context's current span (i.e. to the span whose request
/// message the callee is serving — the call is synchronous, so the sender's
/// span is still open in this context when the serve begins).
class ScopedServeSpan {
 public:
  ScopedServeSpan(SpanTracer* tracer, SpanPhase phase, std::uint32_t node,
                  std::uint64_t object = SpanRecord::kNoObject)
      : tracer_(tracer && tracer->enabled() ? tracer : nullptr) {
    if (tracer_)
      id_ = tracer_->begin_remote(phase, node, tracer_->current_context(),
                                  object);
  }
  ~ScopedServeSpan() { finish(); }

  ScopedServeSpan(const ScopedServeSpan&) = delete;
  ScopedServeSpan& operator=(const ScopedServeSpan&) = delete;

  void finish() {
    if (tracer_) {
      tracer_->end(id_, 0);
      tracer_ = nullptr;
    }
  }

 private:
  SpanTracer* tracer_;
  std::uint64_t id_ = 0;
};

}  // namespace lotec
