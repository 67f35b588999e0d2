// FlightRecorder: an always-on black box of recent span/instant/message
// events, one fixed-size ring per node.
//
// Design constraints (ISSUE 5 tentpole, piece 3):
//   - always on: messages are recorded even with span tracing disabled, so
//     a crash post-mortem exists for every run;
//   - no allocation on the hot path: every slot is pre-allocated at
//     construction and events carry only POD fields plus string_views into
//     static storage (phase names, MessageKind names);
//   - cheap writes: a slot is claimed by bumping the ring cursor and
//     filled with plain stores.
//
// dump() renders the rings as Chrome trace-event JSON (Perfetto-loadable):
// matched begin/end pairs become complete ("X") slices, a begin whose end
// never arrived becomes an open slice flagged {"open":1} (this is how the
// in-flight commit.report of a crash victim shows up), instants and
// messages become instant events.  Timestamps are the recorder's own
// global sequence numbers — the tracer clock stands still when tracing is
// off, so the recorder cannot borrow it.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <string_view>
#include <vector>

#include "obs/span.hpp"
#include "obs/trace_context.hpp"

namespace lotec {

struct FlightEvent {
  enum class Kind : std::uint8_t {
    kNone = 0,   ///< empty slot
    kSpanBegin,
    kSpanEnd,
    kInstant,
    kMessage,
    kCrash,
  };
  static constexpr std::uint32_t kNoPeer = ~std::uint32_t{0};

  Kind kind = Kind::kNone;
  /// Phase name or MessageKind name — static storage only (to_string).
  std::string_view name;
  std::uint64_t seq = 0;  ///< global recorder sequence (orders all rings)
  std::uint32_t node = 0;
  std::uint64_t id = 0;      ///< span id (span events)
  std::uint64_t parent = 0;  ///< in-lane parent span id
  std::uint64_t family = 0;
  std::uint64_t object = SpanRecord::kNoObject;
  std::uint64_t trace = 0;
  std::uint64_t link = 0;
  std::uint32_t src = kNoPeer;  ///< message endpoints (message events)
  std::uint32_t dst = kNoPeer;
  std::uint64_t bytes = 0;
};

class FlightRecorder {
 public:
  static constexpr std::uint32_t kNoVictim = ~std::uint32_t{0};

  /// Pre-allocates `capacity` slots for each of `nodes` rings.
  FlightRecorder(std::size_t nodes, std::size_t capacity);

  /// Record one transport message into BOTH endpoint rings (the victim of
  /// a crash needs the messages that were in flight towards it).  `kind`
  /// must point into static storage.
  void note_message(std::string_view kind, std::uint32_t src,
                    std::uint32_t dst, std::uint64_t object,
                    std::uint64_t bytes, const TraceContext& ctx);

  /// Span mirroring (called by SpanTracer while tracing is enabled).
  void note_span_begin(const SpanRecord& span);
  void note_span_end(const SpanRecord& span);
  void note_instant(const SpanRecord& span);

  /// Record a node-crash marker into the victim's ring.
  void note_crash(std::uint32_t node);

  [[nodiscard]] std::size_t capacity() const noexcept { return capacity_; }
  [[nodiscard]] std::size_t num_nodes() const noexcept {
    return rings_.size();
  }

  /// The ring contents for one node, oldest first.  Post-mortem use only
  /// (see the file comment on read/write races).
  [[nodiscard]] std::vector<FlightEvent> events(std::uint32_t node) const;

  /// Write every ring as Chrome trace-event JSON.  `victim`, when not
  /// kNoVictim, is called out in the trace metadata.
  void dump(std::ostream& os, std::uint32_t victim = kNoVictim) const;
  /// dump() to a file; returns false (without throwing) on I/O failure.
  bool dump_file(const std::string& path,
                 std::uint32_t victim = kNoVictim) const;

 private:
  struct NodeRing {
    std::uint64_t next = 0;
    std::vector<FlightEvent> slots;
  };

  void put(std::uint32_t node, FlightEvent ev);

  std::size_t capacity_;
  std::uint64_t seq_ = 1;
  std::vector<NodeRing> rings_;
};

}  // namespace lotec
