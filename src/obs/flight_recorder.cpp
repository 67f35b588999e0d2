#include "obs/flight_recorder.hpp"

#include <algorithm>
#include <fstream>
#include <map>
#include <ostream>
#include <set>

#include "obs/chrome_trace.hpp"

namespace lotec {

FlightRecorder::FlightRecorder(std::size_t nodes, std::size_t capacity)
    : capacity_(capacity == 0 ? 1 : capacity) {
  rings_.resize(nodes);
  for (NodeRing& ring : rings_) ring.slots.resize(capacity_);
}

void FlightRecorder::put(std::uint32_t node, FlightEvent ev) {
  if (node >= rings_.size()) return;
  NodeRing& ring = rings_[node];
  const std::uint64_t slot = ring.next++ % capacity_;
  ev.node = node;
  ring.slots[slot] = ev;
}

void FlightRecorder::note_message(std::string_view kind, std::uint32_t src,
                                  std::uint32_t dst, std::uint64_t object,
                                  std::uint64_t bytes,
                                  const TraceContext& ctx) {
  FlightEvent ev;
  ev.kind = FlightEvent::Kind::kMessage;
  ev.name = kind;
  ev.seq = seq_++;
  ev.object = object;
  ev.trace = ctx.trace_id;
  ev.link = ctx.parent_span;
  ev.src = src;
  ev.dst = dst;
  ev.bytes = bytes;
  put(src, ev);
  if (dst != src) put(dst, ev);
}

void FlightRecorder::note_span_begin(const SpanRecord& span) {
  FlightEvent ev;
  ev.kind = FlightEvent::Kind::kSpanBegin;
  ev.name = to_string(span.phase);
  ev.seq = seq_++;
  ev.id = span.id;
  ev.parent = span.parent;
  ev.family = span.family;
  ev.object = span.object;
  ev.trace = span.trace;
  ev.link = span.link;
  put(span.node, ev);
}

void FlightRecorder::note_span_end(const SpanRecord& span) {
  FlightEvent ev;
  ev.kind = FlightEvent::Kind::kSpanEnd;
  ev.name = to_string(span.phase);
  ev.seq = seq_++;
  ev.id = span.id;
  ev.parent = span.parent;
  ev.family = span.family;
  ev.object = span.object;
  ev.trace = span.trace;
  ev.link = span.link;
  put(span.node, ev);
}

void FlightRecorder::note_instant(const SpanRecord& span) {
  FlightEvent ev;
  ev.kind = FlightEvent::Kind::kInstant;
  ev.name = to_string(span.phase);
  ev.seq = seq_++;
  ev.id = span.id;
  ev.parent = span.parent;
  ev.family = span.family;
  ev.object = span.object;
  ev.trace = span.trace;
  ev.link = span.link;
  put(span.node, ev);
}

void FlightRecorder::note_crash(std::uint32_t node) {
  FlightEvent ev;
  ev.kind = FlightEvent::Kind::kCrash;
  ev.name = "crash";
  ev.seq = seq_++;
  put(node, ev);
}

std::vector<FlightEvent> FlightRecorder::events(std::uint32_t node) const {
  std::vector<FlightEvent> out;
  if (node >= rings_.size()) return out;
  const NodeRing& ring = rings_[node];
  for (const FlightEvent& ev : ring.slots)
    if (ev.kind != FlightEvent::Kind::kNone) out.push_back(ev);
  std::sort(out.begin(), out.end(),
            [](const FlightEvent& a, const FlightEvent& b) {
              return a.seq < b.seq;
            });
  return out;
}

void FlightRecorder::dump(std::ostream& os, std::uint32_t victim) const {
  os << "{\"traceEvents\":[";
  bool first = true;
  const auto sep = [&] {
    if (!first) os << ",";
    first = false;
    os << "\n";
  };

  // Per-node process metadata (the victim is called out by name so the
  // post-mortem reader finds the interesting process immediately).
  for (std::uint32_t n = 0; n < rings_.size(); ++n) {
    sep();
    os << "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":" << n
       << ",\"tid\":0,\"args\":{\"name\":\"node " << n
       << (n == victim ? " (CRASH VICTIM)" : "") << "\"}}";
  }

  for (std::uint32_t n = 0; n < rings_.size(); ++n) {
    const std::vector<FlightEvent> evs = events(n);
    if (evs.empty()) continue;
    const std::uint64_t newest = evs.back().seq;

    // Pair span begins with their ends inside the ring window.
    std::map<std::uint64_t, const FlightEvent*> ends;
    for (const FlightEvent& ev : evs)
      if (ev.kind == FlightEvent::Kind::kSpanEnd) ends[ev.id] = &ev;

    std::set<std::uint64_t> paired;
    for (const FlightEvent& ev : evs) {
      switch (ev.kind) {
        case FlightEvent::Kind::kSpanBegin: {
          const auto it = ends.find(ev.id);
          const bool open = it == ends.end();
          // An open slice reaches the newest event — the span was still in
          // flight when the recording stopped (e.g. the victim's
          // commit.report at the crash instant).
          const std::uint64_t end_seq = open ? newest + 1 : it->second->seq;
          if (!open) paired.insert(ev.id);
          sep();
          os << "{\"name\":\"" << json_escape(ev.name)
             << "\",\"cat\":\"flight\",\"ph\":\"X\",\"ts\":" << ev.seq
             << ",\"dur\":" << (end_seq - ev.seq) << ",\"pid\":" << n
             << ",\"tid\":" << ev.family << ",\"args\":{\"id\":" << ev.id
             << ",\"trace\":" << ev.trace;
          if (open) os << ",\"open\":1";
          os << "}}";
          break;
        }
        case FlightEvent::Kind::kSpanEnd:
          // An end whose begin scrolled out of the ring: render the tail we
          // still know about as a truncated slice from the ring's horizon.
          if (paired.count(ev.id) == 0) {
            const std::uint64_t horizon = evs.front().seq;
            sep();
            os << "{\"name\":\"" << json_escape(ev.name)
               << "\",\"cat\":\"flight\",\"ph\":\"X\",\"ts\":" << horizon
               << ",\"dur\":" << (ev.seq - horizon) << ",\"pid\":" << n
               << ",\"tid\":" << ev.family << ",\"args\":{\"id\":" << ev.id
               << ",\"trace\":" << ev.trace << ",\"truncated\":1}}";
          }
          break;
        case FlightEvent::Kind::kInstant:
          sep();
          os << "{\"name\":\"" << json_escape(ev.name)
             << "\",\"cat\":\"flight\",\"ph\":\"i\",\"s\":\"t\",\"ts\":"
             << ev.seq << ",\"pid\":" << n << ",\"tid\":" << ev.family
             << ",\"args\":{\"trace\":" << ev.trace << "}}";
          break;
        case FlightEvent::Kind::kMessage:
          sep();
          os << "{\"name\":\"msg " << json_escape(ev.name)
             << "\",\"cat\":\"flight\",\"ph\":\"i\",\"s\":\"t\",\"ts\":"
             << ev.seq << ",\"pid\":" << n
             << ",\"tid\":0,\"args\":{\"src\":" << ev.src << ",\"dst\":"
             << ev.dst << ",\"bytes\":" << ev.bytes << ",\"trace\":"
             << ev.trace << "}}";
          break;
        case FlightEvent::Kind::kCrash:
          sep();
          os << "{\"name\":\"CRASH\",\"cat\":\"flight\",\"ph\":\"i\","
                "\"s\":\"p\",\"ts\":"
             << ev.seq << ",\"pid\":" << n << ",\"tid\":0,\"args\":{}}";
          break;
        case FlightEvent::Kind::kNone:
          break;
      }
    }
  }
  os << "\n]}\n";
}

bool FlightRecorder::dump_file(const std::string& path,
                               std::uint32_t victim) const {
  std::ofstream os(path);
  if (!os) return false;
  dump(os, victim);
  return os.good();
}

}  // namespace lotec
