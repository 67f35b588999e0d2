#include "obs/span.hpp"

#include <algorithm>
#include <fstream>
#include <mutex>
#include <ostream>
#include <set>
#include <stdexcept>
#include <utility>

#include "obs/chrome_trace.hpp"
#include "obs/flight_recorder.hpp"
#include "obs/metrics.hpp"

namespace lotec {

std::string_view to_string(SpanPhase phase) noexcept {
  switch (phase) {
    case SpanPhase::kFamilyAttempt: return "family.attempt";
    case SpanPhase::kLockAcquire: return "lock.acquire";
    case SpanPhase::kLockInherit: return "lock.inherit";
    case SpanPhase::kGdoRound: return "gdo.round";
    case SpanPhase::kPageGather: return "page.gather";
    case SpanPhase::kMethodExecute: return "method.execute";
    case SpanPhase::kUndo: return "txn.undo";
    case SpanPhase::kCommitReport: return "commit.report";
    case SpanPhase::kCallbackRound: return "cache.callback_round";
    case SpanPhase::kFaultEvent: return "fault.event";
    case SpanPhase::kGdoServe: return "gdo.serve";
    case SpanPhase::kPageServe: return "page.serve";
    case SpanPhase::kLockGrant: return "lock.grant";
    case SpanPhase::kWireDeliver: return "wire.deliver";
    case SpanPhase::kSnapshotMapRound: return "snapshot.map_round";
    case SpanPhase::kSnapshotFetch: return "snapshot.fetch";
    case SpanPhase::kBatchFlush: return "batch.flush";
  }
  return "unknown";
}

std::string_view intern_message_kind(std::string_view kind) {
  // A leaked set of owned strings: entries must outlive every MessageRecord,
  // including records held across tracer teardown, so process lifetime is
  // the only safe bound.  The domain is message-kind names — a few dozen.
  // Process-global (clusters on different threads share it): keeps a lock.
  static std::mutex mu;
  static auto* interned = new std::set<std::string, std::less<>>();
  std::lock_guard<std::mutex> lock(mu);
  auto it = interned->find(kind);
  if (it == interned->end()) it = interned->emplace(kind).first;
  return *it;
}

JsonLinesSink::JsonLinesSink(const std::string& path)
    : owned_(std::make_unique<std::ofstream>(path)), os_(owned_.get()) {
  if (!*os_) throw std::runtime_error("cannot open span sink file: " + path);
}

JsonLinesSink::JsonLinesSink(std::ostream& os) : os_(&os) {}

JsonLinesSink::~JsonLinesSink() { flush(); }

void JsonLinesSink::on_span(const SpanRecord& span) {
  write_span_jsonl(span, *os_);
}

void JsonLinesSink::on_message(const MessageRecord& message) {
  write_message_jsonl(message, *os_);
}

void JsonLinesSink::flush() { os_->flush(); }

ChromeTraceSink::ChromeTraceSink(std::string path) : path_(std::move(path)) {}

ChromeTraceSink::~ChromeTraceSink() {
  try {
    flush();
  } catch (...) {
  }
}

void ChromeTraceSink::flush() {
  std::ofstream os(path_);
  if (!os) throw std::runtime_error("cannot open chrome trace file: " + path_);
  write_chrome_trace(spans_, os);
  written_ = true;
}

void SpanTracer::enable() {
  enabled_ = true;
  if (registry_) {
    for (std::size_t i = 0; i < kNumSpanPhases; ++i) {
      const auto phase = static_cast<SpanPhase>(i);
      phase_hist_[i] = &registry_->histogram(
          "span." + std::string(to_string(phase)));
    }
  }
}

void SpanTracer::add_sink(std::unique_ptr<SpanSink> sink) {
  sinks_.push_back(std::move(sink));
}

std::uint64_t SpanTracer::begin_span(SpanPhase phase, std::uint64_t family,
                                     std::uint32_t node, std::uint64_t object,
                                     std::uint64_t trace_override,
                                     std::uint64_t link) {
  SpanRecord span;
  span.id = next_id_++;
  span.phase = phase;
  span.family = family;
  span.node = node;
  span.object = object;
  span.begin = next_tick();
  span.end = span.begin;
  span.link = link;
  const std::uint64_t lane = lane_for(family, node);
  auto& stack = open_[lane];
  span.parent = stack.empty() ? 0 : stack.back().id;
  if (trace_override != 0) {
    span.trace = trace_override;
  } else if (phase == SpanPhase::kFamilyAttempt) {
    // Every attempt — including each retry — is its own causal domain.
    span.trace = next_trace_++;
  } else {
    span.trace = stack.empty() ? 0 : stack.back().trace;
  }
  stack.push_back(span);
  open_lane_[span.id] = lane;
  if (recorder_ != nullptr) recorder_->note_span_begin(span);
  context_->push_back({span.id, span.trace, phase});
  return span.id;
}

std::uint64_t SpanTracer::begin(SpanPhase phase, std::uint64_t family,
                                std::uint32_t node, std::uint64_t object) {
  if (!enabled_) return 0;
  return begin_span(phase, family, node, object, /*trace_override=*/0,
                    /*link=*/0);
}

std::uint64_t SpanTracer::begin_remote(SpanPhase phase, std::uint32_t node,
                                       const TraceContext& ctx,
                                       std::uint64_t object) {
  if (!enabled_) return 0;
  return begin_span(phase, /*family=*/0, node, object, ctx.trace_id,
                    ctx.parent_span);
}

void SpanTracer::end(std::uint64_t id, std::uint64_t family) {
  if (!enabled_ || id == 0) return;
  const auto lane_it = open_lane_.find(id);
  // Resolve the lane the span was opened on; fall back to the caller's
  // family hint for ids the tracer no longer knows (already closed).
  std::uint64_t lane = family;
  if (lane_it != open_lane_.end()) lane = lane_it->second;
  auto it = open_.find(lane);
  if (it == open_.end() || it->second.empty()) return;
  // Spans are strictly LIFO per lane; close any inner spans left open by an
  // exception unwinding past their scope.
  auto& stack = it->second;
  std::vector<std::uint64_t> closed;
  while (!stack.empty()) {
    SpanRecord span = stack.back();
    stack.pop_back();
    span.end = next_tick();
    open_lane_.erase(span.id);
    closed.push_back(span.id);
    emit(span);
    if (span.id == id) break;
  }
  std::erase_if(*context_, [&](const SpanContextEntry& e) {
    return std::find(closed.begin(), closed.end(), e.span) != closed.end();
  });
}

void SpanTracer::instant(SpanPhase phase, std::uint64_t family,
                         std::uint32_t node, std::uint64_t object) {
  instant_linked(phase, family, node, TraceContext{}, object);
}

void SpanTracer::instant_linked(SpanPhase phase, std::uint64_t family,
                                std::uint32_t node, const TraceContext& ctx,
                                std::uint64_t object) {
  if (!enabled_) return;
  SpanRecord span;
  span.id = next_id_++;
  span.phase = phase;
  span.family = family;
  span.node = node;
  span.object = object;
  span.begin = next_tick();
  span.end = span.begin;
  span.link = ctx.parent_span;
  const auto it = open_.find(lane_for(family, node));
  if (it != open_.end() && !it->second.empty()) {
    span.parent = it->second.back().id;
    span.trace = it->second.back().trace;
  } else if (ctx.valid()) {
    span.trace = ctx.trace_id;
  }
  if (recorder_ != nullptr) recorder_->note_instant(span);
  emit(span);
}

TraceContext SpanTracer::current_context() const {
  if (!enabled_ || context_->empty()) return {};
  const SpanContextEntry& top = context_->back();
  return {top.trace, top.span, static_cast<std::uint8_t>(top.phase)};
}

void SpanTracer::note_message(std::string_view kind, std::uint32_t src,
                              std::uint32_t dst, std::uint64_t object,
                              std::uint64_t bytes, const TraceContext& ctx) {
  if (!enabled_) return;
  MessageRecord rec;
  rec.tick = now();
  rec.kind = kind;  // view of the caller's static to_string table: no copy
  rec.src = src;
  rec.dst = dst;
  rec.object = object;
  rec.bytes = bytes;
  rec.trace = ctx.trace_id;
  rec.span = ctx.parent_span;
  for (auto& sink : sinks_) sink->on_message(rec);
  messages_.push_back(std::move(rec));
}

void SpanTracer::emit(const SpanRecord& span) {
  done_.push_back(span);
  if (recorder_ != nullptr && span.end != span.begin)
    recorder_->note_span_end(span);
  if (auto* hist = phase_hist_[static_cast<std::size_t>(span.phase)]) {
    hist->record(span.end - span.begin);
  }
  for (auto& sink : sinks_) sink->on_span(span);
}

std::vector<SpanRecord> SpanTracer::spans() const {
  return done_;
}

std::vector<MessageRecord> SpanTracer::messages() const {
  return messages_;
}

std::size_t SpanTracer::open_count() const {
  std::size_t n = 0;
  for (const auto& [lane, stack] : open_) n += stack.size();
  return n;
}

void SpanTracer::flush_sinks() {
  for (auto& sink : sinks_) sink->flush();
}

}  // namespace lotec
