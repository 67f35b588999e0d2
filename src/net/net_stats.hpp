// NetworkStats: the ledger of every message the system sends.
//
// Byte counts per shared object are the paper's primary measured quantity
// (Figures 2-5); message counts feed the time model (Figures 6-8) and the
// "LOTEC sends many more, smaller messages" observation; per-kind totals
// drive the locking-overhead analysis of Section 5.1.  Local lock
// operations (no network) are counted separately so the GDO-message /
// local-operation ratio can be reported.
#pragma once

#include <algorithm>
#include <array>
#include <cstdint>
#include <unordered_map>
#include <vector>

#include "common/flat_map.hpp"
#include "net/cost_model.hpp"
#include "net/message.hpp"

namespace lotec {

/// One recorded message in the optional trace (observability: dump to CSV
/// via sim/trace.hpp and analyze with tools/trace_report).
struct TraceEvent {
  std::uint64_t seq = 0;
  MessageKind kind{};
  NodeId src{};
  NodeId dst{};
  ObjectId object{};
  std::uint64_t payload_bytes = 0;
  std::uint64_t total_bytes = 0;

  /// Traces are compared whole for the fault-determinism guarantee (same
  /// seed => byte-identical message sequence).
  friend bool operator==(const TraceEvent&, const TraceEvent&) = default;
};

struct TrafficCounter {
  std::uint64_t messages = 0;
  std::uint64_t bytes = 0;

  void add(std::uint64_t message_bytes) noexcept {
    ++messages;
    bytes += message_bytes;
  }
  TrafficCounter& operator+=(const TrafficCounter& o) noexcept {
    messages += o.messages;
    bytes += o.bytes;
    return *this;
  }
};

class NetworkStats {
 public:
  /// Record one unicast message.  `joined_batch` marks a message that rode
  /// an already-open physical batch frame to the same destination
  /// (Transport's MessageBatcher): its LOGICAL accounting — total, per-kind,
  /// per-object, trace — is identical either way (the paper's cost model and
  /// every figure counter stay bit-exact); only the PHYSICAL ledger differs,
  /// charging a batch entry header instead of a full frame header and no new
  /// physical send.
  void record(const WireMessage& m, bool joined_batch = false) {
    const std::uint64_t n = m.total_bytes();
    total_.add(n);
    by_kind_[static_cast<std::size_t>(m.kind)].add(n);
    if (m.object.valid()) {
      by_object_[m.object].add(n);
      if (carries_page_data(m.kind)) page_data_by_object_[m.object].add(n);
    }
    if (joined_batch) {
      // Rides the open frame: payload plus a batch entry header, no new
      // physical send.
      physical_.bytes += m.payload_bytes + wire::kBatchEntryHeaderBytes;
      ++batched_joins_;
    } else {
      physical_.add(n);
    }
    if (trace_capacity_ > 0) {
      if (trace_.size() < trace_capacity_) {
        trace_.push_back(TraceEvent{total_.messages, m.kind, m.src, m.dst,
                                    m.object, m.payload_bytes, n});
      } else {
        ++trace_dropped_;
      }
    }
  }

  /// Record a message sent to `fanout` destinations.  With multicast
  /// enabled the network carries one copy; otherwise `fanout` copies.
  void record_multicast(const WireMessage& m, std::size_t fanout,
                        bool multicast_capable) {
    const std::size_t copies = multicast_capable ? 1 : fanout;
    for (std::size_t i = 0; i < copies; ++i) record(m);
  }

  /// Enable tracing of every message (bounded; oldest events are NOT
  /// evicted — recording stops at capacity and drop_count() reports the
  /// overflow).
  void enable_trace(std::size_t capacity) {
    trace_capacity_ = capacity;
    trace_.clear();
    trace_.reserve(std::min<std::size_t>(capacity, 1 << 16));
    trace_dropped_ = 0;
  }

  [[nodiscard]] std::vector<TraceEvent> trace() const {
    return trace_;
  }

  [[nodiscard]] std::uint64_t trace_dropped() const {
    return trace_dropped_;
  }

  /// Count a purely local lock operation (no network traffic).
  void record_local_lock_op() {
    ++local_lock_ops_;
  }

  // --- queries -----------------------------------------------------------

  [[nodiscard]] TrafficCounter total() const {
    return total_;
  }

  [[nodiscard]] TrafficCounter by_kind(MessageKind k) const {
    return by_kind_[static_cast<std::size_t>(k)];
  }

  /// Traffic attributed to one shared object (zero counter if none).
  [[nodiscard]] TrafficCounter by_object(ObjectId id) const {
    const auto it = by_object_.find(id);
    return it == by_object_.end() ? TrafficCounter{} : it->second;
  }

  /// All per-object rows (copy; the internal table is a FlatMap but callers
  /// keep the familiar unordered_map shape).
  [[nodiscard]] std::unordered_map<ObjectId, TrafficCounter> per_object()
      const {
    std::unordered_map<ObjectId, TrafficCounter> out;
    out.reserve(by_object_.size());
    for (const auto& [id, c] : by_object_) out.emplace(id, c);
    return out;
  }

  /// Bytes of page data only (excluding control traffic), per object.
  [[nodiscard]] TrafficCounter page_data_by_object(ObjectId id) const {
    const auto it = page_data_by_object_.find(id);
    return it == page_data_by_object_.end() ? TrafficCounter{} : it->second;
  }

  [[nodiscard]] std::uint64_t local_lock_ops() const {
    return local_lock_ops_;
  }

  /// Physical wire traffic: frames actually put on the network after
  /// batching.  Equals total() exactly when batching is off (or never
  /// coalesced anything); with batching on, messages here counts frames and
  /// bytes reflects the per-entry header saving.
  [[nodiscard]] TrafficCounter physical() const {
    return physical_;
  }

  /// Logical messages that rode an existing batch frame instead of paying a
  /// physical send of their own.
  [[nodiscard]] std::uint64_t batched_joins() const {
    return batched_joins_;
  }

  /// Total consistency-maintenance time for one object under a cost model
  /// (sum of per-message software cost + transmission time).
  [[nodiscard]] double object_time_us(ObjectId id,
                                      const NetworkCostModel& model) const {
    const TrafficCounter c = by_object(id);
    return model.total_time_us(c.messages, c.bytes);
  }

  void reset() {
    total_ = {};
    by_kind_.fill(TrafficCounter{});
    by_object_.clear();
    page_data_by_object_.clear();
    physical_ = {};
    batched_joins_ = 0;
    local_lock_ops_ = 0;
    trace_.clear();
    trace_dropped_ = 0;
  }

 private:
  TrafficCounter total_;
  std::array<TrafficCounter, static_cast<std::size_t>(MessageKind::kNumKinds)>
      by_kind_{};
  FlatMap<ObjectId, TrafficCounter> by_object_;
  FlatMap<ObjectId, TrafficCounter> page_data_by_object_;
  TrafficCounter physical_;
  std::uint64_t batched_joins_ = 0;
  std::uint64_t local_lock_ops_ = 0;
  std::size_t trace_capacity_ = 0;
  std::vector<TraceEvent> trace_;
  std::uint64_t trace_dropped_ = 0;
};

}  // namespace lotec
