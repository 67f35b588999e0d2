// WorkerLedger: the per-process accounting a lotec_worker keeps of every
// frame it relayed (as the source site) and delivered (as the destination
// site), plus the node-local shard mirror counters (locks installed at this
// site, page bytes stored, directory requests served by this shard).
//
// The coordinator gathers each worker's ledger through a StatsRequest /
// StatsReply round at the end of a batch and cross-checks it against what
// the WireTransport shipped — the golden-counter comparison that gates the
// wire backend against the in-process transport.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "net/message.hpp"
#include "wire/frame.hpp"

namespace lotec::wire {

struct KindCounts {
  std::uint64_t messages = 0;
  std::uint64_t bytes = 0;

  friend bool operator==(const KindCounts&, const KindCounts&) = default;
};

inline constexpr std::size_t kNumWireKinds =
    static_cast<std::size_t>(MessageKind::kNumKinds);

struct WorkerLedger {
  /// Frames this worker accepted as the destination site, by kind.  Bytes
  /// are full wire bytes (fixed header + payload), matching
  /// WireMessage::total_bytes().
  std::array<KindCounts, kNumWireKinds> delivered{};
  /// Frames this worker forwarded as the source site, by kind.
  std::array<KindCounts, kNumWireKinds> relayed{};

  // --- node-local shard mirror (GDO shard / page store / lock table) ------
  /// Global lock grants installed into this site's lock table
  /// (LockAcquireGrant + LockGrantWakeup deliveries).
  std::uint64_t locks_granted = 0;
  /// Release acknowledgements retiring entries from this site's lock table.
  std::uint64_t locks_released = 0;
  /// Directory requests served by the GDO shard hosted on this node
  /// (lock/lookup/rebuild/release requests addressed to it).
  std::uint64_t gdo_requests_served = 0;
  /// Replica-sync frames applied by this node as a mirror.
  std::uint64_t replica_syncs_applied = 0;
  /// Page payload bytes stored into this node's page store (page-carrying
  /// deliveries).
  std::uint64_t page_bytes_stored = 0;

  [[nodiscard]] KindCounts delivered_total() const noexcept {
    KindCounts t;
    for (const KindCounts& c : delivered) {
      t.messages += c.messages;
      t.bytes += c.bytes;
    }
    return t;
  }
  [[nodiscard]] KindCounts relayed_total() const noexcept {
    KindCounts t;
    for (const KindCounts& c : relayed) {
      t.messages += c.messages;
      t.bytes += c.bytes;
    }
    return t;
  }

  WorkerLedger& operator+=(const WorkerLedger& o) noexcept {
    for (std::size_t k = 0; k < kNumWireKinds; ++k) {
      delivered[k].messages += o.delivered[k].messages;
      delivered[k].bytes += o.delivered[k].bytes;
      relayed[k].messages += o.relayed[k].messages;
      relayed[k].bytes += o.relayed[k].bytes;
    }
    locks_granted += o.locks_granted;
    locks_released += o.locks_released;
    gdo_requests_served += o.gdo_requests_served;
    replica_syncs_applied += o.replica_syncs_applied;
    page_bytes_stored += o.page_bytes_stored;
    return *this;
  }

  friend bool operator==(const WorkerLedger&, const WorkerLedger&) = default;
};

/// StatsReply payload: little-endian u64 sequence
/// [kNumWireKinds, {delivered msgs, delivered bytes, relayed msgs, relayed
/// bytes} x kinds, locks_granted, locks_released,
/// gdo_requests_served, replica_syncs_applied, page_bytes_stored].
[[nodiscard]] std::vector<std::byte> serialize_ledger(const WorkerLedger& l);

/// Throws WireProtocolError on truncated / inconsistent payloads.
[[nodiscard]] WorkerLedger parse_ledger(std::span<const std::byte> payload);

}  // namespace lotec::wire
