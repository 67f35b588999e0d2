// Message taxonomy and wire sizing.
//
// Every cross-node interaction in the system is described by a WireMessage
// and charged to the NetworkStats ledger.  The byte sizes below model a
// realistic lightweight messaging protocol: a fixed per-message header
// (link + network + protocol framing) plus a payload whose size is computed
// by the sender from the actual data carried (page contents, holder lists,
// page maps, dirty-page piggybacks).
#pragma once

#include <cstdint>
#include <string_view>

#include "common/ids.hpp"
#include "obs/trace_context.hpp"

namespace lotec {

enum class MessageKind : std::uint8_t {
  // --- locking traffic (small control messages) ---
  kLockAcquireRequest,   ///< site -> GDO home: request object lock
  kLockAcquireGrant,     ///< GDO home -> site: grant + holder list + page map
  kLockAcquireQueued,    ///< GDO home -> site: request enqueued (will wake later)
  kLockGrantWakeup,      ///< GDO home -> site: queued request now granted
  kLockReleaseRequest,   ///< site -> GDO home: root release + dirty-page info
  kLockReleaseAck,       ///< GDO home -> site
  // --- consistency traffic (page data) ---
  kPageFetchRequest,     ///< acquiring site -> owner site: page list wanted
  kPageFetchReply,       ///< owner site -> acquiring site: page contents
  kDemandFetchRequest,   ///< LOTEC misprediction: fetch one page on demand
  kDemandFetchReply,
  kUpdatePush,           ///< RC extension: eager push of updates at release
  // --- directory maintenance ---
  kGdoReplicaSync,       ///< GDO home -> mirror: entry update
  kGdoReplicaAck,
  kGdoLookupRequest,     ///< site -> GDO home: read-only entry lookup
  kGdoLookupReply,
  kGdoRebuildRequest,    ///< restarted home -> mirror: entry copies wanted
  kGdoRebuildReply,      ///< mirror -> restarted home: entry + page map
  // --- prefetch extension (Section 5.1 future work) ---
  kPrefetchLockRequest,  ///< optimistic pre-acquisition of a lock
  kPrefetchPageReply,
  // --- inter-family lock caching (callback locking extension) ---
  kLockCallback,         ///< GDO home -> caching site: revoke/downgrade cached lock
  kCallbackReply,        ///< caching site -> GDO home: flush + dirty-page records
  // --- multi-version snapshot reads (mv_read extension) ---
  kSnapshotMapRequest,   ///< reading site -> GDO home: page map + commit tick
  kSnapshotMapReply,     ///< GDO home -> reading site: map copy, no lock taken
  kSnapshotFetchRequest, ///< reading site -> owner site: versioned pages wanted
  kSnapshotFetchReply,   ///< owner site -> reading site: newest-\<=-stamp pages

  kNumKinds  // sentinel
};

[[nodiscard]] constexpr std::string_view to_string(MessageKind k) noexcept {
  switch (k) {
    case MessageKind::kLockAcquireRequest: return "LockAcquireRequest";
    case MessageKind::kLockAcquireGrant: return "LockAcquireGrant";
    case MessageKind::kLockAcquireQueued: return "LockAcquireQueued";
    case MessageKind::kLockGrantWakeup: return "LockGrantWakeup";
    case MessageKind::kLockReleaseRequest: return "LockReleaseRequest";
    case MessageKind::kLockReleaseAck: return "LockReleaseAck";
    case MessageKind::kPageFetchRequest: return "PageFetchRequest";
    case MessageKind::kPageFetchReply: return "PageFetchReply";
    case MessageKind::kDemandFetchRequest: return "DemandFetchRequest";
    case MessageKind::kDemandFetchReply: return "DemandFetchReply";
    case MessageKind::kUpdatePush: return "UpdatePush";
    case MessageKind::kGdoReplicaSync: return "GdoReplicaSync";
    case MessageKind::kGdoReplicaAck: return "GdoReplicaAck";
    case MessageKind::kGdoLookupRequest: return "GdoLookupRequest";
    case MessageKind::kGdoLookupReply: return "GdoLookupReply";
    case MessageKind::kGdoRebuildRequest: return "GdoRebuildRequest";
    case MessageKind::kGdoRebuildReply: return "GdoRebuildReply";
    case MessageKind::kPrefetchLockRequest: return "PrefetchLockRequest";
    case MessageKind::kPrefetchPageReply: return "PrefetchPageReply";
    case MessageKind::kLockCallback: return "LockCallback";
    case MessageKind::kCallbackReply: return "CallbackReply";
    case MessageKind::kSnapshotMapRequest: return "SnapshotMapRequest";
    case MessageKind::kSnapshotMapReply: return "SnapshotMapReply";
    case MessageKind::kSnapshotFetchRequest: return "SnapshotFetchRequest";
    case MessageKind::kSnapshotFetchReply: return "SnapshotFetchReply";
    case MessageKind::kNumKinds: break;
  }
  return "?";
}

/// Does this kind carry page data (as opposed to pure control information)?
[[nodiscard]] constexpr bool carries_page_data(MessageKind k) noexcept {
  switch (k) {
    case MessageKind::kPageFetchReply:
    case MessageKind::kDemandFetchReply:
    case MessageKind::kUpdatePush:
    case MessageKind::kPrefetchPageReply:
    case MessageKind::kSnapshotFetchReply:
      return true;
    default:
      return false;
  }
}

/// Wire sizing constants (bytes).
namespace wire {
/// Fixed framing per message: Ethernet (18) + IP (20) + UDP (8) + LOTEC
/// protocol header (18: kind, ids, lengths).
inline constexpr std::uint64_t kHeaderBytes = 64;
/// One <transaction id, node id> pair in a holder / waiter list (Fig. 1).
inline constexpr std::uint64_t kTxnNodePairBytes = 16;
/// One page-map entry: page index + owning node + version LSN.
inline constexpr std::uint64_t kPageMapEntryBytes = 16;
/// One dirty-page record piggybacked on a release message.
inline constexpr std::uint64_t kDirtyPageRecordBytes = 8;
/// A page-list entry in a fetch request.
inline constexpr std::uint64_t kPageRequestEntryBytes = 8;
/// Lock metadata (object id, mode, state flags) in lock messages.
inline constexpr std::uint64_t kLockRecordBytes = 24;
/// Per-entry header inside a batched frame (kind, ids, length): a message
/// that joins an open batch pays this instead of the full kHeaderBytes —
/// the network/transport framing (Ethernet/IP/UDP) is shared with the batch
/// head.  Physical accounting only; logical per-message costs never change.
inline constexpr std::uint64_t kBatchEntryHeaderBytes = 16;
}  // namespace wire

/// One recorded message.  `payload_bytes` excludes the fixed header.
struct WireMessage {
  MessageKind kind{};
  NodeId src{};
  NodeId dst{};
  /// Object whose consistency/locking this message serves (may be invalid
  /// for directory housekeeping not attributable to a single object).
  ObjectId object{};
  std::uint64_t payload_bytes = 0;
  /// Causal header (rides in the fixed frame's padding — see
  /// obs/trace_context.hpp).  NOT part of total_bytes() and never compared
  /// by the checker's message fingerprint; `mutable` so the Transport can
  /// stamp it on the const reference every call site passes (the five
  /// members above stay positional-brace-initializable).
  mutable TraceContext trace{};

  [[nodiscard]] std::uint64_t total_bytes() const noexcept {
    return wire::kHeaderBytes + payload_bytes;
  }
};

}  // namespace lotec
