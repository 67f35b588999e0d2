// WireTransport: the Transport backend behind `--distributed N`.
//
// The deterministic in-process simulation stays the driver: the coordinator
// process executes families exactly as before, and the base Transport does
// all accounting, fault-hook consultation and reachability checking.  What
// this subclass adds is physics — after the base class accepts a remote
// message, the same message is *shipped* through real OS processes:
//
//   coordinator --Data--> worker[src] --Data--> worker[dst]
//   coordinator <--Ack--- worker[src] <--Ack--- worker[dst]
//
// Worker[dst] accounts the delivery into its own ledger (and its local
// shard mirror) before acknowledging.  Because the identical code path
// decides what gets accounted in both modes, the wire backend produces
// bit-identical message/byte counts to the in-process transport for the
// same seed and scenario — and on_batch_complete() *proves* it by
// gathering every worker's ledger and cross-checking per message kind.
//
// Pipelining: the acks carry nothing the simulation decides on, so a ship
// writes its frame (header and payload in one write) and returns.  Each
// worker connection keeps the correlation ids it still owes an ack for, at
// most kMaxUnackedFrames of them; the acks are collected (drained) when
// that window is full, before a worker is killed, at batch end and at
// teardown.  A Nack, a timeout or a broken connection surfaces at the
// drain as NodeUnreachable(src, dst) — the exception the runtime's
// recovery paths already handle.  set_node_failed(node, true) drains every
// connection, then kills the real worker process (SIGKILL), so no frame
// shipped before a crash is lost with it; recovery respawns the worker on
// the same pre-bound listen socket.  Any kill marks the ledger incomplete
// and downgrades the batch-end cross-check (a dead incarnation's
// deliveries died with it).
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "net/transport.hpp"
#include "net/wire_config.hpp"
#include "wire/frame.hpp"
#include "wire/launcher.hpp"
#include "wire/ledger.hpp"
#include "wire/socket.hpp"

namespace lotec::wire {

/// Frames the coordinator ships on one worker connection before it stops to
/// collect their acks.  64 acks are 4 KiB, far below a socket buffer, so a
/// worker never blocks writing acks while the coordinator blocks writing
/// data.
inline constexpr std::size_t kMaxUnackedFrames = 64;

class WireTransport final : public Transport {
 public:
  /// Spawns the worker fleet and completes the Hello/HelloAck handshake
  /// with every worker.  Throws on spawn or handshake failure.
  WireTransport(std::size_t num_nodes, NetworkConfig net_config,
                WireConfig wire_config);

  /// Drains the outstanding acks, then shuts the fleet down gracefully
  /// (Shutdown frames, so workers flush their span files) before the
  /// supervisor reaps anything left.
  ~WireTransport() override;

  void send(const WireMessage& m) override;
  std::vector<NodeId> send_to_all(
      const WireMessage& m, const std::vector<NodeId>& destinations) override;
  void set_node_failed(NodeId node, bool failed) override;
  void on_batch_complete() override;

  /// Shipped frames on worker[node]'s connection whose acks are not
  /// collected yet (never above kMaxUnackedFrames).
  [[nodiscard]] std::size_t deferred_pending(std::uint32_t node) const {
    return links_.at(node).unacked.size();
  }
  /// The same, summed over every connection (0 after on_batch_complete).
  [[nodiscard]] std::size_t deferred_pending() const noexcept {
    std::size_t n = 0;
    for (const Link& l : links_) n += l.unacked.size();
    return n;
  }
  /// Acks and Nacks that matched no outstanding frame.  Every reply is
  /// owed by exactly one shipped frame, so this stays 0.
  [[nodiscard]] std::uint64_t unmatched_replies() const noexcept {
    return unmatched_replies_;
  }

  /// What this coordinator successfully shipped, by kind (full wire bytes).
  [[nodiscard]] const std::array<KindCounts, kNumWireKinds>& shipped()
      const noexcept {
    return shipped_;
  }
  /// Sum of all worker ledgers gathered by the last on_batch_complete().
  [[nodiscard]] const WorkerLedger& gathered() const noexcept {
    return gathered_;
  }
  /// Per-worker ledgers from the last gather (index = node id).
  [[nodiscard]] const std::vector<WorkerLedger>& worker_ledgers()
      const noexcept {
    return worker_ledgers_;
  }
  /// False once any worker was killed: deliveries accounted by a dead
  /// incarnation are unrecoverable, so the strict cross-check is skipped.
  [[nodiscard]] bool ledger_complete() const noexcept {
    return ledger_complete_;
  }
  [[nodiscard]] const WorkerSupervisor& supervisor() const noexcept {
    return *supervisor_;
  }

 private:
  /// A data frame written to a worker whose ack is still to be collected.
  struct Unacked {
    MessageKind kind{};
    NodeId dst{};
    std::uint64_t total_bytes = 0;
    std::uint64_t correlation = 0;
  };

  /// The coordinator's connection to one worker.
  struct Link {
    Fd fd;
    /// Received bytes not yet decoded; `rx_off` marks the decoded prefix.
    std::vector<std::byte> rx;
    std::size_t rx_off = 0;
    std::vector<Unacked> unacked;
  };

  void handshake(std::uint32_t node);
  void reconnect(std::uint32_t node);
  /// Forget the connection to worker[node] and everything buffered on it.
  void drop_link(std::uint32_t node);
  /// Write `f` and its (zero-filled) payload to worker[node] in one write.
  void write_frame(std::uint32_t node, const Frame& f);
  /// Decode the next frame from worker[node]'s connection, receiving more
  /// bytes only when the buffer holds no whole frame.  The payload is
  /// copied to `payload_out` when given.  Throws SocketError on EOF,
  /// error or `deadline`.
  Frame read_frame(std::uint32_t node,
                   std::chrono::steady_clock::time_point deadline,
                   std::vector<std::byte>* payload_out = nullptr);
  /// Read frames until the reply carrying `correlation` arrives.
  Frame read_reply(std::uint32_t node, std::uint64_t correlation,
                   std::chrono::steady_clock::time_point deadline,
                   std::vector<std::byte>* payload_out = nullptr);
  /// Write one data frame to worker[src] without waiting for its ack,
  /// draining the connection first when its window is full.
  void ship(const WireMessage& m, std::uint32_t dst);
  /// Collect every outstanding ack of worker[src]'s connection; counts the
  /// acknowledged frames into shipped_ and throws NodeUnreachable when any
  /// frame was Nacked or the connection failed.
  void drain(std::uint32_t src);
  void drain_all();

  WireConfig wire_;
  std::unique_ptr<WorkerSupervisor> supervisor_;
  std::vector<Link> links_;  // index = node id
  /// Reused encode buffer; everything past the header stays zero.
  std::vector<std::byte> tx_;
  std::uint64_t next_correlation_ = 0;
  std::uint64_t unmatched_replies_ = 0;
  std::array<KindCounts, kNumWireKinds> shipped_{};
  WorkerLedger gathered_;
  std::vector<WorkerLedger> worker_ledgers_;
  bool ledger_complete_ = true;
};

}  // namespace lotec::wire
