#include "wire/wire_transport.hpp"

#include <algorithm>
#include <string>
#include <utility>

namespace lotec::wire {

WireTransport::WireTransport(std::size_t num_nodes, NetworkConfig net_config,
                             WireConfig wire_config)
    : Transport(num_nodes, net_config),
      wire_(std::move(wire_config)),
      supervisor_(std::make_unique<WorkerSupervisor>(
          wire_, static_cast<std::uint32_t>(num_nodes))) {
  links_.resize(num_nodes);
  worker_ledgers_.resize(num_nodes);
  for (std::uint32_t k = 0; k < num_nodes; ++k) handshake(k);
}

WireTransport::~WireTransport() {
  // Best effort throughout: the supervisor's destructor SIGKILLs whatever
  // ignored us.  Shutdown goes out to every worker before any reply is
  // read, so the workers flush their span files in parallel.
  std::vector<std::uint64_t> asked(links_.size(), 0);
  for (std::uint32_t k = 0; k < links_.size(); ++k) {
    try {
      drain(k);
      if (!links_[k].fd.valid()) continue;
      Frame f;
      f.type = FrameType::kShutdown;
      f.dst = k;
      f.correlation = ++next_correlation_;
      write_frame(k, f);
      asked[k] = f.correlation;
    } catch (const Error&) {
    }
  }
  const auto deadline = deadline_after(Millis(wire_.ack_timeout_ms));
  for (std::uint32_t k = 0; k < links_.size(); ++k) {
    if (asked[k] == 0) continue;
    try {
      (void)read_reply(k, asked[k], deadline);
    } catch (const Error&) {
    }
  }
}

void WireTransport::handshake(std::uint32_t node) {
  links_[node].fd =
      supervisor_->connect_to(node, Millis(wire_.handshake_timeout_ms));
  Frame hello;
  hello.type = FrameType::kHello;
  hello.src = kCoordinatorNode;
  hello.dst = node;
  hello.correlation = ++next_correlation_;
  write_frame(node, hello);
  const Frame reply =
      read_reply(node, hello.correlation,
                 deadline_after(Millis(wire_.handshake_timeout_ms)));
  if (reply.type != FrameType::kHelloAck)
    throw Error("wire: worker " + std::to_string(node) +
                " handshake failed (got frame type " +
                std::to_string(static_cast<int>(reply.type)) + ")");
}

void WireTransport::reconnect(std::uint32_t node) {
  drop_link(node);
  handshake(node);
}

void WireTransport::drop_link(std::uint32_t node) {
  Link& l = links_[node];
  // Acks still owed on this connection will never be collected.
  if (!l.unacked.empty()) ledger_complete_ = false;
  l = Link{};
}

void WireTransport::write_frame(std::uint32_t node, const Frame& f) {
  // Modeled payloads have sizes, not contents: the bytes after the header
  // are zeros, so the kernel carries exactly what the analytic model
  // charges.  Only the header is ever written into tx_, so growing it is
  // the only zero-filling needed.
  const std::size_t size = kFrameSize + f.payload_bytes;
  if (tx_.size() < size) tx_.resize(size);
  encode_frame(f, std::span<std::byte, kFrameSize>(tx_.data(), kFrameSize));
  write_full(links_[node].fd, std::span<const std::byte>(tx_.data(), size));
}

Frame WireTransport::read_frame(std::uint32_t node,
                                std::chrono::steady_clock::time_point deadline,
                                std::vector<std::byte>* payload_out) {
  Link& l = links_[node];
  for (;;) {
    const std::size_t avail = l.rx.size() - l.rx_off;
    if (avail >= kFrameSize) {
      const std::byte* head = l.rx.data() + l.rx_off;
      const Frame f = decode_frame(std::span<const std::byte>(head, kFrameSize));
      if (avail - kFrameSize >= f.payload_bytes) {
        if (payload_out != nullptr)
          payload_out->assign(head + kFrameSize,
                              head + kFrameSize + f.payload_bytes);
        l.rx_off += kFrameSize + f.payload_bytes;
        return f;
      }
    }
    l.rx.erase(l.rx.begin(),
               l.rx.begin() + static_cast<std::ptrdiff_t>(l.rx_off));
    l.rx_off = 0;
    read_available(l.fd, l.rx, deadline);
  }
}

Frame WireTransport::read_reply(std::uint32_t node, std::uint64_t correlation,
                                std::chrono::steady_clock::time_point deadline,
                                std::vector<std::byte>* payload_out) {
  // Callers drain the connection first, so nothing else is owed on it.
  for (;;) {
    const Frame f = read_frame(node, deadline, payload_out);
    if (f.correlation == correlation) return f;
  }
}

void WireTransport::ship(const WireMessage& m, std::uint32_t dst) {
  const std::uint32_t src = m.src.value();
  if (links_[src].unacked.size() >= kMaxUnackedFrames) drain(src);
  Frame f = data_frame(m, ++next_correlation_);
  f.dst = dst;  // send_to_all ships one copy per destination
  try {
    if (!links_[src].fd.valid()) reconnect(src);
    write_frame(src, f);
  } catch (const SocketError&) {
    drop_link(src);
    ledger_complete_ = false;
    throw NodeUnreachable(m.src, NodeId(dst));
  }
  links_[src].unacked.push_back(
      Unacked{m.kind, NodeId(dst), m.total_bytes(), f.correlation});
}

void WireTransport::drain(std::uint32_t src) {
  Link& l = links_[src];
  if (l.unacked.empty()) return;
  // Workers Nack a relay after ack_timeout_ms, so a healthy chain answers
  // well before this deadline.
  const auto deadline =
      deadline_after(Millis(std::uint64_t{2} * wire_.ack_timeout_ms));
  NodeId lost;  // destination of the first frame not delivered
  try {
    while (!l.unacked.empty()) {
      const Frame f = read_frame(src, deadline);
      if (f.type != FrameType::kAck && f.type != FrameType::kNack) continue;
      const auto it = std::find_if(
          l.unacked.begin(), l.unacked.end(),
          [&](const Unacked& u) { return u.correlation == f.correlation; });
      if (it == l.unacked.end()) {
        ++unmatched_replies_;
        continue;
      }
      if (f.type == FrameType::kAck) {
        auto& counts = shipped_[static_cast<std::size_t>(it->kind)];
        counts.messages += 1;
        counts.bytes += it->total_bytes;
      } else if (!lost.valid()) {
        lost = it->dst;
      }
      *it = l.unacked.back();
      l.unacked.pop_back();
    }
  } catch (const SocketError&) {
    if (!lost.valid()) lost = l.unacked.front().dst;
    drop_link(src);
  }
  if (lost.valid()) {
    // Accounted but never physically delivered: the strict batch-end
    // ledger comparison can no longer hold.
    ledger_complete_ = false;
    throw NodeUnreachable(NodeId(src), lost);
  }
}

void WireTransport::drain_all() {
  for (std::uint32_t src = 0; src < links_.size(); ++src) drain(src);
}

void WireTransport::send(const WireMessage& m) {
  // Base class: tracer tick, causal stamp, probe, fault hooks,
  // reachability, NetworkStats accounting.  Throws exactly as in-process.
  Transport::send(m);
  if (m.src == m.dst) return;  // local: no wire traffic in either mode
  ship(m, m.dst.value());
}

std::vector<NodeId> WireTransport::send_to_all(
    const WireMessage& m, const std::vector<NodeId>& destinations) {
  std::vector<NodeId> unreachable = Transport::send_to_all(m, destinations);
  // Ship one physical copy per destination the base class accounted as
  // reached.  (With multicast the *accounting* records one wire copy; the
  // cross-check compares shipped_ — what this method counted — against the
  // workers' delivered ledgers, so the bases differ by design and stay
  // consistent.)
  for (const NodeId dst : destinations) {
    if (dst == m.src) continue;
    if (std::find(unreachable.begin(), unreachable.end(), dst) ==
        unreachable.end())
      ship(m, dst.value());
  }
  return unreachable;
}

void WireTransport::set_node_failed(NodeId node, bool failed) {
  const std::uint32_t k = node.value();
  if (failed) {
    // Collect every ack owed so far while the worker still lives: each
    // frame shipped before the crash is then delivered, exactly as the
    // in-process transport delivered it, and none is Nacked by the kill.
    drain_all();
    Transport::set_node_failed(node, true);
    if (supervisor_->alive(k)) {
      supervisor_->kill_worker(k);
      // Whatever that incarnation had delivered died with it.
      ledger_complete_ = false;
    }
    drop_link(k);
    return;
  }
  Transport::set_node_failed(node, false);
  if (!supervisor_->alive(k)) {
    supervisor_->respawn_worker(k);
    reconnect(k);
  }
}

void WireTransport::on_batch_complete() {
  // The cross-check below needs every shipped frame resolved.
  drain_all();
  gathered_ = WorkerLedger{};
  // Ask every live worker first, then read the replies: one round trip for
  // the fleet instead of one per worker.
  std::vector<std::uint64_t> asked(links_.size(), 0);
  for (std::uint32_t k = 0; k < links_.size(); ++k) {
    worker_ledgers_[k] = WorkerLedger{};
    if (!supervisor_->alive(k)) continue;
    Frame req;
    req.type = FrameType::kStatsRequest;
    req.dst = k;
    req.correlation = ++next_correlation_;
    try {
      if (!links_[k].fd.valid()) reconnect(k);
      write_frame(k, req);
    } catch (const SocketError& e) {
      throw Error("wire: gathering stats from worker " + std::to_string(k) +
                  ": " + e.what());
    }
    asked[k] = req.correlation;
  }
  const auto deadline = deadline_after(Millis(wire_.handshake_timeout_ms));
  for (std::uint32_t k = 0; k < links_.size(); ++k) {
    if (asked[k] == 0) continue;
    std::vector<std::byte> payload;
    Frame reply;
    try {
      reply = read_reply(k, asked[k], deadline, &payload);
    } catch (const SocketError& e) {
      throw Error("wire: gathering stats from worker " + std::to_string(k) +
                  ": " + e.what());
    }
    if (reply.type != FrameType::kStatsReply)
      throw Error("wire: worker " + std::to_string(k) +
                  " answered the stats request with frame type " +
                  std::to_string(static_cast<int>(reply.type)));
    worker_ledgers_[k] = parse_ledger(payload);
    gathered_ += worker_ledgers_[k];
  }
  if (!ledger_complete_) return;  // kills happened; strict check impossible
  for (std::size_t kind = 0; kind < kNumWireKinds; ++kind) {
    if (shipped_[kind] == gathered_.delivered[kind]) continue;
    throw Error(
        "wire: ledger mismatch for " +
        std::string(to_string(static_cast<MessageKind>(kind))) +
        ": coordinator shipped " + std::to_string(shipped_[kind].messages) +
        " msgs / " + std::to_string(shipped_[kind].bytes) +
        " bytes, workers delivered " +
        std::to_string(gathered_.delivered[kind].messages) + " msgs / " +
        std::to_string(gathered_.delivered[kind].bytes) + " bytes");
  }
}

}  // namespace lotec::wire
