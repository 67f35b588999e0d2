#include "wire/worker.hpp"

#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cstring>
#include <fstream>
#include <map>
#include <memory>
#include <span>
#include <sstream>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "obs/chrome_trace.hpp"
#include "obs/span.hpp"
#include "obs/timeseries.hpp"
#include "wire/frame.hpp"
#include "wire/ledger.hpp"
#include "wire/socket.hpp"

namespace lotec::wire {

namespace {

/// Worker-side span ids live in their own namespace (top bit set, node id in
/// bits 40..62) so merged span files from many workers plus the coordinator
/// never collide and trace_report can concatenate them directly.
constexpr std::uint64_t kWorkerSpanBit = std::uint64_t{1} << 63;

enum class ConnRole : std::uint8_t {
  kInboundUnknown,  ///< accepted, no Hello yet
  kInboundPeer,
  kCoordinator,
  kOutboundPeer,
  kAdmin,  ///< lotec_top observer: scrape-only, teardown is inconsequential
};

struct Conn {
  Fd fd;
  ConnRole role = ConnRole::kInboundUnknown;
  std::uint32_t peer = kCoordinatorNode;
  bool dead = false;
  /// Stream reassembly: partial frame bytes...
  std::vector<std::byte> buf;
  /// ...and payload bytes of `pending` still to drain off the stream.
  std::uint64_t skip = 0;
  Frame pending{};
  bool has_pending = false;
  /// Outgoing frames queued during a poll pass; `out_off` marks the prefix
  /// the kernel has already taken.
  std::vector<std::byte> out;
  std::size_t out_off = 0;

  [[nodiscard]] bool has_output() const noexcept {
    return out_off < out.size();
  }
};

/// A frame relayed to a peer whose ack has not come back yet.
struct PendingRelay {
  Frame frame;
  std::chrono::steady_clock::time_point deadline;
};

class Worker {
 public:
  explicit Worker(const WorkerOptions& opt) : opt_(opt) {
    if (opt_.listen_fd < 0) throw Error("worker: no inherited listen fd");
    listen_ = Fd(opt_.listen_fd);
    if (!opt_.spans_path.empty()) {
      spans_.open(opt_.spans_path);
      if (!spans_)
        throw Error("worker: cannot open span file " + opt_.spans_path);
    }
  }

  int run() {
    dial_peers();
    while (running_) {
      poll_once();
      expire_relays();
      flush_all();
      sweep_dead();
    }
    flush_before_exit();
    if (spans_.is_open()) spans_.flush();
    return 0;
  }

 private:
  // --- connection management -------------------------------------------

  Conn* add_conn(Fd fd, ConnRole role, std::uint32_t peer) {
    auto conn = std::make_unique<Conn>();
    conn->fd = std::move(fd);
    conn->role = role;
    conn->peer = peer;
    conns_.push_back(std::move(conn));
    return conns_.back().get();
  }

  [[nodiscard]] Conn* find_outbound(std::uint32_t peer) {
    for (auto& c : conns_)
      if (!c->dead && c->role == ConnRole::kOutboundPeer && c->peer == peer)
        return c.get();
    return nullptr;
  }

  void dial_peers() {
    // The supervisor pre-binds every listen socket before any worker
    // starts, so connect() lands in the backlog even when the peer is not
    // accepting yet — the full mesh comes up without ordering constraints.
    for (std::uint32_t j = 0; j < opt_.nodes; ++j) {
      if (j == opt_.node) continue;
      dial_peer(j, Millis(opt_.peer_connect_timeout_ms));
    }
  }

  Conn* dial_peer(std::uint32_t j, Millis timeout) {
    Fd fd = opt_.tcp ? tcp_connect(opt_.ports.at(j), timeout)
                     : uds_connect(socket_path(j), timeout);
    Conn* c = add_conn(std::move(fd), ConnRole::kOutboundPeer, j);
    Frame hello;
    hello.type = FrameType::kHello;
    hello.src = opt_.node;
    hello.dst = j;
    hello.payload_bytes = 0;
    send_frame(*c, hello);
    return c;
  }

  [[nodiscard]] std::string socket_path(std::uint32_t j) const {
    return opt_.socket_dir + "/node" + std::to_string(j) + ".sock";
  }

  void close_conn(Conn& c) {
    if (c.dead) return;
    c.dead = true;
    if (c.role == ConnRole::kCoordinator) {
      // Coordinator gone: the batch is over (or the coordinator crashed);
      // either way there is nobody left to serve.
      running_ = false;
      return;
    }
    if (c.role == ConnRole::kOutboundPeer) {
      // Relays in flight to that peer will never be acknowledged.
      nack_pending_to(c.peer);
    }
  }

  void sweep_dead() {
    std::erase_if(conns_, [](const std::unique_ptr<Conn>& c) {
      return c->dead;
    });
  }

  // --- event loop -------------------------------------------------------

  void poll_once() {
    std::vector<pollfd> fds;
    std::vector<Conn*> by_index;
    fds.push_back({listen_.get(), POLLIN, 0});
    by_index.push_back(nullptr);
    for (auto& c : conns_) {
      if (c->dead) continue;
      const short events = c->has_output() ? POLLIN | POLLOUT : POLLIN;
      fds.push_back({c->fd.get(), events, 0});
      by_index.push_back(c.get());
    }
    const int timeout = next_poll_timeout_ms();
    const int r = ::poll(fds.data(), fds.size(), timeout);
    if (r < 0) {
      if (errno == EINTR) return;
      throw SocketError(std::string("worker poll: ") + std::strerror(errno));
    }
    if (r == 0) return;
    if ((fds[0].revents & POLLIN) != 0)
      add_conn(accept_one(listen_), ConnRole::kInboundUnknown,
               kCoordinatorNode);
    for (std::size_t i = 1; i < fds.size(); ++i) {
      Conn* c = by_index[i];
      if (c->dead) continue;
      if ((fds[i].revents & (POLLIN | POLLHUP | POLLERR)) != 0)
        on_readable(*c);
      if (!running_) return;
    }
  }

  [[nodiscard]] int next_poll_timeout_ms() const {
    if (pending_.empty()) return 1000;
    auto earliest = pending_.begin()->second.deadline;
    for (const auto& [corr, relay] : pending_)
      earliest = std::min(earliest, relay.deadline);
    return std::min(1000, std::max(0, millis_until(earliest)));
  }

  void on_readable(Conn& c) {
    std::byte chunk[64 * 1024];
    const ssize_t n = ::recv(c.fd.get(), chunk, sizeof(chunk), 0);
    if (n == 0) {
      close_conn(c);
      return;
    }
    if (n < 0) {
      if (errno == EINTR || errno == EAGAIN || errno == EWOULDBLOCK) return;
      close_conn(c);
      return;
    }
    c.buf.insert(c.buf.end(), chunk, chunk + n);
    drain_buffer(c);
  }

  void drain_buffer(Conn& c) {
    std::size_t pos = 0;
    while (!c.dead && running_) {
      if (c.has_pending) {
        const std::uint64_t avail = c.buf.size() - pos;
        const std::uint64_t take = std::min(c.skip, avail);
        c.skip -= take;
        pos += take;
        if (c.skip > 0) break;  // payload still arriving
        c.has_pending = false;
        handle_frame(c, c.pending);
      } else if (c.buf.size() - pos >= kFrameSize) {
        Frame f;
        try {
          f = decode_frame(
              std::span<const std::byte>(c.buf.data() + pos, kFrameSize));
        } catch (const WireProtocolError&) {
          // Hostile or corrupt bytes: reject the connection outright; a
          // desynchronized stream cannot be trusted frame-by-frame.
          Frame nack;
          nack.type = FrameType::kNack;
          nack.flags = static_cast<std::uint8_t>(NackReason::kBadFrame);
          nack.src = opt_.node;
          send_frame(c, nack);
          (void)flush(c);
          close_conn(c);
          break;
        }
        pos += kFrameSize;
        if (f.payload_bytes > 0) {
          // Payload bytes are carried and counted, never buffered: the
          // worker drains them off the stream in place.
          c.pending = f;
          c.skip = f.payload_bytes;
          c.has_pending = true;
        } else {
          handle_frame(c, f);
        }
      } else {
        break;
      }
    }
    c.buf.erase(c.buf.begin(),
                c.buf.begin() + static_cast<std::ptrdiff_t>(pos));
  }

  // --- frame handling ---------------------------------------------------

  void handle_frame(Conn& c, const Frame& f) {
    switch (f.type) {
      case FrameType::kHello:
        c.peer = f.src;
        if (f.src == kCoordinatorNode || f.src == kAdminNode) {
          // An admin observer identifies like the coordinator but is
          // remembered as such: its disconnect must NOT end the batch, and
          // data frames are never accepted from it.
          c.role = f.src == kCoordinatorNode ? ConnRole::kCoordinator
                                             : ConnRole::kAdmin;
          Frame ack;
          ack.type = FrameType::kHelloAck;
          ack.src = opt_.node;
          ack.dst = f.src;
          ack.correlation = f.correlation;
          send_frame(c, ack);
        } else {
          c.role = ConnRole::kInboundPeer;
        }
        return;
      case FrameType::kData:
        if (c.role == ConnRole::kAdmin) return;  // observers cannot inject
        if (c.role == ConnRole::kCoordinator)
          relay(f);
        else
          deliver(c, f);
        return;
      case FrameType::kAck:
      case FrameType::kNack:
        resolve_relay(f);
        return;
      case FrameType::kStatsRequest: {
        const std::vector<std::byte> payload = serialize_ledger(ledger_);
        Frame reply;
        reply.type = FrameType::kStatsReply;
        reply.src = opt_.node;
        reply.dst = kCoordinatorNode;
        reply.correlation = f.correlation;
        reply.payload_bytes = payload.size();
        send_frame(c, reply, payload);
        return;
      }
      case FrameType::kStatsScrapeRequest: {
        // Telemetry scrape (PROTOCOL §16): the live ledger + derived
        // counters rendered as Prometheus text.  Out-of-band by
        // construction — nothing here touches the delivered/relayed
        // ledgers, so a scraped run's accounted counters are bit-identical
        // to an unscraped one (asserted by the worker scrape test).
        const std::string text = scrape_payload();
        std::vector<std::byte> payload(text.size());
        std::memcpy(payload.data(), text.data(), text.size());
        Frame reply;
        reply.type = FrameType::kStatsScrapeReply;
        reply.src = opt_.node;
        reply.dst = c.peer;
        reply.correlation = f.correlation;
        reply.payload_bytes = payload.size();
        send_frame(c, reply, payload);
        return;
      }
      case FrameType::kShutdown: {
        // Flush the span file BEFORE acknowledging: the coordinator is free
        // to reap this process the moment the ack lands, and a SIGKILL
        // mid-flush would truncate the last JSONL line.
        if (spans_.is_open()) spans_.flush();
        Frame ack;
        ack.type = FrameType::kAck;
        ack.src = opt_.node;
        ack.dst = kCoordinatorNode;
        ack.correlation = f.correlation;
        send_frame(c, ack);
        running_ = false;
        return;
      }
      case FrameType::kHelloAck:
      case FrameType::kStatsReply:
      case FrameType::kStatsScrapeReply:
        return;  // not expected at a worker; ignore
    }
  }

  /// Coordinator handed us a frame we originate (f.src == our node): ship
  /// it to the destination worker and remember the correlation so the ack
  /// can be routed back.
  void relay(const Frame& f) {
    Conn* out = find_outbound(f.dst);
    if (out == nullptr) {
      // Peer connection died (crash/restart chaos): listen sockets are
      // owned by the supervisor and outlive workers, so one reconnect
      // attempt reaches a respawned peer's backlog immediately.
      try {
        out = dial_peer(f.dst, Millis(1000));
      } catch (const SocketError&) {
        nack_to_coordinator(f, NackReason::kPeerUnreachable);
        return;
      }
    }
    send_frame(*out, f);
    auto& counts = ledger_.relayed[static_cast<std::size_t>(f.kind)];
    counts.messages += 1;
    counts.bytes += kFrameSize + f.payload_bytes;
    pending_[f.correlation] =
        PendingRelay{f, deadline_after(Millis(opt_.relay_ack_timeout_ms))};
  }

  /// A peer shipped us a frame addressed to this node: account it into the
  /// delivered ledger and the node-local shard mirror, then acknowledge.
  void deliver(Conn& c, const Frame& f) {
    auto& counts = ledger_.delivered[static_cast<std::size_t>(f.kind)];
    counts.messages += 1;
    counts.bytes += kFrameSize + f.payload_bytes;
    apply_mirror(f);
    emit_span(f);
    Frame ack;
    ack.type = FrameType::kAck;
    ack.kind = f.kind;
    ack.src = opt_.node;
    ack.dst = f.src;
    ack.object = f.object;
    ack.correlation = f.correlation;
    send_frame(c, ack);
  }

  /// The node-local mirror of this site's slice of cluster state: what the
  /// in-process simulation tracks centrally (lock tables, page stores, the
  /// GDO shard's service counters) each worker derives from the frames
  /// actually delivered to it.
  void apply_mirror(const Frame& f) {
    switch (f.kind) {
      case MessageKind::kLockAcquireGrant:
      case MessageKind::kLockGrantWakeup:
        ledger_.locks_granted += 1;
        break;
      case MessageKind::kLockReleaseAck:
        ledger_.locks_released += 1;
        break;
      case MessageKind::kLockAcquireRequest:
      case MessageKind::kLockReleaseRequest:
      case MessageKind::kGdoLookupRequest:
      case MessageKind::kGdoRebuildRequest:
      case MessageKind::kPrefetchLockRequest:
        ledger_.gdo_requests_served += 1;
        break;
      case MessageKind::kGdoReplicaSync:
        ledger_.replica_syncs_applied += 1;
        break;
      default:
        break;
    }
    if (carries_page_data(f.kind)) ledger_.page_bytes_stored += f.payload_bytes;
  }

  void emit_span(const Frame& f) {
    if (!spans_.is_open()) return;
    ++span_seq_;
    SpanRecord s;
    s.id = kWorkerSpanBit | (std::uint64_t{opt_.node} << 40) | span_seq_;
    s.phase = SpanPhase::kWireDeliver;
    s.family = 0;  // directory lane: worker-side work has no family context
    s.node = opt_.node;
    s.object = f.object;
    s.begin = span_seq_ * 2;
    s.end = span_seq_ * 2 + 1;
    s.trace = f.trace.trace_id;
    s.link = f.trace.parent_span;
    write_span_jsonl(s, spans_);
  }

  /// An Ack/Nack came back from a peer for a frame we relayed: forward it
  /// to the coordinator, which collects it at its next drain.
  void resolve_relay(const Frame& f) {
    pending_.erase(f.correlation);
    forward_to_coordinator(f);
  }

  void nack_to_coordinator(const Frame& data, NackReason reason) {
    Frame nack;
    nack.type = FrameType::kNack;
    nack.kind = data.kind;
    nack.flags = static_cast<std::uint8_t>(reason);
    nack.src = data.dst;  // the unreachable destination
    nack.dst = data.src;
    nack.object = data.object;
    nack.correlation = data.correlation;
    forward_to_coordinator(nack);
  }

  void nack_pending_to(std::uint32_t peer) {
    for (auto it = pending_.begin(); it != pending_.end();) {
      if (it->second.frame.dst != peer) {
        ++it;
        continue;
      }
      nack_to_coordinator(it->second.frame, NackReason::kPeerUnreachable);
      it = pending_.erase(it);
    }
  }

  void forward_to_coordinator(const Frame& f) {
    for (auto& c : conns_) {
      if (!c->dead && c->role == ConnRole::kCoordinator) {
        send_frame(*c, f);
        return;
      }
    }
  }

  void expire_relays() {
    const auto now = std::chrono::steady_clock::now();
    std::vector<std::uint64_t> expired;
    for (const auto& [corr, relay] : pending_)
      if (relay.deadline <= now) expired.push_back(corr);
    for (const std::uint64_t corr : expired) {
      nack_to_coordinator(pending_.at(corr).frame, NackReason::kTimeout);
      pending_.erase(corr);
    }
  }

  // --- sending ----------------------------------------------------------

  /// Queue `f` on `c`; the bytes go out when the poll pass ends.  Without
  /// a `payload`, the frame carries zeros: modeled payloads have sizes, not
  /// contents, and the kernel carries exactly what the model charges.
  void send_frame(Conn& c, const Frame& f,
                  std::span<const std::byte> payload = {}) {
    if (!payload.empty() && payload.size() != f.payload_bytes)
      throw Error("wire: payload size does not match frame header");
    const std::array<std::byte, kFrameSize> header = encode_frame(f);
    c.out.insert(c.out.end(), header.begin(), header.end());
    if (payload.empty())
      c.out.resize(c.out.size() + f.payload_bytes);
    else
      c.out.insert(c.out.end(), payload.begin(), payload.end());
  }

  /// Hand as much of `c`'s queued output to the kernel as it takes without
  /// blocking.  Returns false when the connection is broken.
  bool flush(Conn& c) {
    while (c.has_output()) {
      const ssize_t n =
          ::send(c.fd.get(), c.out.data() + c.out_off,
                 c.out.size() - c.out_off, MSG_DONTWAIT | MSG_NOSIGNAL);
      if (n > 0) {
        c.out_off += static_cast<std::size_t>(n);
        continue;
      }
      if (n < 0 && errno == EINTR) continue;
      return n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK);
    }
    c.out.clear();
    c.out_off = 0;
    return true;
  }

  /// Once per poll pass: every connection's output in as few writes as the
  /// kernel allows.  Output a full socket does not take waits for POLLOUT,
  /// so a worker never blocks on a peer that is itself blocked writing.
  void flush_all() {
    for (auto& c : conns_)
      if (!c->dead && !flush(*c)) close_conn(*c);
  }

  /// After Shutdown: hand the rest of the output (the Shutdown ack among
  /// it) to the kernel before the process exits.
  void flush_before_exit() {
    const auto deadline = deadline_after(Millis(1000));
    for (auto& c : conns_) {
      while (!c->dead && flush(*c) && c->has_output()) {
        pollfd p{c->fd.get(), POLLOUT, 0};
        if (::poll(&p, 1, millis_until(deadline)) <= 0) break;
      }
    }
  }

  /// Render the worker's live state as Prometheus text: per-kind
  /// delivered/relayed ledgers plus the node-local mirror counters, all
  /// labeled node="<id>".  lotec_top decodes this with
  /// parse_prometheus_text — the same writer/parser pair the coordinator's
  /// exposition uses.
  [[nodiscard]] std::string scrape_payload() const {
    std::map<std::string, std::uint64_t> counters;
    for (std::size_t k = 0;
         k < static_cast<std::size_t>(MessageKind::kNumKinds); ++k) {
      const auto kind = static_cast<MessageKind>(k);
      const auto& d = ledger_.delivered[k];
      const auto& r = ledger_.relayed[k];
      if (d.messages != 0) {
        counters["wire.delivered." + std::string(to_string(kind))] =
            d.messages;
        counters["wire.delivered_bytes." + std::string(to_string(kind))] =
            d.bytes;
      }
      if (r.messages != 0) {
        counters["wire.relayed." + std::string(to_string(kind))] = r.messages;
        counters["wire.relayed_bytes." + std::string(to_string(kind))] =
            r.bytes;
      }
    }
    counters["wire.locks_granted"] = ledger_.locks_granted;
    counters["wire.locks_released"] = ledger_.locks_released;
    counters["wire.gdo_requests_served"] = ledger_.gdo_requests_served;
    counters["wire.replica_syncs_applied"] = ledger_.replica_syncs_applied;
    counters["wire.page_bytes_stored"] = ledger_.page_bytes_stored;
    counters["wire.spans_emitted"] = span_seq_;
    std::ostringstream os;
    write_prometheus_text(counters, {},
                          {{"node", std::to_string(opt_.node)},
                           {"transport", opt_.tcp ? "tcp" : "uds"}},
                          os);
    return os.str();
  }

  WorkerOptions opt_;
  Fd listen_;
  std::vector<std::unique_ptr<Conn>> conns_;
  std::map<std::uint64_t, PendingRelay> pending_;
  WorkerLedger ledger_;
  std::ofstream spans_;
  std::uint64_t span_seq_ = 0;
  bool running_ = true;
};

std::uint64_t parse_u64_flag(const std::string& value, const char* flag) {
  try {
    std::size_t pos = 0;
    const std::uint64_t v = std::stoull(value, &pos);
    if (pos != value.size()) throw std::invalid_argument(value);
    return v;
  } catch (const std::exception&) {
    throw Error(std::string("worker: bad value for ") + flag + ": " + value);
  }
}

}  // namespace

WorkerOptions parse_worker_options(int argc, char** argv) {
  WorkerOptions opt;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto eq = arg.find('=');
    const std::string key = arg.substr(0, eq);
    const std::string value =
        eq == std::string::npos ? std::string() : arg.substr(eq + 1);
    if (key == "--node") {
      opt.node = static_cast<std::uint32_t>(parse_u64_flag(value, "--node"));
    } else if (key == "--nodes") {
      opt.nodes = static_cast<std::uint32_t>(parse_u64_flag(value, "--nodes"));
    } else if (key == "--listen-fd") {
      opt.listen_fd = static_cast<int>(parse_u64_flag(value, "--listen-fd"));
    } else if (key == "--dir") {
      opt.socket_dir = value;
    } else if (key == "--tcp") {
      opt.tcp = true;
    } else if (key == "--ports") {
      std::size_t start = 0;
      while (start <= value.size()) {
        const auto comma = value.find(',', start);
        const std::string item =
            value.substr(start, comma == std::string::npos ? std::string::npos
                                                           : comma - start);
        if (!item.empty())
          opt.ports.push_back(
              static_cast<std::uint16_t>(parse_u64_flag(item, "--ports")));
        if (comma == std::string::npos) break;
        start = comma + 1;
      }
    } else if (key == "--spans") {
      opt.spans_path = value;
    } else if (key == "--connect-timeout-ms") {
      opt.peer_connect_timeout_ms = static_cast<std::uint32_t>(
          parse_u64_flag(value, "--connect-timeout-ms"));
    } else if (key == "--relay-timeout-ms") {
      opt.relay_ack_timeout_ms = static_cast<std::uint32_t>(
          parse_u64_flag(value, "--relay-timeout-ms"));
    } else {
      throw Error("worker: unknown flag " + arg);
    }
  }
  if (opt.nodes == 0) throw Error("worker: --nodes is required");
  if (opt.node >= opt.nodes)
    throw Error("worker: --node out of range for --nodes");
  if (opt.tcp && opt.ports.size() != opt.nodes)
    throw Error("worker: --ports must list one port per node");
  if (!opt.tcp && opt.socket_dir.empty())
    throw Error("worker: --dir is required for unix sockets");
  return opt;
}

int worker_main(const WorkerOptions& options) {
  Worker worker(options);
  return worker.run();
}

}  // namespace lotec::wire
