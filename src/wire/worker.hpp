// WireWorker: the per-node process behind `lotec_sim --distributed N`.
//
// One worker is one LOTEC site made real: it owns that site's slice of the
// distributed state (the GDO shard it homes, its page store occupancy, its
// lock table) in the form of a mirror ledger, and it carries the site's
// share of the cluster's physical traffic.  The coordinator process keeps
// running the deterministic simulation; every message the simulation
// accounts for node S -> node D is *shipped*: coordinator hands the frame
// to worker S, worker S relays it over its peer connection to worker D,
// worker D accounts the delivery and acknowledges back along the same
// path.  At batch end the coordinator gathers each worker's ledger and
// cross-checks it against what it shipped — the bit-identical golden
// counter gate.
//
// Event loop: single-threaded poll() over
//   - the inherited listen socket (accepts peers and the coordinator),
//   - every accepted inbound connection,
//   - every outbound peer connection (acks to our relays come back here).
// Connections identify themselves with a Hello frame; the coordinator's
// Hello carries src = kCoordinatorNode.  Outgoing frames are queued per
// connection and flushed once per poll pass without blocking, so a burst
// of relays or acks costs one write per connection, not one per frame.
// Frames can fragment arbitrarily on the stream, so each connection keeps
// a reassembly buffer; page payloads are counted and discarded without
// buffering (the simulation's page contents stay in the coordinator — the
// worker carries the bytes, which is what the model charges).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace lotec::wire {

struct WorkerOptions {
  std::uint32_t node = 0;   ///< this worker's node id
  std::uint32_t nodes = 0;  ///< cluster size
  int listen_fd = -1;       ///< pre-bound listening socket (inherited)
  bool tcp = false;
  std::string socket_dir;               ///< UDS: dir holding node<K>.sock
  std::vector<std::uint16_t> ports;     ///< TCP: listen port per node
  std::string spans_path;               ///< JSONL span output ("" = off)
  std::uint32_t peer_connect_timeout_ms = 10000;
  std::uint32_t relay_ack_timeout_ms = 8000;
};

/// Parse `--key=value` worker argv (past argv[0]).  Throws Error on
/// unknown/malformed flags.
[[nodiscard]] WorkerOptions parse_worker_options(int argc, char** argv);

/// Run the worker event loop until the coordinator sends Shutdown or its
/// connection closes.  Returns the process exit code.
int worker_main(const WorkerOptions& options);

}  // namespace lotec::wire
