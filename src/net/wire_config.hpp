// WireConfig: knobs for the cross-process wire transport (src/wire).
//
// Pure data, deliberately placed in src/net so runtime/config.hpp can hold
// one without dragging socket headers into every translation unit.  The
// implementation (frames, sockets, worker processes) lives in src/wire.
#pragma once

#include <cstdint>
#include <string>

namespace lotec {

struct WireConfig {
  /// Run the cluster as real OS processes: one lotec_worker per node,
  /// joined by Unix-domain sockets (TCP with `tcp`), with every accounted
  /// message shipped coordinator -> src worker -> dst worker and
  /// acknowledged back.  Mutually exclusive with the in-process-only seams
  /// (schedule exploration, check sinks, FaultEngine message faults).
  bool enabled = false;
  /// Use TCP loopback sockets instead of Unix-domain sockets.
  bool tcp = false;
  /// Path of the lotec_worker executable.  Empty = resolve via the
  /// LOTEC_WORKER environment variable, then next to the running binary
  /// (and in a sibling tools/ directory).
  std::string worker_path;
  /// Directory for the per-node Unix-domain listen sockets.  Empty = a
  /// fresh directory under $TMPDIR (removed at teardown).
  std::string socket_dir;
  /// Per-node span JSONL output: each worker writes
  /// <prefix>.node<K>.jsonl with one wire.deliver span per frame it
  /// delivered (span ids namespaced by node id so files from several
  /// workers merge cleanly in `trace_report spans`).  Empty = off.
  std::string worker_spans;
  /// Milliseconds the coordinator waits for a worker's HelloAck after
  /// spawn/respawn before declaring the launch failed.
  std::uint32_t handshake_timeout_ms = 10000;
  /// Initial per-attempt acknowledgement timeout for one shipped frame.
  /// Each retry doubles it (exponential backoff).
  std::uint32_t ack_timeout_ms = 2000;
  /// Send attempts per frame before the destination is declared
  /// unreachable (mapped onto the NodeUnreachable retry path).
  std::uint32_t max_send_attempts = 3;
};

}  // namespace lotec
