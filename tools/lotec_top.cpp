// lotec_top: live telemetry watcher (PROTOCOL.md §16).
//
// Two data sources, each refreshed on an interval and rendered as a
// per-window rate table:
//
//   lotec_top --dir <socket_dir> --nodes N [--tcp --ports p0,p1,...]
//       Wire scrape mode: connect to every worker's listen socket as the
//       kAdminNode observer and poll kStatsScrapeRequest.  Rows are
//       per-worker deliver/relay rates, lock grants, GDO serves — decoded
//       from the Prometheus text payload of each kStatsScrapeReply.  The
//       scrape channel is out-of-band: it adds exactly 0 accounted
//       messages/bytes to the run it watches.
//
//   lotec_top --jsonl <timeseries.jsonl>
//       Coordinator file mode: tail the TimeseriesCollector's JSONL stream
//       (soak/bench --timeseries runs write it) and render per-window
//       txn/s, p50/p99/p999 and lock/GDO/snapshot counter rates.
//
// --iterations K bounds the refresh loop (default: run until the source
// goes away; CI and tests use --iterations 1).  Exit codes: 0 ok, 2 usage,
// 3 source unavailable.
#include <algorithm>
#include <array>
#include <cctype>
#include <cerrno>
#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "obs/timeseries.hpp"
#include "wire/frame.hpp"
#include "wire/socket.hpp"

namespace {

using namespace lotec;
using namespace lotec::wire;

struct Options {
  std::string socket_dir;
  std::uint32_t nodes = 0;
  bool tcp = false;
  std::vector<std::uint16_t> ports;
  std::string jsonl_path;
  std::uint32_t interval_ms = 1000;
  std::uint64_t iterations = 0;  // 0 = until the source disappears
};

/// The whole of `text` as a decimal count no larger than `max`; throws
/// std::invalid_argument otherwise.
std::uint64_t parse_count(const std::string& text, std::uint64_t max) {
  char* end = nullptr;
  errno = 0;
  const std::uint64_t v = std::strtoull(text.c_str(), &end, 10);
  if (!std::isdigit(static_cast<unsigned char>(text.c_str()[0])) ||
      *end != '\0' || errno != 0 || v > max)
    throw std::invalid_argument("'" + text + "' is not a count in [0, " +
                                std::to_string(max) + "]");
  return v;
}

int usage() {
  std::cerr
      << "usage: lotec_top --dir=<socket_dir> --nodes=N [--tcp --ports=..]\n"
      << "       lotec_top --jsonl=<timeseries.jsonl>\n"
      << "  common: [--interval-ms=1000] [--iterations=K]\n";
  return 2;
}

// --- wire scrape mode ----------------------------------------------------

class WorkerScraper {
 public:
  WorkerScraper(const Options& opt, std::uint32_t node)
      : node_(node) {
    fd_ = opt.tcp ? tcp_connect(opt.ports.at(node), Millis(2000))
                  : uds_connect(opt.socket_dir + "/node" +
                                    std::to_string(node) + ".sock",
                                Millis(2000));
    Frame hello;
    hello.type = FrameType::kHello;
    hello.src = kAdminNode;
    hello.dst = node;
    hello.correlation = ++corr_;
    write_full(fd_, encode_frame(hello));
    read_reply(FrameType::kHelloAck);
  }

  /// One scrape: returns name -> value for every sample in the worker's
  /// exposition payload.
  std::map<std::string, double> scrape() {
    Frame req;
    req.type = FrameType::kStatsScrapeRequest;
    req.src = kAdminNode;
    req.dst = node_;
    req.correlation = ++corr_;
    write_full(fd_, encode_frame(req));
    const std::string payload = read_reply(FrameType::kStatsScrapeReply);
    std::map<std::string, double> out;
    for (const PromSample& s : parse_prometheus_text(payload))
      out[s.name] += s.value;
    return out;
  }

 private:
  std::string read_reply(FrameType want) {
    const auto deadline = deadline_after(Millis(5000));
    for (;;) {
      std::array<std::byte, kFrameSize> header;
      read_full(fd_, header, deadline);
      const Frame f = decode_frame(header);
      std::string payload(static_cast<std::size_t>(f.payload_bytes), '\0');
      if (f.payload_bytes > 0)
        read_full(fd_,
                  std::span<std::byte>(
                      reinterpret_cast<std::byte*>(payload.data()),
                      payload.size()),
                  deadline);
      if (f.type == want) return payload;
      // Anything else on an admin connection is unexpected chatter; skip.
    }
  }

  std::uint32_t node_;
  Fd fd_;
  std::uint64_t corr_ = 0;
};

double rate_per_s(double delta, double interval_ms) {
  return interval_ms <= 0 ? 0.0 : delta * 1000.0 / interval_ms;
}

int run_wire_mode(const Options& opt) {
  std::vector<std::unique_ptr<WorkerScraper>> scrapers;
  for (std::uint32_t n = 0; n < opt.nodes; ++n) {
    try {
      scrapers.push_back(std::make_unique<WorkerScraper>(opt, n));
    } catch (const Error& e) {
      std::cerr << "lotec_top: worker " << n << ": " << e.what() << '\n';
      return 3;
    }
  }
  std::vector<std::map<std::string, double>> last(scrapers.size());
  static constexpr std::array<std::pair<const char*, const char*>, 5> kCols = {
      {{"lotec_wire_delivered_total", "dlvr/s"},
       {"lotec_wire_relayed_total", "relay/s"},
       {"lotec_wire_locks_granted_total", "grant/s"},
       {"lotec_wire_gdo_requests_served_total", "gdo/s"},
       {"lotec_wire_replica_syncs_applied_total", "sync/s"}}};
  for (std::uint64_t it = 0; opt.iterations == 0 || it < opt.iterations;
       ++it) {
    std::ostringstream frame;
    frame << std::left << std::setw(7) << "node";
    for (const auto& [metric, label] : kCols)
      frame << std::right << std::setw(11) << label;
    frame << '\n';
    for (std::size_t i = 0; i < scrapers.size(); ++i) {
      std::map<std::string, double> now;
      try {
        now = scrapers[i]->scrape();
      } catch (const Error& e) {
        std::cerr << "lotec_top: worker " << i << " scrape: " << e.what()
                  << '\n';
        return 3;
      }
      // Per-kind series share a prefix; fold them into the totals the
      // columns want.
      std::map<std::string, double> folded;
      for (const auto& [name, v] : now) {
        folded[name] += v;
        const auto dot = name.find("_total");
        if (dot != std::string::npos) {
          // lotec_wire_delivered_LockAcquireRequest_total -> fold into
          // lotec_wire_delivered_total.
          for (const char* base :
               {"lotec_wire_delivered_", "lotec_wire_relayed_"}) {
            if (name.rfind(base, 0) == 0 &&
                name.find("bytes") == std::string::npos &&
                name != std::string(base) + "total")
              folded[std::string(base) + "total"] += v;
          }
        }
      }
      frame << std::left << std::setw(7) << i;
      for (const auto& [metric, label] : kCols) {
        const double delta = folded[metric] - last[i][metric];
        frame << std::right << std::setw(11) << std::fixed
              << std::setprecision(1)
              << (it == 0 ? folded[metric]
                          : rate_per_s(delta, opt.interval_ms));
      }
      frame << '\n';
      last[i] = std::move(folded);
    }
    std::cout << frame.str() << std::flush;
    if (opt.iterations != 0 && it + 1 >= opt.iterations) break;
    std::this_thread::sleep_for(Millis(opt.interval_ms));
  }
  return 0;
}

// --- coordinator jsonl mode ----------------------------------------------

/// Minimal field scanners for the collector's own JSONL (one object per
/// line; the writer is ours, so the shapes are fixed).
std::optional<double> find_number(const std::string& line,
                                  const std::string& key) {
  const std::string needle = "\"" + key + "\":";
  const auto at = line.find(needle);
  if (at == std::string::npos) return std::nullopt;
  return std::strtod(line.c_str() + at + needle.size(), nullptr);
}

std::optional<double> find_hist_field(const std::string& line,
                                      const std::string& hist,
                                      const std::string& field) {
  const std::string needle = "\"" + hist + "\":{";
  const auto at = line.find(needle);
  if (at == std::string::npos) return std::nullopt;
  const auto end = line.find('}', at);
  const std::string scope = line.substr(at, end - at);
  return find_number(scope, field);
}

double counter_delta(const std::string& line, const std::string& name) {
  return find_number(line, name).value_or(0.0);
}

int run_jsonl_mode(const Options& opt) {
  std::ifstream in(opt.jsonl_path);
  if (!in) {
    std::cerr << "lotec_top: cannot open " << opt.jsonl_path << '\n';
    return 3;
  }
  std::cout << std::left << std::setw(9) << "window" << std::right
            << std::setw(10) << "msgs" << std::setw(10) << "txn"
            << std::setw(9) << "p50" << std::setw(9) << "p99" << std::setw(9)
            << "p999" << std::setw(9) << "locks" << std::setw(9) << "gdo"
            << std::setw(9) << "snap" << '\n';
  std::uint64_t printed = 0;
  std::string line;
  std::uint64_t idle_rounds = 0;
  for (;;) {
    if (!std::getline(in, line)) {
      in.clear();
      if (opt.iterations != 0 && printed >= opt.iterations) return 0;
      if (++idle_rounds * opt.interval_ms > 30000) return 0;  // writer gone
      std::this_thread::sleep_for(Millis(opt.interval_ms));
      continue;
    }
    idle_rounds = 0;
    if (line.empty()) continue;
    const auto window = find_number(line, "window");
    if (!window) continue;
    const auto open = find_number(line, "open").value_or(0.0);
    const auto close = find_number(line, "close").value_or(0.0);
    const std::string kAttempt = "span.family.attempt";
    std::cout << std::left << std::setw(9)
              << static_cast<std::uint64_t>(*window) << std::right
              << std::setw(10) << static_cast<std::uint64_t>(close - open)
              << std::setw(10)
              << static_cast<std::uint64_t>(counter_delta(line, "txn.commits"))
              << std::setw(9)
              << find_hist_field(line, kAttempt, "p50").value_or(0.0)
              << std::setw(9)
              << find_hist_field(line, kAttempt, "p99").value_or(0.0)
              << std::setw(9)
              << find_hist_field(line, kAttempt, "p999").value_or(0.0)
              << std::setw(9)
              << static_cast<std::uint64_t>(
                     counter_delta(line, "lock.local_grants"))
              << std::setw(9)
              << static_cast<std::uint64_t>(
                     counter_delta(line, "net.round_trips"))
              << std::setw(9)
              << static_cast<std::uint64_t>(
                     counter_delta(line, "snapshot.reads"))
              << '\n'
              << std::flush;
    if (opt.iterations != 0 && ++printed >= opt.iterations) return 0;
  }
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto eq = arg.find('=');
    const std::string key = arg.substr(0, eq);
    const std::string value =
        eq == std::string::npos ? std::string() : arg.substr(eq + 1);
    try {
      if (key == "--dir") {
        opt.socket_dir = value;
      } else if (key == "--nodes") {
        opt.nodes = static_cast<std::uint32_t>(parse_count(value, UINT32_MAX));
      } else if (key == "--tcp") {
        opt.tcp = true;
      } else if (key == "--ports") {
        std::size_t start = 0;
        while (start <= value.size()) {
          const auto comma = value.find(',', start);
          const std::string item = value.substr(
              start,
              comma == std::string::npos ? std::string::npos : comma - start);
          if (!item.empty())
            opt.ports.push_back(
                static_cast<std::uint16_t>(parse_count(item, UINT16_MAX)));
          if (comma == std::string::npos) break;
          start = comma + 1;
        }
      } else if (key == "--jsonl") {
        opt.jsonl_path = value;
      } else if (key == "--interval-ms") {
        opt.interval_ms =
            static_cast<std::uint32_t>(parse_count(value, UINT32_MAX));
      } else if (key == "--iterations") {
        opt.iterations = parse_count(value, UINT64_MAX);
      } else {
        return usage();
      }
    } catch (const std::exception& e) {
      std::cerr << "lotec_top: bad flag " << arg << ": " << e.what() << '\n';
      return 2;
    }
  }
  const bool wire = !opt.socket_dir.empty() || opt.tcp;
  const bool jsonl = !opt.jsonl_path.empty();
  if (wire == jsonl) return usage();  // exactly one mode
  if (wire && opt.nodes == 0) return usage();
  if (opt.tcp && opt.ports.size() != opt.nodes) return usage();
  try {
    return wire ? run_wire_mode(opt) : run_jsonl_mode(opt);
  } catch (const std::exception& e) {
    std::cerr << "lotec_top: " << e.what() << '\n';
    return 3;
  }
}
