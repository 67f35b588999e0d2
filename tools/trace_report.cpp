// trace_report: analyze a message-trace CSV (produced by lotec_sim --trace
// or the sim library's dump_trace_csv) into per-kind / per-object / per-link
// rollups and a network time model — or, with the `spans` subcommand, roll
// up a span JSONL file (lotec_sim --spans) per phase, run critical-path
// analysis over the causal DAG, and optionally convert it to Chrome
// trace-event JSON for Perfetto.
//
//   trace_report trace.csv
//   trace_report trace.csv --top=10 --bitrate=100e6 --sw-cost=20
//   trace_report spans spans.jsonl [more.jsonl ...] [--out=chrome.json]
//                [--critical-path]
//
// `spans` accepts several JSONL files and merges them — the shape a
// distributed run produces (the coordinator's --spans file plus one
// --worker-spans file per lotec_worker process).  Merging is safe without
// rewriting ids: worker span ids carry the worker bit plus the node id in
// their high bits, and every record names its node, so lanes stay stable
// and collision-free per node no matter how many files are combined.
//
// Exit codes (the bench_check convention, plus 4):
//   0  report printed
//   1  input exists but is malformed
//   2  usage error (bad flag / missing argument)
//   3  input file missing / unreadable
//   4  input parsed but holds no events (empty trace)
#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <map>

#include "net/cost_model.hpp"
#include "obs/chrome_trace.hpp"
#include "obs/critical_path.hpp"
#include "obs/span.hpp"
#include "obs/tail_attribution.hpp"
#include "sim/report.hpp"
#include "sim/trace.hpp"

using namespace lotec;

namespace {

// Exit codes, named so the semantics can't drift between the two modes.
constexpr int kOk = 0;
constexpr int kMalformed = 1;
constexpr int kUsage = 2;
constexpr int kMissing = 3;
constexpr int kEmpty = 4;

/// The whole of `text` as a finite number >= 0.
bool parse_number(const std::string& text, double& out) {
  if (text.empty()) return false;
  char* end = nullptr;
  out = std::strtod(text.c_str(), &end);
  return *end == '\0' && std::isfinite(out) && out >= 0.0;
}

/// The whole of `text` as a non-negative integer.
bool parse_count(const std::string& text, std::size_t& out) {
  const char* const last = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), last, out);
  return !text.empty() && ec == std::errc() && ptr == last;
}

void print_critical_path(const CriticalPath& cp) {
  print_section("Critical path");
  if (!cp.valid()) {
    std::cout << "no family.attempt span in the trace; nothing to analyze\n";
    return;
  }
  std::cout << "slowest root: family " << cp.family << " on node " << cp.node
            << ", wall " << cp.wall_ticks << " ticks";
  if (cp.trace_id != 0) std::cout << " (trace " << cp.trace_id << ")";
  std::cout << "\n";

  Table phases({"Phase", "Self ticks", "Share of wall"});
  for (std::size_t p = 0; p < kNumSpanPhases; ++p) {
    const std::uint64_t self = cp.phase_self[p];
    if (self == 0) continue;
    phases.row({std::string(to_string(static_cast<SpanPhase>(p))),
                fmt_u64(self),
                cp.wall_ticks
                    ? fmt_percent(static_cast<double>(self) /
                                  static_cast<double>(cp.wall_ticks))
                    : "-"});
  }
  phases.print();
  std::cout << "self-time total " << cp.phase_self_total() << " / wall "
            << cp.wall_ticks << " ticks\n";

  print_section("Longest blocking chain");
  Table chain({"Depth", "Phase", "Family", "Node", "Object", "Ticks", "Self"});
  for (std::size_t d = 0; d < cp.chain.size(); ++d) {
    const CriticalPathStep& s = cp.chain[d];
    chain.row({std::to_string(d), std::string(to_string(s.phase)),
               fmt_u64(s.family), fmt_u64(s.node),
               s.object == SpanRecord::kNoObject ? "-"
                                                 : "O" + std::to_string(s.object),
               fmt_u64(s.duration), fmt_u64(s.self)});
  }
  chain.print();

  if (!cp.by_kind.empty()) {
    print_section("Messages on this trace");
    Table kinds({"Kind", "Messages", "Bytes"});
    for (const auto& [name, c] : cp.by_kind)
      kinds.row({name, fmt_u64(c.messages), fmt_u64(c.bytes)});
    kinds.print();
  }
}

int run_spans(int argc, char** argv) {
  std::string out_path;
  bool critical_path = false;
  bool tail_attribution = false;
  std::vector<std::string> inputs;
  for (int i = 2; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--out=", 0) == 0) out_path = arg.substr(6);
    else if (arg == "--critical-path") critical_path = true;
    else if (arg == "--tail-attribution") tail_attribution = true;
    else if (arg.rfind("--", 0) == 0) {
      std::cerr << "unknown flag " << arg << "\n";
      return kUsage;
    } else {
      inputs.push_back(arg);
    }
  }
  if (inputs.empty()) {
    std::cerr << "usage: trace_report spans <spans.jsonl> [more.jsonl ...] "
                 "[--out=chrome.json] [--critical-path] "
                 "[--tail-attribution]\n";
    return kUsage;
  }

  std::vector<SpanRecord> spans;
  std::vector<MessageRecord> messages;
  for (const std::string& path : inputs) {
    std::ifstream in(path);
    if (!in) {
      std::cerr << "cannot open " << path << "\n";
      return kMissing;
    }
    const std::size_t before = spans.size() + messages.size();
    try {
      load_obs_jsonl(in, spans, messages);
    } catch (const std::exception& e) {
      std::cerr << "parse error in " << path << ": " << e.what() << "\n";
      return kMalformed;
    }
    if (inputs.size() > 1)
      std::cout << path << ": "
                << (spans.size() + messages.size() - before) << " records\n";
  }
  if (spans.empty() && messages.empty()) {
    std::cerr << "empty trace: "
              << (inputs.size() == 1 ? inputs[0]
                                     : std::to_string(inputs.size()) +
                                           " merged files")
              << " holds no spans or messages "
                 "(was the run traced? pass --spans to lotec_sim)\n";
    return kEmpty;
  }

  struct PhaseAgg {
    std::uint64_t count = 0;
    std::uint64_t ticks = 0;
  };
  std::map<std::string, PhaseAgg> by_phase;
  std::map<std::uint32_t, PhaseAgg> by_node;
  std::uint64_t total_ticks = 0;
  for (const SpanRecord& s : spans) {
    PhaseAgg& agg = by_phase[std::string(to_string(s.phase))];
    ++agg.count;
    agg.ticks += s.end - s.begin;
    PhaseAgg& node_agg = by_node[s.node];
    ++node_agg.count;
    node_agg.ticks += s.end - s.begin;
    total_ticks += s.end - s.begin;
  }

  std::cout << "spans: " << spans.size() << " records, " << messages.size()
            << " messages, " << by_phase.size() << " phases, " << total_ticks
            << " ticks of tracked time\n";
  print_section("By phase");
  Table table({"Phase", "Spans", "Ticks", "Ticks/span", "Share"});
  for (const auto& [name, agg] : by_phase)
    table.row({name, fmt_u64(agg.count), fmt_u64(agg.ticks),
               fmt_double(static_cast<double>(agg.ticks) /
                              static_cast<double>(agg.count),
                          1),
               total_ticks
                   ? fmt_percent(static_cast<double>(agg.ticks) /
                                 static_cast<double>(total_ticks))
                   : "-"});
  table.print();

  // One lane per node in Perfetto; the same breakdown here makes merged
  // multi-worker input legible without leaving the terminal.
  if (by_node.size() > 1) {
    print_section("By node");
    Table nodes({"Node", "Spans", "Ticks"});
    for (const auto& [node, agg] : by_node)
      nodes.row({std::to_string(node), fmt_u64(agg.count),
                 fmt_u64(agg.ticks)});
    nodes.print();
  }

  if (critical_path) print_critical_path(analyze_critical_path(spans, messages));

  if (tail_attribution) {
    print_section("Tail attribution");
    write_tail_attribution(analyze_tail_attribution(spans), std::cout);
  }

  if (!out_path.empty()) {
    std::ofstream os(out_path);
    if (!os) {
      std::cerr << "cannot write " << out_path << "\n";
      return kMissing;
    }
    write_chrome_trace(spans, os);
    std::cout << "\nwrote " << out_path
              << " (load it at ui.perfetto.dev or chrome://tracing)\n";
  }
  return kOk;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    std::cerr << "usage: trace_report <trace.csv> [--top=N] [--bitrate=BPS] "
                 "[--sw-cost=US]\n"
                 "       trace_report spans <spans.jsonl> [more.jsonl ...] "
                 "[--out=chrome.json] [--critical-path] "
                 "[--tail-attribution]\n";
    return kUsage;
  }
  if (std::string(argv[1]) == "spans") return run_spans(argc, argv);
  std::size_t top = 10;
  double bitrate = NetworkCostModel::kEthernet100Mbps;
  double sw_cost_us = 20.0;
  for (int i = 2; i < argc; ++i) {
    const std::string arg = argv[i];
    bool ok = false;
    if (arg.rfind("--top=", 0) == 0) {
      ok = parse_count(arg.substr(6), top);
    } else if (arg.rfind("--bitrate=", 0) == 0) {
      ok = parse_number(arg.substr(10), bitrate) && bitrate > 0.0;
    } else if (arg.rfind("--sw-cost=", 0) == 0) {
      ok = parse_number(arg.substr(10), sw_cost_us);
    } else {
      std::cerr << "unknown flag " << arg << "\n";
      return kUsage;
    }
    if (!ok) {
      std::cerr << "bad value in " << arg << "\n";
      return kUsage;
    }
  }

  std::ifstream in(argv[1]);
  if (!in) {
    std::cerr << "cannot open " << argv[1] << "\n";
    return kMissing;
  }
  std::vector<TraceEvent> events;
  try {
    events = load_trace_csv(in);
  } catch (const std::exception& e) {
    std::cerr << "parse error: " << e.what() << "\n";
    return kMalformed;
  }
  if (events.empty()) {
    std::cerr << "empty trace: " << argv[1] << " holds no messages (was the "
                 "run recorded? pass --trace to lotec_sim)\n";
    return kEmpty;
  }

  const NetworkCostModel model(bitrate, sw_cost_us);
  std::uint64_t total_bytes = 0;
  std::map<std::string, TrafficCounter> by_kind;
  std::map<std::uint64_t, TrafficCounter> by_object;
  std::map<std::pair<std::uint32_t, std::uint32_t>, TrafficCounter> by_link;
  for (const TraceEvent& e : events) {
    total_bytes += e.total_bytes;
    by_kind[std::string(to_string(e.kind))].add(e.total_bytes);
    if (e.object.valid()) by_object[e.object.value()].add(e.total_bytes);
    by_link[{e.src.value(), e.dst.value()}].add(e.total_bytes);
  }

  std::cout << "trace: " << events.size() << " messages, " << total_bytes
            << " bytes; modeled time "
            << fmt_double(
                   model.total_time_us(events.size(), total_bytes) / 1000.0,
                   1)
            << "ms @" << bitrate / 1e6 << "Mbps/" << sw_cost_us << "us\n";

  print_section("By message kind");
  Table kinds({"Kind", "Messages", "Bytes", "Share"});
  for (const auto& [name, c] : by_kind)
    kinds.row({name, fmt_u64(c.messages), fmt_u64(c.bytes),
               fmt_percent(static_cast<double>(c.bytes) /
                           static_cast<double>(total_bytes))});
  kinds.print();

  print_section("Hottest objects");
  std::vector<std::pair<std::uint64_t, TrafficCounter>> objs(
      by_object.begin(), by_object.end());
  std::sort(objs.begin(), objs.end(), [](const auto& a, const auto& b) {
    return a.second.bytes > b.second.bytes;
  });
  Table hot({"Object", "Messages", "Bytes", "Modeled time"});
  for (std::size_t i = 0; i < objs.size() && i < top; ++i)
    hot.row({"O" + std::to_string(objs[i].first),
             fmt_u64(objs[i].second.messages), fmt_u64(objs[i].second.bytes),
             fmt_double(model.total_time_us(objs[i].second.messages,
                                            objs[i].second.bytes) /
                            1000.0,
                        1) +
                 "ms"});
  hot.print();

  print_section("Busiest links");
  std::vector<std::pair<std::pair<std::uint32_t, std::uint32_t>,
                        TrafficCounter>>
      links(by_link.begin(), by_link.end());
  std::sort(links.begin(), links.end(), [](const auto& a, const auto& b) {
    return a.second.bytes > b.second.bytes;
  });
  Table busiest({"Link", "Messages", "Bytes"});
  for (std::size_t i = 0; i < links.size() && i < top; ++i)
    busiest.row({std::to_string(links[i].first.first) + " -> " +
                     std::to_string(links[i].first.second),
                 fmt_u64(links[i].second.messages),
                 fmt_u64(links[i].second.bytes)});
  busiest.print();
  return kOk;
}
