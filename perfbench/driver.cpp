// lotec_perfbench: the repository benchmark driver.
//
// A single-threaded, closed-loop client.  It generates one workload from
// --seed, submits fixed-size batches of root families to Cluster::execute
// (which blocks until the batch completes, with kInFlight families active
// at a time), and prints one JSON object as the last line of stdout.  A
// family the runtime gives up on (deadlock retry budget exhausted) is
// resubmitted alone, as a client retries an aborted transaction; the
// runtime's give-ups are counted separately from the client's failures.
//
//   lotec_perfbench --workload NAME --seed N --seconds S --trace 0|1
//
// --trace 0 reports the end-to-end metrics; --trace 1 reports the per-layer
// metrics, measured from hooks this file owns (a CheckSink on the cluster,
// a MessageProbe on the transport) and from counters the runtime already
// makes public.  Workload choices and the metric-to-layer map are in
// RATIONALE.md beside this file.
//
// Exit codes: 0 ok, 1 an output check or oracle failed, 2 usage error
// (unknown, missing, repeated or malformed argument), 3 the run could not
// start or aborted (missing lotec_worker, runtime error).
#include <sched.h>
#include <stdlib.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <charconv>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <iostream>
#include <memory>
#include <optional>
#include <set>
#include <sstream>
#include <string>
#include <tuple>
#include <unordered_map>
#include <utility>
#include <vector>

#include "check/oracles.hpp"
#include "runtime/cluster.hpp"
#include "sim/scenarios.hpp"
#include "sim/validate.hpp"
#include "wire/launcher.hpp"
#include "wire/wire_transport.hpp"
#include "workload/generator.hpp"

using namespace lotec;
using Clock = std::chrono::steady_clock;

namespace {

constexpr int kExitCheckFailed = 1;
constexpr int kExitUsage = 2;
constexpr int kExitRuntime = 3;

constexpr std::size_t kNodes = 4;
/// Families active at once.  The runtime gives each active family an OS
/// thread, so many more in flight measures the OS scheduler rather than
/// LOTEC (see RATIONALE.md).
constexpr std::size_t kInFlight = 4;
/// Families per execute() call.  execute() builds a runner for every request
/// up front (~100 KB each), so memory grows with the batch, not the run.
constexpr std::size_t kBatch = 128;
/// Distinct generated batches, submitted round-robin.
constexpr std::size_t kDistinctBatches = 4;
/// Batches after each round's warm-up over which the count metrics are
/// taken.  A fixed window (not "whatever fit in the time") makes them repeat
/// exactly for a seed.
constexpr std::size_t kCountBatches = 2;
/// Share of --seconds spent on batch throughput; the rest times solo
/// families.  A traced run spends all of it on untraced throughput, plus the
/// traced count windows.
constexpr double kThroughputShare = 0.5;
/// Solo families per run, at least: solo_latency_p99_us needs ten samples
/// beyond its p99.
constexpr std::size_t kMinSoloSamples = 1000;
/// Consecutive solo families per latency window.
constexpr std::size_t kSoloWindow = 64;
/// The timing metrics (except the p99 and set-up) report the fastest tenth
/// of their windows: the percentile of window times that this many percent
/// of windows beat.  Load from elsewhere on a shared host only ever adds
/// time, and comes in bursts of seconds that can cover most of a run; the
/// fastest windows are those it left alone (see RATIONALE.md).
constexpr double kQuietPercentile = 10;
/// Times a family the runtime gave up on is resubmitted before the client
/// counts it failed.
constexpr int kMaxResubmits = 3;
/// A run is split into rounds, each on a fresh cluster with its own
/// seed-derived population.  Fig. 2's 20-object population varies a lot from
/// seed to seed; pooling several keeps runs with different seeds comparable,
/// and each round's set-up is one sample of setup_s.
constexpr std::size_t kRounds = 16;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double micros(Clock::duration d) {
  return std::chrono::duration<double, std::micro>(d).count();
}

double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

/// Linear-interpolated percentile, p in [0, 100].
double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double idx = p / 100.0 * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(idx));
  const auto hi = static_cast<std::size_t>(std::ceil(idx));
  return v[lo] + (v[hi] - v[lo]) * (idx - static_cast<double>(lo));
}

double ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

// --- arguments -------------------------------------------------------------

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  std::uint64_t seconds = 0;
  bool trace = false;
};

const char* const kUsage =
    "usage: lotec_perfbench --workload hot_nested|cold_scan|wire_hot "
    "--seed N --seconds S --trace 0|1\n";

bool parse_uint(const std::string& text, std::uint64_t& out) {
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, out);
  return !text.empty() && ec == std::errc() && ptr == end;
}

/// Every flag is required exactly once; returns an error message or nullopt.
std::optional<std::string> parse_args(int argc, char** argv, Args& args) {
  std::set<std::string> seen;
  for (int i = 1; i < argc; i += 2) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return "missing value for " + flag;
    const std::string value = argv[i + 1];
    if (!seen.insert(flag).second) return "repeated argument " + flag;
    std::uint64_t n = 0;
    if (flag == "--workload") {
      if (value != "hot_nested" && value != "cold_scan" &&
          value != "wire_hot")
        return "unknown workload '" + value + "'";
      args.workload = value;
    } else if (flag == "--seed") {
      if (!parse_uint(value, n)) return "malformed --seed '" + value + "'";
      args.seed = n;
    } else if (flag == "--seconds") {
      if (!parse_uint(value, n) || n < 1 || n > 3600)
        return "--seconds must be an integer in [1, 3600], got '" + value +
               "'";
      args.seconds = n;
    } else if (flag == "--trace") {
      if (value != "0" && value != "1")
        return "--trace must be 0 or 1, got '" + value + "'";
      args.trace = value == "1";
    } else {
      return "unknown argument " + flag;
    }
  }
  for (const char* f : {"--workload", "--seed", "--seconds", "--trace"})
    if (seen.count(f) == 0) return std::string("missing ") + f;
  return std::nullopt;
}

// --- workloads -------------------------------------------------------------

struct WorkloadDef {
  WorkloadSpec spec;
  std::size_t cache_capacity_pages = 0;
  bool wire = false;
};

/// The workload of one round; `round_seed` comes from round_seeds().
WorkloadDef make_workload(const std::string& name, std::uint64_t round_seed) {
  WorkloadDef def;
  if (name == "cold_scan") {
    // Many large objects read uniformly through a per-node cache far
    // smaller than each node's share of them: page transfer and eviction.
    WorkloadSpec& s = def.spec;
    s.num_objects = 2048;
    s.min_pages = 10;
    s.max_pages = 20;
    s.contention_theta = 0.0;
    s.touched_attr_fraction = 0.35;
    s.write_fraction = 0.5;
    s.read_method_fraction = 0.8;
    s.max_depth = 1;
    s.child_probability = 0.3;
    s.max_children = 2;
    def.cache_capacity_pages = 512;
  } else {
    // hot_nested and wire_hot: the paper's Fig. 2 mix, cache unbounded.
    def.spec = scenarios::medium_high_contention();
    def.wire = name == "wire_hot";
  }
  def.spec.num_transactions = kBatch * kDistinctBatches;
  def.spec.seed = round_seed;
  return def;
}

/// One seed per round, drawn from --seed.  wire_hot shares hot_nested's
/// stream so the two generate the same workloads and their logical traffic
/// can be compared exactly.
std::vector<std::uint64_t> round_seeds(const std::string& name,
                                       std::uint64_t seed) {
  Rng rng(seed ^ (name == "cold_scan" ? 0xC01D5CA7ULL : 0x407ULL));
  std::vector<std::uint64_t> seeds(kRounds);
  for (std::uint64_t& s : seeds) s = rng.next();
  return seeds;
}

/// Where the wire workers are found and where their sockets live.
struct WireSetup {
  std::string worker_path;
  std::string socket_dir;
};

ClusterConfig make_config(const WorkloadDef& def, std::uint64_t seed,
                          const WireSetup& wire_setup, CheckSink* sink = nullptr) {
  ClusterConfig cfg;
  cfg.nodes = kNodes;
  cfg.max_active_families = kInFlight;
  cfg.seed = seed;
  cfg.cache_capacity_pages = def.cache_capacity_pages;
  cfg.wire.enabled = def.wire;
  cfg.wire.worker_path = wire_setup.worker_path;
  cfg.wire.socket_dir = wire_setup.socket_dir;
  cfg.check_sink = sink;
  return cfg;
}

// --- process counters ------------------------------------------------------

struct Usage {
  double user_s = 0;
  double sys_s = 0;
  long vol_csw = 0;

  Usage operator-(const Usage& o) const {
    return {user_s - o.user_s, sys_s - o.sys_s, vol_csw - o.vol_csw};
  }
  Usage& operator+=(const Usage& o) {
    user_s += o.user_s;
    sys_s += o.sys_s;
    vol_csw += o.vol_csw;
    return *this;
  }
};

Usage usage_now() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  auto tv = [](const timeval& t) {
    return static_cast<double>(t.tv_sec) + static_cast<double>(t.tv_usec) / 1e6;
  };
  return {tv(ru.ru_utime), tv(ru.ru_stime), ru.ru_nvcsw};
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024;  // ru_maxrss is in KB
}

/// The CPUs this process may run on.
std::vector<int> allowed_cpus() {
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  if (::sched_getaffinity(0, sizeof(allowed), &allowed) != 0)
    throw Error(std::string("sched_getaffinity: ") + std::strerror(errno));
  std::vector<int> cpus;
  for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu)
    if (CPU_ISSET(cpu, &allowed)) cpus.push_back(cpu);
  if (cpus.empty()) throw Error("no CPU to run on");
  return cpus;
}

/// Pin this thread for round `round` to the next of `cpus` in turn; the
/// family threads and wire workers the round's cluster spawns inherit the
/// mask.  The deterministic scheduler runs one family at a time and the
/// wire chain is synchronous, so one CPU costs no parallelism; what it
/// removes is the cross-CPU wakeup of an idle virtual CPU on every token
/// handoff, whose cost swings with load elsewhere on a shared host.  Such
/// load also slows one virtual CPU at a time, for a minute or more, so
/// rotating spreads a run over every CPU instead of leaving all of it on
/// one that happens to be slow.
void pin_round(const std::vector<int>& cpus, std::size_t round) {
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(cpus[round % cpus.size()], &one);
  if (::sched_setaffinity(0, sizeof(one), &one) != 0)
    throw Error(std::string("sched_setaffinity: ") + std::strerror(errno));
}

// --- set-up ----------------------------------------------------------------

/// The workers' Unix-domain sockets live in a fresh directory under the
/// build tree (run.py runs the driver from the checkout root), not in /tmp,
/// so a run touches nothing outside its checkout.  The path stays relative
/// and short: socket paths are limited to 108 bytes.
class SocketDir {
 public:
  SocketDir() {
    std::string templ = ".bench_build/wire-XXXXXX";
    if (::mkdtemp(templ.data()) == nullptr)
      throw Error("cannot create the wire socket directory " + templ + ": " +
                  std::strerror(errno));
    path_ = templ;
  }
  ~SocketDir() {
    for (std::size_t k = 0; k < kNodes; ++k)
      ::unlink((path_ + "/node" + std::to_string(k) + ".sock").c_str());
    ::rmdir(path_.c_str());
  }
  SocketDir(const SocketDir&) = delete;
  SocketDir& operator=(const SocketDir&) = delete;

  [[nodiscard]] const std::string& path() const { return path_; }

 private:
  std::string path_;
};

/// One cluster with the workload instantiated on it, plus what set-up cost.
struct Rig {
  std::unique_ptr<Cluster> cluster;
  std::vector<RootRequest> requests;
  double generate_s = 0;
  double construct_s = 0;  ///< Cluster construction (spawns wire workers)
  double instantiate_s = 0;

  [[nodiscard]] double total_s() const {
    return generate_s + construct_s + instantiate_s;
  }
};

Rig set_up(const WorkloadDef& def, const ClusterConfig& cfg) {
  Rig rig;
  auto t0 = Clock::now();
  const Workload workload(def.spec);
  rig.generate_s = seconds_since(t0);
  t0 = Clock::now();
  rig.cluster = std::make_unique<Cluster>(cfg);
  rig.construct_s = seconds_since(t0);
  t0 = Clock::now();
  rig.requests = workload.instantiate(*rig.cluster);
  rig.instantiate_s = seconds_since(t0);
  return rig;
}

/// Set-up step times of every round, reported as medians.
struct SetupTimes {
  std::vector<double> total_s, generate_s, construct_s, instantiate_s;

  void add(const Rig& rig) {
    total_s.push_back(rig.total_s());
    generate_s.push_back(rig.generate_s);
    construct_s.push_back(rig.construct_s);
    instantiate_s.push_back(rig.instantiate_s);
  }
};

// --- the closed loop -------------------------------------------------------

/// Counters summed over every family the loop submitted.  `submitted` and
/// `committed` count the client's families; the rest count every execution
/// of them, resubmissions included.
struct Tally {
  std::uint64_t submitted = 0;
  std::uint64_t committed = 0;
  std::uint64_t first_try_committed = 0;  ///< committed by their first execution
  std::uint64_t exhausted = 0;  ///< executions that ran out of deadlock retries
  std::uint64_t attempts = 0;
  std::uint64_t deadlock_retries = 0;
  std::uint64_t pages_fetched = 0;
  std::uint64_t demand_fetches = 0;
  std::uint64_t round_trips = 0;
  bool sizes_match = true;  ///< every execute() returned one result per request

  void add_execution(const TxnResult& r) {
    exhausted += !r.committed && r.reason == AbortReason::kRetryExhausted;
    attempts += static_cast<std::uint64_t>(r.attempts);
    deadlock_retries += static_cast<std::uint64_t>(r.deadlock_retries);
    pages_fetched += r.pages_fetched;
    demand_fetches += r.demand_fetches;
    round_trips += r.remote_round_trips;
  }
  [[nodiscard]] std::uint64_t failed() const { return submitted - committed; }

  Tally& operator+=(const Tally& o) {
    submitted += o.submitted;
    committed += o.committed;
    first_try_committed += o.first_try_committed;
    exhausted += o.exhausted;
    attempts += o.attempts;
    deadlock_retries += o.deadlock_retries;
    pages_fetched += o.pages_fetched;
    demand_fetches += o.demand_fetches;
    round_trips += o.round_trips;
    sizes_match = sizes_match && o.sizes_match;
    return *this;
  }
};

/// Network and eviction totals, read before and after a window.
struct Traffic {
  std::uint64_t msgs = 0;
  std::uint64_t bytes = 0;
  std::uint64_t lock_msgs = 0;
  std::uint64_t page_bytes = 0;
  std::uint64_t lock_requests = 0;
  std::uint64_t lock_queued = 0;
  std::uint64_t evicted = 0;
  std::uint64_t frames = 0;  ///< wire frames shipped (0 in-process)

  Traffic operator-(const Traffic& o) const {
    return {msgs - o.msgs,           bytes - o.bytes,
            lock_msgs - o.lock_msgs, page_bytes - o.page_bytes,
            lock_requests - o.lock_requests, lock_queued - o.lock_queued,
            evicted - o.evicted,     frames - o.frames};
  }
  Traffic& operator+=(const Traffic& o) {
    msgs += o.msgs;
    bytes += o.bytes;
    lock_msgs += o.lock_msgs;
    page_bytes += o.page_bytes;
    lock_requests += o.lock_requests;
    lock_queued += o.lock_queued;
    evicted += o.evicted;
    frames += o.frames;
    return *this;
  }
};

bool is_lock_kind(MessageKind k) {
  switch (k) {
    case MessageKind::kLockAcquireRequest:
    case MessageKind::kLockAcquireGrant:
    case MessageKind::kLockAcquireQueued:
    case MessageKind::kLockGrantWakeup:
    case MessageKind::kLockReleaseRequest:
    case MessageKind::kLockReleaseAck:
      return true;
    default:
      return false;
  }
}

Traffic traffic_now(Cluster& cluster) {
  Traffic t;
  const NetworkStats& stats = cluster.stats();
  t.msgs = stats.total().messages;
  t.bytes = stats.total().bytes;
  for (std::size_t k = 0; k < static_cast<std::size_t>(MessageKind::kNumKinds);
       ++k) {
    const auto kind = static_cast<MessageKind>(k);
    const TrafficCounter c = stats.by_kind(kind);
    if (is_lock_kind(kind)) t.lock_msgs += c.messages;
    if (carries_page_data(kind)) t.page_bytes += c.bytes;
  }
  t.lock_requests = stats.by_kind(MessageKind::kLockAcquireRequest).messages;
  t.lock_queued = stats.by_kind(MessageKind::kLockAcquireQueued).messages;
  t.evicted = cluster.total_evicted_pages();
  if (const auto* w = dynamic_cast<wire::WireTransport*>(&cluster.transport()))
    for (const wire::KindCounts& c : w->shipped()) t.frames += c.messages;
  return t;
}

/// Submits batches round-robin over the generated ones.
class Loop {
 public:
  explicit Loop(Rig& rig) : rig_(rig) {}

  /// One batch; returns the families it committed.
  std::uint64_t batch(Tally& tally) {
    const std::size_t n = std::min(kBatch, rig_.requests.size());
    std::vector<RootRequest> reqs;
    reqs.reserve(n);
    for (std::size_t i = 0; i < n; ++i)
      reqs.push_back(rig_.requests[(next_ + i) % rig_.requests.size()]);
    next_ += n;
    return submit(std::move(reqs), tally);
  }

  /// One family alone; returns its wall latency in microseconds.
  double solo(Tally& tally) {
    const RootRequest& req = rig_.requests[next_++ % rig_.requests.size()];
    const auto t0 = Clock::now();
    submit({req}, tally);
    return micros(Clock::now() - t0);
  }

 private:
  /// Executes `reqs` as one batch, then resubmits alone each family the
  /// runtime gave up on; alone, it has no family to deadlock with.
  std::uint64_t submit(std::vector<RootRequest> reqs, Tally& tally) {
    const std::vector<TxnResult> results = rig_.cluster->execute(reqs);
    tally.sizes_match = tally.sizes_match && results.size() == reqs.size();
    std::uint64_t committed = 0;
    for (std::size_t i = 0; i < results.size(); ++i) {
      TxnResult r = results[i];
      tally.add_execution(r);
      tally.first_try_committed += r.committed;
      for (int k = 0; k < kMaxResubmits && !r.committed &&
                      r.reason == AbortReason::kRetryExhausted;
           ++k) {
        const std::vector<TxnResult> again = rig_.cluster->execute({reqs[i]});
        tally.sizes_match = tally.sizes_match && again.size() == 1;
        if (again.empty()) break;
        r = again.front();
        tally.add_execution(r);
      }
      committed += r.committed;
    }
    tally.submitted += reqs.size();
    tally.committed += committed;
    return committed;
  }

  Rig& rig_;
  std::size_t next_ = 0;
};

/// The count window plus however many more batches fit in `budget_s`.
struct Phase {
  Tally window;      ///< the first kCountBatches batches
  Traffic window_traffic;
  double window_s = 0;
  Tally all;         ///< every batch of the phase, window included
  Usage cpu;         ///< getrusage delta over the phase
  /// Per batch: committed families per wall second, and process CPU per
  /// committed family.
  std::vector<double> batch_cps, batch_cpu_us;

  Phase& operator+=(const Phase& o) {
    window += o.window;
    window_traffic += o.window_traffic;
    window_s += o.window_s;
    all += o.all;
    cpu += o.cpu;
    batch_cps.insert(batch_cps.end(), o.batch_cps.begin(), o.batch_cps.end());
    batch_cpu_us.insert(batch_cpu_us.end(), o.batch_cpu_us.begin(),
                        o.batch_cpu_us.end());
    return *this;
  }
};

Phase run_phase(Loop& loop, Cluster& cluster, double budget_s,
                std::size_t max_batches) {
  Phase ph;
  const Usage u0 = usage_now();
  const auto t0 = Clock::now();
  const Traffic before = traffic_now(cluster);
  for (std::size_t batches = 0;
       batches < max_batches &&
       (batches < kCountBatches || seconds_since(t0) < budget_s);
       ++batches) {
    const Usage u = usage_now();
    const auto t = Clock::now();
    const auto commits =
        static_cast<double>(loop.batch(batches < kCountBatches ? ph.window
                                                               : ph.all));
    const double wall_s = seconds_since(t);
    const Usage cpu = usage_now() - u;
    ph.batch_cps.push_back(ratio(commits, wall_s));
    ph.batch_cpu_us.push_back(ratio((cpu.user_s + cpu.sys_s) * 1e6, commits));
    if (batches + 1 == kCountBatches) {
      ph.window_traffic = traffic_now(cluster) - before;
      ph.window_s = seconds_since(t0);
    }
  }
  ph.all += ph.window;
  ph.cpu = usage_now() - u0;
  return ph;
}

// --- the traced run's hooks -------------------------------------------------

/// Wall-clock stamps from the check-sink and message-probe seams.  In-process
/// it is one of the FanoutSink's sinks; on the wire transport (which takes
/// no check sink) it is installed as the transport's MessageProbe and sees
/// messages only.  The deterministic scheduler runs one family at a time,
/// so every event reaches it from a single linearized stream.
class LayerProbe final : public CheckSink {
 public:
  std::vector<double> family_us, lock_wait_us, lock_serve_us, page_serve_us,
      msg_gap_us;
  std::uint64_t local_grants = 0;
  std::uint64_t global_grants = 0;
  std::uint64_t subtree_aborts = 0;

  explicit LayerProbe(std::uint32_t page_size) : page_size_(page_size) {}

  void set_enabled(bool on) { enabled_ = on; }

  /// Family ids restart with every cluster: fold this round's page use into
  /// the totals and forget its per-family state.
  void end_round() {
    for (const auto& [key, p] : pages_) {
      transferred_ += p.transferred;
      useful_ += std::min<std::uint64_t>(p.transferred, p.accessed.size());
    }
    pages_.clear();
    attempt_start_.clear();
    txn_begin_.clear();
    lock_sent_.clear();
    page_sent_.clear();
    last_msg_.reset();
    current_ = 0;
  }

  void on_transport_message(const WireMessage& m) override {
    if (!enabled_ || m.src == m.dst) return;  // local sends are not traffic
    const auto now = Clock::now();
    if (last_msg_) msg_gap_us.push_back(micros(now - *last_msg_));
    last_msg_ = now;
    const std::uint64_t key = (m.object.value() << 8) ^ m.src.value();
    const std::uint64_t reply_key = (m.object.value() << 8) ^ m.dst.value();
    switch (m.kind) {
      case MessageKind::kLockAcquireRequest:
        lock_sent_[key] = now;
        break;
      case MessageKind::kLockAcquireGrant:
      case MessageKind::kLockAcquireQueued:
        settle(lock_sent_, reply_key, now, lock_serve_us);
        break;
      case MessageKind::kPageFetchRequest:
      case MessageKind::kDemandFetchRequest:
        page_sent_[key] = now;
        break;
      case MessageKind::kPageFetchReply:
      case MessageKind::kDemandFetchReply:
        settle(page_sent_, reply_key, now, page_serve_us);
        // Full-page replies carry page_size + 8 bytes per page.
        if (current_ != 0)
          pages_[{current_, m.object.value()}].transferred +=
              m.payload_bytes / (page_size_ + 8ULL);
        break;
      default:
        break;
    }
  }

  void on_attempt_start(FamilyId f) override {
    current_ = f.value();
    if (enabled_) attempt_start_[f.value()] = Clock::now();
  }
  void on_family_outcome(FamilyId f, bool /*committed*/) override {
    current_ = f.value();
    const auto it = attempt_start_.find(f.value());
    if (it == attempt_start_.end()) return;
    family_us.push_back(micros(Clock::now() - it->second));
    attempt_start_.erase(it);
  }
  void on_txn_begin(FamilyId f, std::uint32_t serial, std::uint32_t,
                    ObjectId) override {
    current_ = f.value();
    if (enabled_) txn_begin_[{f.value(), serial}] = Clock::now();
  }
  void on_local_grant(FamilyId f, std::uint32_t serial, ObjectId,
                      LockMode) override {
    current_ = f.value();
    if (enabled_) ++local_grants;
    granted(f, serial);
  }
  void on_global_grant(FamilyId f, std::uint32_t serial, ObjectId, LockMode,
                       bool, bool, bool) override {
    current_ = f.value();
    if (enabled_) ++global_grants;
    granted(f, serial);
  }
  void on_subtree_abort(FamilyId f, std::uint32_t, std::uint32_t) override {
    current_ = f.value();
    if (enabled_) ++subtree_aborts;
  }
  void on_page_access(FamilyId f, std::uint32_t, ObjectId object,
                      PageIndex page, Lsn, bool) override {
    current_ = f.value();
    if (enabled_)
      pages_[{f.value(), object.value()}].accessed.insert(page.value());
  }

  /// Transferred pages the receiving family accessed, per page transferred:
  /// for each (family, object), min(transferred, distinct pages accessed).
  /// Which pages a reply carried is not visible from outside, so this is an
  /// upper bound; it is exact when a family accesses every page it fetched
  /// or fetched every page it accessed.  Counts rounds closed by end_round().
  [[nodiscard]] double useful_page_frac() const {
    return ratio(static_cast<double>(useful_),
                 static_cast<double>(transferred_));
  }

 private:
  struct PairHash {
    std::size_t operator()(const std::pair<std::uint64_t, std::uint64_t>& k)
        const noexcept {
      return std::hash<std::uint64_t>{}(k.first * 0x9E3779B97F4A7C15ULL ^
                                        k.second);
    }
  };
  struct PageUse {
    std::uint64_t transferred = 0;
    std::set<std::uint32_t> accessed;
  };

  static void settle(std::unordered_map<std::uint64_t, Clock::time_point>& sent,
                     std::uint64_t key, Clock::time_point now,
                     std::vector<double>& out) {
    const auto it = sent.find(key);
    if (it == sent.end()) return;
    out.push_back(micros(now - it->second));
    sent.erase(it);
  }
  void granted(FamilyId f, std::uint32_t serial) {
    const auto it = txn_begin_.find({f.value(), serial});
    if (it == txn_begin_.end()) return;
    lock_wait_us.push_back(micros(Clock::now() - it->second));
    txn_begin_.erase(it);
  }

  std::uint32_t page_size_;
  bool enabled_ = false;
  std::uint64_t current_ = 0;  ///< family of the latest event
  std::uint64_t transferred_ = 0, useful_ = 0;
  std::optional<Clock::time_point> last_msg_;
  std::unordered_map<std::uint64_t, Clock::time_point> lock_sent_, page_sent_;
  std::unordered_map<std::uint64_t, Clock::time_point> attempt_start_;
  std::unordered_map<std::pair<std::uint64_t, std::uint64_t>,
                     Clock::time_point, PairHash>
      txn_begin_;
  std::unordered_map<std::pair<std::uint64_t, std::uint64_t>, PageUse,
                     PairHash>
      pages_;
};

// --- output checks ---------------------------------------------------------

/// Collects failed checks; any failure makes the run exit kExitCheckFailed.
class Checks {
 public:
  void require(bool ok, const std::string& what) {
    if (ok) return;
    std::cerr << "CHECK FAILED: " << what << "\n";
    ok_ = false;
  }
  [[nodiscard]] bool ok() const { return ok_; }

 private:
  bool ok_ = true;
};

/// The cluster is quiescent and consistent, and every submitted family came
/// back with an outcome (committed or failed).
void check_quiescent(Cluster& cluster, const Tally& tally, Checks& checks) {
  const std::vector<std::string> violations = validate_quiescent(cluster);
  for (const std::string& v : violations)
    std::cerr << "quiescent-state violation: " << v << "\n";
  checks.require(violations.empty(), "validate_quiescent reported violations");
  checks.require(tally.sizes_match,
                 "execute() returned a different number of results than "
                 "families submitted");
}

/// Wire only: every worker's ledger was gathered, and their per-kind
/// delivery totals equal what the coordinator accounted.
void check_wire_ledgers(Cluster& cluster, Checks& checks) {
  auto* w = dynamic_cast<wire::WireTransport*>(&cluster.transport());
  if (w == nullptr) {
    checks.require(false, "wire workload is not running on WireTransport");
    return;
  }
  checks.require(w->ledger_complete(), "wire ledger incomplete");
  wire::WorkerLedger sum;
  for (const wire::WorkerLedger& l : w->worker_ledgers()) sum += l;
  for (std::size_t k = 0; k < wire::kNumWireKinds; ++k) {
    const auto kind = static_cast<MessageKind>(k);
    const TrafficCounter c = cluster.stats().by_kind(kind);
    const wire::KindCounts& d = sum.delivered[k];
    checks.require(d.messages == c.messages && d.bytes == c.bytes,
                   "worker ledgers disagree with the coordinator on " +
                       std::string(to_string(kind)) + ": " +
                       std::to_string(d.messages) + "/" +
                       std::to_string(d.bytes) + " vs " +
                       std::to_string(c.messages) + "/" +
                       std::to_string(c.bytes));
  }
}

/// wire_hot's count window must carry exactly hot_nested's logical traffic:
/// replay that window in-process (untimed) and compare.
void check_wire_matches_in_process(const WorkloadDef& def, std::uint64_t seed,
                                   const Traffic& wire_window,
                                   Checks& checks) {
  WorkloadDef in_process = def;
  in_process.wire = false;
  Rig rig = set_up(in_process, make_config(in_process, seed, WireSetup{}));
  Loop loop(rig);
  Tally warm;
  loop.batch(warm);
  const Phase ph = run_phase(loop, *rig.cluster, 0.0, kCountBatches);
  checks.require(ph.window_traffic.msgs == wire_window.msgs &&
                     ph.window_traffic.bytes == wire_window.bytes,
                 "wire_hot traffic " + std::to_string(wire_window.msgs) +
                     " msgs / " + std::to_string(wire_window.bytes) +
                     " bytes differs from hot_nested's " +
                     std::to_string(ph.window_traffic.msgs) + " msgs / " +
                     std::to_string(ph.window_traffic.bytes) + " bytes");
}

// --- output ----------------------------------------------------------------

class Report {
 public:
  void add(const std::string& name, double value, const std::string& unit) {
    metrics_.emplace_back(name, value, unit);
  }
  void print(bool correct, std::uint64_t attempted, std::uint64_t failed) {
    std::ostringstream out;
    out.precision(17);
    out << "{\"correct\": " << (correct ? "true" : "false")
        << ", \"attempted\": " << attempted << ", \"failed\": " << failed
        << ", \"metrics\": {";
    for (std::size_t i = 0; i < metrics_.size(); ++i) {
      const auto& [name, value, unit] = metrics_[i];
      out << (i ? ", " : "") << "\"" << name << "\": {\"value\": "
          << (std::isfinite(value) ? value : 0.0) << ", \"unit\": \"" << unit
          << "\"}";
    }
    out << "}}";
    std::cout << out.str() << std::endl;
  }

 private:
  std::vector<std::tuple<std::string, double, std::string>> metrics_;
};

/// Median of each window of `window` consecutive samples (a short tail is
/// dropped).
std::vector<double> window_medians(const std::vector<double>& samples,
                                   std::size_t window) {
  std::vector<double> out;
  for (std::size_t i = 0; i + window <= samples.size(); i += window)
    out.push_back(median(std::vector<double>(
        samples.begin() + static_cast<std::ptrdiff_t>(i),
        samples.begin() + static_cast<std::ptrdiff_t>(i + window))));
  return out;
}

// --- the two kinds of run ----------------------------------------------------

int run_end_to_end(const Args& args, const WireSetup& wire_setup,
                   const std::vector<int>& cpus) {
  const double round_s = static_cast<double>(args.seconds) / kRounds;
  const std::size_t solo_per_round = (kMinSoloSamples + kRounds - 1) / kRounds;
  Checks checks;
  SetupTimes setup;
  Phase pooled;
  Tally total;
  std::vector<double> solo_us;
  const std::vector<std::uint64_t> seeds = round_seeds(args.workload, args.seed);
  for (std::size_t round = 0; round < seeds.size(); ++round) {
    const std::uint64_t seed = seeds[round];
    pin_round(cpus, round);
    const WorkloadDef def = make_workload(args.workload, seed);
    Rig rig = set_up(def, make_config(def, seed, wire_setup));
    setup.add(rig);
    Loop loop(rig);
    loop.batch(total);  // warm-up, untimed
    const Phase ph =
        run_phase(loop, *rig.cluster, round_s * kThroughputShare, SIZE_MAX);
    pooled += ph;
    total += ph.all;
    const std::size_t solo_target = solo_us.size() + solo_per_round;
    const auto solo_t0 = Clock::now();
    while (solo_us.size() < solo_target ||
           seconds_since(solo_t0) < round_s * (1 - kThroughputShare))
      solo_us.push_back(loop.solo(total));

    check_quiescent(*rig.cluster, total, checks);
    if (def.wire) {
      check_wire_ledgers(*rig.cluster, checks);
      check_wire_matches_in_process(def, seed, ph.window_traffic, checks);
    }
  }

  const auto window_commits = static_cast<double>(pooled.window.committed);
  Report report;
  report.add("commit_per_s",
             percentile(pooled.batch_cps, 100 - kQuietPercentile), "1/s");
  report.add("cpu_us_per_commit",
             percentile(pooled.batch_cpu_us, kQuietPercentile), "us");
  report.add("solo_latency_p50_us",
             percentile(window_medians(solo_us, kSoloWindow), kQuietPercentile),
             "us");
  report.add("solo_latency_p99_us", percentile(solo_us, 99), "us");
  report.add("msgs_per_commit",
             ratio(static_cast<double>(pooled.window_traffic.msgs),
                   window_commits),
             "msgs");
  report.add("bytes_per_commit",
             ratio(static_cast<double>(pooled.window_traffic.bytes),
                   window_commits),
             "bytes");
  report.add("commit_frac",
             ratio(static_cast<double>(total.first_try_committed),
                   static_cast<double>(total.submitted)),
             "ratio");
  report.add("setup_s", median(setup.total_s), "s");
  report.add("peak_rss_mb", peak_rss_mb(), "MB");
  report.print(checks.ok(), total.submitted, total.failed());
  return checks.ok() ? 0 : kExitCheckFailed;
}

/// A round's traced phase: its own cluster, so the oracles see its whole
/// history.  In-process the probe and the oracles share the cluster's check
/// sink through a FanoutSink; the wire transport takes no check sink, so
/// there the probe sees the message stream only and no oracle runs.  The
/// oracles keep every family and build an O(n^2) conflict graph at the end,
/// so the phase is the count window only.
Phase run_traced_round(const WorkloadDef& def, std::uint64_t seed,
                       const WireSetup& wire_setup, LayerProbe& probe,
                       Tally& total, Checks& checks) {
  check::SerializabilityOracle serializability;
  check::LockDisciplineOracle lock_discipline;
  check::CoherenceOracle coherence;
  check::FanoutSink fanout;
  fanout.add(&probe);
  fanout.add(&serializability);
  fanout.add(&lock_discipline);
  fanout.add(&coherence);
  Phase ph;
  {
    Rig rig = set_up(def, make_config(def, seed, wire_setup,
                                      def.wire ? nullptr : &fanout));
    if (def.wire) rig.cluster->transport().set_probe(&probe);
    Loop loop(rig);
    loop.batch(total);  // warm-up
    probe.set_enabled(true);
    ph = run_phase(loop, *rig.cluster, 0.0, kCountBatches);
    probe.set_enabled(false);
    probe.end_round();
    if (def.wire) rig.cluster->transport().set_probe(nullptr);
    total += ph.all;
    check_quiescent(*rig.cluster, total, checks);
    if (def.wire) check_wire_ledgers(*rig.cluster, checks);
  }
  if (!def.wire) {
    for (check::OracleBase* o : std::initializer_list<check::OracleBase*>{
             &serializability, &lock_discipline, &coherence}) {
      const std::optional<check::Violation> v = o->finish();
      checks.require(!v, v ? v->oracle + ": " + v->detail : "");
    }
  }
  return ph;
}

int run_traced(const Args& args, const WireSetup& wire_setup,
               const std::vector<int>& cpus) {
  // Each round first runs untraced: the rusage and count metrics come from
  // there, and its commit rate is the baseline of the tracing overhead.
  const double plain_round_s = static_cast<double>(args.seconds) / kRounds;
  Checks checks;
  SetupTimes setup;
  Tally total;
  Phase plain, traced;
  LayerProbe probe(ClusterConfig{}.page_size);
  const std::vector<std::uint64_t> seeds = round_seeds(args.workload, args.seed);
  for (std::size_t round = 0; round < seeds.size(); ++round) {
    const std::uint64_t seed = seeds[round];
    pin_round(cpus, round);
    const WorkloadDef def = make_workload(args.workload, seed);
    {
      Rig rig = set_up(def, make_config(def, seed, wire_setup));
      setup.add(rig);
      Loop loop(rig);
      loop.batch(total);  // warm-up
      const Phase ph = run_phase(loop, *rig.cluster, plain_round_s, SIZE_MAX);
      plain += ph;
      total += ph.all;
      check_quiescent(*rig.cluster, total, checks);
      if (def.wire) check_wire_ledgers(*rig.cluster, checks);
    }
    traced += run_traced_round(def, seed, wire_setup, probe, total, checks);
  }

  const Tally& w = plain.window;
  const Traffic& t = plain.window_traffic;
  const auto per_commit = [&w](std::uint64_t n) {
    return ratio(static_cast<double>(n), static_cast<double>(w.committed));
  };
  // The traced phase is a count window; the overhead compares it with the
  // untraced count window, which runs the same families from the same state.
  const double plain_window_cps =
      ratio(static_cast<double>(plain.window.committed), plain.window_s);
  const double traced_cps =
      ratio(static_cast<double>(traced.window.committed), traced.window_s);
  const double cpu_s = plain.cpu.user_s + plain.cpu.sys_s;

  Report report;
  report.add("runtime.vol_csw_per_commit",
             ratio(static_cast<double>(plain.cpu.vol_csw),
                   static_cast<double>(plain.all.committed)),
             "count");
  report.add("runtime.sys_cpu_frac", ratio(plain.cpu.sys_s, cpu_s), "ratio");
  report.add("runtime.attempts_per_commit", per_commit(w.attempts), "count");
  report.add("runtime.family_us_p50", percentile(probe.family_us, 50), "us");
  report.add("runtime.family_us_p99", percentile(probe.family_us, 99), "us");
  report.add("gdo.lock_wait_us_p50", percentile(probe.lock_wait_us, 50), "us");
  report.add("gdo.lock_wait_us_p99", percentile(probe.lock_wait_us, 99), "us");
  report.add("gdo.queued_frac",
             ratio(static_cast<double>(t.lock_queued),
                   static_cast<double>(t.lock_requests)),
             "ratio");
  report.add("gdo.serve_us_p50", percentile(probe.lock_serve_us, 50), "us");
  report.add("txn.deadlock_retries_per_commit", per_commit(w.deadlock_retries),
             "count");
  report.add("txn.retry_exhausted_per_commit",
             ratio(static_cast<double>(plain.all.exhausted),
                   static_cast<double>(plain.all.committed)),
             "count");
  // Undone work: every attempt that did not commit was rolled back, plus
  // every sub-transaction abort (seen by the probe in-process only).
  report.add("txn.undo_per_commit",
             per_commit(w.attempts - w.committed + probe.subtree_aborts),
             "count");
  report.add("txn.local_grant_frac",
             ratio(static_cast<double>(probe.local_grants),
                   static_cast<double>(probe.local_grants +
                                       probe.global_grants)),
             "ratio");
  report.add("page.fetched_per_commit", per_commit(w.pages_fetched), "count");
  report.add("page.demand_fetches_per_commit", per_commit(w.demand_fetches),
             "count");
  report.add("page.evicted_per_commit", per_commit(t.evicted), "count");
  report.add("page.serve_us_p50", percentile(probe.page_serve_us, 50), "us");
  report.add("protocol.useful_page_frac", probe.useful_page_frac(), "ratio");
  report.add("net.lock_msgs_per_commit", per_commit(t.lock_msgs), "msgs");
  report.add("net.page_bytes_per_commit", per_commit(t.page_bytes), "bytes");
  report.add("net.round_trips_per_commit", per_commit(w.round_trips), "count");
  report.add("net.msg_gap_us_p50", percentile(probe.msg_gap_us, 50), "us");
  report.add("net.msg_gap_us_p99", percentile(probe.msg_gap_us, 99), "us");
  report.add("wire.frames_per_commit", per_commit(t.frames), "count");
  report.add("wire.spawn_s",
             args.workload == "wire_hot" ? median(setup.construct_s) : 0.0,
             "s");
  report.add("workload.generate_s", median(setup.generate_s), "s");
  report.add("workload.instantiate_s", median(setup.instantiate_s), "s");
  report.add("trace.commit_per_s", traced_cps, "1/s");
  report.add("trace.overhead_frac", 1.0 - ratio(traced_cps, plain_window_cps),
             "ratio");
  report.print(checks.ok(), total.submitted, total.failed());
  return checks.ok() ? 0 : kExitCheckFailed;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (const auto err = parse_args(argc, argv, args)) {
    std::cerr << "lotec_perfbench: " << *err << "\n" << kUsage;
    return kExitUsage;
  }
  try {
    const std::vector<int> cpus = allowed_cpus();
    WireSetup wire_setup;
    std::optional<SocketDir> sockets;
    if (args.workload == "wire_hot") {
      // A missing worker binary is an error, never a skipped workload.
      wire_setup.worker_path = wire::find_worker_binary(WireConfig{});
      wire_setup.socket_dir = sockets.emplace().path();
    }
    return args.trace ? run_traced(args, wire_setup, cpus)
                      : run_end_to_end(args, wire_setup, cpus);
  } catch (const std::exception& e) {
    std::cerr << "lotec_perfbench: " << e.what() << "\n";
    return kExitRuntime;
  }
}
