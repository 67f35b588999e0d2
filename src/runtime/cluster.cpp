#include "runtime/cluster.hpp"

#include <algorithm>
#include <cstring>
#include <map>

#include "common/logging.hpp"
#include "gdo/waits_for.hpp"

namespace lotec {

namespace {
std::uint64_t mix64(std::uint64_t x) noexcept {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}
}  // namespace

Cluster::Cluster(ClusterConfig config) : core_(config) {}

ObjectId Cluster::create_object(ClassId cls, NodeId where) {
  const ClassDef& def = core_.registry.get(cls);
  NodeId creator = where;
  if (!creator.valid())
    creator = NodeId(placement_rr_++ %
                     static_cast<std::uint32_t>(core_.nodes.size()));
  if (creator.value() >= core_.nodes.size())
    throw UsageError("create_object: node id out of range");

  ObjectId id;
  {
    std::lock_guard<std::mutex> lock(core_.obj_mu);
    id = ObjectId(core_.next_object_id++);
    ProtocolKind protocol = core_.config.protocol;
    if (def.protocol_override()) {
      if (*def.protocol_override() >= kNumProtocols)
        throw UsageError("class protocol override out of range");
      protocol = static_cast<ProtocolKind>(*def.protocol_override());
    }
    core_.objects[id] =
        ObjectMeta{cls, creator, def.layout().num_pages(), protocol};
  }
  {
    Node& node = core_.node(creator);
    std::lock_guard<std::mutex> lock(node.store_mu);
    node.store.create(id, def.layout().num_pages(), core_.config.page_size,
                      /*materialize=*/true);
  }
  core_.gdo.register_object(id, def.layout().num_pages(), creator);
  if (core_.fault != nullptr)
    core_.fault->note_created(creator, id, def.layout().num_pages());
  return id;
}

std::vector<TxnResult> Cluster::execute(std::vector<RootRequest> requests) {
  if (requests.empty()) return {};
  // Read-intent validation: FamilyKind is a first-class input, checked
  // whether or not the snapshot path (mv_read) is on — a declared-read-only
  // family whose root method writes, or whose accesses the analysis could
  // not bound, is a submission error, not a runtime surprise.
  for (const RootRequest& req : requests) {
    if (req.kind != FamilyKind::kReadOnly) continue;
    const ObjectMeta meta = core_.meta_of(req.object);
    const ClassDef& cls = core_.registry.get(meta.cls);
    const MethodDef& m = cls.method(req.method);
    if (!m.writes.empty() || m.may_access_undeclared)
      throw UsageError(
          "read-only family root '" + m.name + "' " +
          (m.writes.empty() ? "may access undeclared attributes"
                            : "declares attribute writes") +
          " (kReadOnly requires a bounded read-only access analysis)");
  }
  ++execute_count_;

  TokenScheduler scheduler({.seed = mix64(core_.config.seed ^ execute_count_),
                            .max_active = core_.config.max_active_families,
                            .picker = core_.config.schedule_picker});
  core_.scheduler = &scheduler;
  core_.gdo.set_grant_delivery(
      [this](const Grant& g) { core_.deliver_grant(g); });

  std::vector<std::unique_ptr<FamilyRunner>> runners;
  runners.reserve(requests.size());
  {
    std::lock_guard<std::mutex> lock(core_.fam_mu);
    for (std::size_t i = 0; i < requests.size(); ++i) {
      RootRequest& req = requests[i];
      NodeId node = req.node;
      if (!node.valid())
        node = NodeId(static_cast<std::uint32_t>(
            (next_family_ + i) % core_.nodes.size()));
      const FamilyId family(next_family_ + i);
      runners.push_back(std::make_unique<FamilyRunner>(
          core_, i, family, node, std::move(req)));
      core_.runners[family] = runners.back().get();
    }
    next_family_ += requests.size();
  }

  std::vector<std::function<void()>> bodies;
  bodies.reserve(runners.size());
  for (auto& r : runners)
    bodies.emplace_back([runner = r.get()] { runner->run(); });

  // Victim policy: youngest member of the cycle, EXCEPT that repeat
  // victimization rotates through the cycle (least-victimized member
  // first).  A pure youngest-first policy can livelock under deterministic
  // scheduling: the young victim restarts, re-forms the identical cycle and
  // is sacrificed forever while the cycle's core never progresses.
  auto victim_counts = std::make_shared<std::map<FamilyId, int>>();
  const auto on_stall = [this, victim_counts, &runners]() -> std::size_t {
    const auto cycle = DeadlockDetector::detect(core_.gdo);
    if (!cycle) {
      // No lock cycle explains the stall.  With fault injection active the
      // usual cause is a crash: blocked families wait on grants a dead node
      // will never send (or their own site died under them).  Victimize the
      // lowest-index blocked runner; its retry path applies the pending
      // crash work and re-routes around the failure.
      if (core_.fault != nullptr)
        for (const auto& r : runners)
          if (r->blocked()) return r->index();
      return TokenScheduler::kNoVictim;
    }
    FamilyId victim = cycle->victim;
    int best = victim_counts->count(victim) ? (*victim_counts)[victim] : 0;
    for (const FamilyId f : cycle->families) {
      const int c = victim_counts->count(f) ? (*victim_counts)[f] : 0;
      if (c < best || (c == best && f > victim)) {
        best = c;
        victim = f;
      }
    }
    ++(*victim_counts)[victim];
    if (Logger::instance().enabled(LogLevel::kDebug)) {
      std::ostringstream oss;
      for (const FamilyId f : cycle->families) oss << f << ' ';
      LOTEC_DEBUG("deadlock", "cycle [" << oss.str() << "] victim "
                                        << victim);
    }
    std::lock_guard<std::mutex> lock(core_.fam_mu);
    const auto it = core_.runners.find(victim);
    if (it == core_.runners.end()) return TokenScheduler::kNoVictim;
    return it->second->index();
  };

  try {
    scheduler.run(std::move(bodies), on_stall);
  } catch (...) {
    core_.gdo.set_grant_delivery(nullptr);
    core_.scheduler = nullptr;
    {
      std::lock_guard<std::mutex> lock(core_.fam_mu);
      core_.runners.clear();
    }
    throw;
  }
  core_.gdo.set_grant_delivery(nullptr);
  core_.scheduler = nullptr;
  {
    std::lock_guard<std::mutex> lock(core_.fam_mu);
    core_.runners.clear();
  }

  // End-of-batch recovery first: restart every node still down so the
  // cluster is whole for the lock-cache drain and validation.
  if (core_.fault != nullptr) core_.fault->finalize();
  // Elastic directory: with the cluster whole again, finish every queued
  // shard migration so the batch ends with each entry at its ring owner
  // (validate_quiescent checks residency).
  core_.gdo.drain_migrations();

  if (core_.config.lock_cache) {
    // Drain the lock caches: flush every deferred report and return the
    // cached locks to the directory, so the batch ends quiescent (no cached
    // holders linger; validation and paper-figure accounting see a fully
    // published page map).  Crashed sites lost their caches in the wipe;
    // their directory-side markers fall to the reclamation sweep below.
    for (auto& site : core_.nodes) {
      for (const ObjectId obj : site->lock_cache.objects()) {
        const auto entry = site->lock_cache.lookup(obj);
        if (!entry) continue;
        const CachedFlush flush = site->lock_cache.take_flush(obj);
        try {
          if (entry->mode == LockMode::kRead)
            core_.gdo.forget_cached(obj, site->id);
          else
            core_.gdo.flush_cached(obj, site->id, flush.records,
                                   flush.advance_to);
        } catch (const Error&) {
          // Chain unreachable: the sweep below reclaims the marker.
        }
      }
    }
  }

  if (core_.fault != nullptr) {
    // Reclaim directory locks (and cached-holder markers) left behind by
    // crashed family incarnations, leases notwithstanding.
    core_.gdo.reclaim_crashed(/*ignore_leases=*/true);
  }

  for (const auto& r : runners)
    if (r->error()) std::rethrow_exception(r->error());

  // Batch drained and recovered: let the transport settle.  The wire
  // backend gathers every worker's delivery ledger here and cross-checks
  // it against the shipped counters (the in-process backend is a no-op).
  core_.transport.on_batch_complete();

  std::vector<TxnResult> results;
  results.reserve(runners.size());
  for (const auto& r : runners) results.push_back(r->result());
  return results;
}

TxnResult Cluster::run_root(ObjectId object, const std::string& method,
                            NodeId node) {
  RootRequest req;
  req.object = object;
  req.method = method_id(object, method);
  req.node = node;
  auto results = execute({std::move(req)});
  return results.front();
}

void Cluster::peek_page(ObjectId object, PageIndex page,
                        std::span<std::byte> out) const {
  if (out.size() != core_.config.page_size)
    throw UsageError("peek_page: buffer must be exactly one page");
  const GdoEntry entry = core_.gdo.snapshot(object);
  const PageLocation& loc = entry.page_map.at(page);
  Node& owner = const_cast<ClusterCore&>(core_).node(loc.node);
  std::lock_guard<std::mutex> lock(owner.store_mu);
  const Page& p = owner.store.get(object).page(page);
  std::memcpy(out.data(), p.data.data(), out.size());
}

void Cluster::restore_page(ObjectId object, PageIndex page,
                           std::span<const std::byte> in) {
  if (in.size() != core_.config.page_size)
    throw UsageError("restore_page: buffer must be exactly one page");
  const ObjectMeta meta = core_.meta_of(object);
  const GdoEntry entry = core_.gdo.snapshot(object);
  const PageLocation& loc = entry.page_map.at(page);
  if (loc.node != meta.creator || loc.version != 0)
    throw UsageError(
        "restore_page: object has already been modified (restore requires a "
        "fresh cluster)");
  Node& creator = core_.node(meta.creator);
  std::lock_guard<std::mutex> lock(creator.store_mu);
  creator.store.get(object).restore_bytes(
      std::uint64_t{page.value()} * core_.config.page_size, in);
}

void Cluster::peek_raw(ObjectId object, std::uint64_t offset,
                       std::span<std::byte> out) const {
  const GdoEntry entry = core_.gdo.snapshot(object);
  const std::uint32_t page_size = core_.config.page_size;
  std::uint64_t pos = offset;
  std::size_t done = 0;
  while (done < out.size()) {
    const PageIndex p(static_cast<std::uint32_t>(pos / page_size));
    const PageLocation& loc = entry.page_map.at(p);
    Node& owner = const_cast<ClusterCore&>(core_).node(loc.node);
    std::lock_guard<std::mutex> lock(owner.store_mu);
    const ObjectImage& img = owner.store.get(object);
    const std::uint64_t in_page = pos % page_size;
    const std::size_t n = static_cast<std::size_t>(std::min<std::uint64_t>(
        page_size - in_page, out.size() - done));
    img.read_bytes(pos, out.subspan(done, n));
    done += n;
    pos += n;
  }
}

}  // namespace lotec
