#include "check/oracles.hpp"

#include <algorithm>
#include <sstream>

#include "check/strategy.hpp"

namespace lotec::check {

// --- SerializabilityOracle -------------------------------------------------

void SerializabilityOracle::on_attempt_start(FamilyId family) {
  // A restarted attempt re-executes from scratch; only the final attempt's
  // accesses count.  Published stamps from a broken earlier attempt stay —
  // they are visible to other families regardless.
  Fam& fam = fams_[family.value()];
  fam.accesses.clear();
  fam.snapshot_reads.clear();
}

void SerializabilityOracle::on_page_access(FamilyId family,
                                           std::uint32_t serial,
                                           ObjectId object, PageIndex page,
                                           Lsn version, bool write) {
  fams_[family.value()].accesses.push_back(
      {serial, object.value(), page.value(), version, write});
}

void SerializabilityOracle::on_commit_stamp(FamilyId family, ObjectId object,
                                            PageIndex page, Lsn version,
                                            NodeId /*site*/) {
  fams_[family.value()].stamps.push_back(
      {object.value(), page.value(), version});
}

void SerializabilityOracle::on_directory_stamp(ObjectId object, PageIndex page,
                                               Lsn version, NodeId /*site*/,
                                               std::uint64_t tick) {
  if (tick == 0) return;  // residency re-record: no new version
  ticked_pubs_[{object.value(), page.value()}].emplace_back(tick, version);
}

void SerializabilityOracle::on_snapshot_read(FamilyId family,
                                             std::uint32_t serial,
                                             ObjectId object, PageIndex page,
                                             Lsn version, std::uint64_t stamp) {
  Fam& fam = fams_[family.value()];
  // A snapshot read is a plain read edge-wise: the wr/rw machinery places
  // the reader after the version it observed and before every later writer.
  fam.accesses.push_back(
      {serial, object.value(), page.value(), version, /*write=*/false});
  fam.snapshot_reads.push_back(
      {serial, object.value(), page.value(), version, stamp});
}

void SerializabilityOracle::on_subtree_abort(FamilyId family,
                                             std::uint32_t first_serial,
                                             std::uint32_t end_serial) {
  // The aborted subtree's accesses are rolled back and must not generate
  // conflict edges.  Depth-first execution means the aborted serials are
  // exactly [first, end).
  auto& fam = fams_[family.value()];
  std::erase_if(fam.accesses, [&](const Access& a) {
    return a.serial >= first_serial && a.serial < end_serial;
  });
  std::erase_if(fam.snapshot_reads, [&](const SnapRead& r) {
    return r.serial >= first_serial && r.serial < end_serial;
  });
}

void SerializabilityOracle::on_family_outcome(FamilyId family,
                                              bool committed) {
  fams_[family.value()].committed = committed;
}

std::optional<Violation> SerializabilityOracle::finish() {
  if (violation_) return violation_;

  // Snapshot validity: every committed snapshot read must have observed the
  // newest ticked publication at or below its stamp (version 0 — the
  // creation image — when nothing at all was published under the stamp).
  // Ticks are allocated and published atomically under the deterministic
  // scheduler, so evaluating against the full publication set is exact.
  for (const auto& [fid, fam] : fams_) {
    if (!fam.committed) continue;
    for (const SnapRead& r : fam.snapshot_reads) {
      Lsn expected = 0;
      std::uint64_t best_tick = 0;
      const auto it = ticked_pubs_.find({r.object, r.page});
      if (it != ticked_pubs_.end()) {
        for (const auto& [tick, version] : it->second) {
          if (tick <= r.stamp && tick >= best_tick) {
            best_tick = tick;
            expected = version;
          }
        }
      }
      if (r.version != expected) {
        std::ostringstream out;
        out << "family f" << fid << " t" << r.serial << " snapshot-read o"
            << r.object << " page " << r.page << " at version " << r.version
            << " under stamp " << r.stamp
            << " but the newest publication at or below the stamp is version "
            << expected;
        flag(out.str());
        return violation_;
      }
    }
  }

  // Conflict edges between committed families over (object, page):
  //   wr: B stamped version v, A read/wrote at version v        => B -> A
  //   rw: A accessed version v, B stamped v' > v                => A -> B
  //   ww: B stamped v, C stamped v' > v                         => B -> C
  std::map<std::tuple<std::uint64_t, std::uint32_t, Lsn>, std::uint64_t>
      stamper;
  std::map<std::pair<std::uint64_t, std::uint32_t>, std::vector<
      std::pair<Lsn, std::uint64_t>>> stamps_by_page;
  for (const auto& [fid, fam] : fams_) {
    if (!fam.committed) continue;
    for (const Stamp& s : fam.stamps) {
      stamper[{s.object, s.page, s.version}] = fid;
      stamps_by_page[{s.object, s.page}].emplace_back(s.version, fid);
    }
  }
  std::map<std::uint64_t, std::set<std::uint64_t>> edges;
  for (auto& [page, stamps] : stamps_by_page) {
    std::sort(stamps.begin(), stamps.end());
    for (std::size_t i = 0; i < stamps.size(); ++i)
      for (std::size_t j = i + 1; j < stamps.size(); ++j)
        if (stamps[i].second != stamps[j].second)
          edges[stamps[i].second].insert(stamps[j].second);
  }
  for (const auto& [fid, fam] : fams_) {
    if (!fam.committed) continue;
    for (const Access& a : fam.accesses) {
      const auto wr = stamper.find({a.object, a.page, a.version});
      if (wr != stamper.end() && wr->second != fid)
        edges[wr->second].insert(fid);
      const auto sit = stamps_by_page.find({a.object, a.page});
      if (sit == stamps_by_page.end()) continue;
      for (const auto& [version, other] : sit->second)
        if (version > a.version && other != fid) edges[fid].insert(other);
    }
  }

  // Iterative three-colour DFS over the (sorted, deterministic) graph.
  std::map<std::uint64_t, int> colour;  // 0 white, 1 grey, 2 black
  for (const auto& [start, unused] : edges) {
    if (colour[start] != 0) continue;
    std::vector<std::pair<std::uint64_t, bool>> work{{start, false}};
    std::vector<std::uint64_t> path;
    while (!work.empty()) {
      auto [f, done] = work.back();
      work.pop_back();
      if (done) {
        colour[f] = 2;
        path.pop_back();
        continue;
      }
      if (colour[f] == 2) continue;
      if (colour[f] == 1) continue;
      colour[f] = 1;
      path.push_back(f);
      work.emplace_back(f, true);
      const auto eit = edges.find(f);
      if (eit == edges.end()) continue;
      for (const std::uint64_t next : eit->second) {
        if (colour[next] == 1) {
          // Cycle: path from `next` to f, back to next.
          std::ostringstream out;
          out << "committed families are not conflict-serializable: cycle ";
          bool in_cycle = false;
          for (const std::uint64_t p : path) {
            if (p == next) in_cycle = true;
            if (in_cycle) out << "f" << p << " -> ";
          }
          out << "f" << next;
          flag(out.str());
          return violation_;
        }
        if (colour[next] == 0) work.emplace_back(next, false);
      }
    }
  }
  return violation_;
}

// --- LockDisciplineOracle --------------------------------------------------

bool LockDisciplineOracle::is_self_or_ancestor(const Fam& fam,
                                               std::uint32_t serial,
                                               std::uint32_t candidate) {
  std::uint32_t cur = serial;
  for (;;) {
    if (cur == candidate) return true;
    const auto it = fam.parent.find(cur);
    if (it == fam.parent.end() || it->second == CheckSink::kNoSerial)
      return false;
    cur = it->second;
  }
}

void LockDisciplineOracle::on_attempt_start(FamilyId family) {
  fams_[family.value()] = Fam{};
}

void LockDisciplineOracle::on_txn_begin(FamilyId family, std::uint32_t serial,
                                        std::uint32_t parent_serial,
                                        ObjectId /*target*/) {
  Fam& fam = fams_[family.value()];
  fam.parent[serial] = parent_serial;
  fam.abort_pending = false;
}

void LockDisciplineOracle::grant(FamilyId family, std::uint32_t serial,
                                 ObjectId object, LockMode mode,
                                 bool as_retainer) {
  Fam& fam = fams_[family.value()];
  fam.abort_pending = false;
  ShadowLock& lock = fam.locks[object.value()];
  // Rule 1: every retainer of a granted lock must be the requester itself
  // or one of its ancestors.
  for (const std::uint32_t r : lock.retainers) {
    if (!is_self_or_ancestor(fam, serial, r)) {
      std::ostringstream out;
      out << "family f" << family.value() << ": lock on o" << object.value()
          << " granted to t" << serial << " while retained by non-ancestor t"
          << r;
      flag(out.str());
    }
  }
  if (as_retainer) {
    lock.retainers.insert(serial);
    return;
  }
  auto [it, inserted] = lock.holders.try_emplace(serial, mode);
  if (!inserted && mode == LockMode::kWrite) it->second = LockMode::kWrite;
}

void LockDisciplineOracle::on_local_grant(FamilyId family,
                                          std::uint32_t serial,
                                          ObjectId object, LockMode mode) {
  grant(family, serial, object, mode, /*as_retainer=*/false);
}

void LockDisciplineOracle::on_global_grant(FamilyId family,
                                           std::uint32_t serial,
                                           ObjectId object, LockMode mode,
                                           bool /*upgrade*/,
                                           bool /*cached_regrant*/,
                                           bool prefetch) {
  // Prefetch grants park the lock as a retention of the root (the root
  // holds nothing yet); everything else is a hold of the requesting serial.
  grant(family, serial, object, mode, /*as_retainer=*/prefetch);
}

void LockDisciplineOracle::on_pre_commit(FamilyId family,
                                         std::uint32_t serial,
                                         std::uint32_t parent_serial) {
  Fam& fam = fams_[family.value()];
  fam.abort_pending = false;
  // Rule 3: held and retained locks pass to the parent as retentions.
  for (auto& [obj, lock] : fam.locks) {
    if (lock.holders.erase(serial) > 0) lock.retainers.insert(parent_serial);
    if (lock.retainers.erase(serial) > 0)
      lock.retainers.insert(parent_serial);
  }
}

void LockDisciplineOracle::on_subtree_abort(FamilyId family,
                                            std::uint32_t first_serial,
                                            std::uint32_t end_serial) {
  Fam& fam = fams_[family.value()];
  fam.abort_pending = true;
  for (auto& [obj, lock] : fam.locks) {
    for (auto it = lock.holders.begin(); it != lock.holders.end();)
      it = (it->first >= first_serial && it->first < end_serial)
               ? lock.holders.erase(it)
               : std::next(it);
    for (auto it = lock.retainers.begin(); it != lock.retainers.end();)
      it = (*it >= first_serial && *it < end_serial)
               ? lock.retainers.erase(it)
               : std::next(it);
  }
}

void LockDisciplineOracle::on_lock_release(FamilyId family, ObjectId object,
                                           CheckReleaseReason reason) {
  Fam& fam = fams_[family.value()];
  const auto it = fam.locks.find(object.value());
  if (reason == CheckReleaseReason::kSubtreeAbort) {
    // Rule 4 allows a mid-family release only when the aborting subtree was
    // the lock's last holder/retainer — and only as part of an abort.
    if (it != fam.locks.end() &&
        (!it->second.holders.empty() || !it->second.retainers.empty())) {
      std::ostringstream out;
      out << "family f" << family.value() << ": lock on o" << object.value()
          << " released mid-family while still ";
      if (!it->second.holders.empty())
        out << "held by t" << it->second.holders.begin()->first;
      else
        out << "retained by t" << *it->second.retainers.begin();
      out << " (Moss retention broken)";
      flag(out.str());
    } else if (!fam.abort_pending) {
      std::ostringstream out;
      out << "family f" << family.value() << ": mid-family release of o"
          << object.value() << " without a preceding subtree abort";
      flag(out.str());
    }
  }
  if (it != fam.locks.end()) fam.locks.erase(it);
}

void LockDisciplineOracle::on_family_outcome(FamilyId family,
                                             bool /*committed*/) {
  fams_.erase(family.value());
}

// --- CoherenceOracle -------------------------------------------------------

void CoherenceOracle::on_page_access(FamilyId family, std::uint32_t serial,
                                     ObjectId object, PageIndex page,
                                     Lsn version, bool /*write*/) {
  if (saw_crash_) return;
  const auto it = published_.find({object.value(), page.value()});
  if (it != published_.end() && version < it->second) {
    std::ostringstream out;
    out << "family f" << family.value() << " t" << serial
        << " executed against o" << object.value() << " page " << page.value()
        << " at version " << version << " but the directory has published "
        << it->second;
    flag(out.str());
  }
}

void CoherenceOracle::on_commit_stamp(FamilyId /*family*/, ObjectId object,
                                      PageIndex page, Lsn version,
                                      NodeId /*site*/) {
  commit_stamps_.insert({object.value(), page.value(), version});
}

void CoherenceOracle::on_directory_stamp(ObjectId object, PageIndex page,
                                         Lsn version, NodeId site,
                                         std::uint64_t /*tick*/) {
  if (!saw_crash_ && version > 0 &&
      commit_stamps_.count({object.value(), page.value(), version}) == 0) {
    std::ostringstream out;
    out << "directory published o" << object.value() << " page "
        << page.value() << " version " << version << " at n" << site.value()
        << " with no site-side commit stamp";
    flag(out.str());
  }
  Lsn& cur = published_[{object.value(), page.value()}];
  cur = std::max(cur, version);
}

// --- CacheEpochOracle ------------------------------------------------------

void CacheEpochOracle::on_cache_put(NodeId site, ObjectId object,
                                    LockMode mode) {
  auto& holders = live_[object.value()];
  holders[site.value()] = mode;
  for (const auto& [other, other_mode] : holders) {
    if (other == site.value()) continue;
    if (mode == LockMode::kWrite || other_mode == LockMode::kWrite) {
      std::ostringstream out;
      out << "sites n" << other << " and n" << site.value()
          << " simultaneously hold cached locks on o" << object.value()
          << " in conflicting modes (" << to_string(other_mode) << " vs "
          << to_string(mode) << ")";
      flag(out.str());
    }
  }
}

void CacheEpochOracle::on_cache_drop(NodeId site, ObjectId object) {
  const auto it = live_.find(object.value());
  if (it == live_.end()) return;
  it->second.erase(site.value());
  if (it->second.empty()) live_.erase(it);
}

void CacheEpochOracle::on_node_crash(NodeId node,
                                     std::uint64_t /*crash_count*/) {
  // The wipe also reports per-entry drops via GlobalLockCache::clear();
  // erasing here is belt and braces for the window in between.
  for (auto& [obj, holders] : live_) holders.erase(node.value());
}

// --- FanoutSink ------------------------------------------------------------

void FanoutSink::on_transport_message(const WireMessage& m) {
  ++messages_;
  auto fold = [this](std::uint64_t v) {
    hash_ = (hash_ ^ v) * 0x100000001b3ULL;
  };
  fold(static_cast<std::uint64_t>(m.kind));
  fold(m.src.value());
  fold(m.dst.value());
  fold(m.object.value());
  fold(m.payload_bytes);
  if (strategy_ != nullptr) strategy_->note_message();
  for (CheckSink* s : sinks_) s->on_transport_message(m);
}

void FanoutSink::on_attempt_start(FamilyId family) {
  for (CheckSink* s : sinks_) s->on_attempt_start(family);
}

void FanoutSink::on_txn_begin(FamilyId family, std::uint32_t serial,
                              std::uint32_t parent_serial, ObjectId target) {
  for (CheckSink* s : sinks_)
    s->on_txn_begin(family, serial, parent_serial, target);
}

void FanoutSink::on_pre_commit(FamilyId family, std::uint32_t serial,
                               std::uint32_t parent_serial) {
  for (CheckSink* s : sinks_) s->on_pre_commit(family, serial, parent_serial);
}

void FanoutSink::on_subtree_abort(FamilyId family, std::uint32_t first_serial,
                                  std::uint32_t end_serial) {
  for (CheckSink* s : sinks_)
    s->on_subtree_abort(family, first_serial, end_serial);
}

void FanoutSink::on_family_outcome(FamilyId family, bool committed) {
  for (CheckSink* s : sinks_) s->on_family_outcome(family, committed);
}

void FanoutSink::on_local_grant(FamilyId family, std::uint32_t serial,
                                ObjectId object, LockMode mode) {
  // Strategies key on scheduler slots; on the checker's fresh clusters
  // (single execute batch, ids minted from 1) FamilyId == slot + 1.
  if (strategy_ != nullptr)
    strategy_->note_lock_op(family.value() - 1, object.value(),
                            mode == LockMode::kWrite);
  for (CheckSink* s : sinks_) s->on_local_grant(family, serial, object, mode);
}

void FanoutSink::on_global_grant(FamilyId family, std::uint32_t serial,
                                 ObjectId object, LockMode mode, bool upgrade,
                                 bool cached_regrant, bool prefetch) {
  if (strategy_ != nullptr)
    strategy_->note_lock_op(family.value() - 1, object.value(),
                            mode == LockMode::kWrite);
  for (CheckSink* s : sinks_)
    s->on_global_grant(family, serial, object, mode, upgrade, cached_regrant,
                       prefetch);
}

void FanoutSink::on_lock_release(FamilyId family, ObjectId object,
                                 CheckReleaseReason reason) {
  for (CheckSink* s : sinks_) s->on_lock_release(family, object, reason);
}

void FanoutSink::on_recursion_precluded(FamilyId family, std::uint32_t serial,
                                        ObjectId object) {
  for (CheckSink* s : sinks_)
    s->on_recursion_precluded(family, serial, object);
}

void FanoutSink::on_page_access(FamilyId family, std::uint32_t serial,
                                ObjectId object, PageIndex page, Lsn version,
                                bool write) {
  for (CheckSink* s : sinks_)
    s->on_page_access(family, serial, object, page, version, write);
}

void FanoutSink::on_commit_stamp(FamilyId family, ObjectId object,
                                 PageIndex page, Lsn version, NodeId site) {
  for (CheckSink* s : sinks_)
    s->on_commit_stamp(family, object, page, version, site);
}

void FanoutSink::on_directory_stamp(ObjectId object, PageIndex page,
                                    Lsn version, NodeId site,
                                    std::uint64_t tick) {
  for (CheckSink* s : sinks_)
    s->on_directory_stamp(object, page, version, site, tick);
}

void FanoutSink::on_snapshot_read(FamilyId family, std::uint32_t serial,
                                  ObjectId object, PageIndex page, Lsn version,
                                  std::uint64_t stamp) {
  for (CheckSink* s : sinks_)
    s->on_snapshot_read(family, serial, object, page, version, stamp);
}

void FanoutSink::on_cache_put(NodeId site, ObjectId object, LockMode mode) {
  for (CheckSink* s : sinks_) s->on_cache_put(site, object, mode);
}

void FanoutSink::on_cache_drop(NodeId site, ObjectId object) {
  for (CheckSink* s : sinks_) s->on_cache_drop(site, object);
}

void FanoutSink::on_node_crash(NodeId node, std::uint64_t crash_count) {
  for (CheckSink* s : sinks_) s->on_node_crash(node, crash_count);
}

void FanoutSink::on_node_restart(NodeId node) {
  for (CheckSink* s : sinks_) s->on_node_restart(node);
}

}  // namespace lotec::check
