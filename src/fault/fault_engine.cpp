#include "fault/fault_engine.hpp"

#include <algorithm>

namespace lotec {

FaultEngine::FaultEngine(const FaultConfig& config, Transport& transport,
                         GdoService& gdo,
                         std::vector<std::unique_ptr<Node>>& nodes,
                         std::uint32_t page_size)
    : config_(config),
      transport_(transport),
      gdo_(gdo),
      nodes_(nodes),
      page_size_(page_size),
      rng_(config.seed),
      seen_(static_cast<std::size_t>(MessageKind::kNumKinds), 0),
      event_fired_(config.events.size(), false),
      crash_counts_(nodes.size(), 0),
      wipe_counts_(nodes.size(), 0),
      durable_(nodes.size()) {
  const auto in_range = [&](NodeId n) {
    return n.valid() && n.value() < nodes_.size();
  };
  const auto check_prob = [](double p) {
    if (p < 0.0 || p > 1.0)
      throw UsageError("FaultConfig: probability outside [0, 1]");
  };
  check_prob(config_.drop_probability);
  check_prob(config_.duplicate_probability);
  check_prob(config_.delay_probability);
  if (config_.lease_term_ticks == 0)
    throw UsageError("FaultConfig: lease term must be positive");
  for (const FaultEvent& ev : config_.events) {
    if (ev.at_tick > 0 && ev.on_kind)
      throw UsageError("FaultEvent: pick one trigger (at_tick OR on_kind)");
    if (ev.at_tick == 0 && !ev.on_kind)
      throw UsageError("FaultEvent: no trigger (set at_tick or on_kind)");
    if (ev.on_kind && ev.nth == 0)
      throw UsageError("FaultEvent: nth is 1-based");
    switch (ev.action) {
      case FaultAction::kCrashNode:
      case FaultAction::kRestartNode:
        if (ev.target == FaultTarget::kFixed && !in_range(ev.node))
          throw UsageError("FaultEvent: crash/restart target out of range");
        if (ev.target != FaultTarget::kFixed && !ev.on_kind)
          throw UsageError(
              "FaultEvent: message-relative target needs an on_kind trigger");
        break;
      case FaultAction::kPartitionStart:
      case FaultAction::kPartitionHeal:
        if (ev.group_a.empty() || ev.group_b.empty())
          throw UsageError("FaultEvent: partition needs two node groups");
        for (const NodeId n : ev.group_a)
          if (!in_range(n)) throw UsageError("FaultEvent: group_a node");
        for (const NodeId n : ev.group_b)
          if (!in_range(n)) throw UsageError("FaultEvent: group_b node");
        break;
      case FaultAction::kDropMessage:
        if (!ev.on_kind)
          throw UsageError("FaultEvent: targeted drop needs an on_kind");
        if (!interruptible(*ev.on_kind))
          throw UsageError(
              "FaultEvent: kind '" + std::string(to_string(*ev.on_kind)) +
              "' is modeled reliable and cannot be dropped");
        break;
    }
  }
}

bool FaultEngine::interruptible(MessageKind k) noexcept {
  switch (k) {
    case MessageKind::kLockAcquireRequest:
    case MessageKind::kPageFetchRequest:
    case MessageKind::kPageFetchReply:
    case MessageKind::kDemandFetchRequest:
    case MessageKind::kDemandFetchReply:
    case MessageKind::kGdoLookupRequest:
    case MessageKind::kGdoLookupReply:
      return true;
    default:
      return false;
  }
}

std::uint64_t FaultEngine::link_key(NodeId a, NodeId b) noexcept {
  const std::uint64_t lo = std::min(a.value(), b.value());
  const std::uint64_t hi = std::max(a.value(), b.value());
  return (lo << 32) | hi;
}

bool FaultEngine::link_cut(NodeId a, NodeId b) const {
  const auto it = cuts_.find(link_key(a, b));
  return it != cuts_.end() && it->second > 0;
}

std::uint64_t FaultEngine::crash_count(NodeId node) const {
  if (!node.valid() || node.value() >= crash_counts_.size())
    throw UsageError("FaultEngine: node id out of range");
  return crash_counts_[node.value()];
}

std::uint64_t FaultEngine::wipe_count(NodeId node) const {
  if (!node.valid() || node.value() >= wipe_counts_.size())
    throw UsageError("FaultEngine: node id out of range");
  return wipe_counts_[node.value()];
}

bool FaultEngine::fire(const FaultEvent& ev, const WireMessage& m) {
  NodeId target = ev.node;
  if (ev.target == FaultTarget::kMessageSrc) target = m.src;
  if (ev.target == FaultTarget::kMessageDst) target = m.dst;
  // Mirror every recorded event as a fault.event instant on the directory
  // lane (family 0) so traces show when the environment, not a family, acted
  // — linked to the context of the message whose send triggered it.
  const auto mark = [&] {
    if (tracer_ != nullptr) {
      tracer_->instant_linked(SpanPhase::kFaultEvent, 0,
                              target.valid() ? target.value() : 0, m.trace,
                              m.object.valid() ? m.object.value()
                                               : SpanRecord::kNoObject);
    }
  };
  switch (ev.action) {
    case FaultAction::kCrashNode:
      if (!transport_.reachable(target)) return false;  // already down
      // Reachability and the crash epoch flip immediately — the triggering
      // message dies with the node; the store/directory wipe is deferred.
      transport_.set_node_failed(target, true);
      ++crash_counts_[target.value()];
      ++stats_.crashes;
      if (check_ != nullptr)
        check_->on_node_crash(target, crash_counts_[target.value()]);
      pending_.push_back({/*restart=*/false, target});
      trace_.push_back({clock_, FaultAction::kCrashNode, target, m.kind,
                        m.object});
      mark();
      if (recorder_ != nullptr) {
        // Black-box the crash instant: the victim's ring still holds its
        // in-flight spans (e.g. a commit.report that will never end).
        recorder_->note_crash(target.value());
        if (!flight_dump_.empty()) {
          ++dumps_written_;
          const std::string path =
              dumps_written_ == 1
                  ? flight_dump_
                  : flight_dump_ + "." + std::to_string(dumps_written_);
          recorder_->dump_file(path, target.value());
        }
      }
      return false;
    case FaultAction::kRestartNode:
      if (transport_.reachable(target)) return false;  // not crashed
      if (check_ != nullptr) check_->on_node_restart(target);
      pending_.push_back({/*restart=*/true, target});
      trace_.push_back({clock_, FaultAction::kRestartNode, target, m.kind,
                        m.object});
      mark();
      return false;
    case FaultAction::kPartitionStart:
    case FaultAction::kPartitionHeal: {
      const bool start = ev.action == FaultAction::kPartitionStart;
      for (const NodeId a : ev.group_a)
        for (const NodeId b : ev.group_b) {
          if (a == b) continue;
          int& depth = cuts_[link_key(a, b)];
          depth = start ? depth + 1 : std::max(0, depth - 1);
        }
      trace_.push_back({clock_, ev.action, NodeId{}, m.kind, m.object});
      mark();
      return false;
    }
    case FaultAction::kDropMessage:
      return true;
  }
  return false;
}

std::size_t FaultEngine::on_message(const WireMessage& m) {
  // Recovery and post-finalize epilogue traffic is reliable and clock-free.
  if (applying_ || finalized_) return 0;

  ++clock_;
  ++stats_.messages_seen;
  ++seen_[static_cast<std::size_t>(m.kind)];

  // Fire due one-shot events in declaration order — unless a directory
  // atomic section is open, in which case due events wait for the first
  // message after it closes (deferral, not loss: at_tick triggers compare
  // against the still-advancing clock).
  bool doomed = false;
  for (std::size_t i = 0;
       atomic_depth_ == 0 && i < config_.events.size(); ++i) {
    if (event_fired_[i]) continue;
    const FaultEvent& ev = config_.events[i];
    bool due = false;
    if (ev.at_tick > 0) {
      due = clock_ >= ev.at_tick;
    } else {
      due = m.kind == *ev.on_kind &&
            seen_[static_cast<std::size_t>(m.kind)] >= ev.nth;
    }
    if (!due) continue;
    event_fired_[i] = true;
    doomed = fire(ev, m) || doomed;
  }

  const bool chaos_eligible = m.src != m.dst && interruptible(m.kind);

  if (chaos_eligible && link_cut(m.src, m.dst)) {
    ++stats_.partition_drops;
    trace_.push_back({clock_, FaultAction::kPartitionStart, m.dst, m.kind,
                      m.object});
    throw NodeUnreachable(m.src, m.dst);
  }

  if (doomed) {
    ++stats_.dropped;
    trace_.push_back({clock_, FaultAction::kDropMessage, m.dst, m.kind,
                      m.object});
    throw MessageDropped(m);
  }

  std::size_t extra = 0;
  if (chaos_eligible) {
    // Guarded draws: a probability of zero consumes no randomness, so
    // enabling one chaos dimension never perturbs another's stream.
    if (config_.drop_probability > 0.0 &&
        rng_.chance(config_.drop_probability)) {
      ++stats_.dropped;
      trace_.push_back({clock_, FaultAction::kDropMessage, m.dst, m.kind,
                        m.object});
      throw MessageDropped(m);
    }
    if (config_.duplicate_probability > 0.0 &&
        rng_.chance(config_.duplicate_probability)) {
      ++stats_.duplicated;
      extra = 1;
    }
    if (config_.delay_probability > 0.0 &&
        rng_.chance(config_.delay_probability)) {
      ++stats_.delayed;
      stats_.delay_ticks_total += config_.delay_ticks;
      clock_ += config_.delay_ticks;  // latency charged as logical time
    }
  }
  return extra;
}

void FaultEngine::note_created(NodeId creator, ObjectId id,
                               std::size_t num_pages) {
  DurableObject& d = durable_[creator.value()][id];
  d.num_pages = num_pages;
  d.created_here = true;
}

void FaultEngine::note_page(NodeId site, ObjectId id, std::size_t num_pages,
                            PageIndex page, const Page& content) {
  DurableObject& d = durable_[site.value()][id];
  d.num_pages = num_pages;
  d.pages[page.value()][content.version] = content;
}

void FaultEngine::wipe_node(NodeId node) {
  Node& site = *nodes_[node.value()];
  site.store = PageStore{};
  site.pins.clear();
  site.lru.clear();
  site.lru_pos.clear();
  ++wipe_counts_[node.value()];
  // Cached global locks (and their unflushed deferred reports) live in the
  // wiped memory too; the directory reclaims the matching markers by lease.
  site.lock_cache.clear();
  gdo_.on_node_crash(node);
  // Volatile journal state of the crash epoch is gone too: pages installed
  // by the dead incarnation after its last crash stay durable (the journal
  // is the "disk"), which is exactly the model — only memory is lost.
}

void FaultEngine::restore_node(NodeId node) {
  Node& site = *nodes_[node.value()];
  for (const auto& [id, d] : durable_[node.value()]) {
    GdoEntry snap;
    try {
      snap = gdo_.snapshot(id);
    } catch (const Error&) {
      continue;  // directory entry unavailable (home and copies all down)
    }
    ObjectImage* img = nullptr;
    for (std::uint32_t p = 0; p < d.num_pages; ++p) {
      const PageLocation& loc = snap.page_map.at(PageIndex(p));
      if (loc.node != node) continue;  // directory owes this page elsewhere
      // Restore exactly the version the directory attributes to this site;
      // anything else would put the site "ahead of" or behind the map.
      const Page* content = nullptr;
      if (const auto it = d.pages.find(p); it != d.pages.end()) {
        const auto vit = it->second.find(loc.version);
        if (vit != it->second.end()) content = &vit->second;
      }
      if (content == nullptr && !(loc.version == 0 && d.created_here))
        continue;  // journal does not hold the expected version
      if (img == nullptr)
        img = &site.store.get_or_create(id, d.num_pages, page_size_);
      if (content != nullptr) {
        img->install_page(PageIndex(p), *content);
      } else {
        // Creating site, never-committed page: durable as zero-filled v0.
        img->install_page(
            PageIndex(p),
            Page{std::vector<std::byte>(page_size_), 0, {}});
      }
      ++stats_.pages_restored;
    }
  }
}

void FaultEngine::apply_pending() {
  if (applying_ || pending_.empty()) return;
  applying_ = true;
  // Index loop: restores send recovery messages, and a schedule could in
  // principle queue more work while we drain (on_message is gated by
  // applying_, but keep the loop robust).
  for (std::size_t i = 0; i < pending_.size(); ++i) {
    const PendingAction act = pending_[i];
    if (!act.restart) {
      wipe_node(act.node);
      continue;
    }
    ++stats_.restarts;
    // Order matters: restore durable pages while the node is still "down"
    // (directory reads route to the surviving copy), then rejoin, then
    // rebuild this node's directory partition from the mirrors.
    restore_node(act.node);
    transport_.set_node_failed(act.node, false);
    stats_.gdo_entries_rebuilt += gdo_.rebuild_node(act.node);
  }
  pending_.clear();
  applying_ = false;
}

void FaultEngine::finalize() {
  apply_pending();
  finalized_ = true;
  for (std::size_t n = 0; n < nodes_.size(); ++n) {
    const NodeId node(static_cast<std::uint32_t>(n));
    if (transport_.reachable(node)) continue;
    ++stats_.restarts;
    trace_.push_back({clock_, FaultAction::kRestartNode, node,
                      MessageKind::kNumKinds, ObjectId{}});
    applying_ = true;
    restore_node(node);
    transport_.set_node_failed(node, false);
    stats_.gdo_entries_rebuilt += gdo_.rebuild_node(node);
    applying_ = false;
  }
}

FaultStats FaultEngine::stats() const {
  FaultStats s = stats_;
  s.locks_reclaimed = gdo_.locks_reclaimed();
  s.waiters_purged = gdo_.waiters_purged();
  return s;
}

}  // namespace lotec
