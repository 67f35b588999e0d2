#include "sim/validate.hpp"

#include <sstream>

namespace lotec {

namespace {

void check_object(Cluster& cluster, ObjectId id,
                  std::vector<std::string>& out) {
  const GdoEntry entry = cluster.gdo().snapshot(id);
  const auto oops = [&](const std::string& what) {
    std::ostringstream oss;
    oss << "object " << id.value() << ": " << what;
    out.push_back(oss.str());
  };

  // 1. Lock state quiescent.
  if (entry.state != GdoLockState::kFree)
    oops("lock not free (" + std::string(to_string(entry.state)) + ")");
  if (!entry.holders.empty()) oops("holder families linger");
  if (!entry.waiters.empty()) oops("waiter families linger");
  if (!entry.cached.empty()) oops("cached lock holders linger");

  // 2/3. Page map honesty + no site ahead of the directory.
  for (std::size_t p = 0; p < entry.num_pages; ++p) {
    const PageIndex page(static_cast<std::uint32_t>(p));
    const PageLocation& loc = entry.page_map.at(page);
    bool owner_checked = false;
    for (std::size_t n = 0; n < cluster.num_nodes(); ++n) {
      Node& node = cluster.node(NodeId(static_cast<std::uint32_t>(n)));
      const ObjectImage* img = node.store.find(id);
      if (img == nullptr) continue;
      if (img->has_page(page)) {
        const Lsn v = img->page_version(page);
        if (v > loc.version) {
          std::ostringstream oss;
          oss << "node " << n << " holds page " << p << " at version " << v
              << " ahead of the directory's " << loc.version;
          oops(oss.str());
        }
        if (node.id == loc.node) {
          owner_checked = true;
          if (v != loc.version) {
            std::ostringstream oss;
            oss << "owner node " << n << " holds page " << p
                << " at version " << v << ", directory says " << loc.version;
            oops(oss.str());
          }
        }
      } else if (node.id == loc.node) {
        std::ostringstream oss;
        oss << "directory names node " << n << " owner of page " << p
            << " but the page is not resident there";
        oops(oss.str());
      }
      // 4. No lingering dirt.
      if (img->dirty_pages().contains(page) && p == 0) {
        // (report dirty once per object, below)
      }
    }
    if (!owner_checked && loc.node.value() >= cluster.num_nodes())
      oops("page map names an out-of-range node");
  }

  // 4. Dirty bits clear at every site.
  for (std::size_t n = 0; n < cluster.num_nodes(); ++n) {
    Node& node = cluster.node(NodeId(static_cast<std::uint32_t>(n)));
    const ObjectImage* img = node.store.find(id);
    if (img != nullptr && !img->dirty_pages().empty()) {
      std::ostringstream oss;
      oss << "node " << n << " has lingering dirty pages "
          << img->dirty_pages().to_string();
      oops(oss.str());
    }
  }
}

}  // namespace

std::vector<std::string> validate_quiescent(Cluster& cluster) {
  std::vector<std::string> out;
  // Walk every object ever created (ids are sequential).
  for (std::uint64_t i = 0;; ++i) {
    const ObjectId id(i);
    try {
      (void)cluster.meta_of(id);
    } catch (const UsageError&) {
      break;  // past the last object
    }
    check_object(cluster, id, out);
  }
  // 5. No pins remain.
  for (std::size_t n = 0; n < cluster.num_nodes(); ++n) {
    Node& node = cluster.node(NodeId(static_cast<std::uint32_t>(n)));
    if (!node.pins.empty()) {
      std::ostringstream oss;
      oss << "node " << n << " still pins " << node.pins.size()
          << " object(s)";
      out.push_back(oss.str());
    }
    // 6. Lock caches drained (the end-of-batch drain flushed every deferred
    // report back to the directory).
    if (node.lock_cache.size() != 0) {
      std::ostringstream oss;
      oss << "node " << n << " still caches " << node.lock_cache.size()
          << " global lock(s)";
      out.push_back(oss.str());
    }
  }
  return out;
}

}  // namespace lotec
