// ObjectImage: one site's cached copy of a shared object's pages.
//
// Under LOTEC the up-to-date pages of an object may be scattered across
// several sites, so an image holds an arbitrary *subset* of the object's
// pages, each with the version (global LSN) it carried when installed.
// Reads and writes address the image by byte offset (attribute accesses may
// straddle page boundaries) and require the touched pages to be resident —
// the runtime guarantees that by transferring pages before method execution
// (or demand-fetching on a LOTEC misprediction).
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <span>
#include <unordered_map>
#include <vector>

#include "common/error.hpp"
#include "common/ids.hpp"
#include "common/page_set.hpp"

namespace lotec {

/// The byte ranges one committed version changed relative to its
/// predecessor: content(version) == content(from_version) patched with
/// `ranges`.  This is what makes the DSD transfer mode (Section 4.2 /
/// Section 6: "only updates to the objects ... really need to be
/// transmitted") possible: an acquirer exactly one version behind needs
/// only the ranges, not the page.
struct PageDelta {
  Lsn from_version = 0;
  /// Coalesced, ascending (offset, length) pairs within the page.
  std::vector<std::pair<std::uint32_t, std::uint32_t>> ranges;

  /// Wire size of shipping this delta: range payloads plus an 8-byte
  /// descriptor per range.
  [[nodiscard]] std::uint64_t wire_bytes() const noexcept {
    std::uint64_t n = 0;
    for (const auto& [off, len] : ranges) n += len + 8;
    return n;
  }
};

/// Bound on the per-page delta history: an acquirer at most this many
/// versions behind can be served by deltas instead of the full page.
inline constexpr std::size_t kDeltaHistory = 8;

/// One page of object data plus the version it carried when produced and a
/// bounded history of the deltas that led to it (newest first; entry i
/// patches from_version -> the version entry i-1 patches from).
struct Page {
  std::vector<std::byte> data;
  Lsn version = 0;
  /// Global commit tick `version` was published under (mv_read extension);
  /// 0 for the initial materialization.  Copied along with the data on
  /// transfer, so a fetched page knows which snapshot stamps it satisfies.
  std::uint64_t tick = 0;
  std::vector<PageDelta> history;

  /// Wire bytes needed to bring a copy at `have` up to `version` using the
  /// delta chain, or nullopt when the history does not reach back that far
  /// (ship the full page instead).
  [[nodiscard]] std::optional<std::uint64_t> delta_chain_bytes(
      Lsn have) const noexcept {
    if (have >= version) return 0;
    std::uint64_t sum = 0;
    for (const PageDelta& d : history) {
      sum += 8 + d.wire_bytes();
      if (d.from_version == have) return sum;
      if (d.from_version < have) break;  // chain skipped past `have`
    }
    return std::nullopt;
  }
};

/// A sub-page update shipped instead of a full page (DSD mode): the byte
/// spans that changed between the receiver's cached version and `version`
/// (content taken from the sender's current page), plus the sender's delta
/// history so the receiver can serve further delta chains itself.
struct PagePatch {
  Lsn version = 0;
  /// Commit tick of `version` (rides the patch like Page::tick).
  std::uint64_t tick = 0;
  std::vector<PageDelta> history;
  /// Ascending-by-construction (offset, bytes) spans; overlapping spans are
  /// harmless (all carry the same final content).
  std::vector<std::pair<std::uint32_t, std::vector<std::byte>>> spans;
};

/// Raised when an access touches a page that is not resident; the runtime
/// catches it to trigger a demand fetch (LOTEC) or to fail a test that
/// asserts full residency (COTEC/OTEC must never see this).
class PageNotResident : public Error {
 public:
  PageNotResident(ObjectId object, PageIndex page)
      : Error("page " + std::to_string(page.value()) + " of object " +
              std::to_string(object.value()) + " not resident"),
        object_(object),
        page_(page) {}
  [[nodiscard]] ObjectId object() const noexcept { return object_; }
  [[nodiscard]] PageIndex page() const noexcept { return page_; }

 private:
  ObjectId object_;
  PageIndex page_;
};

/// One superseded committed page version retained for snapshot readers
/// (mv_read extension): full page content plus the (version, tick) pair it
/// was committed under.
struct RetainedVersion {
  std::vector<std::byte> data;
  Lsn version = 0;
  std::uint64_t tick = 0;
};

/// What a snapshot read resolved a page to: a borrowed view of either the
/// live committed page or a retained ring entry (valid until the store
/// changes).
struct SnapshotView {
  const std::byte* data = nullptr;
  Lsn version = 0;
  std::uint64_t tick = 0;
};

class ObjectImage {
 public:
  ObjectImage(ObjectId id, std::size_t num_pages, std::uint32_t page_size)
      : id_(id),
        page_size_(page_size),
        pages_(num_pages),
        dirty_(num_pages) {
    if (num_pages == 0 || page_size == 0)
      throw UsageError("ObjectImage: empty geometry");
  }

  [[nodiscard]] ObjectId id() const noexcept { return id_; }
  [[nodiscard]] std::size_t num_pages() const noexcept {
    return pages_.size();
  }
  [[nodiscard]] std::uint32_t page_size() const noexcept { return page_size_; }

  [[nodiscard]] bool has_page(PageIndex p) const {
    check(p);
    return pages_[p.value()].has_value();
  }

  [[nodiscard]] Lsn page_version(PageIndex p) const {
    check(p);
    return pages_[p.value()] ? pages_[p.value()]->version : 0;
  }

  /// Pages currently resident at this site.
  [[nodiscard]] PageSet resident() const {
    PageSet s(pages_.size());
    for (std::size_t i = 0; i < pages_.size(); ++i)
      if (pages_[i]) s.insert(PageIndex(static_cast<std::uint32_t>(i)));
    return s;
  }

  /// Allocate every page zero-filled at version 0 (creating site).
  void materialize_all() {
    for (auto& p : pages_) {
      if (!p) p = Page{.data = std::vector<std::byte>(page_size_), .version = 0, .history = {}};
    }
  }

  /// Install (or overwrite) a page received from another site.  When
  /// retention is on, a superseded committed local copy moves into the
  /// version ring instead of being destroyed.
  void install_page(PageIndex idx, Page page) {
    check(idx);
    if (page.data.size() != page_size_)
      throw UsageError("ObjectImage: page size mismatch on install");
    if (retain_depth_ > 0 && pages_[idx.value()] &&
        !dirty_.contains(idx) &&
        pages_[idx.value()]->version < page.version)
      retain(idx.value(), *pages_[idx.value()]);
    pages_[idx.value()] = std::move(page);
  }

  /// Apply a sub-page patch to a resident page (DSD transfer).  A page
  /// whose version already reached patch.version is left untouched (it was
  /// concurrently installed); the caller guarantees the local content sits
  /// on the patch's delta chain, so writing every span yields the sender's
  /// exact content.  Does NOT mark pages dirty (committed remote state).
  void patch_page(PageIndex idx, const PagePatch& patch) {
    check(idx);
    if (!pages_[idx.value()]) throw PageNotResident(id_, idx);
    Page& page = *pages_[idx.value()];
    if (page.version >= patch.version) return;
    if (retain_depth_ > 0 && !dirty_.contains(idx)) retain(idx.value(), page);
    for (const auto& [off, bytes] : patch.spans) {
      if (off + bytes.size() > page.data.size())
        throw UsageError("ObjectImage: patch span out of page bounds");
      std::copy(bytes.begin(), bytes.end(),
                page.data.begin() + static_cast<std::ptrdiff_t>(off));
    }
    page.version = patch.version;
    page.tick = patch.tick;
    page.history = patch.history;
  }

  /// Copy of a resident page (for transfer to another site).
  [[nodiscard]] const Page& page(PageIndex idx) const {
    check(idx);
    if (!pages_[idx.value()]) throw PageNotResident(id_, idx);
    return *pages_[idx.value()];
  }

  /// Drop a page from the cache (invalidation / capacity experiments).
  void evict_page(PageIndex idx) {
    check(idx);
    pages_[idx.value()].reset();
    dirty_.erase(idx);
  }

  // --- byte-granularity access (may straddle pages) ----------------------

  /// Read `out.size()` bytes starting at `offset` into `out`.
  void read_bytes(std::uint64_t offset, std::span<std::byte> out) const;

  /// Overwrite bytes starting at `offset`; marks touched pages dirty.
  void write_bytes(std::uint64_t offset, std::span<const std::byte> in);

  /// Restore bytes from an undo before-image.  Unlike write_bytes this does
  /// NOT mark pages dirty: rolled-back state is, at worst, conservatively
  /// still covered by dirty bits set by the original (undone) writes.
  void restore_bytes(std::uint64_t offset, std::span<const std::byte> in);

  /// Restore a whole page from a shadow copy (same dirty semantics).
  void restore_page(PageIndex idx, Page before) {
    check(idx);
    if (before.data.size() != page_size_)
      throw UsageError("ObjectImage: shadow page size mismatch");
    pages_[idx.value()] = std::move(before);
  }

  /// The first non-resident page an access [offset, offset+len) would touch,
  /// if any — used by the demand-fetch path to discover what to fetch.
  [[nodiscard]] std::optional<PageIndex> first_missing_page(
      std::uint64_t offset, std::uint64_t len) const;

  // --- dirty tracking -----------------------------------------------------

  [[nodiscard]] const PageSet& dirty_pages() const noexcept { return dirty_; }
  void clear_dirty() {
    dirty_.clear();
    dirty_ranges_.clear();
    // An aborted epoch's before-images duplicate the (restored) live pages;
    // drop them so the ring holds only genuinely superseded versions.
    discard_pending_retained();
  }
  /// Stamp dirty pages with a new version at root commit; each stamped page
  /// also receives the delta (coalesced written ranges) that produced it
  /// from its previous version, and carries the global commit `tick` the
  /// version is published under.  Returns the stamped set.
  PageSet stamp_dirty(Lsn version, std::uint64_t tick = 0);

  // --- bounded version retention (mv_read extension) ----------------------

  /// Start retaining superseded committed page versions in a bounded ring of
  /// `depth` entries per page.  `fence` (may be null = no live snapshots) is
  /// the oldest live snapshot stamp: the ring garbage-collects past the
  /// bound only when no live reader could still resolve to the dropped
  /// version.  Off by default — a non-retaining image has zero overhead.
  void enable_retention(std::size_t depth,
                        const std::uint64_t* fence) {
    if (depth == 0) throw UsageError("ObjectImage: retention depth 0");
    retain_depth_ = depth;
    fence_ = fence;
  }

  [[nodiscard]] bool retention_enabled() const noexcept {
    return retain_depth_ > 0;
  }

  /// Resolve page `idx` for a reader stamped `stamp`: the newest committed
  /// content with tick <= stamp known at this site — the live page (when
  /// resident, clean, and old enough) or a retained ring entry.  Returns
  /// nullopt when nothing here is old (or new) enough; the caller falls back
  /// to a remote snapshot fetch.  The view borrows storage: copy out before
  /// the store changes.
  [[nodiscard]] std::optional<SnapshotView> snapshot_page(
      PageIndex idx, std::uint64_t stamp) const;

  /// Adopt remotely-fetched snapshot content into the ring (never touches
  /// the live page, so coherence state is unaffected).  No-op if the ring
  /// already holds this version.
  void adopt_version(PageIndex idx, std::vector<std::byte> data, Lsn version,
                     std::uint64_t tick);

  /// Retained ring entries of a page, newest first (tests / introspection).
  [[nodiscard]] std::vector<RetainedVersion> retained(PageIndex idx) const {
    check(idx);
    const auto it = rings_.find(idx.value());
    return it == rings_.end() ? std::vector<RetainedVersion>{} : it->second;
  }

  /// The most recent delta of page `idx` (the one that produced its
  /// current version), if known.
  [[nodiscard]] const PageDelta* delta_of(PageIndex idx) const {
    check(idx);
    if (!pages_[idx.value()] || pages_[idx.value()]->history.empty())
      return nullptr;
    return &pages_[idx.value()]->history.front();
  }

 private:
  void check(PageIndex p) const {
    if (!p.valid() || p.value() >= pages_.size())
      throw UsageError("ObjectImage: page index out of range");
  }

  /// Move a copy of a committed page into its version ring (newest first,
  /// deduplicated by version), then trim past the bound where the snapshot
  /// fence allows.
  void retain(std::uint32_t page_idx, const Page& page);
  /// GC: drop oldest ring entries beyond the bound — but only when the next
  /// newer retained version is itself old enough for every live snapshot
  /// (tick <= fence), so no reader's newest-<=-stamp resolution can land on
  /// a reclaimed entry.
  void trim_ring(std::uint32_t page_idx);
  void discard_pending_retained();

  ObjectId id_;
  std::uint32_t page_size_;
  std::vector<std::optional<Page>> pages_;
  PageSet dirty_;
  /// Byte ranges written in the current (un-stamped) epoch, per page.
  std::unordered_map<std::uint32_t,
                     std::vector<std::pair<std::uint32_t, std::uint32_t>>>
      dirty_ranges_;
  // --- version retention state (empty unless enable_retention ran) --------
  std::size_t retain_depth_ = 0;
  const std::uint64_t* fence_ = nullptr;
  /// Per-page ring of superseded committed versions, newest first.
  std::unordered_map<std::uint32_t, std::vector<RetainedVersion>> rings_;
  /// Before-images captured for the current un-stamped dirty epoch
  /// (page -> retained version), discarded again if the epoch aborts.
  std::unordered_map<std::uint32_t, Lsn> pending_retained_;
};

}  // namespace lotec
