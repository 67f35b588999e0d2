#include "page/object_image.hpp"

#include <algorithm>
#include <cstring>

namespace lotec {

void ObjectImage::read_bytes(std::uint64_t offset,
                             std::span<std::byte> out) const {
  std::uint64_t pos = offset;
  std::size_t done = 0;
  while (done < out.size()) {
    const auto page_idx = static_cast<std::uint32_t>(pos / page_size_);
    const PageIndex p(page_idx);
    check(p);
    if (!pages_[page_idx]) throw PageNotResident(id_, p);
    const std::uint64_t in_page = pos % page_size_;
    const std::size_t n = static_cast<std::size_t>(
        std::min<std::uint64_t>(page_size_ - in_page, out.size() - done));
    std::memcpy(out.data() + done, pages_[page_idx]->data.data() + in_page, n);
    done += n;
    pos += n;
  }
}

void ObjectImage::write_bytes(std::uint64_t offset,
                              std::span<const std::byte> in) {
  std::uint64_t pos = offset;
  std::size_t done = 0;
  while (done < in.size()) {
    const auto page_idx = static_cast<std::uint32_t>(pos / page_size_);
    const PageIndex p(page_idx);
    check(p);
    if (!pages_[page_idx]) throw PageNotResident(id_, p);
    const std::uint64_t in_page = pos % page_size_;
    const std::size_t n = static_cast<std::size_t>(
        std::min<std::uint64_t>(page_size_ - in_page, in.size() - done));
    // First write of the epoch to a committed page: capture the before-image
    // into the version ring so a snapshot reader overlapping this (future)
    // commit still resolves the pre-commit content.
    if (retain_depth_ > 0 && !dirty_.contains(p)) {
      retain(page_idx, *pages_[page_idx]);
      pending_retained_[page_idx] = pages_[page_idx]->version;
    }
    std::memcpy(pages_[page_idx]->data.data() + in_page, in.data() + done, n);
    dirty_.insert(p);
    dirty_ranges_[page_idx].emplace_back(static_cast<std::uint32_t>(in_page),
                                         static_cast<std::uint32_t>(n));
    done += n;
    pos += n;
  }
}

namespace {

/// Sort and merge overlapping/adjacent (offset, length) ranges.
std::vector<std::pair<std::uint32_t, std::uint32_t>> coalesce(
    std::vector<std::pair<std::uint32_t, std::uint32_t>> ranges) {
  std::sort(ranges.begin(), ranges.end());
  std::vector<std::pair<std::uint32_t, std::uint32_t>> out;
  for (const auto& [off, len] : ranges) {
    if (!out.empty() && off <= out.back().first + out.back().second) {
      const std::uint32_t end =
          std::max(out.back().first + out.back().second, off + len);
      out.back().second = end - out.back().first;
    } else {
      out.emplace_back(off, len);
    }
  }
  return out;
}

}  // namespace

PageSet ObjectImage::stamp_dirty(Lsn version, std::uint64_t tick) {
  const PageSet stamped = dirty_;
  for (const PageIndex p : stamped.to_vector()) {
    Page& page = *pages_[p.value()];
    PageDelta delta;
    delta.from_version = page.version;
    const auto it = dirty_ranges_.find(p.value());
    if (it != dirty_ranges_.end()) delta.ranges = coalesce(it->second);
    page.history.insert(page.history.begin(), std::move(delta));
    if (page.history.size() > kDeltaHistory)
      page.history.resize(kDeltaHistory);
    page.version = version;
    page.tick = tick;
  }
  dirty_.clear();
  dirty_ranges_.clear();
  // The epoch committed: its before-images are now permanent ring entries.
  pending_retained_.clear();
  return stamped;
}

void ObjectImage::retain(std::uint32_t page_idx, const Page& page) {
  std::vector<RetainedVersion>& ring = rings_[page_idx];
  const auto pos = std::find_if(
      ring.begin(), ring.end(),
      [&](const RetainedVersion& r) { return r.tick <= page.tick; });
  if (pos != ring.end() && pos->version == page.version) return;
  ring.insert(pos, RetainedVersion{page.data, page.version, page.tick});
  trim_ring(page_idx);
}

void ObjectImage::trim_ring(std::uint32_t page_idx) {
  std::vector<RetainedVersion>& ring = rings_[page_idx];
  const std::uint64_t fence =
      fence_ != nullptr ? *fence_ : ~std::uint64_t{0};
  // Drop the oldest entry past the bound only when the next newer retained
  // version already covers every live snapshot stamp — a reader pinned at
  // `fence` resolving newest-<=-fence then lands on that newer entry (or
  // something newer still), never on the reclaimed one.
  while (ring.size() > retain_depth_ &&
         ring[ring.size() - 2].tick <= fence)
    ring.pop_back();
}

void ObjectImage::discard_pending_retained() {
  for (const auto& [page_idx, version] : pending_retained_) {
    const auto it = rings_.find(page_idx);
    if (it == rings_.end()) continue;
    std::erase_if(it->second, [&](const RetainedVersion& r) {
      return r.version == version;
    });
    if (it->second.empty()) rings_.erase(it);
  }
  pending_retained_.clear();
}

std::optional<SnapshotView> ObjectImage::snapshot_page(
    PageIndex idx, std::uint64_t stamp) const {
  check(idx);
  std::optional<SnapshotView> best;
  const auto& slot = pages_[idx.value()];
  if (slot && !dirty_.contains(idx) && slot->tick <= stamp)
    best = SnapshotView{slot->data.data(), slot->version, slot->tick};
  const auto it = rings_.find(idx.value());
  if (it != rings_.end()) {
    for (const RetainedVersion& r : it->second) {
      if (r.tick > stamp) continue;
      // Ring is newest-first: the first admissible entry is the ring's best.
      if (!best || r.tick > best->tick)
        best = SnapshotView{r.data.data(), r.version, r.tick};
      break;
    }
  }
  return best;
}

void ObjectImage::adopt_version(PageIndex idx, std::vector<std::byte> data,
                                Lsn version, std::uint64_t tick) {
  check(idx);
  if (retain_depth_ == 0)
    throw UsageError("ObjectImage: adopt_version without retention");
  if (data.size() != page_size_)
    throw UsageError("ObjectImage: page size mismatch on adopt");
  std::vector<RetainedVersion>& ring = rings_[idx.value()];
  const auto pos = std::find_if(
      ring.begin(), ring.end(),
      [&](const RetainedVersion& r) { return r.tick <= tick; });
  if (pos != ring.end() && pos->version == version) return;
  ring.insert(pos, RetainedVersion{std::move(data), version, tick});
  trim_ring(idx.value());
}

void ObjectImage::restore_bytes(std::uint64_t offset,
                                std::span<const std::byte> in) {
  std::uint64_t pos = offset;
  std::size_t done = 0;
  while (done < in.size()) {
    const auto page_idx = static_cast<std::uint32_t>(pos / page_size_);
    const PageIndex p(page_idx);
    check(p);
    if (!pages_[page_idx]) throw PageNotResident(id_, p);
    const std::uint64_t in_page = pos % page_size_;
    const std::size_t n = static_cast<std::size_t>(
        std::min<std::uint64_t>(page_size_ - in_page, in.size() - done));
    std::memcpy(pages_[page_idx]->data.data() + in_page, in.data() + done, n);
    done += n;
    pos += n;
  }
}

std::optional<PageIndex> ObjectImage::first_missing_page(
    std::uint64_t offset, std::uint64_t len) const {
  if (len == 0) return std::nullopt;
  const std::uint64_t first = offset / page_size_;
  const std::uint64_t last = (offset + len - 1) / page_size_;
  for (std::uint64_t i = first; i <= last; ++i) {
    const PageIndex p(static_cast<std::uint32_t>(i));
    check(p);
    if (!pages_[i]) return p;
  }
  return std::nullopt;
}

}  // namespace lotec
