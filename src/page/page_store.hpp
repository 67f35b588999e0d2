// PageStore: all object images cached at one site.
#pragma once

#include <memory>

#include "common/error.hpp"
#include "common/flat_map.hpp"
#include "page/object_image.hpp"

namespace lotec {

class PageStore {
 public:
  /// Create an image for an object not yet cached here.  `materialize`
  /// allocates all pages zero-filled (done only at the creating site; other
  /// sites start empty and receive pages by transfer).
  ObjectImage& create(ObjectId id, std::size_t num_pages,
                      std::uint32_t page_size, bool materialize) {
    auto [it, inserted] = images_.try_emplace(
        id, std::make_unique<ObjectImage>(id, num_pages, page_size));
    if (!inserted)
      throw UsageError("PageStore: object " + std::to_string(id.value()) +
                       " already cached");
    if (retain_depth_ > 0)
      it->second->enable_retention(retain_depth_, fence_);
    if (materialize) it->second->materialize_all();
    return *it->second;
  }

  /// Turn on bounded version retention (mv_read) for every image created at
  /// this site from now on.  `fence` is the cluster's oldest-live-snapshot
  /// stamp, shared by the retention GC.  Call before any object exists.
  void configure_retention(std::size_t depth,
                           const std::uint64_t* fence) {
    retain_depth_ = depth;
    fence_ = fence;
  }

  [[nodiscard]] bool contains(ObjectId id) const {
    return images_.count(id) != 0;
  }

  /// Image for a cached object; throws if absent.
  [[nodiscard]] ObjectImage& get(ObjectId id) {
    const auto it = images_.find(id);
    if (it == images_.end())
      throw UsageError("PageStore: object " + std::to_string(id.value()) +
                       " not cached at this site");
    return *it->second;
  }
  [[nodiscard]] const ObjectImage& get(ObjectId id) const {
    return const_cast<PageStore*>(this)->get(id);
  }

  [[nodiscard]] ObjectImage* find(ObjectId id) {
    const auto it = images_.find(id);
    return it == images_.end() ? nullptr : it->second.get();
  }

  /// Image for `id`, creating an empty one if this site has never seen the
  /// object (first acquisition at this site).
  ObjectImage& get_or_create(ObjectId id, std::size_t num_pages,
                             std::uint32_t page_size) {
    if (ObjectImage* img = find(id)) return *img;
    return create(id, num_pages, page_size, /*materialize=*/false);
  }

  /// Drop an object entirely (capacity/invalidation experiments).  Refused
  /// — returns false, image untouched — while a snapshot reader has the
  /// object pinned: evicting would reclaim ring versions the reader's stamp
  /// may still resolve to.
  bool evict(ObjectId id) {
    if (snapshot_pinned(id)) return false;
    images_.erase(id);
    return true;
  }

  // --- snapshot pins (mv_read): a live reader's claim on this site's
  // --- image + version ring; eviction is refused while any pin is live ----

  void pin_snapshot(ObjectId id) { ++snapshot_pins_[id]; }

  void unpin_snapshot(ObjectId id) {
    const auto it = snapshot_pins_.find(id);
    if (it == snapshot_pins_.end())
      throw UsageError("PageStore: snapshot unpin without pin");
    if (--it->second == 0) snapshot_pins_.erase(it);
  }

  [[nodiscard]] bool snapshot_pinned(ObjectId id) const {
    return snapshot_pins_.count(id) != 0;
  }

  [[nodiscard]] std::size_t num_objects() const noexcept {
    return images_.size();
  }

  /// Total resident pages across all images (cache footprint metric).
  [[nodiscard]] std::size_t resident_pages() const {
    std::size_t n = 0;
    for (const auto& [id, img] : images_) n += img->resident().count();
    return n;
  }

 private:
  // FlatMap keyed lookup on every page access; images stay behind
  // unique_ptr so ObjectImage references survive rehash.  The only
  // iteration (resident_pages) is an order-insensitive sum.
  FlatMap<ObjectId, std::unique_ptr<ObjectImage>> images_;
  FlatMap<ObjectId, std::uint32_t> snapshot_pins_;
  std::size_t retain_depth_ = 0;
  const std::uint64_t* fence_ = nullptr;
};

}  // namespace lotec
