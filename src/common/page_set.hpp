// PageSet: a compact dynamic bitset over the pages of one object.
//
// The protocols reason constantly about sets of pages (dirty pages, pages
// predicted to be needed, pages to transfer, pages resident at a site), so
// this type provides the set algebra they need with cheap word-parallel
// operations.  Objects in the paper's experiments span 1-20 pages, but the
// type supports arbitrary sizes.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "common/ids.hpp"

namespace lotec {

class PageSet {
 public:
  PageSet() = default;
  /// A set over `num_pages` pages, initially empty.
  explicit PageSet(std::size_t num_pages) : num_pages_(num_pages) {
    words_.resize((num_pages + 63) / 64, 0);
  }

  /// A set over `num_pages` pages with every page present.
  [[nodiscard]] static PageSet full(std::size_t num_pages) {
    PageSet s(num_pages);
    for (std::size_t i = 0; i < num_pages; ++i) s.insert(PageIndex(static_cast<std::uint32_t>(i)));
    return s;
  }

  [[nodiscard]] std::size_t universe_size() const noexcept {
    return num_pages_;
  }

  void insert(PageIndex p) {
    check(p);
    words_[p.value() / 64] |= (std::uint64_t{1} << (p.value() % 64));
  }

  void erase(PageIndex p) {
    check(p);
    words_[p.value() / 64] &= ~(std::uint64_t{1} << (p.value() % 64));
  }

  [[nodiscard]] bool contains(PageIndex p) const {
    check(p);
    return (words_[p.value() / 64] >> (p.value() % 64)) & 1;
  }

  [[nodiscard]] bool empty() const noexcept {
    for (auto w : words_)
      if (w != 0) return false;
    return true;
  }

  [[nodiscard]] std::size_t count() const noexcept {
    std::size_t n = 0;
    for (auto w : words_) n += static_cast<std::size_t>(__builtin_popcountll(w));
    return n;
  }

  void clear() noexcept {
    for (auto& w : words_) w = 0;
  }

  /// In-place union; both sets must share a universe size.
  PageSet& operator|=(const PageSet& o) {
    check_compat(o);
    for (std::size_t i = 0; i < words_.size(); ++i) words_[i] |= o.words_[i];
    return *this;
  }

  /// In-place intersection.
  PageSet& operator&=(const PageSet& o) {
    check_compat(o);
    for (std::size_t i = 0; i < words_.size(); ++i) words_[i] &= o.words_[i];
    return *this;
  }

  /// In-place difference (remove o's members).
  PageSet& operator-=(const PageSet& o) {
    check_compat(o);
    for (std::size_t i = 0; i < words_.size(); ++i) words_[i] &= ~o.words_[i];
    return *this;
  }

  friend PageSet operator|(PageSet a, const PageSet& b) { return a |= b; }
  friend PageSet operator&(PageSet a, const PageSet& b) { return a &= b; }
  friend PageSet operator-(PageSet a, const PageSet& b) { return a -= b; }

  friend bool operator==(const PageSet&, const PageSet&) = default;

  /// True when every member of this set is also in `o`.
  [[nodiscard]] bool subset_of(const PageSet& o) const {
    check_compat(o);
    for (std::size_t i = 0; i < words_.size(); ++i)
      if (words_[i] & ~o.words_[i]) return false;
    return true;
  }

  [[nodiscard]] bool intersects(const PageSet& o) const {
    check_compat(o);
    for (std::size_t i = 0; i < words_.size(); ++i)
      if (words_[i] & o.words_[i]) return true;
    return false;
  }

  /// Enumerate members in ascending order.
  /// Call `f(page)` for every member, ascending, without allocating.
  template <typename F>
  void for_each(F&& f) const {
    for (std::size_t w = 0; w < words_.size(); ++w)
      for (std::uint64_t bits = words_[w]; bits != 0; bits &= bits - 1)
        f(PageIndex(static_cast<std::uint32_t>(
            w * 64 + static_cast<std::size_t>(__builtin_ctzll(bits)))));
  }

  [[nodiscard]] std::vector<PageIndex> to_vector() const {
    std::vector<PageIndex> out;
    out.reserve(count());
    for_each([&out](PageIndex p) { out.push_back(p); });
    return out;
  }

  /// Debug rendering, e.g. "{0,2,5}".
  [[nodiscard]] std::string to_string() const {
    std::string s = "{";
    bool first = true;
    for (const auto p : to_vector()) {
      if (!first) s += ',';
      s += std::to_string(p.value());
      first = false;
    }
    s += '}';
    return s;
  }

 private:
  void check(PageIndex p) const {
    if (!p.valid() || p.value() >= num_pages_)
      throw UsageError("PageSet: page index " +
                       std::to_string(p.value()) + " out of range (size " +
                       std::to_string(num_pages_) + ")");
  }
  void check_compat(const PageSet& o) const {
    if (num_pages_ != o.num_pages_)
      throw UsageError("PageSet: universe size mismatch");
  }

  std::size_t num_pages_ = 0;
  std::vector<std::uint64_t> words_;
};

}  // namespace lotec
