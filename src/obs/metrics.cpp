#include "obs/metrics.hpp"

#include <algorithm>
#include <bit>
#include <cmath>

namespace lotec {

namespace {

// Bucket index for a sample: floor(log2(ticks + 1)), clamped to the table.
std::size_t bucket_for(std::uint64_t ticks) noexcept {
  const std::uint64_t shifted = ticks + 1;
  const std::size_t idx =
      static_cast<std::size_t>(std::bit_width(shifted)) - 1;
  return std::min(idx, HistogramSnapshot::kBuckets - 1);
}

}  // namespace

double HistogramSnapshot::percentile(double p) const noexcept {
  if (count == 0) return 0.0;
  if (std::isnan(p)) return 0.0;  // std::clamp on NaN is UB
  p = std::clamp(p, 0.0, 100.0);
  if (p <= 0.0) return static_cast<double>(min);
  if (p >= 100.0) return static_cast<double>(max);
  const double rank = p / 100.0 * static_cast<double>(count);
  std::uint64_t seen = 0;
  for (std::size_t i = 0; i < kBuckets; ++i) {
    seen += buckets[i];
    if (static_cast<double>(seen) >= rank) {
      // Upper bound of bucket i is 2^(i+1) - 2 (largest value mapping there).
      const double upper = static_cast<double>((std::uint64_t{2} << i) - 2);
      return std::min(upper, static_cast<double>(max));
    }
  }
  return static_cast<double>(max);
}

void LatencyHistogram::record(std::uint64_t ticks) noexcept {
  if (data_.count == 0) {
    data_.min = ticks;
    data_.max = ticks;
  } else {
    data_.min = std::min(data_.min, ticks);
    data_.max = std::max(data_.max, ticks);
  }
  ++data_.count;
  data_.sum += ticks;
  ++data_.buckets[bucket_for(ticks)];
}

HistogramSnapshot LatencyHistogram::snapshot() const {
  return data_;
}

void LatencyHistogram::reset() noexcept {
  data_ = HistogramSnapshot{};
}

MetricsCounter& MetricsRegistry::counter(const std::string& name) {
  auto& slot = counters_[name];
  if (!slot) {
    slot = std::make_unique<MetricsCounter>();
    ++generation_;
  }
  return *slot;
}

LatencyHistogram& MetricsRegistry::histogram(const std::string& name) {
  auto& slot = histograms_[name];
  if (!slot) {
    slot = std::make_unique<LatencyHistogram>();
    ++generation_;
  }
  return *slot;
}

std::uint64_t MetricsRegistry::generation() const {
  return generation_;
}

std::vector<std::pair<std::string, const MetricsCounter*>>
MetricsRegistry::counter_handles() const {
  std::vector<std::pair<std::string, const MetricsCounter*>> out;
  out.reserve(counters_.size());
  for (const auto& [name, c] : counters_) out.emplace_back(name, c.get());
  return out;
}

std::vector<std::pair<std::string, const LatencyHistogram*>>
MetricsRegistry::histogram_handles() const {
  std::vector<std::pair<std::string, const LatencyHistogram*>> out;
  out.reserve(histograms_.size());
  for (const auto& [name, h] : histograms_) out.emplace_back(name, h.get());
  return out;
}

std::uint64_t MetricsRegistry::value(const std::string& name) const {
  auto it = counters_.find(name);
  return it == counters_.end() ? 0 : it->second->value();
}

std::map<std::string, std::uint64_t> MetricsRegistry::counters() const {
  std::map<std::string, std::uint64_t> out;
  for (const auto& [name, c] : counters_) out.emplace(name, c->value());
  return out;
}

std::map<std::string, HistogramSnapshot> MetricsRegistry::histograms() const {
  std::map<std::string, HistogramSnapshot> out;
  for (const auto& [name, h] : histograms_) out.emplace(name, h->snapshot());
  return out;
}

void MetricsRegistry::reset() {
  for (auto& [name, c] : counters_) c->reset();
  for (auto& [name, h] : histograms_) h->reset();
}

}  // namespace lotec
