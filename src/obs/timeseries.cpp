#include "obs/timeseries.hpp"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <fstream>
#include <limits>
#include <ostream>

#include "common/error.hpp"
#include "obs/chrome_trace.hpp"

namespace lotec {

// --- WindowHistogram -----------------------------------------------------

WindowHistogram WindowHistogram::delta(const HistogramSnapshot& now,
                                       const HistogramSnapshot& prev) {
  WindowHistogram w;
  if (now.count < prev.count) {
    // The histogram was reset between the two snapshots; the cumulative
    // state IS the window.
    w.count = now.count;
    w.sum = now.sum;
    for (std::size_t i = 0; i < kBuckets; ++i)
      w.buckets[i] = saturating_add_u32(0, now.buckets[i]);
  } else {
    w.count = now.count - prev.count;
    w.sum = now.sum >= prev.sum ? now.sum - prev.sum : 0;
    for (std::size_t i = 0; i < kBuckets; ++i) {
      const std::uint64_t d = now.buckets[i] >= prev.buckets[i]
                                  ? now.buckets[i] - prev.buckets[i]
                                  : now.buckets[i];
      w.buckets[i] = saturating_add_u32(0, d);
    }
  }
  if (w.count == 0) return w;
  // Bucket-resolution extremes: lower bound of the lowest occupied bucket
  // (2^i - 1) and upper bound of the highest ((2^(i+1)) - 2), clamped to
  // the cumulative max — a real recorded value.
  for (std::size_t i = 0; i < kBuckets; ++i) {
    if (w.buckets[i] != 0) {
      w.min = (std::uint64_t{1} << i) - 1;
      break;
    }
  }
  for (std::size_t i = kBuckets; i-- > 0;) {
    if (w.buckets[i] != 0) {
      w.max = std::min((std::uint64_t{2} << i) - 2, now.max);
      break;
    }
  }
  w.max = std::max(w.max, w.min);
  return w;
}

void WindowHistogram::merge(const WindowHistogram& o) noexcept {
  if (o.count == 0) return;  // empty windows must not perturb anything
  if (count == 0) {
    *this = o;
    return;
  }
  count += o.count;
  sum += o.sum;
  min = std::min(min, o.min);
  max = std::max(max, o.max);
  for (std::size_t i = 0; i < kBuckets; ++i)
    buckets[i] = saturating_add_u32(buckets[i], o.buckets[i]);
}

double WindowHistogram::percentile(double p) const noexcept {
  if (count == 0) return 0.0;
  if (std::isnan(p)) return 0.0;
  p = std::clamp(p, 0.0, 100.0);
  if (p <= 0.0) return static_cast<double>(min);
  if (p >= 100.0) return static_cast<double>(max);
  const double rank = p / 100.0 * static_cast<double>(count);
  std::uint64_t seen = 0;
  for (std::size_t i = 0; i < kBuckets; ++i) {
    seen += buckets[i];
    if (static_cast<double>(seen) >= rank) {
      const double upper = static_cast<double>((std::uint64_t{2} << i) - 2);
      return std::min(upper, static_cast<double>(max));
    }
  }
  return static_cast<double>(max);
}

// --- TimeseriesCollector -------------------------------------------------

TimeseriesCollector::TimeseriesCollector(MetricsRegistry& registry,
                                         TimeseriesConfig config)
    : registry_(registry),
      interval_(config.tick_interval),
      retain_(std::max<std::size_t>(1, config.retain)) {
  next_close_ = interval_;
  ring_.resize(retain_);
  if (!config.jsonl_path.empty()) {
    auto os = std::make_unique<std::ofstream>(config.jsonl_path);
    if (!*os)
      throw Error("timeseries: cannot open jsonl sink " + config.jsonl_path);
    jsonl_ = std::move(os);
  }
  refresh_handles();
}

TimeseriesCollector::~TimeseriesCollector() {
  if (jsonl_) jsonl_->flush();
}

std::uint64_t TimeseriesCollector::close_window() {
  return close_window_at(ticks_);
}

std::uint64_t TimeseriesCollector::close_window_at(std::uint64_t now_ticks) {
  if (registry_.generation() != seen_generation_) refresh_handles();
  TimeseriesWindow& w = ring_[closed_ % retain_];
  w.index = closed_;
  w.open_tick = open_tick_;
  w.close_tick = now_ticks;
  for (std::size_t i = 0; i < counter_handles_.size(); ++i) {
    const std::uint64_t now = counter_handles_[i]->value();
    const std::uint64_t prev = counter_last_[i];
    w.counter_deltas[i] = now >= prev ? now - prev : now;
    counter_last_[i] = now;
  }
  for (std::size_t i = 0; i < histogram_handles_.size(); ++i) {
    const HistogramSnapshot now = histogram_handles_[i]->snapshot();
    w.hist_deltas[i] = WindowHistogram::delta(now, histogram_last_[i]);
    histogram_last_[i] = now;
  }
  open_tick_ = now_ticks;
  ++closed_;
  if (interval_ != 0) next_close_ = now_ticks + interval_;
  if (jsonl_) emit_jsonl(w);
  return w.index;
}

void TimeseriesCollector::refresh_handles() {
  // Known metrics carry their previous snapshot across the refresh;
  // newly-seen metrics baseline at zero, so the window in which a metric
  // first appears reports its full cumulative value as the delta (nothing
  // recorded before the collector noticed it is ever swallowed).
  std::map<std::string, std::uint64_t> prev_counter;
  for (std::size_t i = 0; i < counter_names_.size(); ++i)
    prev_counter[counter_names_[i]] = counter_last_[i];
  std::map<std::string, HistogramSnapshot> prev_hist;
  for (std::size_t i = 0; i < histogram_names_.size(); ++i)
    prev_hist[histogram_names_[i]] = histogram_last_[i];

  auto counters = registry_.counter_handles();
  auto histograms = registry_.histogram_handles();
  counter_names_.clear();
  counter_handles_.clear();
  counter_last_.clear();
  for (auto& [name, handle] : counters) {
    counter_names_.push_back(name);
    counter_handles_.push_back(handle);
    const auto it = prev_counter.find(name);
    counter_last_.push_back(it == prev_counter.end() ? 0 : it->second);
  }
  histogram_names_.clear();
  histogram_handles_.clear();
  histogram_last_.clear();
  for (auto& [name, handle] : histograms) {
    histogram_names_.push_back(name);
    histogram_handles_.push_back(handle);
    const auto it = prev_hist.find(name);
    histogram_last_.push_back(it == prev_hist.end() ? HistogramSnapshot{}
                                                    : it->second);
  }
  // Pre-size every ring slot so steady-state closes write in place.
  for (TimeseriesWindow& w : ring_) {
    w.counter_deltas.assign(counter_handles_.size(), 0);
    w.hist_deltas.assign(histogram_handles_.size(), WindowHistogram{});
  }
  seen_generation_ = registry_.generation();
}

std::uint64_t TimeseriesCollector::windows_closed() const {
  return closed_;
}

std::vector<TimeseriesWindow> TimeseriesCollector::windows() const {
  std::vector<TimeseriesWindow> out;
  const std::uint64_t first = closed_ > retain_ ? closed_ - retain_ : 0;
  out.reserve(static_cast<std::size_t>(closed_ - first));
  for (std::uint64_t i = first; i < closed_; ++i)
    out.push_back(ring_[i % retain_]);
  return out;
}

std::vector<std::string> TimeseriesCollector::counter_names() const {
  return counter_names_;
}

std::vector<std::string> TimeseriesCollector::histogram_names() const {
  return histogram_names_;
}

namespace {

void write_window_jsonl(const TimeseriesWindow& w,
                        const std::vector<std::string>& counter_names,
                        const std::vector<std::string>& histogram_names,
                        std::ostream& os) {
  os << "{\"window\":" << w.index << ",\"open\":" << w.open_tick
     << ",\"close\":" << w.close_tick << ",\"counters\":{";
  bool first = true;
  for (std::size_t i = 0; i < w.counter_deltas.size(); ++i) {
    if (w.counter_deltas[i] == 0) continue;
    if (!first) os << ',';
    first = false;
    os << '"' << json_escape(counter_names[i]) << "\":" << w.counter_deltas[i];
  }
  os << "},\"hist\":{";
  first = true;
  for (std::size_t i = 0; i < w.hist_deltas.size(); ++i) {
    const WindowHistogram& h = w.hist_deltas[i];
    if (h.count == 0) continue;
    if (!first) os << ',';
    first = false;
    os << '"' << json_escape(histogram_names[i]) << "\":{\"count\":" << h.count
       << ",\"sum\":" << h.sum << ",\"min\":" << h.min << ",\"max\":" << h.max
       << ",\"p50\":" << h.percentile(50.0) << ",\"p99\":" << h.percentile(99.0)
       << ",\"p999\":" << h.percentile(99.9) << '}';
  }
  os << "}}\n";
}

}  // namespace

void TimeseriesCollector::emit_jsonl(const TimeseriesWindow& w) {
  write_window_jsonl(w, counter_names_, histogram_names_, *jsonl_);
  jsonl_->flush();  // lotec_top tails this file live
}

void TimeseriesCollector::write_jsonl(std::ostream& os) const {
  const std::uint64_t first = closed_ > retain_ ? closed_ - retain_ : 0;
  for (std::uint64_t i = first; i < closed_; ++i)
    write_window_jsonl(ring_[i % retain_], counter_names_, histogram_names_,
                       os);
}

void TimeseriesCollector::write_prometheus(
    std::ostream& os,
    const std::vector<std::pair<std::string, std::string>>& labels) const {
  write_prometheus_text(registry_.counters(), registry_.histograms(), labels,
                        os);
  if (closed_ == 0) return;
  const TimeseriesWindow& w = ring_[(closed_ - 1) % retain_];
  std::string suffix;
  {
    std::string acc;
    for (const auto& [k, v] : labels) {
      acc += ',';
      acc += k;
      acc += "=\"";
      acc += prom_escape_label(v);
      acc += '"';
    }
    suffix = acc;
  }
  os << "# TYPE lotec_window gauge\n"
     << "lotec_window{field=\"index\"" << suffix << "} " << w.index << '\n'
     << "lotec_window{field=\"open\"" << suffix << "} " << w.open_tick << '\n'
     << "lotec_window{field=\"close\"" << suffix << "} " << w.close_tick
     << '\n';
  os << "# TYPE lotec_window_delta gauge\n";
  for (std::size_t i = 0; i < w.counter_deltas.size(); ++i) {
    if (w.counter_deltas[i] == 0) continue;
    os << "lotec_window_delta{metric=\""
       << prom_escape_label(counter_names_[i]) << '"' << suffix << "} "
       << w.counter_deltas[i] << '\n';
  }
  os << "# TYPE lotec_window_latency gauge\n";
  for (std::size_t i = 0; i < w.hist_deltas.size(); ++i) {
    const WindowHistogram& h = w.hist_deltas[i];
    if (h.count == 0) continue;
    const std::string hist = prom_escape_label(histogram_names_[i]);
    os << "lotec_window_latency{hist=\"" << hist << "\",q=\"0.5\"" << suffix
       << "} " << h.percentile(50.0) << '\n'
       << "lotec_window_latency{hist=\"" << hist << "\",q=\"0.99\"" << suffix
       << "} " << h.percentile(99.0) << '\n'
       << "lotec_window_latency{hist=\"" << hist << "\",q=\"0.999\"" << suffix
       << "} " << h.percentile(99.9) << '\n';
  }
}

// --- Prometheus text helpers ---------------------------------------------

std::string prom_metric_name(std::string_view name) {
  std::string out;
  out.reserve(name.size() + 6);
  if (name.substr(0, 6) != "lotec_") out = "lotec_";
  for (const char c : name) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '_' || c == ':';
    out.push_back(ok ? c : '_');
  }
  return out;
}

std::string prom_escape_label(std::string_view value) {
  std::string out;
  out.reserve(value.size());
  for (const char c : value) {
    switch (c) {
      case '\\': out += "\\\\"; break;
      case '"': out += "\\\""; break;
      case '\n': out += "\\n"; break;
      default: out.push_back(c);
    }
  }
  return out;
}

namespace {

std::string label_block(
    const std::vector<std::pair<std::string, std::string>>& labels,
    std::string_view extra_key = {}, std::string_view extra_value = {}) {
  std::string out;
  bool first = true;
  auto add = [&](std::string_view k, std::string_view v) {
    out += first ? '{' : ',';
    first = false;
    // Keys go through the NAME sanitizer (label names share the metric
    // name's charset), values through the escaper.
    std::string key;
    for (const char c : k) {
      const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                      (c >= '0' && c <= '9') || c == '_';
      key.push_back(ok ? c : '_');
    }
    if (!key.empty() && key[0] >= '0' && key[0] <= '9') key.insert(0, "_");
    out += key;
    out += "=\"";
    out += prom_escape_label(v);
    out += '"';
  };
  for (const auto& [k, v] : labels) add(k, v);
  if (!extra_key.empty()) add(extra_key, extra_value);
  if (!first) out += '}';
  return out;
}

}  // namespace

void write_prometheus_text(
    const std::map<std::string, std::uint64_t>& counters,
    const std::map<std::string, HistogramSnapshot>& histograms,
    const std::vector<std::pair<std::string, std::string>>& labels,
    std::ostream& os) {
  const std::string plain = label_block(labels);
  for (const auto& [name, value] : counters) {
    const std::string family = prom_metric_name(name);
    // TYPE names the metric family; samples get the `_total` suffix (the
    // OpenMetrics counter convention).
    os << "# TYPE " << family << " counter\n"
       << family << "_total" << plain << ' ' << value << '\n';
  }
  for (const auto& [name, snap] : histograms) {
    const std::string metric = prom_metric_name(name);
    os << "# TYPE " << metric << " histogram\n";
    std::uint64_t cumulative = 0;
    std::size_t top = 0;
    for (std::size_t i = 0; i < HistogramSnapshot::kBuckets; ++i)
      if (snap.buckets[i] != 0) top = i;
    for (std::size_t i = 0; i <= top; ++i) {
      cumulative += snap.buckets[i];
      os << metric << "_bucket"
         << label_block(labels, "le",
                        std::to_string((std::uint64_t{2} << i) - 2))
         << ' ' << cumulative << '\n';
    }
    os << metric << "_bucket" << label_block(labels, "le", "+Inf") << ' '
       << snap.count << '\n'
       << metric << "_sum" << plain << ' ' << snap.sum << '\n'
       << metric << "_count" << plain << ' ' << snap.count << '\n';
  }
}

std::vector<PromSample> parse_prometheus_text(std::string_view text) {
  std::vector<PromSample> out;
  std::size_t pos = 0;
  int lineno = 0;
  auto fail = [&](const std::string& why) {
    throw Error("prometheus parse: line " + std::to_string(lineno) + ": " +
                why);
  };
  while (pos < text.size()) {
    ++lineno;
    const std::size_t eol = text.find('\n', pos);
    std::string_view line = text.substr(
        pos, eol == std::string_view::npos ? std::string_view::npos
                                           : eol - pos);
    pos = eol == std::string_view::npos ? text.size() : eol + 1;
    // Trim trailing CR / spaces.
    while (!line.empty() && (line.back() == '\r' || line.back() == ' '))
      line.remove_suffix(1);
    if (line.empty() || line.front() == '#') continue;

    PromSample s;
    std::size_t i = 0;
    while (i < line.size() && line[i] != '{' && line[i] != ' ') ++i;
    if (i == 0) fail("missing metric name");
    s.name = std::string(line.substr(0, i));
    for (const char c : s.name) {
      const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                      (c >= '0' && c <= '9') || c == '_' || c == ':';
      if (!ok) fail("bad character in metric name");
    }
    if (i < line.size() && line[i] == '{') {
      ++i;
      while (i < line.size() && line[i] != '}') {
        std::size_t eq = i;
        while (eq < line.size() && line[eq] != '=') ++eq;
        if (eq >= line.size()) fail("label without '='");
        std::string key(line.substr(i, eq - i));
        i = eq + 1;
        if (i >= line.size() || line[i] != '"') fail("unquoted label value");
        ++i;
        std::string value;
        while (i < line.size() && line[i] != '"') {
          if (line[i] == '\\' && i + 1 < line.size()) {
            ++i;
            if (line[i] == 'n')
              value.push_back('\n');
            else
              value.push_back(line[i]);
          } else {
            value.push_back(line[i]);
          }
          ++i;
        }
        if (i >= line.size()) fail("unterminated label value");
        ++i;  // closing quote
        s.labels.emplace_back(std::move(key), std::move(value));
        if (i < line.size() && line[i] == ',') ++i;
      }
      if (i >= line.size()) fail("unterminated label block");
      ++i;  // closing brace
    }
    while (i < line.size() && line[i] == ' ') ++i;
    if (i >= line.size()) fail("missing sample value");
    const std::string value_str(line.substr(i));
    if (value_str == "+Inf") {
      s.value = std::numeric_limits<double>::infinity();
    } else {
      char* end = nullptr;
      s.value = std::strtod(value_str.c_str(), &end);
      if (end == value_str.c_str() || *end != '\0')
        fail("bad sample value '" + value_str + "'");
    }
    out.push_back(std::move(s));
  }
  return out;
}

}  // namespace lotec
