#include "obs/metrics.h"

#include <algorithm>
#include <cstdio>

#include "common/error.h"

namespace dolbie::obs {
namespace {

std::string format_value(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.6g", v);
  return buf;
}

}  // namespace

histogram::histogram(std::vector<double> upper_bounds)
    : bounds_(std::move(upper_bounds)), buckets_(bounds_.size() + 1) {
  for (std::size_t i = 1; i < bounds_.size(); ++i) {
    DOLBIE_REQUIRE(bounds_[i - 1] < bounds_[i],
                   "histogram bounds must be strictly increasing: bound "
                       << i << " (" << bounds_[i] << ") <= bound " << i - 1
                       << " (" << bounds_[i - 1] << ")");
  }
}

void histogram::observe(double v) {
  const auto it = std::lower_bound(bounds_.begin(), bounds_.end(), v);
  buckets_[static_cast<std::size_t>(it - bounds_.begin())].fetch_add(
      1, std::memory_order_relaxed);
  count_.fetch_add(1, std::memory_order_relaxed);
  sum_.fetch_add(v, std::memory_order_relaxed);
}

std::uint64_t histogram::bucket_count(std::size_t i) const {
  DOLBIE_REQUIRE(i < buckets_.size(),
                 "bucket " << i << " out of range for " << buckets_.size()
                           << " buckets");
  return buckets_[i].load(std::memory_order_relaxed);
}

void histogram::reset() {
  for (auto& b : buckets_) b.store(0, std::memory_order_relaxed);
  count_.store(0, std::memory_order_relaxed);
  sum_.store(0.0, std::memory_order_relaxed);
}

counter& metrics_registry::counter_named(std::string_view name) {
  std::lock_guard<std::mutex> lock(mu_);
  if (const auto it = counter_index_.find(name); it != counter_index_.end()) {
    return *it->second;
  }
  named_counter& c = counters_.emplace_back(std::string(name));
  counter_index_.emplace(c.name, &c.value);
  return c.value;
}

gauge& metrics_registry::gauge_named(std::string_view name) {
  std::lock_guard<std::mutex> lock(mu_);
  if (const auto it = gauge_index_.find(name); it != gauge_index_.end()) {
    return *it->second;
  }
  named_gauge& g = gauges_.emplace_back(std::string(name));
  gauge_index_.emplace(g.name, &g.value);
  return g.value;
}

histogram& metrics_registry::histogram_named(std::string_view name,
                                             std::vector<double> upper_bounds) {
  std::lock_guard<std::mutex> lock(mu_);
  if (const auto it = histogram_index_.find(name);
      it != histogram_index_.end()) {
    return *it->second;
  }
  named_histogram& h =
      histograms_.emplace_back(std::string(name), std::move(upper_bounds));
  histogram_index_.emplace(h.name, &h.value);
  return h.value;
}

std::vector<metric_row> metrics_registry::snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<metric_row> rows;
  rows.reserve(counters_.size() + gauges_.size() + histograms_.size());
  for (const named_counter& c : counters_) {
    rows.push_back({c.name, "counter", std::to_string(c.value.value())});
  }
  for (const named_gauge& g : gauges_) {
    rows.push_back({g.name, "gauge", format_value(g.value.value())});
  }
  for (const named_histogram& h : histograms_) {
    std::string v = "count=" + std::to_string(h.value.count()) +
                    " sum=" + format_value(h.value.sum());
    for (std::size_t i = 0; i < h.value.bounds().size(); ++i) {
      v += " le" + format_value(h.value.bounds()[i]) + "=" +
           std::to_string(h.value.bucket_count(i));
    }
    v += " inf=" +
         std::to_string(h.value.bucket_count(h.value.bounds().size()));
    rows.push_back({h.name, "histogram", std::move(v)});
  }
  std::sort(rows.begin(), rows.end(),
            [](const metric_row& a, const metric_row& b) {
              return a.name < b.name;
            });
  return rows;
}

std::vector<metric_sample> metrics_registry::samples() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<metric_sample> out;
  out.reserve(counters_.size() + gauges_.size() + histograms_.size());
  for (const named_counter& c : counters_) {
    metric_sample s;
    s.name = c.name;
    s.kind = metric_kind::counter;
    s.count = c.value.value();
    out.push_back(std::move(s));
  }
  for (const named_gauge& g : gauges_) {
    metric_sample s;
    s.name = g.name;
    s.kind = metric_kind::gauge;
    s.value = g.value.value();
    out.push_back(std::move(s));
  }
  for (const named_histogram& h : histograms_) {
    metric_sample s;
    s.name = h.name;
    s.kind = metric_kind::histogram;
    s.count = h.value.count();
    s.value = h.value.sum();
    s.bounds = h.value.bounds();
    s.buckets.reserve(s.bounds.size() + 1);
    for (std::size_t i = 0; i <= s.bounds.size(); ++i) {
      s.buckets.push_back(h.value.bucket_count(i));
    }
    out.push_back(std::move(s));
  }
  std::sort(out.begin(), out.end(),
            [](const metric_sample& a, const metric_sample& b) {
              return a.name < b.name;
            });
  return out;
}

void metrics_registry::reset() {
  std::lock_guard<std::mutex> lock(mu_);
  for (named_counter& c : counters_) c.value.reset();
  for (named_gauge& g : gauges_) g.value.reset();
  for (named_histogram& h : histograms_) h.value.reset();
}

bool metrics_registry::empty() const {
  std::lock_guard<std::mutex> lock(mu_);
  return counters_.empty() && gauges_.empty() && histograms_.empty();
}

std::vector<double> latency_buckets() {
  return {0.25, 0.5, 1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0};
}

}  // namespace dolbie::obs
