// Metrics registry: named counters, gauges and fixed-bucket histograms
// shared by every instrumented layer (net traffic, protocol state, trainer
// progress). Registration (find-or-create by name) takes a mutex and is the
// cold path; instruments hand out stable references so the hot path is a
// single relaxed atomic op. Snapshots render into exp::table / CSV through
// exp::metrics_table and the --metrics bench flag (exp/observe.h).
//
// Determinism note: metric *registration order* and *values* are pure
// functions of the computation (relaxed atomics only relax ordering between
// distinct metrics, never the per-metric totals), so snapshots of a
// deterministic run are identical at any thread count.
#pragma once

#include <atomic>
#include <cstdint>
#include <deque>
#include <mutex>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

namespace dolbie::obs {

/// Monotone event count (messages sent, rounds played, renormalizations).
class counter {
 public:
  void add(std::uint64_t delta = 1) {
    v_.fetch_add(delta, std::memory_order_relaxed);
  }
  std::uint64_t value() const { return v_.load(std::memory_order_relaxed); }
  void reset() { v_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<std::uint64_t> v_{0};
};

/// Last-written scalar (current step size, straggler id, train loss).
class gauge {
 public:
  void set(double v) { v_.store(v, std::memory_order_relaxed); }
  double value() const { return v_.load(std::memory_order_relaxed); }
  void reset() { v_.store(0.0, std::memory_order_relaxed); }

 private:
  std::atomic<double> v_{0.0};
};

/// Fixed-bucket histogram with upper-inclusive bounds: observe(v) lands in
/// the first bucket whose bound is >= v, or the implicit overflow bucket.
/// Bounds are fixed at registration so recording is lock-free.
class histogram {
 public:
  /// `upper_bounds` must be strictly increasing (may be empty: everything
  /// lands in the overflow bucket but count/sum still accumulate).
  explicit histogram(std::vector<double> upper_bounds);

  histogram(const histogram&) = delete;
  histogram& operator=(const histogram&) = delete;

  void observe(double v);

  std::uint64_t count() const { return count_.load(std::memory_order_relaxed); }
  double sum() const { return sum_.load(std::memory_order_relaxed); }
  const std::vector<double>& bounds() const { return bounds_; }
  /// Count of bucket `i` in [0, bounds().size()]; the last is the overflow.
  std::uint64_t bucket_count(std::size_t i) const;
  void reset();

 private:
  std::vector<double> bounds_;
  std::vector<std::atomic<std::uint64_t>> buckets_;  // bounds + overflow
  std::atomic<std::uint64_t> count_{0};
  std::atomic<double> sum_{0.0};
};

/// One formatted row of a registry snapshot.
struct metric_row {
  std::string name;
  std::string type;   ///< "counter" | "gauge" | "histogram"
  std::string value;  ///< formatted value (histograms: count/sum/buckets)
};

enum class metric_kind { counter, gauge, histogram };

/// One typed instrument sample — the machine-readable counterpart of
/// metric_row, consumed by exporters (obs/export.h Prometheus exposition)
/// that need values, not formatted strings.
struct metric_sample {
  std::string name;
  metric_kind kind = metric_kind::counter;
  std::uint64_t count = 0;            ///< counter value / histogram count
  double value = 0.0;                 ///< gauge value / histogram sum
  std::vector<double> bounds;         ///< histogram upper bounds
  std::vector<std::uint64_t> buckets; ///< per-bucket counts + overflow slot
};

/// Thread-safe find-or-create registry of named instruments. References
/// returned by the *_named getters are stable for the registry's lifetime
/// (deque storage, entries are never erased) — cache them at setup time and
/// record through the cached reference on the hot path. Name lookup is a
/// hash-map probe, so registering k instruments costs O(k), not O(k^2).
class metrics_registry {
 public:
  metrics_registry() = default;
  metrics_registry(const metrics_registry&) = delete;
  metrics_registry& operator=(const metrics_registry&) = delete;

  counter& counter_named(std::string_view name);
  gauge& gauge_named(std::string_view name);
  /// `upper_bounds` is consulted only when the histogram is first created.
  histogram& histogram_named(std::string_view name,
                             std::vector<double> upper_bounds = {});

  /// All instruments, sorted by name (deterministic render order).
  std::vector<metric_row> snapshot() const;

  /// Typed samples of every instrument, sorted by name. Exporters render
  /// from this; snapshot() formats the same data for tables.
  std::vector<metric_sample> samples() const;

  /// Zero every instrument, keeping the registrations (and thus the cached
  /// references) intact.
  void reset();

  bool empty() const;

 private:
  struct named_counter {
    std::string name;
    counter value;
    explicit named_counter(std::string n) : name(std::move(n)) {}
  };
  struct named_gauge {
    std::string name;
    gauge value;
    explicit named_gauge(std::string n) : name(std::move(n)) {}
  };
  struct named_histogram {
    std::string name;
    histogram value;
    named_histogram(std::string n, std::vector<double> bounds)
        : name(std::move(n)), value(std::move(bounds)) {}
  };

  mutable std::mutex mu_;
  std::deque<named_counter> counters_;
  std::deque<named_gauge> gauges_;
  std::deque<named_histogram> histograms_;
  // Name -> instrument, one index per kind. Keys view the names stored in
  // the deques above, which never move or change once registered.
  std::unordered_map<std::string_view, counter*> counter_index_;
  std::unordered_map<std::string_view, gauge*> gauge_index_;
  std::unordered_map<std::string_view, histogram*> histogram_index_;
};

/// Default bucket bounds for round-latency histograms (seconds, the range
/// the simulated clusters produce).
std::vector<double> latency_buckets();

}  // namespace dolbie::obs
