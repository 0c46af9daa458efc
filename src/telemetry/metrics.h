#ifndef DAR_TELEMETRY_METRICS_H_
#define DAR_TELEMETRY_METRICS_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/mutex.h"

namespace dar {
namespace telemetry {

/// What a metric's value measures. Time-valued metrics (kSeconds) are
/// inherently run-dependent — JsonExporter can exclude them to produce the
/// *deterministic view* of a snapshot, which is bit-identical across thread
/// counts and repeated runs for a fixed seed/config (see json.h).
enum class Unit {
  kCount,    // monotonic event counts, sizes, cardinalities
  kSeconds,  // wall-clock durations (nondeterministic)
  kBytes,    // memory footprints
};

/// Stable lowercase name for `unit` ("count", "seconds", "bytes").
const char* UnitName(Unit unit);

class MetricsRegistry;

/// What the three metric kinds share: a unit, and whether the metric shows
/// in snapshots. MetricsRegistry::Reset zeroes a metric in place and hides
/// it; the next lookup or record shows it again. So a reset registry
/// snapshots empty while every handle it gave out stays valid.
class Metric {
 public:
  [[nodiscard]] Unit unit() const { return unit_; }

 protected:
  explicit Metric(Unit unit) : unit_(unit) {}
  void Show() { live_.store(true, std::memory_order_relaxed); }

 private:
  friend class MetricsRegistry;
  std::atomic<bool> live_{true};
  Unit unit_;
};

/// A monotonic event counter. Increment is wait-free (relaxed atomics) and
/// safe from any thread; the total is exact because increments commute.
class Counter : public Metric {
 public:
  explicit Counter(Unit unit) : Metric(unit) {}

  void Increment(int64_t delta = 1) {
    Show();
    value_.fetch_add(delta, std::memory_order_relaxed);
  }
  [[nodiscard]] int64_t value() const {
    return value_.load(std::memory_order_relaxed);
  }

 private:
  friend class MetricsRegistry;
  std::atomic<int64_t> value_{0};
};

/// A last-writer-wins instantaneous value (tree height, final threshold,
/// phase wall-time). Set/value are atomic but not read-modify-write; use a
/// Counter for anything accumulated concurrently.
class Gauge : public Metric {
 public:
  explicit Gauge(Unit unit) : Metric(unit) {}

  void Set(double value) {
    Show();
    value_.store(value, std::memory_order_relaxed);
  }
  [[nodiscard]] double value() const {
    return value_.load(std::memory_order_relaxed);
  }

 private:
  friend class MetricsRegistry;
  std::atomic<double> value_{0.0};
};

/// A fixed-bucket histogram: `bounds` are ascending inclusive upper bounds,
/// with an implicit overflow bucket at the end (counts.size() ==
/// bounds.size() + 1). Record is wait-free and thread-safe; bucket totals
/// are exact, `sum` is accumulated with atomic compare-exchange so the
/// total is a correct (order-dependent in the last ulps) float sum.
class Histogram : public Metric {
 public:
  Histogram(std::vector<double> bounds, Unit unit);

  void Record(double value);
  [[nodiscard]] const std::vector<double>& bounds() const { return bounds_; }
  [[nodiscard]] std::vector<int64_t> bucket_counts() const;
  [[nodiscard]] int64_t count() const {
    return count_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] double sum() const {
    return sum_.load(std::memory_order_relaxed);
  }

  /// Default latency buckets: 1us..10s, one decade per pair of buckets.
  static std::vector<double> LatencyBounds();

 private:
  friend class MetricsRegistry;
  void Zero();

  std::vector<double> bounds_;
  std::vector<std::unique_ptr<std::atomic<int64_t>>> buckets_;
  std::atomic<int64_t> count_{0};
  std::atomic<double> sum_{0.0};
};

/// A point-in-time copy of a registry's metrics, safe to keep after the
/// registry is gone. Maps are ordered by name, so iteration (and the JSON
/// export) is deterministic.
struct Snapshot {
  struct CounterValue {
    int64_t value = 0;
    Unit unit = Unit::kCount;
  };
  struct GaugeValue {
    double value = 0;
    Unit unit = Unit::kCount;
  };
  struct HistogramValue {
    std::vector<double> bounds;
    std::vector<int64_t> counts;  // bounds.size() + 1 entries
    int64_t count = 0;
    double sum = 0;
    Unit unit = Unit::kSeconds;
  };

  std::map<std::string, CounterValue> counters;
  std::map<std::string, GaugeValue> gauges;
  std::map<std::string, HistogramValue> histograms;

  /// Counter value by name, or 0 when absent (the view the legacy loose
  /// result counters are implemented with).
  [[nodiscard]] int64_t CounterOr(const std::string& name,
                                  int64_t fallback = 0) const;
  /// Gauge value by name, or `fallback` when absent.
  [[nodiscard]] double GaugeOr(const std::string& name,
                               double fallback = 0) const;
};

/// A named family of metrics for one mining run. Lookup registers on first
/// use and returns a stable pointer, valid for the registry's lifetime
/// (Reset zeroes metrics, it never deletes one); the returned handles are
/// the hot-path API, so phases resolve their metrics once and then record
/// lock-free.
///
/// Threading: Counter/Gauge/Histogram lookups take a reader/writer lock —
/// shared when the metric already exists (the common case), exclusive only
/// on a name's first registration — still, resolve handles once per phase,
/// not per event; the handles themselves are safe to use from any thread.
/// TakeSnapshot may run concurrently with recording and sees some
/// consistent recent value of every metric. A record racing Reset lands on
/// either side of it. The lock discipline is compile-checked
/// (common/mutex.h).
class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  /// Returns the counter named `name`, creating it with `unit` on first
  /// use. A later lookup with a different unit keeps the original.
  Counter* GetCounter(const std::string& name, Unit unit = Unit::kCount);
  Gauge* GetGauge(const std::string& name, Unit unit = Unit::kCount);
  /// `bounds` are inclusive ascending upper bounds; only consulted on the
  /// first lookup of `name`.
  Histogram* GetHistogram(const std::string& name, std::vector<double> bounds,
                          Unit unit = Unit::kSeconds);

  [[nodiscard]] Snapshot TakeSnapshot() const;

  /// Zeroes every metric in place and hides it from snapshots until it is
  /// looked up or recorded again. Previously returned handles stay valid.
  void Reset();

 private:
  mutable SharedMutex mu_;
  std::map<std::string, std::unique_ptr<Counter>> counters_
      DAR_GUARDED_BY(mu_);
  std::map<std::string, std::unique_ptr<Gauge>> gauges_ DAR_GUARDED_BY(mu_);
  std::map<std::string, std::unique_ptr<Histogram>> histograms_
      DAR_GUARDED_BY(mu_);
};

}  // namespace telemetry
}  // namespace dar

#endif  // DAR_TELEMETRY_METRICS_H_
