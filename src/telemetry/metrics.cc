#include "telemetry/metrics.h"

#include <algorithm>
#include <cmath>

#include "common/logging.h"

namespace dar {
namespace telemetry {

const char* UnitName(Unit unit) {
  switch (unit) {
    case Unit::kCount:
      return "count";
    case Unit::kSeconds:
      return "seconds";
    case Unit::kBytes:
      return "bytes";
  }
  return "count";
}

Histogram::Histogram(std::vector<double> bounds, Unit unit)
    : Metric(unit), bounds_(std::move(bounds)) {
  DAR_CHECK(std::is_sorted(bounds_.begin(), bounds_.end()))
      << "histogram bucket bounds must be ascending";
  buckets_.reserve(bounds_.size() + 1);
  for (size_t i = 0; i < bounds_.size() + 1; ++i) {
    buckets_.push_back(std::make_unique<std::atomic<int64_t>>(0));
  }
}

void Histogram::Record(double value) {
  Show();
  // First bucket whose inclusive upper bound admits `value`; everything
  // above the last bound lands in the overflow bucket.
  const size_t idx = static_cast<size_t>(
      std::lower_bound(bounds_.begin(), bounds_.end(), value) -
      bounds_.begin());
  buckets_[idx]->fetch_add(1, std::memory_order_relaxed);
  count_.fetch_add(1, std::memory_order_relaxed);
  double expected = sum_.load(std::memory_order_relaxed);
  while (!sum_.compare_exchange_weak(expected, expected + value,
                                     std::memory_order_relaxed)) {
  }
}

void Histogram::Zero() {
  for (auto& b : buckets_) b->store(0, std::memory_order_relaxed);
  count_.store(0, std::memory_order_relaxed);
  sum_.store(0.0, std::memory_order_relaxed);
}

std::vector<int64_t> Histogram::bucket_counts() const {
  std::vector<int64_t> out;
  out.reserve(buckets_.size());
  for (const auto& b : buckets_) {
    out.push_back(b->load(std::memory_order_relaxed));
  }
  return out;
}

std::vector<double> Histogram::LatencyBounds() {
  // Half-decade steps from 1us to 10s: 1e-6, ~3.16e-6, 1e-5, ... 10.
  std::vector<double> bounds;
  for (int decade = -6; decade <= 0; ++decade) {
    const double base = std::pow(10.0, decade);
    bounds.push_back(base);
    bounds.push_back(base * 3.1622776601683795);  // sqrt(10)
  }
  bounds.push_back(10.0);
  return bounds;
}

int64_t Snapshot::CounterOr(const std::string& name, int64_t fallback) const {
  const auto it = counters.find(name);
  return it == counters.end() ? fallback : it->second.value;
}

double Snapshot::GaugeOr(const std::string& name, double fallback) const {
  const auto it = gauges.find(name);
  return it == gauges.end() ? fallback : it->second.value;
}

// The Get* lookups are double-checked: a shared lock covers the common
// case (the metric already exists — every lookup after a phase's first),
// and only a miss upgrades to the exclusive lock to register the name.
// Handles are stable unique_ptr targets, so a pointer found under the
// shared lock stays valid after it is dropped. A lookup shows a metric
// that Reset hid.

Counter* MetricsRegistry::GetCounter(const std::string& name, Unit unit) {
  {
    const ReaderLock lock(mu_);
    const auto it = counters_.find(name);
    if (it != counters_.end()) {
      it->second->Show();
      return it->second.get();
    }
  }
  const WriterLock lock(mu_);
  auto& slot = counters_[name];
  if (slot == nullptr) slot = std::make_unique<Counter>(unit);
  return slot.get();
}

Gauge* MetricsRegistry::GetGauge(const std::string& name, Unit unit) {
  {
    const ReaderLock lock(mu_);
    const auto it = gauges_.find(name);
    if (it != gauges_.end()) {
      it->second->Show();
      return it->second.get();
    }
  }
  const WriterLock lock(mu_);
  auto& slot = gauges_[name];
  if (slot == nullptr) slot = std::make_unique<Gauge>(unit);
  return slot.get();
}

Histogram* MetricsRegistry::GetHistogram(const std::string& name,
                                         std::vector<double> bounds,
                                         Unit unit) {
  {
    const ReaderLock lock(mu_);
    const auto it = histograms_.find(name);
    if (it != histograms_.end()) {
      it->second->Show();
      return it->second.get();
    }
  }
  const WriterLock lock(mu_);
  auto& slot = histograms_[name];
  if (slot == nullptr) {
    slot = std::make_unique<Histogram>(std::move(bounds), unit);
  }
  return slot.get();
}

Snapshot MetricsRegistry::TakeSnapshot() const {
  // Shared suffices: the maps are only read; the metric values themselves
  // are atomics the owners keep updating concurrently.
  const ReaderLock lock(mu_);
  Snapshot snap;
  for (const auto& [name, counter] : counters_) {
    if (!counter->live_.load(std::memory_order_relaxed)) continue;
    snap.counters[name] = {counter->value(), counter->unit()};
  }
  for (const auto& [name, gauge] : gauges_) {
    if (!gauge->live_.load(std::memory_order_relaxed)) continue;
    snap.gauges[name] = {gauge->value(), gauge->unit()};
  }
  for (const auto& [name, hist] : histograms_) {
    if (!hist->live_.load(std::memory_order_relaxed)) continue;
    Snapshot::HistogramValue value;
    value.bounds = hist->bounds();
    value.counts = hist->bucket_counts();
    value.count = hist->count();
    value.sum = hist->sum();
    value.unit = hist->unit();
    snap.histograms[name] = std::move(value);
  }
  return snap;
}

void MetricsRegistry::Reset() {
  const WriterLock lock(mu_);
  for (auto& [name, counter] : counters_) {
    counter->value_.store(0, std::memory_order_relaxed);
    counter->live_.store(false, std::memory_order_relaxed);
  }
  for (auto& [name, gauge] : gauges_) {
    gauge->value_.store(0.0, std::memory_order_relaxed);
    gauge->live_.store(false, std::memory_order_relaxed);
  }
  for (auto& [name, hist] : histograms_) {
    hist->Zero();
    hist->live_.store(false, std::memory_order_relaxed);
  }
}

}  // namespace telemetry
}  // namespace dar
