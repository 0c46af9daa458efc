#ifndef DAR_TELEMETRY_TRACE_H_
#define DAR_TELEMETRY_TRACE_H_

#include "common/stopwatch.h"
#include "telemetry/metrics.h"

namespace dar {
namespace telemetry {

/// RAII span: owns its own Stopwatch (so concurrent spans never share
/// timer state, see the Stopwatch thread-safety note) and records the
/// elapsed seconds into a Histogram and/or Gauge when it goes out of
/// scope. Either sink may be null; a span with no sinks is free except
/// for the clock read.
///
///   {
///     TraceSpan span(registry->GetHistogram(
///         "phase2.shard_seconds", Histogram::LatencyBounds()));
///     ... work ...
///   }  // records here
class TraceSpan {
 public:
  explicit TraceSpan(Histogram* histogram, Gauge* gauge = nullptr)
      : histogram_(histogram), gauge_(gauge) {}
  TraceSpan(const TraceSpan&) = delete;
  TraceSpan& operator=(const TraceSpan&) = delete;

  ~TraceSpan() {
    const double seconds = watch_.ElapsedSeconds();
    if (histogram_ != nullptr) histogram_->Record(seconds);
    if (gauge_ != nullptr) gauge_->Set(seconds);
  }

  /// Seconds elapsed so far, without ending the span.
  [[nodiscard]] double ElapsedSeconds() const {
    return watch_.ElapsedSeconds();
  }

 private:
  Stopwatch watch_;
  Histogram* histogram_;
  Gauge* gauge_;
};

}  // namespace telemetry
}  // namespace dar

#endif  // DAR_TELEMETRY_TRACE_H_
