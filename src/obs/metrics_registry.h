#ifndef FUXI_OBS_METRICS_REGISTRY_H_
#define FUXI_OBS_METRICS_REGISTRY_H_

#include <cstdint>
#include <map>
#include <memory>
#include <set>
#include <string>

#include "common/metrics.h"

namespace fuxi::obs {

/// Monotonically increasing event count.
class Counter {
 public:
  void Add(uint64_t n = 1) { value_ += n; }
  uint64_t value() const { return value_; }
  void Reset() { value_ = 0; }

 private:
  uint64_t value_ = 0;
};

/// Point-in-time level (queue depth, running processes, ...).
class Gauge {
 public:
  void Set(double v) { value_ = v; }
  void Add(double delta) { value_ += delta; }
  double value() const { return value_; }

 private:
  double value_ = 0;
};

/// Named instruments for the whole cluster. Get*() returns a stable
/// pointer (instruments never move or disappear), so hot paths resolve
/// a name once at wiring time and afterwards touch only the instrument
/// — no map lookup, no string hashing per event.
///
/// Backed by std::map so every export iterates in sorted name order —
/// deterministic output for golden files and replay comparison. Time
/// series of these instruments come from obs::TelemetrySampler.
class MetricsRegistry {
 public:
  Counter* GetCounter(const std::string& name);
  Gauge* GetGauge(const std::string& name);
  /// Histograms default to the capped reservoir buffer (see
  /// Histogram::SetSampleCap) so long campaigns stay bounded.
  Histogram* GetHistogram(const std::string& name);

  /// Tags an instrument as carrying *real* wall-clock measurements
  /// (e.g. master.schedule_wall_us). Realtime instruments legitimately
  /// differ between byte-identical simulation runs, so every replay /
  /// determinism comparison filters on this attribute instead of
  /// hand-maintained name lists; exports carry it as a column.
  void MarkRealtime(const std::string& name) { realtime_.insert(name); }
  bool is_realtime(const std::string& name) const {
    return realtime_.count(name) != 0;
  }

  const std::map<std::string, std::unique_ptr<Counter>>& counters() const {
    return counters_;
  }
  const std::map<std::string, std::unique_ptr<Gauge>>& gauges() const {
    return gauges_;
  }
  const std::map<std::string, std::unique_ptr<Histogram>>& histograms()
      const {
    return histograms_;
  }

 private:
  std::map<std::string, std::unique_ptr<Counter>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>> gauges_;
  std::map<std::string, std::unique_ptr<Histogram>> histograms_;
  std::set<std::string> realtime_;
};

}  // namespace fuxi::obs

#endif  // FUXI_OBS_METRICS_REGISTRY_H_
