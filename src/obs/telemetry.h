#ifndef FUXI_OBS_TELEMETRY_H_
#define FUXI_OBS_TELEMETRY_H_

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "common/json.h"
#include "obs/audit.h"
#include "obs/metrics_registry.h"
#include "obs/trace.h"

namespace fuxi::obs {

struct TelemetryOptions {
  /// Master switch. When false the sampler never attaches to the
  /// simulator and Poll() returns immediately.
  bool enabled = true;
  /// Virtual seconds between samples. Sample k lands at exactly
  /// k * interval — never at "now", so two runs executing the same
  /// event sequence sample at identical virtual times.
  double interval = 1.0;
  /// Retained samples per series; older deltas fold into the base.
  size_t ring_capacity = 2048;
  /// Capture p50/p99 of every histogram as derived series.
  bool sample_histograms = true;
  /// HealthEvents retained by the watchdog before counting drops.
  size_t max_events = 512;
};

/// One fixed-cadence metric history: values are stored as fixed-point
/// (1e-6 resolution) *deltas* in a bounded ring, so a flat series costs
/// one small integer per tick and an hour-long campaign's history stays
/// compact. When the ring wraps, the oldest delta folds into `base`, so
/// the retained window always reconstructs exactly.
///
/// Ticks are integer sample indexes (time = tick * interval); a series
/// created mid-run starts at the tick that first saw it.
class TelemetrySeries {
 public:
  enum class Kind : uint8_t { kCounter, kGauge, kDerived, kPercentile };

  /// Fixed-point resolution. Values are quantized to 1e-6 — far below
  /// instrument noise, and exact for counters and integral gauges.
  static constexpr double kScale = 1e6;

  TelemetrySeries(Kind kind, size_t capacity, bool realtime)
      : kind_(kind), realtime_(realtime),
        deltas_(capacity > 0 ? capacity : 1) {}

  /// Appends the sample for `tick`. Ticks must be consecutive from the
  /// first appended tick (the sampler guarantees this).
  void Append(int64_t tick, double value);

  Kind kind() const { return kind_; }
  bool realtime() const { return realtime_; }
  size_t capacity() const { return deltas_.size(); }
  size_t size() const { return count_; }
  bool empty() const { return count_ == 0; }
  /// Tick index of the oldest retained sample.
  int64_t first_tick() const { return first_tick_; }
  /// Tick index of the newest retained sample (first_tick-1 when empty).
  int64_t last_tick() const {
    return first_tick_ + static_cast<int64_t>(count_) - 1;
  }
  /// Samples ever appended, including those evicted by ring wrap.
  uint64_t total_appended() const { return total_; }

  /// Newest value (0 when empty).
  double Latest() const {
    return count_ == 0 ? 0.0
                       : static_cast<double>(last_scaled_) / kScale;
  }

  /// Retained values, oldest first.
  std::vector<double> Values() const;

  /// Value at `tick`; false when outside the retained window.
  bool ValueAt(int64_t tick, double* out) const;

  /// Scaled value preceding the oldest retained delta (for export).
  int64_t base_scaled() const { return base_; }
  /// Retained deltas, oldest first (for export).
  std::vector<int64_t> DeltasInOrder() const;

 private:
  static int64_t ToScaled(double value);

  Kind kind_;
  bool realtime_;
  int64_t first_tick_ = 0;
  int64_t base_ = 0;         // scaled value just before deltas_[head_]
  int64_t last_scaled_ = 0;  // scaled newest value
  std::vector<int64_t> deltas_;
  size_t head_ = 0;  // ring index of the oldest delta
  size_t count_ = 0;
  uint64_t total_ = 0;
};

std::string_view TelemetrySeriesKindName(TelemetrySeries::Kind kind);

/// What shape of degradation an SloRule watches for.
enum class SloRuleKind : uint8_t {
  kThreshold,  ///< latest value crosses the threshold
  kRate,       ///< change per second over `window` crosses the threshold
  kSustained,  ///< value stays across the threshold for `window` seconds
};

std::string_view SloRuleKindName(SloRuleKind kind);

/// One declarative SLO rule evaluated at every telemetry sample.
struct SloRule {
  std::string name;    ///< stable identifier ("demand-starvation", ...)
  std::string series;  ///< telemetry series the rule watches
  SloRuleKind kind = SloRuleKind::kThreshold;
  double threshold = 0;
  /// true: breach when value/rate >= threshold; false: when <=.
  bool above = true;
  /// kRate: rate lookback window; kSustained: required breach duration.
  double window = 0;
  /// Minimum virtual seconds between consecutive firings of this rule.
  double cooldown = 30.0;
  std::string detail;  ///< human-readable "what this means"
};

/// A rule firing: structured, timestamped in virtual seconds, carried
/// in telemetry dumps and (as a kHealth audit record plus a "health"
/// span) in the flight recorder — visible in every failure dump even
/// when the campaign later dies for a different reason.
struct HealthEvent {
  double time = 0;
  std::string rule;
  std::string series;
  double value = 0;
  double threshold = 0;
  std::string detail;
};

/// Samples every MetricsRegistry instrument into TelemetrySeries at a
/// fixed virtual-time cadence, plus caller-registered derived probes
/// and counter rates. Strictly observational: sampling reads
/// instruments through const paths only (histogram percentiles via
/// PercentilesSnapshot, which never reorders the reservoir), so a
/// sampler attached or detached can never change simulation state,
/// replay digests, or end-of-run metric exports.
class TelemetrySampler {
 public:
  TelemetrySampler(MetricsRegistry* metrics,
                   const TelemetryOptions& options = {})
      : metrics_(metrics), options_(options) {}

  /// TelemetryOptions::enabled: false means the sampler is detached.
  bool active() const { return options_.enabled; }
  const TelemetryOptions& options() const { return options_; }
  double interval() const { return options_.interval; }

  /// Registers a derived series computed by calling `probe` at every
  /// sample (per-shard imbalance, overcommit units, ...). The probe
  /// must be a pure read of simulation state.
  void AddProbe(const std::string& name, std::function<double()> probe) {
    probes_.emplace_back(name, std::move(probe));
  }

  /// Emits `<counter>.rate` — the per-second delta of a counter over
  /// the sampling interval (decode-drop spikes, grant churn).
  void AddRate(const std::string& counter_name) {
    rates_.emplace_back(counter_name, 0);
  }

  /// Invoked after every sample tick with the tick's virtual time; the
  /// SLO watchdog subscribes here.
  void SetOnSample(std::function<void(double)> on_sample) {
    on_sample_ = std::move(on_sample);
  }

  /// Catches the sampler up to virtual time `now`: every tick with
  /// time <= now that has not been sampled yet is sampled, in order.
  /// Driven from a simulator post-event observer, so sample k reflects
  /// the state after the first executed event whose time reaches
  /// k * interval — a deterministic function of the event sequence.
  void Poll(double now) {
    if (!options_.enabled || metrics_ == nullptr) return;
    while (static_cast<double>(next_tick_) * options_.interval <= now) {
      SampleTick(next_tick_);
      ++next_tick_;
    }
  }

  /// Ticks sampled so far.
  int64_t samples_taken() const { return next_tick_; }
  double TickTime(int64_t tick) const {
    return static_cast<double>(tick) * options_.interval;
  }

  const TelemetrySeries* series(const std::string& name) const {
    auto it = series_.find(name);
    return it == series_.end() ? nullptr : &it->second;
  }
  const std::map<std::string, TelemetrySeries>& all_series() const {
    return series_;
  }

 private:
  void SampleTick(int64_t tick);
  TelemetrySeries& Slot(const std::string& name, TelemetrySeries::Kind kind,
                        bool realtime);

  struct HistCache {
    uint64_t count = 0;
    double p50 = 0;
    double p99 = 0;
  };

  MetricsRegistry* metrics_;
  TelemetryOptions options_;
  int64_t next_tick_ = 0;
  uint64_t total_rate_samples_ = 0;
  std::map<std::string, TelemetrySeries> series_;
  std::vector<std::pair<std::string, std::function<double()>>> probes_;
  std::vector<std::pair<std::string, uint64_t>> rates_;  // name, last value
  std::map<std::string, HistCache> hist_cache_;
  std::function<void(double)> on_sample_;
};

/// Evaluates declarative SLO rules against the sampler's series at
/// every tick and raises HealthEvents while the run is still going —
/// degradation becomes visible *before* an invariant trips. Strictly
/// observational like the sampler.
class SloWatchdog {
 public:
  SloWatchdog(TraceRecorder* trace, AuditLog* audit, size_t max_events = 512)
      : trace_(trace), audit_(audit), max_events_(max_events) {}

  void AddRule(const SloRule& rule) {
    rules_.push_back(rule);
    states_.push_back(RuleState{});
  }
  size_t rule_count() const { return rules_.size(); }

  /// Runs every rule against the sampler's current series; `now` is the
  /// sample tick's virtual time.
  void Evaluate(const TelemetrySampler& sampler, double now);

  const std::vector<HealthEvent>& events() const { return events_; }
  uint64_t events_dropped() const { return events_dropped_; }

  void Clear() {
    events_.clear();
    events_dropped_ = 0;
    for (RuleState& s : states_) s = RuleState{};
  }

 private:
  struct RuleState {
    double last_fire = -1e300;
    /// First tick time of the current uninterrupted breach (kSustained);
    /// NaN-free sentinel: < 0 means "not currently breaching".
    double breach_since = -1;
  };

  void Fire(const SloRule& rule, double now, double value);

  TraceRecorder* trace_;
  AuditLog* audit_;
  size_t max_events_;
  // deque: SpanRecords intern rule.name.c_str(), which must stay stable
  // across AddRule growth.
  std::deque<SloRule> rules_;
  std::vector<RuleState> states_;
  std::vector<HealthEvent> events_;
  uint64_t events_dropped_ = 0;
};

// --- export / import ---------------------------------------------------

/// The whole sampler state — every series delta-encoded, plus the
/// watchdog's event log — as one JSON document with sorted series.
/// `include_realtime=false` drops realtime-tagged series (and derived
/// percentile series of realtime histograms): what remains must be
/// byte-identical across --jobs values and repeat runs of a seed.
Json TelemetryJson(const TelemetrySampler& sampler, const SloWatchdog& watchdog,
                   bool include_realtime = true);
std::string ExportTelemetryJson(const TelemetrySampler& sampler,
                                const SloWatchdog& watchdog,
                                bool include_realtime = true);

/// A parsed telemetry dump with series decoded back to plain values —
/// what `fuxi dash` and the tests consume.
struct TelemetryDump {
  struct Series {
    std::string name;
    std::string kind;
    bool realtime = false;
    int64_t first_tick = 0;
    uint64_t total = 0;
    std::vector<double> values;  ///< decoded, oldest first
  };

  double interval = 0;
  int64_t samples = 0;
  std::vector<Series> series;
  std::vector<HealthEvent> events;
  uint64_t events_dropped = 0;

  const Series* Find(const std::string& name) const;
};

/// Parses a document produced by TelemetryJson (tolerant of absent
/// optional fields). Returns an empty dump for non-telemetry documents.
TelemetryDump TelemetryDumpFromJson(const Json& doc);

}  // namespace fuxi::obs

#endif  // FUXI_OBS_TELEMETRY_H_
