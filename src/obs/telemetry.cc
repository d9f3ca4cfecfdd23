#include "obs/telemetry.h"

#include <cmath>

#include "common/strings.h"

namespace fuxi::obs {

namespace {

constexpr std::string_view kSeriesKindNames[] = {
    "counter", "gauge", "derived", "percentile"};

constexpr std::string_view kRuleKindNames[] = {
    "threshold", "rate", "sustained"};

/// Largest magnitude a scaled sample may take. Chosen so scaled values
/// survive a JSON round trip exactly (Json numbers are doubles; every
/// integer up to 2^52 is representable): instruments up to ~4.5e9 keep
/// full 1e-6 resolution, larger ones saturate instead of corrupting.
constexpr double kScaledLimit = 4.5e15;

}  // namespace

std::string_view TelemetrySeriesKindName(TelemetrySeries::Kind kind) {
  return kSeriesKindNames[static_cast<size_t>(kind)];
}

std::string_view SloRuleKindName(SloRuleKind kind) {
  return kRuleKindNames[static_cast<size_t>(kind)];
}

int64_t TelemetrySeries::ToScaled(double value) {
  double scaled = value * kScale;
  if (std::isnan(scaled)) return 0;
  if (scaled >= kScaledLimit) return static_cast<int64_t>(kScaledLimit);
  if (scaled <= -kScaledLimit) return -static_cast<int64_t>(kScaledLimit);
  return static_cast<int64_t>(std::llround(scaled));
}

void TelemetrySeries::Append(int64_t tick, double value) {
  int64_t scaled = ToScaled(value);
  int64_t delta = scaled - last_scaled_;
  last_scaled_ = scaled;
  if (count_ == 0) first_tick_ = tick;
  if (count_ < deltas_.size()) {
    deltas_[(head_ + count_) % deltas_.size()] = delta;
    ++count_;
  } else {
    // Ring full: fold the oldest delta into the base and reuse its
    // slot for the newest — the retained window slides forward by one.
    base_ += deltas_[head_];
    deltas_[head_] = delta;
    head_ = (head_ + 1) % deltas_.size();
    ++first_tick_;
  }
  ++total_;
}

std::vector<double> TelemetrySeries::Values() const {
  std::vector<double> out;
  out.reserve(count_);
  int64_t acc = base_;
  for (size_t i = 0; i < count_; ++i) {
    acc += deltas_[(head_ + i) % deltas_.size()];
    out.push_back(static_cast<double>(acc) / kScale);
  }
  return out;
}

bool TelemetrySeries::ValueAt(int64_t tick, double* out) const {
  if (count_ == 0 || tick < first_tick_ || tick > last_tick()) return false;
  size_t steps = static_cast<size_t>(tick - first_tick_);
  int64_t acc = base_;
  for (size_t i = 0; i <= steps; ++i) {
    acc += deltas_[(head_ + i) % deltas_.size()];
  }
  *out = static_cast<double>(acc) / kScale;
  return true;
}

std::vector<int64_t> TelemetrySeries::DeltasInOrder() const {
  std::vector<int64_t> out;
  out.reserve(count_);
  for (size_t i = 0; i < count_; ++i) {
    out.push_back(deltas_[(head_ + i) % deltas_.size()]);
  }
  return out;
}

TelemetrySeries& TelemetrySampler::Slot(const std::string& name,
                                        TelemetrySeries::Kind kind,
                                        bool realtime) {
  auto it = series_.find(name);
  if (it == series_.end()) {
    it = series_
             .emplace(name, TelemetrySeries(kind, options_.ring_capacity,
                                            realtime))
             .first;
  }
  return it->second;
}

void TelemetrySampler::SampleTick(int64_t tick) {
  for (const auto& [name, counter] : metrics_->counters()) {
    Slot(name, TelemetrySeries::Kind::kCounter, metrics_->is_realtime(name))
        .Append(tick, static_cast<double>(counter->value()));
  }
  for (const auto& [name, gauge] : metrics_->gauges()) {
    Slot(name, TelemetrySeries::Kind::kGauge, metrics_->is_realtime(name))
        .Append(tick, gauge->value());
  }
  if (options_.sample_histograms) {
    for (const auto& [name, histogram] : metrics_->histograms()) {
      HistCache& cache = hist_cache_[name];
      if (histogram->count() != cache.count) {
        // PercentilesSnapshot copies the reservoir before sorting, so
        // mid-run queries cannot perturb end-of-run percentiles (the
        // sampler-on/off identity contract).
        std::vector<double> ps =
            histogram->PercentilesSnapshot({50.0, 99.0});
        cache.count = histogram->count();
        cache.p50 = ps[0];
        cache.p99 = ps[1];
      }
      bool realtime = metrics_->is_realtime(name);
      Slot(name + ".p50", TelemetrySeries::Kind::kPercentile, realtime)
          .Append(tick, cache.p50);
      Slot(name + ".p99", TelemetrySeries::Kind::kPercentile, realtime)
          .Append(tick, cache.p99);
    }
  }
  for (const auto& [name, probe] : probes_) {
    Slot(name, TelemetrySeries::Kind::kDerived, false)
        .Append(tick, probe());
  }
  for (auto& [name, last] : rates_) {
    auto it = metrics_->counters().find(name);
    uint64_t current = it == metrics_->counters().end()
                           ? 0
                           : it->second->value();
    // First sample has no baseline: report zero rather than the whole
    // warmup accumulation as one spike.
    double rate = total_rate_samples_ == 0
                      ? 0.0
                      : (static_cast<double>(current) -
                         static_cast<double>(last)) /
                            options_.interval;
    last = current;
    Slot(name + ".rate", TelemetrySeries::Kind::kDerived,
         metrics_->is_realtime(name))
        .Append(tick, rate);
  }
  ++total_rate_samples_;
  if (on_sample_) on_sample_(TickTime(tick));
}

void SloWatchdog::Evaluate(const TelemetrySampler& sampler, double now) {
  for (size_t i = 0; i < rules_.size(); ++i) {
    const SloRule& rule = rules_[i];
    RuleState& state = states_[i];
    const TelemetrySeries* series = sampler.series(rule.series);
    if (series == nullptr || series->empty()) {
      state.breach_since = -1;
      continue;
    }
    double latest = series->Latest();
    switch (rule.kind) {
      case SloRuleKind::kThreshold: {
        bool breach = rule.above ? latest >= rule.threshold
                                 : latest <= rule.threshold;
        if (breach && now - state.last_fire >= rule.cooldown) {
          state.last_fire = now;
          Fire(rule, now, latest);
        }
        break;
      }
      case SloRuleKind::kRate: {
        double interval = sampler.interval();
        if (interval <= 0) break;
        int64_t lookback = rule.window > 0
                               ? std::max<int64_t>(
                                     1, std::llround(rule.window / interval))
                               : 1;
        double previous = 0;
        if (!series->ValueAt(series->last_tick() - lookback, &previous)) {
          break;  // not enough history yet
        }
        double rate = (latest - previous) /
                      (static_cast<double>(lookback) * interval);
        bool breach = rule.above ? rate >= rule.threshold
                                 : rate <= rule.threshold;
        if (breach && now - state.last_fire >= rule.cooldown) {
          state.last_fire = now;
          Fire(rule, now, rate);
        }
        break;
      }
      case SloRuleKind::kSustained: {
        bool breach = rule.above ? latest >= rule.threshold
                                 : latest <= rule.threshold;
        if (!breach) {
          state.breach_since = -1;
          break;
        }
        if (state.breach_since < 0) state.breach_since = now;
        if (now - state.breach_since >= rule.window &&
            now - state.last_fire >= rule.cooldown) {
          state.last_fire = now;
          Fire(rule, now, latest);
        }
        break;
      }
    }
  }
}

void SloWatchdog::Fire(const SloRule& rule, double now, double value) {
  if (events_.size() < max_events_) {
    events_.push_back(HealthEvent{now, rule.name, rule.series, value,
                                  rule.threshold, rule.detail});
  } else {
    ++events_dropped_;
  }
  if (trace_ != nullptr) {
    // rules_ is a deque, so rule.name's c_str() stays stable for the
    // flight recorder's interned pointer.
    uint64_t span = trace_->BeginSpan("health", rule.name.c_str());
    trace_->EndSpan(span);
  }
  if (audit_ != nullptr) {
    DecisionRecord record;
    record.kind = DecisionKind::kHealth;
    record.note = StrFormat("%s: %s=%.6g threshold=%.6g",
                            rule.name.c_str(), rule.series.c_str(), value,
                            rule.threshold);
    audit_->Commit(std::move(record));
  }
}

// --- export / import ---------------------------------------------------

Json TelemetryJson(const TelemetrySampler& sampler,
                   const SloWatchdog& watchdog, bool include_realtime) {
  Json doc = Json::MakeObject();
  doc["fuxi_telemetry"] = 1;
  doc["interval"] = sampler.interval();
  doc["scale"] = TelemetrySeries::kScale;
  doc["samples"] = sampler.samples_taken();
  Json series = Json::MakeArray();
  for (const auto& [name, s] : sampler.all_series()) {
    if (!include_realtime && s.realtime()) continue;
    Json entry = Json::MakeObject();
    entry["name"] = name;
    entry["kind"] = std::string(TelemetrySeriesKindName(s.kind()));
    if (s.realtime()) entry["realtime"] = true;
    entry["first_tick"] = s.first_tick();
    entry["base"] = s.base_scaled();
    entry["total"] = s.total_appended();
    Json deltas = Json::MakeArray();
    for (int64_t d : s.DeltasInOrder()) deltas.Append(d);
    entry["deltas"] = std::move(deltas);
    series.Append(std::move(entry));
  }
  doc["series"] = std::move(series);
  Json events = Json::MakeArray();
  for (const HealthEvent& ev : watchdog.events()) {
    Json entry = Json::MakeObject();
    entry["t"] = ev.time;
    entry["rule"] = ev.rule;
    entry["series"] = ev.series;
    entry["value"] = ev.value;
    entry["threshold"] = ev.threshold;
    if (!ev.detail.empty()) entry["detail"] = ev.detail;
    events.Append(std::move(entry));
  }
  doc["events"] = std::move(events);
  doc["events_dropped"] = watchdog.events_dropped();
  return doc;
}

std::string ExportTelemetryJson(const TelemetrySampler& sampler,
                                const SloWatchdog& watchdog,
                                bool include_realtime) {
  return TelemetryJson(sampler, watchdog, include_realtime).Dump();
}

const TelemetryDump::Series* TelemetryDump::Find(
    const std::string& name) const {
  for (const Series& s : series) {
    if (s.name == name) return &s;
  }
  return nullptr;
}

TelemetryDump TelemetryDumpFromJson(const Json& doc) {
  TelemetryDump dump;
  if (doc.Find("fuxi_telemetry") == nullptr) return dump;
  dump.interval = doc.GetNumber("interval", 1.0);
  dump.samples = doc.GetInt("samples", 0);
  dump.events_dropped = static_cast<uint64_t>(doc.GetInt("events_dropped", 0));
  double scale = doc.GetNumber("scale", TelemetrySeries::kScale);
  if (scale <= 0) scale = TelemetrySeries::kScale;
  if (const Json* series = doc.Find("series");
      series != nullptr && series->is_array()) {
    for (const Json& entry : series->as_array()) {
      TelemetryDump::Series s;
      s.name = entry.GetString("name", "");
      s.kind = entry.GetString("kind", "gauge");
      s.realtime = entry.GetBool("realtime", false);
      s.first_tick = entry.GetInt("first_tick", 0);
      s.total = static_cast<uint64_t>(entry.GetInt("total", 0));
      double acc = static_cast<double>(entry.GetInt("base", 0));
      if (const Json* deltas = entry.Find("deltas");
          deltas != nullptr && deltas->is_array()) {
        s.values.reserve(deltas->as_array().size());
        for (const Json& d : deltas->as_array()) {
          acc += d.is_number() ? d.as_number() : 0;
          s.values.push_back(acc / scale);
        }
      }
      dump.series.push_back(std::move(s));
    }
  }
  if (const Json* events = doc.Find("events");
      events != nullptr && events->is_array()) {
    for (const Json& entry : events->as_array()) {
      HealthEvent ev;
      ev.time = entry.GetNumber("t", 0);
      ev.rule = entry.GetString("rule", "");
      ev.series = entry.GetString("series", "");
      ev.value = entry.GetNumber("value", 0);
      ev.threshold = entry.GetNumber("threshold", 0);
      ev.detail = entry.GetString("detail", "");
      dump.events.push_back(std::move(ev));
    }
  }
  return dump;
}

}  // namespace fuxi::obs
