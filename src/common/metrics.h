#ifndef FUXI_COMMON_METRICS_H_
#define FUXI_COMMON_METRICS_H_

#include <algorithm>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

namespace fuxi {

/// Streaming summary statistics (count/mean/min/max/variance) plus a
/// sample buffer for percentile queries. The benchmark harnesses use
/// this to report the same aggregates the paper's tables carry.
///
/// The buffer is exact up to `sample_cap()` samples; beyond that it
/// switches to reservoir sampling (Algorithm R) driven by a fixed-seed
/// generator, so memory stays bounded over arbitrarily long chaos
/// campaigns and identical Add() sequences still yield identical
/// percentiles on replay. Streaming stats always cover every sample.
class Histogram {
 public:
  static constexpr size_t kDefaultSampleCap = 1 << 16;

  void Add(double value) {
    ++count_;
    sum_ += value;
    min_ = std::min(min_, value);
    max_ = std::max(max_, value);
    // Welford's online variance update.
    double delta = value - mean_;
    mean_ += delta / static_cast<double>(count_);
    m2_ += delta * (value - mean_);
    if (samples_.size() < sample_cap_) {
      samples_.push_back(value);
      return;
    }
    // Reservoir: keep with probability cap/count, evicting uniformly.
    uint64_t j = NextRandom() % count_;
    if (j < samples_.size()) {
      samples_[static_cast<size_t>(j)] = value;
      sorted_ = false;
    }
  }

  /// Caps the percentile buffer; takes effect immediately (the buffer
  /// is truncated if already above `cap`). A cap of 0 keeps streaming
  /// stats only — Percentile() then returns 0.
  void SetSampleCap(size_t cap) {
    sample_cap_ = cap;
    if (samples_.size() > cap) {
      samples_.resize(cap);
      sorted_ = false;
    }
  }
  size_t sample_cap() const { return sample_cap_; }
  size_t sample_count() const { return samples_.size(); }

  uint64_t count() const { return count_; }
  double sum() const { return sum_; }
  double mean() const { return count_ ? mean_ : 0.0; }
  double min() const { return count_ ? min_ : 0.0; }
  double max() const { return count_ ? max_ : 0.0; }
  double variance() const {
    return count_ > 1 ? m2_ / static_cast<double>(count_ - 1) : 0.0;
  }
  double stddev() const;

  /// Exact percentile (q in [0,100]) over all added samples.
  double Percentile(double q) const;

  /// Percentiles computed over a *copy* of the sample buffer, leaving
  /// the reservoir's element order untouched. Mid-run observers (the
  /// telemetry sampler) must use this instead of Percentile(): the
  /// in-place sort Percentile() performs changes which elements later
  /// reservoir evictions replace, so an extra mid-run query would
  /// perturb end-of-run percentiles and break sampler-on/off replay
  /// identity. One copy serves all requested quantiles, each found by
  /// selection (linear), not by sorting the copy.
  std::vector<double> PercentilesSnapshot(
      const std::vector<double>& quantiles) const;

  /// "count=N mean=X p50=... p99=... max=..." summary line.
  std::string Summary() const;

  void Clear();

 private:
  // splitmix64: deterministic, seedless (fixed initial state) so two
  // histograms fed the same values keep identical reservoirs.
  uint64_t NextRandom() {
    uint64_t z = (rng_state_ += 0x9e3779b97f4a7c15ull);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
  }

  uint64_t count_ = 0;
  double sum_ = 0;
  double mean_ = 0;
  double m2_ = 0;
  double min_ = std::numeric_limits<double>::infinity();
  double max_ = -std::numeric_limits<double>::infinity();
  size_t sample_cap_ = kDefaultSampleCap;
  uint64_t rng_state_ = 0x5a17ab1e5eed0000ull;
  mutable std::vector<double> samples_;
  mutable bool sorted_ = false;
};

/// (time, value) series, used to emit the Figure 9 / Figure 10 curves.
class TimeSeries {
 public:
  struct Point {
    double time;
    double value;
  };

  void Add(double time, double value) { points_.push_back({time, value}); }
  const std::vector<Point>& points() const { return points_; }
  size_t size() const { return points_.size(); }
  bool empty() const { return points_.empty(); }

  double MeanValue() const;
  double MaxValue() const;

  /// Downsamples to at most `buckets` points by averaging within equal
  /// time windows; keeps figure output readable.
  TimeSeries Downsample(size_t buckets) const;

 private:
  std::vector<Point> points_;
};

}  // namespace fuxi

#endif  // FUXI_COMMON_METRICS_H_
