#include "common/metrics.h"

#include <algorithm>
#include <cmath>
#include <cstddef>

#include "common/strings.h"

namespace fuxi {

double Histogram::stddev() const { return std::sqrt(variance()); }

double Histogram::Percentile(double q) const {
  if (samples_.empty()) return 0.0;
  if (!sorted_) {
    std::sort(samples_.begin(), samples_.end());
    sorted_ = true;
  }
  if (q <= 0) return samples_.front();
  if (q >= 100) return samples_.back();
  double rank = q / 100.0 * static_cast<double>(samples_.size() - 1);
  size_t lo = static_cast<size_t>(rank);
  double frac = rank - static_cast<double>(lo);
  if (lo + 1 >= samples_.size()) return samples_.back();
  return samples_[lo] * (1.0 - frac) + samples_[lo + 1] * frac;
}

std::vector<double> Histogram::PercentilesSnapshot(
    const std::vector<double>& quantiles) const {
  // Same interpolation as Percentile(). A quantile needs only the order
  // statistics at `lo` and `lo + 1`: nth_element places the first, and
  // the second is the smallest value after it. That is linear per
  // quantile and returns exactly what a fully sorted copy would.
  std::vector<double> out(quantiles.size(), 0.0);
  if (samples_.empty()) return out;
  std::vector<double> order(samples_);
  for (size_t i = 0; i < quantiles.size(); ++i) {
    double q = quantiles[i];
    if (q <= 0) {
      out[i] = *std::min_element(order.begin(), order.end());
    } else if (q >= 100) {
      out[i] = *std::max_element(order.begin(), order.end());
    } else {
      double rank = q / 100.0 * static_cast<double>(order.size() - 1);
      size_t lo = static_cast<size_t>(rank);
      double frac = rank - static_cast<double>(lo);
      auto nth = order.begin() + static_cast<std::ptrdiff_t>(lo);
      std::nth_element(order.begin(), nth, order.end());
      out[i] = lo + 1 >= order.size()
                   ? *nth
                   : *nth * (1.0 - frac) +
                         *std::min_element(nth + 1, order.end()) * frac;
    }
  }
  return out;
}

std::string Histogram::Summary() const {
  return StrFormat(
      "count=%llu mean=%.4f p50=%.4f p95=%.4f p99=%.4f min=%.4f max=%.4f",
      static_cast<unsigned long long>(count_), mean(), Percentile(50),
      Percentile(95), Percentile(99), min(), max());
}

void Histogram::Clear() {
  count_ = 0;
  sum_ = 0;
  mean_ = 0;
  m2_ = 0;
  min_ = std::numeric_limits<double>::infinity();
  max_ = -std::numeric_limits<double>::infinity();
  samples_.clear();
  sorted_ = false;
  rng_state_ = 0x5a17ab1e5eed0000ull;
}

double TimeSeries::MeanValue() const {
  if (points_.empty()) return 0.0;
  double sum = 0;
  for (const Point& p : points_) sum += p.value;
  return sum / static_cast<double>(points_.size());
}

double TimeSeries::MaxValue() const {
  double max = 0;
  for (const Point& p : points_) max = std::max(max, p.value);
  return max;
}

TimeSeries TimeSeries::Downsample(size_t buckets) const {
  TimeSeries out;
  if (points_.empty() || buckets == 0) return out;
  if (points_.size() <= buckets) return *this;
  double t0 = points_.front().time;
  double t1 = points_.back().time;
  double width = (t1 - t0) / static_cast<double>(buckets);
  if (width <= 0) {
    out.Add(t0, MeanValue());
    return out;
  }
  size_t i = 0;
  for (size_t b = 0; b < buckets; ++b) {
    double end = t0 + width * static_cast<double>(b + 1);
    double sum = 0;
    size_t n = 0;
    double tsum = 0;
    while (i < points_.size() &&
           (points_[i].time <= end || b == buckets - 1)) {
      sum += points_[i].value;
      tsum += points_[i].time;
      ++n;
      ++i;
    }
    if (n > 0) {
      out.Add(tsum / static_cast<double>(n), sum / static_cast<double>(n));
    }
  }
  return out;
}

}  // namespace fuxi
