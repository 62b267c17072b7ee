#include "common/stats.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/error.hpp"

namespace mp5 {

void RunningStats::add(double x) {
  if (std::isnan(x)) {
    throw ConfigError("RunningStats::add: NaN sample");
  }
  ++n_;
  sum_ += x;
  const double delta = x - mean_;
  mean_ += delta / static_cast<double>(n_);
  m2_ += delta * (x - mean_);
  min_ = std::min(min_, x);
  max_ = std::max(max_, x);
}

double RunningStats::variance() const noexcept {
  return n_ > 1 ? m2_ / static_cast<double>(n_ - 1) : 0.0;
}

double RunningStats::stddev() const noexcept { return std::sqrt(variance()); }

Histogram::Histogram(double bucket_width, std::size_t buckets)
    : width_(bucket_width), counts_(buckets, 0) {
  if (bucket_width <= 0.0 || buckets == 0) {
    throw ConfigError("Histogram: bucket_width and buckets must be positive");
  }
}

void Histogram::throw_nan() {
  throw ConfigError("Histogram::add: NaN sample");
}

void Histogram::merge(const Histogram& other) {
  if (other.width_ != width_ || other.counts_.size() != counts_.size()) {
    throw ConfigError("Histogram::merge: bucket shapes differ");
  }
  for (std::size_t i = 0; i < counts_.size(); ++i) {
    counts_[i] += other.counts_[i];
  }
  total_ += other.total_;
}

double Histogram::quantile(double q) const {
  if (std::isnan(q) || q < 0.0 || q > 1.0) {
    throw ConfigError("Histogram::quantile: q must be in [0, 1]");
  }
  // An empty histogram has no quantiles; NaN is unambiguous where the old
  // 0.0 looked like a legitimate first-bucket answer.
  if (total_ == 0) return std::numeric_limits<double>::quiet_NaN();
  const auto target = static_cast<std::uint64_t>(
      q * static_cast<double>(total_));
  std::uint64_t acc = 0;
  for (std::size_t i = 0; i < counts_.size(); ++i) {
    acc += counts_[i];
    if (acc > target) return static_cast<double>(i + 1) * width_;
  }
  return static_cast<double>(counts_.size()) * width_;
}

double percentile(std::vector<double> samples, double q) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  return sorted_percentile(samples, q);
}

} // namespace mp5
