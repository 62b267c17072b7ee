// Lightweight statistics accumulators used by the metrics module and the
// benchmark harnesses.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

namespace mp5 {

/// Streaming mean / min / max / variance accumulator (Welford).
class RunningStats {
public:
  /// Throws ConfigError on NaN: one NaN would silently poison the mean,
  /// variance and extrema for the rest of the run.
  void add(double x);

  std::uint64_t count() const noexcept { return n_; }
  double mean() const noexcept { return n_ ? mean_ : 0.0; }
  double variance() const noexcept;
  double stddev() const noexcept;
  double min() const noexcept { return n_ ? min_ : 0.0; }
  double max() const noexcept { return n_ ? max_ : 0.0; }
  double sum() const noexcept { return sum_; }

private:
  std::uint64_t n_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = std::numeric_limits<double>::infinity();
  double max_ = -std::numeric_limits<double>::infinity();
  double sum_ = 0.0;
};

/// Fixed-bucket histogram over [0, bucket_width * buckets); values beyond
/// the last bucket are clamped into it. Used for queue-depth distributions.
class Histogram {
public:
  Histogram(double bucket_width, std::size_t buckets);

  /// Throws ConfigError on NaN (it has no bucket). Inline: the simulator
  /// samples on every FIFO push and every egress.
  void add(double x) {
    if (std::isnan(x)) throw_nan();
    const auto idx = static_cast<std::size_t>(std::max(0.0, x) / width_);
    ++counts_[std::min(idx, counts_.size() - 1)];
    ++total_;
  }
  /// Add another histogram's samples; throws ConfigError unless both
  /// have the same bucket width and count.
  void merge(const Histogram& other);
  std::uint64_t total() const noexcept { return total_; }

  /// Value below which `q` of the mass lies, to bucket precision. Returns
  /// NaN on an empty histogram (there is no mass to take a quantile of; an
  /// earlier version returned 0.0, indistinguishable from real data).
  /// Throws ConfigError when `q` is outside [0, 1] or NaN.
  double quantile(double q) const;

  /// Convenience percentiles (same semantics as quantile()).
  double p50() const { return quantile(0.50); }
  double p90() const { return quantile(0.90); }
  double p99() const { return quantile(0.99); }

  const std::vector<std::uint64_t>& buckets() const noexcept { return counts_; }
  double bucket_width() const noexcept { return width_; }

  /// Checkpoint listing (common/serialize.hpp): the bucket counts, whose
  /// number the constructor fixed, then the sample total.
  template <class Io> void transfer(Io& io) {
    io.size_equal(counts_.size(),
                  "checkpoint: histogram bucket count mismatch");
    for (std::uint64_t& c : counts_) io.u64(c);
    io.u64(total_);
  }

private:
  [[noreturn]] static void throw_nan();

  double width_;
  std::vector<std::uint64_t> counts_;
  std::uint64_t total_ = 0;
};

/// Exact percentile of a sample vector (copies and sorts; for small vectors
/// such as per-run throughput samples).
double percentile(std::vector<double> samples, double q);

/// The `q` quantile of non-empty samples sorted ascending, interpolated
/// linearly between the two nearest ranks.
template <typename T>
double sorted_percentile(const std::vector<T>& sorted, double q) {
  const double pos = q * static_cast<double>(sorted.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const auto hi = std::min(lo + 1, sorted.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return static_cast<double>(sorted[lo]) * (1.0 - frac) +
         static_cast<double>(sorted[hi]) * frac;
}

} // namespace mp5
