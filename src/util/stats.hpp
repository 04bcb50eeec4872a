// Streaming and batch descriptive statistics used by the experiment
// harnesses (interpolation-error summaries, timing summaries).
#pragma once

#include <cstddef>
#include <vector>

namespace ace::util {

/// Numerically stable (Welford) streaming accumulator of count / mean /
/// variance / min / max. Suitable for millions of samples.
class RunningStats {
 public:
  /// Raw accumulator state, exposed for exact persistence (checkpointing):
  /// restoring it and continuing to add() is bit-identical to never having
  /// paused.
  struct State {
    std::size_t n = 0;
    double mean = 0.0;
    double m2 = 0.0;
    double min = 0.0;
    double max = 0.0;
  };

  RunningStats() = default;
  explicit RunningStats(const State& s)
      : n_(s.n), mean_(s.mean), m2_(s.m2), min_(s.min), max_(s.max) {}

  State state() const { return {n_, mean_, m2_, min_, max_}; }

  friend bool operator==(const RunningStats&, const RunningStats&) = default;

  void add(double x);

  /// Merge another accumulator into this one (parallel reduction).
  void merge(const RunningStats& other);

  std::size_t count() const { return n_; }
  double mean() const;
  /// Unbiased sample variance; 0 for fewer than two samples.
  double variance() const;
  double stddev() const;
  double min() const;
  double max() const;
  double sum() const { return mean() * static_cast<double>(n_); }

  bool empty() const { return n_ == 0; }

 private:
  std::size_t n_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

/// Batch helpers over a full sample vector.
double mean(const std::vector<double>& xs);
double variance(const std::vector<double>& xs);
double stddev(const std::vector<double>& xs);

/// Quantile with linear interpolation between order statistics.
/// q in [0,1]; throws std::invalid_argument on empty input or bad q.
double quantile(std::vector<double> xs, double q);

/// Median (q = 0.5).
double median(std::vector<double> xs);

}  // namespace ace::util
