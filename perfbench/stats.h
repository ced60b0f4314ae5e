#ifndef PERFBENCH_STATS_H_
#define PERFBENCH_STATS_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

/// \file stats.h
/// Sample statistics, metric naming and the result line of the µBE
/// benchmark. Every timing the benchmark reports is a median or a tail
/// percentile chosen by TailPercentile's rule, never a single sample.

namespace perfbench {

/// Median of `samples` (mean of the two middle values for an even count).
/// 0 for an empty vector.
double Median(std::vector<double> samples);

/// Mean of `samples`; 0 for an empty vector.
double Mean(const std::vector<double>& samples);

/// \brief A tail percentile together with the evidence behind it.
struct Tail {
  /// False when fewer than min_beyond + 1 samples exist: no percentile has
  /// enough samples beyond it, and `value` is meaningless.
  bool supported = false;
  double value = 0.0;
  /// Nearest-rank percentile of `value`, in (0, 100].
  double percentile = 0.0;
  size_t samples = 0;
  /// Samples strictly ranked above `value` (= min_beyond when supported).
  size_t beyond = 0;
};

/// The highest percentile that still has at least `min_beyond` samples
/// beyond it: with N sorted samples, the value at rank N − min_beyond
/// (1-based), reported as percentile 100·(N − min_beyond)/N.
Tail TailPercentile(std::vector<double> samples, size_t min_beyond = 10);

/// True iff `name` is a non-empty metric name made of [A-Za-z0-9_.-] that
/// starts with a letter or digit and is at most 64 characters long.
bool ValidMetricName(std::string_view name);

/// \brief Named metrics with units, in insertion order.
class MetricSet {
 public:
  struct Metric {
    std::string name;
    double value = 0.0;
    std::string unit;
  };

  /// Adds a metric. Returns false (and adds nothing) for an invalid or
  /// repeated name.
  bool Add(const std::string& name, double value, const std::string& unit);

  const std::vector<Metric>& metrics() const { return metrics_; }
  const Metric* Find(std::string_view name) const;

  /// {"name": {"value": v, "unit": "u"}, ...} with full double precision.
  std::string ToJson() const;

 private:
  std::vector<Metric> metrics_;
};

/// Incremental 64-bit FNV-1a digest over selections and schemas; the
/// benchmark prints it so a later change can show bit-identical output.
class Digest {
 public:
  void Add(std::string_view bytes);
  void Add(uint64_t value);
  std::string Hex() const;

 private:
  uint64_t state_ = 0xcbf29ce484222325ULL;
};

}  // namespace perfbench

#endif  // PERFBENCH_STATS_H_
