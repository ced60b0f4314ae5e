#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "core/mube.h"
#include "stats.h"

/// \file workloads.h
/// The three benchmark workloads. Each one generates its inputs from the
/// seed, sets the engine up several times (setup_s is the median), measures
/// for the requested number of seconds, checks every answer, and fills a
/// MetricSet. With `trace` set it instead runs the per-layer pass: the
/// rebuilt Run path of traced_run.h beside Mube::Run on a fixed spec set,
/// plus the layer timings each workload owns. README.md in this directory
/// maps every metric to its layer and workload.

namespace perfbench {

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Latency limit for serving_churn's open-loop Refines (serving.slo_frac).
  double slo_ms = 1000.0;
  /// Directory the traced run writes its span CSV into ("" = none).
  std::string trace_dir;
};

/// \brief What a workload run produced.
struct Outcome {
  bool correct = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  MetricSet metrics;
  /// Human-readable report lines (printed before the result line).
  std::vector<std::string> notes;
  /// Failed checks; any entry makes the run incorrect.
  std::vector<std::string> problems;

  void Problem(const std::string& what);
  void Note(const std::string& line) { notes.push_back(line); }
};

/// Problems with one answer of Mube::Run for a spec whose effective source
/// constraints are `pins` ∪ sources of `ga`: the result must be feasible,
/// every F_i and Q(S) in [0,1], |S| ≤ m, C ⊆ S, M well-formed and valid on
/// C, and G ⊑ M. Empty string when the answer passes.
std::string CheckResult(const mube::MubeResult& result,
                        const std::vector<uint32_t>& pins,
                        const mube::MediatedSchema& ga, size_t m);

/// Runs one workload; an unknown name yields an incorrect Outcome.
Outcome RunWorkload(const Options& options);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
