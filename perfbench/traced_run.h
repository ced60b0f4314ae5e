#ifndef PERFBENCH_TRACED_RUN_H_
#define PERFBENCH_TRACED_RUN_H_

#include <cstdint>
#include <string>

#include "core/mube.h"
#include "match/matcher.h"
#include "opt/problem.h"
#include "trace.h"

/// \file traced_run.h
/// One µBE iteration rebuilt from the engine's public parts so an outside
/// timer can split it by layer. The rebuild follows Mube::Run
/// (src/core/mube.cc) step by step — resolve the RunSpec overrides, derive
/// the effective constraints, assemble the QEFs, build the Problem, run the
/// optimizer — with three substitutions that change no result:
///  - the MatchQualityQef runs over a Matcher the benchmark owns, which
///    reads the engine's similarity store through a CountingSimilaritySource;
///  - every QEF in the QefSet is wrapped in a TimedQef;
///  - the optimizer writes a SearchTrace.
/// Spans: "run" (root per request) ⊃ "opt" ⊃ {"match", "qef.<name>"}.
/// Everything in "run" outside "opt" is RunSpec resolution and problem
/// assembly (core.assembly_ms). SameSolution() is the check that the
/// rebuild and Mube::Run agree bit for bit.

namespace perfbench {

/// \brief Outcome of one traced iteration.
struct TracedResult {
  mube::SolutionEval solution;
  int64_t run_ns = 0;  ///< the whole rebuilt Run
  int64_t opt_ns = 0;  ///< Optimizer::Run alone
  size_t evaluations = 0;
  mube::MatchQualityQef::MemoStats match_memo;
};

/// \brief The rebuilt per-run path over one engine. Serial: requires the
/// engine's OptimizerOptions::threads == 1.
class TracedEngine {
 public:
  /// `engine` and `tracer` must outlive this object.
  TracedEngine(const mube::Mube& engine, Tracer* tracer);

  TracedEngine(const TracedEngine&) = delete;
  TracedEngine& operator=(const TracedEngine&) = delete;

  mube::Result<TracedResult> Run(const mube::RunSpec& spec,
                                 uint64_t request_id);

  /// Work counted at the similarity layer across all Runs so far.
  CountingSimilaritySource::Counts counts() const {
    return counting_.counts();
  }

 private:
  const mube::Mube& engine_;
  SpanContext context_;
  CountingSimilaritySource counting_;
  mube::Matcher matcher_;
  uint32_t run_name_ = 0;
  uint32_t opt_name_ = 0;
};

/// True iff `a` and `b` are bitwise the same answer: sources, feasibility,
/// Q(S), every F_i and the mediated schema.
bool SameSolution(const mube::SolutionEval& a, const mube::SolutionEval& b);

/// Label of a QEF spec as used in span and metric names ("matching",
/// "cardinality", "coverage", "redundancy", or the characteristic, e.g.
/// "mttf").
std::string QefLabel(const mube::QefSpec& spec);

}  // namespace perfbench

#endif  // PERFBENCH_TRACED_RUN_H_
