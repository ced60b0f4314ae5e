#include "traced_run.h"

#include <algorithm>
#include <cstring>
#include <memory>
#include <vector>

#include "qef/characteristic_qef.h"
#include "qef/data_qefs.h"
#include "qef/health_qef.h"
#include "qef/match_qef.h"
#include "schema/universe.h"

namespace perfbench {

using mube::Result;
using mube::Status;

TracedEngine::TracedEngine(const mube::Mube& engine, Tracer* tracer)
    : engine_(engine),
      context_{tracer, -1, 0},
      counting_(engine.similarity(), &context_),
      matcher_(engine.universe(), counting_) {
  run_name_ = tracer->Intern("run");
  opt_name_ = tracer->Intern("opt");
}

std::string QefLabel(const mube::QefSpec& spec) {
  using Kind = mube::QefSpec::Kind;
  switch (spec.kind) {
    case Kind::kMatching:
      return "matching";
    case Kind::kCardinality:
      return "cardinality";
    case Kind::kCoverage:
      return "coverage";
    case Kind::kRedundancy:
      return "redundancy";
    case Kind::kCharacteristic:
      return spec.characteristic;
  }
  return "unknown";
}

Result<TracedResult> TracedEngine::Run(const mube::RunSpec& spec,
                                       uint64_t request_id) {
  const mube::MubeConfig& config = engine_.config();
  const mube::Universe& universe = engine_.universe();
  if (config.optimizer_options.threads != 1) {
    return Status::InvalidArgument("traced run needs a serial optimizer");
  }
  Tracer& tracer = *context_.tracer;
  const int64_t run_span = tracer.Open(run_name_, -1, request_id);
  context_.request = request_id;
  context_.parent = run_span;

  // ---- Mube::Run, step by step -------------------------------------------
  const double theta = spec.theta.value_or(config.theta);
  const size_t max_sources = spec.max_sources.value_or(config.max_sources);
  std::vector<double> weights =
      spec.weights.has_value() ? *spec.weights : config.Weights();
  if (weights.size() != config.qefs.size()) {
    return Status::InvalidArgument(
        "RunSpec: weight count does not match configured QEFs");
  }
  mube::OptimizerOptions opt_options = config.optimizer_options;
  if (spec.seed.has_value()) opt_options.seed = *spec.seed;
  if (spec.max_evaluations.has_value()) {
    opt_options.max_evaluations = *spec.max_evaluations;
    if (opt_options.patience > 0) {
      opt_options.patience = std::max<size_t>(1, *spec.max_evaluations / 3);
    }
  }
  if (spec.initial_solution.has_value()) {
    opt_options.initial_solution = *spec.initial_solution;
  }
  const std::string optimizer_name = spec.optimizer.value_or(config.optimizer);

  std::vector<uint32_t> constraints = spec.source_constraints;
  for (uint32_t sid : spec.ga_constraints.TouchedSources()) {
    constraints.push_back(sid);
  }
  std::sort(constraints.begin(), constraints.end());
  constraints.erase(std::unique(constraints.begin(), constraints.end()),
                    constraints.end());
  for (uint32_t sid : constraints) {
    if (sid >= universe.size()) {
      return Status::InvalidArgument("constraint source id out of range");
    }
  }
  if (!spec.ga_constraints.IsWellFormed() && !spec.ga_constraints.empty()) {
    return Status::InvalidArgument("GA constraints are not well-formed");
  }

  mube::MatchOptions match_options;
  match_options.theta = theta;
  match_options.beta = config.beta;
  auto match_qef = std::make_unique<mube::MatchQualityQef>(
      matcher_, match_options, constraints, spec.ga_constraints);
  const mube::MatchQualityQef* match_qef_ptr = match_qef.get();

  const bool use_health =
      !spec.source_health.empty() && spec.health_weight > 0.0;
  if (use_health && spec.health_weight >= 1.0) {
    return Status::InvalidArgument("RunSpec: health_weight must be in [0,1)");
  }
  const double weight_scale = use_health ? 1.0 - spec.health_weight : 1.0;

  mube::QefSet qefs;
  for (size_t i = 0; i < config.qefs.size(); ++i) {
    const mube::QefSpec& qspec = config.qefs[i];
    std::unique_ptr<mube::Qef> qef;
    switch (qspec.kind) {
      case mube::QefSpec::Kind::kMatching:
        if (match_qef == nullptr) {
          return Status::InvalidArgument("MubeConfig: multiple matching QEFs");
        }
        qef = std::move(match_qef);
        break;
      case mube::QefSpec::Kind::kCardinality:
        qef = std::make_unique<mube::CardQef>(universe);
        break;
      case mube::QefSpec::Kind::kCoverage:
        qef = std::make_unique<mube::CoverageQef>(universe,
                                                  engine_.signatures());
        break;
      case mube::QefSpec::Kind::kRedundancy:
        qef = std::make_unique<mube::RedundancyQef>(
            universe, engine_.signatures(), qspec.invert);
        break;
      case mube::QefSpec::Kind::kCharacteristic: {
        MUBE_ASSIGN_OR_RETURN(std::unique_ptr<mube::Aggregator> aggregator,
                              mube::MakeAggregator(qspec.aggregator));
        qef = std::make_unique<mube::CharacteristicQef>(
            universe, qspec.characteristic, std::move(aggregator),
            qspec.invert);
        break;
      }
    }
    MUBE_RETURN_IF_ERROR(qefs.Add(
        std::make_unique<TimedQef>(std::move(qef), QefLabel(qspec), &context_),
        weights[i] * weight_scale));
  }
  if (use_health) {
    MUBE_RETURN_IF_ERROR(qefs.Add(
        std::make_unique<TimedQef>(
            std::make_unique<mube::SourceHealthQef>(spec.source_health),
            "health", &context_),
        spec.health_weight));
  }
  MUBE_RETURN_IF_ERROR(qefs.ValidateWeights());

  mube::Problem problem;
  problem.universe = &universe;
  problem.qefs = &qefs;
  problem.match_qef = match_qef_ptr;
  problem.effective_constraints = std::move(constraints);
  problem.max_sources = max_sources;
  MUBE_RETURN_IF_ERROR(problem.Validate());

  mube::SearchTrace search_trace;
  opt_options.trace = &search_trace;
  MUBE_ASSIGN_OR_RETURN(std::unique_ptr<mube::Optimizer> optimizer,
                        mube::MakeOptimizer(optimizer_name, opt_options));

  // ---- the optimizer, with Match and QEF spans beneath it ----------------
  const int64_t opt_span = tracer.Open(opt_name_, run_span, request_id);
  context_.parent = opt_span;
  Result<mube::SolutionEval> best = optimizer->Run(problem);
  counting_.Flush();
  tracer.Close(opt_span);
  context_.parent = run_span;
  MUBE_RETURN_IF_ERROR(best.status());

  TracedResult result;
  result.solution = best.MoveValueUnsafe();
  result.evaluations = search_trace.evaluations;
  result.match_memo = match_qef_ptr->memo_stats();
  tracer.Close(run_span);
  const Tracer::Span& run = tracer.spans()[run_span];
  const Tracer::Span& opt = tracer.spans()[opt_span];
  result.run_ns = run.end_ns - run.start_ns;
  result.opt_ns = opt.end_ns - opt.start_ns;
  return result;
}

bool SameSolution(const mube::SolutionEval& a, const mube::SolutionEval& b) {
  auto same_doubles = [](const std::vector<double>& x,
                         const std::vector<double>& y) {
    return x.size() == y.size() &&
           (x.empty() ||
            std::memcmp(x.data(), y.data(), x.size() * sizeof(double)) == 0);
  };
  return a.sources == b.sources && a.feasible == b.feasible &&
         std::memcmp(&a.overall, &b.overall, sizeof(double)) == 0 &&
         same_doubles(a.qef_values, b.qef_values) && a.schema == b.schema;
}

}  // namespace perfbench
