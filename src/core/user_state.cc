#include "core/user_state.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <sstream>

#include "common/string_util.h"
#include "opt/optimizer.h"
#include "schema/serialization.h"

namespace mube {

namespace {

/// Applies one non-blank, non-comment directive line (`<key> <argument>`)
/// through `state`'s setters.
Status ApplyDirective(UserState* state, const Universe& universe,
                      size_t qef_count, std::string_view line) {
  const size_t space = std::min(line.find(' '), line.size());
  const std::string_view key = line.substr(0, space);
  const std::string_view arg = Trim(line.substr(space));
  double number = 0.0;
  uint64_t count = 0;
  if (key == "pin") {
    Status status = state->PinSource(universe, std::string(arg));
    // A repeated pin line names the same source twice; keep one pin.
    return status.code() == StatusCode::kAlreadyExists ? Status::OK()
                                                        : status;
  }
  if (key == "ga") {
    MUBE_ASSIGN_OR_RETURN(GlobalAttribute ga,
                          ParseGlobalAttribute(arg, universe));
    return state->AddGaConstraint(universe, std::move(ga));
  }
  if (key == "weights") {
    std::vector<double> weights;
    for (const std::string& token : SplitAndTrim(arg, ' ')) {
      MUBE_RETURN_IF_ERROR(ParseDouble(token, &number));
      weights.push_back(number);
    }
    return state->SetWeights(qef_count, weights);
  }
  if (key == "theta") {
    MUBE_RETURN_IF_ERROR(ParseDouble(arg, &number));
    return state->SetTheta(number);
  }
  if (key == "max_sources") {
    MUBE_RETURN_IF_ERROR(ParseUint64(arg, &count));
    return state->SetMaxSources(count);
  }
  if (key == "optimizer") return state->SetOptimizer(std::string(arg));
  if (key == "health_bias") {
    MUBE_RETURN_IF_ERROR(ParseDouble(arg, &number));
    return state->SetHealthBias(number);
  }
  return Status::InvalidArgument("unknown directive: " + std::string(line));
}

/// "%.17g": the shortest format guaranteed to round-trip a double.
std::string FormatDouble(double value) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  return buf;
}

}  // namespace

Status UserState::PinSource(const Universe& universe,
                            const std::string& name) {
  std::optional<uint32_t> sid = universe.FindSource(name);
  if (!sid.has_value()) {
    return Status::NotFound("no source named '" + name + "'");
  }
  return PinSource(universe, *sid);
}

Status UserState::PinSource(const Universe& universe, uint32_t source_id) {
  if (source_id >= universe.size()) {
    return Status::InvalidArgument("source id out of range");
  }
  if (!universe.alive(source_id)) {
    return Status::FailedPrecondition(
        "source '" + universe.source(source_id).name() +
        "' has been removed from the universe");
  }
  auto pos = std::lower_bound(pinned_sources_.begin(), pinned_sources_.end(),
                              source_id);
  if (pos != pinned_sources_.end() && *pos == source_id) {
    return Status::AlreadyExists("source already pinned");
  }
  pinned_sources_.insert(pos, source_id);
  return Status::OK();
}

Status UserState::UnpinSource(uint32_t source_id) {
  auto pos = std::lower_bound(pinned_sources_.begin(), pinned_sources_.end(),
                              source_id);
  if (pos == pinned_sources_.end() || *pos != source_id) {
    return Status::NotFound("source is not pinned");
  }
  pinned_sources_.erase(pos);
  return Status::OK();
}

Status UserState::AddGaConstraint(const Universe& universe,
                                  GlobalAttribute ga) {
  if (!ga.IsValid()) {
    return Status::InvalidArgument("GA constraint is not valid");
  }
  for (const AttributeRef& ref : ga.members()) {
    if (!universe.Contains(ref)) {
      return Status::InvalidArgument("GA constraint references unknown " +
                                     ref.ToString());
    }
    if (!universe.alive(ref.source_id)) {
      return Status::FailedPrecondition(
          "GA constraint references source '" +
          universe.source(ref.source_id).name() +
          "', which has been removed from the universe");
    }
  }
  // The combined constraint set must stay a well-formed partial schema.
  MediatedSchema candidate = ga_constraints_;
  candidate.Add(std::move(ga));
  if (!candidate.IsWellFormed()) {
    return Status::InvalidArgument(
        "GA constraint overlaps an existing constraint");
  }
  ga_constraints_ = std::move(candidate);
  return Status::OK();
}

void UserState::PruneRetired(const Universe& universe) {
  RunSpec live = BuildRunSpec(universe, /*seed=*/0);
  pinned_sources_ = std::move(live.source_constraints);
  ga_constraints_ = std::move(live.ga_constraints);
}

Status UserState::SetWeights(size_t qef_count,
                             const std::vector<double>& weights) {
  if (weights.size() != qef_count) {
    return Status::InvalidArgument("weight count mismatch");
  }
  double sum = 0.0;
  for (double w : weights) {
    if (!(w >= 0.0 && w <= 1.0)) {  // negated so NaN is rejected too
      return Status::InvalidArgument("weight out of [0,1]");
    }
    sum += w;
  }
  if (std::abs(sum - 1.0) > 1e-9) {
    return Status::InvalidArgument("weights must sum to 1");
  }
  weights_ = weights;
  return Status::OK();
}

Status UserState::SetTheta(double theta) {
  if (!(theta >= 0.0 && theta <= 1.0)) {
    return Status::InvalidArgument("theta must be in [0,1]");
  }
  theta_ = theta;
  return Status::OK();
}

Status UserState::SetMaxSources(size_t max_sources) {
  if (max_sources == 0) {
    return Status::InvalidArgument("max_sources must be >= 1");
  }
  max_sources_ = max_sources;
  return Status::OK();
}

Status UserState::SetOptimizer(const std::string& name) {
  MUBE_RETURN_IF_ERROR(MakeOptimizer(name, OptimizerOptions()).status());
  optimizer_ = name;
  return Status::OK();
}

Status UserState::SetHealthBias(double weight) {
  if (!(weight >= 0.0 && weight < 1.0)) {
    return Status::InvalidArgument("health bias must be in [0,1)");
  }
  health_bias_ = weight;
  return Status::OK();
}

void UserState::RecordExecution(const ExecutionReport& report) {
  for (const SourceScanLog& log : report.scans) {
    SourceHealth& health = source_health_[log.source_id];
    switch (log.status) {
      case ScanStatus::kOk:
        ++health.scans_ok;
        health.last_fault = FaultKind::kNone;
        break;
      case ScanStatus::kFailed:
      case ScanStatus::kDeadlineSkipped:
        ++health.scans_failed;
        health.last_fault = log.last_fault;
        break;
      case ScanStatus::kShortCircuited:
        ++health.short_circuits;
        break;
      case ScanStatus::kSkippedCannotAnswer:
        break;  // not a health signal: the schema, not the source
    }
  }
}

std::map<uint32_t, double> UserState::HealthScores() const {
  std::map<uint32_t, double> scores;
  for (const auto& [sid, health] : source_health_) {
    const size_t total =
        health.scans_ok + health.scans_failed + health.short_circuits;
    if (total == 0) continue;
    scores[sid] = static_cast<double>(health.scans_ok) /
                  static_cast<double>(total);
  }
  return scores;
}

RunSpec UserState::BuildRunSpec(const Universe& universe,
                                uint64_t seed) const {
  RunSpec spec;
  for (uint32_t sid : pinned_sources_) {
    if (universe.alive(sid)) spec.source_constraints.push_back(sid);
  }
  for (const GlobalAttribute& ga : ga_constraints_.gas()) {
    const bool stale =
        std::any_of(ga.members().begin(), ga.members().end(),
                    [&](const AttributeRef& ref) {
                      return !universe.alive(ref.source_id);
                    });
    if (!stale) spec.ga_constraints.Add(ga);
  }
  if (!weights_.empty()) spec.weights = weights_;
  if (theta_ >= 0.0) spec.theta = theta_;
  if (max_sources_ > 0) spec.max_sources = max_sources_;
  if (!optimizer_.empty()) spec.optimizer = optimizer_;
  if (health_bias_ > 0.0) {
    spec.source_health = HealthScores();
    spec.health_weight = health_bias_;
  }
  spec.seed = seed;
  return spec;
}

std::string UserState::SerializeDirectives(const Universe& universe) const {
  std::ostringstream out;
  for (uint32_t sid : pinned_sources_) {
    out << "pin " << universe.source(sid).name() << "\n";
  }
  for (const GlobalAttribute& ga : ga_constraints_.gas()) {
    out << "ga ";
    for (size_t i = 0; i < ga.members().size(); ++i) {
      const AttributeRef& ref = ga.members()[i];
      if (i > 0) out << ", ";
      out << universe.source(ref.source_id).name() << "."
          << universe.attribute(ref).name;
    }
    out << "\n";
  }
  if (!weights_.empty()) {
    out << "weights";
    for (double w : weights_) out << " " << FormatDouble(w);
    out << "\n";
  }
  if (theta_ >= 0.0) out << "theta " << FormatDouble(theta_) << "\n";
  if (max_sources_ > 0) out << "max_sources " << max_sources_ << "\n";
  if (!optimizer_.empty()) out << "optimizer " << optimizer_ << "\n";
  if (health_bias_ > 0.0) {
    out << "health_bias " << FormatDouble(health_bias_) << "\n";
  }
  return out.str();
}

Status UserState::RestoreDirectives(
    const Universe& universe, size_t qef_count,
    const std::vector<std::pair<int, std::string>>& directives) {
  UserState staged;
  for (const auto& [line_no, raw] : directives) {
    const std::string_view line = Trim(raw);
    if (line.empty() || line.front() == '#') continue;
    Status status = ApplyDirective(&staged, universe, qef_count, line);
    if (!status.ok()) {
      return Status(status.code(), "session state line " +
                                       std::to_string(line_no) + ": " +
                                       status.message());
    }
  }
  staged.source_health_ = std::move(source_health_);
  *this = std::move(staged);
  return Status::OK();
}

}  // namespace mube
