#include "core/session.h"

#include <algorithm>
#include <sstream>

#include "common/string_util.h"
#include "schema/serialization.h"

namespace mube {

Result<std::unique_ptr<Session>> Session::Create(const Universe* universe,
                                                 MubeConfig config) {
  MUBE_ASSIGN_OR_RETURN(std::unique_ptr<Mube> mube,
                        Mube::Create(universe, std::move(config)));
  return std::unique_ptr<Session>(new Session(std::move(mube)));
}

Result<std::unique_ptr<Session>> Session::Create(DeltaUniverse* universe,
                                                 MubeConfig config) {
  if (universe == nullptr) {
    return Status::InvalidArgument("Session: null DeltaUniverse");
  }
  MUBE_ASSIGN_OR_RETURN(
      std::unique_ptr<Session> session,
      Create(&universe->universe(), std::move(config)));
  session->delta_universe_ = universe;
  return session;
}

Status Session::AddGaConstraintFromText(const std::string& line) {
  MUBE_ASSIGN_OR_RETURN(GlobalAttribute ga,
                        ParseGlobalAttribute(line, mube_->universe()));
  return AddGaConstraint(std::move(ga));
}

Status Session::AdoptGaFromLastResult(size_t index) {
  if (!has_result()) {
    return Status::FailedPrecondition("no previous result to adopt from");
  }
  const MediatedSchema& schema = last_result().solution.schema;
  if (index >= schema.size()) {
    return Status::OutOfRange("last result has only " +
                              std::to_string(schema.size()) + " GAs");
  }
  return AddGaConstraint(schema.ga(index));
}

Result<MubeResult> Session::RunAndCommit(const RunSpec& spec) {
  MUBE_ASSIGN_OR_RETURN(MubeResult result, mube_->Run(spec));
  history_.push_back(std::move(result));
  pending_churn_ = ChurnDelta();
  if (metrics_.iterations != nullptr) metrics_.iterations->Increment();
  return history_.back();
}

ReOptimizePlan Session::PlanReoptimization(
    const std::vector<uint32_t>& incumbent) {
  const ReOptimizePlan plan = ReOptimizer(reopt_options_).Plan(
      mube_->universe(), pending_churn_, incumbent,
      mube_->config().optimizer_options.max_evaluations);
  if (metrics_.reiterate_warm != nullptr) {
    (plan.warm ? metrics_.reiterate_warm : metrics_.reiterate_cold)
        ->Increment();
    metrics_.reopt_budget->Observe(static_cast<double>(plan.max_evaluations));
    metrics_.reopt_churn_fraction->Observe(plan.churn_fraction);
  }
  return plan;
}

Result<std::vector<MubeResult>> Session::IterateAlternatives(
    size_t attempts) {
  std::vector<Mube::AlternativeSeed> seeds;
  if (!alternative_incumbents_.empty()) {
    const bool churned = !pending_churn_.empty();
    const size_t slots = std::min(attempts, alternative_incumbents_.size());
    for (size_t i = 0; i < slots; ++i) {
      Mube::AlternativeSeed seed;
      if (churned) {
        // Each member gets its own warm/cold plan: the churn may have
        // gutted one incumbent (→ cold) while barely touching another.
        const ReOptimizePlan plan =
            PlanReoptimization(alternative_incumbents_[i]);
        if (plan.warm) {
          seed.initial_solution = plan.initial_solution;
          seed.max_evaluations = plan.max_evaluations;
        }
      } else {
        // No churn: resume from the incumbent under the full budget — the
        // cheapest way to deepen each alternative's neighborhood.
        seed.initial_solution = alternative_incumbents_[i];
      }
      seeds.push_back(std::move(seed));
    }
  }
  MUBE_ASSIGN_OR_RETURN(std::vector<MubeResult> results,
                        mube_->RunAlternatives(BuildRunSpec(), attempts,
                                               seeds));
  alternative_incumbents_.clear();
  for (const MubeResult& result : results) {
    alternative_incumbents_.push_back(result.solution.sources);
  }
  return results;
}

void Session::SetMetrics(MetricsRegistry* registry,
                         const std::string& prefix) {
  mube_->AttachMetrics(registry, prefix);
  if (registry == nullptr) {
    metrics_ = SessionMetrics();
    return;
  }
  const std::string p = prefix + "_session";
  metrics_.iterations = registry->GetCounter(
      p + "_iterations_total", "committed session iterations");
  metrics_.reiterate_warm = registry->GetCounter(
      p + "_reopt_warm_total", "re-optimizations planned warm");
  metrics_.reiterate_cold = registry->GetCounter(
      p + "_reopt_cold_total", "re-optimizations planned cold");
  metrics_.churn_events = registry->GetCounter(
      p + "_churn_events_total", "churn events applied to the catalog");
  metrics_.reopt_budget = registry->GetHistogram(
      p + "_reopt_budget_evaluations",
      Histogram::ExponentialBuckets(100.0, 2.0, 10),
      "evaluation budget granted by the re-optimization planner");
  metrics_.reopt_churn_fraction = registry->GetHistogram(
      p + "_reopt_churn_fraction",
      {0.01, 0.02, 0.05, 0.1, 0.2, 0.25, 0.5, 1.0},
      "churn fraction the warm/cold decision was based on");
}

Status Session::ApplyChurn(const std::vector<ChurnEvent>& events) {
  if (delta_universe_ == nullptr) {
    return Status::FailedPrecondition(
        "session was created over a static universe; churn requires the "
        "DeltaUniverse constructor");
  }
  ChurnDelta delta;
  size_t applied = 0;
  Status status = delta_universe_->ApplyAll(events, &delta, &applied);
  if (!delta.empty()) {
    // Even a partially applied batch mutated the catalog: reconcile the
    // engine and the constraint state for the applied prefix.
    MUBE_RETURN_IF_ERROR(mube_->ApplyDelta(delta));
    state_.PruneRetired(mube_->universe());
    pending_churn_.MergeFrom(delta);
    for (size_t i = 0; i < applied; ++i) churn_log_.Append(events[i]);
    if (metrics_.churn_events != nullptr) {
      metrics_.churn_events->Increment(applied);
    }
  }
  return status;
}

Result<MubeResult> Session::ReIterate() {
  if (!has_result() || pending_churn_.empty()) return Iterate();
  const ReOptimizePlan plan =
      PlanReoptimization(last_result().solution.sources);
  RunSpec spec = BuildRunSpec();
  if (plan.warm) {
    spec.initial_solution = plan.initial_solution;
    spec.max_evaluations = plan.max_evaluations;
  }
  return RunAndCommit(spec);
}

std::string Session::RenderLastResult() const {
  if (!has_result()) return "(no result yet)\n";
  const MubeResult& result = last_result();
  const Universe& universe = mube_->universe();
  std::ostringstream out;
  out << "== sources (" << result.solution.sources.size() << ") ==\n";
  for (uint32_t sid : result.solution.sources) {
    out << "  [" << sid << "] " << universe.source(sid).name() << "\n";
  }
  out << "== mediated schema (" << result.solution.schema.size()
      << " GAs) ==\n";
  out << SerializeMediatedSchema(result.solution.schema, universe);
  out << "== quality ==\n";
  for (size_t i = 0; i < result.qef_names.size(); ++i) {
    out << "  " << result.qef_names[i] << " = "
        << result.solution.qef_values[i] << "\n";
  }
  out << "  Q(S) = " << result.solution.overall << "\n";
  return out.str();
}

Result<std::string> Session::SaveState() const {
  std::ostringstream out;
  out << "# mube session state v1\n";
  out << state_.SerializeDirectives(mube_->universe());
  out << "seed " << seed_ << "\n";
  if (!churn_log_.empty()) {
    // The constraints above name sources as they exist *after* this churn;
    // a restore must replay it before resolving them.
    MUBE_ASSIGN_OR_RETURN(std::string log, churn_log_.Serialize());
    out << "churn_log begin\n" << log << "churn_log end\n";
  }
  return out.str();
}

Status Session::RestoreState(const std::string& blob) {
  // Separate the churn block and the session's own `seed` directive from
  // the user-state directives: the saved constraints name sources as they
  // exist after the churn, so the missing churn suffix must replay first.
  std::vector<std::pair<int, std::string>> directives;  // (line_no, raw)
  std::ostringstream churn_blob;
  bool has_churn = false;
  bool in_churn = false;
  uint64_t seed = seed_;
  {
    int line_no = 0;
    for (const std::string& raw : Split(blob, '\n')) {
      ++line_no;
      std::string_view trimmed = Trim(raw);
      if (in_churn) {
        if (trimmed == "churn_log end") {
          in_churn = false;
        } else {
          churn_blob << raw << "\n";
        }
        continue;
      }
      if (trimmed == "churn_log begin") {
        if (has_churn) {
          return Status::InvalidArgument(
              "session state line " + std::to_string(line_no) +
              ": duplicate churn_log block");
        }
        has_churn = true;
        in_churn = true;
        continue;
      }
      if (StartsWith(trimmed, "seed ")) {
        if (!ParseUint64(Trim(trimmed.substr(5)), &seed).ok()) {
          return Status::InvalidArgument(
              "session state line " + std::to_string(line_no) + ": bad seed");
        }
        continue;
      }
      directives.emplace_back(line_no, raw);
    }
    if (in_churn) {
      return Status::InvalidArgument(
          "session state: unterminated churn_log block");
    }
  }

  if (has_churn) {
    MUBE_ASSIGN_OR_RETURN(ChurnLog saved, ChurnLog::Parse(churn_blob.str()));
    if (!saved.empty() && delta_universe_ == nullptr) {
      return Status::FailedPrecondition(
          "saved state carries a churn log; restoring it requires a "
          "DeltaUniverse-backed session");
    }
    if (churn_log_.size() > saved.size()) {
      return Status::FailedPrecondition(
          "session has applied more churn than the saved state records");
    }
    // The applied log must be a prefix of the saved one — otherwise this
    // session's catalog diverged and the saved names mean something else.
    const auto applied_end = saved.events().begin() +
                             static_cast<std::ptrdiff_t>(churn_log_.size());
    ChurnLog prefix;
    prefix.Append(std::vector<ChurnEvent>(saved.events().begin(), applied_end));
    MUBE_ASSIGN_OR_RETURN(std::string current_text, churn_log_.Serialize());
    MUBE_ASSIGN_OR_RETURN(std::string prefix_text, prefix.Serialize());
    if (current_text != prefix_text) {
      return Status::FailedPrecondition(
          "session's applied churn diverges from the saved log");
    }
    if (churn_log_.size() < saved.size()) {
      MUBE_RETURN_IF_ERROR(ApplyChurn(
          std::vector<ChurnEvent>(applied_end, saved.events().end())));
    }
  }

  MUBE_RETURN_IF_ERROR(state_.RestoreDirectives(
      mube_->universe(), mube_->config().qefs.size(), directives));
  seed_ = seed;
  return Status::OK();
}

}  // namespace mube
