#ifndef MUBE_CORE_USER_STATE_H_
#define MUBE_CORE_USER_STATE_H_

#include <map>
#include <string>
#include <utility>
#include <vector>

#include "common/status.h"
#include "core/mube.h"
#include "reliability/reliable_executor.h"

/// \file user_state.h
/// The µBE *user state* of paper §6: everything the user edits between
/// iterations — pinned sources, GA constraints, QEF weights, θ, m, the
/// optimizer, the health bias — plus the per-source scan health that
/// recorded executions feed back into selection.
///
/// UserState is a plain value type and the single owner of the rules for
/// that state. Session (core/) drives one over its own engine; Tenant
/// (serving/) guards one with a mutex and builds its RunSpec against
/// whichever epoch the dispatcher leased.
///
/// The state holds source ids, which are stable across churn (a retired
/// source keeps its slot as a tombstone). Pins and GA constraints on
/// since-retired sources are shed by BuildRunSpec, or eagerly by
/// PruneRetired.

namespace mube {

/// \brief Constraint state, problem knobs and observed source health.
class UserState {
 public:
  /// Per-source availability as observed through recorded executions.
  struct SourceHealth {
    size_t scans_ok = 0;
    size_t scans_failed = 0;
    size_t short_circuits = 0;
    /// Last injected fault seen on a failed scan (kNone after a success).
    FaultKind last_fault = FaultKind::kNone;
  };

  /// \name Constraint editing
  /// `universe` is the catalog to validate against. Pinning or constraining
  /// an attribute of a retired source is FailedPrecondition.
  /// @{
  /// Requires source `name`/`id` in the solution (a source constraint).
  /// NotFound for an unknown name, AlreadyExists for a repeated pin.
  Status PinSource(const Universe& universe, const std::string& name);
  Status PinSource(const Universe& universe, uint32_t source_id);
  Status UnpinSource(uint32_t source_id);
  /// Adds a GA constraint. The GA must satisfy Definition 1, name only
  /// attributes of live sources, and not overlap an existing constraint.
  Status AddGaConstraint(const Universe& universe, GlobalAttribute ga);
  void ClearGaConstraints() { ga_constraints_ = MediatedSchema(); }
  void ClearSourcePins() { pinned_sources_.clear(); }
  /// Drops pins and GA constraints that reference retired sources (a GA
  /// constraint goes whole if any member's source was retired).
  void PruneRetired(const Universe& universe);
  /// @}

  /// \name Problem knobs
  /// Every knob starts at "use the engine's configured default". Values
  /// outside the stated ranges, NaN included, are InvalidArgument.
  /// @{
  /// One weight per QEF, each in [0,1], summing to 1.
  Status SetWeights(size_t qef_count, const std::vector<double>& weights);
  /// θ in [0,1].
  Status SetTheta(double theta);
  /// m >= 1.
  Status SetMaxSources(size_t max_sources);
  /// A name MakeOptimizer accepts — checked now, not at the next run.
  Status SetOptimizer(const std::string& name);
  /// Weight of the observed-health QEF (see SourceHealthQef) in [0,1);
  /// 0 keeps reliability feedback out of selection.
  Status SetHealthBias(double weight);
  /// @}

  /// \name Execution health
  /// @{
  /// Folds one resilient execution's scan outcomes into source_health().
  void RecordExecution(const ExecutionReport& report);
  /// Health of each source that has appeared in a recorded execution.
  const std::map<uint32_t, SourceHealth>& source_health() const {
    return source_health_;
  }
  /// Per-source health in [0,1]: successful scans over total scans, with
  /// short-circuits counted as failures (an open breaker is exactly the
  /// signal to select around). Sources never executed against are absent
  /// (treated as healthy).
  std::map<uint32_t, double> HealthScores() const;
  /// @}

  /// Assembles the RunSpec for `universe`: live pins, GA constraints whose
  /// members are all live, the knobs, health feedback when the bias is on,
  /// and `seed`.
  RunSpec BuildRunSpec(const Universe& universe, uint64_t seed) const;

  /// \name Persistence (the v1 session-state directives)
  /// @{
  /// One line each for pins (`pin <source>`), GA constraints
  /// (`ga <source>.<attr>, ...`), and every knob that is set (`weights`,
  /// `theta`, `max_sources`, `optimizer`, `health_bias`), in that order.
  /// Names are resolved against `universe`.
  std::string SerializeDirectives(const Universe& universe) const;
  /// Replaces the constraint state and knobs with those `directives` name,
  /// each validated through its setter; repeated `pin` lines are tolerated.
  /// Blank and `#` lines are skipped. `directives` pairs each raw line with
  /// its 1-based line number for error messages. On error nothing changes.
  /// Source health is not part of the directives and is kept.
  Status RestoreDirectives(
      const Universe& universe, size_t qef_count,
      const std::vector<std::pair<int, std::string>>& directives);
  /// @}

  const std::vector<uint32_t>& pinned_sources() const {
    return pinned_sources_;
  }
  const MediatedSchema& ga_constraints() const { return ga_constraints_; }
  double health_bias() const { return health_bias_; }

 private:
  std::vector<uint32_t> pinned_sources_;  // sorted
  MediatedSchema ga_constraints_;
  std::vector<double> weights_;  // empty = config defaults
  double theta_ = -1.0;          // <0 = config default
  size_t max_sources_ = 0;       // 0 = config default
  std::string optimizer_;        // empty = config default
  double health_bias_ = 0.0;     // 0 = reliability feedback off
  std::map<uint32_t, SourceHealth> source_health_;
};

}  // namespace mube

#endif  // MUBE_CORE_USER_STATE_H_
