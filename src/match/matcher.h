#ifndef MUBE_MATCH_MATCHER_H_
#define MUBE_MATCH_MATCHER_H_

#include <cstdint>
#include <vector>

#include "common/status.h"
#include "schema/mediated_schema.h"
#include "text/similarity_source.h"

/// \file matcher.h
/// The schema matching operator Match(S) (paper §3, Algorithm 1): greedy
/// constrained similarity clustering over the attributes of a set of
/// sources, producing the automatically generated mediated schema M and its
/// matching-quality value F1(S).
///
/// The Matcher programs against the SimilaritySource interface, not a
/// concrete store: small universes hand it the dense SimilarityMatrix,
/// internet-scale ones the blocked SparseSimilarityIndex (the engine picks;
/// see MubeConfig::similarity_index). Candidate cluster pairs are found by
/// enumerating each member attribute's θ-neighbors instead of scanning all
/// cluster pairs — identical output (a cluster pair can only clear θ if
/// some cross pair does, under either linkage). The enumeration runs over
/// the whole universe and the Matcher discards neighbors outside S, so its
/// cost is set by the backend, not by the above-θ pairs inside S: the
/// dense matrix scans the full row, O(|A_U|) per enumerated attribute and
/// O(|A_S|·|A_U|) per Match(S); the sparse index walks only each row's
/// stored neighbors. On the paper workload the dense enumeration delivers
/// 0.67·|A_S|² neighbors per Match(S) at |U|=100 and 1.86·|A_S|² at
/// |U|=300 (perfbench's match.visits_per_as2), on top of the row scans.
/// Because it enumerates, Match requires θ ≥
/// SimilaritySource::neighbor_floor() and rejects lower thresholds, which
/// the dense matrix (floor 0) never triggers.
///
/// Properties guaranteed by construction (and asserted by the test suite):
///  - every emitted GA is valid (≤ 1 attribute per source, Definition 1);
///  - GAs are pairwise disjoint (Definition 2);
///  - every non-constraint GA has ≥ 2 attributes and quality ≥ θ;
///  - GA constraints from G survive verbatim-or-grown (G ⊑ M), even when
///    their internal similarity is below θ — this is the "matching by
///    example" bridging behaviour of Figure 3;
///  - if the result cannot satisfy the source constraints C (some source in
///    C contributes no attribute to any GA), Match reports infeasibility,
///    mirroring the NULL/0-quality return of Algorithm 1.

namespace mube {

/// How the similarity of two *clusters* is derived from attribute-pair
/// similarities.
enum class ClusterLinkage {
  /// The paper's choice (§3): max over cross-cluster attribute pairs. This
  /// is what lets a GA constraint bridge dissimilar attributes — new
  /// members join via their best match and are "not penalized by the
  /// presence" of the dissimilar one.
  kMax,
  /// Ablation: mean over cross-cluster pairs. Dissimilar constraint
  /// members drag the cluster's similarity to everything down, killing the
  /// bridging effect (see bench/ablation_linkage).
  kAverage,
};

/// \brief Knobs of one Match(S) invocation.
struct MatchOptions {
  /// Matching threshold θ: the minimum cluster-pair similarity that permits
  /// a merge, and hence a lower bound on the quality of every
  /// non-constraint GA. Paper default (§7.1): 0.75.
  double theta = 0.75;
  /// Minimum number of attributes β in any non-constraint output GA
  /// (problem constraint in §2.5). The clustering itself never produces
  /// singleton non-constraint GAs, so β ≤ 2 is a no-op; larger values
  /// filter smaller GAs out of M after clustering converges.
  size_t beta = 2;
  /// Cluster-similarity linkage; kMax is the paper's algorithm.
  ClusterLinkage linkage = ClusterLinkage::kMax;
};

/// \brief Output of Match(S).
struct MatchResult {
  /// False iff no matching satisfies both θ and the source constraints for
  /// this S (Algorithm 1 line 24 returning NULL). When false, `schema` is
  /// empty and `quality` is 0 — the overall-quality evaluator treats the
  /// subset as worthless, steering the optimizer away.
  bool feasible = false;
  /// The generated mediated schema M (constraint GAs included, possibly
  /// grown).
  MediatedSchema schema;
  /// F1(S): mean per-GA quality over M; 0 if M is empty or infeasible.
  double quality = 0.0;
  /// Per-GA quality, parallel to schema.gas(): the maximum similarity
  /// between any two attributes of the GA (0 for single-attribute
  /// constraint GAs).
  std::vector<double> ga_quality;
};

/// \brief Stateless executor of Algorithm 1 over a precomputed similarity
/// source (dense matrix or sparse index). One Matcher serves any number of
/// Match calls with any subsets and constraint sets; it holds only const
/// references.
class Matcher {
 public:
  /// Both referents must outlive the Matcher.
  Matcher(const Universe& universe, const SimilaritySource& similarity);

  /// Runs Match(S, C, G).
  ///
  /// \param source_ids        the subset S (need not be sorted; duplicates
  ///                          are an error)
  /// \param options           θ and β
  /// \param source_constraints C — sources that must be covered by M; they
  ///                          must all be members of S (the optimizer
  ///                          guarantees C ⊆ S, see §3)
  /// \param ga_constraints    G — a partial mediated schema; every GA must
  ///                          be valid and reference attributes of sources
  ///                          in S
  /// Returns InvalidArgument for malformed inputs — including a theta
  /// below the similarity source's neighbor_floor(), where sparse neighbor
  /// enumeration could silently miss merges; an infeasible matching is NOT
  /// an error (see MatchResult::feasible).
  Result<MatchResult> Match(const std::vector<uint32_t>& source_ids,
                            const MatchOptions& options,
                            const std::vector<uint32_t>& source_constraints,
                            const MediatedSchema& ga_constraints) const;

  /// Convenience overload: no constraints.
  Result<MatchResult> Match(const std::vector<uint32_t>& source_ids,
                            const MatchOptions& options) const {
    return Match(source_ids, options, {}, MediatedSchema());
  }

 private:
  const Universe& universe_;
  const SimilaritySource& similarity_;
};

}  // namespace mube

#endif  // MUBE_MATCH_MATCHER_H_
