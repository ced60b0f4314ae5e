#include "match/matcher.h"

#include <algorithm>
#include <map>
#include <queue>
#include <utility>

#include "common/logging.h"
#include "schema/universe.h"

namespace mube {

namespace {

/// One cluster of Algorithm 1: a candidate GA plus the bookkeeping flags the
/// algorithm uses across iterations.
struct Cluster {
  /// Members as positions into the Match call's sorted A_S, unsorted.
  std::vector<uint32_t> attrs;
  /// Source ids of the members, sorted — merge validity (Definition 1) is a
  /// disjointness test on these.
  std::vector<uint32_t> sources;
  bool keep = false;        ///< Came from a GA constraint; never eliminated.
  bool merged = false;      ///< Consumed by a merge this iteration.
  bool merge_cand = false;  ///< Had a viable partner that merged elsewhere.
  bool newly_merged = false;  ///< Produced by a merge this iteration.
  bool alive = true;          ///< Still under consideration.
};

bool SourcesDisjoint(const std::vector<uint32_t>& a,
                     const std::vector<uint32_t>& b) {
  auto ia = a.begin();
  auto ib = b.begin();
  while (ia != a.end() && ib != b.end()) {
    if (*ia == *ib) return false;
    if (*ia < *ib) {
      ++ia;
    } else {
      ++ib;
    }
  }
  return true;
}

/// Average-linkage similarity between two clusters (the ablation; the
/// paper's max linkage is read off the θ-edges instead). `attrs` maps the
/// clusters' positions to global attribute indexes.
double AverageLinkage(const SimilaritySource& sim,
                      const std::vector<uint32_t>& attrs, const Cluster& a,
                      const Cluster& b) {
  double sum = 0.0;
  for (uint32_t i : a.attrs) {
    for (uint32_t j : b.attrs) sum += sim.At(attrs[i], attrs[j]);
  }
  return sum / static_cast<double>(a.attrs.size() * b.attrs.size());
}

/// Max pairwise similarity *within* a cluster — the per-GA quality measure.
double IntraClusterQuality(const SimilaritySource& sim,
                           const std::vector<uint32_t>& attrs,
                           const Cluster& c) {
  double best = 0.0;
  for (size_t i = 0; i < c.attrs.size(); ++i) {
    for (size_t j = i + 1; j < c.attrs.size(); ++j) {
      best = std::max(best, sim.At(attrs[c.attrs[i]], attrs[c.attrs[j]]));
    }
  }
  return best;
}

struct HeapEntry {
  double similarity;
  uint32_t c1;
  uint32_t c2;
  bool operator<(const HeapEntry& other) const {
    // std::priority_queue is a max-heap on operator<; tie-break on ids for
    // deterministic pop order.
    if (similarity != other.similarity) return similarity < other.similarity;
    if (c1 != other.c1) return c1 > other.c1;
    return c2 > other.c2;
  }
};

}  // namespace

std::vector<ThetaEdge> ThetaEdgesWithin(const SimilaritySource& similarity,
                                        const std::vector<uint32_t>& attrs,
                                        double theta) {
  std::vector<ThetaEdge> edges;
  similarity.PairsWithin(attrs, theta, &edges);
  return edges;
}

Matcher::Matcher(const Universe& universe, const SimilaritySource& similarity)
    : universe_(universe), similarity_(similarity) {}

Result<MatchResult> Matcher::Match(
    const std::vector<uint32_t>& source_ids, const MatchOptions& options,
    const std::vector<uint32_t>& source_constraints,
    const MediatedSchema& ga_constraints) const {
  // ---- Input validation -------------------------------------------------
  const double neighbor_floor = similarity_.neighbor_floor();
  if (!(options.theta >= 0.0 && options.theta <= 1.0)) {  // rejects NaN too
    return Status::InvalidArgument("theta must be in [0, 1]");
  }
  if (options.theta < neighbor_floor) {
    return Status::InvalidArgument(
        "theta " + std::to_string(options.theta) +
        " is below the similarity source's neighbor floor " +
        std::to_string(neighbor_floor) +
        "; a sparse index cannot enumerate pairs under its index_theta — "
        "rebuild it with a lower SparseIndexOptions::index_theta");
  }
  // S sorted: membership is a binary search. Errors are reported at the
  // first offending position of the caller's order.
  std::vector<uint32_t> sorted_s = source_ids;
  std::sort(sorted_s.begin(), sorted_s.end());
  const bool has_duplicate =
      std::adjacent_find(sorted_s.begin(), sorted_s.end()) != sorted_s.end();
  for (auto it = source_ids.begin(); it != source_ids.end(); ++it) {
    if (*it >= universe_.size()) {
      return Status::InvalidArgument("source id out of range: " +
                                     std::to_string(*it));
    }
    if (has_duplicate && std::find(source_ids.begin(), it, *it) != it) {
      return Status::InvalidArgument("duplicate source id in S: " +
                                     std::to_string(*it));
    }
  }
  const auto in_s = [&](uint32_t sid) {
    return std::binary_search(sorted_s.begin(), sorted_s.end(), sid);
  };
  for (uint32_t sid : source_constraints) {
    if (!in_s(sid)) {
      return Status::InvalidArgument(
          "source constraint " + std::to_string(sid) +
          " is not in S; callers must ensure C subset-of S");
    }
  }
  if (!ga_constraints.IsWellFormed() && !ga_constraints.empty()) {
    return Status::InvalidArgument("GA constraints are not well-formed");
  }
  for (const GlobalAttribute& g : ga_constraints.gas()) {
    for (const AttributeRef& ref : g.members()) {
      if (!universe_.Contains(ref)) {
        return Status::InvalidArgument("GA constraint references unknown " +
                                       ref.ToString());
      }
      if (!in_s(ref.source_id)) {
        return Status::InvalidArgument(
            "GA constraint references source " +
            std::to_string(ref.source_id) + " outside S");
      }
    }
  }

  // ---- θ-edges of A_S: the only pair read of this call -----------------
  // A_S in ascending global index (global indexes ascend with source id),
  // clusters refer to positions in it.
  std::vector<uint32_t> attrs;
  for (uint32_t sid : sorted_s) {
    for (uint32_t a = 0; a < universe_.source(sid).attribute_count(); ++a) {
      attrs.push_back(static_cast<uint32_t>(
          universe_.GlobalAttrIndex(AttributeRef(sid, a))));
    }
  }
  const auto position = [&](const AttributeRef& ref) {
    const auto it = std::lower_bound(attrs.begin(), attrs.end(),
                                     universe_.GlobalAttrIndex(ref));
    return static_cast<uint32_t>(it - attrs.begin());
  };
  const std::vector<ThetaEdge> edges =
      ThetaEdgesWithin(similarity_, attrs, options.theta);

  // ---- Initialization (Algorithm 1, lines 1-4) ---------------------------
  std::vector<Cluster> clusters;
  std::vector<char> constrained(attrs.size(), 0);  // member of a GA in G

  for (const GlobalAttribute& g : ga_constraints.gas()) {
    Cluster c;
    c.keep = true;
    for (const AttributeRef& ref : g.members()) {
      const uint32_t p = position(ref);
      c.attrs.push_back(p);
      c.sources.push_back(ref.source_id);
      constrained[p] = 1;
    }
    std::sort(c.sources.begin(), c.sources.end());
    clusters.push_back(std::move(c));
  }

  for (uint32_t sid : source_ids) {
    for (uint32_t a = 0; a < universe_.source(sid).attribute_count(); ++a) {
      const uint32_t p = position(AttributeRef(sid, a));
      if (constrained[p]) continue;
      Cluster c;
      c.attrs.push_back(p);
      c.sources.push_back(sid);
      clusters.push_back(std::move(c));
    }
  }

  // Clusters frozen out of consideration but already representing a GA
  // (grew to >= 2 members, then ran out of viable partners).
  std::vector<Cluster> frozen;

  // Position in A_S → live-cluster index, refreshed each iteration.
  constexpr uint32_t kNoCluster = UINT32_MAX;
  std::vector<uint32_t> cluster_of(attrs.size());

  // ---- Main loop (Algorithm 1, lines 5-23) -------------------------------
  bool done = false;
  while (!done) {
    done = true;
    for (Cluster& c : clusters) {
      c.merged = c.merge_cand = c.newly_merged = false;
    }

    // Line 8: all live cluster pairs with similarity >= theta, best first.
    // Candidate pairs are the clusters joined by a θ-edge rather than a k²
    // cluster-pair scan: under either linkage a cluster pair can only
    // reach θ if some cross attribute pair does (max ≥ average), so the
    // candidate set — and with it the heap contents — is identical to the
    // exhaustive scan whenever the edges are complete (θ ≥ the source's
    // neighbor floor, validated above). Every cluster in `clusters` is
    // live here: the previous iteration compacted the dead ones away.
    std::fill(cluster_of.begin(), cluster_of.end(), kNoCluster);
    for (uint32_t i = 0; i < clusters.size(); ++i) {
      for (uint32_t p : clusters[i].attrs) cluster_of[p] = i;
    }
    // kMax: the cluster similarity is the max cross pair, every cross pair
    // ≥ θ is an edge, so the running max over edges IS the cluster
    // similarity (the paper's definition, §3). kAverage: the edge only
    // nominates the pair; the average needs the sub-θ pairs too and is
    // computed exactly via At().
    // std::map keys keep candidate pairs in deterministic (c1, c2) order.
    std::map<std::pair<uint32_t, uint32_t>, double> candidates;
    for (const ThetaEdge& e : edges) {
      const uint32_t i = cluster_of[e.a];
      const uint32_t j = cluster_of[e.b];
      if (i == kNoCluster || j == kNoCluster || i == j) continue;
      double& best = candidates[std::minmax(i, j)];
      best = std::max(best, static_cast<double>(e.similarity));
    }
    std::priority_queue<HeapEntry> heap;
    for (const auto& [pair, max_sim] : candidates) {
      const double s =
          options.linkage == ClusterLinkage::kMax
              ? max_sim
              : AverageLinkage(similarity_, attrs, clusters[pair.first],
                               clusters[pair.second]);
      if (s >= options.theta) heap.push(HeapEntry{s, pair.first, pair.second});
    }

    // Lines 9-19.
    while (!heap.empty()) {
      const HeapEntry top = heap.top();
      heap.pop();
      Cluster& c1 = clusters[top.c1];
      Cluster& c2 = clusters[top.c2];
      if (!c1.merged && !c2.merged) {
        if (SourcesDisjoint(c1.sources, c2.sources)) {
          // Merge c1 and c2 into a new cluster (lines 13-14).
          Cluster merged;
          merged.keep = c1.keep || c2.keep;
          merged.newly_merged = true;
          merged.attrs = c1.attrs;
          merged.attrs.insert(merged.attrs.end(), c2.attrs.begin(),
                              c2.attrs.end());
          merged.sources.resize(c1.sources.size() + c2.sources.size());
          std::merge(c1.sources.begin(), c1.sources.end(),
                     c2.sources.begin(), c2.sources.end(),
                     merged.sources.begin());
          c1.merged = c2.merged = true;
          c1.alive = c2.alive = false;
          clusters.push_back(std::move(merged));
          // The merged cluster may itself have viable partners; another
          // pass is required ("until no more pairs to merge").
          done = false;
        }
        // An invalid (source-overlapping) pair is simply skipped; overlap
        // can never disappear, so it is not a reason to re-iterate.
      } else if (c1.merged != c2.merged) {
        // Lines 15-19: exactly one endpoint was consumed by an earlier
        // merge this iteration; the other endpoint keeps its seat for the
        // next iteration.
        Cluster& survivor = c1.merged ? c2 : c1;
        survivor.merge_cand = true;
        done = false;
      }
    }

    // Lines 20-22: prune clusters that can no longer participate. A pruned
    // cluster that already represents a matching (>= 2 attributes) is a
    // finished GA and moves to the output set; pruned singletons vanish.
    for (Cluster& c : clusters) {
      if (!c.alive || c.newly_merged || c.merge_cand || c.keep) continue;
      c.alive = false;
      if (c.attrs.size() >= 2) frozen.push_back(c);
    }

    // Compact the working set to the live clusters.
    std::erase_if(clusters, [](const Cluster& c) { return !c.alive; });
  }

  // Survivors of the final iteration: keep clusters, and any cluster with
  // >= 2 members (they were retained as merge candidates or just merged).
  for (Cluster& c : clusters) {
    if (c.keep || c.attrs.size() >= 2) frozen.push_back(std::move(c));
  }

  // ---- Assemble M and apply the beta constraint --------------------------
  MatchResult result;
  for (const Cluster& c : frozen) {
    if (!c.keep && c.attrs.size() < std::max<size_t>(options.beta, 2)) {
      continue;  // beta bound applies only to non-constraint GAs (§2.5)
    }
    std::vector<AttributeRef> members;
    members.reserve(c.attrs.size());
    for (uint32_t p : c.attrs) {
      members.push_back(universe_.RefFromGlobalIndex(attrs[p]));
    }
    GlobalAttribute ga(std::move(members));
    MUBE_DCHECK(ga.IsValid());
    result.ga_quality.push_back(IntraClusterQuality(similarity_, attrs, c));
    result.schema.Add(std::move(ga));
  }

  // ---- Feasibility: M must be valid on C (line 24) ------------------------
  // M is valid and disjoint by construction (Definitions 1-2), so only the
  // coverage of C is left: every source of C is touched by some GA.
  result.feasible = std::all_of(
      source_constraints.begin(), source_constraints.end(), [&](uint32_t sid) {
        return std::any_of(result.schema.gas().begin(),
                           result.schema.gas().end(),
                           [sid](const GlobalAttribute& g) {
                             return g.TouchesSource(sid);
                           });
      });
  if (!result.feasible) {
    return MatchResult{};  // NULL schema, 0 quality
  }

  if (!result.schema.empty()) {
    double sum = 0.0;
    for (double q : result.ga_quality) sum += q;
    result.quality = sum / static_cast<double>(result.ga_quality.size());
  }
  return result;
}

}  // namespace mube
