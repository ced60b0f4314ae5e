#include "match/naive_matcher.h"

#include <algorithm>
#include <numeric>

#include "match/matcher.h"
#include "schema/universe.h"

namespace mube {

namespace {
/// Plain union-find with path compression over local indexes.
class UnionFind {
 public:
  explicit UnionFind(size_t n) : parent_(n) {
    std::iota(parent_.begin(), parent_.end(), 0);
  }
  size_t Find(size_t x) {
    while (parent_[x] != x) {
      parent_[x] = parent_[parent_[x]];
      x = parent_[x];
    }
    return x;
  }
  void Union(size_t a, size_t b) { parent_[Find(a)] = Find(b); }

 private:
  std::vector<size_t> parent_;
};
}  // namespace

NaiveMatchResult NaiveComponentsMatch(
    const Universe& universe, const SimilaritySource& similarity,
    const std::vector<uint32_t>& source_ids, double theta) {
  // The global attribute indexes of S, ascending.
  std::vector<uint32_t> attrs;
  for (uint32_t sid : source_ids) {
    for (uint32_t a = 0; a < universe.source(sid).attribute_count(); ++a) {
      attrs.push_back(static_cast<uint32_t>(
          universe.GlobalAttrIndex(AttributeRef(sid, a))));
    }
  }
  std::sort(attrs.begin(), attrs.end());

  UnionFind uf(attrs.size());
  if (theta >= similarity.neighbor_floor()) {
    // The θ-edges are exactly the pairs ≥ theta, so the components match
    // the exhaustive scan (up to candidate recall on a sparse index).
    for (const ThetaEdge& e : ThetaEdgesWithin(similarity, attrs, theta)) {
      uf.Union(e.a, e.b);
    }
  } else {
    // Below the floor a sparse index cannot enumerate; exhaustive At() is
    // exact on every implementation (the sparse fallback recomputes).
    for (size_t i = 0; i < attrs.size(); ++i) {
      for (size_t j = i + 1; j < attrs.size(); ++j) {
        if (similarity.At(attrs[i], attrs[j]) >= theta) uf.Union(i, j);
      }
    }
  }

  std::vector<std::vector<size_t>> members_of(attrs.size());  // by root
  for (size_t i = 0; i < attrs.size(); ++i) {
    members_of[uf.Find(i)].push_back(i);
  }

  NaiveMatchResult result;
  double quality_sum = 0.0;
  // GAs in order of their smallest member: attrs is ascending, so each
  // component is emitted at its first member.
  for (size_t i = 0; i < attrs.size(); ++i) {
    const std::vector<size_t>& members = members_of[uf.Find(i)];
    if (members.size() < 2 || members.front() != i) continue;
    std::vector<AttributeRef> refs;
    double best = 0.0;
    for (size_t li : members) {
      refs.push_back(universe.RefFromGlobalIndex(attrs[li]));
      for (size_t lj : members) {
        if (li < lj) {
          best = std::max(best, similarity.At(attrs[li], attrs[lj]));
        }
      }
    }
    GlobalAttribute ga(std::move(refs));
    if (!ga.IsValid()) ++result.invalid_gas;
    quality_sum += best;
    result.schema.Add(std::move(ga));
  }
  if (!result.schema.empty()) {
    result.quality =
        quality_sum / static_cast<double>(result.schema.size());
  }
  return result;
}

}  // namespace mube
