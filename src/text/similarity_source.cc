#include "text/similarity_source.h"

#include <algorithm>

namespace mube {

double SimilaritySource::MaxSimilarityOf(size_t i) const {
  float best = 0.0f;
  ForEachNeighborAtLeast(i, neighbor_floor(), [&](size_t, float sim) {
    best = std::max(best, sim);
  });
  return best;
}

void SimilaritySource::PairsWithin(const std::vector<uint32_t>& attrs,
                                   double theta,
                                   std::vector<ThetaEdge>* out) const {
  for (uint32_t a = 0; a < attrs.size(); ++a) {
    // Rows come in ascending j, so one forward cursor over the sorted
    // subset meets every later member the row reaches.
    uint32_t b = a + 1;
    ForEachNeighborAtLeast(attrs[a], theta, [&](size_t j, float sim) {
      while (b < attrs.size() && attrs[b] < j) ++b;
      if (b < attrs.size() && attrs[b] == j) out->push_back({a, b, sim});
    });
  }
}

}  // namespace mube
