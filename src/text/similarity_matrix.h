#ifndef MUBE_TEXT_SIMILARITY_MATRIX_H_
#define MUBE_TEXT_SIMILARITY_MATRIX_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "schema/attribute.h"
#include "text/similarity.h"
#include "text/similarity_source.h"

/// \file similarity_matrix.h
/// Precomputed pairwise attribute similarities over a whole universe — the
/// *dense* implementation of the SimilaritySource interface.
/// Match(S) is invoked thousands of times by the optimizer with different
/// subsets S, but the pairwise similarity of two attributes never changes,
/// so it pays to precompute. How much to precompute is a scale decision:
/// this matrix materializes the full |A| × |A| upper triangle — exact for
/// every pair at any threshold — which is the right structure for
/// universes up to a few thousand attributes (the paper's 700 sources).
/// Past that the O(|A|²) build and footprint are infeasible, and the
/// engine selects SparseSimilarityIndex (text/sparse_similarity.h)
/// instead, which stores only candidate pairs at or above a threshold; see
/// MubeConfig::similarity_index for the selection rule. The dense matrix
/// remains the ground truth the sparse index is differential-tested
/// against.
///
/// Attributes of the same source are never compared (a valid GA cannot
/// contain two of them), so their entries are fixed at 0. Attributes of
/// retired sources (see Universe::RetireSource) are likewise fixed at 0 —
/// they keep their rows so live attribute indexes never shift, but must
/// not attract merges or inflate pruning bounds.
///
/// Under source churn the matrix is maintained *incrementally*: only pairs
/// touching a changed source are re-evaluated with the measure; all other
/// entries are copied bit-for-bit (see ApplyChurn), so an incrementally
/// maintained matrix is exactly identical to a from-scratch rebuild of the
/// mutated universe.

namespace mube {

class Universe;

/// \brief Upper-triangular float matrix of attribute similarities, indexed
/// by the universe's dense global attribute indexes.
///
/// Thread compatibility: immutable after build. Once the constructor (or
/// Rebuild/ApplyChurn) returns, every method is const and the object may be
/// read from any number of threads without synchronization — the parallel
/// optimizer relies on this. The mutators themselves require external
/// exclusion (they are driven single-threaded from the session loop) and
/// internally fan out over an owned ThreadPool with disjoint writes.
class SimilarityMatrix : public SimilaritySource {
 public:
  /// Computes all cross-source pairwise similarities with `measure`.
  /// O(|A|²) similarity calls; for the paper's largest setting (700 sources,
  /// ≈5 attributes each) that is ≈6M 3-gram Jaccard evaluations. The
  /// computation is embarrassingly parallel and deterministic: `threads` >
  /// 1 splits the rows across that many workers, 0 uses the hardware
  /// concurrency, 1 (default) stays single-threaded. The result is
  /// bit-identical for any thread count.
  SimilarityMatrix(const Universe& universe,
                   const SimilarityMeasure& measure, unsigned threads = 1);

  /// Recomputes the whole matrix in place for the universe's current state.
  /// Equivalent to constructing a fresh matrix; exists so holders of
  /// references to this object (the Matcher) survive a full refresh — the
  /// fallback when the measure itself is corpus-derived and churn
  /// invalidates every pair.
  void Rebuild(const Universe& universe, const SimilarityMeasure& measure,
               unsigned threads = 1) override;

  /// Incrementally reconciles the matrix with a universe mutated by churn.
  /// `dirty_sources` must list every source whose attribute set changed:
  /// sources added since the last (re)build, retired sources, and sources
  /// whose attributes were renamed. Only pairs with at least one endpoint
  /// in a dirty source are re-evaluated with `measure`; every other entry
  /// is copied unchanged, so the result is bit-identical to Rebuild() on
  /// the mutated universe at a fraction of the similarity calls.
  void ApplyChurn(const Universe& universe, const SimilarityMeasure& measure,
                  const std::vector<uint32_t>& dirty_sources,
                  unsigned threads = 1) override;

  /// Similarity of global attribute indexes i and j. Symmetric;
  /// same-source pairs and the diagonal return 0 (they can never co-occur
  /// in a GA, and clustering must not try to merge them).
  double At(size_t i, size_t j) const override {
    if (i == j) return 0.0;
    if (i > j) std::swap(i, j);
    return values_[Offset(i, j)];
  }

  size_t attribute_count() const override { return n_; }

  /// Full-row scan: every j with At(i, j) >= theta, ascending. Complete at
  /// any theta (the matrix holds every pair), hence a floor of 0.
  void ForEachNeighborAtLeast(size_t i, double theta,
                              const NeighborFn& fn) const override;
  double neighbor_floor() const override { return 0.0; }

  /// Direct packed-cell reads: for each attrs[a], the row's base offset
  /// once, then one cell per later element — |attrs|(|attrs|−1)/2 reads,
  /// no row scan and no callback. Same `double(cell) >= theta` test as the
  /// row scan, so the edges equal the base row walk bitwise at every
  /// theta (at 0, zero and same-source pairs included).
  void PairsWithin(const std::vector<uint32_t>& attrs, double theta,
                   std::vector<ThetaEdge>* out) const override;

  std::unique_ptr<SimilaritySource> CloneSource() const override {
    return std::make_unique<SimilarityMatrix>(*this);
  }

  size_t MemoryBytes() const override {
    return values_.capacity() * sizeof(float);
  }

  /// Measure evaluations performed by the last (re)build or churn
  /// application — what incremental maintenance saves.
  size_t last_measure_calls() const override { return last_measure_calls_; }

 private:
  // Index into the packed strict upper triangle for i < j.
  size_t Offset(size_t i, size_t j) const {
    return i * n_ - i * (i + 1) / 2 + (j - i - 1);
  }

  /// Shared fill: computes pairs with a dirty endpoint, copies the rest
  /// from the previous packed triangle (`old_values` over `old_n`
  /// attributes). A full rebuild passes an empty previous state, which
  /// marks every pair dirty. Same-source and retired-source pairs are 0.
  void Recompute(const Universe& universe, const SimilarityMeasure& measure,
                 const std::vector<bool>& dirty_attrs,
                 const std::vector<float>& old_values, size_t old_n,
                 unsigned threads);

  size_t n_ = 0;
  std::vector<float> values_;
  size_t last_measure_calls_ = 0;
};

}  // namespace mube

#endif  // MUBE_TEXT_SIMILARITY_MATRIX_H_
