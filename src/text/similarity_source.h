#ifndef MUBE_TEXT_SIMILARITY_SOURCE_H_
#define MUBE_TEXT_SIMILARITY_SOURCE_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "text/similarity.h"

/// \file similarity_source.h
/// The similarity-lookup interface Match(S) and its callers program
/// against. Two implementations exist:
///
///  - SimilarityMatrix (text/similarity_matrix.h): the dense O(|A|²)
///    upper-triangular matrix — exact for every pair at any threshold, and
///    the right structure up to a few thousand attributes (the paper's 700
///    sources ≈ 4k attributes ≈ 32 MB).
///  - SparseSimilarityIndex (text/sparse_similarity.h): a blocked sparse
///    index — 3-gram inverted-index + minhash-LSH candidate generation,
///    exact verification, and per-attribute neighbor rows holding only
///    pairs at or above an index threshold θ_index. The only structure
///    that exists at 10⁵–10⁶ sources, where the dense pair count (10¹¹+)
///    is physically unbuildable.
///
/// The engine (core/mube.cc) selects the implementation from
/// MubeConfig::similarity_index; the dense matrix remains the ground truth
/// the sparse index is differential-tested against.

namespace mube {

class Universe;

/// \brief Pairwise attribute-similarity store over a universe's dense
/// global attribute indexes, plus threshold-neighbor enumeration.
///
/// Thread compatibility contract (both implementations): immutable after
/// build — once the constructor, Rebuild, or ApplyChurn returns, every
/// const method may be called from any number of threads without
/// synchronization. The mutators require external exclusion (they are
/// driven single-threaded from the session / snapshot-publish loop).
class SimilaritySource {
 public:
  virtual ~SimilaritySource() = default;

  /// Similarity of global attribute indexes i and j. Symmetric; the
  /// diagonal, same-source pairs, and pairs touching retired sources
  /// return 0. Exact for *every* pair in both implementations (the sparse
  /// index recomputes unstored sub-threshold pairs on demand from its
  /// registered token sets).
  virtual double At(size_t i, size_t j) const = 0;

  /// Number of global attribute slots (retired sources included).
  virtual size_t attribute_count() const = 0;

  /// Largest similarity between attribute i and any other attribute —
  /// for the sparse index, the largest *stored* similarity (exact whenever
  /// the true maximum is ≥ neighbor_floor(), else 0).
  virtual double MaxSimilarityOf(size_t i) const = 0;

  /// Callback for ForEachNeighborAtLeast: (global attribute index j,
  /// similarity as the stored float).
  using NeighborFn = std::function<void(size_t j, float similarity)>;

  /// Invokes `fn` for every attribute j != i with At(i, j) >= theta, in
  /// ascending j order. Complete only for theta >= neighbor_floor();
  /// below the floor the sparse index cannot enumerate (its rows simply
  /// do not hold sub-floor pairs).
  ///
  /// Cost is per implementation and not bounded by the number of
  /// callbacks: the dense matrix reads the whole row, O(attribute_count())
  /// per call at any theta; the sparse index walks only row i's stored
  /// neighbors. Neighbors anywhere in the universe are reported, so a
  /// caller interested in a subset (the Matcher's S) pays for and
  /// discards the rest.
  virtual void ForEachNeighborAtLeast(size_t i, double theta,
                                      const NeighborFn& fn) const = 0;

  /// Smallest theta for which neighbor enumeration is complete: 0 for the
  /// dense matrix, the build-time θ_index for the sparse index. Callers
  /// that enumerate (the Matcher) must reject thresholds below this.
  virtual double neighbor_floor() const = 0;

  /// Recomputes everything in place for the universe's current state
  /// (the fallback when the measure itself is corpus-derived and churn
  /// invalidates every pair). Holders of references survive.
  virtual void Rebuild(const Universe& universe,
                       const SimilarityMeasure& measure,
                       unsigned threads = 1) = 0;

  /// Incrementally reconciles with a universe mutated by churn:
  /// `dirty_sources` must list every source whose attribute set changed.
  /// Both implementations guarantee the result is bit-identical to
  /// Rebuild() on the mutated universe at a fraction of the measure calls.
  virtual void ApplyChurn(const Universe& universe,
                          const SimilarityMeasure& measure,
                          const std::vector<uint32_t>& dirty_sources,
                          unsigned threads = 1) = 0;

  /// Deep copy — the copy-on-write step of epoch forking (Mube::Fork):
  /// flat-buffer copies, never a recomputation.
  virtual std::unique_ptr<SimilaritySource> CloneSource() const = 0;

  /// Heap bytes held by the derived structures (the scaling benches and
  /// the serving metrics gauge read this).
  virtual size_t MemoryBytes() const = 0;

  /// Measure evaluations performed by the last (re)build or churn
  /// application — what blocking and incremental maintenance save.
  virtual size_t last_measure_calls() const = 0;
};

}  // namespace mube

#endif  // MUBE_TEXT_SIMILARITY_SOURCE_H_
