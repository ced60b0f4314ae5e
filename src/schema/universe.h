#ifndef MUBE_SCHEMA_UNIVERSE_H_
#define MUBE_SCHEMA_UNIVERSE_H_

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "common/status.h"
#include "schema/attribute.h"
#include "schema/source.h"

/// \file universe.h
/// The universe U = {s_1, ..., s_N}: the catalog of all candidate sources
/// from which µBE selects a solution (paper §2.1). The universe also assigns
/// a dense *global attribute index* to every (source, attribute) pair so the
/// similarity layer can precompute a flat pairwise matrix.
///
/// Source churn (src/dynamic) retires sources instead of erasing them: a
/// retired source keeps its id and its slot in the global attribute index —
/// so every surviving source id and attribute index stays stable across
/// churn and the similarity matrix never needs reindexing — but sheds its
/// tuples, contributes nothing to the cardinality totals, and is skipped by
/// the optimizers. Retired slots are never reused; new sources always get
/// fresh ids at the end.

namespace mube {

/// \brief Owning catalog of sources. Source ids are dense indexes into the
/// universe and are assigned by AddSource.
class Universe {
 public:
  Universe() = default;

  // Movable but not copyable: benchmarks hold universes with millions of
  // tuple ids, and accidental copies would dominate memory.
  Universe(const Universe&) = delete;
  Universe& operator=(const Universe&) = delete;
  Universe(Universe&&) = default;
  Universe& operator=(Universe&&) = default;

  /// Explicit deep copy — the one deliberate way to duplicate a catalog.
  /// The epoch-based snapshot layer (src/serving) clones the current
  /// universe, applies churn to the clone, and publishes it while readers
  /// keep using the original; ids, tombstones, and the attribute index are
  /// preserved bit-for-bit so every derived structure remains valid against
  /// the clone.
  Universe Clone() const;

  /// Adds a source and assigns it the next dense id (overwriting any id the
  /// caller set). Returns the assigned id. O(1): appends one attribute
  /// offset and adds to the totals. Sources should be fully built
  /// (attributes + tuples) before insertion; if one is mutated afterwards
  /// via mutable_source(), call RefreshStatistics() to rebuild the attribute
  /// index and cardinality totals.
  uint32_t AddSource(Source source);

  /// Recomputes the global attribute index and total cardinality from
  /// scratch after in-place mutation of sources.
  void RefreshStatistics() { RebuildIndex(); }

  /// Marks a source as removed from the universe. Its slot (id, attribute
  /// index range) survives as a tombstone so derived per-attribute state
  /// stays valid, but the source stops shipping tuples, counts for nothing
  /// in the cardinality totals, and must never appear in a solution.
  /// Retiring an already-retired source is a no-op. O(1): the retired
  /// source's cardinality leaves the total; the attribute index is
  /// unchanged.
  void RetireSource(uint32_t id);

  /// False iff the source was retired. Out-of-range ids are not alive.
  bool alive(uint32_t id) const {
    return id < alive_.size() && alive_[id];
  }

  /// Number of live (non-retired) sources.
  size_t alive_count() const { return alive_count_; }

  /// Ids of all live sources, ascending.
  std::vector<uint32_t> AliveSourceIds() const;

  /// Number of source slots, retired ones included. Dense ids live in
  /// [0, size()).
  size_t size() const { return sources_.size(); }
  bool empty() const { return sources_.empty(); }

  const Source& source(uint32_t id) const { return sources_[id]; }
  Source& mutable_source(uint32_t id) { return sources_[id]; }
  const std::vector<Source>& sources() const { return sources_; }

  /// Id of the source named `name`, if present (linear scan; catalogs are
  /// hundreds to a few thousands of entries, paper §2.1). Live sources are
  /// preferred; a retired source is only reported when no live source
  /// carries the name.
  std::optional<uint32_t> FindSource(const std::string& name) const;

  /// Looks up an attribute by reference. CHECK-fails on out-of-range refs —
  /// an AttributeRef that does not resolve is a programming error.
  const Attribute& attribute(const AttributeRef& ref) const;

  /// True iff `ref` resolves within this universe.
  bool Contains(const AttributeRef& ref) const;

  /// \name Dense global attribute indexing
  /// Every (source, attribute) pair receives a stable flat index in
  /// [0, total_attribute_count()), in source-id order then attribute order.
  /// @{
  size_t total_attribute_count() const { return attr_offsets_.empty() ? 0 : total_attrs_; }
  size_t GlobalAttrIndex(const AttributeRef& ref) const;
  AttributeRef RefFromGlobalIndex(size_t global_index) const;
  /// @}

  /// Total number of tuples Σ|s| over all live sources (denominator of the
  /// Card QEF).
  uint64_t total_cardinality() const { return total_cardinality_; }

 private:
  void RebuildIndex();

  std::vector<Source> sources_;
  std::vector<bool> alive_;           // parallel to sources_
  size_t alive_count_ = 0;
  std::vector<size_t> attr_offsets_;  // attr_offsets_[i] = flat index of s_i.a_0
  size_t total_attrs_ = 0;
  uint64_t total_cardinality_ = 0;
};

}  // namespace mube

#endif  // MUBE_SCHEMA_UNIVERSE_H_
