#include "schema/universe.h"

#include <algorithm>

#include "common/logging.h"

namespace mube {

Universe Universe::Clone() const {
  Universe copy;
  copy.sources_ = sources_;
  copy.alive_ = alive_;
  copy.alive_count_ = alive_count_;
  copy.attr_offsets_ = attr_offsets_;
  copy.total_attrs_ = total_attrs_;
  copy.total_cardinality_ = total_cardinality_;
  return copy;
}

uint32_t Universe::AddSource(Source source) {
  const uint32_t id = static_cast<uint32_t>(sources_.size());
  source.id_ = id;
  attr_offsets_.push_back(total_attrs_);
  total_attrs_ += source.attribute_count();
  total_cardinality_ += source.cardinality();
  sources_.push_back(std::move(source));
  alive_.push_back(true);
  ++alive_count_;
  return id;
}

void Universe::RetireSource(uint32_t id) {
  MUBE_CHECK(id < sources_.size());
  if (!alive_[id]) return;
  alive_[id] = false;
  --alive_count_;
  // Shed the data: a retired source contributes no tuples and no
  // cardinality; only the schema stays, to keep attribute indexes stable.
  Source& s = sources_[id];
  total_cardinality_ -= s.cardinality();
  s.tuples_.clear();
  s.tuples_.shrink_to_fit();
  s.has_tuples_ = false;
  s.cardinality_ = 0;
}

std::vector<uint32_t> Universe::AliveSourceIds() const {
  std::vector<uint32_t> ids;
  ids.reserve(alive_count_);
  for (uint32_t id = 0; id < sources_.size(); ++id) {
    if (alive_[id]) ids.push_back(id);
  }
  return ids;
}

void Universe::RebuildIndex() {
  attr_offsets_.resize(sources_.size());
  size_t offset = 0;
  uint64_t cardinality = 0;
  for (size_t i = 0; i < sources_.size(); ++i) {
    attr_offsets_[i] = offset;
    offset += sources_[i].attribute_count();
    if (alive_[i]) cardinality += sources_[i].cardinality();
  }
  total_attrs_ = offset;
  total_cardinality_ = cardinality;
}

std::optional<uint32_t> Universe::FindSource(const std::string& name) const {
  std::optional<uint32_t> retired_match;
  for (const Source& s : sources_) {
    if (s.name() != name) continue;
    if (alive(s.id())) return s.id();
    if (!retired_match.has_value()) retired_match = s.id();
  }
  return retired_match;
}

const Attribute& Universe::attribute(const AttributeRef& ref) const {
  MUBE_CHECK(Contains(ref));
  return sources_[ref.source_id].attribute(ref.attr_index);
}

bool Universe::Contains(const AttributeRef& ref) const {
  return ref.source_id < sources_.size() &&
         ref.attr_index < sources_[ref.source_id].attribute_count();
}

size_t Universe::GlobalAttrIndex(const AttributeRef& ref) const {
  MUBE_CHECK(Contains(ref));
  return attr_offsets_[ref.source_id] + ref.attr_index;
}

AttributeRef Universe::RefFromGlobalIndex(size_t global_index) const {
  MUBE_CHECK(global_index < total_attrs_);
  auto it = std::upper_bound(attr_offsets_.begin(), attr_offsets_.end(),
                             global_index);
  const uint32_t source_id = static_cast<uint32_t>(
      std::distance(attr_offsets_.begin(), it) - 1);
  return AttributeRef(
      source_id,
      static_cast<uint32_t>(global_index - attr_offsets_[source_id]));
}

}  // namespace mube
