#include "datagen/generator.h"

#include <algorithm>
#include <cmath>
#include <unordered_set>

#include "common/random.h"
#include "datagen/books_corpus.h"
#include "datagen/domain.h"

namespace mube {

namespace {

/// Samples `count` distinct tuple ids from [pool_begin, pool_end) by
/// Floyd's algorithm.
std::vector<uint64_t> SampleTuples(uint64_t pool_begin, uint64_t pool_end,
                                   uint64_t count, Rng* rng) {
  const uint64_t n = pool_end - pool_begin;
  std::unordered_set<uint64_t> chosen;
  chosen.reserve(static_cast<size_t>(count));
  std::vector<uint64_t> result;
  result.reserve(static_cast<size_t>(count));
  for (uint64_t j = n - count; j < n; ++j) {
    const uint64_t t = rng->Uniform(j + 1);
    if (chosen.insert(t).second) {
      result.push_back(pool_begin + t);
    } else {
      chosen.insert(j);
      result.push_back(pool_begin + j);
    }
  }
  return result;
}

/// Applies the §7.1 perturbation model to a copy of a base schema.
/// `noise_names` hands out off-domain attribute names without replacement.
std::vector<Attribute> PerturbSchema(const DomainCorpus& corpus,
                                     const CorpusSchema& base, Rng* rng,
                                     const GeneratorConfig& config,
                                     std::vector<std::string>* noise_names) {
  auto next_noise = [&]() -> std::string {
    if (noise_names->empty()) {
      // Pool exhausted (only possible with enormous universes); recycle
      // with an index suffix to preserve uniqueness.
      static const char* kFallback = "surplus attribute ";
      static uint64_t counter = 0;
      return kFallback + std::to_string(counter++);
    }
    std::string name = std::move(noise_names->back());
    noise_names->pop_back();
    return name;
  };

  // Start from the base attributes, optionally renaming to sibling
  // variants of the same concept.
  std::vector<Attribute> attrs;
  for (const CorpusAttribute& a : base.attributes) {
    std::string name = a.name;
    if (rng->Bernoulli(config.p_rename_variant)) {
      const auto& pool = corpus.variants[static_cast<size_t>(a.concept_id)];
      name = pool[rng->Uniform(pool.size())];
    }
    attrs.emplace_back(std::move(name), a.concept_id);
  }

  // Remove domain attributes (keep at least one).
  if (rng->Bernoulli(config.p_remove_attribute)) {
    const size_t removals = std::min(
        {attrs.size() - 1,
         static_cast<size_t>(rng->Uniform(config.max_removed_attributes) +
                             1)});
    for (size_t r = 0; r < removals && attrs.size() > 1; ++r) {
      attrs.erase(attrs.begin() +
                  static_cast<ptrdiff_t>(rng->Uniform(attrs.size())));
    }
  }

  // Replace domain attributes with off-domain names.
  if (rng->Bernoulli(config.p_replace_attribute)) {
    const size_t replacements = std::min(
        attrs.size(),
        static_cast<size_t>(rng->Uniform(config.max_replaced_attributes) +
                            1));
    for (size_t r = 0; r < replacements; ++r) {
      Attribute& victim = attrs[rng->Uniform(attrs.size())];
      victim = Attribute(next_noise(), kNoConcept);
    }
  }

  // Add off-domain attributes.
  if (rng->Bernoulli(config.p_add_attribute)) {
    const size_t additions =
        static_cast<size_t>(rng->Uniform(config.max_added_attributes) + 1);
    for (size_t a = 0; a < additions; ++a) {
      attrs.emplace_back(next_noise(), kNoConcept);
    }
  }
  return attrs;
}

}  // namespace

Status GeneratorConfig::Validate() const {
  if (num_sources == 0) {
    return Status::InvalidArgument("num_sources must be >= 1");
  }
  if (min_cardinality == 0 || min_cardinality > max_cardinality) {
    return Status::InvalidArgument(
        "need 0 < min_cardinality <= max_cardinality");
  }
  if (attach_tuples && tuple_pool_size / 2 < max_cardinality) {
    return Status::InvalidArgument(
        "General tuple pool (tuple_pool_size/2) must be >= max_cardinality");
  }
  if (specialty_tuples_min > specialty_tuples_max) {
    return Status::InvalidArgument(
        "specialty_tuples_min > specialty_tuples_max");
  }
  if (attach_tuples && specialty_tuples_max > tuple_pool_size / 2) {
    return Status::InvalidArgument(
        "specialty_tuples_max exceeds the Specialty pool");
  }
  if (!(cooperative_fraction >= 0.0 && cooperative_fraction <= 1.0)) {
    return Status::InvalidArgument("cooperative_fraction must be in [0,1]");
  }
  if (!(zipf_skew > 0.0)) {
    return Status::InvalidArgument("zipf_skew must be > 0");
  }
  return Status::OK();
}

Result<GeneratedUniverse> GenerateUniverse(const GeneratorConfig& config) {
  MUBE_RETURN_IF_ERROR(config.Validate());
  MUBE_ASSIGN_OR_RETURN(const DomainCorpus* corpus,
                        FindDomain(config.domain));
  Rng rng(config.seed);
  const std::vector<CorpusSchema>& bases = corpus->base_schemas;

  // Off-domain names, shuffled and consumed without replacement so no two
  // noise attributes in the universe collide.
  std::vector<std::string> noise_names = OffDomainWords();
  rng.Shuffle(&noise_names);

  // Cardinality ranks: a random permutation of 1..N drives the Zipf law so
  // exactly one source sits at each rank, like a popularity ordering.
  std::vector<uint64_t> ranks(config.num_sources);
  for (size_t i = 0; i < ranks.size(); ++i) ranks[i] = i + 1;
  rng.Shuffle(&ranks);

  const uint64_t general_begin = 0;
  const uint64_t general_end = config.tuple_pool_size / 2;
  const uint64_t specialty_end = config.tuple_pool_size;

  GeneratedUniverse out;
  out.num_concepts = corpus->concept_count();

  for (size_t i = 0; i < config.num_sources; ++i) {
    const CorpusSchema& base = bases[i % bases.size()];
    const bool unperturbed = i < bases.size();

    char name[80];
    std::snprintf(name, sizeof(name), "src%04zu.%s", i, base.name.c_str());
    Source source(0, name);

    if (unperturbed) {
      for (const CorpusAttribute& a : base.attributes) {
        source.AddAttribute(Attribute(a.name, a.concept_id));
      }
    } else {
      for (Attribute& a :
           PerturbSchema(*corpus, base, &rng, config, &noise_names)) {
        source.AddAttribute(std::move(a));
      }
    }

    // Zipf cardinality: card(rank) = max / rank^skew, floored at min.
    const double raw = static_cast<double>(config.max_cardinality) /
                       std::pow(static_cast<double>(ranks[i]),
                                config.zipf_skew);
    const uint64_t cardinality = std::max(
        config.min_cardinality,
        std::min(config.max_cardinality, static_cast<uint64_t>(raw)));

    if (config.attach_tuples && rng.Bernoulli(config.cooperative_fraction)) {
      const bool specialty_source = rng.Bernoulli(0.5);
      uint64_t specialty_count = 0;
      if (specialty_source) {
        specialty_count = std::min(
            cardinality,
            config.specialty_tuples_min +
                rng.Uniform(config.specialty_tuples_max -
                            config.specialty_tuples_min + 1));
      }
      std::vector<uint64_t> tuples = SampleTuples(
          general_begin, general_end, cardinality - specialty_count, &rng);
      if (specialty_count > 0) {
        std::vector<uint64_t> specials =
            SampleTuples(general_end, specialty_end, specialty_count, &rng);
        tuples.insert(tuples.end(), specials.begin(), specials.end());
      }
      source.SetTuples(std::move(tuples));
    } else {
      // Uncooperative (or data-free) source: cardinality is still
      // self-reported.
      source.set_cardinality(cardinality);
    }

    // MTTF ~ N(100, 40) days, clamped positive (§7.1).
    const double mttf =
        std::max(1.0, rng.Gaussian(config.mttf_mean, config.mttf_stddev));
    source.characteristics().Set("mttf", mttf);

    const uint32_t id = out.universe.AddSource(std::move(source));
    if (unperturbed) out.unperturbed_source_ids.push_back(id);
  }

  return out;
}

}  // namespace mube
