// Tests for src/datagen: corpus invariants, the perturbation model, the
// §7.1 universe generator's statistical properties (Zipf cardinalities,
// General/Specialty pools, MTTF distribution), and the Figure 1 theater
// catalog.

#include <algorithm>
#include <cmath>
#include <limits>
#include <set>
#include <unordered_set>

#include <gtest/gtest.h>

#include "datagen/books_corpus.h"
#include "datagen/domain.h"
#include "datagen/generator.h"
#include "datagen/theater.h"
#include "text/similarity.h"

namespace mube {
namespace {

// ----------------------------------------------------------------- corpus --

TEST(BooksCorpusTest, FourteenConcepts) {
  EXPECT_EQ(kBooksConceptCount, 14);
  EXPECT_EQ(BooksConceptNames().size(), 14u);
  for (int32_t c = 0; c < kBooksConceptCount; ++c) {
    EXPECT_GE(BooksConceptVariants(c).size(), 3u) << "concept " << c;
  }
}

TEST(BooksCorpusTest, FiftyBaseSchemasWithinSizeBounds) {
  const auto& schemas = BooksBaseSchemas();
  ASSERT_EQ(schemas.size(), 50u);
  for (const CorpusSchema& schema : schemas) {
    EXPECT_GE(schema.attributes.size(), 3u) << schema.name;
    EXPECT_LE(schema.attributes.size(), 8u) << schema.name;
    // No schema expresses the same concept twice (Definition 1 would be
    // violated by construction otherwise).
    std::set<int32_t> concepts;
    for (const CorpusAttribute& attr : schema.attributes) {
      EXPECT_TRUE(concepts.insert(attr.concept_id).second)
          << schema.name << " repeats concept " << attr.concept_id;
      EXPECT_GE(attr.concept_id, 0);
      EXPECT_LT(attr.concept_id, kBooksConceptCount);
    }
  }
}

TEST(BooksCorpusTest, CorpusIsDeterministic) {
  const auto& a = BooksBaseSchemas();
  const auto& b = BooksBaseSchemas();
  EXPECT_EQ(&a, &b);  // same singleton
  EXPECT_EQ(a[0].attributes.size(), b[0].attributes.size());
}

TEST(BooksCorpusTest, EveryConceptAppearsSomewhere) {
  std::set<int32_t> seen;
  for (const CorpusSchema& schema : BooksBaseSchemas()) {
    for (const CorpusAttribute& attr : schema.attributes) {
      seen.insert(attr.concept_id);
    }
  }
  EXPECT_EQ(seen.size(), static_cast<size_t>(kBooksConceptCount));
}

TEST(BooksCorpusTest, AttributeNamesComeFromVariantPools) {
  for (const CorpusSchema& schema : BooksBaseSchemas()) {
    for (const CorpusAttribute& attr : schema.attributes) {
      const auto& pool = BooksConceptVariants(attr.concept_id);
      EXPECT_NE(std::find(pool.begin(), pool.end(), attr.name), pool.end())
          << attr.name;
    }
  }
}

TEST(BooksCorpusTest, OffDomainWordsAreDistinctAndDissimilar) {
  const auto& words = OffDomainWords();
  EXPECT_EQ(words.size(), 64u * 64u);
  std::set<std::string> unique(words.begin(), words.end());
  EXPECT_EQ(unique.size(), words.size());

  // No off-domain word is similar to any concept variant at the paper's
  // θ = 0.75 (this is what guarantees "no false GAs" in Table 1). Spot
  // check a sample against all variants.
  NGramJaccard jaccard(3);
  for (size_t w = 0; w < words.size(); w += 97) {
    for (int32_t c = 0; c < kBooksConceptCount; ++c) {
      for (const std::string& variant : BooksConceptVariants(c)) {
        EXPECT_LT(jaccard.Similarity(words[w], variant), 0.75)
            << words[w] << " vs " << variant;
      }
    }
  }
}

TEST(BooksCorpusTest, OffDomainWordsMutuallyBelowTheta) {
  const auto& words = OffDomainWords();
  NGramJaccard jaccard(3);
  // Sampled pairwise check (the full 16M-pair check lives in the bench).
  for (size_t i = 0; i < words.size(); i += 131) {
    for (size_t j = i + 1; j < words.size(); j += 113) {
      EXPECT_LT(jaccard.Similarity(words[i], words[j]), 0.75)
          << words[i] << " vs " << words[j];
    }
  }
}

// ---------------------------------------------------------------- domains --

class DomainCorpusTest : public ::testing::TestWithParam<std::string> {
 protected:
  const DomainCorpus& corpus() {
    auto result = FindDomain(GetParam());
    EXPECT_TRUE(result.ok());
    return *result.ValueOrDie();
  }
};

TEST_P(DomainCorpusTest, StructureInvariants) {
  const DomainCorpus& domain = corpus();
  EXPECT_EQ(domain.name, GetParam());
  ASSERT_GT(domain.concept_count(), 0);
  ASSERT_EQ(domain.concept_names.size(), domain.variants.size());
  ASSERT_EQ(domain.prevalence.size(), domain.variants.size());
  for (const auto& pool : domain.variants) {
    EXPECT_GE(pool.size(), 2u);
  }
  for (double p : domain.prevalence) {
    EXPECT_GT(p, 0.0);
    EXPECT_LE(p, 1.0);
  }
  EXPECT_FALSE(domain.base_schemas.empty());
}

TEST_P(DomainCorpusTest, BaseSchemasWellFormed) {
  const DomainCorpus& domain = corpus();
  for (const CorpusSchema& schema : domain.base_schemas) {
    EXPECT_GE(schema.attributes.size(), 3u) << schema.name;
    EXPECT_LE(schema.attributes.size(), 8u) << schema.name;
    std::set<int32_t> concepts;
    for (const CorpusAttribute& attr : schema.attributes) {
      EXPECT_TRUE(concepts.insert(attr.concept_id).second) << schema.name;
      ASSERT_GE(attr.concept_id, 0);
      ASSERT_LT(attr.concept_id, domain.concept_count());
      const auto& pool =
          domain.variants[static_cast<size_t>(attr.concept_id)];
      EXPECT_NE(std::find(pool.begin(), pool.end(), attr.name), pool.end());
    }
  }
}

TEST_P(DomainCorpusTest, CrossConceptVariantsStayBelowTheta) {
  // The zero-false-GA guarantee of Table 1 requires that no two variants
  // of *different* concepts clear the default θ = 0.75.
  const DomainCorpus& domain = corpus();
  NGramJaccard jaccard(3);
  for (size_t c1 = 0; c1 < domain.variants.size(); ++c1) {
    for (size_t c2 = c1 + 1; c2 < domain.variants.size(); ++c2) {
      for (const std::string& a : domain.variants[c1]) {
        for (const std::string& b : domain.variants[c2]) {
          EXPECT_LT(jaccard.Similarity(a, b), 0.75)
              << domain.name << ": '" << a << "' (" << c1 << ") vs '" << b
              << "' (" << c2 << ")";
        }
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(AllDomains, DomainCorpusTest,
                         ::testing::Values("books", "jobs"));

TEST(DomainTest, FindDomainRejectsUnknown) {
  EXPECT_FALSE(FindDomain("realestate").ok());
}

TEST(DomainTest, JobsUniverseEndToEnd) {
  GeneratorConfig config;
  config.domain = "jobs";
  config.num_sources = 60;
  config.min_cardinality = 100;
  config.max_cardinality = 2'000;
  config.tuple_pool_size = 10'000;
  config.specialty_tuples_min = 5;
  config.specialty_tuples_max = 20;
  auto result = GenerateUniverse(config);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  const GeneratedUniverse& g = result.ValueOrDie();
  EXPECT_EQ(g.num_concepts, JobsDomain().concept_count());
  EXPECT_EQ(g.universe.size(), 60u);
  EXPECT_EQ(g.unperturbed_source_ids.size(),
            JobsDomain().base_schemas.size());
  // Jobs attribute names actually appear.
  bool found_jobs_attr = false;
  for (const Source& s : g.universe.sources()) {
    if (s.FindAttribute("job title").has_value()) found_jobs_attr = true;
  }
  EXPECT_TRUE(found_jobs_attr);
}

// -------------------------------------------------------------- generator --

GeneratorConfig SmallConfig(uint64_t seed = 1) {
  GeneratorConfig config;
  config.seed = seed;
  config.num_sources = 80;
  config.min_cardinality = 100;
  config.max_cardinality = 5'000;
  config.tuple_pool_size = 40'000;
  config.specialty_tuples_min = 10;
  config.specialty_tuples_max = 50;
  return config;
}

TEST(GeneratorTest, ConfigValidation) {
  EXPECT_TRUE(GeneratorConfig().Validate().ok());

  GeneratorConfig zero_sources = SmallConfig();
  zero_sources.num_sources = 0;
  EXPECT_FALSE(zero_sources.Validate().ok());

  GeneratorConfig bad_cards = SmallConfig();
  bad_cards.min_cardinality = 10;
  bad_cards.max_cardinality = 5;
  EXPECT_FALSE(bad_cards.Validate().ok());

  GeneratorConfig pool_too_small = SmallConfig();
  pool_too_small.tuple_pool_size = 1'000;  // < 2 * max_cardinality
  EXPECT_FALSE(pool_too_small.Validate().ok());

  GeneratorConfig bad_specialty = SmallConfig();
  bad_specialty.specialty_tuples_min = 100;
  bad_specialty.specialty_tuples_max = 10;
  EXPECT_FALSE(bad_specialty.Validate().ok());

  GeneratorConfig bad_coop = SmallConfig();
  bad_coop.cooperative_fraction = 1.5;
  EXPECT_FALSE(bad_coop.Validate().ok());

  const double nan = std::numeric_limits<double>::quiet_NaN();
  GeneratorConfig nan_coop = SmallConfig();
  nan_coop.cooperative_fraction = nan;
  EXPECT_FALSE(nan_coop.Validate().ok());

  GeneratorConfig nan_skew = SmallConfig();
  nan_skew.zipf_skew = nan;
  EXPECT_FALSE(nan_skew.Validate().ok());
}

TEST(GeneratorTest, ProducesRequestedSourceCount) {
  auto result = GenerateUniverse(SmallConfig());
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  const GeneratedUniverse& g = result.ValueOrDie();
  EXPECT_EQ(g.universe.size(), 80u);
  EXPECT_EQ(g.num_concepts, kBooksConceptCount);
  // First 50 are the unperturbed bases.
  EXPECT_EQ(g.unperturbed_source_ids.size(), 50u);
}

TEST(GeneratorTest, DeterministicForSameSeed) {
  auto a = GenerateUniverse(SmallConfig(7));
  auto b = GenerateUniverse(SmallConfig(7));
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  const Universe& ua = a.ValueOrDie().universe;
  const Universe& ub = b.ValueOrDie().universe;
  ASSERT_EQ(ua.size(), ub.size());
  for (uint32_t i = 0; i < ua.size(); ++i) {
    EXPECT_EQ(ua.source(i).name(), ub.source(i).name());
    EXPECT_EQ(ua.source(i).cardinality(), ub.source(i).cardinality());
    EXPECT_EQ(ua.source(i).tuples(), ub.source(i).tuples());
    ASSERT_EQ(ua.source(i).attribute_count(), ub.source(i).attribute_count());
    for (uint32_t j = 0; j < ua.source(i).attribute_count(); ++j) {
      EXPECT_EQ(ua.source(i).attribute(j).name, ub.source(i).attribute(j).name);
    }
  }
}

TEST(GeneratorTest, DifferentSeedsDiffer) {
  auto a = GenerateUniverse(SmallConfig(1));
  auto b = GenerateUniverse(SmallConfig(2));
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  bool any_difference = false;
  const Universe& ua = a.ValueOrDie().universe;
  const Universe& ub = b.ValueOrDie().universe;
  for (uint32_t i = 0; i < ua.size() && !any_difference; ++i) {
    any_difference = ua.source(i).cardinality() != ub.source(i).cardinality();
  }
  EXPECT_TRUE(any_difference);
}

TEST(GeneratorTest, UnperturbedSchemasMatchCorpus) {
  auto result = GenerateUniverse(SmallConfig());
  ASSERT_TRUE(result.ok());
  const GeneratedUniverse& g = result.ValueOrDie();
  const auto& bases = BooksBaseSchemas();
  for (size_t i = 0; i < g.unperturbed_source_ids.size(); ++i) {
    const Source& s = g.universe.source(g.unperturbed_source_ids[i]);
    const CorpusSchema& base = bases[i];
    ASSERT_EQ(s.attribute_count(), base.attributes.size());
    for (uint32_t j = 0; j < s.attribute_count(); ++j) {
      EXPECT_EQ(s.attribute(j).name, base.attributes[j].name);
      EXPECT_EQ(s.attribute(j).concept_id, base.attributes[j].concept_id);
    }
  }
}

TEST(GeneratorTest, CardinalitiesWithinBoundsAndSkewed) {
  auto result = GenerateUniverse(SmallConfig());
  ASSERT_TRUE(result.ok());
  const Universe& u = result.ValueOrDie().universe;
  uint64_t lo = UINT64_MAX, hi = 0;
  size_t at_floor = 0;
  for (const Source& s : u.sources()) {
    EXPECT_GE(s.cardinality(), 100u);
    EXPECT_LE(s.cardinality(), 5'000u);
    lo = std::min(lo, s.cardinality());
    hi = std::max(hi, s.cardinality());
    if (s.cardinality() == 100u) ++at_floor;
  }
  EXPECT_EQ(hi, 5'000u);  // rank 1 hits the max
  // Zipf with skew 1 over 80 ranks: the tail sits at the floor.
  EXPECT_GT(at_floor, 10u);
}

TEST(GeneratorTest, TuplesComeFromTheRightPools) {
  auto result = GenerateUniverse(SmallConfig());
  ASSERT_TRUE(result.ok());
  const GeneratedUniverse& g = result.ValueOrDie();
  const uint64_t general_end = 20'000;  // pool/2
  size_t specialty_sources = 0;
  for (const Source& s : g.universe.sources()) {
    ASSERT_TRUE(s.has_tuples());
    // Distinctness within a source.
    std::unordered_set<uint64_t> unique(s.tuples().begin(), s.tuples().end());
    EXPECT_EQ(unique.size(), s.tuples().size());
    size_t specials = 0;
    for (uint64_t t : s.tuples()) {
      EXPECT_LT(t, 40'000u);
      if (t >= general_end) ++specials;
    }
    if (specials > 0) {
      ++specialty_sources;
      EXPECT_GE(specials, 10u);
      EXPECT_LE(specials, 50u);
    }
  }
  // About half the sources mix in Specialty tuples.
  EXPECT_GT(specialty_sources, 80u / 4);
  EXPECT_LT(specialty_sources, 80u * 3 / 4);
}

TEST(GeneratorTest, MttfDistributionRoughlyNormal) {
  GeneratorConfig config = SmallConfig();
  config.num_sources = 600;  // more samples for stable moments
  config.attach_tuples = false;
  auto result = GenerateUniverse(config);
  ASSERT_TRUE(result.ok());
  const Universe& u = result.ValueOrDie().universe;
  double sum = 0.0, sum_sq = 0.0;
  for (const Source& s : u.sources()) {
    const auto mttf = s.characteristics().Get("mttf");
    ASSERT_TRUE(mttf.has_value());
    EXPECT_GT(*mttf, 0.0);
    sum += *mttf;
    sum_sq += *mttf * *mttf;
  }
  const double n = static_cast<double>(u.size());
  const double mean = sum / n;
  const double stddev = std::sqrt(sum_sq / n - mean * mean);
  EXPECT_NEAR(mean, 100.0, 6.0);
  EXPECT_NEAR(stddev, 40.0, 8.0);
}

TEST(GeneratorTest, AttachTuplesFalseSkipsData) {
  GeneratorConfig config = SmallConfig();
  config.attach_tuples = false;
  auto result = GenerateUniverse(config);
  ASSERT_TRUE(result.ok());
  for (const Source& s : result.ValueOrDie().universe.sources()) {
    EXPECT_FALSE(s.has_tuples());
    EXPECT_GT(s.cardinality(), 0u);  // still reported
  }
}

TEST(GeneratorTest, CooperativeFractionRespected) {
  GeneratorConfig config = SmallConfig();
  config.cooperative_fraction = 0.5;
  auto result = GenerateUniverse(config);
  ASSERT_TRUE(result.ok());
  size_t cooperative = 0;
  for (const Source& s : result.ValueOrDie().universe.sources()) {
    cooperative += s.has_tuples() ? 1 : 0;
  }
  EXPECT_GT(cooperative, 80u / 4);
  EXPECT_LT(cooperative, 80u * 3 / 4);
}

TEST(GeneratorTest, NoiseAttributeNamesNeverRepeat) {
  auto result = GenerateUniverse(SmallConfig());
  ASSERT_TRUE(result.ok());
  std::set<std::string> noise_names;
  for (const Source& s : result.ValueOrDie().universe.sources()) {
    for (const Attribute& a : s.attributes()) {
      if (a.concept_id == kNoConcept) {
        EXPECT_TRUE(noise_names.insert(a.name).second)
            << "duplicate noise attribute " << a.name;
      }
    }
  }
  EXPECT_GT(noise_names.size(), 0u);
}

TEST(GeneratorTest, PerturbedSchemasKeepDomainCharacter) {
  auto result = GenerateUniverse(SmallConfig());
  ASSERT_TRUE(result.ok());
  const GeneratedUniverse& g = result.ValueOrDie();
  size_t with_domain_attr = 0;
  for (const Source& s : g.universe.sources()) {
    EXPECT_GE(s.attribute_count(), 1u);
    for (const Attribute& a : s.attributes()) {
      if (a.concept_id != kNoConcept) {
        ++with_domain_attr;
        break;
      }
    }
  }
  // Every source retains at least one domain attribute under the default
  // perturbation rates (removal keeps >= 1; replacement caps at 1).
  EXPECT_GT(with_domain_attr, g.universe.size() * 9 / 10);
}

// ---------------------------------------------------------------- theater --

TEST(TheaterTest, MatchesFigure1) {
  Universe u = TheaterUniverse();
  ASSERT_EQ(u.size(), 11u);
  EXPECT_TRUE(u.FindSource("aceticket.com").has_value());
  EXPECT_TRUE(u.FindSource("lastminute.com").has_value());
  const Source& pbs = u.source(*u.FindSource("pbs.org"));
  EXPECT_EQ(pbs.attribute_count(), 6u);
  EXPECT_TRUE(pbs.FindAttribute("program title").has_value());
  const Source& ace = u.source(*u.FindSource("aceticket.com"));
  EXPECT_EQ(ace.ToString(), "aceticket.com{state, city, event, venue}");
}

TEST(TheaterTest, CarriesDataAndCharacteristics) {
  Universe u = TheaterUniverse();
  for (const Source& s : u.sources()) {
    EXPECT_TRUE(s.has_tuples());
    EXPECT_GE(s.cardinality(), 2'000u);
    EXPECT_TRUE(s.characteristics().Has("latency"));
  }
}

TEST(TheaterTest, DeterministicPerSeed) {
  Universe a = TheaterUniverse(3), b = TheaterUniverse(3);
  for (uint32_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a.source(i).cardinality(), b.source(i).cardinality());
  }
}

}  // namespace
}  // namespace mube
