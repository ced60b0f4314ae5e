// Tests for src/match: Algorithm 1's constrained greedy similarity
// clustering — validity guarantees, θ enforcement, the Figure 3 GA-
// constraint bridging behaviour, source-constraint feasibility, the β
// bound, property sweeps over random universes, a pairwise reference
// oracle, and the similarity-read budget of one Match(S).

#include <algorithm>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/random.h"
#include "match/matcher.h"
#include "match/naive_matcher.h"
#include "schema/universe.h"
#include "text/similarity.h"
#include "text/similarity_matrix.h"
#include "text/sparse_similarity.h"

namespace mube {
namespace {

Universe BuildUniverse(const std::vector<std::vector<std::string>>& schemas) {
  Universe u;
  for (size_t i = 0; i < schemas.size(); ++i) {
    Source s(0, "src" + std::to_string(i));
    for (const std::string& attr : schemas[i]) {
      s.AddAttribute(Attribute(attr));
    }
    u.AddSource(std::move(s));
  }
  return u;
}

struct MatchFixture {
  explicit MatchFixture(const std::vector<std::vector<std::string>>& schemas)
      : universe(BuildUniverse(schemas)),
        measure(3),
        matrix(universe, measure),
        matcher(universe, matrix) {}

  std::vector<uint32_t> AllSources() const {
    std::vector<uint32_t> ids;
    for (uint32_t i = 0; i < universe.size(); ++i) ids.push_back(i);
    return ids;
  }

  Universe universe;
  NGramJaccard measure;
  SimilarityMatrix matrix;
  Matcher matcher;
};

MatchOptions Options(double theta, size_t beta = 2) {
  MatchOptions o;
  o.theta = theta;
  o.beta = beta;
  return o;
}

// ----------------------------------------------------------- basic merges --

TEST(MatcherTest, IdenticalNamesCluster) {
  MatchFixture f({{"title", "price"}, {"title", "author"}, {"title"}});
  auto result = f.matcher.Match(f.AllSources(), Options(0.75));
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  const MatchResult& m = result.ValueOrDie();
  ASSERT_TRUE(m.feasible);
  // One GA: the three "title" attributes. "price"/"author" are dissimilar
  // singletons and get dropped.
  ASSERT_EQ(m.schema.size(), 1u);
  EXPECT_EQ(m.schema.ga(0).size(), 3u);
  EXPECT_DOUBLE_EQ(m.quality, 1.0);
}

TEST(MatcherTest, EmptySubsetYieldsEmptyFeasibleSchema) {
  MatchFixture f({{"title"}});
  auto result = f.matcher.Match({}, Options(0.75));
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result.ValueOrDie().feasible);
  EXPECT_TRUE(result.ValueOrDie().schema.empty());
  EXPECT_DOUBLE_EQ(result.ValueOrDie().quality, 0.0);
}

TEST(MatcherTest, NoMatchesBelowTheta) {
  MatchFixture f({{"alpha"}, {"omega"}, {"zebra"}});
  auto result = f.matcher.Match(f.AllSources(), Options(0.75));
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result.ValueOrDie().feasible);  // no constraints to violate
  EXPECT_TRUE(result.ValueOrDie().schema.empty());
}

TEST(MatcherTest, ThetaControlsMerging) {
  // jaccard3("keyword", "keywords") = 5/6 ≈ 0.833.
  MatchFixture f({{"keyword"}, {"keywords"}});
  auto strict = f.matcher.Match(f.AllSources(), Options(0.9));
  ASSERT_TRUE(strict.ok());
  EXPECT_TRUE(strict.ValueOrDie().schema.empty());

  auto loose = f.matcher.Match(f.AllSources(), Options(0.8));
  ASSERT_TRUE(loose.ok());
  ASSERT_EQ(loose.ValueOrDie().schema.size(), 1u);
  EXPECT_NEAR(loose.ValueOrDie().quality, 5.0 / 6.0, 1e-6);
}

TEST(MatcherTest, PerGaQualityIsAtLeastTheta) {
  MatchFixture f({{"keyword", "title"},
                  {"keywords", "title"},
                  {"keyword", "price range"},
                  {"price range"}});
  auto result = f.matcher.Match(f.AllSources(), Options(0.75));
  ASSERT_TRUE(result.ok());
  const MatchResult& m = result.ValueOrDie();
  ASSERT_FALSE(m.schema.empty());
  for (double q : m.ga_quality) EXPECT_GE(q, 0.75);
}

TEST(MatcherTest, ValidGasOnlyOneAttributePerSource) {
  // Source 0 has two near-identical attributes; they must never land in
  // the same GA (Definition 1).
  MatchFixture f({{"keyword", "keywords"}, {"keyword"}, {"keywords"}});
  auto result = f.matcher.Match(f.AllSources(), Options(0.75));
  ASSERT_TRUE(result.ok());
  const MatchResult& m = result.ValueOrDie();
  EXPECT_TRUE(m.schema.IsWellFormed());
  for (const GlobalAttribute& ga : m.schema.gas()) {
    EXPECT_TRUE(ga.IsValid());
  }
}

TEST(MatcherTest, SubsetRestrictsClustering) {
  MatchFixture f({{"title"}, {"title"}, {"title"}});
  auto result = f.matcher.Match({0, 2}, Options(0.75));
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result.ValueOrDie().schema.size(), 1u);
  EXPECT_EQ(result.ValueOrDie().schema.ga(0).size(), 2u);
  // Source 1's attribute must not appear.
  for (const AttributeRef& ref : result.ValueOrDie().schema.ga(0).members()) {
    EXPECT_NE(ref.source_id, 1u);
  }
}

// ------------------------------------------------------ source constraints --

TEST(MatcherTest, SourceConstraintSatisfiedWhenCovered) {
  MatchFixture f({{"title"}, {"title"}, {"zebra"}});
  auto result = f.matcher.Match(f.AllSources(), Options(0.75), {0, 1},
                                MediatedSchema());
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result.ValueOrDie().feasible);
}

TEST(MatcherTest, SourceConstraintViolatedWhenUncovered) {
  // Source 2's only attribute matches nothing, so no GA touches it; a
  // source constraint on it makes the matching infeasible (NULL return of
  // Algorithm 1).
  MatchFixture f({{"title"}, {"title"}, {"zebra"}});
  auto result = f.matcher.Match(f.AllSources(), Options(0.75), {2},
                                MediatedSchema());
  ASSERT_TRUE(result.ok());
  EXPECT_FALSE(result.ValueOrDie().feasible);
  EXPECT_DOUBLE_EQ(result.ValueOrDie().quality, 0.0);
  EXPECT_TRUE(result.ValueOrDie().schema.empty());
}

TEST(MatcherTest, ConstraintOutsideSubsetIsAnError) {
  MatchFixture f({{"title"}, {"title"}});
  auto result =
      f.matcher.Match({0}, Options(0.75), {1}, MediatedSchema());
  EXPECT_FALSE(result.ok());
}

// ---------------------------------------------------------- GA constraints --

TEST(MatcherTest, GaConstraintBridgesDissimilarAttributes) {
  // The Figure 3 scenario: "f name" and "prenom" share no 3-grams, but the
  // user knows they are the same concept. The GA constraint keeps them
  // together AND lets similar attributes join via either endpoint.
  MatchFixture f({{"f name"},       // 0
                  {"prenom"},       // 1
                  {"f names"},      // 2: similar to "f name"
                  {"prenoms"}});    // 3: similar to "prenom"

  // Without the constraint: two separate clusters at best.
  auto unconstrained = f.matcher.Match(f.AllSources(), Options(0.6));
  ASSERT_TRUE(unconstrained.ok());
  for (const GlobalAttribute& ga : unconstrained.ValueOrDie().schema.gas()) {
    EXPECT_LE(ga.size(), 2u);
  }

  // With the constraint: one bridged GA containing all four.
  MediatedSchema constraints;
  constraints.Add(
      GlobalAttribute({AttributeRef(0, 0), AttributeRef(1, 0)}));
  auto result =
      f.matcher.Match(f.AllSources(), Options(0.6), {}, constraints);
  ASSERT_TRUE(result.ok());
  const MatchResult& m = result.ValueOrDie();
  ASSERT_TRUE(m.feasible);
  ASSERT_EQ(m.schema.size(), 1u);
  EXPECT_EQ(m.schema.ga(0).size(), 4u);
  EXPECT_TRUE(m.schema.Subsumes(constraints));  // G ⊑ M
}

TEST(MatcherTest, GaConstraintSurvivesEvenWithLowQuality) {
  MatchFixture f({{"apple"}, {"zebra"}});
  MediatedSchema constraints;
  constraints.Add(
      GlobalAttribute({AttributeRef(0, 0), AttributeRef(1, 0)}));
  auto result =
      f.matcher.Match(f.AllSources(), Options(0.75), {}, constraints);
  ASSERT_TRUE(result.ok());
  const MatchResult& m = result.ValueOrDie();
  ASSERT_TRUE(m.feasible);
  ASSERT_EQ(m.schema.size(), 1u);
  // The constraint GA's quality may be below theta — that is allowed for
  // g ∈ G (§2.5).
  EXPECT_LT(m.ga_quality[0], 0.75);
}

TEST(MatcherTest, SingletonGaConstraintKept) {
  MatchFixture f({{"apple"}, {"zebra"}});
  MediatedSchema constraints;
  constraints.Add(GlobalAttribute({AttributeRef(0, 0)}));
  auto result =
      f.matcher.Match(f.AllSources(), Options(0.75), {}, constraints);
  ASSERT_TRUE(result.ok());
  ASSERT_TRUE(result.ValueOrDie().feasible);
  ASSERT_EQ(result.ValueOrDie().schema.size(), 1u);
  EXPECT_EQ(result.ValueOrDie().schema.ga(0).size(), 1u);
}

TEST(MatcherTest, GaConstraintImplicitSourceCoverage) {
  // GA constraints count as coverage for validity-on-C: constraint sources
  // whose only attribute sits in the constraint GA are covered by it.
  MatchFixture f({{"apple"}, {"zebra"}, {"title"}, {"title"}});
  MediatedSchema constraints;
  constraints.Add(
      GlobalAttribute({AttributeRef(0, 0), AttributeRef(1, 0)}));
  auto result =
      f.matcher.Match(f.AllSources(), Options(0.75), {0, 1}, constraints);
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result.ValueOrDie().feasible);
}

TEST(MatcherTest, MalformedGaConstraintRejected) {
  MatchFixture f({{"a", "b"}, {"c"}});
  MediatedSchema constraints;
  constraints.Add(GlobalAttribute({AttributeRef(0, 0), AttributeRef(0, 1)}));
  auto result =
      f.matcher.Match(f.AllSources(), Options(0.75), {}, constraints);
  EXPECT_FALSE(result.ok());
}

TEST(MatcherTest, GaConstraintReferencingSourceOutsideSRejected) {
  MatchFixture f({{"a"}, {"b"}});
  MediatedSchema constraints;
  constraints.Add(GlobalAttribute({AttributeRef(1, 0)}));
  auto result = f.matcher.Match({0}, Options(0.75), {}, constraints);
  EXPECT_FALSE(result.ok());
}

// -------------------------------------------------------------------- beta --

TEST(MatcherTest, BetaFiltersSmallGas) {
  MatchFixture f({{"title", "keyword"},
                  {"title", "keyword"},
                  {"title"},
                  {"title"}});
  // title appears in 4 sources, keyword in 2.
  auto beta2 = f.matcher.Match(f.AllSources(), Options(0.75, 2));
  ASSERT_TRUE(beta2.ok());
  EXPECT_EQ(beta2.ValueOrDie().schema.size(), 2u);

  auto beta3 = f.matcher.Match(f.AllSources(), Options(0.75, 3));
  ASSERT_TRUE(beta3.ok());
  ASSERT_EQ(beta3.ValueOrDie().schema.size(), 1u);
  EXPECT_EQ(beta3.ValueOrDie().schema.ga(0).size(), 4u);
}

TEST(MatcherTest, BetaDoesNotApplyToConstraintGas) {
  MatchFixture f({{"apple"}, {"zebra"}});
  MediatedSchema constraints;
  constraints.Add(
      GlobalAttribute({AttributeRef(0, 0), AttributeRef(1, 0)}));
  auto result =
      f.matcher.Match(f.AllSources(), Options(0.75, 5), {}, constraints);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result.ValueOrDie().schema.size(), 1u);  // survives β = 5
}

// -------------------------------------------------------- input validation --

TEST(MatcherTest, RejectsBadInputs) {
  MatchFixture f({{"a"}, {"b"}});
  EXPECT_FALSE(f.matcher.Match({0, 0}, Options(0.75)).ok());  // duplicate
  EXPECT_FALSE(f.matcher.Match({9}, Options(0.75)).ok());     // out of range
  EXPECT_FALSE(f.matcher.Match({0}, Options(1.5)).ok());      // bad theta
  EXPECT_FALSE(f.matcher.Match({0}, Options(-0.1)).ok());
}

// -------------------------------------------- chained merges (transitivity) --

TEST(MatcherTest, ChainedMergesAcrossIterations) {
  // "keyword" ~ "keywords" ~ "key words"? Build a chain where the merged
  // cluster must merge again in a later iteration: max-linkage means the
  // cluster {keyword, keywords} still has similarity 5/6 to another
  // "keyword" attribute.
  MatchFixture f({{"keyword"}, {"keywords"}, {"keyword"}, {"keywords"}});
  auto result = f.matcher.Match(f.AllSources(), Options(0.8));
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result.ValueOrDie().schema.size(), 1u);
  EXPECT_EQ(result.ValueOrDie().schema.ga(0).size(), 4u);
}

TEST(MatcherTest, GreedyPrefersHighestSimilarityFirst) {
  // Sources 0 and 1 both offer near-matches for source 2's "keyword";
  // exact match (sim 1.0) must win the seat because pairs pop best-first,
  // and the loser can still join the cluster later via max-linkage only if
  // its similarity to *any* member clears θ.
  MatchFixture f({{"keyword"}, {"keywordz"}, {"keyword"}});
  auto result = f.matcher.Match(f.AllSources(), Options(0.8));
  ASSERT_TRUE(result.ok());
  const MatchResult& m = result.ValueOrDie();
  ASSERT_EQ(m.schema.size(), 1u);
  // All three end up together: 0-2 merge at 1.0, then 1 joins at 5/6.
  EXPECT_EQ(m.schema.ga(0).size(), 3u);
}

// ---------------------------------------------------------------- linkage --

TEST(MatcherTest, MaxLinkageEnablesBridgingAverageDoesNot) {
  // The DESIGN.md §5.1 ablation as a unit test: a GA constraint bridging
  // "f name" and "prenom" grows to 4 attributes under max linkage but
  // freezes at 2 under average linkage (the dissimilar member drags the
  // mean below θ).
  MatchFixture f({{"f name"}, {"prenom"}, {"f names"}, {"prenoms"}});
  MediatedSchema constraints;
  constraints.Add(GlobalAttribute({AttributeRef(0, 0), AttributeRef(1, 0)}));

  MatchOptions max_options = Options(0.6);
  max_options.linkage = ClusterLinkage::kMax;
  auto max_result =
      f.matcher.Match(f.AllSources(), max_options, {}, constraints);
  ASSERT_TRUE(max_result.ok());
  ASSERT_EQ(max_result.ValueOrDie().schema.size(), 1u);
  EXPECT_EQ(max_result.ValueOrDie().schema.ga(0).size(), 4u);

  MatchOptions avg_options = Options(0.6);
  avg_options.linkage = ClusterLinkage::kAverage;
  auto avg_result =
      f.matcher.Match(f.AllSources(), avg_options, {}, constraints);
  ASSERT_TRUE(avg_result.ok());
  // The constraint survives but cannot grow past its dissimilar pair...
  size_t bridged_size = 0;
  for (const GlobalAttribute& ga : avg_result.ValueOrDie().schema.gas()) {
    if (ga.Contains(AttributeRef(0, 0))) bridged_size = ga.size();
  }
  EXPECT_EQ(bridged_size, 2u);
}

TEST(MatcherTest, LinkagesAgreeOnSingletonClusters) {
  // With only singleton clusters, max and average linkage coincide, so the
  // first merge decisions are identical.
  MatchFixture f({{"keyword"}, {"keywords"}});
  MatchOptions max_options = Options(0.8);
  MatchOptions avg_options = Options(0.8);
  avg_options.linkage = ClusterLinkage::kAverage;
  auto a = f.matcher.Match(f.AllSources(), max_options);
  auto b = f.matcher.Match(f.AllSources(), avg_options);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(a.ValueOrDie().schema, b.ValueOrDie().schema);
}

// ---------------------------------------------------------- naive baseline --

TEST(NaiveMatcherTest, FindsComponentsOnCleanInstance) {
  MatchFixture f({{"title"}, {"title"}, {"keyword"}, {"keyword"}});
  std::vector<uint32_t> all = f.AllSources();
  NaiveMatchResult naive =
      NaiveComponentsMatch(f.universe, f.matrix, all, 0.75);
  EXPECT_EQ(naive.schema.size(), 2u);
  EXPECT_EQ(naive.invalid_gas, 0u);
  EXPECT_DOUBLE_EQ(naive.quality, 1.0);
  // On conflict-free instances the naive components equal Algorithm 1's
  // output (as sets of GAs).
  auto alg1 = f.matcher.Match(all, Options(0.75));
  ASSERT_TRUE(alg1.ok());
  EXPECT_EQ(naive.schema.size(), alg1.ValueOrDie().schema.size());
}

TEST(NaiveMatcherTest, ProducesInvalidGasWhereAlgorithm1CannotBe) {
  // Source 0 holds both "keyword" and "keywords": the closure glues them
  // through the other sources' attributes, producing a Definition 1
  // violation; Algorithm 1 structurally cannot.
  MatchFixture f({{"keyword", "keywords"}, {"keyword"}, {"keywords"}});
  std::vector<uint32_t> all = f.AllSources();

  NaiveMatchResult naive =
      NaiveComponentsMatch(f.universe, f.matrix, all, 0.8);
  EXPECT_GE(naive.invalid_gas, 1u);
  EXPECT_FALSE(naive.schema.IsWellFormed());

  auto alg1 = f.matcher.Match(all, Options(0.8));
  ASSERT_TRUE(alg1.ok());
  EXPECT_TRUE(alg1.ValueOrDie().schema.IsWellFormed());
  for (const GlobalAttribute& ga : alg1.ValueOrDie().schema.gas()) {
    EXPECT_TRUE(ga.IsValid());
  }
}

TEST(NaiveMatcherTest, SubsetRestriction) {
  MatchFixture f({{"title"}, {"title"}, {"title"}});
  NaiveMatchResult naive =
      NaiveComponentsMatch(f.universe, f.matrix, {0, 2}, 0.75);
  ASSERT_EQ(naive.schema.size(), 1u);
  EXPECT_EQ(naive.schema.ga(0).size(), 2u);
}

TEST(NaiveMatcherTest, EmptyAndNoMatchCases) {
  MatchFixture f({{"alpha"}, {"omega"}});
  NaiveMatchResult none =
      NaiveComponentsMatch(f.universe, f.matrix, f.AllSources(), 0.75);
  EXPECT_TRUE(none.schema.empty());
  EXPECT_DOUBLE_EQ(none.quality, 0.0);
  NaiveMatchResult empty =
      NaiveComponentsMatch(f.universe, f.matrix, {}, 0.75);
  EXPECT_TRUE(empty.schema.empty());
}

// ------------------------------------------------------------- properties --

class MatcherPropertyTest : public ::testing::TestWithParam<uint64_t> {};

/// Random schemas over a small attribute-name pool (to force both matches
/// and near-misses): 4-11 sources of 1-4 attributes.
std::vector<std::vector<std::string>> RandomSchemas(Rng* rng) {
  const std::vector<std::string> pool = {
      "title",   "titles",   "book title", "author", "authors",
      "keyword", "keywords", "isbn",       "price",  "price range",
      "publisher", "year",   "format",     "zebra",  "quux"};

  std::vector<std::vector<std::string>> schemas;
  const size_t num_sources = 4 + rng->Uniform(8);
  for (size_t i = 0; i < num_sources; ++i) {
    std::vector<std::string> schema;
    const size_t num_attrs = 1 + rng->Uniform(4);
    std::vector<size_t> picks = rng->SampleWithoutReplacement(pool.size(),
                                                              num_attrs);
    for (size_t p : picks) schema.push_back(pool[p]);
    schemas.push_back(std::move(schema));
  }
  return schemas;
}

TEST_P(MatcherPropertyTest, RandomUniverseInvariants) {
  // Random universes (see RandomSchemas). Invariants:
  //  (1) output schema is well-formed;
  //  (2) every non-constraint GA has >= 2 attributes and quality >= θ;
  //  (3) overall quality equals the mean of per-GA qualities;
  //  (4) determinism: same inputs -> same output.
  const uint64_t seed = GetParam();
  Rng rng(seed);
  MatchFixture f(RandomSchemas(&rng));
  const double theta = 0.6 + 0.3 * rng.UniformDouble();
  auto result = f.matcher.Match(f.AllSources(), Options(theta));
  ASSERT_TRUE(result.ok());
  const MatchResult& m = result.ValueOrDie();
  ASSERT_TRUE(m.feasible);

  EXPECT_TRUE(m.schema.IsWellFormed());
  ASSERT_EQ(m.ga_quality.size(), m.schema.size());
  double sum = 0.0;
  for (size_t i = 0; i < m.schema.size(); ++i) {
    EXPECT_GE(m.schema.ga(i).size(), 2u);
    EXPECT_GE(m.ga_quality[i], theta);
    EXPECT_LE(m.ga_quality[i], 1.0);
    sum += m.ga_quality[i];
  }
  if (!m.schema.empty()) {
    EXPECT_NEAR(m.quality, sum / static_cast<double>(m.schema.size()), 1e-9);
  } else {
    EXPECT_DOUBLE_EQ(m.quality, 0.0);
  }

  // Determinism.
  auto again = f.matcher.Match(f.AllSources(), Options(theta));
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(again.ValueOrDie().schema, m.schema);
  EXPECT_DOUBLE_EQ(again.ValueOrDie().quality, m.quality);
}

INSTANTIATE_TEST_SUITE_P(Seeds, MatcherPropertyTest,
                         ::testing::Range<uint64_t>(1, 21));

// ------------------------------------------------------- reference oracle --

// Algorithm 1 as the paper states it: every iteration scores every pair of
// live clusters with At() under the requested linkage, then merges best
// pair first. Slow but plainly faithful to §3; Matcher::Match, which reads
// candidates off the θ-edges instead, must agree with it bit for bit.
// Inputs are assumed valid.
MatchResult ReferenceMatch(const Universe& u, const SimilaritySource& sim,
                           const std::vector<uint32_t>& source_ids,
                           const MatchOptions& options,
                           const std::vector<uint32_t>& source_constraints,
                           const MediatedSchema& ga_constraints) {
  struct Cluster {
    std::vector<size_t> attrs;      // global attribute indexes
    std::vector<uint32_t> sources;  // sorted
    bool keep = false;
    bool merged = false;
    bool merge_cand = false;
  };
  const auto linkage = [&](const Cluster& a, const Cluster& b) {
    double best = 0.0;
    double sum = 0.0;
    for (size_t i : a.attrs) {
      for (size_t j : b.attrs) {
        best = std::max(best, sim.At(i, j));
        sum += sim.At(i, j);
      }
    }
    return options.linkage == ClusterLinkage::kMax
               ? best
               : sum / static_cast<double>(a.attrs.size() * b.attrs.size());
  };

  std::vector<Cluster> live;
  std::vector<bool> in_g(u.total_attribute_count(), false);
  for (const GlobalAttribute& g : ga_constraints.gas()) {
    Cluster c;
    c.keep = true;
    for (const AttributeRef& ref : g.members()) {
      c.attrs.push_back(u.GlobalAttrIndex(ref));
      c.sources.push_back(ref.source_id);
      in_g[u.GlobalAttrIndex(ref)] = true;
    }
    std::sort(c.sources.begin(), c.sources.end());
    live.push_back(c);
  }
  for (uint32_t sid : source_ids) {
    for (uint32_t a = 0; a < u.source(sid).attribute_count(); ++a) {
      const size_t gidx = u.GlobalAttrIndex(AttributeRef(sid, a));
      if (!in_g[gidx]) live.push_back(Cluster{{gidx}, {sid}});
    }
  }

  std::vector<Cluster> finished;
  for (bool again = true; again;) {
    again = false;
    for (Cluster& c : live) c.merged = c.merge_cand = false;
    struct Pair {
      double similarity;
      size_t c1;
      size_t c2;
    };
    std::vector<Pair> pairs;
    for (size_t i = 0; i < live.size(); ++i) {
      for (size_t j = i + 1; j < live.size(); ++j) {
        const double s = linkage(live[i], live[j]);
        if (s >= options.theta) pairs.push_back({s, i, j});
      }
    }
    // Best first; ties toward the smaller cluster ids.
    std::sort(pairs.begin(), pairs.end(), [](const Pair& a, const Pair& b) {
      if (a.similarity != b.similarity) return a.similarity > b.similarity;
      return std::make_pair(a.c1, a.c2) < std::make_pair(b.c1, b.c2);
    });
    std::vector<Cluster> born;
    for (const Pair& p : pairs) {
      Cluster& c1 = live[p.c1];
      Cluster& c2 = live[p.c2];
      if (!c1.merged && !c2.merged) {
        const bool disjoint = std::none_of(
            c1.sources.begin(), c1.sources.end(), [&](uint32_t s) {
              return std::binary_search(c2.sources.begin(), c2.sources.end(),
                                        s);
            });
        if (!disjoint) continue;
        Cluster m;
        m.keep = c1.keep || c2.keep;
        m.attrs = c1.attrs;
        m.attrs.insert(m.attrs.end(), c2.attrs.begin(), c2.attrs.end());
        m.sources = c1.sources;
        m.sources.insert(m.sources.end(), c2.sources.begin(),
                         c2.sources.end());
        std::sort(m.sources.begin(), m.sources.end());
        c1.merged = c2.merged = true;
        born.push_back(std::move(m));
        again = true;
      } else if (c1.merged != c2.merged) {
        (c1.merged ? c2 : c1).merge_cand = true;
        again = true;
      }
    }
    std::vector<Cluster> next;
    for (Cluster& c : live) {
      if (c.merged) continue;
      if (c.merge_cand || c.keep) {
        next.push_back(std::move(c));
      } else if (c.attrs.size() >= 2) {
        finished.push_back(std::move(c));
      }
    }
    for (Cluster& c : born) next.push_back(std::move(c));
    live = std::move(next);
  }
  for (Cluster& c : live) {
    if (c.keep || c.attrs.size() >= 2) finished.push_back(std::move(c));
  }

  MatchResult result;
  for (const Cluster& c : finished) {
    if (!c.keep && c.attrs.size() < std::max<size_t>(options.beta, 2)) {
      continue;
    }
    std::vector<AttributeRef> refs;
    double quality = 0.0;
    for (size_t i = 0; i < c.attrs.size(); ++i) {
      refs.push_back(u.RefFromGlobalIndex(c.attrs[i]));
      for (size_t j = i + 1; j < c.attrs.size(); ++j) {
        quality = std::max(quality, sim.At(c.attrs[i], c.attrs[j]));
      }
    }
    result.schema.Add(GlobalAttribute(std::move(refs)));
    result.ga_quality.push_back(quality);
  }
  result.feasible = result.schema.IsValidOn(source_constraints);
  if (!result.feasible) return MatchResult{};
  double sum = 0.0;
  for (double q : result.ga_quality) sum += q;
  if (!result.ga_quality.empty()) {
    result.quality = sum / static_cast<double>(result.ga_quality.size());
  }
  return result;
}

class MatcherOracleTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(MatcherOracleTest, AgreesBitwiseWithPairwiseReference) {
  Rng rng(GetParam());
  MatchFixture f(RandomSchemas(&rng));
  const double theta = 0.6 + 0.3 * rng.UniformDouble();
  // The sparse index's floor (0.5) is below every theta drawn here.
  const SparseSimilarityIndex sparse(f.universe, f.measure);
  ASSERT_LE(sparse.neighbor_floor(), theta);

  // S: a shuffled subset of at least two sources (shuffled so the
  // matcher's sorting of A_S is exercised).
  std::vector<uint32_t> s = f.AllSources();
  rng.Shuffle(&s);
  s.resize(2 + rng.Uniform(s.size() - 1));

  // Random constraints: C is one or two sources of S; G is up to three
  // GAs, each taking one random attribute from distinct sources of S.
  std::vector<uint32_t> c(s.begin(), s.begin() + 1 + rng.Uniform(2));
  std::vector<uint32_t> g_sources = s;
  rng.Shuffle(&g_sources);
  MediatedSchema g;
  for (size_t next = 0; g.size() < 3 && next + 1 < g_sources.size();) {
    std::vector<AttributeRef> members;
    const size_t width = 1 + rng.Uniform(3);
    for (size_t k = 0; k < width && next < g_sources.size(); ++k, ++next) {
      const uint32_t sid = g_sources[next];
      members.emplace_back(
          sid, static_cast<uint32_t>(rng.Uniform(
                   f.universe.source(sid).attribute_count())));
    }
    g.Add(GlobalAttribute(std::move(members)));
  }

  struct Backend {
    const char* name;
    const SimilaritySource* sim;
  };
  for (const Backend& backend :
       {Backend{"dense", &f.matrix}, Backend{"sparse", &sparse}}) {
    const Matcher matcher(f.universe, *backend.sim);
    for (const ClusterLinkage linkage :
         {ClusterLinkage::kMax, ClusterLinkage::kAverage}) {
      for (const bool constrained : {false, true}) {
        MatchOptions options = Options(theta);
        options.linkage = linkage;
        const std::vector<uint32_t> cs =
            constrained ? c : std::vector<uint32_t>{};
        const MediatedSchema gs = constrained ? g : MediatedSchema();
        const std::string what =
            std::string(backend.name) +
            (linkage == ClusterLinkage::kMax ? " max" : " average") +
            (constrained ? " C+G" : "");
        auto have = matcher.Match(s, options, cs, gs);
        ASSERT_TRUE(have.ok()) << what << ": " << have.status().ToString();
        const MatchResult want =
            ReferenceMatch(f.universe, *backend.sim, s, options, cs, gs);
        const MatchResult& m = have.ValueOrDie();
        EXPECT_EQ(m.feasible, want.feasible) << what;
        EXPECT_EQ(m.schema, want.schema) << what;
        EXPECT_EQ(m.ga_quality, want.ga_quality) << what;
        EXPECT_EQ(m.quality, want.quality) << what;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, MatcherOracleTest,
                         ::testing::Range<uint64_t>(1, 21));

TEST(ThetaEdgesTest, EachPairInsideTheSubsetOnce) {
  Rng rng(7);
  MatchFixture f(RandomSchemas(&rng));
  std::vector<uint32_t> attrs;
  for (uint32_t i = 0; i < f.matrix.attribute_count(); ++i) {
    if (rng.Bernoulli(0.7)) attrs.push_back(i);
  }
  const std::vector<ThetaEdge> edges = ThetaEdgesWithin(f.matrix, attrs, 0.6);
  std::vector<ThetaEdge> want;
  for (uint32_t a = 0; a < attrs.size(); ++a) {
    for (uint32_t b = a + 1; b < attrs.size(); ++b) {
      const double sim = f.matrix.At(attrs[a], attrs[b]);
      if (sim >= 0.6) want.push_back({a, b, static_cast<float>(sim)});
    }
  }
  ASSERT_FALSE(want.empty());
  ASSERT_EQ(edges.size(), want.size());
  for (size_t k = 0; k < edges.size(); ++k) {
    EXPECT_EQ(edges[k].a, want[k].a);
    EXPECT_EQ(edges[k].b, want[k].b);
    EXPECT_EQ(edges[k].similarity, want[k].similarity);
  }
}

// ------------------------------------------------------ similarity reads --

// Forwards every query to `inner` and counts neighbor_floor() calls and
// neighbor enumerations per attribute.
class CountingSource : public SimilaritySource {
 public:
  explicit CountingSource(const SimilaritySource& inner) : inner_(inner) {}

  double At(size_t i, size_t j) const override { return inner_.At(i, j); }
  size_t attribute_count() const override { return inner_.attribute_count(); }
  double MaxSimilarityOf(size_t i) const override {
    return inner_.MaxSimilarityOf(i);
  }
  void ForEachNeighborAtLeast(size_t i, double theta,
                              const NeighborFn& fn) const override {
    ++enumerations[i];
    inner_.ForEachNeighborAtLeast(i, theta, fn);
  }
  double neighbor_floor() const override {
    ++floor_calls;
    return inner_.neighbor_floor();
  }
  void Rebuild(const Universe&, const SimilarityMeasure&, unsigned) override {
    ADD_FAILURE() << "CountingSource is read-only";
  }
  void ApplyChurn(const Universe&, const SimilarityMeasure&,
                  const std::vector<uint32_t>&, unsigned) override {
    ADD_FAILURE() << "CountingSource is read-only";
  }
  std::unique_ptr<SimilaritySource> CloneSource() const override {
    return inner_.CloneSource();
  }
  size_t MemoryBytes() const override { return inner_.MemoryBytes(); }
  size_t last_measure_calls() const override {
    return inner_.last_measure_calls();
  }

  void Reset() {
    floor_calls = 0;
    enumerations.clear();
  }

  mutable int floor_calls = 0;
  mutable std::map<size_t, int> enumerations;  // attribute -> calls

 private:
  const SimilaritySource& inner_;
};

// A_S of the read-budget tests: the ChainedMergesAcrossIterations chain
// (two merge iterations) plus off-θ attributes, and a source outside S.
struct ReadBudgetFixture {
  ReadBudgetFixture()
      : f({{"keyword", "zebra"},
           {"keywords"},
           {"keyword"},
           {"keywords", "quux"},
           {"keyword"}}),
        counting(f.matrix) {
    for (uint32_t sid : s) {
      for (uint32_t a = 0; a < f.universe.source(sid).attribute_count();
           ++a) {
        once[f.universe.GlobalAttrIndex(AttributeRef(sid, a))] = 1;
      }
    }
  }

  MatchFixture f;
  CountingSource counting;
  const std::vector<uint32_t> s = {3, 1, 0, 2};  // source 4 stays out
  std::map<size_t, int> once;  // every attribute of S, enumerated once
};

TEST(MatchReadBudgetTest, OneEnumerationPerAttributeOfS) {
  ReadBudgetFixture r;
  const Matcher matcher(r.f.universe, r.counting);
  for (const ClusterLinkage linkage :
       {ClusterLinkage::kMax, ClusterLinkage::kAverage}) {
    MatchOptions options = Options(0.8);
    options.linkage = linkage;
    r.counting.Reset();
    auto result = matcher.Match(r.s, options);
    ASSERT_TRUE(result.ok());
    // The chain really took two merge iterations: all four "keyword*"
    // attributes ended up in one GA.
    ASSERT_EQ(result.ValueOrDie().schema.size(), 1u);
    EXPECT_EQ(result.ValueOrDie().schema.ga(0).size(), 4u);
    EXPECT_EQ(r.counting.floor_calls, 1);
    EXPECT_EQ(r.counting.enumerations, r.once);
  }
}

TEST(MatchReadBudgetTest, NaiveMatcherSharesTheBudget) {
  ReadBudgetFixture r;
  const NaiveMatchResult naive =
      NaiveComponentsMatch(r.f.universe, r.counting, r.s, 0.8);
  ASSERT_EQ(naive.schema.size(), 1u);
  EXPECT_EQ(r.counting.floor_calls, 1);
  EXPECT_EQ(r.counting.enumerations, r.once);
}

}  // namespace
}  // namespace mube
