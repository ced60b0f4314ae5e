// Tests for src/schema: attributes, sources, universes, Global Attributes
// (Definition 1), mediated schemas (Definitions 2-3), and the text
// serialization round trip.

#include <fstream>
#include <sstream>

#include <gtest/gtest.h>

#include "common/random.h"
#include "schema/attribute.h"
#include "schema/global_attribute.h"
#include "schema/mediated_schema.h"
#include "schema/serialization.h"
#include "schema/source.h"
#include "schema/universe.h"

namespace mube {
namespace {

Universe SmallUniverse() {
  Universe u;
  {
    Source s(0, "alpha.com");
    s.AddAttribute(Attribute("title", 0));
    s.AddAttribute(Attribute("author", 1));
    s.AddAttribute(Attribute("price", 5));
    s.SetTuples({1, 2, 3});
    s.characteristics().Set("mttf", 120.0);
    u.AddSource(std::move(s));
  }
  {
    Source s(0, "beta.org");
    s.AddAttribute(Attribute("book title", 0));
    s.AddAttribute(Attribute("writer", 1));
    s.SetTuples({3, 4});
    u.AddSource(std::move(s));
  }
  {
    Source s(0, "gamma.net");
    s.AddAttribute(Attribute("keyword", 3));
    s.set_cardinality(10);  // uncooperative: no tuples
    u.AddSource(std::move(s));
  }
  return u;
}

// -------------------------------------------------------------- Attribute --

TEST(AttributeTest, NormalizesOnConstruction) {
  Attribute a("Book_Title ");
  EXPECT_EQ(a.name, "Book_Title ");
  EXPECT_EQ(a.normalized, "book title");
  EXPECT_EQ(a.concept_id, kNoConcept);
}

TEST(AttributeTest, ConceptLabelStored) {
  Attribute a("isbn", 2);
  EXPECT_EQ(a.concept_id, 2);
}

TEST(AttributeRefTest, OrderingAndEquality) {
  AttributeRef a(1, 2), b(1, 3), c(2, 0);
  EXPECT_LT(a, b);
  EXPECT_LT(b, c);
  EXPECT_EQ(a, AttributeRef(1, 2));
  EXPECT_NE(a, b);
  EXPECT_EQ(a.ToString(), "s1.a2");
}

// ----------------------------------------------------------------- Source --

TEST(SourceTest, AddAndFindAttributes) {
  Source s(0, "x");
  EXPECT_EQ(s.AddAttribute(Attribute("title")), 0u);
  EXPECT_EQ(s.AddAttribute(Attribute("author")), 1u);
  EXPECT_EQ(s.attribute_count(), 2u);
  EXPECT_EQ(s.FindAttribute("author"), std::optional<uint32_t>(1));
  EXPECT_EQ(s.FindAttribute("missing"), std::nullopt);
}

TEST(SourceTest, TuplesSetCardinality) {
  Source s(0, "x");
  EXPECT_FALSE(s.has_tuples());
  EXPECT_EQ(s.cardinality(), 0u);
  s.SetTuples({10, 20, 30});
  EXPECT_TRUE(s.has_tuples());
  EXPECT_EQ(s.cardinality(), 3u);
}

TEST(SourceTest, ExplicitCardinalityWithoutTuples) {
  Source s(0, "x");
  s.set_cardinality(500);
  EXPECT_FALSE(s.has_tuples());
  EXPECT_EQ(s.cardinality(), 500u);
}

TEST(SourceTest, Characteristics) {
  Source s(0, "x");
  EXPECT_FALSE(s.characteristics().Has("mttf"));
  s.characteristics().Set("mttf", 99.5);
  EXPECT_EQ(s.characteristics().Get("mttf"), std::optional<double>(99.5));
  EXPECT_EQ(s.characteristics().Get("fee"), std::nullopt);
  s.characteristics().Set("mttf", 10.0);  // overwrite
  EXPECT_EQ(s.characteristics().Get("mttf"), std::optional<double>(10.0));
}

TEST(SourceTest, ToStringMatchesFigure1Style) {
  Source s(0, "aceticket.com");
  s.AddAttribute(Attribute("state"));
  s.AddAttribute(Attribute("city"));
  EXPECT_EQ(s.ToString(), "aceticket.com{state, city}");
}

// --------------------------------------------------------------- Universe --

TEST(UniverseTest, AssignsDenseIds) {
  Universe u = SmallUniverse();
  EXPECT_EQ(u.size(), 3u);
  EXPECT_EQ(u.source(0).name(), "alpha.com");
  EXPECT_EQ(u.source(0).id(), 0u);
  EXPECT_EQ(u.source(2).id(), 2u);
}

TEST(UniverseTest, FindSourceByName) {
  Universe u = SmallUniverse();
  EXPECT_EQ(u.FindSource("beta.org"), std::optional<uint32_t>(1));
  EXPECT_EQ(u.FindSource("nope"), std::nullopt);
}

TEST(UniverseTest, GlobalAttributeIndexingRoundTrips) {
  Universe u = SmallUniverse();
  EXPECT_EQ(u.total_attribute_count(), 6u);  // 3 + 2 + 1
  for (size_t g = 0; g < u.total_attribute_count(); ++g) {
    const AttributeRef ref = u.RefFromGlobalIndex(g);
    EXPECT_EQ(u.GlobalAttrIndex(ref), g);
  }
  EXPECT_EQ(u.GlobalAttrIndex(AttributeRef(1, 0)), 3u);
  EXPECT_EQ(u.GlobalAttrIndex(AttributeRef(2, 0)), 5u);
}

TEST(UniverseTest, ContainsChecksBounds) {
  Universe u = SmallUniverse();
  EXPECT_TRUE(u.Contains(AttributeRef(0, 2)));
  EXPECT_FALSE(u.Contains(AttributeRef(0, 3)));
  EXPECT_FALSE(u.Contains(AttributeRef(3, 0)));
}

TEST(UniverseTest, TotalCardinalitySums) {
  Universe u = SmallUniverse();
  EXPECT_EQ(u.total_cardinality(), 3u + 2u + 10u);
}

TEST(UniverseTest, RefreshStatisticsAfterMutation) {
  Universe u = SmallUniverse();
  u.mutable_source(2).set_cardinality(100);
  u.RefreshStatistics();
  EXPECT_EQ(u.total_cardinality(), 3u + 2u + 100u);
}

// AddSource and RetireSource keep the index and totals incrementally; after
// every step they must equal a from-scratch RefreshStatistics().
TEST(UniverseTest, IncrementalStatisticsMatchRefresh) {
  Rng rng(11);
  Universe u;
  auto expect_fresh = [&](int step) {
    Universe fresh = u.Clone();
    fresh.RefreshStatistics();
    ASSERT_EQ(u.total_attribute_count(), fresh.total_attribute_count())
        << "step " << step;
    ASSERT_EQ(u.total_cardinality(), fresh.total_cardinality())
        << "step " << step;
    for (uint32_t sid = 0; sid < u.size(); ++sid) {
      for (uint32_t a = 0; a < u.source(sid).attribute_count(); ++a) {
        ASSERT_EQ(u.GlobalAttrIndex(AttributeRef(sid, a)),
                  fresh.GlobalAttrIndex(AttributeRef(sid, a)))
            << "step " << step;
      }
    }
    for (size_t g = 0; g < u.total_attribute_count(); ++g) {
      ASSERT_EQ(u.RefFromGlobalIndex(g), fresh.RefFromGlobalIndex(g))
          << "step " << step;
    }
  };
  auto tuples = [&] {
    std::vector<uint64_t> ids(rng.Uniform(50));
    for (uint64_t& id : ids) id = rng.Uniform(1000);
    return ids;
  };
  for (int step = 0; step < 300; ++step) {
    const uint64_t op = u.empty() ? 0 : rng.Uniform(3);
    if (op == 0) {
      Source s(0, "s" + std::to_string(step));
      const uint64_t attrs = rng.Uniform(4);  // zero-attribute sources too
      for (uint64_t a = 0; a < attrs; ++a) {
        s.AddAttribute(Attribute("a" + std::to_string(a),
                                 static_cast<int32_t>(a)));
      }
      s.SetTuples(tuples());
      u.AddSource(std::move(s));
    } else if (op == 1) {
      u.RetireSource(static_cast<uint32_t>(rng.Uniform(u.size())));
    } else {
      const uint32_t sid = static_cast<uint32_t>(rng.Uniform(u.size()));
      if (!u.alive(sid)) continue;
      u.mutable_source(sid).SetTuples(tuples());
      u.RefreshStatistics();
    }
    expect_fresh(step);
  }
  EXPECT_LT(u.alive_count(), u.size());  // the sequence did retire sources
}

// -------------------------------------------------- GlobalAttribute (Def 1)

TEST(GlobalAttributeTest, EmptyIsInvalid) {
  GlobalAttribute ga;
  EXPECT_FALSE(ga.IsValid());
}

TEST(GlobalAttributeTest, SingletonIsValid) {
  GlobalAttribute ga({AttributeRef(0, 0)});
  EXPECT_TRUE(ga.IsValid());
}

TEST(GlobalAttributeTest, TwoAttributesSameSourceIsInvalidViaCtor) {
  GlobalAttribute ga({AttributeRef(0, 0), AttributeRef(0, 1)});
  EXPECT_FALSE(ga.IsValid());
}

TEST(GlobalAttributeTest, InsertRejectsSameSource) {
  GlobalAttribute ga;
  EXPECT_TRUE(ga.Insert(AttributeRef(0, 0)));
  EXPECT_TRUE(ga.Insert(AttributeRef(1, 2)));
  EXPECT_FALSE(ga.Insert(AttributeRef(0, 1)));  // second attr of source 0
  EXPECT_TRUE(ga.Insert(AttributeRef(0, 0)));   // re-insert is a no-op
  EXPECT_EQ(ga.size(), 2u);
  EXPECT_TRUE(ga.IsValid());
}

TEST(GlobalAttributeTest, MembersKeptSortedAndDeduped) {
  GlobalAttribute ga({AttributeRef(2, 1), AttributeRef(0, 3),
                      AttributeRef(2, 1)});
  ASSERT_EQ(ga.size(), 2u);
  EXPECT_EQ(ga.members()[0], AttributeRef(0, 3));
  EXPECT_EQ(ga.members()[1], AttributeRef(2, 1));
}

TEST(GlobalAttributeTest, TouchesSource) {
  GlobalAttribute ga({AttributeRef(1, 0), AttributeRef(3, 2)});
  EXPECT_TRUE(ga.TouchesSource(1));
  EXPECT_TRUE(ga.TouchesSource(3));
  EXPECT_FALSE(ga.TouchesSource(0));
  EXPECT_FALSE(ga.TouchesSource(2));
}

TEST(GlobalAttributeTest, SubsetAndIntersect) {
  GlobalAttribute small({AttributeRef(0, 0), AttributeRef(1, 1)});
  GlobalAttribute big(
      {AttributeRef(0, 0), AttributeRef(1, 1), AttributeRef(2, 0)});
  GlobalAttribute other({AttributeRef(3, 0)});
  EXPECT_TRUE(small.IsSubsetOf(big));
  EXPECT_FALSE(big.IsSubsetOf(small));
  EXPECT_TRUE(small.Intersects(big));
  EXPECT_FALSE(small.Intersects(other));
}

TEST(GlobalAttributeTest, MergeValidity) {
  GlobalAttribute a({AttributeRef(0, 0), AttributeRef(1, 0)});
  GlobalAttribute b({AttributeRef(2, 0)});
  GlobalAttribute c({AttributeRef(1, 1)});  // shares source 1 with a
  EXPECT_TRUE(a.CanMergeWith(b));
  EXPECT_FALSE(a.CanMergeWith(c));
  a.MergeFrom(b);
  EXPECT_EQ(a.size(), 3u);
  EXPECT_TRUE(a.IsValid());
}

// ------------------------------------------------ MediatedSchema (Defs 2-3)

TEST(MediatedSchemaTest, WellFormedRequiresDisjointValidGas) {
  MediatedSchema m;
  m.Add(GlobalAttribute({AttributeRef(0, 0), AttributeRef(1, 0)}));
  m.Add(GlobalAttribute({AttributeRef(0, 1), AttributeRef(2, 0)}));
  EXPECT_TRUE(m.IsWellFormed());

  MediatedSchema overlapping = m;
  overlapping.Add(GlobalAttribute({AttributeRef(0, 0)}));  // reuses s0.a0
  EXPECT_FALSE(overlapping.IsWellFormed());

  MediatedSchema with_invalid;
  with_invalid.Add(GlobalAttribute({AttributeRef(0, 0), AttributeRef(0, 1)}));
  EXPECT_FALSE(with_invalid.IsWellFormed());
}

TEST(MediatedSchemaTest, ValidOnRequiresSpanning) {
  MediatedSchema m;
  m.Add(GlobalAttribute({AttributeRef(0, 0), AttributeRef(1, 0)}));
  EXPECT_TRUE(m.IsValidOn({0, 1}));
  EXPECT_FALSE(m.IsValidOn({0, 1, 2}));  // source 2 untouched
  EXPECT_TRUE(m.IsValidOn({}));          // nothing to span
}

TEST(MediatedSchemaTest, SubsumptionIsContainmentPerGa) {
  MediatedSchema big;
  big.Add(GlobalAttribute(
      {AttributeRef(0, 0), AttributeRef(1, 0), AttributeRef(2, 0)}));
  big.Add(GlobalAttribute({AttributeRef(3, 0), AttributeRef(4, 0)}));

  MediatedSchema small;
  small.Add(GlobalAttribute({AttributeRef(0, 0), AttributeRef(2, 0)}));

  EXPECT_TRUE(big.Subsumes(small));   // small ⊑ big
  EXPECT_FALSE(small.Subsumes(big));

  // A GA split across two big GAs is NOT subsumed.
  MediatedSchema crossing;
  crossing.Add(GlobalAttribute({AttributeRef(0, 0), AttributeRef(3, 0)}));
  EXPECT_FALSE(big.Subsumes(crossing));
}

TEST(MediatedSchemaTest, SubsumptionIsReflexiveAndTransitive) {
  MediatedSchema a;
  a.Add(GlobalAttribute({AttributeRef(0, 0), AttributeRef(1, 0)}));
  EXPECT_TRUE(a.Subsumes(a));

  MediatedSchema b;
  b.Add(GlobalAttribute(
      {AttributeRef(0, 0), AttributeRef(1, 0), AttributeRef(2, 0)}));
  MediatedSchema c;
  c.Add(GlobalAttribute({AttributeRef(0, 0), AttributeRef(1, 0),
                         AttributeRef(2, 0), AttributeRef(3, 0)}));
  EXPECT_TRUE(b.Subsumes(a));
  EXPECT_TRUE(c.Subsumes(b));
  EXPECT_TRUE(c.Subsumes(a));  // transitivity
}

TEST(MediatedSchemaTest, EmptySchemaSubsumedByAnything) {
  MediatedSchema empty;
  MediatedSchema any;
  any.Add(GlobalAttribute({AttributeRef(0, 0)}));
  EXPECT_TRUE(any.Subsumes(empty));
  EXPECT_TRUE(empty.Subsumes(empty));
}

TEST(MediatedSchemaTest, FindGaWithAttribute) {
  MediatedSchema m;
  m.Add(GlobalAttribute({AttributeRef(0, 0), AttributeRef(1, 0)}));
  m.Add(GlobalAttribute({AttributeRef(2, 0)}));
  EXPECT_EQ(m.FindGaWithAttribute(AttributeRef(1, 0)), 0);
  EXPECT_EQ(m.FindGaWithAttribute(AttributeRef(2, 0)), 1);
  EXPECT_EQ(m.FindGaWithAttribute(AttributeRef(9, 9)), -1);
  EXPECT_TRUE(m.ContainsAttribute(AttributeRef(0, 0)));
  EXPECT_FALSE(m.ContainsAttribute(AttributeRef(0, 1)));
}

TEST(MediatedSchemaTest, TouchedSourcesSortedUnique) {
  MediatedSchema m;
  m.Add(GlobalAttribute({AttributeRef(3, 0), AttributeRef(1, 0)}));
  m.Add(GlobalAttribute({AttributeRef(1, 1), AttributeRef(0, 0)}));
  EXPECT_EQ(m.TouchedSources(), (std::vector<uint32_t>{0, 1, 3}));
}

TEST(MediatedSchemaTest, TotalAttributeCount) {
  MediatedSchema m;
  m.Add(GlobalAttribute({AttributeRef(0, 0), AttributeRef(1, 0)}));
  m.Add(GlobalAttribute({AttributeRef(2, 0)}));
  EXPECT_EQ(m.TotalAttributeCount(), 3u);
}

// ---------------------------------------------------------- Serialization --

TEST(SerializationTest, UniverseRoundTrip) {
  Universe original = SmallUniverse();
  const std::string text = SerializeUniverse(original);
  Result<Universe> parsed = ParseUniverse(text);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  const Universe& u = parsed.ValueOrDie();
  ASSERT_EQ(u.size(), original.size());
  for (uint32_t i = 0; i < u.size(); ++i) {
    EXPECT_EQ(u.source(i).name(), original.source(i).name());
    EXPECT_EQ(u.source(i).cardinality(), original.source(i).cardinality());
    ASSERT_EQ(u.source(i).attribute_count(),
              original.source(i).attribute_count());
    for (uint32_t a = 0; a < u.source(i).attribute_count(); ++a) {
      EXPECT_EQ(u.source(i).attribute(a).name,
                original.source(i).attribute(a).name);
      EXPECT_EQ(u.source(i).attribute(a).concept_id,
                original.source(i).attribute(a).concept_id);
    }
    EXPECT_EQ(u.source(i).characteristics().values(),
              original.source(i).characteristics().values());
  }
}

TEST(SerializationTest, ParseRejectsMalformedInput) {
  EXPECT_FALSE(ParseUniverse("attr orphan\n").ok());
  EXPECT_FALSE(ParseUniverse("source a\nend\n").ok());  // no attributes
  EXPECT_FALSE(ParseUniverse("source a\nattr x\n").ok());  // no end
  EXPECT_FALSE(ParseUniverse("source a\nsource b\n").ok());  // nested
  EXPECT_FALSE(ParseUniverse("source a\nattr x\nbogus 1\nend\n").ok());
  EXPECT_FALSE(
      ParseUniverse("source a\nattr x\ncardinality twelve\nend\n").ok());
}

TEST(SerializationTest, ParseToleratesCommentsAndBlanks) {
  Result<Universe> u = ParseUniverse(
      "# catalog\n\nsource a\nattr x\n# inner comment\nattr y\nend\n");
  ASSERT_TRUE(u.ok());
  EXPECT_EQ(u.ValueOrDie().size(), 1u);
  EXPECT_EQ(u.ValueOrDie().source(0).attribute_count(), 2u);
}

TEST(SerializationTest, GlobalAttributeParsing) {
  Universe u = SmallUniverse();
  Result<GlobalAttribute> ga =
      ParseGlobalAttribute("alpha.com.title, beta.org.writer", u);
  ASSERT_TRUE(ga.ok()) << ga.status().ToString();
  EXPECT_EQ(ga.ValueOrDie().size(), 2u);
  EXPECT_TRUE(ga.ValueOrDie().Contains(AttributeRef(0, 0)));
  EXPECT_TRUE(ga.ValueOrDie().Contains(AttributeRef(1, 1)));
}

TEST(SerializationTest, GlobalAttributeParsingHandlesDotsInSourceNames) {
  // "beta.org.book title": the source is "beta.org", attr "book title".
  Universe u = SmallUniverse();
  Result<GlobalAttribute> ga = ParseGlobalAttribute("beta.org.book title", u);
  ASSERT_TRUE(ga.ok()) << ga.status().ToString();
  EXPECT_TRUE(ga.ValueOrDie().Contains(AttributeRef(1, 0)));
}

TEST(SerializationTest, GlobalAttributeParseErrors) {
  Universe u = SmallUniverse();
  EXPECT_FALSE(ParseGlobalAttribute("missing.com.title", u).ok());
  EXPECT_FALSE(ParseGlobalAttribute("alpha.com.missing", u).ok());
  EXPECT_FALSE(ParseGlobalAttribute("", u).ok());
  // Two attributes of the same source violate Definition 1.
  EXPECT_FALSE(
      ParseGlobalAttribute("alpha.com.title, alpha.com.author", u).ok());
}

TEST(SerializationTest, MediatedSchemaRoundTrip) {
  Universe u = SmallUniverse();
  MediatedSchema m;
  m.Add(GlobalAttribute({AttributeRef(0, 0), AttributeRef(1, 0)}));
  m.Add(GlobalAttribute({AttributeRef(0, 1), AttributeRef(1, 1)}));
  const std::string text = SerializeMediatedSchema(m, u);
  Result<MediatedSchema> parsed = ParseMediatedSchema(text, u);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed.ValueOrDie(), m);
}

class SerializationPropertyTest : public ::testing::TestWithParam<uint64_t> {
};

TEST_P(SerializationPropertyTest, RandomUniverseRoundTrips) {
  // Property: serialize ∘ parse is the identity on arbitrary catalogs —
  // names with spaces/dots, characteristics, concept labels, and sources
  // with explicit cardinalities all survive.
  Rng rng(GetParam());
  Universe original;
  const size_t num_sources = 1 + rng.Uniform(8);
  const std::vector<std::string> name_pool = {
      "title", "book title", "isbn 13", "price range", "ships from",
      "a", "x y z", "after date"};
  for (size_t i = 0; i < num_sources; ++i) {
    Source s(0, "host" + std::to_string(i) + ".example.org");
    const size_t num_attrs = 1 + rng.Uniform(5);
    std::vector<size_t> picks =
        rng.SampleWithoutReplacement(name_pool.size(), num_attrs);
    for (size_t p : picks) {
      const int32_t concept_id =
          rng.Bernoulli(0.5) ? static_cast<int32_t>(rng.Uniform(14))
                             : kNoConcept;
      s.AddAttribute(Attribute(name_pool[p], concept_id));
    }
    s.set_cardinality(rng.Uniform(1'000'000));
    if (rng.Bernoulli(0.7)) {
      s.characteristics().Set("mttf", rng.UniformDouble(1, 500));
    }
    if (rng.Bernoulli(0.3)) {
      s.characteristics().Set("latency", rng.UniformDouble(10, 900));
    }
    original.AddSource(std::move(s));
  }

  Result<Universe> parsed = ParseUniverse(SerializeUniverse(original));
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  const Universe& u = parsed.ValueOrDie();
  ASSERT_EQ(u.size(), original.size());
  for (uint32_t i = 0; i < u.size(); ++i) {
    EXPECT_EQ(u.source(i).name(), original.source(i).name());
    EXPECT_EQ(u.source(i).cardinality(), original.source(i).cardinality());
    EXPECT_EQ(u.source(i).characteristics().values(),
              original.source(i).characteristics().values());
    ASSERT_EQ(u.source(i).attribute_count(),
              original.source(i).attribute_count());
    for (uint32_t a = 0; a < u.source(i).attribute_count(); ++a) {
      EXPECT_EQ(u.source(i).attribute(a).name,
                original.source(i).attribute(a).name);
      EXPECT_EQ(u.source(i).attribute(a).concept_id,
                original.source(i).attribute(a).concept_id);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SerializationPropertyTest,
                         ::testing::Range<uint64_t>(1, 13));

TEST(SerializationTest, MediatedSchemaParseRejectsOverlap) {
  Universe u = SmallUniverse();
  EXPECT_FALSE(
      ParseMediatedSchema("alpha.com.title\nalpha.com.title\n", u).ok());
}

TEST(SerializationTest, ShippedTheaterCatalogParses) {
  // The sample catalog under examples/catalogs must stay loadable by
  // interactive_session.
  std::ifstream in(std::string(MUBE_REPO_DIR) +
                   "/examples/catalogs/theater.catalog");
  ASSERT_TRUE(in.good());
  std::stringstream buffer;
  buffer << in.rdbuf();
  Result<Universe> parsed = ParseUniverse(buffer.str());
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed.ValueOrDie().size(), 11u);  // the Figure 1 sources
  EXPECT_TRUE(parsed.ValueOrDie().FindSource("aceticket.com").has_value());
}

}  // namespace
}  // namespace mube
