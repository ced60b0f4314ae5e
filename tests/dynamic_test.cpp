// Tests for src/dynamic: churn events/log (serialization + replay),
// DeltaUniverse id stability, incremental-vs-rebuild equivalence of the
// similarity matrix and signature cache, memo bounds, warm-started
// re-optimization, and staleness errors for constraints that outlive their
// sources.

#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/random.h"
#include "core/mube.h"
#include "core/session.h"
#include "datagen/generator.h"
#include "dynamic/churn.h"
#include "dynamic/delta_universe.h"
#include "dynamic/re_optimizer.h"
#include "metrics/metrics.h"
#include "opt/problem.h"
#include "opt/search_util.h"
#include "schema/universe.h"
#include "sketch/signature_cache.h"
#include "text/similarity.h"
#include "text/similarity_matrix.h"

namespace mube {
namespace {

Source MakeSource(const std::string& name,
                  const std::vector<std::string>& attrs,
                  std::vector<uint64_t> tuples = {}) {
  Source source(0, name);
  for (const std::string& attr : attrs) {
    source.AddAttribute(Attribute(attr));
  }
  if (!tuples.empty()) source.SetTuples(std::move(tuples));
  return source;
}

/// A small hand-built catalog: four live sources with overlapping schemas.
Universe SmallUniverse() {
  Universe universe;
  universe.AddSource(
      MakeSource("alpha.com", {"title", "author"}, {1, 2, 3, 4}));
  universe.AddSource(
      MakeSource("beta.com", {"book title", "price"}, {3, 4, 5}));
  universe.AddSource(
      MakeSource("gamma.com", {"author name", "isbn"}, {6, 7}));
  universe.AddSource(
      MakeSource("delta.com", {"title", "isbn number"}, {1, 8, 9}));
  return universe;
}

GeneratorConfig SmallGen(uint64_t seed = 17) {
  GeneratorConfig config;
  config.seed = seed;
  config.num_sources = 40;
  config.min_cardinality = 50;
  config.max_cardinality = 2'000;
  config.tuple_pool_size = 10'000;
  config.specialty_tuples_min = 10;
  config.specialty_tuples_max = 40;
  return config;
}

MubeConfig FastConfig() {
  MubeConfig config = MubeConfig::PaperDefaults();
  config.max_sources = 6;
  config.optimizer_options.max_evaluations = 800;
  config.optimizer_options.seed = 5;
  config.pcsa.num_maps = 64;
  return config;
}

/// The standard mixed churn batch used by the equivalence tests: one
/// removal, one addition, one re-crawl, one rename, one cooperation change.
std::vector<ChurnEvent> MixedBatch(const Universe& universe) {
  return {
      ChurnEvent::RemoveSource(universe.source(2).name()),
      ChurnEvent::AddSource(
          MakeSource("newcomer.com", {"title", "author", "price in eur"},
                     {101, 102, 103, 104})),
      ChurnEvent::UpdateTuples(universe.source(0).name(), {1, 2, 42, 43}),
      ChurnEvent::RenameAttribute(universe.source(1).name(), 0,
                                  "full book title"),
      ChurnEvent::SetCooperative(universe.source(3).name(), false),
  };
}

// ------------------------------------------------------------ ChurnEvent --

TEST(ChurnEventTest, FactoriesFillTheRightFields) {
  ChurnEvent add = ChurnEvent::AddSource(MakeSource("x", {"a"}, {1}));
  EXPECT_EQ(add.kind, ChurnEvent::Kind::kAddSource);
  EXPECT_EQ(add.source.name(), "x");
  EXPECT_EQ(add.source_name, "x");

  ChurnEvent remove = ChurnEvent::RemoveSource("y");
  EXPECT_EQ(remove.kind, ChurnEvent::Kind::kRemoveSource);
  EXPECT_EQ(remove.source_name, "y");

  ChurnEvent update = ChurnEvent::UpdateTuples("z", {7, 8});
  EXPECT_EQ(update.kind, ChurnEvent::Kind::kUpdateTuples);
  EXPECT_EQ(update.tuples, (std::vector<uint64_t>{7, 8}));

  ChurnEvent rename = ChurnEvent::RenameAttribute("z", 1, "new name");
  EXPECT_EQ(rename.kind, ChurnEvent::Kind::kRenameAttribute);
  EXPECT_EQ(rename.attr_index, 1u);
  EXPECT_EQ(rename.new_name, "new name");

  ChurnEvent coop = ChurnEvent::SetCooperative("z", false);
  EXPECT_EQ(coop.kind, ChurnEvent::Kind::kSetCooperative);
  EXPECT_FALSE(coop.cooperative);
}

// ------------------------------------------------------------ ChurnDelta --

TEST(ChurnDeltaTest, DirtySetsAreSortedUnions) {
  ChurnDelta delta;
  delta.added = {5, 3};
  delta.removed = {1};
  delta.schema_changed = {3, 2};
  delta.data_changed = {4};
  EXPECT_EQ(delta.DirtySchemaSources(), (std::vector<uint32_t>{1, 2, 3, 5}));
  EXPECT_EQ(delta.DirtyDataSources(), (std::vector<uint32_t>{1, 3, 4, 5}));
}

TEST(ChurnDeltaTest, ChurnFraction) {
  ChurnDelta empty;
  EXPECT_DOUBLE_EQ(empty.ChurnFraction(), 0.0);

  ChurnDelta delta;
  delta.alive_before = 10;
  delta.removed = {0};
  delta.data_changed = {1};
  EXPECT_DOUBLE_EQ(delta.ChurnFraction(), 0.2);
  // The same source in two categories counts once.
  delta.schema_changed = {1};
  EXPECT_DOUBLE_EQ(delta.ChurnFraction(), 0.2);

  ChurnDelta no_baseline;
  no_baseline.added = {0};
  EXPECT_DOUBLE_EQ(no_baseline.ChurnFraction(), 1.0);
}

TEST(ChurnDeltaTest, MergeKeepsEarlierBaseline) {
  ChurnDelta first;
  first.alive_before = 8;
  first.removed = {2};

  ChurnDelta second;
  second.alive_before = 7;
  second.added = {9};
  second.removed = {2};

  first.MergeFrom(second);
  EXPECT_EQ(first.alive_before, 8u);
  EXPECT_EQ(first.removed, (std::vector<uint32_t>{2}));
  EXPECT_EQ(first.added, (std::vector<uint32_t>{9}));

  ChurnDelta fresh;
  fresh.MergeFrom(second);
  EXPECT_EQ(fresh.alive_before, 7u);
}

// --------------------------------------------------------------- ChurnLog --

TEST(ChurnLogTest, SerializeParseRoundtrip) {
  Source rich = MakeSource("rich.com", {"title", "author name"}, {11, 12});
  rich.characteristics().Set("mttf", 123.5);
  rich.set_cardinality(99);  // reported cardinality differs from |tuples|

  Source shy = MakeSource("shy.com", {"isbn"});
  shy.set_cardinality(1000);  // uncooperative but reports a cardinality

  ChurnLog log;
  log.Append(ChurnEvent::AddSource(rich));
  log.Append(ChurnEvent::AddSource(shy));
  log.Append(ChurnEvent::RemoveSource("old.com"));
  log.Append(ChurnEvent::UpdateTuples("rich.com", {11, 12, 13}));
  log.Append(ChurnEvent::RenameAttribute("rich.com", 1, "author full name"));
  log.Append(ChurnEvent::SetCooperative("rich.com", false));

  Result<std::string> blob = log.Serialize();
  ASSERT_TRUE(blob.ok()) << blob.status().ToString();
  Result<ChurnLog> parsed = ChurnLog::Parse(blob.ValueOrDie());
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  ASSERT_EQ(parsed.ValueOrDie().size(), log.size());

  // Round-tripping again yields the identical blob (canonical form).
  Result<std::string> blob2 = parsed.ValueOrDie().Serialize();
  ASSERT_TRUE(blob2.ok());
  EXPECT_EQ(blob.ValueOrDie(), blob2.ValueOrDie());

  // The parsed add-events reconstruct the sources faithfully.
  const ChurnEvent& add0 = parsed.ValueOrDie().events()[0];
  EXPECT_EQ(add0.source.name(), "rich.com");
  ASSERT_EQ(add0.source.attribute_count(), 2u);
  EXPECT_EQ(add0.source.attribute(1).name, "author name");
  EXPECT_EQ(add0.source.tuples(), (std::vector<uint64_t>{11, 12}));
  EXPECT_EQ(add0.source.cardinality(), 99u);
  EXPECT_TRUE(add0.source.has_tuples());
  EXPECT_DOUBLE_EQ(*add0.source.characteristics().Get("mttf"), 123.5);

  const ChurnEvent& add1 = parsed.ValueOrDie().events()[1];
  EXPECT_FALSE(add1.source.has_tuples());
  EXPECT_EQ(add1.source.cardinality(), 1000u);
}

TEST(ChurnLogTest, SerializeRejectsWhitespaceSourceNames) {
  ChurnLog log;
  log.Append(ChurnEvent::RemoveSource("two words"));
  Result<std::string> blob = log.Serialize();
  ASSERT_FALSE(blob.ok());
  EXPECT_EQ(blob.status().code(), StatusCode::kInvalidArgument);
}

TEST(ChurnLogTest, ParseReportsLineNumbers) {
  Result<ChurnLog> bad = ChurnLog::Parse(
      "# mube churn log v1\n"
      "remove ok.com\n"
      "frobnicate what\n");
  ASSERT_FALSE(bad.ok());
  EXPECT_NE(bad.status().message().find("line 3"), std::string::npos)
      << bad.status().ToString();

  EXPECT_FALSE(ChurnLog::Parse("add unterminated.com\n").ok());
  EXPECT_FALSE(ChurnLog::Parse("rename x.com notanumber foo\n").ok());
  EXPECT_FALSE(ChurnLog::Parse("cooperative x.com 2\n").ok());
  // Cooperative add block without tuples is contradictory.
  EXPECT_FALSE(ChurnLog::Parse("add x.com\nattr -1 a\ncoop 1\nend\n").ok());
}

TEST(ChurnLogTest, ReplayIsDeterministic) {
  // Applying a log and applying its parse of its serialization produce
  // identical universes.
  Universe u1 = SmallUniverse();
  std::vector<ChurnEvent> events = MixedBatch(u1);
  DeltaUniverse du1(std::move(u1));
  ChurnDelta d1;
  ASSERT_TRUE(du1.ApplyAll(events, &d1).ok());

  ChurnLog log;
  log.Append(events);
  Result<std::string> blob = log.Serialize();
  ASSERT_TRUE(blob.ok()) << blob.status().ToString();
  Result<ChurnLog> parsed = ChurnLog::Parse(blob.ValueOrDie());
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();

  DeltaUniverse du2(SmallUniverse());
  ChurnDelta d2;
  ASSERT_TRUE(du2.ApplyAll(parsed.ValueOrDie().events(), &d2).ok());

  const Universe& a = du1.universe();
  const Universe& b = du2.universe();
  ASSERT_EQ(a.size(), b.size());
  EXPECT_EQ(a.alive_count(), b.alive_count());
  EXPECT_EQ(a.total_cardinality(), b.total_cardinality());
  for (uint32_t sid = 0; sid < a.size(); ++sid) {
    EXPECT_EQ(a.alive(sid), b.alive(sid)) << "sid " << sid;
    EXPECT_EQ(a.source(sid).name(), b.source(sid).name());
    EXPECT_EQ(a.source(sid).tuples(), b.source(sid).tuples());
    EXPECT_EQ(a.source(sid).has_tuples(), b.source(sid).has_tuples());
    ASSERT_EQ(a.source(sid).attribute_count(),
              b.source(sid).attribute_count());
    for (uint32_t i = 0; i < a.source(sid).attribute_count(); ++i) {
      EXPECT_EQ(a.source(sid).attribute(i).name,
                b.source(sid).attribute(i).name);
    }
  }
}

// ---------------------------------------------------------- DeltaUniverse --

TEST(DeltaUniverseTest, IdsAreStableAcrossChurn) {
  DeltaUniverse du(SmallUniverse());
  ChurnDelta delta;

  ASSERT_TRUE(du.Apply(ChurnEvent::RemoveSource("beta.com"), &delta).ok());
  ASSERT_TRUE(
      du.Apply(ChurnEvent::AddSource(MakeSource("epsilon.com", {"title"},
                                                {20, 21})),
               &delta)
          .ok());

  const Universe& universe = du.universe();
  ASSERT_EQ(universe.size(), 5u);  // tombstone keeps its slot
  EXPECT_EQ(universe.alive_count(), 4u);
  EXPECT_FALSE(universe.alive(1));
  EXPECT_EQ(universe.source(1).name(), "beta.com");  // name survives
  EXPECT_TRUE(universe.source(1).tuples().empty());  // data shed
  EXPECT_EQ(universe.source(4).name(), "epsilon.com");
  EXPECT_EQ(universe.AliveSourceIds(), (std::vector<uint32_t>{0, 2, 3, 4}));

  // The tombstone still occupies its global attribute index range, so
  // surviving attribute indexes did not shift.
  EXPECT_EQ(universe.GlobalAttrIndex(AttributeRef(2, 0)), 4u);

  EXPECT_EQ(delta.alive_before, 4u);
  EXPECT_EQ(delta.removed, (std::vector<uint32_t>{1}));
  EXPECT_EQ(delta.added, (std::vector<uint32_t>{4}));
}

TEST(DeltaUniverseTest, NameReuseAfterRemovalGetsFreshSlot) {
  DeltaUniverse du(SmallUniverse());
  ChurnDelta delta;
  ASSERT_TRUE(du.Apply(ChurnEvent::RemoveSource("beta.com"), &delta).ok());
  // Re-adding under a retired name is allowed and takes a fresh id.
  ASSERT_TRUE(
      du.Apply(ChurnEvent::AddSource(MakeSource("beta.com", {"price"},
                                                {30})),
               &delta)
          .ok());
  EXPECT_EQ(du.universe().FindSource("beta.com"), std::optional<uint32_t>(4));
}

TEST(DeltaUniverseTest, ErrorsLeaveTheUniverseUntouched) {
  DeltaUniverse du(SmallUniverse());
  ChurnDelta delta;

  // Duplicate live name.
  Status dup = du.Apply(
      ChurnEvent::AddSource(MakeSource("alpha.com", {"x"}, {1})), &delta);
  EXPECT_EQ(dup.code(), StatusCode::kAlreadyExists);

  // Unknown / retired names.
  EXPECT_EQ(du.Apply(ChurnEvent::RemoveSource("nope.com"), &delta).code(),
            StatusCode::kNotFound);
  ASSERT_TRUE(du.Apply(ChurnEvent::RemoveSource("gamma.com"), &delta).ok());
  EXPECT_EQ(du.Apply(ChurnEvent::RemoveSource("gamma.com"), &delta).code(),
            StatusCode::kNotFound);
  EXPECT_EQ(
      du.Apply(ChurnEvent::UpdateTuples("gamma.com", {1}), &delta).code(),
      StatusCode::kNotFound);

  // Bad rename target.
  EXPECT_EQ(du.Apply(ChurnEvent::RenameAttribute("alpha.com", 9, "x"),
                     &delta)
                .code(),
            StatusCode::kOutOfRange);

  // Cooperation without tuples.
  ASSERT_TRUE(du.Apply(ChurnEvent::AddSource(MakeSource("mute.com", {"a"})),
                       &delta)
                  .ok());
  EXPECT_EQ(
      du.Apply(ChurnEvent::SetCooperative("mute.com", true), &delta).code(),
      StatusCode::kFailedPrecondition);

  EXPECT_EQ(du.universe().size(), 5u);
  EXPECT_EQ(du.universe().alive_count(), 4u);
}

TEST(DeltaUniverseTest, ApplyAllStopsAtFirstFailureButKeepsPrefix) {
  DeltaUniverse du(SmallUniverse());
  ChurnDelta delta;
  size_t applied = 0;
  Status status = du.ApplyAll(
      {ChurnEvent::RemoveSource("alpha.com"),
       ChurnEvent::RemoveSource("nope.com"),
       ChurnEvent::RemoveSource("beta.com")},
      &delta, &applied);
  EXPECT_EQ(status.code(), StatusCode::kNotFound);
  EXPECT_EQ(applied, 1u);
  EXPECT_EQ(delta.removed, (std::vector<uint32_t>{0}));
  EXPECT_FALSE(du.universe().alive(0));
  EXPECT_TRUE(du.universe().alive(1));  // event after the failure not run
}

TEST(DeltaUniverseTest, UpdateTuplesRefreshesCardinalityTotals) {
  DeltaUniverse du(SmallUniverse());
  const uint64_t before = du.universe().total_cardinality();
  ChurnDelta delta;
  ASSERT_TRUE(
      du.Apply(ChurnEvent::UpdateTuples("alpha.com", {1, 2}), &delta).ok());
  EXPECT_EQ(du.universe().total_cardinality(), before - 2);
  EXPECT_EQ(delta.data_changed, (std::vector<uint32_t>{0}));
}

// --------------------------------------- incremental similarity equality --

TEST(IncrementalSimilarityTest, ChurnEqualsRebuildBitwise) {
  GeneratedUniverse gen =
      GenerateUniverse(SmallGen()).ValueOrDie();
  DeltaUniverse du(std::move(gen.universe));
  auto measure = MakeSimilarityMeasure("jaccard3").ValueOrDie();

  SimilarityMatrix incremental(du.universe(), *measure);
  ChurnDelta delta;
  ASSERT_TRUE(du.ApplyAll(MixedBatch(du.universe()), &delta).ok());

  incremental.ApplyChurn(du.universe(), *measure,
                         delta.DirtySchemaSources());
  SimilarityMatrix rebuilt(du.universe(), *measure);

  ASSERT_EQ(incremental.attribute_count(), rebuilt.attribute_count());
  const size_t n = rebuilt.attribute_count();
  for (size_t i = 0; i < n; ++i) {
    EXPECT_EQ(incremental.MaxSimilarityOf(i), rebuilt.MaxSimilarityOf(i))
        << "row_max " << i;
    for (size_t j = i + 1; j < n; ++j) {
      ASSERT_EQ(incremental.At(i, j), rebuilt.At(i, j))
          << "pair (" << i << ", " << j << ")";
    }
  }

  // The point of incremental maintenance: far fewer measure calls than the
  // rebuild needed.
  EXPECT_LT(incremental.last_measure_calls(),
            rebuilt.last_measure_calls() / 2);
  EXPECT_GT(incremental.last_measure_calls(), 0u);
}

TEST(IncrementalSimilarityTest, DataOnlyChurnCostsNoMeasureCalls) {
  DeltaUniverse du(SmallUniverse());
  auto measure = MakeSimilarityMeasure("jaccard3").ValueOrDie();
  SimilarityMatrix matrix(du.universe(), *measure);

  ChurnDelta delta;
  ASSERT_TRUE(
      du.Apply(ChurnEvent::UpdateTuples("alpha.com", {9, 9, 9}), &delta)
          .ok());
  // Tuple churn does not touch schemas: nothing is schema-dirty.
  matrix.ApplyChurn(du.universe(), *measure, delta.DirtySchemaSources());
  EXPECT_EQ(matrix.last_measure_calls(), 0u);

  SimilarityMatrix rebuilt(du.universe(), *measure);
  for (size_t i = 0; i < rebuilt.attribute_count(); ++i) {
    for (size_t j = i + 1; j < rebuilt.attribute_count(); ++j) {
      ASSERT_EQ(matrix.At(i, j), rebuilt.At(i, j));
    }
  }
}

TEST(IncrementalSimilarityTest, RetiredAttributesGoQuiet) {
  DeltaUniverse du(SmallUniverse());
  auto measure = MakeSimilarityMeasure("jaccard3").ValueOrDie();
  SimilarityMatrix matrix(du.universe(), *measure);

  const size_t dead_attr = du.universe().GlobalAttrIndex(AttributeRef(0, 0));
  EXPECT_GT(matrix.MaxSimilarityOf(dead_attr), 0.0);  // "title" matches

  ChurnDelta delta;
  ASSERT_TRUE(du.Apply(ChurnEvent::RemoveSource("alpha.com"), &delta).ok());
  matrix.ApplyChurn(du.universe(), *measure, delta.DirtySchemaSources());

  for (size_t j = 0; j < matrix.attribute_count(); ++j) {
    EXPECT_EQ(matrix.At(dead_attr, j), 0.0);
  }
  EXPECT_EQ(matrix.MaxSimilarityOf(dead_attr), 0.0);
}

// ----------------------------------------- incremental signature equality --

TEST(IncrementalSignatureTest, ChurnEqualsRebuild) {
  GeneratedUniverse gen = GenerateUniverse(SmallGen(23)).ValueOrDie();
  DeltaUniverse du(std::move(gen.universe));
  PcsaConfig pcsa;
  pcsa.num_maps = 64;

  SignatureCache incremental(du.universe(), pcsa);

  ChurnDelta delta;
  ASSERT_TRUE(du.ApplyAll(MixedBatch(du.universe()), &delta).ok());

  incremental.ApplyChurn(du.universe(), delta.DirtyDataSources());
  SignatureCache rebuilt(du.universe(), pcsa);

  ASSERT_EQ(incremental.cooperative_count(), rebuilt.cooperative_count());
  // Exact agreement, sketch by sketch: incremental maintenance re-sketches
  // only dirty sources, but sketching is deterministic, so the bitmaps —
  // and hence every estimate — are identical to a from-scratch build.
  for (uint32_t sid = 0; sid < du.universe().size(); ++sid) {
    ASSERT_EQ(incremental.IsCooperative(sid), rebuilt.IsCooperative(sid))
        << "sid " << sid;
    if (!incremental.IsCooperative(sid)) continue;
    EXPECT_EQ(incremental.SketchOf(sid)->bitmaps(),
              rebuilt.SketchOf(sid)->bitmaps())
        << "sid " << sid;
  }
  EXPECT_EQ(incremental.EstimateUniverseUnion(),
            rebuilt.EstimateUniverseUnion());

  // Union estimates agree on arbitrary subsets (including ones crossing
  // removed, added, and updated sources).
  Rng rng(7);
  for (int trial = 0; trial < 20; ++trial) {
    std::vector<size_t> picks =
        rng.SampleWithoutReplacement(du.universe().size(), 5);
    std::vector<uint32_t> subset(picks.begin(), picks.end());
    EXPECT_EQ(incremental.EstimateUnion(subset),
              rebuilt.EstimateUnion(subset));
  }
}

TEST(IncrementalSignatureTest, RemovedSourceLeavesTheUnion) {
  DeltaUniverse du(SmallUniverse());
  PcsaConfig pcsa;
  pcsa.num_maps = 64;
  SignatureCache cache(du.universe(), pcsa);
  ASSERT_TRUE(cache.IsCooperative(2));

  ChurnDelta delta;
  ASSERT_TRUE(du.Apply(ChurnEvent::RemoveSource("gamma.com"), &delta).ok());
  cache.ApplyChurn(du.universe(), delta.DirtyDataSources());

  EXPECT_FALSE(cache.IsCooperative(2));
  EXPECT_EQ(cache.SketchOf(2), nullptr);
  // A subset containing the tombstone estimates as if it were absent.
  EXPECT_EQ(cache.EstimateUnion({0, 2}), cache.EstimateUnion({0}));
  EXPECT_EQ(cache.EstimateUniverseUnion(),
            SignatureCache(du.universe(), pcsa).EstimateUniverseUnion());
}

// ------------------------------------------------------------- memo bounds --

TEST(SignatureMemoTest, CapacityBoundsEntriesAndCountsTraffic) {
  GeneratedUniverse gen = GenerateUniverse(SmallGen(29)).ValueOrDie();
  PcsaConfig pcsa;
  pcsa.num_maps = 64;
  SignatureCache cache(gen.universe, pcsa);
  cache.set_memo_capacity(8);

  Rng rng(3);
  for (int trial = 0; trial < 100; ++trial) {
    std::vector<size_t> picks =
        rng.SampleWithoutReplacement(gen.universe.size(), 4);
    cache.EstimateUnion(std::vector<uint32_t>(picks.begin(), picks.end()));
  }

  SignatureCache::MemoStats stats = cache.memo_stats();
  EXPECT_LE(stats.entries, 8u);
  EXPECT_EQ(stats.capacity, 8u);
  EXPECT_GT(stats.evictions, 0u);
  EXPECT_GT(stats.misses, 0u);

  // A hit: repeat a subset, order-independently.
  const double first = cache.EstimateUnion({1, 2, 3});
  const size_t hits_before = cache.memo_stats().hits;
  EXPECT_EQ(cache.EstimateUnion({3, 1, 2}), first);
  EXPECT_EQ(cache.memo_stats().hits, hits_before + 1);
}

TEST(SignatureMemoTest, ChurnInvalidatesOnlyTouchedSubsets) {
  DeltaUniverse du(SmallUniverse());
  PcsaConfig pcsa;
  pcsa.num_maps = 64;
  SignatureCache cache(du.universe(), pcsa);

  cache.EstimateUnion({0, 1});  // will be invalidated (touches source 0)
  cache.EstimateUnion({2, 3});  // survives
  ASSERT_EQ(cache.memo_stats().entries, 2u);

  ChurnDelta delta;
  ASSERT_TRUE(
      du.Apply(ChurnEvent::UpdateTuples("alpha.com", {500, 501, 502, 503}),
               &delta)
          .ok());
  cache.ApplyChurn(du.universe(), delta.DirtyDataSources());

  SignatureCache::MemoStats stats = cache.memo_stats();
  EXPECT_EQ(stats.invalidations, 1u);
  EXPECT_EQ(stats.entries, 1u);

  // The invalidated subset re-estimates against the new tuples and agrees
  // with a fresh cache.
  SignatureCache fresh(du.universe(), pcsa);
  EXPECT_EQ(cache.EstimateUnion({0, 1}), fresh.EstimateUnion({0, 1}));
  EXPECT_EQ(cache.EstimateUnion({2, 3}), fresh.EstimateUnion({2, 3}));
}

// ------------------------------------------------------------ warm starts --

TEST(WarmStartTest, RepairsTheHint) {
  Universe universe = SmallUniverse();
  ChurnDelta delta;
  DeltaUniverse du(std::move(universe));
  ASSERT_TRUE(du.Apply(ChurnEvent::RemoveSource("delta.com"), &delta).ok());
  ASSERT_TRUE(du.Apply(ChurnEvent::AddSource(MakeSource(
                           "epsilon.com", {"title"}, {40})),
                       &delta)
                  .ok());
  ASSERT_TRUE(du.Apply(ChurnEvent::AddSource(MakeSource(
                           "zeta.com", {"isbn"}, {41})),
                       &delta)
                  .ok());

  Problem problem;
  problem.universe = &du.universe();
  problem.effective_constraints = {2};
  problem.max_sources = 4;

  Rng rng(11);
  // Hint: a dead source (3), a duplicate of a constraint (2), an
  // out-of-range id, and two live survivors (0, 1).
  Result<std::vector<uint32_t>> warm =
      WarmStartSubset(problem, {3, 2, 99, 0, 1}, &rng);
  ASSERT_TRUE(warm.ok()) << warm.status().ToString();
  const std::vector<uint32_t>& solution = warm.ValueOrDie();
  ASSERT_EQ(solution.size(), 4u);
  // Constraint present; survivors kept; dead/out-of-range evicted; the
  // remaining slot filled with a live non-member (4 or 5).
  EXPECT_TRUE(std::count(solution.begin(), solution.end(), 2u) == 1);
  EXPECT_TRUE(std::count(solution.begin(), solution.end(), 0u) == 1);
  EXPECT_TRUE(std::count(solution.begin(), solution.end(), 1u) == 1);
  EXPECT_EQ(std::count(solution.begin(), solution.end(), 3u), 0);
  for (uint32_t sid : solution) {
    EXPECT_TRUE(du.universe().alive(sid)) << "sid " << sid;
  }
}

TEST(ReOptimizerTest, PlansColdWithoutAPreviousSolution) {
  Universe universe = SmallUniverse();
  ChurnDelta delta;
  delta.alive_before = 4;
  delta.data_changed = {0};
  ReOptimizer planner;
  ReOptimizePlan plan = planner.Plan(universe, delta, {}, 1000);
  EXPECT_FALSE(plan.warm);
  EXPECT_EQ(plan.max_evaluations, 1000u);
}

TEST(ReOptimizerTest, PlansColdPastTheChurnThreshold) {
  Universe universe = SmallUniverse();
  ChurnDelta delta;
  delta.alive_before = 4;
  delta.removed = {0, 1};  // 50% churn > default 25% threshold
  ReOptimizer planner;
  ReOptimizePlan plan = planner.Plan(universe, delta, {2, 3}, 1000);
  EXPECT_FALSE(plan.warm);
  EXPECT_DOUBLE_EQ(plan.churn_fraction, 0.5);
  EXPECT_EQ(plan.max_evaluations, 1000u);
}

TEST(ReOptimizerTest, WarmPlanEvictsDeadSourcesAndScalesBudget) {
  DeltaUniverse du(SmallUniverse());
  ChurnDelta delta;
  ASSERT_TRUE(du.Apply(ChurnEvent::RemoveSource("alpha.com"), &delta).ok());

  ReOptimizer planner;
  ReOptimizePlan plan = planner.Plan(du.universe(), delta, {0, 1, 2}, 1000);
  EXPECT_TRUE(plan.warm);
  EXPECT_EQ(plan.initial_solution, (std::vector<uint32_t>{1, 2}));
  EXPECT_EQ(plan.max_evaluations, 400u);  // 0.4 × cold
  EXPECT_DOUBLE_EQ(plan.churn_fraction, 0.25);

  // The floor wins over the scale for small budgets.
  EXPECT_EQ(planner.Plan(du.universe(), delta, {1, 2}, 300).max_evaluations,
            200u);  // min(cold = 300, max(floor = 200, 0.4 × 300))

  // Nothing surviving → cold.
  EXPECT_FALSE(planner.Plan(du.universe(), delta, {0}, 1000).warm);
}

// -------------------------------------------------- engine + session churn --

TEST(MubeChurnTest, StaleConstraintFailsLoudly) {
  GeneratedUniverse gen = GenerateUniverse(SmallGen(31)).ValueOrDie();
  DeltaUniverse du(std::move(gen.universe));
  ChurnDelta delta;
  const std::string victim = du.universe().source(3).name();
  ASSERT_TRUE(du.Apply(ChurnEvent::RemoveSource(victim), &delta).ok());

  auto mube = Mube::Create(&du.universe(), FastConfig()).ValueOrDie();
  RunSpec spec;
  spec.source_constraints = {3};
  Result<MubeResult> result = mube->Run(spec);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kFailedPrecondition);
  EXPECT_NE(result.status().message().find("removed"), std::string::npos)
      << result.status().ToString();
}

TEST(SessionChurnTest, StaticSessionRejectsChurn) {
  GeneratedUniverse gen = GenerateUniverse(SmallGen(37)).ValueOrDie();
  auto session = Session::Create(&gen.universe, FastConfig()).ValueOrDie();
  Status status = session->ApplyChurn({ChurnEvent::RemoveSource("x")});
  EXPECT_EQ(status.code(), StatusCode::kFailedPrecondition);
}

TEST(SessionChurnTest, ChurnPrunesStalePinsAndLogsEvents) {
  GeneratedUniverse gen = GenerateUniverse(SmallGen(41)).ValueOrDie();
  DeltaUniverse du(std::move(gen.universe));
  auto session = Session::Create(&du, FastConfig()).ValueOrDie();

  const std::string victim = du.universe().source(2).name();
  ASSERT_TRUE(session->PinSource(victim).ok());
  ASSERT_TRUE(session->PinSource(uint32_t{5}).ok());
  ASSERT_EQ(session->pinned_sources().size(), 2u);

  ASSERT_TRUE(
      session->ApplyChurn({ChurnEvent::RemoveSource(victim)}).ok());
  EXPECT_EQ(session->pinned_sources(), (std::vector<uint32_t>{5}));
  EXPECT_EQ(session->churn_log().size(), 1u);
  EXPECT_FALSE(session->pending_churn().empty());

  // Re-pinning the tombstone is refused with a clear error.
  Status stale = session->PinSource(uint32_t{2});
  EXPECT_EQ(stale.code(), StatusCode::kFailedPrecondition);
  EXPECT_NE(stale.message().find("removed"), std::string::npos);
}

TEST(SessionChurnTest, GaConstraintOnRemovedSourceRejected) {
  GeneratedUniverse gen = GenerateUniverse(SmallGen(41)).ValueOrDie();
  DeltaUniverse du(std::move(gen.universe));
  auto session = Session::Create(&du, FastConfig()).ValueOrDie();
  ASSERT_TRUE(session
                  ->ApplyChurn({ChurnEvent::RemoveSource(
                      du.universe().source(2).name())})
                  .ok());

  // A GA over the tombstone is refused up front, like a pin on it, instead
  // of failing the next Iterate().
  Status stale = session->AddGaConstraint(
      GlobalAttribute({AttributeRef(1, 0), AttributeRef(2, 0)}));
  EXPECT_EQ(stale.code(), StatusCode::kFailedPrecondition);
  EXPECT_NE(stale.message().find("removed"), std::string::npos);
  EXPECT_TRUE(session->ga_constraints().empty());
  ASSERT_TRUE(session
                  ->AddGaConstraint(GlobalAttribute(
                      {AttributeRef(1, 0), AttributeRef(3, 0)}))
                  .ok());
  Result<MubeResult> result = session->Iterate();
  EXPECT_TRUE(result.ok()) << result.status().ToString();
}

TEST(SessionChurnTest, ReIterateRunsWarmAfterSmallChurn) {
  GeneratedUniverse gen = GenerateUniverse(SmallGen(43)).ValueOrDie();
  DeltaUniverse du(std::move(gen.universe));
  auto session = Session::Create(&du, FastConfig()).ValueOrDie();

  Result<MubeResult> first = session->Iterate();
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  const std::vector<uint32_t> previous = first.ValueOrDie().solution.sources;

  // Remove one chosen source and one bystander (~5% churn).
  const std::string chosen = du.universe().source(previous[0]).name();
  const uint32_t bystander_id = [&] {
    for (uint32_t sid : du.universe().AliveSourceIds()) {
      if (std::find(previous.begin(), previous.end(), sid) ==
          previous.end()) {
        return sid;
      }
    }
    return previous[0];
  }();
  const std::string bystander = du.universe().source(bystander_id).name();
  ASSERT_TRUE(session
                  ->ApplyChurn({ChurnEvent::RemoveSource(chosen),
                                ChurnEvent::RemoveSource(bystander)})
                  .ok());

  Result<MubeResult> second = session->ReIterate();
  ASSERT_TRUE(second.ok()) << second.status().ToString();
  EXPECT_EQ(session->history().size(), 2u);
  EXPECT_TRUE(session->pending_churn().empty());
  for (uint32_t sid : second.ValueOrDie().solution.sources) {
    EXPECT_TRUE(du.universe().alive(sid));
  }

  // Without pending churn, ReIterate degrades to a plain Iterate.
  Result<MubeResult> third = session->ReIterate();
  ASSERT_TRUE(third.ok()) << third.status().ToString();
  EXPECT_EQ(session->history().size(), 3u);
}

// ------------------------------------------------------ warm alternatives --

TEST(WarmAlternativesTest, WarmSeedNeverRegressesBelowItsIncumbent) {
  GeneratedUniverse gen = GenerateUniverse(SmallGen(47)).ValueOrDie();
  auto mube = Mube::Create(&gen.universe, FastConfig()).ValueOrDie();

  RunSpec spec;
  spec.seed = 9;
  const MubeResult incumbent = mube->Run(spec).ValueOrDie();

  // Resuming from the incumbent under a starved budget: the search keeps
  // its best-seen start point, so the warm member can only improve on it.
  Mube::AlternativeSeed seed;
  seed.initial_solution = incumbent.solution.sources;
  seed.max_evaluations = 32;
  std::vector<MubeResult> warm =
      mube->RunAlternatives(spec, 1, {seed}).ValueOrDie();
  ASSERT_FALSE(warm.empty());
  EXPECT_GE(warm[0].solution.overall, incumbent.solution.overall);

  // Warm seeding is deterministic: same spec + same seeds → same results.
  std::vector<MubeResult> again =
      mube->RunAlternatives(spec, 1, {seed}).ValueOrDie();
  EXPECT_EQ(again[0].solution.sources, warm[0].solution.sources);
  EXPECT_DOUBLE_EQ(again[0].solution.overall, warm[0].solution.overall);
}

TEST(WarmAlternativesTest, SessionPortfolioWarmsEachSlotAcrossChurn) {
  GeneratedUniverse gen = GenerateUniverse(SmallGen(53)).ValueOrDie();
  DeltaUniverse du(std::move(gen.universe));
  auto session = Session::Create(&du, FastConfig()).ValueOrDie();
  MetricsRegistry registry;
  session->SetMetrics(&registry);

  std::vector<MubeResult> first =
      session->IterateAlternatives(3).ValueOrDie();
  ASSERT_FALSE(first.empty());
  for (size_t i = 1; i < first.size(); ++i) {
    EXPECT_GE(first[i - 1].solution.overall, first[i].solution.overall);
  }
  // Exploratory: no committed iteration, nothing pending.
  EXPECT_TRUE(session->history().empty());

  // Churn one selected source away; the next portfolio call plans every
  // slot through the ReOptimizer (warm where the incumbent survived).
  const std::string victim =
      du.universe().source(first[0].solution.sources[0]).name();
  ASSERT_TRUE(session->ApplyChurn({ChurnEvent::RemoveSource(victim)}).ok());
  std::vector<MubeResult> second =
      session->IterateAlternatives(3).ValueOrDie();
  ASSERT_FALSE(second.empty());
  for (const MubeResult& result : second) {
    for (uint32_t sid : result.solution.sources) {
      EXPECT_TRUE(du.universe().alive(sid));
    }
  }
  // IterateAlternatives left the pending churn for ReIterate to plan on.
  EXPECT_FALSE(session->pending_churn().empty());
  ASSERT_TRUE(session->ReIterate().ok());
  EXPECT_TRUE(session->pending_churn().empty());

  // The per-slot plans were recorded: every second-call slot took a
  // warm-or-cold decision, and the engine counted each portfolio member.
  const uint64_t warm =
      registry.GetCounter("mube_session_reopt_warm_total")->Value();
  const uint64_t cold =
      registry.GetCounter("mube_session_reopt_cold_total")->Value();
  EXPECT_GE(warm + cold, 2u);  // ≥1 portfolio slot + the ReIterate plan
  EXPECT_GE(registry.GetCounter("mube_runs_total")->Value(), 7u);
  EXPECT_EQ(registry.GetCounter("mube_session_churn_events_total")->Value(),
            1u);
  EXPECT_GT(registry.GetHistogram("mube_session_reopt_budget_evaluations", {})
                ->TakeSnapshot()
                .count,
            0u);
}

}  // namespace
}  // namespace mube
