// Tests of the benchmark's own helpers: the statistics and metric naming
// the result line rests on, the counting similarity decorator, and the
// rebuilt Run path that the traced pass compares with Mube::Run.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <fstream>
#include <memory>
#include <regex>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "core/mube.h"
#include "datagen/generator.h"
#include "stats.h"
#include "text/similarity.h"
#include "text/similarity_matrix.h"
#include "text/sparse_similarity.h"
#include "trace.h"
#include "traced_run.h"
#include "workloads.h"

namespace perfbench {
namespace {

// ---- statistics -------------------------------------------------------------

TEST(StatsTest, MedianOfOddEvenAndEmpty) {
  EXPECT_EQ(Median({}), 0.0);
  EXPECT_EQ(Median({3.0, 1.0, 2.0}), 2.0);
  EXPECT_EQ(Median({4.0, 1.0, 3.0, 2.0}), 2.5);
}

TEST(StatsTest, TailNeedsTenSamplesBeyond) {
  std::vector<double> ten(10, 1.0);
  EXPECT_FALSE(TailPercentile(ten).supported);
  EXPECT_EQ(TailPercentile(ten).samples, 10u);

  // Eleven samples: only the smallest has ten beyond it.
  std::vector<double> eleven = {11, 3, 7, 1, 9, 2, 10, 5, 4, 8, 6};
  const Tail t = TailPercentile(eleven);
  ASSERT_TRUE(t.supported);
  EXPECT_EQ(t.value, 1.0);
  EXPECT_EQ(t.beyond, 10u);
  EXPECT_NEAR(t.percentile, 100.0 / 11.0, 1e-12);
}

TEST(StatsTest, TailIsHighestPercentileWithTenBeyond) {
  std::vector<double> v;
  for (int i = 100; i >= 1; --i) v.push_back(i);  // unsorted input
  const Tail t = TailPercentile(v);
  ASSERT_TRUE(t.supported);
  EXPECT_EQ(t.value, 90.0);  // 91..100 lie beyond it
  EXPECT_EQ(t.percentile, 90.0);
  EXPECT_EQ(t.samples, 100u);
  size_t beyond = 0;
  for (double x : v) beyond += x > t.value ? 1 : 0;
  EXPECT_EQ(beyond, 10u);

  const Tail t5 = TailPercentile(v, 5);
  EXPECT_EQ(t5.value, 95.0);
  EXPECT_EQ(t5.percentile, 95.0);
}

// ---- metric names -----------------------------------------------------------

TEST(MetricNameTest, AcceptsTheBenchmarkAlphabet) {
  for (const char* ok : {"setup_s", "run_p50_ms", "qef.mttf.us_per_eval",
                         "match.calls.u100", "a-b", "9lives"}) {
    EXPECT_TRUE(ValidMetricName(ok)) << ok;
  }
  EXPECT_TRUE(ValidMetricName(std::string(64, 'a')));
}

TEST(MetricNameTest, RejectsEverythingElse) {
  for (const char* bad : {"", ".x", "_x", "-x", "a b", "a/b", "p50%",
                          "naïve", "a,b", "{x}"}) {
    EXPECT_FALSE(ValidMetricName(bad)) << bad;
  }
  EXPECT_FALSE(ValidMetricName(std::string(65, 'a')));
}

TEST(MetricNameTest, MetricSetRefusesInvalidAndRepeatedNames) {
  MetricSet m;
  EXPECT_TRUE(m.Add("run_p50_ms", 1.5, "ms"));
  EXPECT_FALSE(m.Add("run_p50_ms", 2.0, "ms"));
  EXPECT_FALSE(m.Add("bad name", 2.0, "ms"));
  ASSERT_EQ(m.metrics().size(), 1u);
  EXPECT_EQ(m.ToJson(),
            "{\"run_p50_ms\": {\"value\": 1.5, \"unit\": \"ms\"}}");
}

TEST(MetricNameTest, EveryNameInBenchmarkJsonIsValid) {
  std::ifstream in(PERFBENCH_BENCHMARK_JSON);
  ASSERT_TRUE(in.good()) << PERFBENCH_BENCHMARK_JSON;
  std::stringstream text;
  text << in.rdbuf();
  const std::string json = text.str();
  const std::regex name_re("\"name\": \"([^\"]*)\"");
  size_t names = 0;
  for (std::sregex_iterator it(json.begin(), json.end(), name_re), end;
       it != end; ++it) {
    EXPECT_TRUE(ValidMetricName((*it)[1].str())) << (*it)[1].str();
    ++names;
  }
  EXPECT_GT(names, 10u);
}

// ---- fixtures -----------------------------------------------------------------

mube::GeneratedUniverse SmallUniverse(size_t n, uint64_t seed) {
  mube::GeneratorConfig config;
  config.seed = seed;
  config.num_sources = n;
  config.min_cardinality = 100;
  config.max_cardinality = 2'000;
  config.tuple_pool_size = 20'000;
  return mube::GenerateUniverse(config).ValueOrDie();
}

/// Runs every query of the SimilaritySource interface on both sources and
/// expects identical answers.
void ExpectSameAnswers(const mube::SimilaritySource& inner,
                       const mube::SimilaritySource& wrapped, double theta) {
  ASSERT_EQ(inner.attribute_count(), wrapped.attribute_count());
  EXPECT_EQ(inner.neighbor_floor(), wrapped.neighbor_floor());
  EXPECT_EQ(inner.MemoryBytes(), wrapped.MemoryBytes());
  EXPECT_EQ(inner.last_measure_calls(), wrapped.last_measure_calls());
  const size_t n = inner.attribute_count();
  for (size_t i = 0; i < n; ++i) {
    EXPECT_EQ(inner.MaxSimilarityOf(i), wrapped.MaxSimilarityOf(i));
    for (size_t j = 0; j < n; ++j) {
      ASSERT_EQ(inner.At(i, j), wrapped.At(i, j)) << i << "," << j;
    }
    std::vector<std::pair<size_t, float>> a, b;
    inner.ForEachNeighborAtLeast(
        i, theta, [&](size_t j, float s) { a.emplace_back(j, s); });
    wrapped.ForEachNeighborAtLeast(
        i, theta, [&](size_t j, float s) { b.emplace_back(j, s); });
    ASSERT_EQ(a, b) << "row " << i;
  }
}

TEST(CountingSimilarityTest, ForwardsExactlyAndCountsDense) {
  const mube::GeneratedUniverse g = SmallUniverse(25, 3);
  mube::NGramJaccard measure(3);
  mube::SimilarityMatrix dense(g.universe, measure);
  CountingSimilaritySource counting(dense, nullptr);
  ExpectSameAnswers(dense, counting, 0.5);

  const size_t n = dense.attribute_count();
  const CountingSimilaritySource::Counts c = counting.counts();
  EXPECT_EQ(c.at_reads, n * n);
  EXPECT_EQ(c.neighbor_calls, n);
  size_t expected_visits = 0;
  for (size_t i = 0; i < n; ++i) {
    dense.ForEachNeighborAtLeast(i, 0.5,
                                 [&](size_t, float) { ++expected_visits; });
  }
  EXPECT_EQ(c.neighbor_visits, expected_visits);
}

TEST(CountingSimilarityTest, ForwardsExactlySparse) {
  const mube::GeneratedUniverse g = SmallUniverse(25, 4);
  mube::NGramJaccard measure(3);
  mube::SparseSimilarityIndex sparse(g.universe, measure);
  CountingSimilaritySource counting(sparse, nullptr);
  ExpectSameAnswers(sparse, counting, sparse.neighbor_floor());
}

TEST(CountingSimilarityTest, OneMatchSpanPerMatchCall) {
  const mube::GeneratedUniverse g = SmallUniverse(20, 5);
  mube::NGramJaccard measure(3);
  mube::SimilarityMatrix dense(g.universe, measure);
  Tracer tracer;
  SpanContext context{&tracer, -1, 7};
  CountingSimilaritySource counting(dense, &context);
  mube::Matcher matcher(g.universe, counting);
  mube::MatchOptions options;
  const std::vector<std::vector<uint32_t>> subsets = {{0, 1, 2, 3}, {4, 5}};
  size_t attrs = 0;
  for (const auto& s : subsets) {
    ASSERT_TRUE(matcher.Match(s, options).ok());
    for (uint32_t sid : s) attrs += g.universe.source(sid).attribute_count();
  }
  counting.Flush();
  const CountingSimilaritySource::Counts c = counting.counts();
  EXPECT_EQ(c.matches, subsets.size());
  EXPECT_EQ(c.match_attrs, attrs);  // |A_S| summed over the two Matches
  const auto layers = tracer.Layers();
  ASSERT_EQ(layers.count("match"), 1u);
  EXPECT_EQ(layers.at("match").count, subsets.size());
  for (const Tracer::Span& s : tracer.spans()) EXPECT_EQ(s.request, 7u);
}

TEST(TracerTest, SelfTimeSubtractsChildren) {
  Tracer tracer;
  const uint32_t run = tracer.Intern("run");
  const uint32_t opt = tracer.Intern("opt");
  const int64_t root = tracer.Record(run, -1, 1, 0, 100);
  tracer.Record(opt, root, 1, 10, 40);
  tracer.Record(opt, root, 1, 50, 90);
  const auto layers = tracer.Layers();
  EXPECT_EQ(layers.at("run").total_ns, 100);
  EXPECT_EQ(layers.at("run").self_ns, 30);
  EXPECT_EQ(layers.at("opt").total_ns, 70);
  EXPECT_EQ(layers.at("opt").self_ns, 70);
  EXPECT_EQ(layers.at("opt").count, 2u);
}

// ---- the rebuilt Run path ------------------------------------------------------

std::vector<mube::RunSpec> SmallSpecs(const mube::GeneratedUniverse& g) {
  std::vector<mube::RunSpec> specs(4);
  specs[0].seed = 11;
  specs[1].seed = 12;
  specs[1].source_constraints = {g.unperturbed_source_ids[0]};
  specs[2].seed = 13;
  specs[2].theta = 0.7;
  specs[2].optimizer = "sls";
  specs[3].seed = 14;
  specs[3].source_health = {{g.unperturbed_source_ids[1], 0.2}};
  return specs;
}

TEST(TracedRunTest, RebuiltProblemMatchesMubeRun) {
  const mube::GeneratedUniverse g = SmallUniverse(40, 9);
  mube::MubeConfig config = mube::MubeConfig::PaperDefaults();
  config.max_sources = 6;
  config.similarity_index = "dense";
  config.optimizer_options.max_evaluations = 150;
  config.optimizer_options.threads = 1;
  auto engine = mube::Mube::Create(&g.universe, config).ValueOrDie();

  Tracer tracer;
  TracedEngine traced(*engine, &tracer);
  size_t misses = 0;
  uint64_t request = 0;
  for (const mube::RunSpec& spec : SmallSpecs(g)) {
    const mube::MubeResult plain = engine->Run(spec).ValueOrDie();
    const TracedResult t = traced.Run(spec, ++request).ValueOrDie();
    EXPECT_TRUE(SameSolution(plain.solution, t.solution));
    EXPECT_EQ(CheckResult(plain, spec.source_constraints,
                          spec.ga_constraints, 6),
              "");
    EXPECT_GT(t.evaluations, 0u);
    EXPECT_LE(t.opt_ns, t.run_ns);
    misses += t.match_memo.misses;
  }
  // One match span per Match execution (= memo miss), all under "opt".
  EXPECT_EQ(traced.counts().matches, misses);
  const auto layers = tracer.Layers();
  EXPECT_EQ(layers.at("run").count, 4u);
  EXPECT_EQ(layers.at("match").count, misses);
  EXPECT_GT(layers.at("qef.matching").count, 0u);
  EXPECT_GT(layers.at("qef.mttf").count, 0u);
  EXPECT_GT(layers.at("qef.health").count, 0u);
}

TEST(TracedRunTest, SameSolutionSeesEveryField) {
  const mube::GeneratedUniverse g = SmallUniverse(30, 2);
  mube::MubeConfig config = mube::MubeConfig::PaperDefaults();
  config.max_sources = 5;
  config.optimizer_options.max_evaluations = 80;
  auto engine = mube::Mube::Create(&g.universe, config).ValueOrDie();
  mube::RunSpec spec;
  spec.seed = 3;
  const mube::SolutionEval base = engine->Run(spec).ValueOrDie().solution;
  EXPECT_TRUE(SameSolution(base, base));
  mube::SolutionEval other = base;
  other.qef_values[1] = std::nextafter(other.qef_values[1], 2.0);
  EXPECT_FALSE(SameSolution(base, other));
  other = base;
  other.overall = std::nextafter(other.overall, 2.0);
  EXPECT_FALSE(SameSolution(base, other));
  other = base;
  other.sources.pop_back();
  EXPECT_FALSE(SameSolution(base, other));
  other = base;
  other.schema = mube::MediatedSchema();
  EXPECT_FALSE(SameSolution(base, other));
}

TEST(CheckResultTest, FlagsBrokenAnswers) {
  const mube::GeneratedUniverse g = SmallUniverse(30, 6);
  mube::MubeConfig config = mube::MubeConfig::PaperDefaults();
  config.max_sources = 5;
  config.optimizer_options.max_evaluations = 80;
  auto engine = mube::Mube::Create(&g.universe, config).ValueOrDie();
  mube::RunSpec spec;
  spec.seed = 5;
  spec.source_constraints = {g.unperturbed_source_ids[0]};
  const mube::MubeResult good = engine->Run(spec).ValueOrDie();
  ASSERT_EQ(CheckResult(good, spec.source_constraints, {}, 5), "");
  EXPECT_NE(CheckResult(good, spec.source_constraints, {}, 4), "");

  mube::MubeResult bad = good;
  bad.solution.qef_values[0] = 1.5;
  EXPECT_NE(CheckResult(bad, spec.source_constraints, {}, 5), "");
  bad = good;
  bad.solution.feasible = false;
  EXPECT_NE(CheckResult(bad, spec.source_constraints, {}, 5), "");

  uint32_t outside = 0;
  while (std::binary_search(good.solution.sources.begin(),
                            good.solution.sources.end(), outside)) {
    ++outside;
  }
  EXPECT_NE(CheckResult(good, {outside}, {}, 5), "");
  mube::MediatedSchema g_outside;
  g_outside.Add(mube::GlobalAttribute({mube::AttributeRef(outside, 0)}));
  EXPECT_NE(CheckResult(good, spec.source_constraints, g_outside, 5), "");
}

}  // namespace
}  // namespace perfbench
