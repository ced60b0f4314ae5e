// Internet-scale universe bench: the sparse candidate-blocked similarity
// index (3-gram inverted index + minhash-LSH, src/text/sparse_similarity.h)
// against the dense SimilarityMatrix it replaces at 10⁵-source scale.
//
// Exit-code-enforced bars (all recorded in BENCH_universe_scale.json):
//
//   build    sparse build time ≤ 1/20 of the dense build extrapolated
//            quadratically from a timed small prefix slice, and index
//            memory ≤ 1/20 of the dense triangle's 4·|A|²/2 bytes.
//   block    candidate pairs verified < 1% of the dense comparable-pair
//            count (cross-source, live pairs).
//   recall   ≥ 0.999 of the pairs ≥ θ = 0.75 found by an exhaustive dense
//            matrix on a 5k-source differential slice are enumerated by the
//            sparse index, with bit-identical scores for every covered pair.
//   churn    ApplyChurn after retiring/adding ~1% of the slice's sources
//            costs ≤ 10% of a fresh rebuild's measure calls and leaves
//            every row bit-identical to that rebuild.
//   e2e      a full engine (Mube::Create, auto-selected sparse index) runs
//            one optimizer iteration end-to-end on the full universe.
//
// MUBE_BENCH_QUICK=1 shrinks the universe (20k sources) and the slices —
// the CI universe-scale-smoke job — with the same bars enforced.

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "common/timer.h"
#include "core/mube.h"
#include "datagen/scale.h"
#include "text/similarity.h"
#include "text/similarity_matrix.h"
#include "text/sparse_similarity.h"

using namespace mube;         // NOLINT
using namespace mube::bench;  // NOLINT

namespace {

/// Resident set size from /proc/self/status, in bytes (0 if unreadable).
size_t CurrentRssBytes() {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return 0;
  char line[256];
  size_t rss_kb = 0;
  while (std::fgets(line, sizeof(line), f) != nullptr) {
    if (std::sscanf(line, "VmRSS: %zu kB", &rss_kb) == 1) break;
  }
  std::fclose(f);
  return rss_kb * 1024;
}

/// Cross-source live pairs a dense matrix would score — the denominator of
/// the blocking-effectiveness bar.
double DenseComparablePairs(const Universe& u) {
  double live_attrs = 0.0, same_source = 0.0;
  for (uint32_t s = 0; s < u.size(); ++s) {
    if (!u.alive(s)) continue;
    const double a = static_cast<double>(u.source(s).attribute_count());
    live_attrs += a;
    same_source += a * (a - 1.0) / 2.0;
  }
  return live_attrs * (live_attrs - 1.0) / 2.0 - same_source;
}

/// One row's ≥ theta neighbors as (id, bit-pattern) pairs, via the
/// SimilaritySource interface.
std::vector<std::pair<uint32_t, uint32_t>> RowAtLeast(
    const SimilaritySource& sim, size_t i, double theta) {
  std::vector<std::pair<uint32_t, uint32_t>> row;
  sim.ForEachNeighborAtLeast(i, theta, [&](size_t j, float s) {
    uint32_t bits;
    std::memcpy(&bits, &s, sizeof(bits));
    row.emplace_back(static_cast<uint32_t>(j), bits);
  });
  return row;
}

struct Bar {
  const char* name;
  double value = 0.0;
  double bar = 0.0;
  bool lower_is_better = false;
  bool pass = false;
};

}  // namespace

int main() {
  const bool quick = QuickMode();
  const size_t kFullSources = quick ? 20'000 : 100'000;
  const size_t kDenseRefSources = quick ? 400 : 1'000;
  const size_t kSliceSources = quick ? 1'200 : 5'000;
  const double kTheta = 0.75;

  auto cfg = [](size_t n) {
    ScaleConfig config;
    config.num_sources = n;
    return config;
  };
  NGramJaccard measure(3);
  std::vector<Bar> bars;

  // ---- dense reference slice: timed quadratic baseline ---------------------
  std::printf("universe_1e5: %zu sources (%s mode)\n", kFullSources,
              quick ? "quick" : "full");
  auto dense_ref = GenerateScaleUniverse(cfg(kDenseRefSources));
  if (!dense_ref.ok()) return 1;
  const size_t ref_attrs = dense_ref.ValueOrDie().universe
                               .total_attribute_count();
  WallTimer dense_timer;
  SimilarityMatrix ref_matrix(dense_ref.ValueOrDie().universe, measure);
  const double dense_ref_seconds = dense_timer.ElapsedSeconds();
  std::printf("  dense reference: %zu sources, %zu attrs, %.2fs\n",
              kDenseRefSources, ref_attrs, dense_ref_seconds);

  // ---- full sparse build ---------------------------------------------------
  auto full = GenerateScaleUniverse(cfg(kFullSources));
  if (!full.ok()) return 1;
  const Universe& fu = full.ValueOrDie().universe;
  const size_t full_attrs = fu.total_attribute_count();
  const double attr_ratio =
      static_cast<double>(full_attrs) / static_cast<double>(ref_attrs);
  const double dense_seconds_extrapolated =
      dense_ref_seconds * attr_ratio * attr_ratio;
  const double dense_bytes =
      4.0 * static_cast<double>(full_attrs) *
      static_cast<double>(full_attrs) / 2.0;

  WallTimer sparse_timer;
  SparseSimilarityIndex index(fu, measure);
  const double sparse_seconds = sparse_timer.ElapsedSeconds();
  const size_t rss_bytes = CurrentRssBytes();
  const SparseIndexStats& stats = index.stats();
  const double comparable = DenseComparablePairs(fu);
  std::printf(
      "  sparse build: %zu attrs in %.2fs (dense extrapolated: %.0fs), "
      "%.1f MB index (dense: %.0f MB), RSS %.1f MB\n",
      full_attrs, sparse_seconds, dense_seconds_extrapolated,
      static_cast<double>(index.MemoryBytes()) / 1e6, dense_bytes / 1e6,
      static_cast<double>(rss_bytes) / 1e6);
  std::printf(
      "  blocking: %llu candidates verified, %llu stored, %.0f dense "
      "comparable pairs\n",
      static_cast<unsigned long long>(stats.candidate_pairs),
      static_cast<unsigned long long>(stats.stored_pairs), comparable);

  bars.push_back({"build_time_vs_dense_extrapolated",
                  sparse_seconds / dense_seconds_extrapolated, 0.05, true,
                  false});
  bars.push_back({"index_bytes_vs_dense",
                  static_cast<double>(index.MemoryBytes()) / dense_bytes,
                  0.05, true, false});
  bars.push_back({"candidate_pair_fraction",
                  static_cast<double>(stats.candidate_pairs) / comparable,
                  0.01, true, false});

  // ---- differential slice: recall + bit-identity vs exhaustive dense ------
  auto slice = GenerateScaleUniverse(cfg(kSliceSources));
  if (!slice.ok()) return 1;
  Universe& su = slice.ValueOrDie().universe;
  const size_t slice_attrs = su.total_attribute_count();
  SimilarityMatrix dense_slice(su, measure);
  SparseSimilarityIndex sparse_slice(su, measure);
  uint64_t above_theta = 0, covered = 0, mismatched = 0;
  for (size_t i = 0; i < slice_attrs; ++i) {
    const auto want = RowAtLeast(dense_slice, i, kTheta);
    const auto have = RowAtLeast(sparse_slice, i, kTheta);
    size_t h = 0;
    for (const auto& [j, bits] : want) {
      ++above_theta;
      while (h < have.size() && have[h].first < j) ++h;
      if (h < have.size() && have[h].first == j) {
        ++covered;
        if (have[h].second != bits) ++mismatched;
      }
    }
  }
  const double recall =
      above_theta == 0
          ? 1.0
          : static_cast<double>(covered) / static_cast<double>(above_theta);
  std::printf(
      "  recall slice: %zu sources, %llu pairs >= %.2f, recall %.6f, "
      "%llu score mismatches\n",
      kSliceSources, static_cast<unsigned long long>(above_theta / 2), kTheta,
      recall, static_cast<unsigned long long>(mismatched));
  bars.push_back({"recall_above_theta", recall, 0.999, false, false});
  bars.push_back({"covered_score_mismatches",
                  static_cast<double>(mismatched), 0.0, true, false});

  // ---- churn: cost proportional to delta, bit-identical to rebuild --------
  const size_t kRetire = kSliceSources / 100;
  const size_t kAppend = kSliceSources / 100;
  auto extended = GenerateScaleUniverse(cfg(kSliceSources + kAppend));
  if (!extended.ok()) return 1;
  std::vector<uint32_t> dirty;
  for (size_t r = 0; r < kRetire; ++r) {
    const uint32_t id = static_cast<uint32_t>(r * 97 % kSliceSources);
    su.RetireSource(id);
    dirty.push_back(id);
  }
  for (size_t a = 0; a < kAppend; ++a) {
    // Prefix stability: source kSliceSources + a of the extended universe
    // is exactly the source churn would have discovered next.
    dirty.push_back(su.AddSource(
        extended.ValueOrDie().universe.source(
            static_cast<uint32_t>(kSliceSources + a))));
  }
  SparseSimilarityIndex churned = sparse_slice;
  churned.ApplyChurn(su, measure, dirty);
  const size_t churn_calls = churned.last_measure_calls();
  SparseSimilarityIndex rebuilt(su, measure);
  const size_t rebuild_calls = rebuilt.last_measure_calls();
  bool identical = churned.attribute_count() == rebuilt.attribute_count();
  for (size_t i = 0; identical && i < churned.attribute_count(); ++i) {
    identical = RowAtLeast(churned, i, churned.neighbor_floor()) ==
                RowAtLeast(rebuilt, i, rebuilt.neighbor_floor());
  }
  std::printf(
      "  churn: %zu retired + %zu added of %zu sources -> %zu measure calls "
      "(rebuild: %zu), rows %s\n",
      kRetire, kAppend, kSliceSources, churn_calls, rebuild_calls,
      identical ? "bit-identical" : "DIVERGED");
  bars.push_back({"churn_calls_vs_rebuild",
                  static_cast<double>(churn_calls) /
                      static_cast<double>(rebuild_calls),
                  0.10, true, false});
  bars.push_back({"churn_rows_identical", identical ? 1.0 : 0.0, 1.0, false,
                  false});

  // ---- end-to-end: engine + Match + one optimizer run at full scale -------
  MubeConfig config = MubeConfig::PaperDefaults();
  config.optimizer_options.max_evaluations = quick ? 500 : 3'000;
  config.optimizer_options.patience = quick ? 200 : 1'000;
  config.optimizer_options.seed = 1;
  WallTimer e2e_timer;
  auto engine = Mube::Create(&fu, config);
  bool e2e_ok = engine.ok();
  double run_seconds = 0.0, run_quality = 0.0;
  if (e2e_ok) {
    RunSpec spec;
    spec.seed = 3;
    auto result = engine.ValueOrDie()->Run(spec);
    e2e_ok = result.ok();
    if (e2e_ok) {
      run_seconds = result.ValueOrDie().elapsed_seconds;
      run_quality = result.ValueOrDie().solution.overall;
    } else {
      std::fprintf(stderr, "  e2e run: %s\n",
                   result.status().ToString().c_str());
    }
  } else {
    std::fprintf(stderr, "  e2e create: %s\n",
                 engine.status().ToString().c_str());
  }
  std::printf(
      "  e2e: create+run %.2fs total, Run() %.2fs, Q(S) = %.4f -> %s\n",
      e2e_timer.ElapsedSeconds(), run_seconds, run_quality,
      e2e_ok ? "ok" : "FAILED");
  bars.push_back({"e2e_engine_run", e2e_ok ? 1.0 : 0.0, 1.0, false, false});

  // ---- verdicts + artifact -------------------------------------------------
  bool all_pass = true;
  for (Bar& b : bars) {
    b.pass = b.lower_is_better ? b.value <= b.bar : b.value >= b.bar;
    all_pass = all_pass && b.pass;
    std::printf("  [%s] %-34s %12.6g (bar: %s %g)\n", b.pass ? "PASS" : "FAIL",
                b.name, b.value, b.lower_is_better ? "<=" : ">=", b.bar);
  }

  std::vector<JsonFields> bar_rows;
  for (const Bar& b : bars) {
    bar_rows.push_back({{"name", JsonString(b.name)},
                        {"value", JsonNumber(b.value, "%.6g")},
                        {"bar", JsonNumber(b.bar, "%g")},
                        {"cmp", JsonString(b.lower_is_better ? "<=" : ">=")},
                        {"pass", JsonBool(b.pass)}});
  }
  const bool written = WriteBenchJson(
      "BENCH_universe_scale.json",
      {{"quick", JsonBool(quick)},
       {"num_sources", std::to_string(kFullSources)},
       {"num_attrs", std::to_string(full_attrs)},
       {"sparse_build_seconds", JsonNumber(sparse_seconds, "%.3f")},
       {"dense_seconds_extrapolated",
        JsonNumber(dense_seconds_extrapolated, "%.1f")},
       {"index_bytes", std::to_string(index.MemoryBytes())},
       {"rss_bytes", std::to_string(rss_bytes)},
       {"candidate_pairs", std::to_string(stats.candidate_pairs)},
       {"stored_pairs", std::to_string(stats.stored_pairs)},
       {"dense_comparable_pairs", JsonNumber(comparable, "%.0f")},
       {"recall", JsonNumber(recall, "%.6f")},
       {"run_quality", JsonNumber(run_quality, "%.4f")}},
      "bars", bar_rows);

  std::printf("universe_1e5: %s\n", all_pass ? "ALL BARS PASS" : "BAR FAILED");
  return all_pass && written ? 0 : 1;
}
