#ifndef MUBE_BENCH_BENCH_UTIL_H_
#define MUBE_BENCH_BENCH_UTIL_H_

#include <cstdio>
#include <cstdlib>
#include <string>
#include <utility>
#include <vector>

#include "core/config.h"
#include "core/mube.h"
#include "datagen/generator.h"

/// \file bench_util.h
/// Shared machinery for the experiment harnesses in bench/. Each binary
/// reproduces one table or figure of the paper (§7) and prints the same
/// rows/series the paper reports, plus the paper's qualitative expectation
/// so shape comparison is immediate.
///
/// Environment knobs:
///   MUBE_BENCH_QUICK=1   shrink sweeps for smoke runs (CI, tight loops)

namespace mube::bench {

inline bool QuickMode() {
  const char* env = std::getenv("MUBE_BENCH_QUICK");
  return env != nullptr && env[0] == '1';
}

/// The paper's §7.1 workload at a given universe size. Tuple volumes are
/// scaled down ~10x from the paper's 4M-tuple pool in quick mode.
inline GeneratorConfig PaperWorkload(size_t num_sources, uint64_t seed = 42) {
  GeneratorConfig config;
  config.seed = seed;
  config.num_sources = num_sources;
  if (QuickMode()) {
    config.min_cardinality = 1'000;
    config.max_cardinality = 100'000;
    config.tuple_pool_size = 400'000;
  }
  return config;
}

/// Paper defaults with a search budget scaled to the instance, mirroring
/// classic tabu search whose per-iteration neighborhood is all m·(N−m)
/// swaps: a fixed budget would under-search big instances and make the
/// Figure 5/6 time curves meaningless. Patience lets constrained (smaller)
/// spaces terminate early, which is the paper's "adding constraints
/// reduces execution time" effect.
inline MubeConfig BenchConfig(size_t universe_size, size_t num_chosen) {
  MubeConfig config = MubeConfig::PaperDefaults();
  config.max_sources = num_chosen;
  size_t budget = 25 * universe_size + 150 * num_chosen;
  if (QuickMode()) budget /= 6;
  config.optimizer_options.max_evaluations = budget;
  config.optimizer_options.patience = budget / 3;
  config.optimizer_options.seed = 1;
  return config;
}

/// Picks `count` source constraints among the unperturbed ("fully
/// conformant to one of the original BAMM schemas", §7.2) sources.
inline std::vector<uint32_t> PickSourceConstraints(
    const GeneratedUniverse& generated, size_t count) {
  std::vector<uint32_t> constraints;
  const auto& pool = generated.unperturbed_source_ids;
  for (size_t i = 0; i < count && i < pool.size(); ++i) {
    // Spread across the pool deterministically.
    constraints.push_back(pool[(i * 7) % pool.size()]);
  }
  return constraints;
}

/// Builds `count` GA constraints, each an accurate matching of up to
/// `max_attrs` same-concept attributes from distinct sources (§7.2).
inline MediatedSchema PickGaConstraints(const GeneratedUniverse& generated,
                                        size_t count,
                                        size_t max_attrs = 5) {
  MediatedSchema constraints;
  const Universe& u = generated.universe;
  for (size_t c = 0; c < count; ++c) {
    const int32_t concept_id = static_cast<int32_t>(c);  // concept 0, 1, ...
    GlobalAttribute ga;
    for (const Source& s : u.sources()) {
      if (ga.size() >= max_attrs) break;
      for (uint32_t a = 0; a < s.attribute_count(); ++a) {
        if (s.attribute(a).concept_id == concept_id) {
          ga.Insert(AttributeRef(s.id(), a));
          break;  // at most one attribute per source
        }
      }
    }
    if (ga.size() >= 2) constraints.Add(ga);
  }
  return constraints;
}

/// The five constraint configurations of Figures 5-7.
struct ConstraintConfig {
  const char* label;
  size_t source_constraints;
  size_t ga_constraints;
};

inline const std::vector<ConstraintConfig>& PaperConstraintConfigs() {
  static const std::vector<ConstraintConfig> kConfigs = {
      {"no constraints", 0, 0}, {"1 src", 1, 0},         {"3 src", 3, 0},
      {"5 src", 5, 0},          {"5 src + 2 GA", 5, 2},
  };
  return kConfigs;
}

/// Builds a RunSpec for one constraint configuration. The evaluation
/// budget shrinks with the fraction of solution slots pinned by
/// constraints — a classic full-neighborhood tabu search would likewise
/// evaluate only (m − |C|)·(N − m) swaps per iteration, which is the
/// paper's "adding constraints reduces execution time" effect (§7.2).
inline RunSpec MakeRunSpec(const GeneratedUniverse& generated,
                           const ConstraintConfig& config, uint64_t seed,
                           size_t base_budget, size_t num_chosen) {
  RunSpec spec;
  spec.source_constraints =
      PickSourceConstraints(generated, config.source_constraints);
  spec.ga_constraints = PickGaConstraints(generated, config.ga_constraints);
  spec.seed = seed;

  std::vector<uint32_t> pinned = spec.source_constraints;
  for (uint32_t sid : spec.ga_constraints.TouchedSources()) {
    pinned.push_back(sid);
  }
  std::sort(pinned.begin(), pinned.end());
  pinned.erase(std::unique(pinned.begin(), pinned.end()), pinned.end());
  const size_t free_slots =
      num_chosen > pinned.size() ? num_chosen - pinned.size() : 1;
  spec.max_evaluations = std::max<size_t>(
      200, base_budget * free_slots / std::max<size_t>(1, num_chosen));
  return spec;
}

/// One flat JSON object of a BENCH_*.json artifact: keys in output order,
/// values already rendered by JsonBool / JsonString / JsonNumber (or
/// std::to_string for integers).
using JsonFields = std::vector<std::pair<std::string, std::string>>;

inline std::string JsonBool(bool value) { return value ? "true" : "false"; }

/// A string value. Bench names are plain identifiers: nothing is escaped.
inline std::string JsonString(const std::string& value) {
  return "\"" + value + "\"";
}

/// A number rendered with a printf format such as "%.3f".
inline std::string JsonNumber(double value, const char* format) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), format, value);
  return buf;
}

/// The one BENCH_*.json writer: `{scalars..., "<array_key>": [rows...]}`
/// with one row object per line. Returns false, after saying why on
/// stderr, when the file cannot be written; benches then exit non-zero.
inline bool WriteBenchJson(const std::string& path, const JsonFields& scalars,
                           const std::string& array_key,
                           const std::vector<JsonFields>& rows) {
  std::string text = "{\n";
  for (const auto& [key, value] : scalars) {
    text += "  \"" + key + "\": " + value + ",\n";
  }
  text += "  \"" + array_key + "\": [\n";
  for (size_t i = 0; i < rows.size(); ++i) {
    text += "    {";
    for (size_t k = 0; k < rows[i].size(); ++k) {
      if (k > 0) text += ", ";
      text += "\"" + rows[i][k].first + "\": " + rows[i][k].second;
    }
    text += i + 1 < rows.size() ? "},\n" : "}\n";
  }
  text += "  ]\n}\n";

  std::FILE* f = std::fopen(path.c_str(), "w");
  bool ok = f != nullptr &&
            std::fwrite(text.data(), 1, text.size(), f) == text.size();
  if (f != nullptr) ok = (std::fclose(f) == 0) && ok;
  if (!ok) std::fprintf(stderr, "cannot write %s\n", path.c_str());
  return ok;
}

/// Prints an aligned header + separator.
inline void PrintHeader(const std::vector<std::string>& columns) {
  for (const std::string& c : columns) std::printf("%14s", c.c_str());
  std::printf("\n");
  for (size_t i = 0; i < columns.size(); ++i) std::printf("  ------------");
  std::printf("\n");
}

}  // namespace mube::bench

#endif  // MUBE_BENCH_BENCH_UTIL_H_
