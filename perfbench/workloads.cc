#include "workloads.h"

#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <cstdarg>
#include <cstdio>
#include <functional>
#include <map>
#include <memory>
#include <thread>
#include <tuple>

#include "common/hash.h"
#include "common/random.h"
#include "common/thread_annotations.h"
#include "common/threading.h"
#include "datagen/generator.h"
#include "datagen/scale.h"
#include "dynamic/churn.h"
#include "dynamic/delta_universe.h"
#include "metrics/metrics.h"
#include "serving/service.h"
#include "sketch/signature_cache.h"
#include "text/similarity_matrix.h"
#include "text/sparse_similarity.h"
#include "trace.h"
#include "traced_run.h"

namespace perfbench {

void Outcome::Problem(const std::string& what) {
  correct = false;
  if (problems.size() < 20) problems.push_back(what);
}

std::string CheckResult(const mube::MubeResult& result,
                        const std::vector<uint32_t>& pins,
                        const mube::MediatedSchema& ga, size_t m) {
  const mube::SolutionEval& s = result.solution;
  if (!s.feasible) return "infeasible answer";
  if (s.qef_values.size() != result.qef_names.size()) {
    return "QEF values do not match QEF names";
  }
  for (double f : s.qef_values) {
    if (!(f >= 0.0 && f <= 1.0)) return "F_i outside [0,1]";
  }
  if (!(s.overall >= 0.0 && s.overall <= 1.0)) return "Q(S) outside [0,1]";
  if (s.sources.empty() || s.sources.size() > m) return "|S| not in [1, m]";
  if (!std::is_sorted(s.sources.begin(), s.sources.end())) {
    return "S not sorted";
  }
  std::vector<uint32_t> c = pins;
  for (uint32_t sid : ga.TouchedSources()) c.push_back(sid);
  std::sort(c.begin(), c.end());
  c.erase(std::unique(c.begin(), c.end()), c.end());
  if (!std::includes(s.sources.begin(), s.sources.end(), c.begin(),
                     c.end())) {
    return "C not a subset of S";
  }
  if (!s.schema.IsWellFormed() || !s.schema.IsValidOn(c)) {
    return "M not well-formed or not valid on C";
  }
  if (!s.schema.Subsumes(ga)) return "G not subsumed by M";
  return "";
}

namespace {

using mube::MubeConfig;
using mube::MubeResult;
using mube::RunSpec;

/// Timed set-ups of serving_churn and sparse_universe, made after the
/// measured phase (paper_loop makes one between passes instead). The sparse
/// index build is seconds long, so sparse_universe makes fewer.
constexpr size_t kSetupRepeats = 15;
constexpr size_t kSparseSetupRepeats = 3;

std::string Fmt(const char* format, ...) {
  char buf[512];
  va_list args;
  va_start(args, format);
  std::vsnprintf(buf, sizeof(buf), format, args);
  va_end(args);
  return buf;
}

double PeakRssMb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

double SecondsSince(int64_t start_ns) {
  return static_cast<double>(NowNs() - start_ns) * 1e-9;
}

double Ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

uint64_t SubSeed(uint64_t seed, uint64_t salt) {
  return mube::HashCombine(mube::Mix64(seed), salt);
}

/// The §7.1 books workload with the data volumes of the experiment
/// harnesses' quick mode: tuple counts only shape the one-off PCSA build,
/// never the per-run cost, so the smaller pool keeps set-up short.
mube::GeneratorConfig PaperData(size_t num_sources, uint64_t seed) {
  mube::GeneratorConfig config;
  config.seed = seed;
  config.num_sources = num_sources;
  config.min_cardinality = 1'000;
  config.max_cardinality = 100'000;
  config.tuple_pool_size = 400'000;
  return config;
}

// The §7.2 constraint choices behind Figures 5–7. The rule is the one in
// bench/bench_util.h, restated here so the benchmark's inputs stay fixed
// when the experiment harnesses change.
std::vector<uint32_t> PickSourceConstraints(
    const mube::GeneratedUniverse& generated, size_t count) {
  std::vector<uint32_t> constraints;
  const auto& pool = generated.unperturbed_source_ids;
  for (size_t i = 0; i < count && i < pool.size(); ++i) {
    constraints.push_back(pool[(i * 7) % pool.size()]);
  }
  return constraints;
}

mube::MediatedSchema PickGaConstraints(
    const mube::GeneratedUniverse& generated, size_t count,
    size_t first_concept, size_t max_attrs) {
  mube::MediatedSchema constraints;
  const mube::Universe& u = generated.universe;
  for (size_t c = 0; c < count; ++c) {
    const int32_t concept_id = static_cast<int32_t>(first_concept + c);
    mube::GlobalAttribute ga;
    for (const mube::Source& s : u.sources()) {
      if (ga.size() >= max_attrs) break;
      for (uint32_t a = 0; a < s.attribute_count(); ++a) {
        if (s.attribute(a).concept_id == concept_id) {
          ga.Insert(mube::AttributeRef(s.id(), a));
          break;
        }
      }
    }
    if (ga.size() >= 2) constraints.Add(ga);
  }
  return constraints;
}

/// One spec of a workload's fixed set, bound to the engine it runs on.
struct SpecCase {
  std::string label;
  size_t engine = 0;
  RunSpec spec;
  size_t m = 0;
};

void DigestSolution(Digest* digest, const std::string& label,
                    const mube::SolutionEval& s) {
  digest->Add(label);
  for (uint32_t sid : s.sources) digest->Add(sid);
  digest->Add(s.schema.ToString());
}

/// Runs `c` on `engine`, checks the answer, and counts the operation.
/// Returns the run's wall time in ms, or a negative value on failure.
double RunChecked(const mube::Mube& engine, const SpecCase& c,
                  MubeResult* result, Outcome* out) {
  ++out->attempted;
  const int64_t start = NowNs();
  mube::Result<MubeResult> r = engine.Run(c.spec);
  const double ms = static_cast<double>(NowNs() - start) * 1e-6;
  if (!r.ok()) {
    ++out->failed;
    out->Problem(c.label + ": " + r.status().ToString());
    return -1.0;
  }
  const std::string bad = CheckResult(r.ValueOrDie(), c.spec.source_constraints,
                                      c.spec.ga_constraints, c.m);
  if (!bad.empty()) {
    ++out->failed;
    out->Problem(c.label + ": " + bad);
  }
  *result = r.MoveValueUnsafe();
  return ms;
}

/// The tail of `ms` by TailPercentile's rule, as per-layer metrics: the
/// tail does not repeat closely enough between runs to gate on.
void AddTail(const std::vector<double>& ms, const char* what, Outcome* out) {
  const Tail tail = TailPercentile(ms);
  const double value =
      tail.supported ? tail.value
                     : (ms.empty() ? 0.0
                                   : *std::max_element(ms.begin(), ms.end()));
  out->metrics.Add("run.tail_ms", value, "ms");
  out->metrics.Add("run.tail_pct", tail.percentile, "%");
  out->metrics.Add("run.samples", static_cast<double>(ms.size()), "count");
  out->Note(Fmt("%s: p50 %.3f ms; tail p%.1f = %.3f ms (%zu samples, %zu "
                "beyond%s)",
                what, Median(ms), tail.percentile, value, ms.size(),
                tail.beyond, tail.supported ? "" : "; too few, max shown"));
}

// ---------------------------------------------------------------------------
// The traced pass shared by the engine-level workloads.

struct TracedPass {
  Tracer tracer;
  std::vector<std::unique_ptr<TracedEngine>> engines;
  size_t runs = 0;
  int64_t run_ns = 0;
  int64_t untraced_ns = 0;
  size_t evaluations = 0;
  size_t match_hits = 0;
  size_t match_misses = 0;
  size_t union_hits = 0;
  size_t union_misses = 0;
};

/// Runs every case on Mube::Run and on the rebuilt path, alternating which
/// goes first, and checks the two answers are bitwise identical.
void RunTracedCases(const std::vector<const mube::Mube*>& engines,
                    const std::vector<SpecCase>& cases, TracedPass* pass,
                    Outcome* out) {
  while (pass->engines.size() < engines.size()) {
    pass->engines.push_back(std::make_unique<TracedEngine>(
        *engines[pass->engines.size()], &pass->tracer));
  }
  for (size_t i = 0; i < cases.size(); ++i) {
    const SpecCase& c = cases[i];
    const mube::Mube& engine = *engines[c.engine];
    MubeResult untraced;
    mube::Result<TracedResult> traced = mube::Status::Internal("not run");
    auto run_untraced = [&] {
      const double ms = RunChecked(engine, c, &untraced, out);
      if (ms >= 0.0) pass->untraced_ns += static_cast<int64_t>(ms * 1e6);
      return ms >= 0.0;
    };
    auto run_traced = [&] {
      ++out->attempted;
      const mube::SignatureCache::MemoStats before =
          engine.signatures().memo_stats();
      traced = pass->engines[c.engine]->Run(c.spec, pass->runs + 1);
      const mube::SignatureCache::MemoStats after =
          engine.signatures().memo_stats();
      pass->union_hits += after.hits - before.hits;
      pass->union_misses += after.misses - before.misses;
    };
    bool untraced_ok = false;
    if (i % 2 == 0) {
      untraced_ok = run_untraced();
      run_traced();
    } else {
      run_traced();
      untraced_ok = run_untraced();
    }
    if (!traced.ok()) {
      ++out->failed;
      out->Problem(c.label + " (traced): " + traced.status().ToString());
      continue;
    }
    const TracedResult& t = traced.ValueOrDie();
    ++pass->runs;
    pass->run_ns += t.run_ns;
    pass->evaluations += t.evaluations;
    pass->match_hits += t.match_memo.hits;
    pass->match_misses += t.match_memo.misses;
    if (untraced_ok && !SameSolution(t.solution, untraced.solution)) {
      ++out->failed;
      out->Problem(c.label + ": traced rebuild differs from Mube::Run");
    }
  }
}

/// Per-layer metrics of a traced pass. Counts and times are per Run
/// unless the name says per call or per evaluation.
void AddLayerMetrics(const TracedPass& pass, Outcome* out) {
  const double runs = static_cast<double>(std::max<size_t>(1, pass.runs));
  const std::map<std::string, Tracer::LayerTime> layers = pass.tracer.Layers();
  auto layer = [&](const std::string& name) {
    auto it = layers.find(name);
    return it == layers.end() ? Tracer::LayerTime{} : it->second;
  };
  CountingSimilaritySource::Counts total;
  for (const auto& engine : pass.engines) {
    const CountingSimilaritySource::Counts c = engine->counts();
    total.neighbor_calls += c.neighbor_calls;
    total.neighbor_visits += c.neighbor_visits;
    total.at_reads += c.at_reads;
    total.matches += c.matches;
    total.match_attrs += c.match_attrs;
    total.match_attrs_sq += c.match_attrs_sq;
  }
  if (total.matches != pass.match_misses) {
    out->Problem(Fmt("match spans (%llu) != Match memo misses (%zu)",
                     static_cast<unsigned long long>(total.matches),
                     pass.match_misses));
  }
  MetricSet& m = out->metrics;
  m.Add("text.neighbor_calls", total.neighbor_calls / runs, "count");
  m.Add("text.neighbor_visits", total.neighbor_visits / runs, "count");
  m.Add("text.at_reads", total.at_reads / runs, "count");

  const Tracer::LayerTime match = layer("match");
  const double matches = static_cast<double>(total.matches);
  m.Add("match.calls", matches / runs, "count");
  m.Add("match.us_per_call", Ratio(match.total_ns * 1e-3, matches), "us");
  m.Add("match.visits_per_call", Ratio(total.neighbor_visits, matches),
        "count");
  m.Add("match.visits_per_as2",
        Ratio(total.neighbor_visits, total.match_attrs_sq), "ratio");
  m.Add("match.as_mean", Ratio(total.match_attrs, matches), "count");
  const double lookups =
      static_cast<double>(pass.match_hits + pass.match_misses);
  m.Add("match.memo_hit_ratio", Ratio(pass.match_hits, lookups), "ratio");
  m.Add("match.memo_lookups", lookups / runs, "count");

  const double union_calls =
      static_cast<double>(pass.union_hits + pass.union_misses);
  const Tracer::LayerTime coverage = layer("qef.coverage");
  const Tracer::LayerTime redundancy = layer("qef.redundancy");
  m.Add("sketch.union_calls", union_calls / runs, "count");
  // EstimateUnion runs inside the coverage and redundancy QEF spans.
  m.Add("sketch.union_us",
        Ratio((coverage.total_ns + redundancy.total_ns) * 1e-3, union_calls),
        "us");
  m.Add("sketch.memo_hit_ratio", Ratio(pass.union_hits, union_calls),
        "ratio");

  int64_t qef_ns = 0;
  size_t qef_evals = 0;
  for (const char* q :
       {"matching", "cardinality", "coverage", "redundancy", "mttf"}) {
    const Tracer::LayerTime t = layer(std::string("qef.") + q);
    qef_ns += t.total_ns;
    qef_evals += t.count;
    m.Add(std::string("qef.") + q + ".us_per_eval",
          Ratio(t.total_ns * 1e-3, static_cast<double>(t.count)), "us");
  }
  m.Add("qef.evals", static_cast<double>(qef_evals) / runs, "count");

  const Tracer::LayerTime opt = layer("opt");
  const Tracer::LayerTime run = layer("run");
  m.Add("opt.evaluations", static_cast<double>(pass.evaluations) / runs,
        "count");
  m.Add("opt.self_ms", opt.self_ns * 1e-6 / runs, "ms");
  m.Add("core.assembly_ms", run.self_ns * 1e-6 / runs, "ms");

  const double run_ms = pass.run_ns * 1e-6 / runs;
  const double untraced_ms = pass.untraced_ns * 1e-6 / runs;
  const double accounted_ns = static_cast<double>(
      opt.self_ns + match.total_ns + qef_ns + run.self_ns);
  m.Add("trace.run_ms", run_ms, "ms");
  m.Add("trace.untraced_run_ms", untraced_ms, "ms");
  m.Add("trace.overhead_ms", run_ms - untraced_ms, "ms");
  m.Add("trace.overhead_frac", Ratio(run_ms - untraced_ms, untraced_ms),
        "ratio");
  m.Add("trace.accounted_frac", Ratio(accounted_ns, pass.run_ns), "ratio");
  out->Note(Fmt("traced %zu runs: run %.3f ms = assembly %.3f + opt self "
                "%.3f + match %.3f + qef %.3f (ms per run); untraced %.3f "
                "ms; overhead %.3f ms",
                pass.runs, run_ms, run.self_ns * 1e-6 / runs,
                opt.self_ns * 1e-6 / runs, match.total_ns * 1e-6 / runs,
                qef_ns * 1e-6 / runs, untraced_ms, run_ms - untraced_ms));
}

void WriteSpans(const Options& options, const Tracer& tracer, Outcome* out) {
  if (options.trace_dir.empty()) return;
  const std::string path = options.trace_dir + "/" + options.workload +
                           "-seed" + std::to_string(options.seed) +
                           ".spans.csv";
  const mube::Status status = tracer.WriteCsv(path);
  if (!status.ok()) {
    out->Note("spans not written: " + status.ToString());
  } else {
    out->Note(Fmt("%zu spans written to %s", tracer.spans().size(),
                  path.c_str()));
  }
}

/// Times the similarity store and signature builds on their own (the
/// engine's set-up does both).
void AddBuildMetrics(const mube::Universe& universe, const MubeConfig& config,
                     bool sparse, Outcome* out) {
  mube::Result<std::unique_ptr<mube::SimilarityMeasure>> measure =
      mube::MakeSimilarityMeasure(config.similarity_measure);
  if (!measure.ok()) {
    out->Problem("measure: " + measure.status().ToString());
    return;
  }
  int64_t start = NowNs();
  std::unique_ptr<mube::SimilaritySource> store;
  if (sparse) {
    store = std::make_unique<mube::SparseSimilarityIndex>(
        universe, *measure.ValueOrDie(), config.sparse_options,
        config.similarity_threads);
  } else {
    store = std::make_unique<mube::SimilarityMatrix>(
        universe, *measure.ValueOrDie(), config.similarity_threads);
  }
  out->metrics.Add("text.build_s", SecondsSince(start), "s");
  out->metrics.Add("text.measure_calls",
                   static_cast<double>(store->last_measure_calls()), "count");
  out->metrics.Add("text.index_mb",
                   static_cast<double>(store->MemoryBytes()) / 1e6, "MB");
  store.reset();
  start = NowNs();
  mube::SignatureCache signatures(universe, config.pcsa);
  out->metrics.Add("sketch.build_s", SecondsSince(start), "s");
}

/// Builds the engine the workload runs on.
std::unique_ptr<mube::Mube> CreateEngine(const mube::Universe* universe,
                                         const MubeConfig& config,
                                         Outcome* out) {
  mube::Result<std::unique_ptr<mube::Mube>> created =
      mube::Mube::Create(universe, config);
  if (!created.ok()) {
    out->Problem("create: " + created.status().ToString());
    return nullptr;
  }
  return created.MoveValueUnsafe();
}

/// setup_s is the median of the workload's timed set-ups. They are never
/// the first of the process: those ran up to twice as slow while the CPU
/// and the allocator warmed up, burying the set-up cost in start-up noise.
void ReportSetup(const std::vector<double>& setup_s, Outcome* out) {
  out->metrics.Add("setup_s", Median(setup_s), "s");
  std::string samples;
  for (double x : setup_s) samples += Fmt(" %.4f", x);
  out->Note("setup_s samples:" + samples);
}

/// Seconds of one Mube::Create per universe, each engine destroyed again.
double TimeEngineSetup(const std::vector<const mube::Universe*>& universes,
                       const MubeConfig& config, Outcome* out) {
  double seconds = 0.0;
  for (const mube::Universe* u : universes) {
    const int64_t start = NowNs();
    const std::unique_ptr<mube::Mube> engine = CreateEngine(u, config, out);
    seconds += SecondsSince(start);
  }
  return seconds;
}

/// The untraced measurement of the engine workloads: whole passes over the
/// spec set until `seconds` have elapsed. Pass 0 runs the fixed specs
/// (q_mean, digest); later passes reseed the searches. run_p50_ms is the
/// median over passes of the mean Run latency in a pass — a pass mixes
/// specs of very different cost (paper_loop: two universe sizes), and the
/// median of single runs would fall in the gap between them. run_tail_ms
/// is taken over single runs and reported with the per-layer metrics
/// (`per_layer`), where it takes the place of the end-to-end set.
/// `between_passes` (may be empty) runs before every pass after the first,
/// outside the measured time.
void MeasurePasses(const std::vector<const mube::Mube*>& engines,
                   const std::vector<SpecCase>& fixed,
                   const std::function<std::vector<SpecCase>(size_t)>& cases_of,
                   double seconds, const mube::SearchTrace& search_trace,
                   bool per_layer, const std::function<void()>& between_passes,
                   Outcome* out) {
  std::vector<double> run_ms, pass_mean_ms;
  double run_s = 0.0;
  size_t evaluations = 0;
  double q_sum = 0.0;
  Digest digest;
  double wall_s = 0.0;  // passes only, not between_passes
  for (size_t pass = 0; pass == 0 || wall_s < seconds; ++pass) {
    if (pass > 0 && between_passes) between_passes();
    const int64_t pass_start = NowNs();
    const std::vector<SpecCase> cases = pass == 0 ? fixed : cases_of(pass);
    double pass_ms = 0.0;
    for (const SpecCase& c : cases) {
      MubeResult result;
      const double ms = RunChecked(*engines[c.engine], c, &result, out);
      if (ms < 0.0) continue;
      run_ms.push_back(ms);
      pass_ms += ms;
      run_s += result.elapsed_seconds;
      evaluations += search_trace.evaluations;
      if (pass == 0) {
        q_sum += result.solution.overall;
        DigestSolution(&digest, c.label, result.solution);
      }
    }
    pass_mean_ms.push_back(pass_ms / static_cast<double>(cases.size()));
    wall_s += SecondsSince(pass_start);
  }
  out->Note(Fmt("Mube::Run: median pass mean %.3f ms over %zu passes",
                Median(pass_mean_ms), pass_mean_ms.size()));
  if (per_layer) {
    AddTail(run_ms, "Mube::Run", out);
  } else {
    out->metrics.Add("run_p50_ms", Median(pass_mean_ms), "ms");
    out->metrics.Add("evals_per_s", Ratio(evaluations, run_s), "1/s");
    out->metrics.Add("q_mean", q_sum / static_cast<double>(fixed.size()),
                     "score");
    out->metrics.Add("sessions_per_s", Ratio(run_ms.size(), wall_s), "1/s");
    out->metrics.Add("peak_rss_mb", PeakRssMb(), "MB");
  }
  out->Note("digest " + digest.Hex());
  std::string passes;
  for (double ms : pass_mean_ms) passes += Fmt(" %.1f", ms);
  out->Note("pass means (ms):" + passes);
}

// ---------------------------------------------------------------------------
// paper_loop: one user, sequential Mube::Run over the §7 grid.

constexpr size_t kPaperSizes[] = {100, 300};
constexpr size_t kPaperM = 20;
constexpr size_t kPaperBudget = 120;

struct ConstraintConfig {
  const char* label;
  size_t sources;
  size_t gas;
};
constexpr ConstraintConfig kPaperConfigs[] = {
    {"none", 0, 0}, {"1src", 1, 0},     {"3src", 3, 0},
    {"5src", 5, 0}, {"5src+2ga", 5, 2},
};

MubeConfig PaperConfig() {
  MubeConfig config = MubeConfig::PaperDefaults();
  config.max_sources = kPaperM;
  config.similarity_index = "dense";
  config.similarity_threads = 1;
  config.optimizer = "tabu";
  config.optimizer_options.max_evaluations = kPaperBudget;
  config.optimizer_options.patience = 0;  // every run spends its budget
  config.optimizer_options.threads = 1;
  return config;
}

std::vector<SpecCase> PaperCases(
    const std::vector<mube::GeneratedUniverse>& universes, uint64_t seed,
    size_t round) {
  std::vector<SpecCase> cases;
  for (size_t e = 0; e < universes.size(); ++e) {
    for (const ConstraintConfig& cc : kPaperConfigs) {
      SpecCase c;
      c.label = Fmt("u%zu/%s", kPaperSizes[e], cc.label);
      c.engine = e;
      c.m = kPaperM;
      c.spec.source_constraints = PickSourceConstraints(universes[e], cc.sources);
      c.spec.ga_constraints = PickGaConstraints(universes[e], cc.gas, 0, 5);
      c.spec.seed = SubSeed(seed, 1000 + round * 64 + cases.size());
      cases.push_back(std::move(c));
    }
  }
  return cases;
}

Outcome PaperLoop(const Options& options) {
  Outcome out;
  const int64_t gen_start = NowNs();
  std::vector<mube::GeneratedUniverse> universes;
  for (size_t n : kPaperSizes) {
    mube::Result<mube::GeneratedUniverse> generated =
        mube::GenerateUniverse(PaperData(n, SubSeed(options.seed, n)));
    if (!generated.ok()) {
      out.Problem("generate: " + generated.status().ToString());
      return out;
    }
    universes.push_back(generated.MoveValueUnsafe());
  }
  const double generate_s = SecondsSince(gen_start);

  MubeConfig config = PaperConfig();
  mube::SearchTrace search_trace;  // serial loop: one trace is enough
  config.optimizer_options.trace = &search_trace;
  std::vector<std::unique_ptr<mube::Mube>> engines;
  std::vector<const mube::Mube*> engine_ptrs;
  std::vector<const mube::Universe*> universe_ptrs;
  for (const mube::GeneratedUniverse& g : universes) {
    engines.push_back(CreateEngine(&g.universe, config, &out));
    if (engines.back() == nullptr) return out;
    engine_ptrs.push_back(engines.back().get());
    universe_ptrs.push_back(&g.universe);
  }

  const std::vector<SpecCase> fixed = PaperCases(universes, options.seed, 0);
  if (options.trace) {
    out.metrics.Add("datagen.generate_s", generate_s, "s");
    AddBuildMetrics(universes[1].universe, config, false, &out);
    // Warm up on other seeds, as a user's earlier iterations would: the
    // engine's caches see a session in progress, not these exact runs.
    MubeResult warm;
    for (const SpecCase& c : PaperCases(universes, options.seed, 1)) {
      RunChecked(*engines[c.engine], c, &warm, &out);
    }
    TracedPass pass;
    RunTracedCases(engine_ptrs, fixed, &pass, &out);
    AddLayerMetrics(pass, &out);
    for (size_t e = 0; e < pass.engines.size(); ++e) {
      const CountingSimilaritySource::Counts c = pass.engines[e]->counts();
      const std::string u = Fmt("u%zu", kPaperSizes[e]);
      const double calls = static_cast<double>(c.matches);
      out.metrics.Add("match.calls." + u, calls, "count");
      out.metrics.Add("match.as_mean." + u, Ratio(c.match_attrs, calls),
                      "count");
      out.metrics.Add("match.visits_per_call." + u,
                      Ratio(c.neighbor_visits, calls), "count");
      out.metrics.Add("match.visits_per_as2." + u,
                      Ratio(c.neighbor_visits, c.match_attrs_sq), "ratio");
      out.Note(Fmt("|U|=%zu: %.0f Match calls, mean |A_S| %.1f, %.0f neighbor "
                   "visits per call = %.2f x |A_S|^2 (|A_U| = %zu)",
                   kPaperSizes[e], calls, Ratio(c.match_attrs, calls),
                   Ratio(c.neighbor_visits, calls),
                   Ratio(c.neighbor_visits, c.match_attrs_sq),
                   universes[e].universe.total_attribute_count()));
    }
    WriteSpans(options, pass.tracer, &out);
    MeasurePasses(
        engine_ptrs, fixed,
        [&](size_t round) { return PaperCases(universes, options.seed, round); },
        options.seconds, search_trace, /*per_layer=*/true, {}, &out);
    return out;
  }

  // One timed set-up between passes: spread over the whole run, set-up
  // time sees the same machine as the runs do.
  std::vector<double> setup_s;
  MeasurePasses(
      engine_ptrs, fixed,
      [&](size_t round) { return PaperCases(universes, options.seed, round); },
      options.seconds, search_trace, /*per_layer=*/false,
      [&] {
        setup_s.push_back(TimeEngineSetup(universe_ptrs, config, &out));
      },
      &out);
  ReportSetup(setup_s, &out);
  out.Note(Fmt("datagen %.3f s (not in setup_s)", generate_s));
  return out;
}

// ---------------------------------------------------------------------------
// sparse_universe: an internet-scale catalog on the sparse blocked index.

constexpr size_t kSparseSources = 20'000;
constexpr size_t kSparseM = 20;
constexpr size_t kSparseBudget = 500;

/// Two sources of one domain that share a concept: pinning them is always
/// feasible, and their shared-concept attributes make a GA constraint.
bool FindSharedConceptPair(const mube::Universe& u, uint32_t first,
                           mube::AttributeRef* a, mube::AttributeRef* b) {
  for (uint32_t s0 = first; s0 < u.size(); ++s0) {
    const mube::Source& x = u.source(s0);
    for (uint32_t s1 = s0 + 1; s1 < std::min<size_t>(u.size(), s0 + 400);
         ++s1) {
      const mube::Source& y = u.source(s1);
      for (uint32_t i = 0; i < x.attribute_count(); ++i) {
        for (uint32_t j = 0; j < y.attribute_count(); ++j) {
          if (x.attribute(i).concept_id >= 0 &&
              x.attribute(i).concept_id == y.attribute(j).concept_id) {
            *a = mube::AttributeRef(s0, i);
            *b = mube::AttributeRef(s1, j);
            return true;
          }
        }
      }
    }
  }
  return false;
}

std::vector<SpecCase> SparseCases(uint64_t seed, size_t round,
                                  const mube::AttributeRef& a,
                                  const mube::AttributeRef& b) {
  std::vector<SpecCase> cases(3);
  cases[0].label = "sparse/none";
  cases[1].label = "sparse/2src";
  cases[1].spec.source_constraints = {a.source_id, b.source_id};
  cases[2].label = "sparse/1ga";
  cases[2].spec.ga_constraints.Add(mube::GlobalAttribute({a, b}));
  for (size_t i = 0; i < cases.size(); ++i) {
    cases[i].m = kSparseM;
    cases[i].spec.seed = SubSeed(seed, 5000 + round * 64 + i);
  }
  return cases;
}

/// One mixed churn batch for the sparse catalog: a re-crawl, a rename, a
/// retirement and a new source, none touching `keep`.
std::vector<mube::ChurnEvent> SparseChurn(const mube::Universe& u,
                                          uint64_t seed,
                                          const std::vector<uint32_t>& keep) {
  mube::Rng rng(seed);
  auto pick = [&] {
    for (;;) {
      const uint32_t sid = static_cast<uint32_t>(rng.Uniform(u.size()));
      if (u.alive(sid) &&
          std::find(keep.begin(), keep.end(), sid) == keep.end()) {
        return sid;
      }
    }
  };
  const mube::Source& crawled = u.source(pick());
  std::vector<uint64_t> tuples(crawled.tuples().begin(),
                               crawled.tuples().end());
  tuples.push_back((uint64_t{0xBEEF} << 32) | rng.Uniform(1u << 30));
  const mube::Source& renamed = u.source(pick());
  const mube::Source& retired = u.source(pick());
  mube::Source fresh(0, "churned-" + std::to_string(seed) + ".example.com");
  fresh.AddAttribute(mube::Attribute(renamed.attribute(0).name));
  fresh.AddAttribute(mube::Attribute("price"));
  fresh.SetTuples({rng.Uniform(1u << 20), rng.Uniform(1u << 20)});
  std::vector<mube::ChurnEvent> events;
  events.push_back(mube::ChurnEvent::UpdateTuples(crawled.name(), tuples));
  events.push_back(mube::ChurnEvent::RenameAttribute(
      renamed.name(), 0, renamed.attribute(0).name + "x"));
  if (retired.name() != renamed.name() && retired.name() != crawled.name()) {
    events.push_back(mube::ChurnEvent::RemoveSource(retired.name()));
  }
  events.push_back(mube::ChurnEvent::AddSource(std::move(fresh)));
  return events;
}

Outcome SparseUniverse(const Options& options) {
  Outcome out;
  mube::ScaleConfig scale;
  scale.seed = SubSeed(options.seed, 20'000);
  scale.num_sources = kSparseSources;
  const int64_t gen_start = NowNs();
  mube::Result<mube::ScaleUniverse> generated =
      mube::GenerateScaleUniverse(scale);
  if (!generated.ok()) {
    out.Problem("generate: " + generated.status().ToString());
    return out;
  }
  mube::DeltaUniverse catalog(std::move(generated.ValueOrDie().universe));
  const double generate_s = SecondsSince(gen_start);
  const mube::Universe& u = catalog.universe();

  MubeConfig config = MubeConfig::PaperDefaults();
  config.max_sources = kSparseM;
  config.similarity_index = "sparse";
  config.similarity_threads = 4;
  config.optimizer_options.max_evaluations = kSparseBudget;
  config.optimizer_options.patience = 0;
  config.optimizer_options.threads = 1;
  mube::SearchTrace search_trace;
  config.optimizer_options.trace = &search_trace;

  mube::AttributeRef a, b;
  mube::Rng rng(SubSeed(options.seed, 7));
  if (!FindSharedConceptPair(
          u, static_cast<uint32_t>(rng.Uniform(u.size() / 2)), &a, &b)) {
    out.Problem("no shared-concept source pair");
    return out;
  }
  const std::vector<SpecCase> fixed = SparseCases(options.seed, 0, a, b);

  if (options.trace) {
    out.metrics.Add("datagen.generate_s", generate_s, "s");
    AddBuildMetrics(u, config, true, &out);
  }
  std::unique_ptr<mube::Mube> engine = CreateEngine(&u, config, &out);
  if (engine == nullptr) return out;

  // One churn batch through the incremental path, on the live catalog.
  auto apply_churn = [&] {
    mube::ChurnDelta delta;
    const mube::Status applied = catalog.ApplyAll(
        SparseChurn(u, SubSeed(options.seed, 99), {a.source_id, b.source_id}),
        &delta);
    if (!applied.ok()) {
      out.Problem("churn: " + applied.ToString());
      return;
    }
    ++out.attempted;
    const int64_t start = NowNs();
    const mube::Status status = engine->ApplyDelta(delta);
    const double ms = static_cast<double>(NowNs() - start) * 1e-6;
    if (!status.ok()) {
      ++out.failed;
      out.Problem("ApplyDelta: " + status.ToString());
      return;
    }
    out.Note(Fmt("churn batch: ApplyDelta %.3f ms, %zu measure calls", ms,
                 engine->similarity().last_measure_calls()));
    if (options.trace) {
      out.metrics.Add("dynamic.apply_delta_ms", ms, "ms");
      out.metrics.Add("dynamic.churn_measure_calls",
                      static_cast<double>(
                          engine->similarity().last_measure_calls()),
                      "count");
    }
    MubeResult after;
    RunChecked(*engine, fixed[0], &after, &out);
  };

  if (options.trace) {
    MubeResult warm;
    for (const SpecCase& c : SparseCases(options.seed, 1, a, b)) {
      RunChecked(*engine, c, &warm, &out);
    }
    TracedPass pass;
    RunTracedCases({engine.get()}, fixed, &pass, &out);
    AddLayerMetrics(pass, &out);
    WriteSpans(options, pass.tracer, &out);
    MeasurePasses(
        {engine.get()}, fixed,
        [&](size_t round) { return SparseCases(options.seed, round, a, b); },
        options.seconds, search_trace, /*per_layer=*/true, {}, &out);
    apply_churn();
    return out;
  }

  MeasurePasses(
      {engine.get()}, fixed,
      [&](size_t round) { return SparseCases(options.seed, round, a, b); },
      options.seconds, search_trace, /*per_layer=*/false, {}, &out);
  apply_churn();
  engine.reset();  // one sparse index resident at a time
  std::vector<double> setup_s;
  for (size_t i = 0; i < kSparseSetupRepeats; ++i) {
    setup_s.push_back(TimeEngineSetup({&u}, config, &out));
  }
  ReportSetup(setup_s, &out);
  out.Note(Fmt("datagen %.3f s (not in setup_s); %zu sources, %zu "
               "attributes",
               generate_s, u.size(), u.total_attribute_count()));
  return out;
}

// ---------------------------------------------------------------------------
// serving_churn: many tenants against one MubeService under churn.

constexpr size_t kServingSources = 120;
constexpr size_t kServingM = 8;
constexpr size_t kServingBudget = 400;
constexpr size_t kTenants = 32;
constexpr size_t kClosedLoopClients = 4;
constexpr unsigned kWorkers = 4;
/// Open-loop Refine arrivals per second, fixed so every version of the
/// engine is offered the same load. The dispatcher serves one batch at a
/// time, so the rate must keep rate × serve time well below 1; at ~80 ms
/// per Refine, 6/s loads it to about half.
constexpr double kOpenLoopRate = 6.0;
constexpr size_t kExecuteEvery = 10;  // every 10th open-loop request
constexpr size_t kExecuteRows = 100;  // an Execute asks for one page
constexpr double kPublishIntervalS = 0.5;
constexpr double kCapacityShare = 0.3;  // of --seconds; the rest is open loop

struct TenantPlan {
  std::string name;
  std::vector<uint32_t> pins;
  mube::MediatedSchema ga;
  double theta = 0.75;
  std::string optimizer;
};

std::vector<TenantPlan> PlanTenants(const mube::GeneratedUniverse& g) {
  static const char* kOptimizers[] = {"tabu", "sls", "anneal"};
  static const double kThetas[] = {0.7, 0.75, 0.8};
  const auto& pool = g.unperturbed_source_ids;
  std::vector<TenantPlan> plans(kTenants);
  for (size_t t = 0; t < kTenants; ++t) {
    TenantPlan& p = plans[t];
    p.name = Fmt("tenant-%02zu", t);
    for (size_t i = 0; i < t % 3 && !pool.empty(); ++i) {
      const uint32_t sid = pool[(t * 5 + i * 11) % pool.size()];
      if (std::find(p.pins.begin(), p.pins.end(), sid) == p.pins.end()) {
        p.pins.push_back(sid);
      }
    }
    std::sort(p.pins.begin(), p.pins.end());
    if (t % 4 == 1) p.ga = PickGaConstraints(g, 1, (t / 4) % 4, 3);
    p.theta = kThetas[t % 3];
    p.optimizer = kOptimizers[(t / 3) % 3];
  }
  return plans;
}

/// Sources no churn batch may rename: every tenant's pins and GA sources.
std::vector<uint32_t> ProtectedSources(const std::vector<TenantPlan>& plans) {
  std::vector<uint32_t> keep;
  for (const TenantPlan& p : plans) {
    keep.insert(keep.end(), p.pins.begin(), p.pins.end());
    for (uint32_t sid : p.ga.TouchedSources()) keep.push_back(sid);
  }
  std::sort(keep.begin(), keep.end());
  keep.erase(std::unique(keep.begin(), keep.end()), keep.end());
  return keep;
}

/// A re-crawl, a rename of an unprotected source and a new source —
/// nothing a tenant's constraints depend on.
std::vector<mube::ChurnEvent> ServingChurnBatch(
    const mube::Universe& u, uint64_t seed, size_t round,
    const std::vector<uint32_t>& keep) {
  mube::Rng rng(SubSeed(seed, 0xC0DE + round));
  const std::vector<uint32_t> alive = u.AliveSourceIds();
  auto pick = [&](bool unprotected) {
    for (;;) {
      const uint32_t sid = alive[rng.Uniform(alive.size())];
      if (!unprotected || !std::binary_search(keep.begin(), keep.end(), sid)) {
        return sid;
      }
    }
  };
  const mube::Source& crawled = u.source(pick(false));
  std::vector<uint64_t> tuples(crawled.tuples().begin(),
                               crawled.tuples().end());
  for (size_t i = 0; i < tuples.size() / 10 + 1; ++i) {
    tuples.push_back((uint64_t{0xBEEF} << 32) | rng.Uniform(1u << 30));
  }
  const mube::Source& renamed = u.source(pick(true));
  mube::Source fresh(0, Fmt("churned-%zu.example.com", round));
  fresh.AddAttribute(mube::Attribute("title"));
  fresh.AddAttribute(mube::Attribute("price"));
  fresh.SetTuples({rng.Uniform(1u << 20), rng.Uniform(1u << 20)});
  return {
      mube::ChurnEvent::UpdateTuples(crawled.name(), tuples),
      mube::ChurnEvent::RenameAttribute(renamed.name(), 0,
                                        renamed.attribute(0).name + " v2"),
      mube::ChurnEvent::AddSource(std::move(fresh)),
  };
}

MubeConfig ServingConfig() {
  MubeConfig config = MubeConfig::PaperDefaults();
  config.max_sources = kServingM;
  config.similarity_index = "dense";
  config.similarity_threads = 1;
  config.optimizer_options.max_evaluations = kServingBudget;
  config.optimizer_options.patience = 0;
  config.optimizer_options.threads = 1;
  config.pcsa.num_maps = 64;
  return config;
}

/// Shared bookkeeping of the serving phases (all threads).
class ServingLedger {
 public:
  ServingLedger(const std::vector<TenantPlan>* plans, Outcome* out)
      : plans_(plans), out_(out) {}

  /// Checks one Refine answer; returns true when it counts as a success.
  bool Refine(const std::string& tenant, uint64_t seed,
              const mube::RefineResponse& response) {
    mube::MutexLock lock(&mu_);
    ++out_->attempted;
    if (!response.status.ok() || response.results.empty()) {
      ++out_->failed;
      out_->Problem(tenant + ": " + response.status.ToString());
      return false;
    }
    const TenantPlan& plan = PlanOf(tenant);
    const MubeResult& best = response.results.front();
    const std::string bad = CheckResult(best, plan.pins, plan.ga, kServingM);
    if (!bad.empty()) {
      ++out_->failed;
      out_->Problem(tenant + ": " + bad);
      return false;
    }
    auto [it, inserted] = canonical_.try_emplace(
        std::make_tuple(tenant, seed, response.epoch), best.solution.sources);
    if (!inserted && it->second != best.solution.sources) {
      ++out_->failed;
      out_->Problem(tenant + ": selections disagree at one (seed, epoch)");
      return false;
    }
    return true;
  }

  void Failed(const std::string& what) {
    mube::MutexLock lock(&mu_);
    ++out_->attempted;
    ++out_->failed;
    out_->Problem(what);
  }

  void Problem(const std::string& what) {
    mube::MutexLock lock(&mu_);
    out_->Problem(what);
  }

  void Attempted(bool ok, const std::string& what) {
    if (ok) {
      mube::MutexLock lock(&mu_);
      ++out_->attempted;
    } else {
      Failed(what);
    }
  }

 private:
  const TenantPlan& PlanOf(const std::string& tenant) const {
    for (const TenantPlan& p : *plans_) {
      if (p.name == tenant) return p;
    }
    return plans_->front();
  }

  const std::vector<TenantPlan>* plans_;
  mube::Mutex mu_;
  Outcome* out_ PT_GUARDED_BY(mu_);
  std::map<std::tuple<std::string, uint64_t, uint64_t>, std::vector<uint32_t>>
      canonical_ GUARDED_BY(mu_);
};

mube::Status ApplyPlan(mube::MubeService* service, const TenantPlan& plan) {
  mube::SnapshotManager::Lease lease = service->snapshots().Acquire();
  MUBE_ASSIGN_OR_RETURN(mube::Tenant * tenant,
                        service->RegisterTenant(plan.name));
  for (uint32_t sid : plan.pins) {
    MUBE_RETURN_IF_ERROR(tenant->PinSource(lease.universe(), sid));
  }
  for (const mube::GlobalAttribute& ga : plan.ga.gas()) {
    MUBE_RETURN_IF_ERROR(tenant->AddGaConstraint(lease.universe(), ga));
  }
  MUBE_RETURN_IF_ERROR(tenant->SetTheta(plan.theta));
  return tenant->SetOptimizer(plan.optimizer);
}

/// Median ms of Mube::Fork plus ApplyDelta of one churn batch on the fork,
/// the two steps of an epoch publish.
void AddPublishLayerMetrics(const mube::Mube& engine,
                            const mube::Universe& universe, uint64_t seed,
                            const std::vector<uint32_t>& keep,
                            Outcome* out) {
  std::vector<double> fork_ms, delta_ms, calls;
  for (size_t i = 0; i < 5; ++i) {
    mube::DeltaUniverse copy(universe.Clone());
    int64_t start = NowNs();
    mube::Result<std::unique_ptr<mube::Mube>> fork =
        engine.Fork(&copy.universe());
    fork_ms.push_back(static_cast<double>(NowNs() - start) * 1e-6);
    if (!fork.ok()) {
      out->Problem("fork: " + fork.status().ToString());
      return;
    }
    mube::ChurnDelta delta;
    const mube::Status applied = copy.ApplyAll(
        ServingChurnBatch(copy.universe(), seed, 1000 + i, keep), &delta);
    if (!applied.ok()) {
      out->Problem("churn: " + applied.ToString());
      return;
    }
    start = NowNs();
    const mube::Status status = fork.ValueOrDie()->ApplyDelta(delta);
    delta_ms.push_back(static_cast<double>(NowNs() - start) * 1e-6);
    if (!status.ok()) {
      out->Problem("ApplyDelta: " + status.ToString());
      return;
    }
    calls.push_back(static_cast<double>(
        fork.ValueOrDie()->similarity().last_measure_calls()));
  }
  out->metrics.Add("snapshot.fork_ms", Median(fork_ms), "ms");
  out->metrics.Add("dynamic.apply_delta_ms", Median(delta_ms), "ms");
  out->metrics.Add("dynamic.churn_measure_calls", Median(calls), "count");
}

/// Run time with a MetricsRegistry attached against detached, on two
/// fresh engines over the same catalog, alternating which runs first.
void AddMetricsOverhead(const mube::Universe& universe,
                        const std::vector<RunSpec>& specs, Outcome* out) {
  auto detached = mube::Mube::Create(&universe, ServingConfig());
  auto attached = mube::Mube::Create(&universe, ServingConfig());
  if (!detached.ok() || !attached.ok()) {
    out->Problem("metrics-overhead engines failed to build");
    return;
  }
  mube::MetricsRegistry registry;
  attached.ValueOrDie()->AttachMetrics(&registry);
  double with_s = 0.0, without_s = 0.0;
  for (size_t round = 0; round < 2; ++round) {
    for (size_t i = 0; i < specs.size(); ++i) {
      const bool attached_first = (i + round) % 2 == 0;
      for (int k = 0; k < 2; ++k) {
        const bool use_attached = attached_first == (k == 0);
        const mube::Mube& e = use_attached ? *attached.ValueOrDie()
                                           : *detached.ValueOrDie();
        const int64_t start = NowNs();
        const bool ok = e.Run(specs[i]).ok();
        (use_attached ? with_s : without_s) += SecondsSince(start);
        if (!ok) out->Problem("metrics-overhead run failed");
      }
    }
  }
  out->metrics.Add("metrics.overhead_frac",
                   Ratio(with_s - without_s, without_s), "ratio");
}

/// Publishes one churn batch through MubeService::ApplyChurn every
/// kPublishIntervalS on its own thread, from construction until Stop().
class ChurnWriter {
 public:
  ChurnWriter(mube::MubeService* service, uint64_t seed,
              const std::vector<uint32_t>* keep, ServingLedger* ledger)
      : service_(service), seed_(seed), keep_(keep), ledger_(ledger) {
    thread_ = std::thread([this] { Loop(); });
  }
  ~ChurnWriter() { Stop(); }
  ChurnWriter(const ChurnWriter&) = delete;
  ChurnWriter& operator=(const ChurnWriter&) = delete;

  /// Stops and joins the writer. Idempotent.
  void Stop() {
    stop_.store(true);
    if (thread_.joinable()) thread_.join();
  }

  /// ApplyChurn latencies; read only after Stop().
  const std::vector<double>& publish_ms() const { return publish_ms_; }

 private:
  void Loop() {
    const int64_t start = NowNs();
    for (size_t round = 0; !stop_.load();) {
      if (SecondsSince(start) < kPublishIntervalS * (round + 1)) {
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
        continue;
      }
      std::vector<mube::ChurnEvent> batch;
      {
        mube::SnapshotManager::Lease lease = service_->snapshots().Acquire();
        batch = ServingChurnBatch(lease.universe(), seed_, round, *keep_);
      }
      const int64_t t0 = NowNs();
      const mube::Status status = service_->ApplyChurn(batch);
      publish_ms_.push_back(static_cast<double>(NowNs() - t0) * 1e-6);
      ledger_->Attempted(status.ok(), "ApplyChurn: " + status.ToString());
      ++round;
    }
  }

  mube::MubeService* service_;
  uint64_t seed_;
  const std::vector<uint32_t>* keep_;
  ServingLedger* ledger_;
  std::atomic<bool> stop_{false};
  std::vector<double> publish_ms_;
  std::thread thread_;  // last: it uses every member above
};

/// Closed loop: kClosedLoopClients callers, each waiting for its answer
/// before sending the next. Returns completed Refines per second.
double RunClosedLoop(mube::MubeService* service,
                     const std::vector<TenantPlan>& plans, double seconds,
                     ServingLedger* ledger) {
  std::atomic<size_t> completed{0};
  const int64_t start = NowNs();
  std::vector<std::thread> clients;
  for (size_t c = 0; c < kClosedLoopClients; ++c) {
    clients.emplace_back([&, c] {
      for (size_t k = 0; SecondsSince(start) < seconds; ++k) {
        mube::RefineRequest request;
        request.tenant = plans[(c + k * kClosedLoopClients) % kTenants].name;
        request.seed = 1 + k % 3;
        const mube::RefineResponse response = service->Refine(request);
        if (ledger->Refine(request.tenant, request.seed, response)) {
          completed.fetch_add(1);
        }
      }
    });
  }
  for (std::thread& t : clients) t.join();
  return Ratio(completed.load(), SecondsSince(start));
}

struct OpenLoopStats {
  std::vector<double> late_ms;    ///< generator lateness per request
  std::vector<double> refine_ms;  ///< Refine latency from its due time
  std::vector<double> queue_ms;
  std::vector<double> serve_ms;
  std::vector<double> execute_ms;
  std::vector<double> staleness;
  size_t rejected = 0;
  size_t refines_offered = 0;
  size_t within_slo = 0;
  /// Engine time and optimizer evaluations of the phase's Refines.
  double run_s = 0.0;
  double evaluations = 0.0;
};

/// Open loop: one generator (this thread) offers kOpenLoopRate requests per
/// second for `seconds`, every kExecuteEvery-th an Execute, and times each
/// Refine from when it was due, polling the futures between sends.
OpenLoopStats RunOpenLoop(mube::MubeService* service,
                          mube::MetricsRegistry* registry,
                          const std::vector<TenantPlan>& plans, double seconds,
                          double slo_ms, ServingLedger* ledger) {
  struct Offered {
    double due_ms = 0.0;
    bool execute = false;
    std::string tenant;
    uint64_t seed = 0;
    mube::ResponseFuture refine;
    mube::ExecuteFuture exec;
    bool done = false;
  };
  OpenLoopStats stats;
  std::vector<Offered> offered;
  // Engine speed is read over this phase only, where Refines rarely
  // overlap; the closed loop runs four at once and contends.
  mube::Histogram* run_seconds =
      registry->GetHistogram("serving_request_run_seconds", {1});
  mube::Counter* evaluations =
      registry->GetCounter("mube_optimizer_evaluations_total");
  const double run_s0 = run_seconds->TakeSnapshot().sum;
  const uint64_t evaluations0 = evaluations->Value();
  const int64_t start = NowNs();
  auto now_ms = [&] { return static_cast<double>(NowNs() - start) * 1e-6; };
  auto poll = [&] {
    bool pending = false;
    for (Offered& o : offered) {
      if (o.done) continue;
      if (!(o.execute ? o.exec.Ready() : o.refine.Ready())) {
        pending = true;
        continue;
      }
      o.done = true;
      const double latency = now_ms() - o.due_ms;
      if (o.execute) {
        const mube::ExecuteResponse r = o.exec.Wait();
        ledger->Attempted(r.status.ok(),
                          o.tenant + " execute: " + r.status.ToString());
        stats.execute_ms.push_back(r.run_seconds * 1e3);
        continue;
      }
      const mube::RefineResponse r = o.refine.Wait();
      const bool ok = ledger->Refine(o.tenant, o.seed, r);
      stats.refine_ms.push_back(latency);
      stats.queue_ms.push_back(r.queue_seconds * 1e3);
      stats.serve_ms.push_back(r.run_seconds * 1e3);
      stats.staleness.push_back(static_cast<double>(r.staleness_epochs));
      if (ok && latency <= slo_ms) ++stats.within_slo;
    }
    return pending;
  };
  for (size_t k = 0;; ++k) {
    const double due = 1e3 * static_cast<double>(k) / kOpenLoopRate;
    if (due >= seconds * 1e3) break;
    while (now_ms() < due) {
      poll();
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
    stats.late_ms.push_back(now_ms() - due);
    Offered o;
    o.due_ms = due;
    o.tenant = plans[(k * 7) % kTenants].name;
    o.seed = 1 + k % 3;
    o.execute = k % kExecuteEvery == kExecuteEvery - 1;
    if (o.execute) {
      mube::ExecuteRequest request;
      request.tenant = o.tenant;
      request.query.limit = kExecuteRows;
      mube::Result<mube::ExecuteFuture> f = service->SubmitExecute(request);
      if (!f.ok()) {
        ++stats.rejected;
        ledger->Failed("execute rejected: " + f.status().ToString());
        continue;
      }
      o.exec = f.ValueOrDie();
    } else {
      ++stats.refines_offered;
      mube::RefineRequest request;
      request.tenant = o.tenant;
      request.seed = o.seed;
      mube::Result<mube::ResponseFuture> f = service->Submit(request);
      if (!f.ok()) {
        ++stats.rejected;
        ledger->Failed("refine rejected: " + f.status().ToString());
        continue;
      }
      o.refine = f.ValueOrDie();
    }
    offered.push_back(std::move(o));
  }
  const int64_t drain_start = NowNs();
  while (poll()) {
    if (SecondsSince(drain_start) > 60.0) {
      ledger->Problem("open-loop requests still pending after 60 s");
      break;
    }
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
  stats.run_s = run_seconds->TakeSnapshot().sum - run_s0;
  stats.evaluations = static_cast<double>(evaluations->Value() - evaluations0);
  return stats;
}

Outcome ServingChurn(const Options& options) {
  Outcome out;
  const int64_t gen_start = NowNs();
  mube::Result<mube::GeneratedUniverse> generated = mube::GenerateUniverse(
      PaperData(kServingSources, SubSeed(options.seed, kServingSources)));
  if (!generated.ok()) {
    out.Problem("generate: " + generated.status().ToString());
    return out;
  }
  const mube::GeneratedUniverse& g = generated.ValueOrDie();
  const double generate_s = SecondsSince(gen_start);
  const std::vector<TenantPlan> plans = PlanTenants(g);
  const std::vector<uint32_t> keep = ProtectedSources(plans);

  mube::ServiceOptions service_options;
  service_options.queue_capacity = 1024;
  service_options.max_batch = 16;
  service_options.worker_threads = kWorkers;

  // Set-up: service creation plus tenant registration (timed again after
  // the load phases, see ReportSetup).
  auto set_up = [&](mube::MetricsRegistry* registry)
      -> std::unique_ptr<mube::MubeService> {
    mube::Result<std::unique_ptr<mube::MubeService>> created =
        mube::MubeService::Create(g.universe, ServingConfig(),
                                  service_options, registry);
    if (!created.ok()) {
      out.Problem("service: " + created.status().ToString());
      return nullptr;
    }
    for (const TenantPlan& plan : plans) {
      const mube::Status status =
          ApplyPlan(created.ValueOrDie().get(), plan);
      if (!status.ok()) {
        out.Problem(plan.name + ": " + status.ToString());
        return nullptr;
      }
    }
    return created.MoveValueUnsafe();
  };
  auto registry = std::make_unique<mube::MetricsRegistry>();
  std::unique_ptr<mube::MubeService> service = set_up(registry.get());
  if (service == nullptr) return out;

  ServingLedger ledger(&plans, &out);
  // Epoch 0, sequentially: each tenant's first answer (q_mean, digest).
  double q_sum = 0.0;
  Digest digest;
  for (const TenantPlan& plan : plans) {
    mube::RefineRequest request;
    request.tenant = plan.name;
    request.seed = 1;
    const mube::RefineResponse response = service->Refine(request);
    if (!ledger.Refine(plan.name, 1, response)) continue;
    q_sum += response.results.front().solution.overall;
    DigestSolution(&digest, plan.name, response.results.front().solution);
  }

  if (options.trace) {
    out.metrics.Add("datagen.generate_s", generate_s, "s");
    mube::SnapshotManager::Lease lease = service->snapshots().Acquire();
    AddBuildMetrics(lease.universe(), ServingConfig(), false, &out);
    std::vector<SpecCase> cases;
    std::vector<RunSpec> specs;
    for (const TenantPlan& plan : plans) {
      SpecCase c;
      c.label = plan.name;
      c.m = kServingM;
      c.spec = service->FindTenant(plan.name)->BuildRunSpec(lease.universe(),
                                                            1);
      specs.push_back(c.spec);
      cases.push_back(std::move(c));
    }
    TracedPass pass;
    RunTracedCases({&lease.engine()}, cases, &pass, &out);
    AddLayerMetrics(pass, &out);
    AddPublishLayerMetrics(lease.engine(), lease.universe(), options.seed,
                           keep, &out);
    AddMetricsOverhead(lease.universe(), specs, &out);
    WriteSpans(options, pass.tracer, &out);
  }

  ChurnWriter writer(service.get(), options.seed, &keep, &ledger);
  const double sessions_per_s = RunClosedLoop(
      service.get(), plans, options.seconds * kCapacityShare, &ledger);
  const OpenLoopStats open = RunOpenLoop(
      service.get(), registry.get(), plans,
      options.seconds * (1.0 - kCapacityShare), options.slo_ms, &ledger);
  writer.Stop();
  service->Drain();
  if (service->snapshots().live_epoch_count() != 1) {
    out.Problem(Fmt("%zu epochs still live after drain",
                    service->snapshots().live_epoch_count()));
  }

  const mube::Histogram::Snapshot batches =
      registry->GetHistogram("serving_batch_size", {1})->TakeSnapshot();
  service->Stop();

  MetricSet& m = out.metrics;
  const std::vector<double>& publish_ms = writer.publish_ms();
  const double slo_frac = Ratio(open.within_slo, open.refines_offered);
  if (options.trace) {
    AddTail(open.refine_ms, "open-loop Refine from due time", &out);
  } else {
    std::vector<double> setup_s;
    for (size_t i = 0; i < kSetupRepeats; ++i) {
      mube::MetricsRegistry scratch_registry;
      const int64_t start = NowNs();
      const std::unique_ptr<mube::MubeService> timed =
          set_up(&scratch_registry);
      setup_s.push_back(SecondsSince(start));
    }
    ReportSetup(setup_s, &out);
    m.Add("run_p50_ms", Median(open.refine_ms), "ms");
    m.Add("evals_per_s", Ratio(open.evaluations, open.run_s), "1/s");
    m.Add("q_mean", q_sum / static_cast<double>(kTenants), "score");
    m.Add("sessions_per_s", sessions_per_s, "1/s");
    m.Add("peak_rss_mb", PeakRssMb(), "MB");
  }
  m.Add("serving.slo_frac", slo_frac, "ratio");
  m.Add("serving.publish_p50_ms", Median(publish_ms), "ms");
  m.Add("serving.queue_wait_ms", Median(open.queue_ms), "ms");
  m.Add("serving.serve_ms", Median(open.serve_ms), "ms");
  m.Add("serving.batch_size", Ratio(batches.sum, batches.count), "count");
  m.Add("serving.rejected", static_cast<double>(open.rejected), "count");
  m.Add("serving.staleness_epochs", Mean(open.staleness), "count");
  m.Add("serving.generator_late_ms", Median(open.late_ms), "ms");
  m.Add("serving.error_rate",
        Ratio(out.failed, static_cast<double>(out.attempted)), "ratio");
  m.Add("exec.execute_ms", Median(open.execute_ms), "ms");
  out.Note(Fmt("capacity: %.2f sessions/s with %zu callers; open loop: %zu "
               "Refines + %zu Executes offered at %.1f/s, slo_frac %.3f "
               "(limit %.0f ms), generator late p50 %.3f ms",
               sessions_per_s, kClosedLoopClients, open.refines_offered,
               open.execute_ms.size(), kOpenLoopRate, slo_frac, options.slo_ms,
               Median(open.late_ms)));
  out.Note(Fmt("%zu epochs published, publish p50 %.3f ms",
               publish_ms.size(), Median(publish_ms)));
  out.Note("digest " + digest.Hex());
  out.Note(Fmt("datagen %.3f s (not in setup_s)", generate_s));
  return out;
}

}  // namespace

Outcome RunWorkload(const Options& options) {
  if (options.workload == "paper_loop") return PaperLoop(options);
  if (options.workload == "serving_churn") return ServingChurn(options);
  if (options.workload == "sparse_universe") return SparseUniverse(options);
  Outcome out;
  out.Problem("unknown workload '" + options.workload + "'");
  return out;
}

}  // namespace perfbench
