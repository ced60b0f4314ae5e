#ifndef PERFBENCH_TRACE_H_
#define PERFBENCH_TRACE_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "qef/qef.h"
#include "text/similarity_source.h"

/// \file trace.h
/// The benchmark's tracing: spans recorded around the calls the benchmark
/// makes into each engine layer, kept in memory and written out at the end,
/// plus the two decorators that let an outside timer see inside one
/// µBE iteration — a counting SimilaritySource under the Matcher and a
/// timing Qef around each quality function. Nothing here changes what the
/// engine computes; the traced run proves that by comparing its answers
/// with Mube::Run's.

namespace perfbench {

/// Monotonic nanoseconds (steady_clock).
int64_t NowNs();

/// \brief In-memory span store. Single-threaded: the traced run is serial.
class Tracer {
 public:
  struct Span {
    uint32_t name = 0;     ///< interned span name
    int64_t parent = -1;   ///< index of the causing span, -1 for a root
    uint64_t request = 0;  ///< shared by all spans of one request
    int64_t start_ns = 0;
    int64_t end_ns = 0;
  };

  /// Per-name totals: duration, self time (duration minus the part of the
  /// interval covered by direct children) and span count.
  struct LayerTime {
    int64_t total_ns = 0;
    int64_t self_ns = 0;
    size_t count = 0;
  };

  uint32_t Intern(const std::string& name);
  /// Records a finished span and returns its index.
  int64_t Record(uint32_t name, int64_t parent, uint64_t request,
                 int64_t start_ns, int64_t end_ns);
  /// Opens a span ending "now" once Close is called.
  int64_t Open(uint32_t name, int64_t parent, uint64_t request);
  void Close(int64_t span);

  const std::vector<Span>& spans() const { return spans_; }

  /// Self and total time per span name. Children of one span never overlap
  /// (the traced path is serial), so self = duration − Σ child durations,
  /// each child clipped to its parent's interval.
  std::map<std::string, LayerTime> Layers() const;

  /// Writes one CSV line per span: name,start_ns,end_ns,parent,request.
  mube::Status WriteCsv(const std::string& path) const;

 private:
  std::vector<std::string> names_;
  std::vector<Span> spans_;
};

/// \brief Where the decorators hang their spans: the enclosing span and
/// request id, set by the traced run before it calls into the engine.
struct SpanContext {
  Tracer* tracer = nullptr;
  int64_t parent = -1;
  uint64_t request = 0;
};

/// \brief A SimilaritySource that forwards every query to `inner` and
/// counts the work: neighbor enumerations, neighbor callbacks (visits) and
/// At() reads. It also derives one span per Match(S) execution: the
/// Matcher calls neighbor_floor() exactly once at the start of Match, so
/// that call opens a "match" span, and the span ends at the last
/// similarity call before the next Match (or Flush). |A_S| of each Match
/// is the number of distinct attributes it enumerated (Match enumerates
/// every attribute of S in its first pass, and only those).
///
/// Queries return exactly what `inner` returns. Counting uses relaxed
/// atomics, but the span bookkeeping assumes one caller thread: use it
/// only under a serial optimizer (OptimizerOptions::threads == 1).
/// Read-only: Rebuild and ApplyChurn abort.
class CountingSimilaritySource : public mube::SimilaritySource {
 public:
  struct Counts {
    uint64_t neighbor_calls = 0;
    uint64_t neighbor_visits = 0;
    uint64_t at_reads = 0;
    uint64_t matches = 0;
    /// Σ over Matches of |A_S| and |A_S|² (the dense O(|A_S|²) baseline).
    uint64_t match_attrs = 0;
    double match_attrs_sq = 0.0;
  };

  /// `inner` must outlive the decorator. `context` may be null (counting
  /// only) and must outlive it otherwise.
  CountingSimilaritySource(const mube::SimilaritySource& inner,
                           const SpanContext* context);

  double At(size_t i, size_t j) const override;
  size_t attribute_count() const override;
  double MaxSimilarityOf(size_t i) const override;
  void ForEachNeighborAtLeast(size_t i, double theta,
                              const NeighborFn& fn) const override;
  double neighbor_floor() const override;
  void Rebuild(const mube::Universe& universe,
               const mube::SimilarityMeasure& measure,
               unsigned threads) override;
  void ApplyChurn(const mube::Universe& universe,
                  const mube::SimilarityMeasure& measure,
                  const std::vector<uint32_t>& dirty_sources,
                  unsigned threads) override;
  std::unique_ptr<mube::SimilaritySource> CloneSource() const override;
  size_t MemoryBytes() const override;
  size_t last_measure_calls() const override;

  /// Closes the open match span, if any, and folds its |A_S| into the
  /// counts. Call after the optimizer returns.
  void Flush() const;
  Counts counts() const;

 private:
  void EndOfCall() const;

  const mube::SimilaritySource& inner_;
  const SpanContext* context_;
  mutable std::atomic<uint64_t> neighbor_calls_{0};
  mutable std::atomic<uint64_t> neighbor_visits_{0};
  mutable std::atomic<uint64_t> at_reads_{0};

  // Match-span state (serial use only, see class comment).
  uint32_t match_name_ = 0;
  mutable int64_t open_start_ns_ = -1;
  mutable int64_t last_call_end_ns_ = 0;
  mutable int64_t open_parent_ = -1;
  mutable uint64_t open_request_ = 0;
  mutable uint32_t generation_ = 0;
  mutable std::vector<uint32_t> seen_;  // attr -> generation last enumerated
  mutable uint64_t open_attrs_ = 0;
  mutable uint64_t matches_ = 0;
  mutable uint64_t match_attrs_ = 0;
  mutable double match_attrs_sq_ = 0.0;
};

/// \brief A Qef that times each Evaluate of `inner` as a "qef.<label>"
/// span under the context's parent (the span count is the evaluation
/// count).
class TimedQef : public mube::Qef {
 public:
  TimedQef(std::unique_ptr<mube::Qef> inner, std::string label,
           const SpanContext* context);

  double Evaluate(const std::vector<uint32_t>& source_ids) const override;
  std::string name() const override { return inner_->name(); }

 private:
  std::unique_ptr<mube::Qef> inner_;
  const SpanContext* context_;
  uint32_t span_name_ = 0;
};

}  // namespace perfbench

#endif  // PERFBENCH_TRACE_H_
