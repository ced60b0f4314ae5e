#include "trace.h"

#include <algorithm>
#include <chrono>
#include <cstdio>

#include "common/logging.h"

namespace perfbench {

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

uint32_t Tracer::Intern(const std::string& name) {
  for (uint32_t i = 0; i < names_.size(); ++i) {
    if (names_[i] == name) return i;
  }
  names_.push_back(name);
  return static_cast<uint32_t>(names_.size() - 1);
}

int64_t Tracer::Record(uint32_t name, int64_t parent, uint64_t request,
                       int64_t start_ns, int64_t end_ns) {
  spans_.push_back(Span{name, parent, request, start_ns, end_ns});
  return static_cast<int64_t>(spans_.size() - 1);
}

int64_t Tracer::Open(uint32_t name, int64_t parent, uint64_t request) {
  const int64_t now = NowNs();
  return Record(name, parent, request, now, now);
}

void Tracer::Close(int64_t span) { spans_[span].end_ns = NowNs(); }

std::map<std::string, Tracer::LayerTime> Tracer::Layers() const {
  std::vector<int64_t> covered(spans_.size(), 0);
  for (const Span& s : spans_) {
    if (s.parent < 0) continue;
    const Span& p = spans_[s.parent];
    const int64_t lo = std::max(s.start_ns, p.start_ns);
    const int64_t hi = std::min(s.end_ns, p.end_ns);
    if (hi > lo) covered[s.parent] += hi - lo;
  }
  std::map<std::string, LayerTime> layers;
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    LayerTime& layer = layers[names_[s.name]];
    const int64_t duration = s.end_ns - s.start_ns;
    layer.total_ns += duration;
    layer.self_ns += std::max<int64_t>(0, duration - covered[i]);
    ++layer.count;
  }
  return layers;
}

mube::Status Tracer::WriteCsv(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return mube::Status::Internal("cannot write " + path);
  std::fprintf(f, "name,start_ns,end_ns,parent,request\n");
  for (const Span& s : spans_) {
    std::fprintf(f, "%s,%lld,%lld,%lld,%llu\n", names_[s.name].c_str(),
                 static_cast<long long>(s.start_ns),
                 static_cast<long long>(s.end_ns),
                 static_cast<long long>(s.parent),
                 static_cast<unsigned long long>(s.request));
  }
  const bool ok = std::fclose(f) == 0;
  return ok ? mube::Status::OK() : mube::Status::Internal("close " + path);
}

CountingSimilaritySource::CountingSimilaritySource(
    const mube::SimilaritySource& inner, const SpanContext* context)
    : inner_(inner), context_(context), seen_(inner.attribute_count(), 0) {
  if (context_ != nullptr && context_->tracer != nullptr) {
    match_name_ = context_->tracer->Intern("match");
  }
}

void CountingSimilaritySource::EndOfCall() const {
  if (open_start_ns_ >= 0) last_call_end_ns_ = NowNs();
}

double CountingSimilaritySource::At(size_t i, size_t j) const {
  at_reads_.fetch_add(1, std::memory_order_relaxed);
  const double value = inner_.At(i, j);
  EndOfCall();
  return value;
}

size_t CountingSimilaritySource::attribute_count() const {
  return inner_.attribute_count();
}

double CountingSimilaritySource::MaxSimilarityOf(size_t i) const {
  return inner_.MaxSimilarityOf(i);
}

void CountingSimilaritySource::ForEachNeighborAtLeast(
    size_t i, double theta, const NeighborFn& fn) const {
  neighbor_calls_.fetch_add(1, std::memory_order_relaxed);
  if (open_start_ns_ >= 0 && i < seen_.size() && seen_[i] != generation_) {
    seen_[i] = generation_;
    ++open_attrs_;
  }
  uint64_t visits = 0;
  inner_.ForEachNeighborAtLeast(i, theta, [&](size_t j, float similarity) {
    ++visits;
    fn(j, similarity);
  });
  neighbor_visits_.fetch_add(visits, std::memory_order_relaxed);
  EndOfCall();
}

double CountingSimilaritySource::neighbor_floor() const {
  // Start of a Match(S): close the previous match span, open the next.
  Flush();
  const int64_t now = NowNs();
  open_start_ns_ = now;
  last_call_end_ns_ = now;
  if (context_ != nullptr) {
    open_parent_ = context_->parent;
    open_request_ = context_->request;
  }
  if (++generation_ == 0) {  // wrapped: reset stamps
    std::fill(seen_.begin(), seen_.end(), 0);
    generation_ = 1;
  }
  open_attrs_ = 0;
  const double floor = inner_.neighbor_floor();
  EndOfCall();
  return floor;
}

void CountingSimilaritySource::Flush() const {
  if (open_start_ns_ < 0) return;
  if (context_ != nullptr && context_->tracer != nullptr) {
    context_->tracer->Record(match_name_, open_parent_, open_request_,
                             open_start_ns_, last_call_end_ns_);
  }
  ++matches_;
  match_attrs_ += open_attrs_;
  match_attrs_sq_ +=
      static_cast<double>(open_attrs_) * static_cast<double>(open_attrs_);
  open_start_ns_ = -1;
}

CountingSimilaritySource::Counts CountingSimilaritySource::counts() const {
  Counts c;
  c.neighbor_calls = neighbor_calls_.load(std::memory_order_relaxed);
  c.neighbor_visits = neighbor_visits_.load(std::memory_order_relaxed);
  c.at_reads = at_reads_.load(std::memory_order_relaxed);
  c.matches = matches_;
  c.match_attrs = match_attrs_;
  c.match_attrs_sq = match_attrs_sq_;
  return c;
}

void CountingSimilaritySource::Rebuild(const mube::Universe&,
                                       const mube::SimilarityMeasure&,
                                       unsigned) {
  MUBE_CHECK(false && "CountingSimilaritySource is read-only");
}

void CountingSimilaritySource::ApplyChurn(const mube::Universe&,
                                          const mube::SimilarityMeasure&,
                                          const std::vector<uint32_t>&,
                                          unsigned) {
  MUBE_CHECK(false && "CountingSimilaritySource is read-only");
}

std::unique_ptr<mube::SimilaritySource>
CountingSimilaritySource::CloneSource() const {
  return inner_.CloneSource();
}

size_t CountingSimilaritySource::MemoryBytes() const {
  return inner_.MemoryBytes();
}

size_t CountingSimilaritySource::last_measure_calls() const {
  return inner_.last_measure_calls();
}

TimedQef::TimedQef(std::unique_ptr<mube::Qef> inner, std::string label,
                   const SpanContext* context)
    : inner_(std::move(inner)), context_(context) {
  if (context_ != nullptr && context_->tracer != nullptr) {
    span_name_ = context_->tracer->Intern("qef." + label);
  }
}

double TimedQef::Evaluate(const std::vector<uint32_t>& source_ids) const {
  if (context_ == nullptr || context_->tracer == nullptr) {
    return inner_->Evaluate(source_ids);
  }
  const int64_t start = NowNs();
  const double value = inner_->Evaluate(source_ids);
  context_->tracer->Record(span_name_, context_->parent, context_->request,
                           start, NowNs());
  return value;
}

}  // namespace perfbench
