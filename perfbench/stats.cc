#include "stats.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <numeric>

namespace perfbench {

double Median(std::vector<double> samples) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const size_t n = samples.size();
  return n % 2 == 1 ? samples[n / 2]
                    : 0.5 * (samples[n / 2 - 1] + samples[n / 2]);
}

double Mean(const std::vector<double>& samples) {
  if (samples.empty()) return 0.0;
  return std::accumulate(samples.begin(), samples.end(), 0.0) /
         static_cast<double>(samples.size());
}

Tail TailPercentile(std::vector<double> samples, size_t min_beyond) {
  Tail tail;
  tail.samples = samples.size();
  if (samples.size() < min_beyond + 1) return tail;
  std::sort(samples.begin(), samples.end());
  const size_t rank = samples.size() - min_beyond;  // 1-based
  tail.supported = true;
  tail.value = samples[rank - 1];
  tail.percentile = 100.0 * static_cast<double>(rank) /
                    static_cast<double>(samples.size());
  tail.beyond = min_beyond;
  return tail;
}

bool ValidMetricName(std::string_view name) {
  if (name.empty() || name.size() > 64) return false;
  auto alnum = [](char c) {
    return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
           (c >= '0' && c <= '9');
  };
  if (!alnum(name.front())) return false;
  return std::all_of(name.begin(), name.end(), [&](char c) {
    return alnum(c) || c == '_' || c == '.' || c == '-';
  });
}

bool MetricSet::Add(const std::string& name, double value,
                    const std::string& unit) {
  if (!ValidMetricName(name) || Find(name) != nullptr) return false;
  metrics_.push_back(Metric{name, value, unit});
  return true;
}

const MetricSet::Metric* MetricSet::Find(std::string_view name) const {
  for (const Metric& m : metrics_) {
    if (m.name == name) return &m;
  }
  return nullptr;
}

std::string MetricSet::ToJson() const {
  std::string out = "{";
  char buf[64];
  for (size_t i = 0; i < metrics_.size(); ++i) {
    const Metric& m = metrics_[i];
    // Non-finite values have no JSON spelling; they are reported as 0 and
    // the workload's checks flag whatever produced them.
    const double v = std::isfinite(m.value) ? m.value : 0.0;
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    if (i > 0) out += ", ";
    out += "\"" + m.name + "\": {\"value\": " + buf + ", \"unit\": \"" +
           m.unit + "\"}";
  }
  return out + "}";
}

void Digest::Add(std::string_view bytes) {
  for (unsigned char c : bytes) {
    state_ ^= c;
    state_ *= 0x100000001b3ULL;
  }
}

void Digest::Add(uint64_t value) {
  for (int i = 0; i < 8; ++i) {
    state_ ^= (value >> (8 * i)) & 0xff;
    state_ *= 0x100000001b3ULL;
  }
}

std::string Digest::Hex() const {
  char buf[20];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(state_));
  return buf;
}

}  // namespace perfbench
