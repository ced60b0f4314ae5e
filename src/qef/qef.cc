#include "qef/qef.h"

#include <cmath>

#include "common/logging.h"

namespace mube {

Status QefSet::Add(std::unique_ptr<Qef> qef, double weight) {
  if (qef == nullptr) {
    return Status::InvalidArgument("QefSet::Add: null QEF");
  }
  if (!(weight >= 0.0 && weight <= 1.0)) {  // rejects NaN too
    return Status::InvalidArgument("QEF weight must be in [0, 1], got " +
                                   std::to_string(weight));
  }
  qefs_.push_back(std::move(qef));
  weights_.push_back(weight);
  return Status::OK();
}

Status QefSet::SetWeights(const std::vector<double>& weights) {
  if (weights.size() != qefs_.size()) {
    return Status::InvalidArgument(
        "weight count " + std::to_string(weights.size()) +
        " does not match QEF count " + std::to_string(qefs_.size()));
  }
  for (double w : weights) {
    if (!(w >= 0.0 && w <= 1.0)) {
      return Status::InvalidArgument("QEF weight must be in [0, 1], got " +
                                     std::to_string(w));
    }
  }
  weights_ = weights;
  return Status::OK();
}

Status QefSet::NormalizeWeights() {
  double sum = 0.0;
  for (double w : weights_) sum += w;
  if (sum <= 0.0) {
    return Status::FailedPrecondition("cannot normalize all-zero weights");
  }
  for (double& w : weights_) w /= sum;
  return Status::OK();
}

Status QefSet::ValidateWeights() const {
  double sum = 0.0;
  for (double w : weights_) {
    if (!(w >= 0.0 && w <= 1.0)) {
      return Status::InvalidArgument("QEF weight out of [0, 1]: " +
                                     std::to_string(w));
    }
    sum += w;
  }
  if (!(std::abs(sum - 1.0) <= 1e-9)) {
    return Status::InvalidArgument("QEF weights sum to " +
                                   std::to_string(sum) + ", expected 1");
  }
  return Status::OK();
}

double QefSet::OverallQuality(
    const std::vector<uint32_t>& source_ids) const {
  MUBE_CHECK(!qefs_.empty());
  double q = 0.0;
  for (size_t i = 0; i < qefs_.size(); ++i) {
    if (weights_[i] == 0.0) continue;  // don't pay for zero-weight QEFs
    q += weights_[i] * qefs_[i]->Evaluate(source_ids);
  }
  return q;
}

std::vector<double> QefSet::EvaluateAll(
    const std::vector<uint32_t>& source_ids) const {
  std::vector<double> values;
  values.reserve(qefs_.size());
  for (const auto& qef : qefs_) values.push_back(qef->Evaluate(source_ids));
  return values;
}

std::vector<double> QefSet::EvaluateAll(const std::vector<uint32_t>& source_ids,
                                        ThreadPool* pool) const {
  if (pool == nullptr || pool->thread_count() <= 1 || qefs_.size() <= 1) {
    return EvaluateAll(source_ids);
  }
  std::vector<double> values(qefs_.size(), 0.0);
  pool->ParallelFor(qefs_.size(), [&](size_t i) {
    values[i] = qefs_[i]->Evaluate(source_ids);
  });
  return values;
}

int64_t QefSet::FindByName(const std::string& name) const {
  for (size_t i = 0; i < qefs_.size(); ++i) {
    if (qefs_[i]->name() == name) return static_cast<int64_t>(i);
  }
  return -1;
}

}  // namespace mube
