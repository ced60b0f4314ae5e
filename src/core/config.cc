#include "core/config.h"

#include <cmath>

namespace mube {

std::string QefSpec::DisplayName() const {
  switch (kind) {
    case Kind::kMatching:
      return "matching";
    case Kind::kCardinality:
      return "cardinality";
    case Kind::kCoverage:
      return "coverage";
    case Kind::kRedundancy:
      return invert ? "redundancy:inverted" : "redundancy";
    case Kind::kCharacteristic:
      return characteristic + ":" + aggregator + (invert ? ":inverted" : "");
  }
  return "?";
}

MubeConfig MubeConfig::PaperDefaults() {
  MubeConfig config;
  config.qefs = {
      {QefSpec::Kind::kMatching, 0.25, "", "", false},
      {QefSpec::Kind::kCardinality, 0.25, "", "", false},
      {QefSpec::Kind::kCoverage, 0.20, "", "", false},
      {QefSpec::Kind::kRedundancy, 0.15, "", "", false},
      {QefSpec::Kind::kCharacteristic, 0.15, "mttf", "wsum", false},
  };
  return config;
}

Status MubeConfig::Validate() const {
  if (qefs.empty()) {
    return Status::InvalidArgument("MubeConfig: no QEFs configured");
  }
  bool has_matching = false;
  double sum = 0.0;
  for (const QefSpec& spec : qefs) {
    if (!(spec.weight >= 0.0 && spec.weight <= 1.0)) {  // rejects NaN too
      return Status::InvalidArgument("MubeConfig: QEF weight out of [0,1]");
    }
    sum += spec.weight;
    if (spec.kind == QefSpec::Kind::kMatching) has_matching = true;
    if (spec.kind == QefSpec::Kind::kCharacteristic &&
        spec.characteristic.empty()) {
      return Status::InvalidArgument(
          "MubeConfig: characteristic QEF without a characteristic name");
    }
  }
  if (!(std::abs(sum - 1.0) <= 1e-9)) {
    return Status::InvalidArgument("MubeConfig: QEF weights sum to " +
                                   std::to_string(sum) + ", expected 1");
  }
  if (!has_matching) {
    return Status::InvalidArgument(
        "MubeConfig: a matching QEF is required (it produces the mediated "
        "schema)");
  }
  if (!(theta >= 0.0 && theta <= 1.0)) {
    return Status::InvalidArgument("MubeConfig: theta must be in [0,1]");
  }
  if (max_sources == 0) {
    return Status::InvalidArgument("MubeConfig: max_sources must be >= 1");
  }
  if (!(sparse_options.index_theta > 0.0 &&
        sparse_options.index_theta <= 1.0)) {
    return Status::InvalidArgument(
        "MubeConfig: sparse_options.index_theta must be in (0,1]");
  }
  if (sparse_options.minhash_bands == 0 || sparse_options.band_rows == 0) {
    return Status::InvalidArgument(
        "MubeConfig: sparse_options.minhash_bands and band_rows must be >= 1");
  }
  return pcsa.Validate();
}

std::vector<double> MubeConfig::Weights() const {
  std::vector<double> weights;
  weights.reserve(qefs.size());
  for (const QefSpec& spec : qefs) weights.push_back(spec.weight);
  return weights;
}

}  // namespace mube
