#include "text/similarity.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "schema/universe.h"
#include "text/ngram.h"

namespace mube {

double NGramJaccard::Similarity(std::string_view a, std::string_view b) const {
  if (a.empty() && b.empty()) return 0.0;
  const std::vector<uint64_t> ga = NGramSet(a, n_);
  const std::vector<uint64_t> gb = NGramSet(b, n_);
  if (ga.empty() || gb.empty()) return 0.0;
  const size_t inter = SortedIntersectionSize(ga, gb);
  const size_t uni = ga.size() + gb.size() - inter;
  return static_cast<double>(inter) / static_cast<double>(uni);
}

std::vector<uint64_t> NGramJaccard::PrepareTokens(
    std::string_view text) const {
  return NGramSet(text, n_);
}

double NGramJaccard::SimilarityFromTokens(
    const std::vector<uint64_t>& a, const std::vector<uint64_t>& b) const {
  // Delegation makes the token and count paths bit-identical by
  // construction: both feed the same integers into the same arithmetic.
  return SimilarityFromCounts(SortedIntersectionSize(a, b), a.size(),
                              b.size());
}

double NGramJaccard::SimilarityFromCounts(size_t intersection, size_t size_a,
                                          size_t size_b) const {
  if (size_a == 0 || size_b == 0) return 0.0;
  const size_t uni = size_a + size_b - intersection;
  return static_cast<double>(intersection) / static_cast<double>(uni);
}

double NGramDice::Similarity(std::string_view a, std::string_view b) const {
  if (a.empty() && b.empty()) return 0.0;
  const std::vector<uint64_t> ga = NGramSet(a, n_);
  const std::vector<uint64_t> gb = NGramSet(b, n_);
  if (ga.empty() || gb.empty()) return 0.0;
  const size_t inter = SortedIntersectionSize(ga, gb);
  return 2.0 * static_cast<double>(inter) /
         static_cast<double>(ga.size() + gb.size());
}

std::vector<uint64_t> NGramDice::PrepareTokens(std::string_view text) const {
  return NGramSet(text, n_);
}

double NGramDice::SimilarityFromTokens(const std::vector<uint64_t>& a,
                                       const std::vector<uint64_t>& b) const {
  return SimilarityFromCounts(SortedIntersectionSize(a, b), a.size(),
                              b.size());
}

double NGramDice::SimilarityFromCounts(size_t intersection, size_t size_a,
                                       size_t size_b) const {
  if (size_a == 0 || size_b == 0) return 0.0;
  return 2.0 * static_cast<double>(intersection) /
         static_cast<double>(size_a + size_b);
}

double LevenshteinSimilarity::Similarity(std::string_view a,
                                         std::string_view b) const {
  if (a.empty() && b.empty()) return 0.0;
  if (a == b) return 1.0;
  const size_t n = a.size();
  const size_t m = b.size();
  if (n == 0 || m == 0) return 0.0;
  // Two-row dynamic program.
  std::vector<size_t> prev(m + 1), curr(m + 1);
  for (size_t j = 0; j <= m; ++j) prev[j] = j;
  for (size_t i = 1; i <= n; ++i) {
    curr[0] = i;
    for (size_t j = 1; j <= m; ++j) {
      const size_t cost = (a[i - 1] == b[j - 1]) ? 0 : 1;
      curr[j] = std::min({prev[j] + 1, curr[j - 1] + 1, prev[j - 1] + cost});
    }
    std::swap(prev, curr);
  }
  const double dist = static_cast<double>(prev[m]);
  return 1.0 - dist / static_cast<double>(std::max(n, m));
}

double JaroWinklerSimilarity::Similarity(std::string_view a,
                                         std::string_view b) const {
  if (a.empty() || b.empty()) return 0.0;
  if (a == b) return 1.0;
  const size_t n = a.size();
  const size_t m = b.size();
  const size_t match_window =
      std::max<size_t>(1, std::max(n, m) / 2) - 1;

  std::vector<bool> a_matched(n, false), b_matched(m, false);
  size_t matches = 0;
  for (size_t i = 0; i < n; ++i) {
    const size_t lo = (i > match_window) ? i - match_window : 0;
    const size_t hi = std::min(m, i + match_window + 1);
    for (size_t j = lo; j < hi; ++j) {
      if (!b_matched[j] && a[i] == b[j]) {
        a_matched[i] = true;
        b_matched[j] = true;
        ++matches;
        break;
      }
    }
  }
  if (matches == 0) return 0.0;

  size_t transpositions = 0;
  size_t k = 0;
  for (size_t i = 0; i < n; ++i) {
    if (!a_matched[i]) continue;
    while (!b_matched[k]) ++k;
    if (a[i] != b[k]) ++transpositions;
    ++k;
  }
  const double mm = static_cast<double>(matches);
  const double jaro =
      (mm / n + mm / m + (mm - transpositions / 2.0) / mm) / 3.0;

  // Winkler prefix boost: up to 4 leading characters in common.
  size_t prefix = 0;
  for (size_t i = 0; i < std::min({n, m, size_t{4}}); ++i) {
    if (a[i] != b[i]) break;
    ++prefix;
  }
  return jaro + prefix * prefix_scale_ * (1.0 - jaro);
}

TfIdfCosineSimilarity::TfIdfCosineSimilarity(
    const std::vector<std::string>& corpus)
    : num_documents_(corpus.size()) {
  for (const std::string& doc : corpus) {
    std::vector<std::string> tokens = WordTokens(doc);
    std::sort(tokens.begin(), tokens.end());
    tokens.erase(std::unique(tokens.begin(), tokens.end()), tokens.end());
    for (const std::string& t : tokens) ++document_frequency_[t];
  }
}

std::unique_ptr<TfIdfCosineSimilarity> TfIdfCosineSimilarity::FromUniverse(
    const Universe& universe) {
  std::vector<std::string> corpus;
  for (const Source& s : universe.sources()) {
    for (const Attribute& a : s.attributes()) corpus.push_back(a.normalized);
  }
  return std::make_unique<TfIdfCosineSimilarity>(corpus);
}

double TfIdfCosineSimilarity::Idf(const std::string& token) const {
  auto it = document_frequency_.find(token);
  const double df = (it == document_frequency_.end())
                        ? 1.0
                        : static_cast<double>(it->second);
  return std::log(1.0 + static_cast<double>(num_documents_ + 1) / df);
}

double TfIdfCosineSimilarity::Similarity(std::string_view a,
                                         std::string_view b) const {
  // Sorted (token, tf·idf) vectors joined by merge: every sum below runs
  // in lexicographic token order. Folding a hash map here instead would
  // accumulate doubles in hash order — a function of insertion history —
  // and floating-point addition does not associate, so equal inputs could
  // score different in the last ulp and flip a theta-edge match.
  auto weights = [this](std::string_view text) {
    std::vector<std::string> tokens = WordTokens(text);
    std::sort(tokens.begin(), tokens.end());
    std::vector<std::pair<std::string, double>> w;
    for (size_t i = 0; i < tokens.size();) {
      size_t j = i;
      while (j < tokens.size() && tokens[j] == tokens[i]) ++j;
      w.emplace_back(tokens[i],
                     static_cast<double>(j - i) * Idf(tokens[i]));
      i = j;
    }
    return w;
  };
  const auto wa = weights(a);
  const auto wb = weights(b);
  if (wa.empty() || wb.empty()) return 0.0;
  double dot = 0.0, na = 0.0, nb = 0.0;
  for (size_t i = 0, j = 0; i < wa.size() && j < wb.size();) {
    const int cmp = wa[i].first.compare(wb[j].first);
    if (cmp == 0) {
      dot += wa[i].second * wb[j].second;
      ++i;
      ++j;
    } else if (cmp < 0) {
      ++i;
    } else {
      ++j;
    }
  }
  for (const auto& [token, weight] : wa) na += weight * weight;
  for (const auto& [token, weight] : wb) nb += weight * weight;
  if (na == 0.0 || nb == 0.0) return 0.0;
  return dot / std::sqrt(na * nb);
}

CompositeSimilarity::CompositeSimilarity(
    std::vector<std::unique_ptr<SimilarityMeasure>> measures,
    std::vector<double> weights)
    : measures_(std::move(measures)), weights_(std::move(weights)) {
  double sum = 0.0;
  for (double w : weights_) sum += w;
  for (double& w : weights_) w /= sum;
}

Result<std::unique_ptr<CompositeSimilarity>> CompositeSimilarity::Make(
    std::vector<std::unique_ptr<SimilarityMeasure>> measures,
    std::vector<double> weights) {
  if (measures.empty()) {
    return Status::InvalidArgument("composite measure needs >= 1 member");
  }
  if (measures.size() != weights.size()) {
    return Status::InvalidArgument(
        "composite measure: weight count mismatch");
  }
  for (size_t i = 0; i < measures.size(); ++i) {
    if (measures[i] == nullptr) {
      return Status::InvalidArgument("composite measure: null member");
    }
    if (!(weights[i] > 0.0)) {
      return Status::InvalidArgument(
          "composite measure: weights must be positive");
    }
  }
  return std::make_unique<CompositeSimilarity>(std::move(measures),
                                               std::move(weights));
}

double CompositeSimilarity::Similarity(std::string_view a,
                                       std::string_view b) const {
  double combined = 0.0;
  for (size_t i = 0; i < measures_.size(); ++i) {
    combined += weights_[i] * measures_[i]->Similarity(a, b);
  }
  return combined;
}

std::string CompositeSimilarity::name() const {
  std::string out;
  for (size_t i = 0; i < measures_.size(); ++i) {
    if (i > 0) out += "+";
    out += measures_[i]->name();
  }
  return out;
}

Result<std::unique_ptr<SimilarityMeasure>> MakeSimilarityMeasure(
    const std::string& name) {
  if (name.find('+') != std::string::npos) {
    std::vector<std::unique_ptr<SimilarityMeasure>> members;
    std::vector<double> weights;
    size_t start = 0;
    while (start <= name.size()) {
      const size_t plus = name.find('+', start);
      const std::string part =
          name.substr(start, plus == std::string::npos ? std::string::npos
                                                       : plus - start);
      MUBE_ASSIGN_OR_RETURN(std::unique_ptr<SimilarityMeasure> member,
                            MakeSimilarityMeasure(part));
      members.push_back(std::move(member));
      weights.push_back(1.0);
      if (plus == std::string::npos) break;
      start = plus + 1;
    }
    MUBE_ASSIGN_OR_RETURN(
        std::unique_ptr<CompositeSimilarity> composite,
        CompositeSimilarity::Make(std::move(members), std::move(weights)));
    return std::unique_ptr<SimilarityMeasure>(std::move(composite));
  }
  if (name == "jaccard3") {
    return std::unique_ptr<SimilarityMeasure>(new NGramJaccard(3));
  }
  if (name == "jaccard2") {
    return std::unique_ptr<SimilarityMeasure>(new NGramJaccard(2));
  }
  if (name == "dice3") {
    return std::unique_ptr<SimilarityMeasure>(new NGramDice(3));
  }
  if (name == "levenshtein") {
    return std::unique_ptr<SimilarityMeasure>(new LevenshteinSimilarity());
  }
  if (name == "jaro_winkler") {
    return std::unique_ptr<SimilarityMeasure>(new JaroWinklerSimilarity());
  }
  if (name == "tfidf_cosine") {
    return Status::InvalidArgument(
        "tfidf_cosine needs a corpus; build it with "
        "TfIdfCosineSimilarity::FromUniverse");
  }
  return Status::NotFound("unknown similarity measure: " + name);
}

}  // namespace mube
