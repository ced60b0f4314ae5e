#include "text/sparse_similarity.h"

#include <algorithm>
#include <utility>

#include "common/hash.h"
#include "common/logging.h"
#include "common/threading.h"
#include "schema/universe.h"
#include "text/ngram.h"

namespace mube {

namespace {

/// Cross-source pairs among the attributes with `keep[i]` set, each once:
/// K·(K−1)/2 minus the same-source pairs.
uint64_t ComparablePairCount(const std::vector<uint32_t>& source_of,
                             const std::vector<char>& keep) {
  std::vector<uint64_t> per_source;
  uint64_t total = 0;
  for (size_t i = 0; i < source_of.size(); ++i) {
    if (!keep[i]) continue;
    if (source_of[i] >= per_source.size()) {
      per_source.resize(source_of[i] + 1, 0);
    }
    ++per_source[source_of[i]];
    ++total;
  }
  uint64_t same = 0;
  for (uint64_t c : per_source) same += c * (c - (c > 0 ? 1 : 0)) / 2;
  return total * (total - (total > 0 ? 1 : 0)) / 2 - same;
}

}  // namespace

SparseSimilarityIndex::SparseSimilarityIndex(const Universe& universe,
                                             const SimilarityMeasure& measure,
                                             SparseIndexOptions options,
                                             unsigned threads)
    : options_(options) {
  MUBE_CHECK(options_.minhash_bands >= 1 && options_.band_rows >= 1);
  MUBE_CHECK(options_.index_theta > 0.0);
  Rebuild(universe, measure, threads);
}

double SparseSimilarityIndex::ExactPair(size_t i, size_t j) const {
  if (i > j) std::swap(i, j);  // canonical order: one float per pair
  const std::vector<uint64_t>& a = tokens_[i];
  const std::vector<uint64_t>& b = tokens_[j];
  const double sim =
      use_counts_ ? measure_->SimilarityFromCounts(
                        SortedIntersectionSize(a, b), a.size(), b.size())
                  : measure_->SimilarityFromTokens(a, b);
  // The same float promotion a dense cell goes through, so stored scores,
  // fallback scores, and SimilarityMatrix entries are bit-identical.
  return static_cast<double>(static_cast<float>(sim));
}

double SparseSimilarityIndex::At(size_t i, size_t j) const {
  if (i == j) return 0.0;
  if (source_of_[i] == source_of_[j]) return 0.0;
  if (!live_[i] || !live_[j]) return 0.0;
  const uint32_t target = static_cast<uint32_t>(j);
  const auto begin = nbr_attr_.begin() + row_offsets_[i];
  const auto end = nbr_attr_.begin() + row_offsets_[i + 1];
  const auto it = std::lower_bound(begin, end, target);
  if (it != end && *it == target) {
    return nbr_sim_[static_cast<size_t>(it - nbr_attr_.begin())];
  }
  return ExactPair(i, j);
}

void SparseSimilarityIndex::ForEachNeighborAtLeast(
    size_t i, double theta, const NeighborFn& fn) const {
  const size_t begin = row_offsets_[i];
  const size_t end = row_offsets_[i + 1];
  for (size_t k = begin; k < end; ++k) {
    const float sim = nbr_sim_[k];
    if (static_cast<double>(sim) >= theta) fn(nbr_attr_[k], sim);
  }
}

size_t SparseSimilarityIndex::MemoryBytes() const {
  size_t bytes = gram_keys_.capacity() * sizeof(uint64_t) +
                 gram_offsets_.capacity() * sizeof(uint32_t) +
                 gram_attrs_.capacity() * sizeof(uint32_t) +
                 band_keys_.capacity() * sizeof(uint64_t) +
                 bucket_keys_.capacity() * sizeof(uint64_t) +
                 bucket_offsets_.capacity() * sizeof(uint32_t) +
                 bucket_attrs_.capacity() * sizeof(uint32_t) +
                 row_offsets_.capacity() * sizeof(size_t) +
                 nbr_attr_.capacity() * sizeof(uint32_t) +
                 nbr_sim_.capacity() * sizeof(float) +
                 row_max_.capacity() * sizeof(float) +
                 source_of_.capacity() * sizeof(uint32_t) +
                 live_.capacity() * sizeof(char);
  bytes += tokens_.capacity() * sizeof(std::vector<uint64_t>);
  for (const std::vector<uint64_t>& t : tokens_) {
    bytes += t.capacity() * sizeof(uint64_t);
  }
  return bytes;
}

void SparseSimilarityIndex::RefreshAttributes(
    const Universe& universe, const SimilarityMeasure& measure,
    const std::vector<char>& refresh) {
  // Source ids and liveness are re-resolved for every attribute — cheap,
  // and a retired source must be reflected everywhere even though only its
  // own rows are re-verified.
  for (size_t i = 0; i < n_; ++i) {
    const AttributeRef ref = universe.RefFromGlobalIndex(i);
    source_of_[i] = ref.source_id;
    live_[i] = universe.alive(ref.source_id) ? 1 : 0;
  }

  const size_t bands = options_.minhash_bands;
  const size_t rows = options_.band_rows;
  const HashFamily family(bands * rows, options_.seed);
  std::vector<uint64_t> minvals(bands * rows);
  for (size_t i = 0; i < n_; ++i) {
    if (!refresh[i]) continue;
    if (live_[i]) {
      tokens_[i] =
          measure.PrepareTokens(universe.attribute(universe.RefFromGlobalIndex(i)).normalized);
    } else {
      tokens_[i].clear();
      tokens_[i].shrink_to_fit();
    }
    uint64_t* keys = band_keys_.data() + i * bands;
    if (tokens_[i].empty()) {
      std::fill(keys, keys + bands, kNoBandKey);
      continue;
    }
    std::fill(minvals.begin(), minvals.end(), ~0ULL);
    for (uint64_t gram : tokens_[i]) {
      for (size_t k = 0; k < minvals.size(); ++k) {
        minvals[k] = std::min(minvals[k], family.Hash(k, gram));
      }
    }
    for (size_t b = 0; b < bands; ++b) {
      // Salting with the band id keeps bands in disjoint key spaces, so
      // one bucket CSR can hold all bands without cross-band collisions.
      uint64_t h = Mix64(options_.seed ^ (b + 1));
      for (size_t r = 0; r < rows; ++r) {
        h = HashCombine(h, minvals[b * rows + r]);
      }
      keys[b] = (h == kNoBandKey) ? h - 1 : h;
    }
  }

  BuildPostings();
  BuildBuckets();
}

void SparseSimilarityIndex::BuildPostings() {
  std::vector<std::pair<uint64_t, uint32_t>> pairs;
  size_t total = 0;
  for (size_t i = 0; i < n_; ++i) {
    if (live_[i]) total += tokens_[i].size();
  }
  pairs.reserve(total);
  for (size_t i = 0; i < n_; ++i) {
    if (!live_[i]) continue;
    for (uint64_t gram : tokens_[i]) {
      pairs.emplace_back(gram, static_cast<uint32_t>(i));
    }
  }
  std::sort(pairs.begin(), pairs.end());

  gram_keys_.clear();
  gram_offsets_.clear();
  gram_attrs_.clear();
  gram_attrs_.reserve(pairs.size());
  for (size_t k = 0; k < pairs.size(); ++k) {
    if (k == 0 || pairs[k].first != pairs[k - 1].first) {
      gram_keys_.push_back(pairs[k].first);
      gram_offsets_.push_back(static_cast<uint32_t>(k));
    }
    gram_attrs_.push_back(pairs[k].second);
  }
  gram_offsets_.push_back(static_cast<uint32_t>(pairs.size()));
}

void SparseSimilarityIndex::BuildBuckets() {
  const size_t bands = options_.minhash_bands;
  std::vector<std::pair<uint64_t, uint32_t>> pairs;
  pairs.reserve(n_ * bands / 2);
  for (size_t i = 0; i < n_; ++i) {
    if (!live_[i]) continue;
    for (size_t b = 0; b < bands; ++b) {
      const uint64_t key = band_keys_[i * bands + b];
      if (key == kNoBandKey) continue;
      pairs.emplace_back(key, static_cast<uint32_t>(i));
    }
  }
  std::sort(pairs.begin(), pairs.end());

  bucket_keys_.clear();
  bucket_offsets_.clear();
  bucket_attrs_.clear();
  bucket_attrs_.reserve(pairs.size());
  for (size_t k = 0; k < pairs.size(); ++k) {
    if (k == 0 || pairs[k].first != pairs[k - 1].first) {
      bucket_keys_.push_back(pairs[k].first);
      bucket_offsets_.push_back(static_cast<uint32_t>(k));
    }
    bucket_attrs_.push_back(pairs[k].second);
  }
  bucket_offsets_.push_back(static_cast<uint32_t>(pairs.size()));
}

void SparseSimilarityIndex::GenerateCandidates(
    size_t i, bool only_greater, std::vector<uint32_t>& stamps,
    uint32_t stamp, std::vector<uint32_t>& out) const {
  const uint32_t me = static_cast<uint32_t>(i);
  const uint32_t my_source = source_of_[i];
  auto scan = [&](const uint32_t* begin, const uint32_t* end) {
    if (only_greater) {
      begin = std::upper_bound(begin, end, me);
    }
    for (const uint32_t* p = begin; p != end; ++p) {
      const uint32_t j = *p;
      if (j == me) continue;
      if (stamps[j] == stamp) continue;
      stamps[j] = stamp;
      if (source_of_[j] == my_source) continue;
      out.push_back(j);
    }
  };

  for (uint64_t gram : tokens_[i]) {
    const auto it =
        std::lower_bound(gram_keys_.begin(), gram_keys_.end(), gram);
    if (it == gram_keys_.end() || *it != gram) continue;
    const size_t k = static_cast<size_t>(it - gram_keys_.begin());
    const uint32_t off = gram_offsets_[k];
    const uint32_t df = gram_offsets_[k + 1] - off;
    if (df > options_.max_gram_df) continue;  // stop-gram: LSH's job
    scan(gram_attrs_.data() + off, gram_attrs_.data() + off + df);
  }

  const size_t bands = options_.minhash_bands;
  for (size_t b = 0; b < bands; ++b) {
    const uint64_t key = band_keys_[i * bands + b];
    if (key == kNoBandKey) continue;
    const auto it =
        std::lower_bound(bucket_keys_.begin(), bucket_keys_.end(), key);
    if (it == bucket_keys_.end() || *it != key) continue;
    const size_t k = static_cast<size_t>(it - bucket_keys_.begin());
    const uint32_t off = bucket_offsets_[k];
    const uint32_t size = bucket_offsets_[k + 1] - off;
    if (size > options_.max_band_bucket) continue;  // degenerate band
    scan(bucket_attrs_.data() + off, bucket_attrs_.data() + off + size);
  }
}

std::vector<SparseSimilarityIndex::RowEntry> SparseSimilarityIndex::VerifyRow(
    size_t i, bool only_greater, const std::vector<char>& recompute,
    std::vector<uint32_t>& stamps, uint32_t& stamp_counter,
    std::vector<uint32_t>& cand_scratch, uint64_t& candidate_count,
    uint64_t& measure_calls) const {
  std::vector<RowEntry> out;
  if (!live_[i] || tokens_[i].empty()) return out;
  cand_scratch.clear();
  GenerateCandidates(i, only_greater, stamps, ++stamp_counter, cand_scratch);
  for (uint32_t j : cand_scratch) {
    // A pair with both rows being re-verified is scored once, by the
    // smaller-indexed row; the other row gets it mirrored back.
    if (j < i && recompute[j]) continue;
    ++candidate_count;
    const double sim = ExactPair(i, j);
    ++measure_calls;
    const float stored = static_cast<float>(sim);
    if (static_cast<double>(stored) >= options_.index_theta) {
      out.push_back(RowEntry{j, stored});
    }
  }
  std::sort(out.begin(), out.end(),
            [](const RowEntry& a, const RowEntry& b) {
              return a.attr < b.attr;
            });
  return out;
}

void SparseSimilarityIndex::AssembleRows(
    const std::vector<std::vector<RowEntry>>& rows) {
  row_offsets_.assign(n_ + 1, 0);
  size_t total = 0;
  for (size_t i = 0; i < n_; ++i) {
    row_offsets_[i] = total;
    total += rows[i].size();
  }
  row_offsets_[n_] = total;

  nbr_attr_.clear();
  nbr_sim_.clear();
  nbr_attr_.reserve(total);
  nbr_sim_.reserve(total);
  row_max_.assign(n_, 0.0f);
  for (size_t i = 0; i < n_; ++i) {
    float mx = 0.0f;
    for (const RowEntry& e : rows[i]) {
      nbr_attr_.push_back(e.attr);
      nbr_sim_.push_back(e.sim);
      mx = std::max(mx, e.sim);
    }
    row_max_[i] = mx;
  }
  stats_.stored_pairs = total / 2;
}

void SparseSimilarityIndex::Rebuild(const Universe& universe,
                                    const SimilarityMeasure& measure,
                                    unsigned threads) {
  // The churn splice over an empty index: every attribute is appended, so
  // every row is dirty (as SimilarityMatrix::Rebuild is Recompute with
  // every attribute dirty).
  SparseSimilarityIndex empty;
  empty.options_ = options_;
  *this = std::move(empty);
  ApplyChurn(universe, measure, /*dirty_sources=*/{}, threads);
}

void SparseSimilarityIndex::ApplyChurn(
    const Universe& universe, const SimilarityMeasure& measure,
    const std::vector<uint32_t>& dirty_sources, unsigned threads) {
  MUBE_CHECK(measure.SupportsPreparedTokens());
  measure_ = &measure;
  use_counts_ = measure.SupportsSetCounts();

  const size_t old_n = n_;
  n_ = universe.total_attribute_count();

  // Snapshot the old pruning state before the structures are rebuilt: a
  // gram's df or a bucket's size crossing its cap flips candidate coverage
  // for *clean* pairs, whose rows must then be re-verified too.
  const std::vector<uint64_t> old_gram_keys = std::move(gram_keys_);
  std::vector<uint32_t> old_gram_df(old_gram_keys.size());
  for (size_t k = 0; k < old_gram_keys.size(); ++k) {
    old_gram_df[k] = gram_offsets_[k + 1] - gram_offsets_[k];
  }
  const std::vector<uint64_t> old_bucket_keys = std::move(bucket_keys_);
  std::vector<uint32_t> old_bucket_size(old_bucket_keys.size());
  for (size_t k = 0; k < old_bucket_keys.size(); ++k) {
    old_bucket_size[k] = bucket_offsets_[k + 1] - bucket_offsets_[k];
  }

  source_of_.resize(n_, 0);
  live_.resize(n_, 0);
  tokens_.resize(n_);
  band_keys_.resize(n_ * options_.minhash_bands, kNoBandKey);

  std::vector<char> dirty(n_, 0);
  for (size_t i = old_n; i < n_; ++i) dirty[i] = 1;  // appended attributes
  for (uint32_t sid : dirty_sources) {
    const Source& s = universe.source(sid);
    for (uint32_t a = 0; a < s.attribute_count(); ++a) {
      dirty[universe.GlobalAttrIndex(AttributeRef(sid, a))] = 1;
    }
  }
  RefreshAttributes(universe, measure, dirty);

  // Coverage flips. Grams/buckets that exist only in the old structures
  // need no scan: every attribute that held them changed (clean
  // attributes keep their grams and band keys), so those rows are dirty
  // already.
  std::vector<char> recompute = dirty;
  auto old_count = [](const std::vector<uint64_t>& keys,
                      const std::vector<uint32_t>& counts, uint64_t key) {
    const auto it = std::lower_bound(keys.begin(), keys.end(), key);
    if (it == keys.end() || *it != key) return uint32_t{0};
    return counts[static_cast<size_t>(it - keys.begin())];
  };
  for (size_t k = 0; k < gram_keys_.size(); ++k) {
    const uint32_t new_df = gram_offsets_[k + 1] - gram_offsets_[k];
    const uint32_t prev_df =
        old_count(old_gram_keys, old_gram_df, gram_keys_[k]);
    if ((prev_df > options_.max_gram_df) != (new_df > options_.max_gram_df)) {
      for (uint32_t o = gram_offsets_[k]; o < gram_offsets_[k + 1]; ++o) {
        recompute[gram_attrs_[o]] = 1;
      }
    }
  }
  for (size_t k = 0; k < bucket_keys_.size(); ++k) {
    const uint32_t new_size = bucket_offsets_[k + 1] - bucket_offsets_[k];
    const uint32_t prev_size =
        old_count(old_bucket_keys, old_bucket_size, bucket_keys_[k]);
    if ((prev_size > options_.max_band_bucket) !=
        (new_size > options_.max_band_bucket)) {
      for (uint32_t o = bucket_offsets_[k]; o < bucket_offsets_[k + 1]; ++o) {
        recompute[bucket_attrs_[o]] = 1;
      }
    }
  }

  std::vector<size_t> recompute_rows;
  for (size_t i = 0; i < n_; ++i) {
    if (recompute[i]) recompute_rows.push_back(i);
  }
  // With every row re-verified, each pair is scored by its smaller row, so
  // the candidate scan can skip partners below i outright.
  const bool only_greater = recompute_rows.size() == n_;

  threads = ResolveThreadCount(threads);
  threads = std::min<unsigned>(
      threads,
      static_cast<unsigned>(std::max<size_t>(1, recompute_rows.size())));

  // Worker t verifies rows t, t+T, ... into disjoint slots; per-worker
  // tallies merge in fixed order afterwards, so the result is bit-identical
  // at any thread count (each row's computation is self-contained).
  std::vector<std::vector<RowEntry>> rows(n_);
  std::vector<uint64_t> worker_candidates(threads, 0);
  std::vector<uint64_t> worker_calls(threads, 0);
  {
    ThreadPool pool(threads);
    pool.ParallelFor(threads, [&](size_t t) {
      std::vector<uint32_t> stamps(n_, 0);
      uint32_t stamp_counter = 0;
      std::vector<uint32_t> cand;
      for (size_t r = t; r < recompute_rows.size(); r += threads) {
        const size_t i = recompute_rows[r];
        rows[i] = VerifyRow(i, only_greater, recompute, stamps, stamp_counter,
                            cand, worker_candidates[t], worker_calls[t]);
      }
    });
  }

  // Clean rows keep their entries toward other clean attributes; entries
  // toward re-verified attributes are replaced by mirrors below.
  for (size_t i = 0; i < old_n; ++i) {
    if (recompute[i]) continue;
    const size_t begin = row_offsets_[i];
    const size_t end = row_offsets_[i + 1];
    rows[i].reserve(end - begin);
    for (size_t k = begin; k < end; ++k) {
      if (!recompute[nbr_attr_[k]]) {
        rows[i].push_back(RowEntry{nbr_attr_[k], nbr_sim_[k]});
      }
    }
  }

  // Mirror the re-verified entries into their partners' rows: clean
  // partners gain/replace their edge toward the recomputed attribute; a
  // both-recomputed pair, scored by its smaller row, is restored in the
  // larger. Every row is then two ascending runs — its own entries, then
  // mirrors in ascending partner order — so one merge sorts it.
  std::vector<size_t> own_len(n_);
  std::vector<size_t> mirrors(n_, 0);
  for (size_t i = 0; i < n_; ++i) own_len[i] = rows[i].size();
  for (size_t i : recompute_rows) {
    for (const RowEntry& e : rows[i]) ++mirrors[e.attr];
  }
  for (size_t i = 0; i < n_; ++i) rows[i].reserve(own_len[i] + mirrors[i]);
  for (size_t i : recompute_rows) {
    for (size_t k = 0; k < own_len[i]; ++k) {
      const RowEntry& e = rows[i][k];
      rows[e.attr].push_back(RowEntry{static_cast<uint32_t>(i), e.sim});
    }
  }
  for (size_t i = 0; i < n_; ++i) {
    std::inplace_merge(rows[i].begin(), rows[i].begin() + own_len[i],
                       rows[i].end(),
                       [](const RowEntry& a, const RowEntry& b) {
                         return a.attr < b.attr;
                       });
  }
  AssembleRows(rows);

  last_measure_calls_ = 0;
  stats_.candidate_pairs = 0;
  for (unsigned t = 0; t < threads; ++t) {
    stats_.candidate_pairs += worker_candidates[t];
    last_measure_calls_ += worker_calls[t];
  }
  // Comparable pairs with at least one re-verified endpoint, each once.
  std::vector<char> live_clean(n_, 0);
  for (size_t i = 0; i < n_; ++i) live_clean[i] = live_[i] && !recompute[i];
  const uint64_t possible = ComparablePairCount(source_of_, live_) -
                            ComparablePairCount(source_of_, live_clean);
  stats_.pruned_pairs = possible - stats_.candidate_pairs;
}

}  // namespace mube
