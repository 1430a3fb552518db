#include "generation/generator.h"

#include <algorithm>
#include <array>
#include <unordered_map>
#include <utility>

#include "template/record_template.h"
#include "util/common.h"
#include "util/hashing.h"
#include "util/logging.h"
#include "util/thread_pool.h"

namespace datamaran {

namespace {

/// Hash-bin payload for one (minimal structure template) key.
///
/// Coverage counts *greedily non-overlapping* occurrences only: the O(nL)
/// boundary enumeration visits every window, but windows of a self-similar
/// template overlap (e.g. a stack of k identical lines matches at every
/// offset), which would overestimate the paper's "total length of the
/// instantiated records" by up to the span factor. Occurrences arrive in
/// increasing line order, so skipping windows that overlap the previously
/// counted one yields the unbiased greedy estimate in O(1) per occurrence.
struct Bin {
  double coverage = 0;
  double non_field_coverage = 0;
  size_t count = 0;
  uint32_t first_i = 0;   // line index of the first candidate occurrence
  uint16_t span = 0;      // lines per candidate
  uint32_t first_line = 0xffffffff;
  uint32_t next_free = 0;  // first line not covered by a counted occurrence
};

/// Extends `h` with the bytes of a per-line hash (little-endian order).
uint64_t ExtendWithHash(uint64_t h, uint64_t line_hash) {
  for (int b = 0; b < 8; ++b) {
    h = Fnv1aByte(h, static_cast<unsigned char>(line_hash >> (b * 8)));
  }
  return h;
}

int CountFieldsInCanonical(std::string_view canonical) {
  int fields = 0;
  for (size_t i = 0; i < canonical.size(); ++i) {
    if (canonical[i] == '\\') {
      ++i;  // skip escaped literal
    } else if (canonical[i] == 'F') {
      ++fields;
    }
  }
  return fields;
}

}  // namespace

std::string ReduceLinePeriod(std::string_view canonical) {
  if (canonical.empty() || canonical.back() != '\n') {
    return std::string(canonical);
  }
  // Split into line groups; '\n' is always a literal top-level character in
  // generation-produced canonicals (arrays never span lines).
  std::vector<std::string_view> groups;
  size_t start = 0;
  for (size_t i = 0; i < canonical.size(); ++i) {
    if (canonical[i] == '\n') {
      groups.push_back(canonical.substr(start, i + 1 - start));
      start = i + 1;
    }
  }
  const size_t s = groups.size();
  for (size_t p = 1; p < s; ++p) {
    if (s % p != 0) continue;
    bool periodic = true;
    for (size_t i = p; i < s && periodic; ++i) {
      periodic = groups[i] == groups[i % p];
    }
    if (periodic) {
      size_t len = 0;
      for (size_t i = 0; i < p; ++i) len += groups[i].size();
      return std::string(canonical.substr(0, len));
    }
  }
  return std::string(canonical);
}

std::string CanonicalizeRotation(std::string_view canonical) {
  if (canonical.empty() || canonical.back() != '\n') {
    return std::string(canonical);
  }
  std::vector<std::string_view> groups;
  size_t start = 0;
  for (size_t i = 0; i < canonical.size(); ++i) {
    if (canonical[i] == '\n') {
      groups.push_back(canonical.substr(start, i + 1 - start));
      start = i + 1;
    }
  }
  const size_t s = groups.size();
  if (s < 2) return std::string(canonical);
  size_t best = 0;
  for (size_t r = 1; r < s; ++r) {
    // Lexicographic comparison of rotation r vs rotation best.
    for (size_t i = 0; i < s; ++i) {
      const std::string_view a = groups[(r + i) % s];
      const std::string_view b = groups[(best + i) % s];
      if (a != b) {
        if (a < b) best = r;
        break;
      }
    }
  }
  if (best == 0) return std::string(canonical);
  std::string out;
  out.reserve(canonical.size());
  for (size_t i = 0; i < s; ++i) out += groups[(best + i) % s];
  return out;
}

CandidateGenerator::CandidateGenerator(DatasetView sample,
                                       const DatamaranOptions* options,
                                       ThreadPool* pool)
    : sample_(std::move(sample)), options_(options), pool_(pool) {
  // Histogram only the live lines; a gapped view must not let dead
  // (sampled-out or already-explained) text vote on the search alphabet.
  std::array<size_t, 256> counts{};
  for (size_t v = 0; v < sample_.line_count(); ++v) {
    for (char c : sample_.line_with_newline(v)) {
      counts[static_cast<unsigned char>(c)]++;
    }
  }
  auto ranked = SortSpecialCounts(counts, options_->special_chars);
  int limit = options_->max_special_chars;
  for (const auto& [c, freq] : ranked) {
    if (static_cast<int>(search_chars_.size()) >= limit) break;
    search_chars_.push_back(c);
  }
  for (char c : search_chars_) {
    pool_charset_.Add(static_cast<unsigned char>(c));
  }
  pool_charset_.Add('\n');
  pool_classifier_ = ByteClassifier(pool_charset_, options_->charset_engine);
}

void CandidateGenerator::BuildSpecialIndex(GenerationWorkspace* ws) const {
  const size_t n = sample_.line_count();
  ws->special_pos.clear();
  ws->special_begin.resize(n + 1);
  for (size_t k = 0; k < n; ++k) {
    ws->special_begin[k] = ws->special_pos.size();
    pool_classifier_.AppendMemberPositions(sample_.line_with_newline(k),
                                           &ws->special_pos);
  }
  ws->special_begin[n] = ws->special_pos.size();
  ws->special_index_built = true;
}

double CandidateGenerator::RunCharset(const CharSet& rt_charset,
                                      std::vector<CandidateTemplate>* out) {
  return RunCharset(rt_charset, &scratch_, out);
}

double CandidateGenerator::RunCharset(const CharSet& rt_charset,
                                      GenerationWorkspace* ws,
                                      std::vector<CandidateTemplate>* out)
    const {
  CharSet charset = rt_charset;
  charset.Add('\n');
  const size_t n = sample_.line_count();
  if (n == 0) return 0;

  auto& line_canonical_ = ws->line_canonical;
  auto& line_hash_ = ws->line_hash;
  auto& prefix_len_ = ws->prefix_len;
  auto& prefix_field_len_ = ws->prefix_field_len;
  auto& line_has_field_ = ws->line_has_field;

  line_canonical_.resize(n);
  line_hash_.resize(n);
  prefix_len_.resize(n + 1);
  prefix_field_len_.resize(n + 1);
  line_has_field_.resize(n);

  // Per-line record templates, reduced and hashed once for this charset;
  // the field-character count falls out of the same single scan. With a
  // vector charset engine, membership was classified once per workspace
  // into the special-position index (every trial charset is a subset of
  // the pool), so each trial walks only the special positions — emitting a
  // member byte per position in the trial set and one 'F' per gap — which
  // is exactly what the per-byte reference scan produces. Charsets outside
  // the pool (only reachable via the public RunCharset) use the reference.
  const bool indexed = options_->charset_engine == CharsetEngine::kSimd &&
                       charset.IsSubsetOf(pool_charset_);
  if (indexed && !ws->special_index_built) BuildSpecialIndex(ws);

  std::string& raw_template = ws->raw_template;
  prefix_len_[0] = prefix_field_len_[0] = 0;
  for (size_t k = 0; k < n; ++k) {
    std::string_view line = sample_.line_with_newline(k);
    raw_template.clear();
    size_t field_chars;
    if (indexed) {
      const size_t e = ws->special_begin[k + 1];
      size_t cursor = 0;   // offset just past the last consumed member
      size_t members = 0;  // trial-set members seen on this line
      for (size_t s = ws->special_begin[k]; s < e; ++s) {
        const uint32_t pos = ws->special_pos[s];
        const char c = line[pos];
        if (!charset.Contains(static_cast<unsigned char>(c))) continue;
        if (pos > cursor) raw_template.push_back('F');
        raw_template.push_back(c);
        cursor = pos + 1;
        ++members;
      }
      if (cursor < line.size()) raw_template.push_back('F');
      field_chars = line.size() - members;
    } else {
      field_chars = AppendRecordTemplateCounting(line, charset, &raw_template);
    }
    ReduceToCanonical(raw_template, &ws->reduce_ws, &line_canonical_[k]);
    line_hash_[k] = Fnv1a(line_canonical_[k]);
    prefix_len_[k + 1] = prefix_len_[k] + line.size();
    prefix_field_len_[k + 1] = prefix_field_len_[k] + field_chars;
    line_has_field_[k] =
        line_canonical_[k].find('F') != std::string::npos ? 1 : 0;
  }

  // Enumerate all candidate boundaries (i, span<=L) and hash them.
  std::unordered_map<uint64_t, Bin> bins;
  bins.reserve(n * 2);
  const int max_span = options_->max_record_span;
  for (size_t i = 0; i < n; ++i) {
    uint64_t h = kFnvOffset;
    for (int span = 1; span <= max_span && i + span <= n; ++span) {
      const size_t j = i + span;
      h = ExtendWithHash(h, line_hash_[j - 1]);
      Bin& bin = bins[h];
      if (bin.count == 0) {
        bin.first_i = static_cast<uint32_t>(i);
        bin.span = static_cast<uint16_t>(span);
      }
      if (i >= bin.next_free) {
        const double len =
            static_cast<double>(prefix_len_[j] - prefix_len_[i]);
        const double field_len =
            static_cast<double>(prefix_field_len_[j] - prefix_field_len_[i]);
        bin.coverage += len;
        bin.non_field_coverage += len - field_len;
        bin.count++;
        bin.next_free = static_cast<uint32_t>(i) + static_cast<uint32_t>(span);
      }
      bin.first_line = std::min<uint32_t>(bin.first_line,
                                          static_cast<uint32_t>(i));
      ++ws->records_hashed;
    }
  }

  // Keep bins meeting the alpha% coverage threshold (Assumption 1) that
  // contain at least one field (Definition 2.1 requires a placeholder).
  const double min_coverage =
      options_->coverage_threshold * static_cast<double>(sample_.size_bytes());
  double best_assimilation = 0;
  // Dedupe within this charset: stacked/rotated bins canonicalize to the
  // same template; keep the strongest stats.
  std::unordered_map<std::string, size_t> local_index;
  const size_t out_base = out->size();
  for (const auto& [hash, bin] : bins) {
    if (bin.coverage < min_coverage) continue;
    bool has_field = false;
    for (size_t k = bin.first_i; k < bin.first_i + bin.span; ++k) {
      if (line_has_field_[k]) {
        has_field = true;
        break;
      }
    }
    if (!has_field) continue;
    CandidateTemplate cand;
    for (size_t k = bin.first_i; k < bin.first_i + bin.span; ++k) {
      cand.canonical += line_canonical_[k];
    }
    cand.canonical = CanonicalizeRotation(ReduceLinePeriod(cand.canonical));
    cand.coverage = bin.coverage;
    cand.non_field_coverage = bin.non_field_coverage;
    cand.span = static_cast<int>(
        std::count(cand.canonical.begin(), cand.canonical.end(), '\n'));
    cand.count = bin.count;
    cand.first_line = bin.first_line;
    cand.field_count = CountFieldsInCanonical(cand.canonical);
    best_assimilation = std::max(best_assimilation, cand.assimilation());
    auto it = local_index.find(cand.canonical);
    if (it == local_index.end()) {
      local_index.emplace(cand.canonical, out->size());
      out->push_back(std::move(cand));
    } else {
      CandidateTemplate& existing = (*out)[it->second];
      DM_CHECK(it->second >= out_base);
      existing.first_line = std::min(existing.first_line, cand.first_line);
      if (cand.assimilation() > existing.assimilation()) {
        existing.coverage = cand.coverage;
        existing.non_field_coverage = cand.non_field_coverage;
        existing.count = cand.count;
        existing.span = cand.span;
      }
    }
  }
  return best_assimilation;
}

void CandidateGenerator::MergeCandidates(
    std::vector<CandidateTemplate>* accumulated, MergeIndex* index,
    std::vector<CandidateTemplate>&& fresh) const {
  // `index` persists across all of a search's merges, so each trial costs
  // O(fresh), not a full O(accumulated) re-index. Keys are owned copies:
  // views into `accumulated` would dangle when push_back reallocates and
  // SSO string bodies move.
  for (auto& cand : fresh) {
    auto it = index->find(cand.canonical);
    if (it == index->end()) {
      index->emplace(cand.canonical, accumulated->size());
      accumulated->push_back(std::move(cand));
    } else {
      CandidateTemplate& existing = (*accumulated)[it->second];
      // The same minimal template found under a different charset: keep the
      // strongest evidence.
      existing.first_line = std::min(existing.first_line, cand.first_line);
      if (cand.assimilation() > existing.assimilation()) {
        existing.coverage = cand.coverage;
        existing.non_field_coverage = cand.non_field_coverage;
        existing.count = cand.count;
      }
    }
  }
}

GenerationResult CandidateGenerator::ExhaustiveSearch() {
  GenerationResult result;
  MergeIndex index;
  const size_t c = search_chars_.size();
  const size_t subsets = size_t{1} << c;
  const int workers =
      pool_ != nullptr ? pool_->thread_count() : 1;
  std::vector<GenerationWorkspace> ws(static_cast<size_t>(workers));

  // Every subset is an independent trial; run them in parallel and merge
  // in ascending mask order — the sequential iteration order — so the
  // accumulated candidate list is identical for any thread count. Waves
  // of a few trials per thread bound the per-trial buffers held live at
  // once (2^c grows fast when max_special_chars is raised).
  const size_t wave_size = std::max<size_t>(static_cast<size_t>(workers) * 8,
                                            size_t{1});
  std::vector<std::vector<CandidateTemplate>> fresh(
      std::min(wave_size, subsets));
  for (size_t wave_start = 0; wave_start < subsets;
       wave_start += wave_size) {
    const size_t wave = std::min(wave_size, subsets - wave_start);
    ForEachIndex(pool_, wave, [&](size_t k, int worker) {
      const size_t mask = wave_start + k;
      CharSet charset;
      for (size_t b = 0; b < c; ++b) {
        if (mask & (size_t{1} << b)) {
          charset.Add(static_cast<unsigned char>(search_chars_[b]));
        }
      }
      fresh[k].clear();
      RunCharset(charset, &ws[static_cast<size_t>(worker)], &fresh[k]);
    });
    for (size_t k = 0; k < wave; ++k) {
      MergeCandidates(&result.candidates, &index, std::move(fresh[k]));
      ++result.charsets_tried;
    }
  }
  for (const GenerationWorkspace& w : ws) records_hashed_ += w.records_hashed;
  return result;
}

GenerationResult CandidateGenerator::GreedySearch() {
  GenerationResult result;
  MergeIndex index;
  CharSet current;  // '\n' is implicit
  std::vector<char> remaining = search_chars_;
  const int workers =
      pool_ != nullptr ? pool_->thread_count() : 1;
  std::vector<GenerationWorkspace> ws(static_cast<size_t>(workers));

  // Baseline: the empty charset (records delimited by '\n' only).
  {
    std::vector<CandidateTemplate> fresh;
    RunCharset(current, &ws[0], &fresh);
    MergeCandidates(&result.candidates, &index, std::move(fresh));
    ++result.charsets_tried;
  }

  while (!remaining.empty()) {
    // The trial extensions of this round are independent of one another:
    // run them in parallel, then merge and pick the winner in ascending
    // trial order exactly as the sequential loop would.
    const size_t trials = remaining.size();
    std::vector<double> scores(trials, 0.0);
    std::vector<std::vector<CandidateTemplate>> fresh(trials);
    ForEachIndex(pool_, trials, [&](size_t idx, int worker) {
      CharSet trial = current;
      trial.Add(static_cast<unsigned char>(remaining[idx]));
      scores[idx] =
          RunCharset(trial, &ws[static_cast<size_t>(worker)], &fresh[idx]);
    });
    double best_score = 0;
    size_t best_idx = trials;
    for (size_t idx = 0; idx < trials; ++idx) {
      MergeCandidates(&result.candidates, &index, std::move(fresh[idx]));
      ++result.charsets_tried;
      if (scores[idx] > best_score) {
        best_score = scores[idx];
        best_idx = idx;
      }
    }
    // Stop when no extension yields a template with alpha% coverage.
    if (best_idx == trials) break;
    current.Add(static_cast<unsigned char>(remaining[best_idx]));
    remaining.erase(remaining.begin() + static_cast<ptrdiff_t>(best_idx));
  }
  for (const GenerationWorkspace& w : ws) records_hashed_ += w.records_hashed;
  return result;
}

namespace {

/// Drops multi-line candidates that are concatenations of two independent
/// templates. For a true k-line record type, any line-split part co-occurs
/// with the whole (counts match); for a chance adjacency of two interleaved
/// single-line types, the composite occurs far less often than either part.
void FilterComposites(std::vector<CandidateTemplate>* candidates) {
  std::unordered_map<std::string_view, size_t> count_of;
  count_of.reserve(candidates->size());
  for (const auto& c : *candidates) count_of.emplace(c.canonical, c.count);
  // Only two-line composites of two single-line templates are tested: for
  // longer records the count heuristic misfires when a record contains
  // several copies of one line shape (its single-line part then occurs k
  // times per record and the ratio test would reject the true template).
  auto is_composite = [&](const CandidateTemplate& c) {
    if (c.span != 2) return false;
    const std::string& canon = c.canonical;
    size_t nl = canon.find('\n');
    if (nl == std::string::npos || nl + 1 >= canon.size()) return false;
    auto left = count_of.find(std::string_view(canon).substr(0, nl + 1));
    auto right = count_of.find(std::string_view(canon).substr(nl + 1));
    if (left == count_of.end() || right == count_of.end()) return false;
    size_t part_count = std::min(left->second, right->second);
    return static_cast<double>(c.count) <
           0.8 * static_cast<double>(part_count);
  };
  candidates->erase(
      std::remove_if(candidates->begin(), candidates->end(), is_composite),
      candidates->end());
}

}  // namespace

GenerationResult CandidateGenerator::Run() {
  records_hashed_ = 0;
  GenerationResult result = options_->search == CharsetSearch::kExhaustive
                                ? ExhaustiveSearch()
                                : GreedySearch();
  FilterComposites(&result.candidates);
  result.records_hashed = records_hashed_;
  DM_LOG(kInfo, "generation: %zu charsets, %zu candidates >= %.0f%% coverage",
         result.charsets_tried, result.candidates.size(),
         options_->coverage_threshold * 100);
  return result;
}

}  // namespace datamaran
