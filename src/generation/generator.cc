#include "generation/generator.h"

#include <algorithm>
#include <array>
#include <bit>
#include <functional>
#include <memory_resource>
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
/// Counted occurrences never overlap, so both coverages are at most the
/// sample's size, which the generator holds under 4 GiB: exact 32-bit
/// sums, converted to double only to be scored.
struct Bin {
  uint32_t coverage = 0;
  uint32_t non_field_coverage = 0;
  uint32_t count = 0;
  uint32_t first_i = 0;   // line index of the first candidate occurrence
  uint32_t next_free = 0;  // first line not covered by a counted occurrence
  uint16_t span = 0;      // lines per candidate
};
// With its 8-byte key and next pointer, a bin map node is 40 bytes.
static_assert(sizeof(Bin) == 24);

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

/// Length of the prefix of `canonical` that is its minimal line period:
/// the first p line groups, for the least p such that the whole is copies
/// of them (the whole length when no smaller period exists).
size_t LinePeriodLength(std::string_view canonical) {
  if (canonical.empty() || canonical.back() != '\n') return canonical.size();
  // '\n' is always a literal top-level character in generation-produced
  // canonicals (arrays never span lines), so it ends every line group.
  const auto s = static_cast<size_t>(
      std::count(canonical.begin(), canonical.end(), '\n'));
  size_t len = 0;  // length of the first p groups
  for (size_t p = 1; p < s; ++p) {
    len = canonical.find('\n', len) + 1;
    if (s % p != 0) continue;
    bool periodic = true;
    for (size_t at = len; at < canonical.size() && periodic; at += len) {
      periodic = canonical.compare(at, len, canonical.substr(0, len)) == 0;
    }
    if (periodic) return len;
  }
  return canonical.size();
}

/// Offset of the lexicographically smallest rotation of `canonical`'s line
/// groups (the earliest on ties). Every group ends in its only '\n', so no
/// group is a proper prefix of another, and comparing two rotations group
/// by group orders them exactly as comparing their bytes does.
size_t SmallestRotation(std::string_view canonical) {
  if (canonical.empty() || canonical.back() != '\n') return 0;
  const size_t n = canonical.size();
  auto less = [&](size_t a, size_t b) {  // rotation at a < rotation at b
    for (size_t i = 0; i < n; ++i) {
      const auto x = static_cast<unsigned char>(canonical[a]);
      const auto y = static_cast<unsigned char>(canonical[b]);
      if (x != y) return x < y;
      if (++a == n) a = 0;
      if (++b == n) b = 0;
    }
    return false;
  };
  size_t best = 0;
  for (size_t r = canonical.find('\n') + 1; r < n;
       r = canonical.find('\n', r) + 1) {
    if (less(r, best)) best = r;
  }
  return best;
}

}  // namespace

std::string ReduceLinePeriod(std::string_view canonical) {
  return std::string(canonical.substr(0, LinePeriodLength(canonical)));
}

std::string CanonicalizeRotation(std::string_view canonical) {
  const size_t r = SmallestRotation(canonical);
  std::string out(canonical.substr(r));
  out += canonical.substr(0, r);
  return out;
}

void BuildSpecialMask(const DatasetView& sample,
                      const ByteClassifier& classifier,
                      std::vector<uint64_t>* mask,
                      std::vector<size_t>* line_bit) {
  // Lay out the bits first, then classify each run where it lies in the
  // backing text.
  const size_t n = sample.line_count();
  auto joins_previous = [&](size_t k) {
    return sample.physical_line(k) == sample.physical_line(k - 1) + 1;
  };
  line_bit->resize(n);
  size_t bits = 0;
  for (size_t k = 0; k < n; ++k) {
    if (k > 0 && !joins_previous(k)) bits = (bits + 63) / 64 * 64;
    (*line_bit)[k] = bits;
    bits += sample.line_with_newline(k).size();
  }
  mask->assign((bits + 63) / 64, 0);
  const Dataset& data = sample.dataset();
  for (size_t k = 0; k < n;) {
    size_t end = k + 1;
    while (end < n && joins_previous(end)) ++end;
    const size_t begin = data.line_begin(sample.physical_line(k));
    const std::string_view run = data.text().substr(
        begin, data.line_end(sample.physical_line(end - 1)) - begin);
    uint64_t* word = mask->data() + (*line_bit)[k] / 64;
    for (size_t pos = 0; pos < run.size(); pos += 64) {
      *word++ = classifier.MaskBlock(run, pos);
    }
    k = end;
  }
}

void* NodeFreeList::do_allocate(size_t bytes, size_t alignment) {
  if (bytes > kMaxBlockBytes || alignment > alignof(void*)) {
    return std::pmr::new_delete_resource()->allocate(bytes, alignment);
  }
  const size_t words = std::max<size_t>(1, (bytes + 7) / 8);
  void*& head = free_[words];
  if (head != nullptr) {
    void* p = head;
    head = *static_cast<void**>(p);
    return p;
  }
  if (static_cast<size_t>(end_ - next_) < words * 8) {
    slabs_.push_back(std::make_unique_for_overwrite<std::byte[]>(kSlabBytes));
    next_ = slabs_.back().get();
    end_ = next_ + kSlabBytes;
  }
  void* p = next_;
  next_ += words * 8;
  return p;
}

void NodeFreeList::do_deallocate(void* p, size_t bytes, size_t alignment) {
  if (bytes > kMaxBlockBytes || alignment > alignof(void*)) {
    std::pmr::new_delete_resource()->deallocate(p, bytes, alignment);
    return;
  }
  void*& head = free_[std::max<size_t>(1, (bytes + 7) / 8)];
  *static_cast<void**>(p) = head;
  head = p;
}

void AppendLineSkeleton(std::string_view line, const uint64_t* special,
                        size_t first_bit, std::u16string* skeleton) {
  const size_t last = first_bit + line.size();
  size_t cursor = 0;  // offset just past the last pool byte
  for (size_t bit = first_bit; bit < last;) {
    const size_t width = std::min<size_t>(64 - bit % 64, last - bit);
    uint64_t set = special[bit / 64] >> (bit % 64);
    if (width < 64) set &= (uint64_t{1} << width) - 1;
    for (; set != 0; set &= set - 1) {
      const size_t pos =
          bit - first_bit + static_cast<size_t>(std::countr_zero(set));
      skeleton->push_back(static_cast<char16_t>(
          static_cast<unsigned char>(line[pos]) |
          (pos > cursor ? kFieldBefore : 0)));
      cursor = pos + 1;
    }
    bit += width;
  }
  skeleton->push_back(static_cast<char16_t>(
      kSkeletonEnd | (cursor < line.size() ? kFieldBefore : 0)));
}

size_t AppendSkeletonTemplate(std::u16string_view skeleton,
                              const CharSet& charset, std::string* raw) {
  size_t members = 0;
  bool field = false;  // field bytes since the last member
  for (const char16_t e : skeleton) {
    field = field || (e & kFieldBefore) != 0;
    if ((e & kSkeletonEnd) != 0) break;
    const auto c = static_cast<unsigned char>(e);
    if (!charset.Contains(c)) {
      field = true;  // a pool byte outside the trial set is a field byte
      continue;
    }
    if (field) raw->push_back('F');
    raw->push_back(static_cast<char>(c));
    field = false;
    ++members;
  }
  if (field) raw->push_back('F');
  return members;
}

CandidateGenerator::CandidateGenerator(DatasetView sample,
                                       const DatamaranOptions* options,
                                       ThreadPool* pool)
    : sample_(std::move(sample)), options_(options), pool_(pool) {
  // Histogram only the live lines; a gapped view must not let dead
  // (sampled-out or already-explained) text vote on the search alphabet.
  const size_t n = sample_.line_count();
  std::array<size_t, 256> counts{};
  line_len_.resize(n);
  for (size_t v = 0; v < n; ++v) {
    const std::string_view line = sample_.line_with_newline(v);
    for (char c : line) counts[static_cast<unsigned char>(c)]++;
    line_len_[v] = static_cast<uint32_t>(line.size());
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
  // A bin's coverages are 32-bit sums of at most the sample's bytes.
  DM_CHECK(sample_.size_bytes() < (uint64_t{1} << 32));
  if (options_->charset_engine != CharsetEngine::kSimd) return;
  // Intern each live line's skeleton, read off the pool's special-character
  // mask, which is not needed after.
  std::vector<uint64_t> special_mask;
  std::vector<size_t> line_bit;
  const ByteClassifier classifier(pool_charset_, CharsetEngine::kSimd);
  BuildSpecialMask(sample_, classifier, &special_mask, &line_bit);
  KeyIndex index;
  line_skeleton_.resize(n);
  for (size_t v = 0; v < n; ++v) {
    const size_t begin = skeletons_.size();
    AppendLineSkeleton(sample_.line_with_newline(v), special_mask.data(),
                       line_bit[v], &skeletons_);
    const size_t count = skeleton_count();
    const size_t s = index.FindOrAdd(
        count, std::u16string_view(skeletons_).substr(begin),
        [this](size_t k) { return skeleton(k); });
    if (s == count) {
      skeleton_begin_.push_back(skeletons_.size());
    } else {
      skeletons_.resize(begin);
    }
    line_skeleton_[v] = static_cast<uint32_t>(s);
  }
  skeletons_.shrink_to_fit();
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
  // Under kSimd a trial charset drawn from the pool (every one the search
  // enumerates) reduces each distinct skeleton once: the units are the
  // skeletons. Otherwise (kScalar, or a charset outside the pool, only
  // reachable through the public RunCharset) each line is its own unit,
  // scanned byte by byte: the reference the skeletons must reproduce.
  const bool by_skeleton = options_->charset_engine == CharsetEngine::kSimd &&
                           charset.IsSubsetOf(pool_charset_);
  const size_t units = by_skeleton ? skeleton_count() : n;
  ws->canonicals.clear();
  ws->canonical_begin.resize(units + 1);
  ws->unit_hash.resize(units);
  ws->unit_members.resize(units);
  ws->unit_has_field.resize(units);
  std::string& raw_template = ws->raw_template;
  const std::string& canonical = ws->unit_canonical;
  for (size_t u = 0; u < units; ++u) {
    raw_template.clear();
    size_t members;
    if (by_skeleton) {
      members = AppendSkeletonTemplate(skeleton(u), charset, &raw_template);
    } else {
      const std::string_view line = sample_.line_with_newline(u);
      members = line.size() -
                AppendRecordTemplateCounting(line, charset, &raw_template);
    }
    ReduceToCanonical(raw_template, &ws->reduce_ws, &ws->unit_canonical);
    ws->canonical_begin[u] = ws->canonicals.size();
    ws->canonicals += canonical;
    ws->unit_hash[u] = Fnv1a(canonical);
    ws->unit_members[u] = static_cast<uint32_t>(members);
    ws->unit_has_field[u] = canonical.find('F') != std::string::npos ? 1 : 0;
  }
  ws->canonical_begin[units] = ws->canonicals.size();
  if (by_skeleton) {
    return CollectCandidates(
        [this](size_t k) -> size_t { return line_skeleton_[k]; }, ws, out);
  }
  return CollectCandidates([](size_t k) { return k; }, ws, out);
}

template <typename UnitOf>
double CandidateGenerator::CollectCandidates(
    const UnitOf& unit_of, GenerationWorkspace* ws,
    std::vector<CandidateTemplate>* out) const {
  const size_t n = sample_.line_count();
  // Enumerate all candidate boundaries (i, span<=L) and hash them, adding
  // up each window's bytes and trial-set members as it grows. The map's
  // nodes and buckets come from the workspace's recycled storage, but the
  // container, its reserve and its insertion sequence are those of a
  // default-allocated map, so it iterates in the same order: that order
  // fixes the candidates' order, which Run's composite filter depends on.
  std::pmr::unordered_map<uint64_t, Bin> bins(&ws->bin_storage);
  bins.reserve(n * 2);
  const int max_span = options_->max_record_span;
  for (size_t i = 0; i < n; ++i) {
    uint64_t h = kFnvOffset;
    uint32_t len = 0;
    uint32_t members = 0;
    for (int span = 1; span <= max_span && i + span <= n; ++span) {
      const size_t j = i + span;
      const size_t unit = unit_of(j - 1);
      h = ExtendWithHash(h, ws->unit_hash[unit]);
      len += line_len_[j - 1];
      members += ws->unit_members[unit];
      Bin& bin = bins[h];
      if (bin.count == 0) {
        bin.first_i = static_cast<uint32_t>(i);
        bin.span = static_cast<uint16_t>(span);
      }
      if (i >= bin.next_free) {
        bin.coverage += len;
        bin.non_field_coverage += members;
        bin.count++;
        bin.next_free = static_cast<uint32_t>(i) + static_cast<uint32_t>(span);
      }
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
  ws->trial_index.Clear();
  const size_t out_base = out->size();
  auto trial_candidate = [&](size_t k) -> std::string_view {
    return (*out)[out_base + k].canonical;
  };
  std::string& window = ws->window;
  std::string& canonical = ws->candidate;
  for (const auto& [hash, bin] : bins) {
    const double coverage = bin.coverage;
    const double non_field_coverage = bin.non_field_coverage;
    if (coverage < min_coverage) continue;
    const size_t end = bin.first_i + bin.span;
    bool has_field = false;
    for (size_t k = bin.first_i; k < end; ++k) {
      if (ws->unit_has_field[unit_of(k)]) {
        has_field = true;
        break;
      }
    }
    if (!has_field) continue;
    // The window's line canonicals, reduced to one line period and
    // rotated to the smallest rotation, assembled in scratch: only a new
    // candidate's canonical is allocated.
    window.clear();
    for (size_t k = bin.first_i; k < end; ++k) {
      const size_t unit = unit_of(k);
      window.append(ws->canonicals, ws->canonical_begin[unit],
                    ws->canonical_begin[unit + 1] - ws->canonical_begin[unit]);
    }
    const std::string_view period =
        std::string_view(window).substr(0, LinePeriodLength(window));
    const size_t rotation = SmallestRotation(period);
    canonical.assign(period.substr(rotation));
    canonical.append(period.substr(0, rotation));
    const int span =
        static_cast<int>(std::count(canonical.begin(), canonical.end(), '\n'));
    const double assimilation = coverage * non_field_coverage;
    best_assimilation = std::max(best_assimilation, assimilation);
    const size_t at =
        out_base + ws->trial_index.FindOrAdd(out->size() - out_base,
                                             std::string_view(canonical),
                                             trial_candidate);
    if (at == out->size()) {
      CandidateTemplate& cand = out->emplace_back();
      // Reserving the whole window first makes the string heap-backed
      // exactly when the window is longer than the small-string buffer,
      // as it was when candidates were built by appending their lines;
      // FilterComposites reads through views that depend on it.
      cand.canonical.reserve(window.size());
      cand.canonical = canonical;
      cand.coverage = coverage;
      cand.non_field_coverage = non_field_coverage;
      cand.span = span;
      cand.count = bin.count;
      cand.first_line = bin.first_i;
      cand.field_count = CountFieldsInCanonical(canonical);
    } else {
      CandidateTemplate& existing = (*out)[at];
      existing.first_line = std::min<size_t>(existing.first_line, bin.first_i);
      if (assimilation > existing.assimilation()) {
        existing.coverage = coverage;
        existing.non_field_coverage = non_field_coverage;
        existing.count = bin.count;
        existing.span = span;
      }
    }
  }
  return best_assimilation;
}

void CandidateGenerator::MergeCandidates(
    CandidateList* accumulated, KeyIndex* index,
    std::vector<CandidateTemplate>&& fresh) const {
  auto merged = [accumulated](size_t k) -> std::string_view {
    return (*accumulated)[k].canonical;
  };
  for (auto& cand : fresh) {
    const size_t at =
        index->FindOrAdd(accumulated->size(),
                         std::string_view(cand.canonical), merged);
    if (at == accumulated->size()) {
      accumulated->push_back(std::move(cand));
    } else {
      CandidateTemplate& existing = (*accumulated)[at];
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
  KeyIndex index;
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
  KeyIndex index;
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
///
/// Which composites survive depends on the candidates' order: `count_of`
/// keys are views into the candidates' canonicals, and std::remove_if
/// move-assigns later candidates over removed ones while the predicate
/// still looks parts up through those keys. Until the accuracy work
/// replaces this filter (ROADMAP.md), generation must therefore hand it
/// the candidates in exactly the order it always has;
/// GenerationTest.CandidateOrderIsPinned holds that order. Flagging every
/// candidate before compacting removes the dependence, but changes the
/// accepted templates (Figure 17: 83.1% to 79.8%).
void FilterComposites(CandidateList* candidates) {
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
