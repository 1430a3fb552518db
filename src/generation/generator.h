#ifndef DATAMARAN_GENERATION_GENERATOR_H_
#define DATAMARAN_GENERATION_GENERATOR_H_

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/dataset.h"
#include "core/options.h"
#include "generation/candidates.h"
#include "template/record_template.h"
#include "util/byte_class.h"
#include "util/char_class.h"

/// The generation step (Section 4.1): find all structure templates with at
/// least alpha% coverage by (1) enumerating RT-CharSet values, (2)
/// enumerating O(nL) candidate record boundaries — every pair of '\n'
/// positions at most L lines apart, (3) extracting the record template of
/// each candidate, (4) reducing it to a minimal structure template and (5)
/// accumulating coverage in a hash table.
///
/// Implementation notes (hot path):
///  * For a fixed charset, each line's record template is extracted and
///    reduced once; a candidate spanning lines [i, i+span) is the
///    concatenation of per-line minimal templates, so its hash is computed
///    incrementally from per-line hashes in O(1) per candidate.
///  * Reduction is applied per line. Tandem repeats can therefore not fold
///    across line boundaries; such folds require an array whose separator
///    and terminator are both '\n', which Assumption 3 forbids anyway
///    (x != y), so no legal template is lost.
///  * '\n' is always a member of RT-CharSet (Definition 2.4: blocks are
///    '\n'-separated).

namespace datamaran {

class ThreadPool;

/// Reduces a multi-line canonical template to its minimal line period:
/// "(F,)*F\n(F,)*F\n" is two copies of "(F,)*F\n" and describes the same
/// records, so only the one-period form is kept (Figure 11's first
/// redundancy source: subsets/stackings of the true template). Returns the
/// input unchanged when no smaller period exists.
std::string ReduceLinePeriod(std::string_view canonical);

/// Canonicalizes a multi-line template to the lexicographically smallest
/// cyclic rotation of its line groups. All rotations of a template are
/// found by the boundary enumeration and describe the same structure
/// shifted (Section 4.3.2); collapsing them keeps the top-M list from
/// filling up with shifted duplicates. Structure shifting during
/// refinement later picks the correctly aligned rotation.
std::string CanonicalizeRotation(std::string_view canonical);

/// Outcome of the generation step across all enumerated charsets.
struct GenerationResult {
  /// Deduplicated candidates meeting the coverage threshold, unordered.
  std::vector<CandidateTemplate> candidates;
  /// Number of RT-CharSet values enumerated.
  size_t charsets_tried = 0;
  /// Number of (boundary pair, charset) candidates hashed.
  size_t records_hashed = 0;
};

/// Per-thread scratch for RunCharset. Each worker owns one workspace for
/// the lifetime of a search, so the steady state performs no per-charset
/// allocation and concurrent charset trials never share mutable state.
struct GenerationWorkspace {
  ReduceWorkspace reduce_ws;
  std::string raw_template;
  std::vector<std::string> line_canonical;
  std::vector<uint64_t> line_hash;
  std::vector<size_t> prefix_len;         // raw chars, prefix sum
  std::vector<size_t> prefix_field_len;   // field chars, prefix sum
  std::vector<uint8_t> line_has_field;
  /// The hoisted per-line class vector: for every line, the positions of
  /// the bytes in the generator's special-character pool (line-relative,
  /// ascending; line k owns special_pos[special_begin[k] ..
  /// special_begin[k+1])). Every trial RT-CharSet is a subset of the pool,
  /// so membership is classified once per workspace — with the configured
  /// charset engine — and each trial only walks these positions instead of
  /// re-scanning every byte of every line per charset.
  std::vector<uint32_t> special_pos;
  std::vector<size_t> special_begin;
  bool special_index_built = false;
  /// (boundary pair, charset) candidates hashed, accumulated across calls.
  size_t records_hashed = 0;
};

class CandidateGenerator {
 public:
  /// The generation step consumes a DatasetView — the sampled lines of the
  /// backing file, or a residual round's live lines — and only ever reads
  /// per-line content, so no sample text is materialized. The view's
  /// backing dataset must outlive the generator. When `pool` is non-null
  /// and has more than one thread, the independent charset trials of both
  /// search strategies run in parallel; per-trial results are merged in the
  /// same fixed order as the sequential search, so the output is identical
  /// for every pool size.
  CandidateGenerator(DatasetView sample, const DatamaranOptions* options,
                     ThreadPool* pool = nullptr);

  /// Convenience: all lines of `sample` (which must outlive the generator).
  CandidateGenerator(const Dataset* sample, const DatamaranOptions* options,
                     ThreadPool* pool = nullptr)
      : CandidateGenerator(DatasetView(*sample), options, pool) {}

  /// Runs the full generation step with the configured search strategy.
  GenerationResult Run();

  /// Runs steps 2-5 for one specific RT-CharSet ('\n' is added
  /// automatically); appends surviving candidates to `out` and returns the
  /// best assimilation score among them (0 if none survive). Uses the
  /// generator's own scratch workspace; not safe to call concurrently.
  double RunCharset(const CharSet& rt_charset,
                    std::vector<CandidateTemplate>* out);

  /// Re-entrant form: all mutable state lives in `ws`, so distinct
  /// workspaces may run distinct charsets concurrently.
  double RunCharset(const CharSet& rt_charset, GenerationWorkspace* ws,
                    std::vector<CandidateTemplate>* out) const;

  /// The (at most max_special_chars) special characters present in the
  /// sample that the search enumerates over, most frequent first.
  const std::vector<char>& search_chars() const { return search_chars_; }

 private:
  /// Canonical -> index into the accumulated candidate vector. Kept
  /// alongside the accumulator for the whole search so merging each trial
  /// is O(fresh) instead of O(accumulated + fresh).
  using MergeIndex = std::unordered_map<std::string, size_t>;

  GenerationResult ExhaustiveSearch();
  GenerationResult GreedySearch();
  void MergeCandidates(std::vector<CandidateTemplate>* accumulated,
                       MergeIndex* index,
                       std::vector<CandidateTemplate>&& fresh) const;
  /// Builds the workspace's special-position index (one classifier pass
  /// over every live line of the sample).
  void BuildSpecialIndex(GenerationWorkspace* ws) const;

  DatasetView sample_;
  const DatamaranOptions* options_;
  ThreadPool* pool_;
  std::vector<char> search_chars_;
  /// search_chars_ plus '\n' — the superset every trial charset draws from.
  CharSet pool_charset_;
  /// Pool-charset classifier driving BuildSpecialIndex.
  ByteClassifier pool_classifier_;
  size_t records_hashed_ = 0;

  // Scratch for the single-threaded public RunCharset overload.
  GenerationWorkspace scratch_;
};

}  // namespace datamaran

#endif  // DATAMARAN_GENERATION_GENERATOR_H_
