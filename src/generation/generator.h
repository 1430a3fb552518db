#ifndef DATAMARAN_GENERATION_GENERATOR_H_
#define DATAMARAN_GENERATION_GENERATOR_H_

#include <algorithm>
#include <array>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <memory_resource>
#include <string>
#include <string_view>
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
///  * A line's template under a trial charset drawn from the special-
///    character pool depends only on the line's skeleton: its pool bytes
///    in order, each flagged by whether field bytes come before it, and
///    whether field bytes trail. Under kSimd the generator interns each
///    live line's skeleton once, so a trial reduces, hashes and counts the
///    members of each distinct skeleton once (bench_e2e's corpus_discover
///    samples hold 443 across 133,860 lines) and the bin loop gathers
///    those per line. The per-byte scan of each line stays for kScalar and
///    for charsets outside the pool.
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

/// Generation's special-character mask of `sample`: one bit per live byte,
/// set iff `classifier` holds the byte. Each run of physically contiguous
/// live lines starts on a word boundary and is classified in place, 64
/// bytes per MaskBlock; live line k's bytes are bits [(*line_bit)[k],
/// (*line_bit)[k] + its length).
void BuildSpecialMask(const DatasetView& sample,
                      const ByteClassifier& classifier,
                      std::vector<uint64_t>* mask,
                      std::vector<size_t>* line_bit);

/// A line's skeleton over a special-character pool, one element per pool
/// byte of the line in order: the byte, plus kFieldBefore when non-pool
/// bytes come between it and the previous pool byte (or the line's start).
/// A final kSkeletonEnd element carries kFieldBefore when non-pool bytes
/// trail. The flags sit above the byte, so a NUL or 0xFF pool byte cannot
/// be mistaken for one.
constexpr char16_t kFieldBefore = 0x100;
constexpr char16_t kSkeletonEnd = 0x200;

/// Appends the skeleton of `line` to `skeleton`, where bit first_bit + i of
/// `special` (64 bits per word) is set iff line[i] is a pool byte.
void AppendLineSkeleton(std::string_view line, const uint64_t* special,
                        size_t first_bit, std::u16string* skeleton);

/// Appends to `raw` the record template (AppendRecordTemplate) of any line
/// whose skeleton is `skeleton`, under `charset`, a subset of the pool the
/// skeleton was taken over, and returns how many of the line's bytes are
/// in `charset`.
size_t AppendSkeletonTemplate(std::u16string_view skeleton,
                              const CharSet& charset, std::string* raw);

/// Outcome of the generation step across all enumerated charsets.
struct GenerationResult {
  /// Deduplicated candidates meeting the coverage threshold, in the fixed
  /// order the search merged them (first-found first).
  CandidateList candidates;
  /// Number of RT-CharSet values enumerated.
  size_t charsets_tried = 0;
  /// Number of (boundary pair, charset) candidates hashed.
  size_t records_hashed = 0;
};

/// Dedup of a list of distinct keys (candidates' canonicals, skeletons):
/// an open-addressed table of 4-byte slots, each 1 + a key's index in the
/// list (0 marks an empty slot), at most half full. It keeps no copy of any
/// key and no hash: a probe compares keys, and growing frees the old table
/// before it hashes every listed key again into one twice its size, so it
/// never holds two tables.
class KeyIndex {
 public:
  /// The index of the key equal to `key` among the `size` keys indexed
  /// since the last Clear, where key_at(i) is the i-th of them. When there
  /// is none, records `key` as index `size` and returns that: the caller
  /// adds it to the list next.
  template <typename Char, typename KeyAt>
  size_t FindOrAdd(size_t size, std::basic_string_view<Char> key,
                   const KeyAt& key_at);

  /// Forgets every key, keeping the table's storage.
  void Clear() { std::fill(slots_.begin(), slots_.end(), 0); }

 private:
  static constexpr size_t kMinSlots = 16;

  /// The empty slot where `key` goes, or the slot holding it.
  template <typename Char, typename KeyAt>
  size_t Probe(std::basic_string_view<Char> key, const KeyAt& key_at) const;

  std::vector<uint32_t> slots_;
};

template <typename Char, typename KeyAt>
size_t KeyIndex::Probe(std::basic_string_view<Char> key,
                       const KeyAt& key_at) const {
  const size_t mask = slots_.size() - 1;
  size_t i = std::hash<std::basic_string_view<Char>>{}(key) & mask;
  while (slots_[i] != 0 && key_at(slots_[i] - size_t{1}) != key) {
    i = (i + 1) & mask;
  }
  return i;
}

template <typename Char, typename KeyAt>
size_t KeyIndex::FindOrAdd(size_t size, std::basic_string_view<Char> key,
                           const KeyAt& key_at) {
  if (2 * (size + 1) > slots_.size()) {
    // Free the old table first: every listed key is hashed again.
    const size_t slots = std::max(kMinSlots, 2 * slots_.size());
    std::vector<uint32_t>().swap(slots_);
    slots_.assign(slots, 0);
    for (size_t k = 0; k < size; ++k) {
      slots_[Probe(key_at(k), key_at)] = static_cast<uint32_t>(k + 1);
    }
  }
  const size_t i = Probe(key, key_at);
  if (slots_[i] != 0) return slots_[i] - size_t{1};
  slots_[i] = static_cast<uint32_t>(size + 1);
  return size;
}

/// Node storage for a worker's bin maps, recycled from trial to trial:
/// word-aligned blocks of up to kMaxBlockBytes are carved from slabs of
/// kSlabBytes at their exact size (in words) and, once freed, kept on one
/// free list per size, so a trial's map reuses the nodes the previous
/// trial's map freed. Larger requests (bucket arrays) pass to the default
/// resource. Memory held is the largest trial's nodes, rounded up to a
/// slab; the slabs are freed with the workspace.
class NodeFreeList final : public std::pmr::memory_resource {
 public:
  NodeFreeList() = default;
  // Maps hold its address.
  NodeFreeList(const NodeFreeList&) = delete;
  NodeFreeList& operator=(const NodeFreeList&) = delete;

 private:
  static constexpr size_t kMaxBlockBytes = 128;
  static constexpr size_t kSlabBytes = 64 * 1024;

  void* do_allocate(size_t bytes, size_t alignment) override;
  void do_deallocate(void* p, size_t bytes, size_t alignment) override;
  bool do_is_equal(
      const std::pmr::memory_resource& other) const noexcept override {
    return this == &other;
  }

  /// Freed blocks of 8 * i bytes, linked through their first word.
  std::array<void*, kMaxBlockBytes / 8 + 1> free_{};
  std::vector<std::unique_ptr<std::byte[]>> slabs_;
  std::byte* next_ = nullptr;  // the newest slab's uncarved bytes
  std::byte* end_ = nullptr;
};

/// Per-thread scratch for RunCharset. Each worker owns one workspace for
/// the lifetime of a search, and concurrent charset trials never share
/// mutable state. Every buffer is reused from trial to trial, so a trial
/// allocates only a bin map's bucket array and its surviving candidates.
/// A trial's unit is a distinct skeleton, or a line on the per-byte path;
/// under kSimd nothing here grows with the sample's line count but the bin
/// map.
struct GenerationWorkspace {
  ReduceWorkspace reduce_ws;
  std::string raw_template;
  std::string unit_canonical;  // one unit's, before it is stored below
  /// The trial's canonical of each unit back to back: unit u's is
  /// canonicals[canonical_begin[u], canonical_begin[u+1]).
  std::string canonicals;
  std::vector<size_t> canonical_begin;
  std::vector<uint64_t> unit_hash;
  std::vector<uint32_t> unit_members;  // bytes in the trial charset
  std::vector<uint8_t> unit_has_field;
  /// Node storage of each trial's bin map. A trial's map returns its nodes
  /// here when it is destroyed, and the next trial's map reuses them, so
  /// the search allocates nodes for its largest trial once instead of one
  /// per distinct window per trial.
  NodeFreeList bin_storage;
  /// The trial's dedup of its own candidates, a candidate window's line
  /// canonicals, and the canonical the dedup looks up next.
  KeyIndex trial_index;
  std::string window;
  std::string candidate;
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

  /// Distinct skeletons among the live lines (0 under kScalar, which
  /// scans every line).
  size_t skeleton_count() const { return skeleton_begin_.size() - 1; }

 private:
  GenerationResult ExhaustiveSearch();
  GenerationResult GreedySearch();
  /// Steps 2-5 once a trial has reduced its units: hashes every candidate
  /// window, where unit_of(k) is line k's unit, and appends the surviving
  /// candidates to `out`. Returns their best assimilation score.
  template <typename UnitOf>
  double CollectCandidates(const UnitOf& unit_of, GenerationWorkspace* ws,
                           std::vector<CandidateTemplate>* out) const;
  /// Merges a trial's candidates into the search's accumulator, appending
  /// the new ones. `index` is the accumulator's dedup, kept for the whole
  /// search so merging each trial is O(fresh) instead of
  /// O(accumulated + fresh).
  void MergeCandidates(CandidateList* accumulated, KeyIndex* index,
                       std::vector<CandidateTemplate>&& fresh) const;
  std::u16string_view skeleton(size_t s) const {
    return std::u16string_view(skeletons_).substr(
        skeleton_begin_[s], skeleton_begin_[s + 1] - skeleton_begin_[s]);
  }

  DatasetView sample_;
  const DatamaranOptions* options_;
  ThreadPool* pool_;
  std::vector<char> search_chars_;
  /// search_chars_ plus '\n' — the superset every trial charset draws from.
  CharSet pool_charset_;
  /// Under kSimd, the distinct skeletons over pool_charset_ back to back:
  /// skeleton s is skeletons_[skeleton_begin_[s], skeleton_begin_[s+1]).
  /// Interned once from the special-character mask (BuildSpecialMask),
  /// which is then freed, and read by every worker.
  std::u16string skeletons_;
  std::vector<size_t> skeleton_begin_ = {0};
  /// Each live line's skeleton (under kSimd) and length.
  std::vector<uint32_t> line_skeleton_;
  std::vector<uint32_t> line_len_;
  size_t records_hashed_ = 0;

  // Scratch for the single-threaded public RunCharset overload.
  GenerationWorkspace scratch_;
};

}  // namespace datamaran

#endif  // DATAMARAN_GENERATION_GENERATOR_H_
