#ifndef DATAMARAN_GENERATION_GENERATOR_H_
#define DATAMARAN_GENERATION_GENERATOR_H_

#include <array>
#include <cstddef>
#include <cstdint>
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

/// Outcome of the generation step across all enumerated charsets.
struct GenerationResult {
  /// Deduplicated candidates meeting the coverage threshold, in the fixed
  /// order the search merged them (first-found first).
  std::vector<CandidateTemplate> candidates;
  /// Number of RT-CharSet values enumerated.
  size_t charsets_tried = 0;
  /// Number of (boundary pair, charset) candidates hashed.
  size_t records_hashed = 0;
};

/// Dedup of candidates by canonical: an open-addressed table of candidate
/// indices. A slot holds 1 + the candidate's index in its vector (0 marks
/// an empty slot) in its low 32 bits and the canonical's 32-bit hash above
/// them; a table of 2^k slots, at most half full, places a candidate by the
/// top k bits of that hash. So it keeps no node and no copy of any key, and
/// growing never hashes a canonical again.
class CandidateIndex {
 public:
  /// The index in `candidates` of the candidate whose canonical is
  /// `canonical`. When there is none, records `canonical` at
  /// candidates.size() and returns that: the caller appends it next.
  size_t FindOrAdd(const std::vector<CandidateTemplate>& candidates,
                   std::string_view canonical);

  /// Forgets every candidate, keeping the table's storage.
  void Clear();

 private:
  static constexpr size_t kMinSlots = 16;

  /// Doubles the table (at least kMinSlots), re-placing each slot by its
  /// stored hash bits.
  void Grow();

  std::vector<uint64_t> slots_;
  size_t size_ = 0;
};

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
struct GenerationWorkspace {
  ReduceWorkspace reduce_ws;
  std::string raw_template;
  std::string line_canonical;  // one line's, before it is stored below
  /// The trial's per-line canonicals back to back: line k's is
  /// canonicals[canonical_begin[k], canonical_begin[k+1]), so the lines
  /// [i, i+span) of a candidate window are one substring.
  std::string canonicals;
  std::vector<size_t> canonical_begin;
  std::vector<uint64_t> line_hash;
  std::vector<size_t> prefix_len;         // raw chars, prefix sum
  std::vector<size_t> prefix_field_len;   // field chars, prefix sum
  std::vector<uint8_t> line_has_field;
  /// Node storage of each trial's bin map. A trial's map returns its nodes
  /// here when it is destroyed, and the next trial's map reuses them, so
  /// the search allocates nodes for its largest trial once instead of one
  /// per distinct window per trial.
  NodeFreeList bin_storage;
  /// The trial's dedup of its own candidates, and the canonical it looks
  /// up next.
  CandidateIndex trial_index;
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

 private:
  GenerationResult ExhaustiveSearch();
  GenerationResult GreedySearch();
  /// Merges a trial's candidates into the search's accumulator. `index`
  /// is the accumulator's dedup, kept for the whole search so merging
  /// each trial is O(fresh) instead of O(accumulated + fresh).
  void MergeCandidates(std::vector<CandidateTemplate>* accumulated,
                       CandidateIndex* index,
                       std::vector<CandidateTemplate>&& fresh) const;

  DatasetView sample_;
  const DatamaranOptions* options_;
  ThreadPool* pool_;
  std::vector<char> search_chars_;
  /// search_chars_ plus '\n' — the superset every trial charset draws from.
  CharSet pool_charset_;
  /// The special-character mask of pool_charset_ (BuildSpecialMask),
  /// built once under kSimd and read by every worker: each trial charset
  /// drawn from the pool walks only its set bits instead of classifying
  /// every byte again.
  std::vector<uint64_t> special_mask_;
  std::vector<size_t> line_bit_;
  size_t records_hashed_ = 0;

  // Scratch for the single-threaded public RunCharset overload.
  GenerationWorkspace scratch_;
};

}  // namespace datamaran

#endif  // DATAMARAN_GENERATION_GENERATOR_H_
