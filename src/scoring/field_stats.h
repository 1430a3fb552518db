#ifndef DATAMARAN_SCORING_FIELD_STATS_H_
#define DATAMARAN_SCORING_FIELD_STATS_H_

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "template/matcher.h"
#include "template/template.h"

/// Field-value typing for the MDL regularity score (Section 9.2). Each field
/// leaf of a structure template is one relational column; all repetitions of
/// an array pool into the element's columns. A column is described with the
/// cheapest applicable scheme among:
///   enumerated:  ceil(log2 n_distinct) bits per value + the dictionary
///   integer:     ceil(log2(max - min + 1)) bits per value
///   real:        ceil(log2((max - min) * 10^exp + 1)) bits per value
///   string:      8 * (len + 1) bits per value
/// Model parameters (type tag, bounds, dictionary) are charged to the column
/// so that the comparison between types is an honest two-part code.

namespace datamaran {

enum class FieldType { kEnum, kInt, kReal, kString };

const char* FieldTypeName(FieldType type);

/// Accumulates the values observed in one column.
///
/// The enum scheme's dictionary is interned: each distinct value's bytes
/// are copied once, after their length, into the column's own blocks, and
/// an open-addressed table of value indices with stored hash bits finds
/// them again, so a repeated value costs one hash and one compare and
/// allocates nothing; only the dictionary's growth allocates. Blocks never
/// move and hold at most kMaxBlock bytes (a longer value gets a block of
/// its own): a dictionary grown by doubling one buffer would hold the old
/// and the new copy at once, and a sample's worth of distinct values then
/// raises the process's peak. A column whose distinct values pass
/// kMaxDistinct can no longer be an enum, so it frees the dictionary and
/// keeps only its distinct count. Values are copied, never kept as views
/// of the caller's text: a window that straddles a view gap is parsed out
/// of the scorer's reused scratch buffer (DatasetView::ResolveSpan), which
/// the next window overwrites.
class ColumnStats {
 public:
  void Add(std::string_view value);

  size_t count() const { return count_; }
  /// Distinct values seen, counted up to kMaxDistinct + 1.
  size_t distinct_count() const { return distinct_; }
  bool all_int() const { return all_int_; }
  bool all_real() const { return all_real_; }

  /// The cheapest valid type for this column.
  FieldType InferType() const;

  /// Total description bits for all values under `type`
  /// (returns +inf for inapplicable types). Includes parameter costs.
  double TotalBits(FieldType type) const;

  /// TotalBits(InferType()).
  double BestBits() const;

 private:
  static constexpr size_t kMaxDistinct = 4096;
  static constexpr size_t kMinSlots = 8;
  static constexpr size_t kMinBlock = 64;
  static constexpr size_t kMaxBlock = 16 * 1024;
  /// A slot holds a value's id (1 + its index in values_; 0 marks an empty
  /// slot) in its low kIdBits bits and the top 32 - kIdBits bits of the
  /// value's 32-bit hash above them. A table of 2^k slots places a value
  /// by the top k bits of its hash, so growing never hashes a value again.
  static constexpr int kIdBits = 13;
  static constexpr uint32_t kIdMask = (uint32_t{1} << kIdBits) - 1;
  static_assert(kMaxDistinct <= kIdMask);
  static_assert(2 * kMaxDistinct <= size_t{1} << (32 - kIdBits));

  void Intern(std::string_view value);
  /// The distinct value whose index is `index`.
  std::string_view Value(size_t index) const;
  /// Copies `value` into the blocks after its length, a base-128 varint,
  /// and returns where that length starts.
  const char* Store(std::string_view value);
  /// Doubles the table (at least kMinSlots), re-placing each value by
  /// its stored hash bits.
  void Grow();

  size_t count_ = 0;
  size_t total_len_ = 0;
  bool all_int_ = true;
  bool all_real_ = true;
  int64_t min_int_ = 0, max_int_ = 0;
  double min_real_ = 0, max_real_ = 0;
  int max_exp_ = 0;
  std::vector<std::unique_ptr<char[]>> blocks_;
  size_t block_size_ = 0;  ///< of blocks_.back()
  size_t block_used_ = 0;  ///< bytes of blocks_.back() holding values
  std::vector<const char*> values_;  ///< each distinct value, in blocks_
  size_t dict_bytes_ = 0;            ///< their total length
  std::vector<uint32_t> slots_;      ///< power-of-two size, at most half full
  size_t distinct_ = 0;
};

/// Collects per-column statistics and array-repetition coding costs for all
/// records of one structure template.
class TemplateStatsCollector {
 public:
  explicit TemplateStatsCollector(const StructureTemplate* st);

  /// Adds one parsed record (the ParsedValue tree must come from the same
  /// template's matcher).
  void AddRecord(const ParsedValue& root, std::string_view text);

  /// Adds one record from a flat event stream (TemplateMatcher::ParseFlat
  /// with the same template). Equivalent to AddRecord but consumes the
  /// allocation-free representation directly, so the scoring hot loop
  /// never builds a ParsedValue tree.
  void AddRecordFlat(const std::vector<MatchEvent>& events,
                     std::string_view text);

  /// Bits for all field values (best type per column, parameters included).
  double FieldBits() const;

  /// Bits for all array repetition counts (Elias-gamma style universal
  /// code: 2*floor(log2 k) + 1 bits for count k).
  double ArrayCountBits() const { return array_bits_; }

  size_t record_count() const { return records_; }
  const std::vector<ColumnStats>& columns() const { return columns_; }

 private:
  void Walk(const TemplateNode& node, const ParsedValue& value,
            std::string_view text);

  const StructureTemplate* st_;
  /// Column index of each kField leaf (pre-order over leaves, array
  /// elements counted once). The single source of truth for bucketing,
  /// shared by the tree path (Walk) and the flat path (AddRecordFlat).
  std::unordered_map<const TemplateNode*, int> field_column_;
  std::vector<ColumnStats> columns_;
  double array_bits_ = 0;
  size_t records_ = 0;
};

/// Universal-code cost of a positive integer (Elias gamma).
double GammaBits(uint64_t k);

/// ceil(log2(n)) with Log2Ceil(0) == Log2Ceil(1) == 0.
double Log2Ceil(double n);

}  // namespace datamaran

#endif  // DATAMARAN_SCORING_FIELD_STATS_H_
