#ifndef DATAMARAN_CORE_DATASET_H_
#define DATAMARAN_CORE_DATASET_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

/// The dataset layer: one immutable owned buffer plus cheap line views.
///
/// `Dataset` holds the textual component T (Definition 2.4) — or a segment
/// of it — as an owned string plus a line index. The text is immutable for
/// the lifetime of the Dataset; all downstream stages address content by
/// line index, and records always start at a line begin and end at a line
/// end.
///
/// Nothing here holds a whole input file. The tools read every input —
/// plain, gzip'd, CRLF-stripped or stitched — through core/input.h's
/// InputReader: the discovery sample is one owned Dataset of the sampled
/// lines, and extraction scans one window-sized segment Dataset at a time,
/// so no memory grows with the input. Only library callers and the
/// whole-buffer reference OpenInputs build one Dataset of a whole text.
///
/// `DatasetView` is a Dataset plus a set of live line indices. It is the
/// pipeline's working currency: the discovery sample is a view, and each residual round of the iterated
/// structure extraction (Section 9.1) is produced by masking the matched
/// lines out of the previous view — an O(live lines) index-only transition
/// with zero text copies, in place of the old rebuild-the-residual-string
/// approach. Because the backing text never moves, line identity is stable
/// across rounds: a residual line's physical index is the one it had in the
/// sample.

namespace datamaran {

/// Access-pattern hint accepted by Dataset::Advise. Advisory only, and
/// ignored: every Dataset is owned memory.
enum class AccessHint {
  kNormal,
  kSequential,
  kRandom,
};

class Dataset {
 public:
  /// Takes ownership of `text`. A missing final newline is appended so the
  /// last block is well formed.
  explicit Dataset(std::string text);

  /// An empty Dataset, for Reset to fill.
  Dataset() = default;

  /// Replaces the text, as the constructor takes it. The line index is
  /// rebuilt in place, so a Dataset reset segment after segment allocates
  /// its index once, at the largest segment's line count.
  void Reset(std::string text);

  /// Gives the text back, capacity included, and leaves the Dataset empty
  /// (the line index keeps its capacity for the next Reset). A scan that
  /// moves its buffer in with Reset and out with Release reads every
  /// segment into one allocation.
  std::string Release();

  Dataset(const Dataset&) = delete;
  Dataset& operator=(const Dataset&) = delete;
  Dataset(Dataset&&) = default;
  Dataset& operator=(Dataset&&) = default;

  std::string_view text() const { return text_; }
  size_t size_bytes() const { return text_.size(); }
  size_t line_count() const { return line_begin_.size(); }

  /// No-op: kept for callers written against the memory-mapped backing
  /// this layer used to have.
  void Advise(AccessHint /*hint*/) const {}

  /// Byte offset of the first character of line `i`.
  size_t line_begin(size_t i) const { return line_begin_[i]; }

  /// One past the line's '\n' (== begin of line i+1).
  size_t line_end(size_t i) const {
    return i + 1 < line_begin_.size() ? line_begin_[i + 1] : text().size();
  }

  /// Line content including the trailing '\n'.
  std::string_view line_with_newline(size_t i) const {
    return text().substr(line_begin(i), line_end(i) - line_begin(i));
  }

  /// Line content without the trailing '\n'.
  std::string_view line(size_t i) const {
    auto l = line_with_newline(i);
    if (!l.empty() && l.back() == '\n') l.remove_suffix(1);
    return l;
  }

  /// Index of the line containing byte offset `pos` (binary search).
  size_t LineOfOffset(size_t pos) const;

 private:
  std::string text_;
  std::vector<size_t> line_begin_;
};

/// An ordered subset of a Dataset's lines ("live" lines). Copies are cheap
/// (the index is shared, immutable), and the backing Dataset must outlive
/// every view. View line indices are dense [0, line_count()); they map to
/// physical backing lines via physical_line().
///
/// Matching semantics across gaps: a record candidate spans consecutive
/// *live* lines. When those lines are physically contiguous in the backing
/// buffer — the overwhelmingly common case — matchers run in place, zero
/// copy. When a gap intervenes (a sampling chunk boundary, or lines removed
/// by an earlier residual round), ResolveSpan assembles just the candidate
/// window (at most max_record_span lines) into a caller-provided scratch
/// buffer, reproducing exactly the semantics of the old concatenated
/// residual string at O(record) instead of O(residual) cost.
class DatasetView {
 public:
  /// Identity view: every line of `data` is live. Implicit so call sites
  /// holding a Dataset can pass it directly to view-consuming stages.
  DatasetView(const Dataset& data);  // NOLINT(google-explicit-constructor)

  /// View of the given physical lines, which must be strictly ascending.
  DatasetView(const Dataset& data, std::vector<uint32_t> live_lines);

  const Dataset& dataset() const { return *data_; }
  bool is_identity() const { return live_ == nullptr; }

  /// Number of live lines.
  size_t line_count() const {
    return live_ != nullptr ? live_->size() : data_->line_count();
  }

  /// Total bytes of live-line content, trailing newlines included.
  size_t size_bytes() const { return size_bytes_; }

  /// Physical (backing-dataset) index of view line `v`.
  size_t physical_line(size_t v) const {
    return live_ != nullptr ? (*live_)[v] : v;
  }

  std::string_view line(size_t v) const {
    return data_->line(physical_line(v));
  }
  std::string_view line_with_newline(size_t v) const {
    return data_->line_with_newline(physical_line(v));
  }

  /// Text to run a matcher against for a candidate record spanning live
  /// lines [v, v+span). `assembled` is true when the window crossed a gap
  /// and was copied into `*scratch` (pos is then 0); otherwise `text` is
  /// the backing buffer and `pos` the window's byte offset, no copy made.
  struct SpanText {
    std::string_view text;
    size_t pos = 0;
    bool assembled = false;
  };
  SpanText ResolveSpan(size_t v, size_t span, std::string* scratch) const;

  /// True when live lines [v, v+span) exist and are physically contiguous.
  bool SpanIsContiguous(size_t v, size_t span) const;

 private:
  const Dataset* data_ = nullptr;
  /// nullptr == identity (all lines live); shared so view copies are O(1).
  std::shared_ptr<const std::vector<uint32_t>> live_;
  size_t size_bytes_ = 0;
};

}  // namespace datamaran

#endif  // DATAMARAN_CORE_DATASET_H_
