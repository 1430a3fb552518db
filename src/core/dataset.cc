#include "core/dataset.h"

#include <algorithm>
#include <bit>
#include <utility>

#include "util/byte_class.h"
#include "util/common.h"

namespace datamaran {

namespace {

/// Classifies '\n' 64 bytes at a time, with AVX2 when the CPU has it
/// (util/byte_class.h).
const ByteClassifier& NewlineClassifier() {
  static const ByteClassifier classifier = [] {
    CharSet newline;
    newline.Add('\n');
    return ByteClassifier(newline, CharsetEngine::kSimd);
  }();
  return classifier;
}

}  // namespace

Dataset::Dataset(std::string text) { Reset(std::move(text)); }

std::string Dataset::Release() {
  std::string text = std::move(text_);
  text_.clear();
  line_begin_.clear();
  return text;
}

void Dataset::Reset(std::string text) {
  text_ = std::move(text);
  line_begin_.clear();
  if (text_.empty()) return;
  if (text_.back() != '\n') text_.push_back('\n');
  // Two passes over 64-byte newline masks: the first counts, so the index
  // is sized before it is filled (growing by doubling would hold the old
  // and the new array at once); the second writes one past each '\n' as
  // the begin of the line after it, line 0 beginning at 0. The final '\n'
  // ends the text, so its slot is the one spare entry, dropped at the end.
  const ByteClassifier& newline = NewlineClassifier();
  const size_t size = text_.size();
  size_t lines = 0;
  for (size_t pos = 0; pos < size; pos += 64) {
    lines += static_cast<size_t>(std::popcount(newline.MaskBlock(text_, pos)));
  }
  line_begin_.resize(lines + 1);
  size_t* next = line_begin_.data() + 1;
  for (size_t pos = 0; pos < size; pos += 64) {
    for (uint64_t m = newline.MaskBlock(text_, pos); m != 0; m &= m - 1) {
      *next++ = pos + static_cast<size_t>(std::countr_zero(m)) + 1;
    }
  }
  line_begin_.pop_back();
}

size_t Dataset::LineOfOffset(size_t pos) const {
  auto it = std::upper_bound(line_begin_.begin(), line_begin_.end(), pos);
  if (it == line_begin_.begin()) return 0;
  return static_cast<size_t>(it - line_begin_.begin()) - 1;
}

DatasetView::DatasetView(const Dataset& data)
    : data_(&data), size_bytes_(data.size_bytes()) {}

DatasetView::DatasetView(const Dataset& data, std::vector<uint32_t> live_lines)
    : data_(&data) {
  for (size_t i = 0; i < live_lines.size(); ++i) {
    const size_t p = live_lines[i];
    DM_CHECK(p < data.line_count());
    DM_CHECK(i == 0 || live_lines[i - 1] < live_lines[i]);
    size_bytes_ += data.line_end(p) - data.line_begin(p);
  }
  live_ = std::make_shared<const std::vector<uint32_t>>(std::move(live_lines));
}

bool DatasetView::SpanIsContiguous(size_t v, size_t span) const {
  if (span == 0) span = 1;
  if (v + span > line_count()) return false;
  if (live_ == nullptr) return true;
  return (*live_)[v + span - 1] == (*live_)[v] + span - 1;
}

DatasetView::SpanText DatasetView::ResolveSpan(size_t v, size_t span,
                                               std::string* scratch) const {
  if (span == 0) span = 1;
  // Identity views are always in place: the backing text simply ends after
  // its last line, so a window that runs off the end fails to match exactly
  // as it would against a standalone buffer.
  if (live_ == nullptr) {
    return {data_->text(), data_->line_begin(v), false};
  }
  if (SpanIsContiguous(v, span)) {
    return {data_->text(), data_->line_begin((*live_)[v]), false};
  }
  // The window crosses a gap (or runs past the last live line, where the
  // backing text continues with dead lines an in-place matcher could
  // wrongly consume): assemble exactly the live window.
  scratch->clear();
  const size_t stop = std::min(v + span, line_count());
  for (size_t i = v; i < stop; ++i) {
    const std::string_view l = line_with_newline(i);
    scratch->append(l.data(), l.size());
  }
  return {std::string_view(*scratch), 0, true};
}

}  // namespace datamaran
