#include "core/dataset.h"

#include <algorithm>
#include <utility>

#include "util/common.h"

namespace datamaran {

Dataset::Dataset(std::string text) : owned_(std::move(text)) {
  if (!owned_.empty() && owned_.back() != '\n') owned_.push_back('\n');
  BuildLineIndex();
}

Dataset::Dataset(MappedRegion region) {
  const std::string_view bytes = region.view();
  if (region.is_mapped()) {
    if (bytes.empty() || bytes.back() == '\n') {
      region_ = std::move(region);
      use_region_ = true;
    } else {
      // A mapped file without a final newline: a read-only mapping cannot
      // have one appended, so own a normalized copy instead.
      owned_.assign(bytes.begin(), bytes.end());
      owned_.push_back('\n');
    }
  } else {
    // Read fallback: adopt the region's buffer, no second copy.
    owned_ = std::move(region).ReleaseOwned();
    if (!owned_.empty() && owned_.back() != '\n') owned_.push_back('\n');
  }
  BuildLineIndex();
}

Result<Dataset> Dataset::FromFile(const std::string& path, MapMode mode,
                                  size_t mmap_threshold) {
  if (mode == MapMode::kAuto) {
    // One stat decides the mode: map large files, read small ones outright
    // so their pages are not pinned to a mapping.
    auto size = FileSizeBytes(path);
    if (!size.ok()) return size.status();
    mode = size.value() >= mmap_threshold ? MapMode::kAlways : MapMode::kNever;
  }
  if (mode == MapMode::kAlways) {
    auto region = MmapFile(path);
    if (!region.ok()) return region.status();
    return Dataset(std::move(region.value()));
  }
  auto text = ReadFileToString(path);
  if (!text.ok()) return text.status();
  return Dataset(std::move(text.value()));
}

void Dataset::BuildLineIndex() {
  const std::string_view t = text();
  // Both passes walk the text a folio at a time and release each block of
  // a mapped input behind them, so building the index holds one folio of
  // the input resident instead of the whole file.
  const auto for_each_block = [&](const auto& fn) {
    for (size_t b = 0; b < t.size(); b += kMaxFolioBytes) {
      const size_t e = std::min(b + kMaxFolioBytes, t.size());
      fn(b, t.substr(b, e - b));
      Release(b, e);
    }
  };
  // Sized exactly before filling: growing by doubling would hold the old
  // and the new array at once, up to twice the index on top of the input.
  size_t lines = 0;
  for_each_block([&](size_t, std::string_view block) {
    lines += static_cast<size_t>(std::count(block.begin(), block.end(), '\n'));
  });
  line_begin_.clear();
  line_begin_.reserve(lines);
  size_t begin = 0;
  for_each_block([&](size_t base, std::string_view block) {
    for (size_t i = 0; i < block.size(); ++i) {
      if (block[i] == '\n') {
        line_begin_.push_back(begin);
        begin = base + i + 1;
      }
    }
  });
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
