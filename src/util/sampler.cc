#include "util/sampler.h"

#include <algorithm>
#include <utility>

#include "util/common.h"

namespace datamaran {

std::vector<SampleRange> SampleRanges(
    size_t size, const SamplerOptions& options,
    const std::function<size_t(size_t)>& end_of_line_at) {
  if (size <= options.max_sample_bytes) {
    return {{0, size}};
  }
  DM_CHECK(options.num_chunks > 0);
  const size_t chunk_bytes = options.max_sample_bytes / options.num_chunks;
  const size_t stride = size / options.num_chunks;
  std::vector<SampleRange> ranges;
  size_t last_end = 0;  // avoid overlapping chunks
  for (int i = 0; i < options.num_chunks; ++i) {
    const size_t nominal = static_cast<size_t>(i) * stride;
    size_t begin = std::max(nominal, last_end);
    if (begin >= size) break;
    // Start on the line after the one holding the nominal offset.
    if (begin > 0) begin = end_of_line_at(begin);
    if (begin >= size) break;
    // Extend to the end of the line holding the nominal end.
    const size_t end = std::min(begin + chunk_bytes, size);
    ranges.push_back({begin, end < size ? end_of_line_at(end) : size});
    last_end = ranges.back().end;
  }
  return ranges;
}

std::vector<SampleRange> SampleRanges(const Dataset& data,
                                      const SamplerOptions& options) {
  // Every line of a Dataset ends in '\n', so "one past the '\n' at or after
  // byte p" is the end of the line holding p: a binary search of the index.
  return SampleRanges(data.size_bytes(), options, [&](size_t p) {
    return data.line_end(data.LineOfOffset(p));
  });
}

DatasetView SampleView(const Dataset& data, const SamplerOptions& options) {
  // Oversized-line containment: a line beyond the cap never enters the
  // sample (and with it generation's per-line token index); it can only
  // ever be noise. The check is a pure function of the line length, so the
  // sample is identical for every input path and thread count. The length
  // comes from the index (every Dataset line ends in '\n').
  const size_t cap = options.max_line_bytes;
  const auto line_ok = [&](size_t li) {
    return cap == 0 || data.line_end(li) - data.line_begin(li) - 1 <= cap;
  };
  std::vector<SampleRange> ranges = SampleRanges(data, options);
  if (ranges.size() == 1 && ranges[0].begin == 0 &&
      ranges[0].end == data.size_bytes()) {
    bool all_ok = true;
    if (cap != 0) {
      for (size_t li = 0; li < data.line_count() && all_ok; ++li) {
        all_ok = line_ok(li);
      }
    }
    if (all_ok) return DatasetView(data);
  }
  std::vector<uint32_t> live;
  for (const SampleRange& r : ranges) {
    // Range bounds are line-aligned by construction, so the covered lines
    // are exactly those whose begin falls inside the range.
    size_t li = data.LineOfOffset(r.begin);
    if (data.line_begin(li) < r.begin) ++li;
    for (; li < data.line_count() && data.line_begin(li) < r.end; ++li) {
      if (line_ok(li)) live.push_back(static_cast<uint32_t>(li));
    }
  }
  return DatasetView(data, std::move(live));
}

}  // namespace datamaran
