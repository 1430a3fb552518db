#ifndef DATAMARAN_UTIL_SAMPLER_H_
#define DATAMARAN_UTIL_SAMPLER_H_

#include <cstddef>
#include <functional>
#include <vector>

#include "core/dataset.h"

/// Cache-aware sampling (Section 9.1, "Sampling Technique"): for large
/// datasets the generation and evaluation steps run on a few large
/// line-aligned chunks instead of the whole file, bounding S_data by a
/// constant. SampleRanges places the chunks; for an input on disk,
/// core/input.h's InputReader reads exactly those ranges into one owned
/// sample Dataset (the input is never held whole), and for text already
/// in memory SampleView is a DatasetView of the sampled lines — the same
/// lines either way. The final extraction pass always scans the full
/// file.

namespace datamaran {

struct SamplerOptions {
  /// Upper bound on the combined sample size in bytes. Files at or below
  /// this size are used whole.
  size_t max_sample_bytes = 256 * 1024;
  /// Number of chunks spread evenly through the file.
  int num_chunks = 8;
  /// Oversized-line guard: lines whose content (newline excluded) exceeds
  /// this many bytes are excluded from the sample view, so generation never
  /// tokenizes or indexes a pathological multi-MB line — it degrades to
  /// noise (the extraction scan applies the same cap). 0 = unlimited.
  size_t max_line_bytes = 0;
};

/// One line-aligned chunk: byte offsets [begin, end) into the sampled text.
struct SampleRange {
  size_t begin = 0;
  size_t end = 0;
};

/// Line-aligned, non-overlapping, ascending chunk ranges of a text of
/// `size` bytes that ends in '\n', totaling at most (approximately)
/// max_sample_bytes. Each chunk starts at the line after the one holding
/// its nominal offset and always ends on a line boundary, so every chunk is
/// a well-formed '\n'-separated block sequence (Definition 2.4 still
/// applies to the sampled lines). A text at or below the budget yields the
/// single range [0, size). `end_of_line_at(p)` returns one past the '\n'
/// ending the line that holds byte p (p < size): the only way the rule
/// looks at the text, so the ranges can come from a line index or from a
/// search through a file. The queries come in ascending p, never before
/// the previous answer, and alternate: the first finds the end of chunk
/// 0 (which begins at byte 0), then each later chunk's begin and, unless
/// the chunk runs to the end of the text, its end — so one forward pass
/// over a stream can answer them and collect the chunks on the way.
std::vector<SampleRange> SampleRanges(
    size_t size, const SamplerOptions& options,
    const std::function<size_t(size_t)>& end_of_line_at);

/// SampleRanges of `data`'s text, from the line index alone: finding the
/// ranges reads no text.
std::vector<SampleRange> SampleRanges(const Dataset& data,
                                      const SamplerOptions& options);

/// View of the sampled lines of `data` (no text copy), over-cap lines
/// left out. The whole-file case returns the identity view.
DatasetView SampleView(const Dataset& data, const SamplerOptions& options);

}  // namespace datamaran

#endif  // DATAMARAN_UTIL_SAMPLER_H_
