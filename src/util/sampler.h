#ifndef DATAMARAN_UTIL_SAMPLER_H_
#define DATAMARAN_UTIL_SAMPLER_H_

#include <cstddef>
#include <optional>
#include <vector>

#include "core/dataset.h"

/// Cache-aware sampling (Section 9.1, "Sampling Technique"): for large
/// datasets the generation and evaluation steps run on a few large
/// line-aligned chunks instead of the whole file, bounding S_data by a
/// constant. The chunk ranges come from the line index alone, and the
/// sample is a DatasetView of the sampled lines — no text copy — except
/// for a mapped input larger than the budget, whose sampled lines are
/// copied into one owned buffer (DiscoverySample). The copy is what keeps
/// the mapping unpinned: reading one byte of a chunk can map its whole
/// 2 MiB page-cache folio, so a view of eight chunks spread through the
/// file keeps up to 16 MiB of it mapped while discovery re-reads the
/// sample round after round. The copy reads each chunk once, releases its
/// folios, and holds at most about max_sample_bytes. The final extraction
/// pass always scans the full file.

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

/// Line-aligned, non-overlapping, ascending chunk ranges of `data`'s text
/// totaling at most (approximately) max_sample_bytes. Each chunk starts at
/// the line after the one holding its nominal offset and always ends on a
/// line boundary, so every chunk is a well-formed '\n'-separated block
/// sequence (Definition 2.4 still applies to the sampled lines). A text at
/// or below the budget yields the single range [0, size). Computed from
/// the line index only: finding the ranges reads no text.
std::vector<SampleRange> SampleRanges(const Dataset& data,
                                      const SamplerOptions& options);

/// View of the sampled lines of `data` (no text copy). The whole-file case
/// returns the identity view.
DatasetView SampleView(const Dataset& data, const SamplerOptions& options);

/// An owned Dataset holding exactly SampleView's lines, in order, as one
/// contiguous text (at most about max_sample_bytes). Each contiguous run of
/// sampled lines is released from a mapped `data` (Dataset::Release,
/// rounded out to whole folios) once it is copied. The copy's identity
/// view matches the gapped SampleView for every stage: a record window
/// that crosses a chunk boundary reads the same concatenated lines that
/// DatasetView::ResolveSpan would assemble, and the text ends after the
/// last sampled line just as the assembled window does.
Dataset SampleCopy(const Dataset& data, const SamplerOptions& options);

/// The sample discovery and catalog fingerprinting run on. A mapped input
/// larger than max_sample_bytes is copied (SampleCopy into `*copy`, which
/// must outlive the returned view); any other input gets SampleView and
/// `*copy` is left untouched. Templates and scores are identical either
/// way; view counters that count assembled cross-gap windows (such as
/// residual_copy_bytes) may differ between the two backings.
DatasetView DiscoverySample(const Dataset& data, const SamplerOptions& options,
                            std::optional<Dataset>* copy);

}  // namespace datamaran

#endif  // DATAMARAN_UTIL_SAMPLER_H_
