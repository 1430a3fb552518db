#ifndef DATAMARAN_CORE_SUMMARY_H_
#define DATAMARAN_CORE_SUMMARY_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "core/datamaran.h"
#include "core/options.h"
#include "util/json.h"

/// Machine-readable per-file run summary: the one struct behind both the
/// CLI's --summary-json flag and the crawler's lake manifest, so any
/// downstream consumer parses a single shape. Rendering is plain
/// hand-rolled JSON (like BENCH_micro.json and the NDJSON sink) — no
/// dependencies, deterministic key order.

namespace datamaran {

/// Everything a run knows about one input file. Timing fields are the only
/// nondeterministic content; all counts are byte-exact across thread count,
/// engine, and input path.
struct FileSummary {
  std::string path;
  size_t input_bytes = 0;
  /// Change-detection identity of the source file(s) behind this summary,
  /// filled by the crawler: total on-disk size and the newest member's
  /// mtime in nanoseconds. `--incremental` re-crawls compare these against
  /// the previous manifest and skip files whose pair is unchanged.
  size_t source_size = 0;
  int64_t source_mtime_ns = 0;
  /// True when an incremental re-crawl restored this summary from the
  /// previous manifest instead of re-extracting the file.
  bool skipped = false;

  /// Failure containment: when the input layer or extraction failed, the
  /// Status rendered as "CODE: message" (empty = the run succeeded). A
  /// summary with a non-empty error carries only the fields known before
  /// the failure; the crawler's manifest aggregates these into its errors
  /// section instead of aborting the crawl.
  std::string error;

  /// Structure: Display() forms of the templates used for extraction.
  std::vector<std::string> templates;

  /// Extraction counts (whole file).
  size_t total_lines = 0;
  size_t records = 0;
  std::vector<size_t> records_per_template;
  size_t noise_lines = 0;
  double match_rate = 0;  ///< ExtractionResult::line_match_rate()
  double coverage = 0;    ///< covered chars / total chars

  /// Catalog fast path.
  bool catalog_checked = false;
  bool catalog_hit = false;
  int catalog_entry = -1;
  double catalog_match_rate = 0;  ///< sample match rate of the hit
  /// Sample fingerprint matched a catalog entry but the whole file did
  /// not clear the threshold — the file's tail drifted from its format.
  bool drifted = false;

  /// Streaming (--follow) runs only: `streaming` marks the summary as
  /// produced by a live StreamingSession, and the stream_* counters mirror
  /// StreamStats. Batch summaries omit the whole "stream" JSON object and
  /// the parser defaults every field here, so pre-streaming manifests keep
  /// parsing unchanged.
  bool streaming = false;
  size_t stream_epochs = 0;       ///< 1 after warm-up, +1 per evolution
  size_t stream_evolutions = 0;   ///< drift evolutions that added templates
  size_t stream_discovery_runs = 0;
  size_t stream_checkpoints = 0;  ///< successful catalog saves
  size_t stream_oversized_lines = 0;

  /// Resolved configuration.
  std::string match_engine;
  std::string charset_engine;
  int threads = 0;

  StepTimings timings;
};

/// Fills the counts/config/catalog fields of a FileSummary from a pipeline
/// result. The records_per_template split comes from the extractor's own
/// per-template accounting, so it is populated on streaming-sink runs
/// exactly as on collecting ones. `drifted` is derived from the catalog
/// hit and options.catalog_min_match.
FileSummary SummarizeResult(const std::string& path, const PipelineResult& r,
                            const DatamaranOptions& options);

/// Appends `s` as a JSON object, each line prefixed by `indent` spaces; no
/// trailing newline. Keys are emitted in declaration order.
void AppendFileSummaryJson(const FileSummary& s, int indent, std::string* out);

/// Renders one summary as a standalone JSON document (trailing newline).
std::string FileSummaryToJson(const FileSummary& s);

/// Inverse of AppendFileSummaryJson: rebuilds a FileSummary from its parsed
/// JSON object (the incremental re-crawl restores unchanged files' summaries
/// from the previous manifest this way). Every field the writer emits is
/// required and type-checked; unknown keys are ignored (among them the
/// "input_mapped" flag older manifests carry). Counters round-trip exactly
/// and %.6f doubles re-render byte-identically, so restore +
/// AppendFileSummaryJson reproduces the original object, less any
/// ignored key.
Result<FileSummary> FileSummaryFromJson(const JsonValue& v);

}  // namespace datamaran

#endif  // DATAMARAN_CORE_SUMMARY_H_
