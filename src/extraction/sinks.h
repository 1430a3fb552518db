#ifndef DATAMARAN_EXTRACTION_SINKS_H_
#define DATAMARAN_EXTRACTION_SINKS_H_

#include <cstdio>
#include <deque>
#include <string>
#include <string_view>
#include <vector>

#include "core/dataset.h"
#include "extraction/extractor.h"
#include "extraction/relational.h"
#include "util/status.h"

/// Streaming columnar output sinks: EventSink implementations that turn the
/// extraction scan's flat MatchEvent stream into per-template relational
/// files incrementally, without ever materializing ParsedValue trees or an
/// in-memory record set. Combined with the wave-bounded parallel scan
/// (Extractor::ExtractEvents) over window-sized segments of the input
/// (core/input.h InputReader), `datamaran_cli --out` therefore runs a
/// multi-GB extraction at constant peak memory end to end — in both the
/// denormalized and the normalized layout.
///
/// Determinism is a hard contract: records and noise lines arrive in scan
/// order regardless of thread count, match engine, or window size, and
/// the writers are pure functions of that sequence — the emitted files are
/// byte-identical across all of those configurations (enforced by the CLI
/// golden tests and the wave-determinism tests).
///
/// Two layouts, both defined by extraction/relational.h:
///
///  * ColumnarWriteSink — denormalized: one file per record type,
///    `type<t>.csv` (RFC-4180 quoting, header row, byte-identical to
///    Table::ToCsv of the tree path) or `type<t>.ndjson` (one JSON object
///    per record, keys f0..fn-1).
///  * NormalizedWriteSink — normalized (CSV only): per record type, a root
///    table `type<t>.csv` plus one child table `type<t>_arr<a>.csv` per
///    array node, child rows carrying (id, parent_id, pos) foreign keys.
///    Row ids are assigned by per-table counters that advance in stitched
///    scan order: the row builder emits record-relative ids and the sink
///    rebases them at flush time (the row-id contract in relational.h), so
///    every file is byte-identical to the collecting path's
///    Table::ToCsv output for the same table.
///
/// Both sinks also stream `noise.txt` holding every unmatched line
/// verbatim. All files are created up front so the output directory's
/// shape depends only on the template set.

namespace datamaran {

/// Output file format for ColumnarWriteSink.
enum class OutputFormat {
  kCsv,
  kNdjson,
};

/// Appends `s` to `out` as the body of a JSON string literal (quotes not
/// included): `"` and `\` are backslash-escaped, control bytes < 0x20 use
/// the short escapes (\n, \t, \r, \b, \f) or \u00XX, and all other bytes —
/// including non-UTF8 ones — pass through verbatim, so a byte-oriented
/// unescape reproduces `s` exactly.
void AppendJsonEscaped(std::string_view s, std::string* out);

/// Counters a streaming extraction accumulates; the streaming counterpart
/// of ExtractionResult's record/noise vectors (which a streaming run never
/// materializes). Matches the collecting path exactly — same records per
/// template, same noise count — for every dataset, including the
/// appended-final-newline edge case.
struct SinkStats {
  std::vector<size_t> records_per_template;
  size_t total_records = 0;
  size_t noise_lines = 0;
  size_t bytes_written = 0;  // payload bytes handed to the OS so far
};

/// Shared machinery of the file-writing EventSinks: a set of buffered FILE
/// streams, the noise-line stream, sticky I/O error handling, and the
/// wave-flush protocol. Rows append to a per-file buffer that flushes to
/// disk at a size threshold and at every wave boundary, so buffered output
/// is O(wave). I/O errors are sticky: the first failure is recorded, later
/// writes become no-ops, and Finish() reports it.
class WriteSinkBase : public EventSink {
 public:
  ~WriteSinkBase() override;

  WriteSinkBase(const WriteSinkBase&) = delete;
  WriteSinkBase& operator=(const WriteSinkBase&) = delete;

  void OnNoiseLine(size_t line_index) override;
  /// Streaming noise path: writes the carried text directly (the batch
  /// path resolves the index against `data_` instead; same bytes).
  void OnNoiseText(size_t line_index,
                   std::string_view line_with_newline) override;
  /// Streaming evolution path: opens the new record types' output files
  /// mid-stream via AddTemplate. Template ids continue from the current
  /// count, matching the extractor's numbering.
  void OnTemplatesAdded(
      const std::vector<const StructureTemplate*>& added) override;
  void OnWaveEnd() override;

  /// Appends one record type: opens its output file(s) under the
  /// constructor's out_dir, writes headers, and extends the per-template
  /// state — the unit both the constructors (looping over the initial
  /// template set) and OnTemplatesAdded (splicing mid-stream) build on.
  /// `st` must outlive the sink.
  virtual void AddTemplate(const StructureTemplate* st) = 0;

  /// Flushes and closes every file; returns the first error encountered
  /// (construction, write, or close). Idempotent. The destructor calls it,
  /// but callers that care about errors should call it explicitly.
  Status Finish();

  const SinkStats& stats() const { return stats_; }

  /// Current health: ok() until the first construction or write error.
  /// Callers should check this right after construction — a sink that
  /// failed to open its files consumes the scan as a counting no-op, so
  /// bailing early saves the whole extraction pass.
  const Status& status() const { return status_; }

  /// File name of the noise stream ("noise.txt").
  static std::string NoiseFileName();

  static constexpr size_t kDefaultFlushThreshold = 1 << 20;

 protected:
  struct Stream {
    FILE* file = nullptr;
    std::string path;  // for error messages
    std::string buffer;
  };

  /// `data` must be the view being extracted (it resolves noise-line
  /// text; streaming callers that only ever deliver noise via OnNoiseText
  /// may pass a view of an empty Dataset) and must outlive the sink.
  /// Derived constructors call MakeOutDir then AddTemplate per initial
  /// template, and finally OpenNoiseStream.
  WriteSinkBase(const DatasetView& data, size_t flush_threshold_bytes);

  /// Grows the per-template record counter; every AddTemplate override
  /// calls this once.
  void RegisterTemplate() { stats_.records_per_template.push_back(0); }

  const std::string& out_dir() const { return out_dir_; }

  /// Creates `out_dir` (and parents). Failure is sticky like any write.
  void MakeOutDir(const std::string& out_dir);
  /// Opens `path` for writing and returns the stream handle, stable for
  /// the sink's lifetime. On failure the sink's status turns sticky-bad
  /// and the stream's file stays null (writes become no-ops).
  Stream* AddStream(const std::string& path);
  void MaybeFlush(Stream* stream);
  void Fail(const std::string& message);
  void OpenNoiseStream(const std::string& out_dir);

  DatasetView data_;
  Stream* noise_stream_ = nullptr;
  SinkStats stats_;

 private:
  void FlushStream(Stream* stream);

  size_t flush_threshold_;
  std::string out_dir_;  ///< remembered by MakeOutDir for AddTemplate
  std::deque<Stream> streams_;  // deque: handles stay valid as we add
  Status status_ = Status::Ok();
  bool finished_ = false;
};

/// Streams per-template denormalized files from the flat event stream. One
/// DenormalizedRowBuilder per template unfolds each record's events into
/// cells (array repetitions joined with the array separator, identical to
/// the tree path).
class ColumnarWriteSink : public WriteSinkBase {
 public:
  /// Writes into `out_dir` (created if missing): one type<t>.<ext> per
  /// template plus noise.txt. `templates` must be the extractor's template
  /// vector; it and `data` must outlive the sink.
  ColumnarWriteSink(const std::vector<StructureTemplate>* templates,
                    const DatasetView& data, const std::string& out_dir,
                    OutputFormat format = OutputFormat::kCsv,
                    size_t flush_threshold_bytes = kDefaultFlushThreshold);

  void OnRecord(int template_id, size_t first_line, std::string_view text,
                size_t pos, size_t end, const MatchEvent* events,
                size_t num_events) override;

  void AddTemplate(const StructureTemplate* st) override;

  /// File name of record type `t` under this format ("type3.csv").
  static std::string FileName(size_t template_id, OutputFormat format);

 private:
  OutputFormat format_;
  std::vector<Stream*> type_streams_;  // one per template
  std::vector<DenormalizedRowBuilder> rows_;  // one per template
  std::vector<std::string> json_keys_;  // `"fN":"` prefixes (ndjson only)
};

/// Streams the normalized (multi-table) layout from the flat event stream:
/// per template, a root table file plus one child table file per array
/// node (CSV only — the layout is relational by construction). Each
/// record's rows come from an event-driven NormalizedRowBuilder with
/// record-relative ids; this sink owns the per-table row-id counters and
/// rebases the relative ids as the stitch flushes each record, advancing
/// the counters by the record's per-table row counts afterwards. Because
/// OnRecord arrives in stitched scan order, the counters — and therefore
/// every id and parent_id cell — are byte-identical to the collecting
/// path's NormalizedTables output for every thread count, match engine,
/// and input window size.
class NormalizedWriteSink : public WriteSinkBase {
 public:
  /// Writes into `out_dir` (created if missing): type<t>.csv and
  /// type<t>_arr<a>.csv per template (per NormalizedSchemaFor) plus
  /// noise.txt. `templates` must be the extractor's template vector; it
  /// and `data` must outlive the sink.
  NormalizedWriteSink(const std::vector<StructureTemplate>* templates,
                      const DatasetView& data, const std::string& out_dir,
                      size_t flush_threshold_bytes = kDefaultFlushThreshold);

  void OnRecord(int template_id, size_t first_line, std::string_view text,
                size_t pos, size_t end, const MatchEvent* events,
                size_t num_events) override;

  void AddTemplate(const StructureTemplate* st) override;

  /// Rows written so far to table `table` of record type `template_id`
  /// (table 0 is the root; 1..A the array child tables).
  size_t rows_in_table(size_t template_id, size_t table) const {
    return state_[template_id].next_id[table];
  }
  /// Number of tables in record type `template_id`'s normalized layout.
  size_t table_count(size_t template_id) const {
    return state_[template_id].next_id.size();
  }

  /// File name of table `table` of record type `t` ("type3.csv",
  /// "type3_arr1.csv") — `NormalizedSchemaFor(st, "type<t>")` name + ext.
  static std::string TableFileName(size_t template_id, size_t table);

 private:
  struct PerTemplate {
    NormalizedRowBuilder builder;
    std::vector<Stream*> tables;  // one stream per schema table
    std::vector<size_t> next_id;  // running per-table row-id bases
    explicit PerTemplate(const StructureTemplate* st) : builder(st) {}
  };

  std::vector<PerTemplate> state_;  // one per template
  std::vector<size_t> record_rows_;  // per-table scratch, one record
};

}  // namespace datamaran

#endif  // DATAMARAN_EXTRACTION_SINKS_H_
