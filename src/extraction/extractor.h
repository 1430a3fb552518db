#ifndef DATAMARAN_EXTRACTION_EXTRACTOR_H_
#define DATAMARAN_EXTRACTION_EXTRACTOR_H_

#include <cstddef>
#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "core/dataset.h"
#include "template/dispatch.h"
#include "template/matcher.h"
#include "template/template.h"

/// Whole-file extraction with the final structure templates (the canonical
/// LL(1) parse of Section 3.3). The scan walks the live lines of a
/// DatasetView; at each line the templates are tried in priority order —
/// dispatched through a TemplateSetIndex on the line's first byte, so only
/// templates whose FIRST set admits the line are attempted — the first
/// match emits one record and skips its span, and unmatched lines are
/// noise. Matching runs on the configured engine (compiled bytecode by
/// default; the tree walker reference via MatchEngine::kTree) with
/// byte-identical output either way. The input is an identity view (every
/// line of its dataset live; a gapped view is a programming error), so every
/// candidate window is matched in place on the backing buffer.
///
/// Segments. The tools never scan an input or a stream as one buffer:
/// batch reads an input in window-sized segments (core/input.h InputReader)
/// and --follow cuts its stream into window-sized batches of lines
/// (core/stream.h), and both decide each segment with ExtractSegment, the
/// one segment rule. A record starting at line k spans at most the longest
/// template's line_span() lines, so a decision is final once that many
/// lines minus one follow it: ExtractSegment forwards every decision with
/// this lookahead, renumbered to stream lines, and returns the first
/// undecided line, which the caller carries into the next segment. The
/// decided sequence is therefore the whole-stream scan, whatever the
/// segment boundaries.
///
/// This pass dominates total runtime for large files (Section 5.2.2) and is
/// embarrassingly chunk-parallel; given a thread pool this implementation
/// shards the view into line-range chunks, scans them speculatively in
/// parallel, and stitches the per-chunk results back together in order.
///
/// Stitching preserves the sequential semantics exactly: whether a record
/// *starts* at line k depends on earlier matches (a span-s record consumes
/// the next s-1 lines), but the match attempt itself is a pure function of
/// the text and the templates. Each chunk records the lines it attempted;
/// the sequential stitch walks chunks in order and, when the incoming line
/// position equals one of the chunk's attempted lines, splices the rest of
/// the chunk's speculative stream wholesale. When a long record spills
/// across a chunk boundary and desynchronizes the stream, the stitch
/// re-matches lines one by one until the positions realign. The emitted
/// record/noise sequence — and therefore every downstream artifact — is
/// byte-identical for every thread count and every segmentation.
///
/// Sink family. Records parse flat (template/matcher.h MatchEvent streams);
/// the scan buffers nothing but those events plus span bookkeeping, so peak
/// memory is O(wave), not O(file):
///
///  * EventSink is the primitive consumer: it receives each record's flat
///    event stream in scan order (ExtractEvents). The columnar writers in
///    extraction/sinks.h implement it to stream per-template denormalized
///    CSV/NDJSON rows or the normalized multi-table CSV layout, plus a
///    noise-line stream, straight to disk, never materializing a
///    ParsedValue, which is what keeps `datamaran_cli --out` O(wave) in
///    memory end to end on a multi-GB file.
///  * Extract collects everything into an ExtractionResult through a
///    private EventSink that replays each event stream into a ParsedValue
///    (BuildParsedValue) as the record arrives; O(file) memory, for callers
///    that want the records.
///
/// Ordering and row-id rebase contract. Speculative chunks buffer raw
/// events only — they never see output row numbering, because a chunk
/// cannot know how many records (or normalized child rows) precede it
/// until the stitch runs. All numbering therefore happens at flush time:
/// OnRecord calls arrive strictly in sequential scan order, so a sink may
/// assign global ids by advancing its own counters per record — the
/// normalized writer rebases each record's record-relative row ids
/// (relational.h NormalizedRowBuilder) against per-table counters that
/// travel with this order-preserving stitch. This is what makes every
/// derived id byte-identical across thread counts without the chunks ever
/// coordinating.
///
/// Wave-flush invariants. OnWaveEnd fires (a) after each parallel wave is
/// stitched and flushed, (b) periodically on the sequential path at the
/// equivalent line cadence, and (c) once at end of scan — always between
/// records, never inside one, and on the stitching (sequential) thread.
/// A sink that flushes its buffers on every OnWaveEnd keeps its state
/// bounded by one wave of output; flush timing never changes the bytes
/// emitted.

namespace datamaran {

class ThreadPool;

struct ExtractedRecord {
  int template_id = 0;
  size_t begin = 0;
  size_t end = 0;
  size_t first_line = 0;
  int line_count = 1;
  ParsedValue value;
};

/// Flat-event streaming consumer of extraction outcomes — the primitive
/// sink the scan drives directly. Events arrive in scan order regardless of
/// the extractor's thread count; the emitted byte stream of any
/// deterministic writer is therefore identical for every thread count, both
/// match engines, and every segmentation. Line indices are the dataset's
/// line indices; ExtractSegment renumbers them to stream lines.
class EventSink {
 public:
  virtual ~EventSink() = default;

  /// One record: `events[0..num_events)` is its flat parse (field spans and
  /// array counts, spans indexing into `text`), `pos`/`end` the matched
  /// window [pos, end) within `text`, the scanned dataset's backing buffer.
  virtual void OnRecord(int template_id, size_t first_line,
                        std::string_view text, size_t pos, size_t end,
                        const MatchEvent* events, size_t num_events) = 0;

  virtual void OnNoiseLine(size_t /*line_index*/) {}

  /// Segment noise hook: like OnNoiseLine, but carries the line text
  /// (trailing '\n' included) because a segmented scan has no whole-stream
  /// DatasetView for the index to resolve against; the view is only valid
  /// during the callback, and `line_index` is the global stream line
  /// number. ExtractSegment delivers all noise this way (batch windows and
  /// --follow alike); ExtractEvents never calls it. The default forwards
  /// to OnNoiseLine so index-only sinks need no change.
  virtual void OnNoiseText(size_t line_index,
                           std::string_view /*line_with_newline*/) {
    OnNoiseLine(line_index);
  }

  /// Streaming evolution hook: drift re-discovery appended new templates
  /// to the live set (existing template ids are never renumbered). The
  /// pointers stay valid for the sink's lifetime; a file-writing sink
  /// opens the new types' tables here, mid-stream. Default: ignore.
  virtual void OnTemplatesAdded(
      const std::vector<const StructureTemplate*>& /*added*/) {}

  /// Called after each parallel wave is stitched, at the same line cadence
  /// on the sequential path, and once at end of scan — always between
  /// records: the hook where buffering writers flush, bounding their state
  /// to one wave of output. Flush timing never affects the emitted bytes.
  virtual void OnWaveEnd() {}
};

/// In-memory extraction output.
struct ExtractionResult {
  std::vector<ExtractedRecord> records;
  std::vector<size_t> noise_lines;
  size_t covered_chars = 0;
  size_t total_chars = 0;
  /// Line-level accounting, filled by every scan path — including the
  /// streaming ones, whose records/noise_lines vectors stay empty. This is
  /// what lets a caller that extracted with catalog templates tell a clean
  /// hit from a drifted file (sample matched, tail did not) without
  /// collecting records: line_match_rate() is the whole-file analogue of
  /// the fingerprint's sample match rate.
  size_t total_lines = 0;
  size_t matched_records = 0;
  size_t noise_line_count = 0;
  /// Records emitted per template (indexed by template id, sized to the
  /// template count by every scan path). Like the other counters this is
  /// filled on streaming runs too — it is the per-template accounting the
  /// summary layer reports, independent of whether records were collected.
  std::vector<size_t> records_per_template;

  double coverage() const {
    return total_chars == 0
               ? 0
               : static_cast<double>(covered_chars) /
                     static_cast<double>(total_chars);
  }

  /// Fraction of input lines covered by matched records (an empty input
  /// counts as fully matched).
  double line_match_rate() const {
    return total_lines == 0
               ? 1.0
               : static_cast<double>(total_lines - noise_line_count) /
                     static_cast<double>(total_lines);
  }
};

class Extractor {
 public:
  /// The buffers a scan works in: each wave's per-chunk attempts and flat
  /// events, and the re-match events. ExtractEvents allocates a fresh set
  /// per call; a caller deciding many segments keeps one set and passes it
  /// to every ExtractSegment, so the capacity grown in one segment serves
  /// the next. One scan at a time per set; output never depends on it.
  class ScanBuffers {
   public:
    ScanBuffers();
    ~ScanBuffers();
    ScanBuffers(ScanBuffers&&) noexcept;
    ScanBuffers& operator=(ScanBuffers&&) noexcept;

   private:
    friend class Extractor;
    struct Slots;
    std::unique_ptr<Slots> slots_;
  };

  /// Cap on the automatic chunk size. A wave buffers threads x 2 chunks of
  /// attempts and MatchEvents (24 bytes per field or array event, often
  /// several times the text they describe), so without a cap one wave of a
  /// file scanned at n / (threads x 16) lines per chunk holds an eighth of
  /// the file's events. With it, wave state is bounded by the thread count
  /// and the record width, whatever the file size. 1024 rather than 4096:
  /// the buffered events are the largest per-wave term. On three 16 MiB
  /// batch inputs at two threads the peak RSS fell from 21.5 MB (4096) to
  /// 14.6 MB (1024), medians of 7 runs on a 4-vCPU VM, with total wall time
  /// within run-to-run noise.
  static constexpr size_t kMaxLinesPerChunk = 1024;

  /// `templates` in priority order (the pipeline's discovery order). The
  /// templates must outlive the extractor. When `pool` is non-null and has
  /// more than one thread, the streaming scans shard across it.
  /// `max_line_bytes` is the oversized-line guard: a match attempt at a
  /// line whose content exceeds the cap is refused outright, so the line is
  /// emitted as noise instead of being scanned or swallowed into a
  /// multi-line record (0 = unlimited). The same cap excludes such lines from the
  /// discovery sample (util/sampler.h), keeping the two phases consistent.
  /// The last parameter is ignored. It exists only because
  /// bench_e2e/e2e/replay.cc still passes CatalogEntry::programs; it goes
  /// with that file's next change.
  explicit Extractor(const std::vector<StructureTemplate>* templates,
                     ThreadPool* pool = nullptr,
                     MatchEngine engine = MatchEngine::kCompiled,
                     CharsetEngine charset_engine = CharsetEngine::kSimd,
                     size_t max_line_bytes = 0,
                     const std::vector<std::string>* /*programs*/ = nullptr);

  /// Streams each record's flat MatchEvent parse into `sink` in scan order;
  /// returns coverage statistics. This is the one scan implementation —
  /// Extract and ExtractSegment run through it — and `data` must be an
  /// identity view. Memory stays bounded in the parallel case too: chunks
  /// of at most kMaxLinesPerChunk lines are processed in waves of two per
  /// thread, each chunk buffering only events and span bookkeeping (no
  /// ParsedValue trees), flushed to the sink in stitched order before the
  /// next wave starts — peak memory is O(wave), independent of the file
  /// size. `sink` may be null: the scan then only counts.
  ExtractionResult ExtractEvents(const DatasetView& data,
                                 EventSink* sink) const;

  /// Convenience: collects everything in memory (identity views only).
  ExtractionResult Extract(const DatasetView& data) const;

  /// Decides one segment of a longer line stream whose first line is
  /// stream line `first_line` (the segment rule in the header comment).
  /// Runs ExtractEvents over `segment` and forwards to `sink` each decision
  /// with at least the longest template's line_span() - 1 lines after it
  /// in the segment — every decision when `final` (the stream ends with
  /// this segment) — with stream line
  /// numbers: records through OnRecord, noise through OnNoiseText with the
  /// line's text, plus every OnWaveEnd. `stop`, when set, is polled after
  /// each forwarded decision; once it returns true nothing further is
  /// forwarded (--follow's evolution trigger). Decided records and noise
  /// lines are added to `*counts` when it is non-null (covered_chars,
  /// matched_records, records_per_template, noise_line_count; the totals
  /// are the caller's). Returns the first undecided segment line, or
  /// segment.line_count() when all were decided; the decided lines are
  /// exactly those before it. `sink` may be null; `buffers` is the
  /// caller's scan state, kept from one segment to the next.
  size_t ExtractSegment(const Dataset& segment, bool final, size_t first_line,
                        EventSink* sink, ExtractionResult* counts,
                        ScanBuffers* buffers,
                        const std::function<bool()>& stop = nullptr) const;

  /// Overrides the automatic chunk granularity (lines per parallel chunk);
  /// 0 restores the automatic choice. Exposed for tests and tuning.
  void set_lines_per_chunk(size_t lines) { lines_per_chunk_ = lines; }

 private:
  /// The pure first-match rule every scan shares: tries the templates the
  /// dispatch index admits for the line's first byte, in priority order, at
  /// line `li`, in place on the backing text; on a match fills `*events`
  /// with the flat parse and `*end` with one past the match, returning the
  /// template id; else returns -1 (noise). Both the sequential scan and the
  /// parallel chunk scan go through this single helper — the
  /// byte-identical-output contract depends on there being exactly one copy
  /// of this policy. `events` is the caller's reused flat-parse buffer.
  int MatchAt(const DatasetView& data, size_t li,
              std::vector<MatchEvent>* events, size_t* end) const;

  /// Applies MatchAt at line `li` and emits the outcome (one record or one
  /// noise line) to `sink`, updating `stats` counters; returns the next
  /// unconsumed line. Used by the sequential path and by the stitcher to
  /// re-synchronize across chunk-spill divergences.
  size_t EmitAt(const DatasetView& data, size_t li, EventSink* sink,
                ExtractionResult* stats,
                std::vector<MatchEvent>* events) const;

  ExtractionResult ExtractEvents(const DatasetView& data, EventSink* sink,
                                 ScanBuffers* buffers) const;
  ExtractionResult ExtractSequential(const DatasetView& data, EventSink* sink,
                                     ScanBuffers* buffers) const;

  const std::vector<StructureTemplate>* templates_;
  ThreadPool* pool_;
  std::vector<RecordMatcher> matchers_;
  TemplateSetIndex index_;
  std::vector<int> spans_;
  size_t lines_per_chunk_ = 0;
  size_t max_line_bytes_ = 0;
};

}  // namespace datamaran

#endif  // DATAMARAN_EXTRACTION_EXTRACTOR_H_
