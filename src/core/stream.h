#ifndef DATAMARAN_CORE_STREAM_H_
#define DATAMARAN_CORE_STREAM_H_

#include <cstddef>
#include <cstdint>
#include <deque>
#include <memory>
#include <string>
#include <string_view>
#include <unordered_set>
#include <vector>

#include "core/datamaran.h"
#include "core/input.h"
#include "core/options.h"
#include "extraction/extractor.h"
#include "template/template.h"
#include "util/status.h"
#include "util/thread_pool.h"

/// Online streaming discovery (`datamaran_cli --follow`): structure
/// extraction over an unbounded stream at O(window) peak memory.
///
/// The batch pipeline assumes the whole file exists before structure can
/// emerge. A live stream never ends, so StreamingSession replaces "sample
/// the file" with a bounded protocol over recent lines:
///
///   1. Warm-up. Incoming lines accumulate in a pending window (capped in
///      lines and bytes). When the window fills — or the stream ends
///      first — initial discovery runs over exactly that window via the
///      unchanged batch pipeline (Datamaran::DiscoverTemplates). For a
///      finite corpus smaller than the window this makes streaming
///      discovery *identical* to batch discovery, which is what the
///      streaming-vs-batch differential test pins.
///   2. Steady state. Lines accumulate in a segment buffer processed at
///      window cadence: the current Extractor scans the segment and the
///      matched records / noise lines stream straight into the caller's
///      EventSink at wave cadence. Only decisions with full record-span
///      lookahead are emitted — the last max_record_span-1 lines of a
///      segment carry over to the next one — so the decided sequence is
///      the left-to-right greedy first-match scan of the *stream*, a pure
///      function of the line sequence, independent of segment cadence and
///      chunk delivery (the determinism gate).
///   3. Drift. A monitor tracks the rolling noise rate over the last
///      drift_window_lines decided lines, and every decided noise line
///      also enters a bounded noise ring. When the rate crosses the
///      threshold (with a cooldown of min_epoch_lines decided lines
///      between evolutions), re-discovery runs over the noise ring only —
///      never over history — and any *novel* templates (canonical-form
///      dedup against everything already live) are spliced onto the end
///      of the template set: existing template ids never change, so
///      already-written output files stay valid, and sinks learn about
///      the new types through EventSink::OnTemplatesAdded (which opens
///      their tables mid-stream). Undecided lines from the trigger point
///      on are re-extracted with the evolved set.
///   4. Checkpoint. When a catalog path is configured, the live template
///      set is folded into the catalog (the same locked merge-on-save the
///      crawler uses) after every evolution and at Finish, so a restarted
///      follower warm-starts from the formats this one learned.
///
/// Memory: pending window, segment buffer, noise ring, and drift ring are
/// all bounded by the window options; the framer carry is bounded by the
/// oversized-line cap; sinks are O(wave) by contract. Peak RSS is
/// therefore independent of stream length — the property the stream-soak
/// CI gate measures.
///
/// Determinism: every decision (record vs noise, template id, evolution
/// trigger point, re-discovery input) is a pure function of the decided
/// line sequence, which is itself a pure function of the input bytes. The
/// emitted output is byte-identical for every chunk-delivery schedule,
/// thread count, and match engine (tests/stream_test.cc,
/// tests/parallel_test.cc).
///
/// Oversized lines: the framer truncates a line whose content exceeds
/// max_line_bytes to max_line_bytes+1 bytes, which the extraction scan's
/// oversized guard (> max_line_bytes) then refuses — the line is decided
/// as noise without the stream ever buffering it whole. Batch mode keeps
/// the full bytes in noise.txt; the truncation is the documented
/// streaming-only trade for a bounded carry.

namespace datamaran {

/// Streaming-only knobs (the discovery/extraction knobs come from
/// DatamaranOptions unchanged).
struct StreamOptions {
  /// Lines per window: the warm-up discovery window and the steady-state
  /// segment cadence. Larger windows see more structure before deciding;
  /// smaller ones bound memory tighter and converge faster.
  size_t window_lines = 4096;
  /// Byte cap on the same buffers (whichever of lines/bytes fills first
  /// triggers processing). Defaults to the batch discovery sample cap so
  /// warm-up never holds more than batch sampling would.
  size_t window_bytes = 256 * 1024;
  /// Rolling window (in decided lines) of the drift monitor.
  size_t drift_window_lines = 256;
  /// Noise rate over that window at or above which evolution triggers.
  double drift_threshold = 0.5;
  /// Cooldown: decided lines required between evolution attempts (also
  /// gates the first attempt after warm-up).
  size_t min_epoch_lines = 256;
  /// Evolution runs only when the noise ring holds at least this many
  /// lines (re-discovery over a handful of lines is meaningless).
  size_t min_noise_lines = 32;
  /// false = monitor drift but never evolve (--no-evolve).
  bool evolve = true;
  /// Catalog checkpoint path ("" = no checkpointing); merge mirrors
  /// CatalogSaveOptions::merge.
  std::string checkpoint_path;
  bool checkpoint_merge = true;
};

/// Counters a streaming run accumulates (the streaming counterpart of
/// PipelineStats; surfaced in the CLI summary).
struct StreamStats {
  uint64_t bytes_in = 0;       ///< bytes fed (framer input)
  uint64_t lines_in = 0;       ///< lines framed
  uint64_t lines_decided = 0;  ///< lines emitted as record members or noise
  uint64_t records = 0;
  uint64_t noise_lines = 0;
  /// Bytes of the decided lines, and the noise share of them ('\n'
  /// included); (decided_bytes - noise_bytes) / decided_bytes is the
  /// stream's coverage, as ExtractionResult::coverage() is batch's.
  uint64_t decided_bytes = 0;
  uint64_t noise_bytes = 0;
  uint64_t oversized_lines = 0;
  /// Discovery epochs: 0 before warm-up discovery succeeds, 1 after, +1
  /// per successful evolution.
  uint64_t epochs = 0;
  uint64_t evolutions = 0;          ///< evolutions that added templates
  uint64_t evolution_attempts = 0;  ///< drift triggers (incl. fruitless)
  uint64_t discovery_runs = 0;      ///< batch-pipeline invocations
  uint64_t checkpoints = 0;         ///< successful catalog saves
  double last_noise_rate = 0;       ///< drift monitor's current rate
};

/// Rolling record/noise monitor: a fixed ring of the last `window` decided
/// lines. Triggering is a pure function of the decided sequence.
class DriftMonitor {
 public:
  explicit DriftMonitor(size_t window) : ring_(window > 0 ? window : 1, 0) {}

  void Observe(bool noise) {
    noise_count_ += static_cast<size_t>(noise) - ring_[idx_];
    ring_[idx_] = static_cast<uint8_t>(noise);
    idx_ = idx_ + 1 == ring_.size() ? 0 : idx_ + 1;
    if (count_ < ring_.size()) ++count_;
  }

  bool full() const { return count_ == ring_.size(); }
  double rate() const {
    return count_ == 0 ? 0
                       : static_cast<double>(noise_count_) /
                             static_cast<double>(count_);
  }

  void Reset() {
    std::fill(ring_.begin(), ring_.end(), 0);
    count_ = noise_count_ = idx_ = 0;
  }

 private:
  std::vector<uint8_t> ring_;
  size_t count_ = 0;
  size_t noise_count_ = 0;
  size_t idx_ = 0;
};

/// One live streaming extraction: feed bytes (or pre-framed lines), call
/// Finish at end of stream. Output goes to the caller's EventSink —
/// records via OnRecord, noise via OnNoiseText (the streaming noise hook:
/// there is no whole-stream DatasetView for OnNoiseLine to index), new
/// template types via OnTemplatesAdded. The sink must outlive the session;
/// so must the options. Not thread-safe (one feeder); extraction
/// parallelism happens internally via the session's pool.
class StreamingSession {
 public:
  StreamingSession(const DatamaranOptions& options,
                   const StreamOptions& stream_options, EventSink* sink);
  ~StreamingSession();

  StreamingSession(const StreamingSession&) = delete;
  StreamingSession& operator=(const StreamingSession&) = delete;

  /// Feeds raw stream bytes through the incremental framer.
  void FeedBytes(std::string_view bytes);

  /// Feeds one framed line (trailing '\n' included). The FeedBytes path
  /// lands here; exposed for tests that drive framed lines directly.
  void FeedLine(std::string_view line_with_newline, bool oversized);

  /// End of stream: runs warm-up discovery if it never triggered, decides
  /// every buffered line, flushes the final checkpoint. Returns the first
  /// sticky session error (checkpoint I/O; sink errors stay with the
  /// sink). Feed must not be called afterwards.
  Status Finish();

  const StreamStats& stats() const { return stats_; }

  /// Live template set in priority (id) order. Pointers are stable for
  /// the session's lifetime (a deque backs them) — the same pointers
  /// handed to EventSink::OnTemplatesAdded.
  const std::deque<StructureTemplate>& templates() const {
    return templates_;
  }

 private:
  friend class StreamSegmentAdapter;

  /// Runs batch discovery over `text`, returning accepted templates.
  std::vector<StructureTemplate> Discover(std::string text);

  /// Warm-up: discovery over the pending window; on success the window
  /// becomes the first segment. On failure the window is decided as noise
  /// (those lines are final — streaming never reprocesses history) and
  /// warm-up re-arms on the next window.
  void RunInitialDiscovery();

  /// Splices novel templates into the live set, notifies the sink, and
  /// rebuilds the extractor. Returns how many templates were added.
  size_t SpliceTemplates(std::vector<StructureTemplate> found);

  /// Drift response: re-discovery over the noise ring, splice, reset the
  /// monitor state, checkpoint on success.
  void RunEvolution();

  /// Extracts the segment buffer through the adapter. `final_flush` means
  /// end of stream: no lookahead is held back and the loop re-processes
  /// until every line is decided (evolution may interrupt mid-segment).
  void ProcessSegment(bool final_flush);

  /// Decides one line as noise directly (warm-up failure path).
  void EmitNoiseDirect(std::string_view line_with_newline);

  /// Folds the live template set into the checkpoint catalog and saves it
  /// (locked merge). Errors are sticky in status_.
  void Checkpoint();

  /// Called by the adapter for every decided line; updates the drift
  /// monitor and the noise ring and arms the evolution trigger.
  void ObserveDecided(bool noise, std::string_view line_with_newline);

  bool EvolutionArmed() const;

  DatamaranOptions options_;
  StreamOptions stream_;
  EventSink* sink_;
  Datamaran dm_;         ///< discovery engine (catalog paths cleared)
  ThreadPool pool_;      ///< extraction pool (options_.num_threads)
  StreamFramer framer_;

  /// Live templates. Deque: addresses stable across splices — sinks' row
  /// builders hold these pointers. extractor_templates_ is the per-epoch
  /// contiguous copy the Extractor requires; rebuilding it never touches
  /// the deque. Safe because sinks consume match events positionally and
  /// never compare event node pointers against their own template's.
  std::deque<StructureTemplate> templates_;
  std::unordered_set<std::string> canon_seen_;
  std::vector<StructureTemplate> extractor_templates_;
  std::unique_ptr<Extractor> extractor_;

  bool discovered_ = false;
  bool finished_ = false;
  std::string window_;       ///< pending warm-up window / segment buffer
  size_t window_line_count_ = 0;

  DriftMonitor drift_;
  std::deque<std::string> noise_ring_;  ///< last decided noise lines
  size_t noise_ring_bytes_ = 0;
  size_t decided_since_epoch_ = 0;
  bool evolution_pending_ = false;  ///< trigger seen, evolution not yet run

  StreamStats stats_;
  Status status_ = Status::Ok();
};

}  // namespace datamaran

#endif  // DATAMARAN_CORE_STREAM_H_
