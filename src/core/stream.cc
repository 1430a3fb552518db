#include "core/stream.h"

#include <algorithm>
#include <limits>
#include <utility>

#include "template/catalog.h"

namespace datamaran {

namespace {

/// The session's internal discovery engine must never touch the caller's
/// catalog files: checkpointing is the session's own explicit protocol.
DatamaranOptions StripCatalogPaths(DatamaranOptions options) {
  options.catalog_in.clear();
  options.catalog_out.clear();
  return options;
}

}  // namespace

/// Per-segment EventSink the extractor drives. Forwards decided outcomes
/// to the session's sink, holds back the undecided tail (lines without
/// full record-span lookahead, or past an evolution trigger), and feeds
/// the drift monitor — strictly in decision order, which is what makes
/// the trigger point a pure function of the decided line sequence.
class StreamSegmentAdapter : public EventSink {
 public:
  static constexpr size_t kNone = std::numeric_limits<size_t>::max();

  StreamSegmentAdapter(StreamingSession* session, const Dataset* segment,
                       size_t boundary, uint64_t global_base)
      : session_(session),
        segment_(segment),
        boundary_(boundary),
        global_base_(global_base) {}

  void OnRecord(int template_id, size_t first_line, std::string_view text,
                size_t pos, size_t end, const MatchEvent* events,
                size_t num_events) override {
    if (Suppress(first_line)) return;
    session_->sink_->OnRecord(
        template_id, static_cast<size_t>(global_base_) + first_line, text,
        pos, end, events, num_events);
    const int span =
        session_->extractor_templates_[static_cast<size_t>(template_id)]
            .line_span();
    session_->stats_.records++;
    session_->stats_.lines_decided += static_cast<uint64_t>(span);
    session_->stats_.decided_bytes += static_cast<uint64_t>(end - pos);
    for (int i = 0; i < span; ++i) {
      session_->ObserveDecided(/*noise=*/false, {});
    }
    MaybeTrigger();
  }

  void OnNoiseLine(size_t line_index) override {
    if (Suppress(line_index)) return;
    const std::string_view line = segment_->line_with_newline(line_index);
    session_->sink_->OnNoiseText(
        static_cast<size_t>(global_base_) + line_index, line);
    session_->stats_.noise_lines++;
    session_->stats_.lines_decided++;
    session_->stats_.decided_bytes += line.size();
    session_->stats_.noise_bytes += line.size();
    session_->ObserveDecided(/*noise=*/true, line);
    MaybeTrigger();
  }

  void OnWaveEnd() override { session_->sink_->OnWaveEnd(); }

  /// First undecided segment line (kNone = everything was decided).
  size_t undecided_from() const { return undecided_from_; }
  bool triggered() const { return triggered_; }

 private:
  /// Decisions arrive in scan order, so the first one at/past the
  /// boundary — or the first one after an evolution trigger — starts the
  /// undecided region; everything from there on is held back.
  bool Suppress(size_t first_line) {
    if (undecided_from_ != kNone) return true;
    if (first_line >= boundary_ || triggered_) {
      undecided_from_ = first_line;
      return true;
    }
    return false;
  }

  void MaybeTrigger() {
    if (!triggered_ && session_->evolution_pending_) triggered_ = true;
  }

  StreamingSession* session_;
  const Dataset* segment_;
  size_t boundary_;
  uint64_t global_base_;
  size_t undecided_from_ = kNone;
  bool triggered_ = false;
};

StreamingSession::StreamingSession(const DatamaranOptions& options,
                                   const StreamOptions& stream_options,
                                   EventSink* sink)
    : options_(options),
      stream_(stream_options),
      sink_(sink),
      dm_(StripCatalogPaths(options)),
      pool_(ThreadPool::ResolveThreadCount(options.num_threads)),
      // Cap truncated content one past the extraction guard so every
      // truncated line is refused there and decided as noise (stream.h).
      framer_(options.crlf,
              options.max_line_bytes == 0 ? 0 : options.max_line_bytes + 1),
      drift_(stream_options.drift_window_lines) {}

StreamingSession::~StreamingSession() = default;

void StreamingSession::FeedBytes(std::string_view bytes) {
  stats_.bytes_in += bytes.size();
  framer_.Feed(bytes, [this](std::string_view line, bool oversized) {
    FeedLine(line, oversized);
  });
}

void StreamingSession::FeedLine(std::string_view line_with_newline,
                                bool oversized) {
  stats_.lines_in++;
  if (oversized) stats_.oversized_lines++;
  window_.append(line_with_newline.data(), line_with_newline.size());
  window_line_count_++;
  const bool full = window_line_count_ >= stream_.window_lines ||
                    window_.size() >= stream_.window_bytes;
  if (!full) return;
  if (!discovered_) {
    RunInitialDiscovery();
    if (discovered_) ProcessSegment(/*final_flush=*/false);
  } else {
    ProcessSegment(/*final_flush=*/false);
  }
}

Status StreamingSession::Finish() {
  if (finished_) return status_;
  finished_ = true;
  framer_.Finish([this](std::string_view line, bool oversized) {
    FeedLine(line, oversized);
  });
  if (!discovered_ && window_line_count_ > 0) RunInitialDiscovery();
  if (discovered_) {
    ProcessSegment(/*final_flush=*/true);
    Checkpoint();
  }
  return status_;
}

std::vector<StructureTemplate> StreamingSession::Discover(std::string text) {
  stats_.discovery_runs++;
  Dataset data(std::move(text));
  StepTimings timings;
  PipelineStats pstats;
  return dm_.DiscoverTemplates(data, &timings, &pstats, nullptr);
}

void StreamingSession::RunInitialDiscovery() {
  std::vector<StructureTemplate> found = Discover(std::string(window_));
  if (found.empty()) {
    // Nothing structural in this window: its lines are decided as noise
    // (final — streaming never reprocesses history) and warm-up re-arms
    // on the next window's worth of lines.
    Dataset window_data{std::string(window_)};
    for (size_t i = 0; i < window_data.line_count(); ++i) {
      EmitNoiseDirect(window_data.line_with_newline(i));
    }
    sink_->OnWaveEnd();
    window_.clear();
    window_line_count_ = 0;
    return;
  }
  SpliceTemplates(std::move(found));
  discovered_ = true;
  stats_.epochs = 1;
  Checkpoint();
}

size_t StreamingSession::SpliceTemplates(
    std::vector<StructureTemplate> found) {
  std::vector<const StructureTemplate*> added;
  for (StructureTemplate& st : found) {
    if (!canon_seen_.insert(st.canonical()).second) continue;
    templates_.push_back(std::move(st));
    added.push_back(&templates_.back());
  }
  if (added.empty()) return 0;
  // The extractor wants a contiguous vector; rebuild the copy and leave
  // the deque (whose addresses the sinks hold) untouched. Sinks consume
  // match events positionally, never by node-pointer identity, so the
  // extractor matching on copies is sound.
  extractor_templates_.assign(templates_.begin(), templates_.end());
  extractor_ = std::make_unique<Extractor>(
      &extractor_templates_, &pool_, options_.match_engine,
      options_.charset_engine, options_.max_line_bytes, nullptr);
  sink_->OnTemplatesAdded(added);
  return added.size();
}

void StreamingSession::RunEvolution() {
  stats_.evolution_attempts++;
  std::string noise_text;
  noise_text.reserve(noise_ring_bytes_);
  for (const std::string& line : noise_ring_) noise_text += line;
  size_t added = 0;
  if (!noise_text.empty()) {
    added = SpliceTemplates(Discover(std::move(noise_text)));
  }
  if (added > 0) {
    stats_.evolutions++;
    stats_.epochs++;
    Checkpoint();
  }
  // Reset the monitor state either way: re-arming instantly on the same
  // noise would re-run discovery every segment (thrash) without new
  // evidence. The cooldown makes the next attempt wait for fresh lines.
  drift_.Reset();
  noise_ring_.clear();
  noise_ring_bytes_ = 0;
  decided_since_epoch_ = 0;
  evolution_pending_ = false;
  stats_.last_noise_rate = 0;
}

void StreamingSession::ProcessSegment(bool final_flush) {
  const size_t max_span =
      options_.max_record_span > 0
          ? static_cast<size_t>(options_.max_record_span)
          : 1;
  while (window_line_count_ > 0) {
    size_t boundary;
    if (final_flush) {
      boundary = StreamSegmentAdapter::kNone;
    } else if (window_line_count_ >= max_span) {
      // Decisions are final once max_span-1 lines of lookahead exist: a
      // record starting before the boundary fits entirely in the segment,
      // so the decided prefix equals the whole-stream greedy scan no
      // matter where segments break.
      boundary = window_line_count_ - (max_span - 1);
    } else {
      return;  // not enough lookahead to decide anything yet
    }
    Dataset segment{std::string(window_)};
    StreamSegmentAdapter adapter(this, &segment, boundary,
                                 stats_.lines_decided);
    extractor_->ExtractEvents(segment, &adapter);
    const size_t undecided = adapter.undecided_from();
    if (undecided == StreamSegmentAdapter::kNone) {
      window_.clear();
      window_line_count_ = 0;
    } else {
      window_.erase(0, segment.line_begin(undecided));
      window_line_count_ -= undecided;
    }
    if (adapter.triggered()) {
      RunEvolution();
      continue;  // re-extract the held-back tail with the evolved set
    }
    if (!final_flush) return;
  }
}

void StreamingSession::EmitNoiseDirect(std::string_view line_with_newline) {
  sink_->OnNoiseText(static_cast<size_t>(stats_.lines_decided),
                     line_with_newline);
  stats_.noise_lines++;
  stats_.lines_decided++;
  stats_.decided_bytes += line_with_newline.size();
  stats_.noise_bytes += line_with_newline.size();
  ObserveDecided(/*noise=*/true, line_with_newline);
}

void StreamingSession::ObserveDecided(bool noise,
                                      std::string_view line_with_newline) {
  drift_.Observe(noise);
  stats_.last_noise_rate = drift_.rate();
  decided_since_epoch_++;
  if (noise && !line_with_newline.empty()) {
    noise_ring_.emplace_back(line_with_newline);
    noise_ring_bytes_ += line_with_newline.size();
    // Bound the ring by both axes; keep at least one line so a single
    // oversized noise line cannot empty the evidence entirely.
    while (noise_ring_.size() > 1 &&
           (noise_ring_.size() > stream_.window_lines ||
            noise_ring_bytes_ > stream_.window_bytes)) {
      noise_ring_bytes_ -= noise_ring_.front().size();
      noise_ring_.pop_front();
    }
  }
  evolution_pending_ = EvolutionArmed();
}

bool StreamingSession::EvolutionArmed() const {
  return stream_.evolve && discovered_ && drift_.full() &&
         drift_.rate() >= stream_.drift_threshold &&
         decided_since_epoch_ >= stream_.min_epoch_lines &&
         noise_ring_.size() >= stream_.min_noise_lines;
}

void StreamingSession::Checkpoint() {
  if (stream_.checkpoint_path.empty() || templates_.empty()) return;
  TemplateCatalog catalog;
  CatalogEntry entry;
  entry.templates.assign(templates_.begin(), templates_.end());
  catalog.AddEntry(std::move(entry));
  CatalogSaveOptions save;
  save.merge = stream_.checkpoint_merge;
  Status saved = catalog.Save(stream_.checkpoint_path, save);
  if (saved.ok()) {
    stats_.checkpoints++;
  } else if (status_.ok()) {
    status_ = std::move(saved);
  }
}

}  // namespace datamaran
