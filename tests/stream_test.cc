#include <gtest/gtest.h>

#include <chrono>
#include <cstdint>
#include <deque>
#include <filesystem>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "core/datamaran.h"
#include "core/input.h"
#include "core/stream.h"
#include "extraction/extractor.h"
#include "template/catalog.h"
#include "util/file_io.h"
#include "util/strings.h"

// Differential harness for online streaming discovery (core/stream.h) —
// the gate behind `datamaran_cli --follow`:
//
//  (a) Streaming-vs-batch equivalence: on a finite corpus that fits the
//      warm-up window, a StreamingSession must make byte-for-byte the same
//      decisions (templates, record stream, noise stream) as the batch
//      pipeline on the same bytes.
//  (b) Drift recovery: on the committed A -> A+B -> B corpus
//      (tests/data/stream_drift.log, fixed-seed generator), the drift
//      monitor must trigger evolution, splice the new format's template
//      without renumbering the old one, and recover the match rate on the
//      evolved stream's tail.
//  (c) Chunk-boundary determinism: the same byte stream delivered in any
//      chunk schedule — 1-byte chunks, huge chunks, splits mid-UTF-8 and
//      between the '\r' and '\n' of a CRLF pair — must produce a
//      byte-identical decision transcript.

namespace datamaran {
namespace {

std::string SourcePath(const std::string& rel) {
  return std::string(DM_SOURCE_DIR) + "/" + rel;
}

std::string MustRead(const std::string& path) {
  auto text = ReadFileToString(path);
  EXPECT_TRUE(text.ok()) << path;
  return text.ok() ? std::move(text.value()) : std::string();
}

/// Serializes every extraction decision into one comparable string. Works
/// as both a batch sink (noise arrives as OnNoiseLine, resolved against
/// `view`) and a streaming sink (noise arrives as OnNoiseText carrying the
/// bytes), so one transcript format spans both paths.
class TranscriptSink : public EventSink {
 public:
  explicit TranscriptSink(const DatasetView* view = nullptr) : view_(view) {}

  void OnRecord(int template_id, size_t first_line, std::string_view text,
                size_t pos, size_t end, const MatchEvent* /*events*/,
                size_t /*num_events*/) override {
    log += StrFormat("R%d@%zu:", template_id, first_line);
    log.append(text.data() + pos, end - pos);
    log += '\x1f';
  }

  void OnNoiseLine(size_t line_index) override {
    log += StrFormat("N@%zu:", line_index);
    const std::string_view line = view_->line_with_newline(line_index);
    log.append(line.data(), line.size());
    log += '\x1f';
  }

  void OnNoiseText(size_t line_index,
                   std::string_view line_with_newline) override {
    log += StrFormat("N@%zu:", line_index);
    log.append(line_with_newline.data(), line_with_newline.size());
    log += '\x1f';
  }

  void OnTemplatesAdded(
      const std::vector<const StructureTemplate*>& added) override {
    for (const StructureTemplate* st : added) added_templates.push_back(st);
  }

  std::string log;
  std::vector<const StructureTemplate*> added_templates;

 private:
  const DatasetView* view_;
};

std::vector<std::string> DisplayAll(
    const std::vector<StructureTemplate>& templates) {
  std::vector<std::string> out;
  for (const StructureTemplate& st : templates) out.push_back(st.Display());
  return out;
}

std::vector<std::string> DisplayAll(
    const std::deque<StructureTemplate>& templates) {
  std::vector<std::string> out;
  for (const StructureTemplate& st : templates) out.push_back(st.Display());
  return out;
}

/// Batch reference: the unchanged pipeline (front-end normalization,
/// discovery, event-stream extraction) over the whole corpus at once.
struct BatchRun {
  std::vector<std::string> templates;
  std::string transcript;
};

BatchRun RunBatch(const std::string& bytes, const DatamaranOptions& options) {
  BatchRun run;
  auto data = DatasetFromBytes(bytes, InputOptions());
  EXPECT_TRUE(data.ok()) << data.status().ToString();
  if (!data.ok()) return run;
  Datamaran dm(options);
  StepTimings timings;
  PipelineStats stats;
  std::vector<StructureTemplate> templates =
      dm.DiscoverTemplates(data.value(), &timings, &stats, nullptr);
  run.templates = DisplayAll(templates);
  DatasetView view(data.value());
  TranscriptSink sink(&view);
  Extractor extractor(&templates, nullptr, options.match_engine,
                      options.charset_engine, options.max_line_bytes);
  extractor.ExtractEvents(view, &sink);
  run.transcript = std::move(sink.log);
  return run;
}

/// Streaming run: feeds `bytes` in chunks of `chunk` bytes (0 = one shot).
struct StreamRun {
  std::vector<std::string> templates;
  std::string transcript;
  StreamStats stats;
};

StreamRun RunStream(const std::string& bytes, const DatamaranOptions& options,
                    const StreamOptions& stream_options, size_t chunk = 0) {
  StreamRun run;
  TranscriptSink sink;
  StreamingSession session(options, stream_options, &sink);
  if (chunk == 0) {
    session.FeedBytes(bytes);
  } else {
    for (size_t off = 0; off < bytes.size(); off += chunk) {
      session.FeedBytes(
          std::string_view(bytes).substr(off, chunk));
    }
  }
  EXPECT_TRUE(session.Finish().ok());
  run.templates = DisplayAll(session.templates());
  run.transcript = std::move(sink.log);
  run.stats = session.stats();
  return run;
}

// ----------------------------------------------------- (a) batch parity ---

// On a finite corpus that fits the warm-up window, streaming discovery IS
// batch discovery over the same bytes, and the decided stream equals the
// batch scan — for every committed CLI corpus, including the hostile one
// (NUL bytes, invalid UTF-8), CRLF line endings, multi-line records, and a
// missing final newline.
TEST(StreamBatchParity, FiniteCorporaAreByteIdentical) {
  const char* corpora[] = {"cli_basic",   "cli_multiline", "cli_interleaved",
                           "cli_hostile", "cli_arrays",    "cli_crlf",
                           "cli_crlf_noeol"};
  for (const char* corpus : corpora) {
    SCOPED_TRACE(corpus);
    const std::string bytes =
        MustRead(SourcePath(std::string("tests/data/") + corpus + ".log"));
    DatamaranOptions options;
    options.num_threads = 1;
    const BatchRun batch = RunBatch(bytes, options);
    const StreamRun stream = RunStream(bytes, options, StreamOptions());
    EXPECT_EQ(batch.templates, stream.templates);
    EXPECT_EQ(batch.transcript, stream.transcript);
    EXPECT_EQ(stream.stats.evolutions, 0u) << "no drift in a uniform corpus";
  }
}

// Warm-up failure path: a window with no discoverable structure is decided
// as noise (once, in order) and the session keeps running.
TEST(StreamBatchParity, StructurelessStreamDecidesEverythingAsNoise) {
  std::string bytes;
  for (int i = 0; i < 100; ++i) {
    bytes += StrFormat("%x9f!!%d@@@%x", i * 2654435761u, i, i * 40503u);
    bytes += '\n';
  }
  DatamaranOptions options;
  options.num_threads = 1;
  StreamOptions stream_options;
  stream_options.window_lines = 32;  // several warm-up attempts
  const StreamRun stream = RunStream(bytes, options, stream_options);
  const BatchRun batch = RunBatch(bytes, options);
  if (batch.templates.empty()) {
    EXPECT_TRUE(stream.templates.empty());
    EXPECT_EQ(stream.stats.noise_lines, 100u);
    EXPECT_EQ(stream.stats.lines_decided, 100u);
  }
}

// --------------------------------------------- (b) drift and evolution ---

// The committed fixed-seed drift corpus: 1200 lines of format A
// ("n,n,n"), 400 alternating A/B, 1200 lines of format B ("n|n|n|n").
// The session must evolve exactly once, keep template 0's identity, and
// the evolved set must recover the match on the B-only tail.
TEST(StreamDrift, EvolutionRecoversMatchRate) {
  const std::string bytes =
      MustRead(SourcePath("tests/data/stream_drift.log"));
  DatamaranOptions options;
  options.num_threads = 1;
  StreamOptions stream_options;
  stream_options.window_lines = 128;
  stream_options.drift_window_lines = 64;
  stream_options.drift_threshold = 0.5;
  stream_options.min_epoch_lines = 128;
  stream_options.min_noise_lines = 32;

  TranscriptSink sink;
  StreamingSession session(options, stream_options, &sink);
  session.FeedBytes(bytes);
  ASSERT_TRUE(session.Finish().ok());

  const StreamStats& stats = session.stats();
  EXPECT_EQ(stats.lines_in, 2800u);
  EXPECT_EQ(stats.lines_decided, 2800u);
  EXPECT_GE(stats.evolutions, 1u);
  EXPECT_EQ(stats.epochs, stats.evolutions + 1);
  ASSERT_EQ(session.templates().size(), 2u);
  EXPECT_EQ(session.templates().front().Display(), "F,F,F\\n");
  EXPECT_EQ(session.templates().back().Display(), "F|F|F|F\\n");

  // The sink learned the spliced template through OnTemplatesAdded, and the
  // pointer is the session's own (stable deque storage).
  ASSERT_EQ(sink.added_templates.size(), 2u);
  EXPECT_EQ(sink.added_templates[0], &session.templates().front());
  EXPECT_EQ(sink.added_templates[1], &session.templates().back());

  // Match-rate recovery on the tail: after the trigger burst, B lines
  // match. Count noise decisions in the last 1000 lines of the stream.
  size_t tail_noise = 0;
  size_t pos = 0;
  while ((pos = sink.log.find("N@", pos)) != std::string::npos) {
    pos += 2;
    const size_t line = std::strtoull(sink.log.c_str() + pos, nullptr, 10);
    if (line >= 1800) tail_noise++;
  }
  EXPECT_LE(tail_noise, 100u) << "evolved set must match >= 90% of the tail";
  // And overall: only the pre-trigger burst is lost.
  EXPECT_LE(stats.noise_lines, 200u);
}

// The evolution trigger ends a segment's decisions wherever the segment
// ends: the decision that arms it is the last one the old template set
// makes, and the lines after it are re-extracted with the evolved set. So
// once every warm-up window sees format A only, the transcript must not
// depend on the segment cadence (the window size).
TEST(StreamDrift, TriggerPointIsIndependentOfSegmentCadence) {
  const std::string bytes =
      MustRead(SourcePath("tests/data/stream_drift.log"));
  DatamaranOptions options;
  options.num_threads = 1;
  StreamOptions stream_options;
  stream_options.drift_window_lines = 64;
  stream_options.drift_threshold = 0.5;
  stream_options.min_epoch_lines = 128;
  stream_options.min_noise_lines = 32;
  StreamRun want;
  for (const size_t window_lines : {128u, 333u, 1000u}) {
    SCOPED_TRACE(window_lines);
    stream_options.window_lines = window_lines;
    StreamRun run = RunStream(bytes, options, stream_options);
    EXPECT_GE(run.stats.evolutions, 1u);
    if (window_lines == 128) {
      want = std::move(run);
      continue;
    }
    EXPECT_EQ(run.templates, want.templates);
    EXPECT_EQ(run.transcript, want.transcript);
    EXPECT_EQ(run.stats.evolutions, want.stats.evolutions);
  }
}

// --no-evolve: the monitor runs but the template set never changes, so the
// B-phase stays noise.
TEST(StreamDrift, EvolveDisabledKeepsInitialTemplates) {
  const std::string bytes =
      MustRead(SourcePath("tests/data/stream_drift.log"));
  DatamaranOptions options;
  options.num_threads = 1;
  StreamOptions stream_options;
  stream_options.window_lines = 128;
  stream_options.drift_window_lines = 64;
  stream_options.evolve = false;
  const StreamRun run = RunStream(bytes, options, stream_options);
  EXPECT_EQ(run.stats.evolutions, 0u);
  EXPECT_EQ(run.stats.evolution_attempts, 0u);
  EXPECT_EQ(run.templates.size(), 1u);
  EXPECT_GE(run.stats.noise_lines, 1200u);  // the whole B phase
}

// Checkpointing folds the live template set into a catalog with the same
// locked merge-on-save the crawler uses — and leaves no stray .lock file.
TEST(StreamDrift, CheckpointPersistsEvolvedTemplates) {
  const std::string bytes =
      MustRead(SourcePath("tests/data/stream_drift.log"));
  const std::string dir = ::testing::TempDir() + "dm_stream_ckpt";
  std::filesystem::remove_all(dir);
  ASSERT_TRUE(MakeDirs(dir).ok());
  const std::string catalog_path = dir + "/catalog.json";

  DatamaranOptions options;
  options.num_threads = 1;
  StreamOptions stream_options;
  stream_options.window_lines = 128;
  stream_options.drift_window_lines = 64;
  stream_options.checkpoint_path = catalog_path;
  const StreamRun run = RunStream(bytes, options, stream_options);
  EXPECT_GE(run.stats.checkpoints, 2u);  // warm-up + evolution (+ finish)

  auto loaded = TemplateCatalog::Load(catalog_path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  const TemplateCatalog& catalog = loaded.value();
  // Warm-up checkpointed {A}, the evolution checkpoint {A,B}: distinct
  // signatures, so the merge keeps both entries; the evolved one carries
  // the full set.
  ASSERT_GE(catalog.entries().size(), 1u);
  bool found_full = false;
  for (const CatalogEntry& entry : catalog.entries()) {
    if (DisplayAll(entry.templates) == run.templates) found_full = true;
  }
  EXPECT_TRUE(found_full) << "no catalog entry holds the evolved set";

  // Satellite regression: a finished checkpoint cycle must not litter the
  // directory with .lock sidecars.
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    EXPECT_NE(entry.path().extension(), ".lock")
        << "stray lock sidecar: " << entry.path();
  }
  std::filesystem::remove_all(dir);
}

// ------------------------------------- (c) chunk-boundary determinism ---

/// A corpus that plants every boundary hazard: CRLF terminators (so a
/// chunk can split between '\r' and '\n'), multi-byte UTF-8 field bytes
/// (so a chunk can split mid-code-point), and enough lines to cross
/// several segment cadences.
std::string HazardCorpus() {
  std::string bytes;
  uint64_t seed = 0x5EED;
  auto rng = [&seed]() {
    seed = seed * 6364136223846793005ull + 1442695040888963407ull;
    return seed >> 33;
  };
  for (int i = 0; i < 600; ++i) {
    bytes += StrFormat("%llu,caf\xC3\xA9%llu,%llu",
                       static_cast<unsigned long long>(100 + rng() % 900),
                       static_cast<unsigned long long>(rng() % 10),
                       static_cast<unsigned long long>(10 + rng() % 90));
    bytes += "\r\n";
  }
  return bytes;
}

TEST(StreamChunks, EveryDeliveryScheduleIsByteIdentical) {
  const std::string bytes = HazardCorpus();
  DatamaranOptions options;
  options.num_threads = 1;
  StreamOptions stream_options;
  stream_options.window_lines = 128;

  const StreamRun oneshot = RunStream(bytes, options, stream_options, 0);
  ASSERT_FALSE(oneshot.templates.empty());
  // 1-byte chunks split every CRLF pair and every UTF-8 sequence; 7 is
  // coprime with the line length so splits drift through every offset;
  // 64KiB exceeds the whole corpus after the first chunk.
  for (size_t chunk : {size_t{1}, size_t{7}, size_t{4096}, size_t{64 * 1024}}) {
    SCOPED_TRACE(chunk);
    const StreamRun run = RunStream(bytes, options, stream_options, chunk);
    EXPECT_EQ(oneshot.templates, run.templates);
    EXPECT_EQ(oneshot.transcript, run.transcript);
  }
  // Randomized schedule: chunk sizes from a fixed-seed LCG.
  uint64_t seed = 12345;
  TranscriptSink sink;
  StreamingSession session(options, stream_options, &sink);
  size_t off = 0;
  while (off < bytes.size()) {
    seed = seed * 6364136223846793005ull + 1442695040888963407ull;
    const size_t n = 1 + (seed >> 33) % 97;
    session.FeedBytes(std::string_view(bytes).substr(off, n));
    off += n;
  }
  ASSERT_TRUE(session.Finish().ok());
  EXPECT_EQ(oneshot.transcript, sink.log);
}

// The incremental framer alone (no discovery): every chunk schedule frames
// the same lines as the one-shot pass, CRLF decisions included.
TEST(StreamChunks, FramerEqualsOneShotFraming) {
  const std::string bytes = HazardCorpus();
  auto frame = [&](size_t chunk) {
    StreamFramer framer(CrlfPolicy::kAuto);
    std::string out;
    auto on_line = [&out](std::string_view line, bool /*oversized*/) {
      out.append(line.data(), line.size());
      out += '\x1f';
    };
    if (chunk == 0) {
      framer.Feed(bytes, on_line);
    } else {
      for (size_t off = 0; off < bytes.size(); off += chunk) {
        framer.Feed(std::string_view(bytes).substr(off, chunk), on_line);
      }
    }
    framer.Finish(on_line);
    return out;
  };
  const std::string oneshot = frame(0);
  for (size_t chunk : {size_t{1}, size_t{2}, size_t{3}, size_t{1000}}) {
    SCOPED_TRACE(chunk);
    EXPECT_EQ(oneshot, frame(chunk));
  }
}

// Oversized-line containment: a line over the cap is truncated by the
// framer (bounded carry), flagged, and decided as noise; later lines are
// unaffected.
TEST(StreamChunks, OversizedLineDegradesToBoundedNoise)
{
  std::string bytes;
  for (int i = 0; i < 200; ++i) {
    bytes += StrFormat("%d,%d,%d\n", 100 + i, 1000 + i, 10 + i % 90);
  }
  bytes += std::string(1 << 20, 'x');  // one 1MiB monster line
  bytes += '\n';
  for (int i = 0; i < 200; ++i) {
    bytes += StrFormat("%d,%d,%d\n", 300 + i, 2000 + i, 10 + i % 90);
  }
  DatamaranOptions options;
  options.num_threads = 1;
  options.max_line_bytes = 4096;
  StreamOptions stream_options;
  stream_options.window_lines = 64;
  // Feed in small chunks so the monster line crosses many Feed calls; the
  // carry must stay bounded at the cap, not grow to 1MiB.
  const StreamRun run = RunStream(bytes, options, stream_options, 512);
  EXPECT_EQ(run.stats.oversized_lines, 1u);
  EXPECT_EQ(run.stats.lines_in, 401u);
  EXPECT_EQ(run.stats.lines_decided, 401u);
  EXPECT_GE(run.stats.records, 390u);  // both halves keep matching
  // The oversized line itself was decided as noise, truncated to cap+1.
  const size_t noise_pos = run.transcript.find(":xxxx");
  ASSERT_NE(noise_pos, std::string::npos);
}

// ------------------------------------------------------------- threads ---

/// Threads of this process, from /proc/self/task.
size_t TaskCount() {
  size_t n = 0;
  for (const auto& task :
       std::filesystem::directory_iterator("/proc/self/task")) {
    (void)task;
    ++n;
  }
  return n;
}

// --threads=N means N threads: discovery and segment extraction share the
// session's one pool, so num_threads = 3 starts two workers beside the
// caller.
TEST(StreamThreads, SessionRunsNumThreadsThreads) {
  std::error_code ec;
  if (!std::filesystem::is_directory("/proc/self/task", ec)) {
    GTEST_SKIP() << "no /proc/self/task";
  }
  // A sanitizer runtime may start a helper thread beside the process's
  // first thread: one started and joined here lets it start uncounted.
  std::thread([] {}).join();
  // An earlier test's joined workers may still be leaving the task list.
  size_t before = TaskCount();
  for (int i = 0; i < 100; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
    const size_t now = TaskCount();
    if (now == before) break;
    before = now;
  }
  DatamaranOptions options;
  options.num_threads = 3;
  TranscriptSink sink;
  StreamingSession session(options, StreamOptions(), &sink);
  EXPECT_EQ(TaskCount(), before + 2);
}

}  // namespace
}  // namespace datamaran
