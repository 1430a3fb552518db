#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <map>
#include <memory>
#include <new>
#include <numeric>
#include <string>
#include <utility>
#include <vector>

#include "core/datamaran.h"
#include "core/dataset.h"
#include "core/input.h"
#include "core/options.h"
#include "core/stream.h"
#include "datagen/github_corpus.h"
#include "extraction/extractor.h"
#include "extraction/sinks.h"
#include "generation/generator.h"
#include "template/catalog.h"
#include "scoring/field_stats.h"
#include "template/matcher.h"
#include "util/file_io.h"
#include "util/rng.h"
#include "util/strings.h"
#include "util/thread_pool.h"

// Determinism-parity tests for the parallel hot paths: with identical
// inputs, num_threads=1 and num_threads=N must produce identical accepted
// templates, scores, and extraction output. Plus unit tests for the thread
// pool itself, for the allocation-free flat-match path, and for the bytes
// one parallel scan's wave allocates.

// Byte counting for the wave-memory test: while g_count_bytes is set,
// every operator new on any thread (pool workers grow the chunk buffers)
// adds its size to g_allocated_bytes. The nothrow forms are replaced too,
// so every form frees with free().
namespace {
std::atomic<bool> g_count_bytes{false};
std::atomic<size_t> g_allocated_bytes{0};

void* CountedMalloc(std::size_t size) noexcept {
  if (g_count_bytes) g_allocated_bytes += size;
  return std::malloc(size == 0 ? 1 : size);
}
}  // namespace

// Neither side is inlined, so the compiler never sees malloc() meet
// operator delete or free() meet operator new's result.
[[gnu::noinline]] void* operator new(std::size_t size) {
  if (void* p = CountedMalloc(size)) return p;
  throw std::bad_alloc();
}
[[gnu::noinline]] void* operator new(std::size_t size,
                                     const std::nothrow_t&) noexcept {
  return CountedMalloc(size);
}
void* operator new[](std::size_t size) { return ::operator new(size); }
void* operator new[](std::size_t size, const std::nothrow_t& tag) noexcept {
  return ::operator new(size, tag);
}
[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { ::operator delete(p); }
void operator delete(void* p, std::size_t) noexcept { ::operator delete(p); }
void operator delete[](void* p, std::size_t) noexcept { ::operator delete(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept {
  ::operator delete(p);
}
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  ::operator delete(p);
}

namespace datamaran {
namespace {

/// Bytes that operator new hands out, on any thread, while `fn` runs.
template <typename Fn>
size_t AllocatedBytes(Fn&& fn) {
  g_allocated_bytes = 0;
  g_count_bytes = true;
  fn();
  g_count_bytes = false;
  return g_allocated_bytes;
}

// ---------------------------------------------------------------------------
// ThreadPool unit tests
// ---------------------------------------------------------------------------

TEST(ThreadPoolTest, RunsEveryIndexExactlyOnce) {
  ThreadPool pool(4);
  EXPECT_EQ(pool.thread_count(), 4);
  constexpr size_t kCount = 10000;
  std::vector<std::atomic<int>> hits(kCount);
  pool.ParallelFor(kCount, [&](size_t i) { hits[i].fetch_add(1); });
  for (size_t i = 0; i < kCount; ++i) {
    ASSERT_EQ(hits[i].load(), 1) << "index " << i;
  }
}

TEST(ThreadPoolTest, WorkerIdsAreInRange) {
  ThreadPool pool(3);
  std::atomic<bool> bad{false};
  pool.ParallelFor(5000, [&](size_t, int worker) {
    if (worker < 0 || worker >= pool.thread_count()) bad = true;
  });
  EXPECT_FALSE(bad.load());
}

TEST(ThreadPoolTest, SizeOneRunsInlineOnCaller) {
  ThreadPool pool(1);
  EXPECT_EQ(pool.thread_count(), 1);
  const std::thread::id self = std::this_thread::get_id();
  bool all_inline = true;
  pool.ParallelFor(100, [&](size_t, int worker) {
    if (worker != 0 || std::this_thread::get_id() != self) all_inline = false;
  });
  EXPECT_TRUE(all_inline);
}

TEST(ThreadPoolTest, ZeroCountIsANoop) {
  ThreadPool pool(4);
  pool.ParallelFor(0, [&](size_t) { FAIL() << "must not be called"; });
}

TEST(ThreadPoolTest, ReusableAcrossManyJobs) {
  ThreadPool pool(4);
  for (int round = 0; round < 50; ++round) {
    std::atomic<size_t> sum{0};
    pool.ParallelFor(100, [&](size_t i) { sum.fetch_add(i); });
    ASSERT_EQ(sum.load(), size_t{100 * 99 / 2});
  }
}

TEST(ThreadPoolTest, ResolveThreadCount) {
  EXPECT_GE(ThreadPool::ResolveThreadCount(0), 1);
  EXPECT_EQ(ThreadPool::ResolveThreadCount(1), 1);
  EXPECT_EQ(ThreadPool::ResolveThreadCount(7), 7);
  EXPECT_EQ(ThreadPool::ResolveThreadCount(-3), 1);
}

TEST(ThreadPoolTest, ForEachIndexWithoutPoolRunsInline) {
  std::vector<int> hits(64, 0);
  ForEachIndex(nullptr, hits.size(), [&](size_t i, int worker) {
    EXPECT_EQ(worker, 0);
    hits[i]++;
  });
  EXPECT_EQ(std::accumulate(hits.begin(), hits.end(), 0), 64);
}

// ---------------------------------------------------------------------------
// Flat-match (allocation-free) parity with the tree parser
// ---------------------------------------------------------------------------

TEST(FlatMatchTest, FlatStatsMatchTreeStats) {
  auto st = StructureTemplate::FromCanonical("(F,)*F;F\n");
  ASSERT_TRUE(st.ok());
  TemplateMatcher matcher(&st.value());
  Rng rng(11);
  std::string text;
  for (int i = 0; i < 200; ++i) {
    int reps = static_cast<int>(rng.Uniform(1, 5));
    for (int r = 0; r < reps; ++r) {
      text += std::to_string(rng.Uniform(0, 999));
      text += r + 1 < reps ? "," : ";";
    }
    text += std::to_string(rng.Uniform(0, 99)) + "\n";
  }
  Dataset data(std::move(text));

  TemplateStatsCollector tree_stats(&st.value());
  TemplateStatsCollector flat_stats(&st.value());
  std::vector<MatchEvent> events;
  for (size_t li = 0; li < data.line_count(); ++li) {
    const size_t pos = data.line_begin(li);
    auto tree = matcher.Parse(data.text(), pos);
    auto flat = matcher.ParseFlat(data.text(), pos, &events);
    ASSERT_EQ(tree.has_value(), flat.has_value()) << "line " << li;
    if (!tree.has_value()) continue;
    EXPECT_EQ(tree->end, flat->end);
    tree_stats.AddRecord(*tree, data.text());
    flat_stats.AddRecordFlat(events, data.text());
  }
  ASSERT_GT(tree_stats.record_count(), 0u);
  EXPECT_EQ(tree_stats.record_count(), flat_stats.record_count());
  EXPECT_DOUBLE_EQ(tree_stats.FieldBits(), flat_stats.FieldBits());
  EXPECT_DOUBLE_EQ(tree_stats.ArrayCountBits(), flat_stats.ArrayCountBits());
  ASSERT_EQ(tree_stats.columns().size(), flat_stats.columns().size());
  for (size_t c = 0; c < tree_stats.columns().size(); ++c) {
    EXPECT_EQ(tree_stats.columns()[c].count(), flat_stats.columns()[c].count());
    EXPECT_EQ(tree_stats.columns()[c].InferType(),
              flat_stats.columns()[c].InferType());
  }
}

TEST(FlatMatchTest, FailedMatchIsReported) {
  auto st = StructureTemplate::FromCanonical("F,F\n");
  ASSERT_TRUE(st.ok());
  TemplateMatcher matcher(&st.value());
  std::vector<MatchEvent> events;
  std::string text = "no delimiters here\n";
  EXPECT_FALSE(matcher.ParseFlat(text, 0, &events).has_value());
}

// ---------------------------------------------------------------------------
// Generation parity across thread counts
// ---------------------------------------------------------------------------

std::string InterleavedLog(int rows, uint64_t seed) {
  Rng rng(seed);
  std::string text;
  for (int i = 0; i < rows; ++i) {
    if (rng.Bernoulli(0.4)) {
      text += "GET /p/" + std::to_string(rng.Uniform(0, 9999)) + " " +
              std::to_string(rng.Uniform(200, 504)) + "\n";
    } else if (rng.Bernoulli(0.5)) {
      text += "user=" + std::to_string(rng.Uniform(0, 999)) + ";op=" +
              std::to_string(rng.Uniform(0, 20)) + ";\n";
    } else {
      text += std::to_string(rng.Uniform(0, 255)) + "." +
              std::to_string(rng.Uniform(0, 255)) + ": " +
              std::to_string(rng.Uniform(0, 99)) + "," +
              std::to_string(rng.Uniform(0, 99)) + "\n";
    }
  }
  return text;
}

void ExpectSameCandidates(const GenerationResult& a,
                          const GenerationResult& b) {
  EXPECT_EQ(a.charsets_tried, b.charsets_tried);
  EXPECT_EQ(a.records_hashed, b.records_hashed);
  ASSERT_EQ(a.candidates.size(), b.candidates.size());
  for (size_t i = 0; i < a.candidates.size(); ++i) {
    const CandidateTemplate& ca = a.candidates[i];
    const CandidateTemplate& cb = b.candidates[i];
    EXPECT_EQ(ca.canonical, cb.canonical) << "candidate " << i;
    EXPECT_DOUBLE_EQ(ca.coverage, cb.coverage) << "candidate " << i;
    EXPECT_DOUBLE_EQ(ca.non_field_coverage, cb.non_field_coverage)
        << "candidate " << i;
    EXPECT_EQ(ca.count, cb.count) << "candidate " << i;
    EXPECT_EQ(ca.first_line, cb.first_line) << "candidate " << i;
    EXPECT_EQ(ca.span, cb.span) << "candidate " << i;
  }
}

TEST(ParallelGenerationTest, ExhaustiveSearchParity) {
  Dataset data(InterleavedLog(600, 21));
  DatamaranOptions opts;
  opts.max_special_chars = 6;
  ThreadPool pool(4);
  CandidateGenerator seq(&data, &opts, nullptr);
  CandidateGenerator par(&data, &opts, &pool);
  ExpectSameCandidates(seq.Run(), par.Run());
}

TEST(ParallelGenerationTest, GreedySearchParity) {
  Dataset data(InterleavedLog(600, 22));
  DatamaranOptions opts;
  opts.max_special_chars = 8;
  opts.search = CharsetSearch::kGreedy;
  ThreadPool pool(4);
  CandidateGenerator seq(&data, &opts, nullptr);
  CandidateGenerator par(&data, &opts, &pool);
  ExpectSameCandidates(seq.Run(), par.Run());
}

// ---------------------------------------------------------------------------
// Extraction parity across thread counts
// ---------------------------------------------------------------------------

/// Multi-line records with interspersed noise so records regularly straddle
/// chunk boundaries and force the stitcher's resync path.
std::string MultiLineWithNoise(int blocks, uint64_t seed) {
  Rng rng(seed);
  std::string text;
  for (int i = 0; i < blocks; ++i) {
    text += "BEGIN " + std::to_string(i) + "\n";
    text += " v=" + std::to_string(rng.Uniform(0, 9999)) + "\n";
    text += "END\n";
    if (rng.Bernoulli(0.2)) {
      text += "!!corrupted " + std::to_string(rng.Uniform(0, 999999)) + "\n";
    }
  }
  return text;
}

void ExpectSameExtraction(const ExtractionResult& a,
                          const ExtractionResult& b) {
  EXPECT_EQ(a.covered_chars, b.covered_chars);
  EXPECT_EQ(a.total_chars, b.total_chars);
  EXPECT_EQ(a.noise_lines, b.noise_lines);
  ASSERT_EQ(a.records.size(), b.records.size());
  for (size_t i = 0; i < a.records.size(); ++i) {
    EXPECT_EQ(a.records[i].template_id, b.records[i].template_id) << i;
    EXPECT_EQ(a.records[i].begin, b.records[i].begin) << i;
    EXPECT_EQ(a.records[i].end, b.records[i].end) << i;
    EXPECT_EQ(a.records[i].first_line, b.records[i].first_line) << i;
    EXPECT_EQ(a.records[i].line_count, b.records[i].line_count) << i;
  }
}

TEST(ParallelExtractionTest, MultiLineSpillParity) {
  // A 3-line template over a file whose noise lines shift the record
  // alignment: with a tiny chunk size, records straddle every few chunk
  // boundaries, exercising both the splice and the resync stitch paths.
  auto st = StructureTemplate::FromCanonical("F F\n F=F\nF\n");
  ASSERT_TRUE(st.ok());
  std::vector<StructureTemplate> templates;
  templates.push_back(std::move(st.value()));
  Dataset data(MultiLineWithNoise(3000, 23));

  Extractor seq(&templates, nullptr);
  ExtractionResult expected = seq.Extract(data);
  ASSERT_GT(expected.records.size(), 1000u);
  ASSERT_GT(expected.noise_lines.size(), 100u);

  for (int threads : {2, 4, 7}) {
    ThreadPool pool(threads);
    Extractor par(&templates, &pool);
    par.set_lines_per_chunk(64);  // force many chunk boundaries
    ExpectSameExtraction(expected, par.Extract(data));
  }
}

TEST(ParallelExtractionTest, SingleLineParity) {
  auto st = StructureTemplate::FromCanonical("(F,)*F\n");
  ASSERT_TRUE(st.ok());
  std::vector<StructureTemplate> templates;
  templates.push_back(std::move(st.value()));
  Rng rng(24);
  std::string text;
  for (int i = 0; i < 20000; ++i) {
    if (rng.Bernoulli(0.1)) {
      text += "~~~ noise ~~~\n";
    } else {
      text += std::to_string(rng.Uniform(0, 999)) + "," +
              std::to_string(rng.Uniform(0, 999)) + "\n";
    }
  }
  Dataset data(std::move(text));
  Extractor seq(&templates, nullptr);
  ThreadPool pool(4);
  Extractor par(&templates, &pool);
  ExpectSameExtraction(seq.Extract(data), par.Extract(data));
}

TEST(ParallelExtractionTest, WaveBuffersHoldTwentyFourByteEvents) {
  // A segment of 8,192 six-field records scanned on two threads: each wave
  // is 4 chunks of 256 lines (the minimum chunk size), and each chunk
  // buffers 256 records x 6 field events. The chunk vectors grow by
  // doubling, so the allocations stay under twice the wave's events at
  // 24 bytes apiece, plus the same again for the chunks' 256 attempts of
  // 40 bytes, plus 32 KiB for the pool's tasks and the counts. Later waves
  // reuse the first wave's capacity. With libstdc++ the scan allocates
  // 378,768 bytes against a bound of 409,600; with 72-byte attempts (each
  // held a window-text string) it allocated 444,368, and with 40-byte
  // events as well, 641,552.
  auto st = StructureTemplate::FromCanonical("F,F,F,F,F,F\n");
  ASSERT_TRUE(st.ok());
  std::vector<StructureTemplate> templates;
  templates.push_back(std::move(st.value()));
  constexpr size_t kLines = 8192;
  constexpr size_t kFields = 6;
  std::string text;
  for (size_t i = 0; i < kLines; ++i) {
    text += StrFormat("%zu,%zu,%zu,%zu,%zu,%zu\n", i, i * 7 % 1000, i % 97,
                      i * 3 % 1000, i % 7, i % 89);
  }
  const Dataset segment(std::move(text));
  ThreadPool pool(2);
  const Extractor extractor(&templates, &pool);
  Extractor::ScanBuffers buffers;
  ExtractionResult counts;
  size_t decided = 0;
  const size_t bytes = AllocatedBytes([&] {
    decided = extractor.ExtractSegment(segment, /*final=*/true, 0, nullptr,
                                       &counts, &buffers);
  });
  EXPECT_EQ(decided, kLines);
  EXPECT_EQ(counts.matched_records, kLines);

  constexpr size_t kChunks = 4;
  constexpr size_t kChunkLines = 256;
  constexpr size_t kEventBytes = 2 * kChunks * kChunkLines * kFields * 24;
  constexpr size_t kAttemptBytes = 2 * kChunks * kChunkLines * 40;
  EXPECT_GT(bytes, kEventBytes / 2);  // the counter sees the wave's events
  EXPECT_LE(bytes, kEventBytes + kAttemptBytes + 32 * 1024);
}

// ---------------------------------------------------------------------------
// Streaming columnar sink determinism under tiny waves
// ---------------------------------------------------------------------------

/// Reads every regular file of `dir` into name -> contents.
std::map<std::string, std::string> SlurpDir(const std::string& dir) {
  std::map<std::string, std::string> files;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    if (!entry.is_regular_file()) continue;
    auto contents = ReadFileToString(entry.path().string());
    EXPECT_TRUE(contents.ok()) << entry.path();
    files[entry.path().filename().string()] =
        contents.ok() ? contents.value() : std::string();
  }
  return files;
}

TEST(StreamingSinkDeterminismTest, TinyWavesAreByteIdentical) {
  // 3-line records with interspersed noise, scanned with a 3-line chunk
  // size: chunk and wave boundaries land mid-record constantly, forcing
  // both the wholesale-splice and the resync stitch paths. The streamed
  // files must be byte-identical for every thread count, and for both
  // match engines, to the sequential reference.
  auto st = StructureTemplate::FromCanonical("F F\n F=F\nF\n");
  ASSERT_TRUE(st.ok());
  std::vector<StructureTemplate> templates;
  templates.push_back(std::move(st.value()));
  Dataset data(MultiLineWithNoise(1200, 77));
  DatasetView view(data);

  auto stream_to = [&](ThreadPool* pool, MatchEngine engine,
                       OutputFormat format, const std::string& dir) {
    std::filesystem::remove_all(dir);
    Extractor ex(&templates, pool, engine);
    ex.set_lines_per_chunk(3);  // waves of a few lines each
    ColumnarWriteSink sink(&templates, view, dir, format);
    ExtractionResult stats = ex.ExtractEvents(view, &sink);
    EXPECT_TRUE(sink.Finish().ok());
    EXPECT_GT(sink.stats().total_records, 1000u);
    return std::make_pair(SlurpDir(dir), stats);
  };

  for (const OutputFormat format :
       {OutputFormat::kCsv, OutputFormat::kNdjson}) {
    SCOPED_TRACE(format == OutputFormat::kCsv ? "csv" : "ndjson");
    const std::string base = ::testing::TempDir() + "dm_wave_ref";
    auto [want_files, want_stats] =
        stream_to(nullptr, MatchEngine::kCompiled, format, base);
    std::filesystem::remove_all(base);
    for (const int threads : {2, 4, 7}) {
      for (const MatchEngine engine :
           {MatchEngine::kCompiled, MatchEngine::kTree}) {
        SCOPED_TRACE(StrFormat("threads=%d engine=%s", threads,
                               engine == MatchEngine::kTree ? "tree"
                                                            : "compiled"));
        ThreadPool pool(threads);
        const std::string dir = ::testing::TempDir() + "dm_wave_run";
        auto [files, stats] = stream_to(&pool, engine, format, dir);
        EXPECT_EQ(files, want_files);
        EXPECT_EQ(stats.covered_chars, want_stats.covered_chars);
        std::filesystem::remove_all(dir);
      }
    }
  }
}

// Normalized streaming under tiny waves: the per-table row-id counters
// travel with the order-preserving stitch, so every id/parent_id cell —
// across root and child-array tables — must come out byte-identical for
// every thread count and both match engines even when chunk and wave
// boundaries land mid-record. The corpus interleaves variable-length
// array records (child-table rows), two-line records (chunk spill), and
// noise.
std::string ArrayAndMultiLineCorpus(int n, uint64_t seed) {
  Rng rng(seed);
  std::string text;
  for (int i = 0; i < n; ++i) {
    const int kind = static_cast<int>(rng.Uniform(0, 3));
    if (kind == 0) {
      const int reps = static_cast<int>(rng.Uniform(1, 5));
      for (int r = 0; r < reps; ++r) {
        text += std::to_string(rng.Uniform(0, 9999));
        if (r + 1 < reps) text += ",";
      }
      text += "\n";
    } else if (kind == 1) {
      text += "open " + std::to_string(rng.Uniform(0, 99)) + "\nclose " +
              std::to_string(rng.Uniform(0, 99)) + "\n";
    } else {
      // Leading separator: an empty first field can never parse, so these
      // lines are genuine noise for both templates below.
      text += ",corrupted " + std::to_string(rng.Uniform(0, 999999)) + "\n";
    }
  }
  return text;
}

TEST(StreamingSinkDeterminismTest, NormalizedTinyWavesAreByteIdentical) {
  // Priority order matters: the open/close template goes first so the
  // catch-all single-field-array parse of the array template cannot
  // shadow it.
  std::vector<StructureTemplate> templates;
  auto two_line = StructureTemplate::FromCanonical("open F\nclose F\n");
  auto arr = StructureTemplate::FromCanonical("(F,)*F\n");
  ASSERT_TRUE(arr.ok());
  ASSERT_TRUE(two_line.ok());
  templates.push_back(std::move(two_line.value()));
  templates.push_back(std::move(arr.value()));
  Dataset data(ArrayAndMultiLineCorpus(1500, 99));
  DatasetView view(data);

  auto stream_to = [&](ThreadPool* pool, MatchEngine engine,
                       const std::string& dir) {
    std::filesystem::remove_all(dir);
    Extractor ex(&templates, pool, engine);
    ex.set_lines_per_chunk(3);  // waves of a few lines each
    NormalizedWriteSink sink(&templates, view, dir);
    ExtractionResult stats = ex.ExtractEvents(view, &sink);
    EXPECT_TRUE(sink.Finish().ok());
    EXPECT_GT(sink.stats().total_records, 500u);
    EXPECT_GT(sink.stats().noise_lines, 100u);
    EXPECT_GT(sink.rows_in_table(1, 1), 500u);  // child-array rows exist
    return std::make_pair(SlurpDir(dir), stats);
  };

  const std::string base = ::testing::TempDir() + "dm_norm_wave_ref";
  auto [want_files, want_stats] =
      stream_to(nullptr, MatchEngine::kCompiled, base);
  std::filesystem::remove_all(base);
  for (const int threads : {1, 2, 4, 7}) {
    for (const MatchEngine engine :
         {MatchEngine::kCompiled, MatchEngine::kTree}) {
      SCOPED_TRACE(StrFormat("threads=%d engine=%s", threads,
                             engine == MatchEngine::kTree ? "tree"
                                                          : "compiled"));
      ThreadPool pool(threads);
      const std::string dir = ::testing::TempDir() + "dm_norm_wave_run";
      auto [files, stats] = stream_to(&pool, engine, dir);
      EXPECT_EQ(files, want_files);
      EXPECT_EQ(stats.covered_chars, want_stats.covered_chars);
      std::filesystem::remove_all(dir);
    }
  }
}

TEST(StreamingSinkDeterminismTest, CappedAutoChunksAreByteIdentical) {
  // The automatic chunk size on a file long enough that
  // Extractor::kMaxLinesPerChunk binds at every thread count below: many
  // full-size waves, with 3-line records straddling their boundaries. The
  // streamed tables and counts must be byte-identical for every thread
  // count, whether the whole buffer is scanned at once or the file is read
  // through InputReader's window — many windows here, each segment with
  // waves of its own, and records straddling the window cuts too.
  auto st = StructureTemplate::FromCanonical("F F\n F=F\nF\n");
  ASSERT_TRUE(st.ok());
  std::vector<StructureTemplate> templates;
  templates.push_back(std::move(st.value()));
  const std::string text = MultiLineWithNoise(150000, 5);
  const std::string path = ::testing::TempDir() + "dm_capped_wave_input.log";
  ASSERT_TRUE(WriteStringToFile(path, text).ok());
  const Dataset owned{std::string(text)};
  ASSERT_GT(owned.line_count() / (7 * 16), Extractor::kMaxLinesPerChunk);
  ASSERT_GT(text.size(), 8 * InputReader::kWindowBytes);
  const Dataset no_data{std::string()};

  std::map<std::string, std::string> want_files;
  ExtractionResult want;
  for (const bool windowed : {false, true}) {
    for (const int threads : {1, 2, 4, 7}) {
      SCOPED_TRACE(StrFormat("%s threads=%d",
                             windowed ? "windowed" : "whole", threads));
      ThreadPool pool(threads);
      const std::string dir = ::testing::TempDir() + "dm_capped_wave_run";
      std::filesystem::remove_all(dir);
      Extractor ex(&templates, &pool);
      ExtractionResult stats;
      if (windowed) {
        auto reader = InputReader::Open({path}, InputOptions{});
        ASSERT_TRUE(reader.ok()) << reader.status().ToString();
        ASSERT_TRUE(reader->windowed());
        ColumnarWriteSink sink(&templates, DatasetView(no_data), dir,
                               OutputFormat::kCsv);
        auto scanned = reader->Scan(ex, &sink);
        ASSERT_TRUE(scanned.ok()) << scanned.status().ToString();
        ASSERT_TRUE(sink.Finish().ok());
        stats = std::move(scanned.value());
      } else {
        const DatasetView view(owned);
        ColumnarWriteSink sink(&templates, view, dir, OutputFormat::kCsv);
        stats = ex.ExtractEvents(view, &sink);
        ASSERT_TRUE(sink.Finish().ok());
      }
      if (!windowed && threads == 1) {
        want_files = SlurpDir(dir);
        want = stats;
        EXPECT_GT(want.matched_records, 100000u);
      } else {
        EXPECT_EQ(SlurpDir(dir), want_files);
        EXPECT_EQ(stats.total_lines, want.total_lines);
        EXPECT_EQ(stats.total_chars, want.total_chars);
        EXPECT_EQ(stats.matched_records, want.matched_records);
        EXPECT_EQ(stats.noise_line_count, want.noise_line_count);
        EXPECT_EQ(stats.covered_chars, want.covered_chars);
        EXPECT_EQ(stats.records_per_template, want.records_per_template);
      }
      std::filesystem::remove_all(dir);
    }
  }
  std::remove(path.c_str());
}

// ---------------------------------------------------------------------------
// Streaming session determinism: threads x engine x chunk schedule
// ---------------------------------------------------------------------------

/// Streaming sink that serializes every decision — records with their
/// template id, line, bytes and flat parse (each field value's span and
/// each array's count, relative to the record), noise with its carried
/// bytes — into one string.
class StreamTranscriptSink : public EventSink {
 public:
  void OnRecord(int template_id, size_t first_line, std::string_view text,
                size_t pos, size_t end, const MatchEvent* events,
                size_t num_events) override {
    log += StrFormat("R%d@%zu:", template_id, first_line);
    log.append(text.data() + pos, end - pos);
    for (size_t i = 0; i < num_events; ++i) {
      const MatchEvent& ev = events[i];
      if (ev.kind() == MatchEvent::kFieldValue) {
        log += StrFormat("|F%zu-%zu", ev.begin - pos, ev.end() - pos);
      } else {
        log += StrFormat("|A%zu", ev.count());
      }
    }
    log += '\x1f';
  }
  void OnNoiseText(size_t line_index,
                   std::string_view line_with_newline) override {
    log += StrFormat("N@%zu:", line_index);
    log.append(line_with_newline.data(), line_with_newline.size());
    log += '\x1f';
  }
  std::string log;
};

TEST(StreamingSessionDeterminismTest, DriftCorpusMatrixIsByteIdentical) {
  // The full streaming pipeline — warm-up discovery, segment extraction,
  // drift-triggered evolution — re-run across every combination of thread
  // count, match engine, and chunk-delivery schedule over the committed
  // drift corpus. The decision transcript (every record and noise line, in
  // order, with bytes, each record with its field spans and array counts)
  // and the evolved template set must be byte-identical
  // everywhere: parallelism and I/O chunking must not leak into decisions,
  // even across an evolution epoch boundary. 128-line segments scan
  // sequentially at every thread count; 1024-line segments are long enough
  // for the chunked parallel scan at 2 and 4 threads, whose buffered
  // events the transcript then compares with the sequential scan's.
  auto bytes = ReadFileToString(std::string(DM_SOURCE_DIR) +
                                "/tests/data/stream_drift.log");
  ASSERT_TRUE(bytes.ok());
  StreamOptions stream_options;
  stream_options.drift_window_lines = 64;
  stream_options.drift_threshold = 0.5;
  stream_options.min_epoch_lines = 128;
  stream_options.min_noise_lines = 32;

  auto run = [&](int threads, MatchEngine engine, uint64_t schedule_seed) {
    DatamaranOptions options;
    options.num_threads = threads;
    options.match_engine = engine;
    StreamTranscriptSink sink;
    StreamingSession session(options, stream_options, &sink);
    const std::string_view stream(bytes.value());
    if (schedule_seed == 0) {
      session.FeedBytes(stream);
    } else {
      uint64_t seed = schedule_seed;
      size_t off = 0;
      while (off < stream.size()) {
        seed = seed * 6364136223846793005ull + 1442695040888963407ull;
        const size_t n = 1 + static_cast<size_t>(seed >> 33) % 509;
        session.FeedBytes(stream.substr(off, n));
        off += n;
      }
    }
    EXPECT_TRUE(session.Finish().ok());
    std::string templates;
    for (const StructureTemplate& st : session.templates()) {
      templates += st.Display();
      templates += ';';
    }
    return std::make_tuple(std::move(sink.log), std::move(templates),
                           session.stats().epochs,
                           session.stats().evolutions);
  };

  for (const size_t window_lines : {size_t{128}, size_t{1024}}) {
    stream_options.window_lines = window_lines;
    const auto want = run(1, MatchEngine::kCompiled, 0);
    ASSERT_GE(std::get<3>(want), 1u) << "corpus must drive an evolution";
    for (const int threads : {1, 2, 4}) {
      for (const MatchEngine engine :
           {MatchEngine::kCompiled, MatchEngine::kTree}) {
        for (const uint64_t schedule : {0ull, 1ull, 0x9E3779B97F4A7C15ull}) {
          SCOPED_TRACE(StrFormat(
              "window=%zu threads=%d engine=%s schedule=%llu", window_lines,
              threads, engine == MatchEngine::kTree ? "tree" : "compiled",
              static_cast<unsigned long long>(schedule)));
          const auto got = run(threads, engine, schedule);
          EXPECT_EQ(std::get<0>(want), std::get<0>(got));
          EXPECT_EQ(std::get<1>(want), std::get<1>(got));
          EXPECT_EQ(std::get<2>(want), std::get<2>(got));
          EXPECT_EQ(std::get<3>(want), std::get<3>(got));
        }
      }
    }
  }
}

// ---------------------------------------------------------------------------
// End-to-end pipeline parity: templates, scores, extraction
// ---------------------------------------------------------------------------

void ExpectSamePipelineResult(const PipelineResult& a,
                              const PipelineResult& b) {
  ASSERT_EQ(a.templates.size(), b.templates.size());
  for (size_t i = 0; i < a.templates.size(); ++i) {
    EXPECT_EQ(a.templates[i].canonical(), b.templates[i].canonical()) << i;
  }
  ASSERT_EQ(a.reports.size(), b.reports.size());
  for (size_t i = 0; i < a.reports.size(); ++i) {
    EXPECT_DOUBLE_EQ(a.reports[i].mdl_bits, b.reports[i].mdl_bits) << i;
    EXPECT_DOUBLE_EQ(a.reports[i].noise_only_bits, b.reports[i].noise_only_bits)
        << i;
    EXPECT_EQ(a.reports[i].sample_records, b.reports[i].sample_records) << i;
  }
  EXPECT_EQ(a.stats.charsets_tried, b.stats.charsets_tried);
  EXPECT_EQ(a.stats.candidates_generated, b.stats.candidates_generated);
  EXPECT_EQ(a.stats.candidates_evaluated, b.stats.candidates_evaluated);
  EXPECT_EQ(a.stats.rounds, b.stats.rounds);
  ExpectSameExtraction(a.extraction, b.extraction);
}

PipelineResult RunWith(int num_threads, const std::string& text,
                       CharsetSearch search = CharsetSearch::kExhaustive) {
  DatamaranOptions opts;
  opts.max_special_chars = 6;
  opts.max_sample_bytes = 64 * 1024;
  opts.num_threads = num_threads;
  opts.search = search;
  Datamaran dm(opts);
  return dm.ExtractText(text);
}

TEST(ParallelPipelineTest, InterleavedParity) {
  const std::string text = InterleavedLog(800, 31);
  PipelineResult seq = RunWith(1, text);
  ASSERT_GE(seq.templates.size(), 1u);
  ExpectSamePipelineResult(seq, RunWith(4, text));
}

TEST(ParallelPipelineTest, GreedyParity) {
  const std::string text = InterleavedLog(800, 32);
  PipelineResult seq = RunWith(1, text, CharsetSearch::kGreedy);
  ASSERT_GE(seq.templates.size(), 1u);
  ExpectSamePipelineResult(seq, RunWith(4, text, CharsetSearch::kGreedy));
}

TEST(ParallelPipelineTest, GithubCorpusDatasetParity) {
  // A multi-line interleaved corpus entry — the hardest label class.
  GeneratedDataset ds = BuildGithubDataset(70, 24 * 1024);
  PipelineResult seq = RunWith(1, ds.text);
  ExpectSamePipelineResult(seq, RunWith(4, ds.text));
}

// ---------------------------------------------------------------------------
// Window parity: InputReader's windowed scan vs the whole buffer
// ---------------------------------------------------------------------------

/// A corpus for the window cuts to land on: 12-line records (longer than
/// the default max_record_span of 10), 2-line records, single-line array
/// records, truncated records and noise lines, with NUL and invalid UTF-8
/// bytes inside fields and noise.
std::string WindowCorpus(int items, uint64_t seed, bool final_newline) {
  Rng rng(seed);
  const auto field = [&]() {
    std::string f = std::to_string(rng.Uniform(0, 99999));
    if (rng.Bernoulli(0.05)) f += std::string(1, '\0');
    if (rng.Bernoulli(0.05)) f += "\xff\xc3";
    return f;
  };
  std::string text;
  for (int i = 0; i < items; ++i) {
    const int kind = static_cast<int>(rng.Uniform(0, 5));
    if (kind == 0 || kind == 1) {
      // A 12-line record; one in five stops early and is decided as noise.
      const int lines = rng.Bernoulli(0.2)
                            ? static_cast<int>(rng.Uniform(1, 11))
                            : 12;
      text += "<";
      text += field() + "\n";
      for (int k = 1; k < lines && k < 11; ++k) {
        text += "|";
        text += field() + "|" + field() + "\n";
      }
      if (lines == 12) text += ">" + field() + "\n";
    } else if (kind == 2) {
      text += "@" + field() + "\n";
      if (rng.Bernoulli(0.8)) text += "#" + field() + "\n";
    } else if (kind == 3) {
      const int reps = static_cast<int>(rng.Uniform(1, 6));
      for (int r = 0; r < reps; ++r) {
        text += field();
        text += r + 1 < reps ? "," : ";";
      }
      text += "\n";
    } else {
      text += rng.Bernoulli(0.5) ? ",noise " + field() + "\n"
                                 : std::string("\0\xfe~\n", 4);
    }
  }
  if (!final_newline && text.back() == '\n') {
    text.pop_back();
    text += "tail" + field();
  }
  return text;
}

TEST(WindowParityTest, WindowedScanEqualsWholeBufferScan) {
  // Every window size from a single byte up, thread count and output
  // layout: the tables, noise.txt and every count of InputReader::Scan
  // must equal ExtractEvents over the whole owned Dataset. The 12-line
  // template is longer than max_record_span, as a catalog entry's may be:
  // the lookahead held back between windows has to come from the
  // templates, not from that option.
  CatalogEntry entry;
  for (const char* canonical : {"<F\n|F|F\n|F|F\n|F|F\n|F|F\n|F|F\n"
                                "|F|F\n|F|F\n|F|F\n|F|F\n|F|F\n>F\n",
                                "@F\n#F\n", "(F,)*F;\n"}) {
    auto st = StructureTemplate::FromCanonical(canonical);
    ASSERT_TRUE(st.ok()) << canonical;
    entry.templates.push_back(std::move(st.value()));
  }
  const std::vector<StructureTemplate>& templates = entry.templates;
  ASSERT_GT(templates[0].line_span(), DatamaranOptions{}.max_record_span);
  const Dataset no_data{std::string()};
  enum class Layout { kCsv, kNdjson, kNormalized };
  const auto make_sink = [&](Layout layout, const DatasetView& view,
                             const std::string& dir)
      -> std::unique_ptr<WriteSinkBase> {
    if (layout == Layout::kNormalized) {
      return std::make_unique<NormalizedWriteSink>(&templates, view, dir);
    }
    return std::make_unique<ColumnarWriteSink>(
        &templates, view, dir,
        layout == Layout::kCsv ? OutputFormat::kCsv : OutputFormat::kNdjson);
  };
  const std::string path = ::testing::TempDir() + "dm_window_parity.log";
  const std::string dir = ::testing::TempDir() + "dm_window_parity_out";
  for (const bool final_newline : {true, false}) {
    const std::string text = WindowCorpus(1500, final_newline ? 51 : 52,
                                          final_newline);
    ASSERT_TRUE(WriteStringToFile(path, text).ok());
    auto opened = OpenInputs({path}, InputOptions{});
    ASSERT_TRUE(opened.ok());
    const Dataset& whole = opened.value();
    for (const Layout layout :
         {Layout::kCsv, Layout::kNdjson, Layout::kNormalized}) {
      std::filesystem::remove_all(dir);
      const Extractor reference(&templates);
      auto ref_sink = make_sink(layout, DatasetView(whole), dir);
      const ExtractionResult want =
          reference.ExtractEvents(DatasetView(whole), ref_sink.get());
      ASSERT_TRUE(ref_sink->Finish().ok());
      const std::map<std::string, std::string> want_files = SlurpDir(dir);
      ASSERT_GT(want.records_per_template[0], 100u);
      ASSERT_GT(want.noise_line_count, 100u);
      for (const size_t window : {size_t{1}, size_t{7}, size_t{4096},
                                  InputReader::kWindowBytes}) {
        for (const int threads : {1, 2, 4, 7}) {
          SCOPED_TRACE(StrFormat("final_newline=%d layout=%d window=%zu "
                                 "threads=%d",
                                 final_newline, static_cast<int>(layout),
                                 window, threads));
          auto reader = InputReader::Open({path}, InputOptions{});
          ASSERT_TRUE(reader.ok()) << reader.status().ToString();
          ASSERT_TRUE(reader->windowed());
          reader->set_window_bytes(window);
          ThreadPool pool(threads);
          const Extractor ex(&templates, &pool);
          std::filesystem::remove_all(dir);
          auto sink = make_sink(layout, DatasetView(no_data), dir);
          auto got = reader->Scan(ex, sink.get());
          ASSERT_TRUE(got.ok()) << got.status().ToString();
          ASSERT_TRUE(sink->Finish().ok());
          EXPECT_EQ(SlurpDir(dir), want_files);
          EXPECT_EQ(got->total_lines, want.total_lines);
          EXPECT_EQ(got->total_chars, want.total_chars);
          EXPECT_EQ(got->covered_chars, want.covered_chars);
          EXPECT_EQ(got->matched_records, want.matched_records);
          EXPECT_EQ(got->noise_line_count, want.noise_line_count);
          EXPECT_EQ(got->records_per_template, want.records_per_template);
        }
      }
    }
  }
  std::filesystem::remove_all(dir);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace datamaran
