#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <vector>

#include <unistd.h>

#include "core/datamaran.h"
#include "core/dataset.h"
#include "core/options.h"
#include "extraction/extractor.h"
#include "util/file_io.h"
#include "util/rng.h"
#include "util/sampler.h"
#include "util/thread_pool.h"

// Edge cases for the zero-copy dataset layer: Dataset's two backings (owned
// string vs mmap'd region), page release on the mapped backing, DatasetView
// gap semantics, the index-only residual transition (MaskMatchedLines).

namespace datamaran {
namespace {

// ------------------------------------------------------------- Dataset ----

TEST(DatasetTest, EmptyText) {
  Dataset data{std::string()};
  EXPECT_EQ(data.size_bytes(), 0u);
  EXPECT_EQ(data.line_count(), 0u);
  EXPECT_FALSE(data.is_mapped());
  EXPECT_EQ(data.LineOfOffset(0), 0u);
}

TEST(DatasetTest, MissingTrailingNewlineIsAppended) {
  Dataset data{std::string("a,b\nc,d")};
  EXPECT_EQ(data.line_count(), 2u);
  EXPECT_EQ(data.line(1), "c,d");
  EXPECT_EQ(data.line_with_newline(1), "c,d\n");
  EXPECT_EQ(data.text().back(), '\n');
}

TEST(DatasetTest, SingleUnterminatedLine) {
  Dataset data{std::string("lonely")};
  ASSERT_EQ(data.line_count(), 1u);
  EXPECT_EQ(data.line(0), "lonely");
  EXPECT_EQ(data.size_bytes(), 7u);  // '\n' appended
}

TEST(DatasetTest, LineOfOffsetAtBoundaries) {
  Dataset data{std::string("aa\nbbb\nc\n")};
  ASSERT_EQ(data.line_count(), 3u);
  EXPECT_EQ(data.LineOfOffset(0), 0u);
  EXPECT_EQ(data.LineOfOffset(2), 0u);  // the '\n' belongs to line 0
  EXPECT_EQ(data.LineOfOffset(3), 1u);  // first char of line 1
  EXPECT_EQ(data.LineOfOffset(6), 1u);
  EXPECT_EQ(data.LineOfOffset(7), 2u);
  EXPECT_EQ(data.LineOfOffset(8), 2u);
}

class MmapDatasetTest : public ::testing::Test {
 protected:
  std::string WriteTemp(const std::string& contents) {
    std::string path = ::testing::TempDir() + "dm_dataset_test_" +
                       std::to_string(counter_++) + ".log";
    EXPECT_TRUE(WriteStringToFile(path, contents).ok());
    paths_.push_back(path);
    return path;
  }

  void TearDown() override {
    for (const std::string& p : paths_) std::remove(p.c_str());
  }

  std::vector<std::string> paths_;
  int counter_ = 0;
};

TEST_F(MmapDatasetTest, MappedAndOwnedBackingsAgree) {
  std::string contents;
  for (int i = 0; i < 500; ++i) {
    contents += "k=" + std::to_string(i) + ";v=" + std::to_string(i * 7) +
                ";\n";
  }
  const std::string path = WriteTemp(contents);

  auto mapped = Dataset::FromFile(path, MapMode::kAlways);
  auto owned = Dataset::FromFile(path, MapMode::kNever);
  ASSERT_TRUE(mapped.ok());
  ASSERT_TRUE(owned.ok());
  EXPECT_FALSE(owned.value().is_mapped());
  EXPECT_EQ(mapped.value().text(), owned.value().text());
  ASSERT_EQ(mapped.value().line_count(), owned.value().line_count());
  for (size_t i = 0; i < mapped.value().line_count(); ++i) {
    EXPECT_EQ(mapped.value().line(i), owned.value().line(i));
  }
}

TEST_F(MmapDatasetTest, AutoModeUsesThresold) {
  const std::string path = WriteTemp("a\nb\n");
  auto small = Dataset::FromFile(path, MapMode::kAuto, /*mmap_threshold=*/64);
  ASSERT_TRUE(small.ok());
  EXPECT_FALSE(small.value().is_mapped());
  auto large = Dataset::FromFile(path, MapMode::kAuto, /*mmap_threshold=*/2);
  ASSERT_TRUE(large.ok());
  EXPECT_EQ(large.value().text(), "a\nb\n");
}

TEST_F(MmapDatasetTest, MappedFileWithoutTrailingNewlineFallsBack) {
  const std::string path = WriteTemp("x,1\ny,2");  // no final '\n'
  auto mapped = Dataset::FromFile(path, MapMode::kAlways);
  ASSERT_TRUE(mapped.ok());
  // The read-only mapping cannot be patched, so the dataset owns a
  // normalized copy — and behaves exactly like the in-memory path.
  EXPECT_FALSE(mapped.value().is_mapped());
  EXPECT_EQ(mapped.value().line_count(), 2u);
  EXPECT_EQ(mapped.value().text().back(), '\n');
}

TEST_F(MmapDatasetTest, EmptyFile) {
  const std::string path = WriteTemp("");
  auto mapped = Dataset::FromFile(path, MapMode::kAlways);
  ASSERT_TRUE(mapped.ok());
  EXPECT_EQ(mapped.value().size_bytes(), 0u);
  EXPECT_EQ(mapped.value().line_count(), 0u);
}

TEST_F(MmapDatasetTest, MissingFileSurfacesError) {
  auto r = Dataset::FromFile("/nonexistent/dir/file.log", MapMode::kAlways);
  EXPECT_FALSE(r.ok());
}

// ------------------------------------------------------- Page release ----

/// Resident kB of the mapping holding `data`'s text, summed over the
/// /proc/self/smaps entries inside it; -1 when smaps is unreadable or has
/// no such entry.
long MappingRssKb(const Dataset& data) {
  std::ifstream smaps("/proc/self/smaps");
  if (!smaps) return -1;
  const uintptr_t lo = reinterpret_cast<uintptr_t>(data.text().data());
  const uintptr_t hi = lo + data.size_bytes();
  long rss_kb = -1;
  bool inside = false;
  std::string line;
  while (std::getline(smaps, line)) {
    char* dash = nullptr;
    const uintptr_t start = std::strtoull(line.c_str(), &dash, 16);
    if (dash != nullptr && *dash == '-') {  // "start-end perms ..." header
      inside = start >= lo && start < hi;
      continue;
    }
    if (inside && line.rfind("Rss:", 0) == 0) {
      rss_kb = std::max(rss_kb, 0L) + std::atol(line.c_str() + 4);
    }
  }
  return rss_kb;
}

void ExpectSameLines(const Dataset& a, const Dataset& b) {
  ASSERT_EQ(a.line_count(), b.line_count());
  for (size_t i = 0; i < a.line_count(); ++i) {
    ASSERT_EQ(a.line_with_newline(i), b.line_with_newline(i)) << "line " << i;
  }
}

TEST_F(MmapDatasetTest, ReleaseDropsWholePagesAndKeepsEveryLine) {
  const size_t page = static_cast<size_t>(::sysconf(_SC_PAGESIZE));
  std::string contents;
  for (int i = 0; contents.size() < 16 * page + page / 2; ++i) {
    contents += "row=" + std::to_string(i) + ";payload=" +
                std::string(static_cast<size_t>(i % 37), 'x') + "\n";
  }
  const std::string path = WriteTemp(contents);
  auto mapped = Dataset::FromFile(path, MapMode::kAlways);
  ASSERT_TRUE(mapped.ok());
  ASSERT_TRUE(mapped->is_mapped());
  const Dataset& data = mapped.value();
  const Dataset owned{std::string(contents)};
  const size_t size = data.size_bytes();

  // Map every page, then release subranges. Every call leaves the text
  // reading back byte for byte.
  ExpectSameLines(data, owned);
  const long all_kb = MappingRssKb(data);
  const long page_kb = static_cast<long>(page / 1024);
  struct Case {
    const char* what;
    size_t begin, end;
    long dropped_pages;  // whole pages inside [begin, end)
  };
  const Case cases[] = {
      {"empty", 5 * page, 5 * page, 0},
      {"reversed", 6 * page, 4 * page, 0},
      {"inside one page", page + 1, 2 * page - 1, 0},
      {"unaligned", 1, 3 * page - 1, 1},  // page 1 only
      {"past the end", size + 1, size + 100 * page, 0},
      {"start past the end", SIZE_MAX - 1, SIZE_MAX, 0},
      {"aligned", 8 * page, 10 * page, 2},
  };
  long expect_kb = all_kb;
  for (const Case& c : cases) {
    SCOPED_TRACE(c.what);
    data.Release(c.begin, c.end);
    expect_kb -= c.dropped_pages * page_kb;
    if (all_kb >= 0) {
      EXPECT_EQ(MappingRssKb(data), expect_kb);
    }
    // Reading back re-faults released pages: undo that for the next case
    // by measuring again after the comparison.
    ExpectSameLines(data, owned);
    expect_kb = MappingRssKb(data);
  }
  // An end at or past the size takes the last, partial page too.
  for (const size_t end : {size, size_t{SIZE_MAX}}) {
    data.Release(0, end);
    if (all_kb >= 0) {
      EXPECT_EQ(MappingRssKb(data), 0);
    }
    ExpectSameLines(data, owned);
  }
  if (all_kb < 0) GTEST_SKIP() << "no /proc/self/smaps: residency unchecked";
}

TEST(DatasetTest, ReleaseIsANoOpOnOwnedText) {
  Dataset data{std::string("a,1\nb,2\nc,3\n")};
  const char* before = data.text().data();
  data.Release(0, data.size_bytes());
  data.Release(1, 2);
  data.Release(100, 50);
  EXPECT_EQ(data.text().data(), before);
  EXPECT_EQ(data.text(), "a,1\nb,2\nc,3\n");
  EXPECT_EQ(data.line(2), "c,3");
}

/// Sink that reads the input mapping's resident kB at every wave end.
class RssProbeSink : public EventSink {
 public:
  explicit RssProbeSink(const Dataset* data) : data_(data) {}
  void OnRecord(int, size_t, std::string_view, size_t, size_t,
                const MatchEvent*, size_t) override {}
  void OnWaveEnd() override {
    ++waves;
    max_rss_kb = std::max(max_rss_kb, MappingRssKb(*data_));
  }
  size_t waves = 0;
  long max_rss_kb = 0;

 private:
  const Dataset* data_;
};

TEST_F(MmapDatasetTest, MappedInputStaysUnpinnedThroughTheBatchPasses) {
  // A 64 MiB mapped input never stays resident as a whole: the line-index
  // build, the discovery sample copy and every extraction wave release the
  // pages behind them. Without the index or a wave release the mapping's
  // resident size reaches the whole file; without the sample release it
  // keeps every page the sample's eight chunks mapped (16 MiB where a
  // touch maps a 2 MiB folio, about 1.5 MiB with 64 KiB fault-around).
  constexpr long kBoundKb = 8 * 1024;
  const std::string path =
      ::testing::TempDir() + "dm_dataset_test_unpinned.log";
  paths_.push_back(path);
  {
    std::FILE* f = std::fopen(path.c_str(), "wb");
    ASSERT_NE(f, nullptr);
    Rng rng(11);
    std::string block;
    size_t written = 0;
    for (size_t i = 0; written < (size_t{64} << 20); ++i) {
      block += "2026-10-17 " + std::to_string(rng.Uniform(10, 23)) + ":" +
               std::to_string(rng.Uniform(10, 59)) + " node-" +
               std::to_string(rng.Uniform(0, 99)) + " GET /item/" +
               std::to_string(i) + " " + std::to_string(rng.Uniform(200, 504)) +
               " " + std::to_string(rng.Uniform(1, 99999)) + "\n";
      if (block.size() >= (size_t{1} << 20)) {
        ASSERT_EQ(std::fwrite(block.data(), 1, block.size(), f), block.size());
        written += block.size();
        block.clear();
      }
    }
    ASSERT_EQ(std::fclose(f), 0);
  }
  auto opened = Dataset::FromFile(path, MapMode::kAlways);
  ASSERT_TRUE(opened.ok());
  const Dataset& data = opened.value();
  ASSERT_TRUE(data.is_mapped());
  const long after_open = MappingRssKb(data);
  if (after_open < 0) GTEST_SKIP() << "no /proc/self/smaps";
  EXPECT_LT(after_open, kBoundKb) << "after FromFile";

  // Finding the sample reads no text: the ranges and the line-length cap
  // come from the index, so the copy can map one chunk at a time.
  DatamaranOptions options;
  options.num_threads = 2;
  SamplerOptions sampler;
  sampler.max_line_bytes = options.max_line_bytes;
  ASSERT_EQ(SampleRanges(data, sampler).size(), 8u);
  EXPECT_GT(SampleView(data, sampler).line_count(), 0u);
  EXPECT_EQ(MappingRssKb(data), after_open) << "after SampleView";

  Datamaran dm(options);
  const PipelineResult resolved = dm.ResolveTemplates(data, nullptr);
  ASSERT_GE(resolved.templates.size(), 1u);
  const long after_resolve = MappingRssKb(data);
  EXPECT_LT(after_resolve, kBoundKb) << "after ResolveTemplates";
  // Discovery reads its sample chunks once, into the copy, and releases
  // them: it leaves the mapping no more resident than the index build did,
  // whatever the folio size (eight chunks mapped through 64 KiB
  // fault-around windows would already exceed the 256 KiB slack).
  EXPECT_LE(after_resolve, after_open + 256) << "after ResolveTemplates";

  for (const int threads : {1, 4}) {
    SCOPED_TRACE(threads);
    ThreadPool pool(threads);
    const Extractor extractor(&resolved.templates, &pool);
    RssProbeSink sink(&data);
    const ExtractionResult stats =
        extractor.ExtractEvents(DatasetView(data), &sink);
    EXPECT_GT(stats.matched_records, data.line_count() / 2);
    EXPECT_GT(sink.waves, 50u);
    EXPECT_LT(sink.max_rss_kb, kBoundKb) << "at a wave end";
  }
}

// --------------------------------------------------------- DatasetView ----

TEST(DatasetViewTest, IdentityViewCoversEverything) {
  Dataset data{std::string("a\nbb\nccc\n")};
  DatasetView view(data);
  EXPECT_TRUE(view.is_identity());
  EXPECT_EQ(view.line_count(), 3u);
  EXPECT_EQ(view.size_bytes(), data.size_bytes());
  EXPECT_EQ(view.physical_line(2), 2u);
  EXPECT_EQ(view.line(1), "bb");
}

TEST(DatasetViewTest, GappedViewSkipsDeadLines) {
  Dataset data{std::string("l0\nl1\nl2\nl3\nl4\n")};
  DatasetView view(data, {0, 2, 3});
  EXPECT_FALSE(view.is_identity());
  EXPECT_EQ(view.line_count(), 3u);
  EXPECT_EQ(view.size_bytes(), 9u);
  EXPECT_EQ(view.line(0), "l0");
  EXPECT_EQ(view.line(1), "l2");
  EXPECT_EQ(view.physical_line(2), 3u);
}

TEST(DatasetViewTest, ResolveSpanInPlaceWhenContiguous) {
  Dataset data{std::string("l0\nl1\nl2\nl3\n")};
  DatasetView view(data, {1, 2, 3});
  ASSERT_TRUE(view.SpanIsContiguous(0, 3));
  std::string scratch;
  auto win = view.ResolveSpan(0, 3, &scratch);
  EXPECT_FALSE(win.assembled);
  EXPECT_EQ(win.text.data(), data.text().data());  // zero copy
  EXPECT_EQ(win.pos, data.line_begin(1));
  EXPECT_TRUE(scratch.empty());
}

TEST(DatasetViewTest, ResolveSpanAssemblesAcrossGap) {
  Dataset data{std::string("l0\nl1\nl2\nl3\nl4\n")};
  DatasetView view(data, {0, 2, 4});
  EXPECT_FALSE(view.SpanIsContiguous(0, 2));
  std::string scratch;
  auto win = view.ResolveSpan(0, 3, &scratch);
  EXPECT_TRUE(win.assembled);
  EXPECT_EQ(win.text, "l0\nl2\nl4\n");
  EXPECT_EQ(win.pos, 0u);
}

TEST(DatasetViewTest, ResolveSpanPastEndOfGappedViewIsClamped) {
  Dataset data{std::string("l0\nl1\nl2\nl3\n")};
  DatasetView view(data, {0, 1});  // lines 2,3 are dead but physically follow
  std::string scratch;
  auto win = view.ResolveSpan(1, 2, &scratch);
  // The window must not run into dead backing lines: it is assembled and
  // contains only the last live line.
  EXPECT_TRUE(win.assembled);
  EXPECT_EQ(win.text, "l1\n");
}

// ------------------------------------------------ residual transitions ----

std::string InterleavedTwoTypes(int rows, uint64_t seed) {
  Rng rng(seed);
  std::string text;
  for (int i = 0; i < rows; ++i) {
    if (rng.Bernoulli(0.5)) {
      text += std::to_string(rng.Uniform(0, 999)) + "," +
              std::to_string(rng.Uniform(0, 999)) + "\n";
    } else {
      text += "k=" + std::to_string(rng.Uniform(0, 99)) + ";\n";
    }
  }
  return text;
}

TEST(MaskMatchedLinesTest, RemovesExactlyTheMatchedLines) {
  Dataset data{InterleavedTwoTypes(400, 7)};
  auto st = StructureTemplate::FromCanonical("F,F\n");
  ASSERT_TRUE(st.ok());
  ResidualMask mask = MaskMatchedLines(DatasetView(data), st.value());
  EXPECT_GT(mask.matched_records, 0u);
  EXPECT_EQ(mask.view.line_count() + mask.matched_records,
            data.line_count());
  // Survivors are exactly the non-matching lines, in order.
  for (size_t v = 0; v < mask.view.line_count(); ++v) {
    EXPECT_EQ(mask.view.line(v).substr(0, 2), "k=");
  }
  // Second masking with the other template empties the view.
  auto st2 = StructureTemplate::FromCanonical("F=F;\n");
  ASSERT_TRUE(st2.ok());
  ResidualMask mask2 = MaskMatchedLines(mask.view, st2.value());
  EXPECT_EQ(mask2.view.line_count(), 0u);
  EXPECT_EQ(mask2.view.size_bytes(), 0u);
}

TEST(MaskMatchedLinesTest, DeterministicAcrossThreadCounts) {
  Dataset data{InterleavedTwoTypes(5000, 9)};
  auto st = StructureTemplate::FromCanonical("F,F\n");
  ASSERT_TRUE(st.ok());
  ResidualMask seq = MaskMatchedLines(DatasetView(data), st.value(), nullptr);
  for (int threads : {2, 4, 7}) {
    ThreadPool pool(threads);
    ResidualMask par = MaskMatchedLines(DatasetView(data), st.value(), &pool);
    ASSERT_EQ(par.view.line_count(), seq.view.line_count())
        << threads << " threads";
    ASSERT_EQ(par.matched_records, seq.matched_records);
    ASSERT_EQ(par.assembled_bytes, seq.assembled_bytes);
    for (size_t v = 0; v < par.view.line_count(); ++v) {
      ASSERT_EQ(par.view.physical_line(v), seq.view.physical_line(v));
    }
  }
}

TEST(MaskMatchedLinesTest, MultiLineTemplateMatchesAcrossNewGap) {
  // After masking the middle line out, the outer lines become adjacent in
  // the view and a 2-line template must see them as one window — the exact
  // semantics the old residual-string rebuild had.
  Dataset data{std::string("BEGIN 1\nnoise,1\nEND\n")};
  auto noise_st = StructureTemplate::FromCanonical("F,F\n");
  ASSERT_TRUE(noise_st.ok());
  ResidualMask mask = MaskMatchedLines(DatasetView(data), noise_st.value());
  ASSERT_EQ(mask.view.line_count(), 2u);
  auto pair_st = StructureTemplate::FromCanonical("F F\nF\n");
  ASSERT_TRUE(pair_st.ok());
  ResidualMask mask2 = MaskMatchedLines(mask.view, pair_st.value());
  EXPECT_EQ(mask2.matched_records, 1u);
  EXPECT_EQ(mask2.view.line_count(), 0u);
  EXPECT_GT(mask2.assembled_bytes, 0u);  // the window straddled the gap
}

}  // namespace
}  // namespace datamaran
