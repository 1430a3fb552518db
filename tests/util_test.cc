#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <optional>
#include <set>
#include <string_view>
#include <vector>

#include "core/dataset.h"
#include "core/input.h"
#include "util/char_class.h"
#include "util/file_io.h"
#include "util/hashing.h"
#include "util/rng.h"
#include "util/sampler.h"
#include "util/status.h"
#include "util/strings.h"

namespace datamaran {
namespace {

// ---------------------------------------------------------------- Status --

TEST(StatusTest, OkByDefault) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status s = Status::IoError("nope");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kIoError);
  EXPECT_EQ(s.ToString(), "IO_ERROR: nope");
}

TEST(ResultTest, HoldsValue) {
  Result<int> r(42);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, 42);
}

TEST(ResultTest, HoldsError) {
  Result<int> r(Status::NotFound("x"));
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kNotFound);
}

// --------------------------------------------------------------- Strings --

TEST(StringsTest, SplitKeepsEmptyPieces) {
  auto parts = Split("a,,b", ',');
  ASSERT_EQ(parts.size(), 3u);
  EXPECT_EQ(parts[0], "a");
  EXPECT_EQ(parts[1], "");
  EXPECT_EQ(parts[2], "b");
}

TEST(StringsTest, SplitSingle) {
  auto parts = Split("abc", ',');
  ASSERT_EQ(parts.size(), 1u);
  EXPECT_EQ(parts[0], "abc");
}

TEST(StringsTest, SplitLinesDropsTrailingNewline) {
  auto lines = SplitLines("a\nb\n");
  ASSERT_EQ(lines.size(), 2u);
  EXPECT_EQ(lines[0], "a");
  EXPECT_EQ(lines[1], "b");
}

TEST(StringsTest, SplitLinesWithoutTrailingNewline) {
  auto lines = SplitLines("a\nb");
  ASSERT_EQ(lines.size(), 2u);
  EXPECT_EQ(lines[1], "b");
}

TEST(StringsTest, JoinRoundTrip) {
  std::vector<std::string> v = {"a", "b", "c"};
  EXPECT_EQ(Join(v, ","), "a,b,c");
  EXPECT_EQ(Join(std::vector<std::string>{}, ","), "");
}

TEST(StringsTest, Trim) {
  EXPECT_EQ(Trim("  x \t\n"), "x");
  EXPECT_EQ(Trim("\t \n"), "");
  EXPECT_EQ(Trim("ab"), "ab");
}

TEST(StringsTest, StartsEndsWith) {
  EXPECT_TRUE(StartsWith("hello", "he"));
  EXPECT_FALSE(StartsWith("h", "he"));
  EXPECT_TRUE(EndsWith("hello", "lo"));
  EXPECT_FALSE(EndsWith("o", "lo"));
}

TEST(StringsTest, ParseInt64Basics) {
  EXPECT_EQ(ParseInt64("0").value(), 0);
  EXPECT_EQ(ParseInt64("-17").value(), -17);
  EXPECT_EQ(ParseInt64("0042").value(), 42);  // zero padding accepted
  EXPECT_FALSE(ParseInt64("").has_value());
  EXPECT_FALSE(ParseInt64("-").has_value());
  EXPECT_FALSE(ParseInt64("12a").has_value());
  EXPECT_FALSE(ParseInt64("1.5").has_value());
  EXPECT_FALSE(ParseInt64("99999999999999999999999").has_value());
}

TEST(StringsTest, ParseDecimalBasics) {
  int exp = -1;
  EXPECT_DOUBLE_EQ(ParseDecimal("3.25", &exp).value(), 3.25);
  EXPECT_EQ(exp, 2);
  EXPECT_DOUBLE_EQ(ParseDecimal("-1.5", &exp).value(), -1.5);
  EXPECT_EQ(exp, 1);
  EXPECT_DOUBLE_EQ(ParseDecimal("7", &exp).value(), 7.0);
  EXPECT_EQ(exp, 0);
  EXPECT_FALSE(ParseDecimal("12.", &exp).has_value());
  EXPECT_FALSE(ParseDecimal(".5", &exp).has_value());
  EXPECT_FALSE(ParseDecimal("1e5", &exp).has_value());
}

TEST(StringsTest, ReplaceAll) {
  EXPECT_EQ(ReplaceAll("a-b-c", "-", "+"), "a+b+c");
  EXPECT_EQ(ReplaceAll("aaa", "aa", "b"), "ba");
}

TEST(StringsTest, EscapeForDisplay) {
  EXPECT_EQ(EscapeForDisplay("a\nb\t"), "a\\nb\\t");
  EXPECT_EQ(EscapeForDisplay(std::string_view("\x01", 1)), "\\x01");
}

TEST(StringsTest, StrFormat) {
  EXPECT_EQ(StrFormat("%d-%s", 5, "x"), "5-x");
}

TEST(StringsTest, HumanBytes) {
  EXPECT_EQ(HumanBytes(512), "512.0 B");
  EXPECT_EQ(HumanBytes(2048), "2.0 KB");
}

// ------------------------------------------------------------- CharClass --

TEST(CharClassTest, OfAndContains) {
  CharSet s = CharSet::Of(",;");
  EXPECT_TRUE(s.Contains(','));
  EXPECT_TRUE(s.Contains(';'));
  EXPECT_FALSE(s.Contains('a'));
  EXPECT_EQ(s.Size(), 2);
}

TEST(CharClassTest, AddRemove) {
  CharSet s;
  s.Add('x');
  EXPECT_TRUE(s.Contains('x'));
  s.Remove('x');
  EXPECT_FALSE(s.Contains('x'));
  EXPECT_TRUE(s.Empty());
}

TEST(CharClassTest, SubsetUnionIntersect) {
  CharSet a = CharSet::Of("ab");
  CharSet b = CharSet::Of("abc");
  EXPECT_TRUE(a.IsSubsetOf(b));
  EXPECT_FALSE(b.IsSubsetOf(a));
  EXPECT_EQ(a.Union(b).Size(), 3);
  EXPECT_EQ(a.Intersect(b).Size(), 2);
}

TEST(CharClassTest, DefaultSpecialsContainPunctuationNotLetters) {
  EXPECT_TRUE(IsDefaultSpecial(','));
  EXPECT_TRUE(IsDefaultSpecial(' '));
  EXPECT_TRUE(IsDefaultSpecial('\t'));
  EXPECT_FALSE(IsDefaultSpecial('a'));
  EXPECT_FALSE(IsDefaultSpecial('7'));
  EXPECT_FALSE(IsDefaultSpecial('\n'));  // handled separately
}

TEST(CharClassTest, CountSpecialCharsSortsByFrequency) {
  auto counts = CountSpecialChars("a,b,c;d", DefaultSpecialChars());
  ASSERT_EQ(counts.size(), 2u);
  EXPECT_EQ(counts[0].first, ',');
  EXPECT_EQ(counts[0].second, 2u);
  EXPECT_EQ(counts[1].first, ';');
}

// --------------------------------------------------------------- File IO --

TEST(FileIoTest, RoundTrip) {
  std::string path = testing::TempDir() + "/dm_fileio_test.txt";
  ASSERT_TRUE(WriteStringToFile(path, "hello\nworld\n").ok());
  auto r = ReadFileToString(path);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, "hello\nworld\n");
  std::remove(path.c_str());
}

TEST(FileIoTest, MissingFileIsIoError) {
  auto r = ReadFileToString("/nonexistent/dir/file.txt");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kIoError);
}

// ------------------------------------------------------------------- Rng --

TEST(RngTest, Deterministic) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.Next(), b.Next());
}

TEST(RngTest, UniformInRange) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    int64_t v = rng.Uniform(-3, 5);
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 5);
  }
}

TEST(RngTest, UniformCoversRange) {
  Rng rng(11);
  std::set<int64_t> seen;
  for (int i = 0; i < 200; ++i) seen.insert(rng.Uniform(0, 3));
  EXPECT_EQ(seen.size(), 4u);
}

TEST(RngTest, BernoulliExtremes) {
  Rng rng(5);
  for (int i = 0; i < 50; ++i) {
    EXPECT_FALSE(rng.Bernoulli(0.0));
    EXPECT_TRUE(rng.Bernoulli(1.0));
  }
}

// --------------------------------------------------------------- Hashing --

TEST(HashingTest, DistinctStringsDistinctHashes) {
  EXPECT_NE(Fnv1a("(F,)*F\n"), Fnv1a("F,F\n"));
  EXPECT_EQ(Fnv1a("abc"), Fnv1a("abc"));
}

TEST(HashingTest, IncrementalMatchesBulk) {
  uint64_t h = kFnvOffset;
  for (char c : std::string_view("hello")) {
    h = Fnv1aByte(h, static_cast<unsigned char>(c));
  }
  EXPECT_EQ(h, Fnv1a("hello"));
}

// --------------------------------------------------------------- Sampler --

/// Reference for SampleRanges: the same chunking, found by searching the
/// text for each chunk's '\n's instead of the line index.
std::vector<SampleRange> TextSearchRanges(std::string_view text,
                                          const SamplerOptions& options) {
  if (text.size() <= options.max_sample_bytes) return {{0, text.size()}};
  const size_t chunk_bytes = options.max_sample_bytes / options.num_chunks;
  const size_t stride = text.size() / options.num_chunks;
  std::vector<SampleRange> ranges;
  size_t last_end = 0;
  for (int i = 0; i < options.num_chunks; ++i) {
    size_t begin = std::max(static_cast<size_t>(i) * stride, last_end);
    if (begin >= text.size()) break;
    if (begin > 0) {
      const size_t nl = text.find('\n', begin);
      if (nl == std::string_view::npos) break;
      begin = nl + 1;
    }
    if (begin >= text.size()) break;
    size_t end = std::min(begin + chunk_bytes, text.size());
    const size_t nl = text.find('\n', end);
    end = nl == std::string_view::npos ? text.size() : nl + 1;
    ranges.push_back({begin, end});
    last_end = end;
  }
  return ranges;
}

TEST(SamplerTest, SmallInputReturnedWhole) {
  SamplerOptions opts;
  opts.max_sample_bytes = 1024;
  std::string text = "a\nb\nc\n";
  Dataset data{std::string(text)};
  auto ranges = SampleRanges(data, opts);
  ASSERT_EQ(ranges.size(), 1u);
  EXPECT_EQ(ranges[0].begin, 0u);
  EXPECT_EQ(ranges[0].end, text.size());
  DatasetView view = SampleView(data, opts);
  EXPECT_TRUE(view.is_identity());
  EXPECT_EQ(view.line_count(), 3u);
  EXPECT_EQ(view.size_bytes(), text.size());
}

TEST(SamplerTest, LargeInputIsLineAlignedAndBounded) {
  std::string text;
  for (int i = 0; i < 20000; ++i) {
    text += "line-" + std::to_string(i) + ",field,value\n";
  }
  SamplerOptions opts;
  opts.max_sample_bytes = 8 * 1024;
  opts.num_chunks = 4;
  Dataset data{std::string(text)};
  DatasetView view = SampleView(data, opts);
  EXPECT_FALSE(view.is_identity());
  EXPECT_LE(view.size_bytes(), opts.max_sample_bytes + 4096u);
  ASSERT_GT(view.line_count(), 0u);
  // Every sampled line must be a complete line from the original, and the
  // ranges must be line-aligned, ascending, and non-overlapping.
  for (size_t v = 0; v < view.line_count(); ++v) {
    auto line = view.line(v);
    EXPECT_TRUE(StartsWith(line, "line-")) << line;
    EXPECT_TRUE(EndsWith(line, ",field,value")) << line;
  }
  auto ranges = SampleRanges(data, opts);
  size_t total = 0;
  size_t prev_end = 0;
  for (const SampleRange& r : ranges) {
    EXPECT_GE(r.begin, prev_end);
    EXPECT_LT(r.begin, r.end);
    EXPECT_TRUE(r.begin == 0 || text[r.begin - 1] == '\n');
    EXPECT_EQ(text[r.end - 1], '\n');
    total += r.end - r.begin;
    prev_end = r.end;
  }
  EXPECT_EQ(total, view.size_bytes());
}

TEST(SamplerTest, ChunksSpreadThroughFile) {
  std::string text;
  for (int i = 0; i < 10000; ++i) {
    text += "row" + std::to_string(i) + "\n";
  }
  SamplerOptions opts;
  opts.max_sample_bytes = 4096;
  opts.num_chunks = 4;
  Dataset data{std::string(text)};
  DatasetView view = SampleView(data, opts);
  // The sample should contain rows from both the beginning and the end half.
  EXPECT_EQ(view.line(0), "row0");
  EXPECT_GE(view.physical_line(view.line_count() - 1), data.line_count() / 2);
}

/// Lines of random length in [0, max_len], some far longer than a chunk.
std::string RandomLines(Rng* rng, size_t bytes, int max_len) {
  std::string text;
  while (text.size() < bytes) {
    const int64_t len = rng->Bernoulli(0.02) ? rng->Uniform(200, 3000)
                                             : rng->Uniform(0, max_len);
    for (int64_t k = 0; k < len; ++k) {
      text += static_cast<char>('a' + rng->Uniform(0, 25));
    }
    text += '\n';
  }
  return text;
}

/// The lines of `ranges`, less those over `max_line_bytes` (0: no cap).
std::string SampleText(std::string_view text,
                       const std::vector<SampleRange>& ranges,
                       size_t max_line_bytes) {
  std::string sample;
  for (const SampleRange& r : ranges) {
    for (size_t b = r.begin; b < r.end;) {
      const size_t e = text.find('\n', b) + 1;
      if (max_line_bytes == 0 || e - b - 1 <= max_line_bytes) {
        sample.append(text, b, e - b);
      }
      b = e;
    }
  }
  return sample;
}

TEST(SamplerTest, SampleRangesMatchTextSearch) {
  // Finding the ranges from the line index must reproduce every range the
  // text search found: single-byte lines, empty lines, lines longer than a
  // chunk or a stride, budgets below the chunk count, and sizes on both
  // sides of the whole-file threshold. The sample InputReader reads from a
  // file must hold exactly the lines of those ranges, less the over-cap
  // ones, at any window size and with or without a final newline on disk,
  // and so must the sample it reads from the same text as a stream.
  Rng rng(3);
  const std::string path = ::testing::TempDir() + "dm_util_sample.log";
  const std::string stitch_a = path + ".1";
  const std::string stitch_b = path + ".2";
  for (int trial = 0; trial < 300; ++trial) {
    SCOPED_TRACE(trial);
    const size_t bytes = static_cast<size_t>(rng.Uniform(1, 20000));
    const std::string text =
        RandomLines(&rng, bytes, static_cast<int>(rng.Uniform(0, 120)));
    SamplerOptions opts;
    opts.num_chunks = static_cast<int>(rng.Uniform(1, 16));
    switch (trial % 4) {
      case 0:
        opts.max_sample_bytes = text.size();  // whole file, exactly
        break;
      case 1:
        opts.max_sample_bytes = text.size() - 1;  // one byte over
        break;
      case 2:
        opts.max_sample_bytes = static_cast<size_t>(rng.Uniform(0, 20));
        break;
      default:
        opts.max_sample_bytes = static_cast<size_t>(rng.Uniform(0, 8000));
        break;
    }
    const Dataset data{std::string(text)};
    const std::vector<SampleRange> got = SampleRanges(data, opts);
    const std::vector<SampleRange> want = TextSearchRanges(text, opts);
    ASSERT_EQ(got.size(), want.size());
    for (size_t i = 0; i < got.size(); ++i) {
      EXPECT_EQ(got[i].begin, want[i].begin) << "range " << i;
      EXPECT_EQ(got[i].end, want[i].end) << "range " << i;
    }

    opts.max_line_bytes =
        trial % 3 == 0 ? 0 : static_cast<size_t>(rng.Uniform(0, 200));
    const std::string expect = SampleText(text, want, opts.max_line_bytes);
    // The reader appends a final newline the file lacks, so dropping a
    // non-empty last line's '\n' on disk leaves the logical text as is.
    const bool drop_newline = trial % 2 == 1 && text.size() >= 2 &&
                              text[text.size() - 2] != '\n';
    ASSERT_TRUE(WriteStringToFile(
                    path, drop_newline ? text.substr(0, text.size() - 1)
                                       : text)
                    .ok());
    auto reader = InputReader::Open({path}, InputOptions{});
    ASSERT_TRUE(reader.ok()) << reader.status().ToString();
    ASSERT_TRUE(reader->windowed());
    EXPECT_EQ(reader->size_bytes(), text.size());
    reader->set_window_bytes(static_cast<size_t>(rng.Uniform(1, 300)));
    std::optional<Dataset> copy;
    auto sample = reader->ReadSample(opts, &copy);
    ASSERT_TRUE(sample.ok()) << sample.status().ToString();
    ASSERT_TRUE(copy.has_value());
    EXPECT_TRUE(sample->is_identity());
    EXPECT_EQ(copy->text(), expect);

    // The same text as a two-member stitch, split at a line end, is a
    // stream: its sample comes from forward passes, read before and after
    // a pass has learned the size.
    const size_t at = static_cast<size_t>(rng.Uniform(0, text.size()));
    const size_t cut = at == 0 ? 0 : text.find('\n', at - 1) + 1;
    ASSERT_TRUE(WriteStringToFile(stitch_a, text.substr(0, cut)).ok());
    ASSERT_TRUE(WriteStringToFile(stitch_b, text.substr(cut)).ok());
    auto stream = InputReader::Open({stitch_a, stitch_b}, InputOptions{});
    ASSERT_TRUE(stream.ok()) << stream.status().ToString();
    stream->set_window_bytes(static_cast<size_t>(rng.Uniform(1, 300)));
    for (int pass = 0; pass < 2; ++pass) {
      std::optional<Dataset> streamed;
      auto got = stream->ReadSample(opts, &streamed);
      ASSERT_TRUE(got.ok()) << got.status().ToString();
      ASSERT_TRUE(streamed.has_value());
      EXPECT_EQ(streamed->text(), expect) << "stitched, pass " << pass;
      EXPECT_EQ(stream->size_bytes(), text.size());
    }
  }
  std::remove(path.c_str());
  std::remove(stitch_a.c_str());
  std::remove(stitch_b.c_str());
}

TEST(SamplerTest, DefaultWindowFindsLineEndsPastTheProbe) {
  // At the default window the range walk's line-end queries read a small
  // probe at a time; lines longer than the probe, and one longer than the
  // whole window, must still end where the text search ends them.
  Rng rng(16);
  const std::string path = ::testing::TempDir() + "dm_util_long_lines.log";
  for (int trial = 0; trial < 6; ++trial) {
    SCOPED_TRACE(trial);
    std::string text;
    while (text.size() < 400 * 1024) {
      text.append(static_cast<size_t>(rng.Uniform(0, 12000)),
                  static_cast<char>('a' + rng.Uniform(0, 25)));
      text += '\n';
    }
    // One line past the window, at a random line start.
    const auto pick = static_cast<size_t>(
        rng.Uniform(0, static_cast<int64_t>(text.size()) - 1));
    const size_t at = text.find('\n', pick) + 1;
    text.insert(at, std::string(InputReader::kWindowBytes + 5000, 'w') + "\n");
    SamplerOptions opts;
    opts.num_chunks = static_cast<int>(rng.Uniform(1, 16));
    opts.max_sample_bytes = static_cast<size_t>(rng.Uniform(1, 256 * 1024));
    opts.max_line_bytes = trial % 2 == 0 ? 0 : 8000;
    const std::string expect =
        SampleText(text, TextSearchRanges(text, opts), opts.max_line_bytes);
    ASSERT_TRUE(WriteStringToFile(path, text).ok());
    auto reader = InputReader::Open({path}, InputOptions{});
    ASSERT_TRUE(reader.ok()) << reader.status().ToString();
    ASSERT_TRUE(reader->windowed());
    std::optional<Dataset> copy;
    auto sample = reader->ReadSample(opts, &copy);
    ASSERT_TRUE(sample.ok()) << sample.status().ToString();
    ASSERT_TRUE(copy.has_value());
    EXPECT_TRUE(copy->text() == expect);
  }
  std::remove(path.c_str());
}

}  // namespace
}  // namespace datamaran
