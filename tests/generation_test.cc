#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <string>
#include <string_view>
#include <vector>

#include "core/dataset.h"
#include "core/options.h"
#include "datagen/manual_datasets.h"
#include "generation/generator.h"
#include "pruning/pruner.h"
#include "template/record_template.h"
#include "util/hashing.h"
#include "util/rng.h"
#include "util/thread_pool.h"

// Global allocation counting for GenerationTest's allocation tests: while
// a thread's flag is set, every operator new it calls is counted, with the
// bytes it asks for. Live bytes also go down by a sized delete's size (the
// standard containers free that way), and their high-water mark is kept.
namespace {
thread_local bool tl_count_allocations = false;
thread_local size_t tl_allocations = 0;
thread_local size_t tl_allocated_bytes = 0;
thread_local int64_t tl_live_bytes = 0;
thread_local int64_t tl_peak_live_bytes = 0;

void StartCounting() {
  tl_allocations = 0;
  tl_allocated_bytes = 0;
  tl_live_bytes = 0;
  tl_peak_live_bytes = 0;
  tl_count_allocations = true;
}
}  // namespace

void* operator new(std::size_t size) {
  if (tl_count_allocations) {
    ++tl_allocations;
    tl_allocated_bytes += size;
    tl_live_bytes += static_cast<int64_t>(size);
    tl_peak_live_bytes = std::max(tl_peak_live_bytes, tl_live_bytes);
  }
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) { return ::operator new(size); }
// Not inlined, so the compiler never sees free() meet operator new's result.
[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { ::operator delete(p); }
void operator delete(void* p, std::size_t size) noexcept {
  if (tl_count_allocations) tl_live_bytes -= static_cast<int64_t>(size);
  ::operator delete(p);
}
void operator delete[](void* p, std::size_t size) noexcept {
  ::operator delete(p, size);
}

namespace datamaran {
namespace {

constexpr int kCrashLog = 5;          // BuildManualDataset index
constexpr int kGithubLog4 = 23;       // BuildManualDataset index
constexpr int kStackexchangeXml = 16;  // BuildManualDataset index

template <typename List>
bool HasCandidate(const List& cands, std::string_view canonical) {
  return std::any_of(cands.begin(), cands.end(),
                     [&](const CandidateTemplate& c) {
                       return c.canonical == canonical;
                     });
}

std::string CsvText(int rows) {
  std::string text;
  Rng rng(42);
  for (int i = 0; i < rows; ++i) {
    text += std::to_string(rng.Uniform(0, 999)) + "," +
            std::to_string(rng.Uniform(0, 999)) + "," +
            std::to_string(rng.Uniform(0, 999)) + "\n";
  }
  return text;
}

DatamaranOptions TestOptions() {
  DatamaranOptions opts;
  opts.max_special_chars = 6;
  return opts;
}

// --------------------------------------------------------------- dataset --

TEST(DatasetTest, LineIndex) {
  Dataset d("ab\ncd\n");
  EXPECT_EQ(d.line_count(), 2u);
  EXPECT_EQ(d.line(0), "ab");
  EXPECT_EQ(d.line(1), "cd");
  EXPECT_EQ(d.line_with_newline(1), "cd\n");
  EXPECT_EQ(d.line_begin(1), 3u);
  EXPECT_EQ(d.LineOfOffset(0), 0u);
  EXPECT_EQ(d.LineOfOffset(4), 1u);
}

TEST(DatasetTest, AppendsMissingFinalNewline) {
  Dataset d("ab\ncd");
  EXPECT_EQ(d.line_count(), 2u);
  EXPECT_EQ(d.text().back(), '\n');
}

TEST(DatasetTest, EmptyText) {
  Dataset d("");
  EXPECT_EQ(d.line_count(), 0u);
  EXPECT_EQ(d.size_bytes(), 0u);
}

// ------------------------------------------------------------ generation --

TEST(GenerationTest, FindsCsvTemplateWithExplicitCharset) {
  Dataset data(CsvText(200));
  DatamaranOptions opts = TestOptions();
  CandidateGenerator gen(&data, &opts);
  std::vector<CandidateTemplate> out;
  double best = gen.RunCharset(CharSet::Of(","), &out);
  EXPECT_GT(best, 0);
  ASSERT_TRUE(HasCandidate(out, "(F,)*F\n"));
  // The true single-line template covers essentially everything. (The
  // surviving stats may come from any of the period-equivalent bins, so
  // only coverage — which they share — is asserted.)
  bool found = false;
  for (const auto& c : out) {
    if (c.canonical == "(F,)*F\n") {
      EXPECT_FALSE(found) << "duplicate candidates not deduped";
      found = true;
      EXPECT_GE(c.coverage, 0.9 * data.size_bytes());
      EXPECT_GE(c.count, 20u);
    }
  }
  EXPECT_TRUE(found);
}

TEST(GenerationTest, StackedVariantsReducedToOnePeriod) {
  Dataset data(CsvText(200));
  DatamaranOptions opts = TestOptions();
  CandidateGenerator gen(&data, &opts);
  std::vector<CandidateTemplate> out;
  gen.RunCharset(CharSet::Of(","), &out);
  // The doubled two-line stacking of the true template (Figure 11's first
  // redundancy source) is canonicalized back to one period at generation.
  EXPECT_FALSE(HasCandidate(out, "(F,)*F\n(F,)*F\n"));
  EXPECT_TRUE(HasCandidate(out, "(F,)*F\n"));
}

TEST(GenerationTest, ReduceLinePeriodBasics) {
  EXPECT_EQ(ReduceLinePeriod("(F,)*F\n(F,)*F\n"), "(F,)*F\n");
  EXPECT_EQ(ReduceLinePeriod("F\nF\nF\nF\n"), "F\n");
  EXPECT_EQ(ReduceLinePeriod("a: F\nb: F\na: F\nb: F\n"), "a: F\nb: F\n");
  // Non-periodic templates are untouched.
  EXPECT_EQ(ReduceLinePeriod("a: F\nb: F\n"), "a: F\nb: F\n");
  EXPECT_EQ(ReduceLinePeriod("F,F\n"), "F,F\n");
  // Three groups with only two equal: not periodic.
  EXPECT_EQ(ReduceLinePeriod("x\nx\ny\n"), "x\nx\ny\n");
}

/// The group-by-group forms generation used before it reduced and rotated
/// windows in place: the oracle for ReduceLinePeriod and
/// CanonicalizeRotation.
std::vector<std::string_view> LineGroups(std::string_view canonical) {
  std::vector<std::string_view> groups;
  size_t start = 0;
  for (size_t i = 0; i < canonical.size(); ++i) {
    if (canonical[i] == '\n') {
      groups.push_back(canonical.substr(start, i + 1 - start));
      start = i + 1;
    }
  }
  return groups;
}

std::string ReferencePeriod(std::string_view canonical) {
  if (canonical.empty() || canonical.back() != '\n') {
    return std::string(canonical);
  }
  const auto groups = LineGroups(canonical);
  const size_t s = groups.size();
  for (size_t p = 1; p < s; ++p) {
    if (s % p != 0) continue;
    bool periodic = true;
    for (size_t i = p; i < s && periodic; ++i) {
      periodic = groups[i] == groups[i % p];
    }
    if (periodic) {
      size_t len = 0;
      for (size_t i = 0; i < p; ++i) len += groups[i].size();
      return std::string(canonical.substr(0, len));
    }
  }
  return std::string(canonical);
}

std::string ReferenceRotation(std::string_view canonical) {
  if (canonical.empty() || canonical.back() != '\n') {
    return std::string(canonical);
  }
  const auto groups = LineGroups(canonical);
  const size_t s = groups.size();
  size_t best = 0;
  for (size_t r = 1; r < s; ++r) {
    for (size_t i = 0; i < s; ++i) {
      const std::string_view a = groups[(r + i) % s];
      const std::string_view b = groups[(best + i) % s];
      if (a != b) {
        if (a < b) best = r;
        break;
      }
    }
  }
  std::string out;
  for (size_t i = 0; i < s; ++i) out += groups[(best + i) % s];
  return out;
}

TEST(GenerationTest, CanonicalizeRotationBasics) {
  EXPECT_EQ(CanonicalizeRotation("b: F\na: F\n"), "a: F\nb: F\n");
  EXPECT_EQ(CanonicalizeRotation("a: F\nb: F\n"), "a: F\nb: F\n");
  // A shorter line orders by its '\n' against the longer line's byte.
  EXPECT_EQ(CanonicalizeRotation("ab\na\n"), "a\nab\n");
  EXPECT_EQ(CanonicalizeRotation("F\n"), "F\n");
  EXPECT_EQ(CanonicalizeRotation("F,F"), "F,F");
}

TEST(GenerationTest, PeriodAndRotationMatchGroupReference) {
  // Random multi-line canonicals over a few line shapes, so periods and
  // tied rotations are common; bytes above 0x7f check the unsigned order.
  const std::string_view shapes[] = {"F\n", "a\n", "ab\n", "F,F\n",
                                     "\xe9" "F\n", "\n", "aF\n"};
  Rng rng(31);
  for (int trial = 0; trial < 3000; ++trial) {
    std::string unit;
    const uint64_t lines = rng.Uniform(1, 4);
    for (uint64_t l = 0; l < lines; ++l) {
      unit += shapes[rng.Uniform(0, std::size(shapes) - 1)];
    }
    std::string canonical;
    const uint64_t copies = rng.Uniform(1, 3);
    for (uint64_t c = 0; c < copies; ++c) canonical += unit;
    if (rng.Uniform(0, 9) == 0) canonical += "tail";
    ASSERT_EQ(ReduceLinePeriod(canonical), ReferencePeriod(canonical))
        << canonical;
    ASSERT_EQ(CanonicalizeRotation(canonical), ReferenceRotation(canonical))
        << canonical;
  }
}

TEST(GenerationTest, EmptyCharsetYieldsTrivialTemplate) {
  Dataset data(CsvText(50));
  DatamaranOptions opts = TestOptions();
  CandidateGenerator gen(&data, &opts);
  std::vector<CandidateTemplate> out;
  gen.RunCharset(CharSet(), &out);
  ASSERT_TRUE(HasCandidate(out, "F\n"));
}

TEST(GenerationTest, TrivialTemplateHasLowNonFieldCoverage) {
  Dataset data(CsvText(100));
  DatamaranOptions opts = TestOptions();
  CandidateGenerator gen(&data, &opts);
  std::vector<CandidateTemplate> out;
  gen.RunCharset(CharSet(), &out);
  gen.RunCharset(CharSet::Of(","), &out);
  const CandidateTemplate* trivial = nullptr;
  const CandidateTemplate* real = nullptr;
  for (const auto& c : out) {
    if (c.canonical == "F\n" && c.span == 1) trivial = &c;
    if (c.canonical == "(F,)*F\n") real = &c;
  }
  ASSERT_NE(trivial, nullptr);
  ASSERT_NE(real, nullptr);
  // This is the pruning-step insight: the second redundancy source keeps
  // high coverage but loses non-field coverage.
  EXPECT_LT(trivial->non_field_coverage, real->non_field_coverage);
  EXPECT_LT(trivial->assimilation(), real->assimilation());
}

TEST(GenerationTest, ExhaustiveSearchFindsCsvTemplate) {
  Dataset data(CsvText(200));
  DatamaranOptions opts = TestOptions();
  CandidateGenerator gen(&data, &opts);
  GenerationResult result = gen.Run();
  EXPECT_GT(result.charsets_tried, 1u);
  EXPECT_TRUE(HasCandidate(result.candidates, "(F,)*F\n"));
}

TEST(GenerationTest, GreedySearchFindsCsvTemplate) {
  Dataset data(CsvText(200));
  DatamaranOptions opts = TestOptions();
  opts.search = CharsetSearch::kGreedy;
  CandidateGenerator gen(&data, &opts);
  GenerationResult result = gen.Run();
  EXPECT_TRUE(HasCandidate(result.candidates, "(F,)*F\n"));
}

TEST(GenerationTest, GreedyTriesFewerCharsetsThanExhaustive) {
  std::string text;
  Rng rng(7);
  for (int i = 0; i < 150; ++i) {
    text += "[";
    text += std::to_string(rng.Uniform(10, 99)) + ":" +
            std::to_string(rng.Uniform(10, 99)) + "] user=" +
            std::to_string(rng.Uniform(0, 9)) + ";host=" +
            std::to_string(rng.Uniform(0, 9)) + "\n";
  }
  Dataset data(std::move(text));
  DatamaranOptions opts = TestOptions();
  opts.max_special_chars = 7;
  CandidateGenerator ex(&data, &opts);
  GenerationResult exhaustive = ex.Run();
  opts.search = CharsetSearch::kGreedy;
  CandidateGenerator gr(&data, &opts);
  GenerationResult greedy = gr.Run();
  EXPECT_LT(greedy.charsets_tried, exhaustive.charsets_tried);
}

TEST(GenerationTest, MultiLineRecordTemplateFound) {
  // Three-line records: header, key-value, terminator.
  std::string text;
  Rng rng(3);
  for (int i = 0; i < 80; ++i) {
    text += "== entry " + std::to_string(i) + " ==\n";
    text += "value: " + std::to_string(rng.Uniform(0, 99)) + "\n";
    text += "end.\n";
  }
  Dataset data(std::move(text));
  DatamaranOptions opts = TestOptions();
  CandidateGenerator gen(&data, &opts);
  std::vector<CandidateTemplate> out;
  gen.RunCharset(CharSet::Of("=: ."), &out);
  bool found_three_line = false;
  for (const auto& c : out) {
    if (c.span == 3 && c.coverage >= 0.9 * data.size_bytes()) {
      found_three_line = true;
    }
  }
  EXPECT_TRUE(found_three_line);
}

TEST(GenerationTest, CoverageThresholdFiltersRareTemplates) {
  // 95% csv lines, 5% key=value lines: with alpha=10% only csv survives
  // under the ','-charset.
  std::string text = CsvText(190);
  for (int i = 0; i < 10; ++i) {
    text += "key=value" + std::to_string(i) + "\n";
  }
  Dataset data(std::move(text));
  DatamaranOptions opts = TestOptions();
  opts.coverage_threshold = 0.10;
  CandidateGenerator gen(&data, &opts);
  std::vector<CandidateTemplate> out;
  gen.RunCharset(CharSet::Of(",="), &out);
  EXPECT_TRUE(HasCandidate(out, "(F,)*F\n"));
  EXPECT_FALSE(HasCandidate(out, "F=F\n"));
}

TEST(GenerationTest, SearchCharsCappedAndFrequencySorted) {
  std::string text;
  for (int i = 0; i < 100; ++i) {
    text += "a,b,c;d|e\n";  // ',' twice per line; ';' and '|' once
  }
  Dataset data(std::move(text));
  DatamaranOptions opts = TestOptions();
  opts.max_special_chars = 2;
  CandidateGenerator gen(&data, &opts);
  ASSERT_EQ(gen.search_chars().size(), 2u);
  EXPECT_EQ(gen.search_chars()[0], ',');
}

// ------------------------------------------------------- candidate order --

/// FNV-1a over a candidate list in order: each canonical, its count, the
/// bit patterns of its coverage and non_field_coverage, its first_line and
/// its span.
uint64_t CandidateOrderHash(const CandidateList& cands) {
  uint64_t h = kFnvOffset;
  auto add = [&h](uint64_t v) {
    for (int b = 0; b < 8; ++b) {
      h = Fnv1aByte(h, static_cast<unsigned char>(v >> (b * 8)));
    }
  };
  for (const CandidateTemplate& c : cands) {
    h = Fnv1a(c.canonical, h);
    add(c.count);
    add(std::bit_cast<uint64_t>(c.coverage));
    add(std::bit_cast<uint64_t>(c.non_field_coverage));
    add(c.first_line);
    add(static_cast<uint64_t>(c.span));
  }
  return h;
}

/// Three interleaved line types: a timestamped record, a braced request
/// and a rarer note line. One draw per statement, so the text does not
/// depend on the compiler's argument evaluation order.
std::string InterleavedLog() {
  Rng rng(2024);
  auto num = [&rng](uint64_t lo, uint64_t hi) {
    return std::to_string(rng.Uniform(lo, hi));
  };
  std::string text;
  for (int i = 0; i < 600; ++i) {
    const uint64_t pick = rng.Uniform(0, 9);
    if (pick < 5) {
      text += "2024-03-" + num(10, 28);
      text += " " + num(10, 23);
      text += ":" + num(10, 59);
      text += " INFO [worker-" + num(0, 9);
      text += "] done id=" + num(0, 99999) + "\n";
    } else if (pick < 8) {
      text += "req " + num(0, 999);
      text += " {path: /api/v" + num(1, 3);
      text += ", ms: " + num(0, 999) + "}\n";
    } else {
      text += "-- note " + num(0, 99) + " --\n";
    }
  }
  return text;
}

// Generation's candidate order is part of its output. The hash bins'
// iteration order decides which stacked variant's count a period-reduced
// candidate keeps on equal assimilation, and the order candidates reach
// FilterComposites (generation/generator.cc) decides which composites it
// drops: its lookups read through views into canonicals that its
// remove_if move-assigns over. Even whether a short canonical sits in a
// heap buffer or in the string's own small buffer changes what those
// views read. So the bin map's container, reserve and insertion sequence,
// and the way a candidate's string is built, must not change until that
// filter is replaced. The expected values were recorded from the
// generator as it was before its storage was recycled.
TEST(GenerationTest, CandidateOrderIsPinned) {
  const GeneratedDataset log4 =
      BuildManualDataset(kGithubLog4, DefaultManualBytes(kGithubLog4));
  const Dataset sample(log4.text);
  ASSERT_EQ(sample.size_bytes(), 24859u);
  const DatamaranOptions opts;
  {
    CandidateGenerator gen(&sample, &opts);
    const GenerationResult r = gen.Run();
    EXPECT_EQ(r.candidates.size(), 2972u);
    EXPECT_EQ(CandidateOrderHash(r.candidates), 0x2cdd431095eec47cull);
  }
  {
    // The same sample with every third line dead.
    std::vector<uint32_t> live;
    for (uint32_t k = 0; k < sample.line_count(); ++k) {
      if (k % 3 != 2) live.push_back(k);
    }
    CandidateGenerator gen(DatasetView(sample, std::move(live)), &opts);
    const GenerationResult r = gen.Run();
    EXPECT_EQ(r.candidates.size(), 3397u);
    EXPECT_EQ(CandidateOrderHash(r.candidates), 0x8fd22dbfa8b58fa5ull);
  }
  {
    const Dataset log(InterleavedLog());
    DatamaranOptions greedy;
    greedy.search = CharsetSearch::kGreedy;
    ThreadPool pool(4);
    CandidateGenerator gen(&log, &greedy, &pool);
    const GenerationResult r = gen.Run();
    EXPECT_EQ(r.candidates.size(), 718u);
    EXPECT_EQ(CandidateOrderHash(r.candidates), 0x99df0a450e3fbdb8ull);
  }
}

TEST(GenerationTest, RunAllocatesPerCandidate) {
  // A full exhaustive search hashes millions of windows. Bin nodes come
  // from each worker's recycled storage, line canonicals share one buffer,
  // both dedups hold indices, and a window is reduced and rotated in
  // scratch, so allocations follow candidates, not windows: one per
  // distinct window per trial would be several percent of records_hashed.
  const GeneratedDataset xml =
      BuildManualDataset(kStackexchangeXml, 100 * 1024);
  const Dataset sample(xml.text);
  const DatamaranOptions opts;
  CandidateGenerator gen(&sample, &opts);
  StartCounting();
  const GenerationResult r = gen.Run();
  tl_count_allocations = false;
  ASSERT_GT(r.records_hashed, 1000000u);
  EXPECT_LT(tl_allocations * 100, r.records_hashed)
      << tl_allocations << " allocations for " << r.records_hashed
      << " records hashed";
}

TEST(GenerationTest, CandidatesAreStoredOnce) {
  // The search appends each candidate to a list that never relocates it,
  // so Run allocates its candidates' storage once. A vector grown by
  // doubling requests every capacity it passes through: at crash_log's
  // 8,426 candidates, 16,383 slots in all, 2.6 MB of 80-byte candidates,
  // on top of the 2.2 MB everything else takes.
  const GeneratedDataset crash =
      BuildManualDataset(kCrashLog, DefaultManualBytes(kCrashLog));
  const Dataset sample(crash.text);
  const DatamaranOptions opts;
  CandidateGenerator gen(&sample, &opts);
  StartCounting();
  const GenerationResult r = gen.Run();
  tl_count_allocations = false;
  ASSERT_GT(r.candidates.size(), 8192u);
  EXPECT_LT(tl_allocated_bytes, size_t{3} << 20)
      << tl_allocated_bytes << " bytes allocated for "
      << r.candidates.size() << " candidates";
}

TEST(GenerationTest, MergeIndexHoldsOneTable) {
  // The search's merge index over crash_log's candidates. A table that
  // doubled while the old one was still live held both at once: 8-byte
  // slots, 131,072 and 262,144 bytes together at 8,426 candidates. Four-
  // byte slots, the old table freed before the new one is built, hold one
  // table of the smallest power of two slots that is at least half empty.
  const GeneratedDataset crash =
      BuildManualDataset(kCrashLog, DefaultManualBytes(kCrashLog));
  const Dataset sample(crash.text);
  const DatamaranOptions opts;
  const CandidateList cands = CandidateGenerator(&sample, &opts).Run().candidates;
  const size_t n = cands.size();
  ASSERT_GT(n, 8192u);
  auto key_at = [&cands](size_t k) -> std::string_view {
    return cands[k].canonical;
  };
  KeyIndex index;
  StartCounting();
  for (size_t k = 0; k < n; ++k) {
    ASSERT_EQ(index.FindOrAdd(k, std::string_view(cands[k].canonical), key_at),
              k);
  }
  tl_count_allocations = false;
  for (size_t k = 0; k < n; ++k) {
    ASSERT_EQ(index.FindOrAdd(n, std::string_view(cands[k].canonical), key_at),
              k);
  }
  const auto table_bytes =
      static_cast<int64_t>(std::bit_ceil(2 * n) * sizeof(uint32_t));
  EXPECT_EQ(tl_live_bytes, table_bytes);
  EXPECT_EQ(tl_peak_live_bytes, table_bytes);
}

/// `records` three-line records (a header, a list of values, a footer), so
/// every trial sees the same three skeletons and the same windows however
/// many records there are.
std::string ThreeLineRecords(int records) {
  Rng rng(77);
  std::string text;
  for (int i = 0; i < records; ++i) {
    text += "[job=" + std::to_string(rng.Uniform(0, 99999)) + "] user=u" +
            std::to_string(rng.Uniform(0, 99)) + ";\n";
    text += "  values: " + std::to_string(rng.Uniform(0, 999)) + ", " +
            std::to_string(rng.Uniform(0, 999)) + ", " +
            std::to_string(rng.Uniform(0, 999)) + "\n";
    text += "end " + std::to_string(i) + ".\n";
  }
  return text;
}

TEST(GenerationTest, TrialWorkspaceDoesNotGrowWithLines) {
  // What a trial leaves in its worker's workspace: its units' canonicals
  // and stats, its bin nodes, its dedup and scratch. Under kSimd the units
  // are the distinct skeletons, so the same format at 4x the lines leaves
  // the same bytes; per-line canonicals and arrays took about 40 bytes a
  // line.
  const DatamaranOptions opts;
  const CharSet charset = CharSet::Of("=;:,. []");
  int64_t retained[2] = {0, 0};
  for (int pass = 0; pass < 2; ++pass) {
    const Dataset sample(ThreeLineRecords(pass == 0 ? 300 : 1200));
    const CandidateGenerator gen(&sample, &opts);
    ASSERT_EQ(gen.skeleton_count(), 3u);
    GenerationWorkspace ws;
    std::vector<CandidateTemplate> out;
    StartCounting();
    gen.RunCharset(charset, &ws, &out);
    ASSERT_FALSE(out.empty());
    std::vector<CandidateTemplate>().swap(out);
    tl_count_allocations = false;
    retained[pass] = tl_live_bytes;
  }
  EXPECT_GT(retained[0], 0);
  EXPECT_EQ(retained[1], retained[0]);
}

TEST(GenerationTest, SkeletonTemplateMatchesPerByteScan) {
  // A line's record template, reduced, and its count of trial-set bytes,
  // derived from its skeleton must equal the per-byte scan's, for random
  // lines (empty ones, ones without a final '\n', NUL and 0xFF bytes),
  // random pools and random trial sets drawn from them. The mask bits
  // around the line are random, as a neighbouring line's would be.
  const std::string alphabet("\0\xff,= \n\tab7", 10);
  Rng rng(57);
  ReduceWorkspace reduce_ws;
  std::string canonical_a, canonical_b;
  for (int trial = 0; trial < 4000; ++trial) {
    SCOPED_TRACE(trial);
    CharSet pool;
    for (char c : alphabet) {
      if (rng.Uniform(0, 1) == 1) pool.Add(static_cast<unsigned char>(c));
    }
    std::string line;
    for (uint64_t i = rng.Uniform(0, 3) == 0 ? 0 : rng.Uniform(1, 90); i > 0;
         --i) {
      line.push_back(alphabet[rng.Uniform(0, alphabet.size() - 1)]);
    }
    if (!line.empty() && rng.Uniform(0, 2) != 0) line.back() = '\n';
    const size_t first_bit = rng.Uniform(0, 130);
    std::vector<uint64_t> mask((first_bit + line.size()) / 64 + 2);
    for (uint64_t& word : mask) word = rng.Next();
    for (size_t i = 0; i < line.size(); ++i) {
      const size_t bit = first_bit + i;
      const uint64_t b = uint64_t{1} << (bit % 64);
      if (pool.Contains(static_cast<unsigned char>(line[i]))) {
        mask[bit / 64] |= b;
      } else {
        mask[bit / 64] &= ~b;
      }
    }
    std::u16string skeleton;
    AppendLineSkeleton(line, mask.data(), first_bit, &skeleton);
    for (int subset = 0; subset < 4; ++subset) {
      CharSet charset;
      for (char c : alphabet) {
        const auto u = static_cast<unsigned char>(c);
        if (pool.Contains(u) && rng.Uniform(0, 2) != 0) charset.Add(u);
      }
      std::string raw_a, raw_b;
      const size_t members = AppendSkeletonTemplate(skeleton, charset, &raw_a);
      const size_t field_chars =
          AppendRecordTemplateCounting(line, charset, &raw_b);
      ASSERT_EQ(raw_a, raw_b);
      ASSERT_EQ(members, line.size() - field_chars);
      ReduceToCanonical(raw_a, &reduce_ws, &canonical_a);
      ReduceToCanonical(raw_b, &reduce_ws, &canonical_b);
      ASSERT_EQ(canonical_a, canonical_b);
    }
  }
}

// --------------------------------------------------------------- pruning --

TEST(PruningTest, OrdersByAssimilationAndTruncates) {
  CandidateList cands(5);
  for (int i = 0; i < 5; ++i) {
    cands[static_cast<size_t>(i)].canonical = "t" + std::to_string(i) + "\n";
    cands[static_cast<size_t>(i)].coverage = 10 * (i + 1);
    cands[static_cast<size_t>(i)].non_field_coverage = 2 * (i + 1);
  }
  auto pruned = PruneCandidates(std::move(cands), 3);
  ASSERT_EQ(pruned.size(), 3u);
  EXPECT_EQ(pruned[0].canonical, "t4\n");
  EXPECT_EQ(pruned[1].canonical, "t3\n");
  EXPECT_EQ(pruned[2].canonical, "t2\n");
}

TEST(PruningTest, TieBreaksTowardShorterTemplate) {
  CandidateList cands(2);
  cands[0].canonical = "(F,)*F\n(F,)*F\n";
  cands[0].coverage = 100;
  cands[0].non_field_coverage = 10;
  cands[1].canonical = "(F,)*F\n";
  cands[1].coverage = 100;
  cands[1].non_field_coverage = 10;
  auto pruned = PruneCandidates(std::move(cands), 2);
  EXPECT_EQ(pruned[0].canonical, "(F,)*F\n");
}

TEST(PruningTest, NegativeMKeepsAll) {
  CandidateList cands(4);
  for (size_t i = 0; i < 4; ++i) cands[i].canonical = std::to_string(i);
  EXPECT_EQ(PruneCandidates(std::move(cands), -1).size(), 4u);
}

TEST(PruningTest, EqualsTheHeadOfAFullSort) {
  // PruneCandidates sorts only the top M. Its order is total over distinct
  // canonicals, so that must be exactly the first M of a full sort, ties
  // in assimilation and in canonical length included: few coverages and
  // short canonicals over a small alphabet make both common.
  auto before = [](const CandidateTemplate& a, const CandidateTemplate& b) {
    if (a.assimilation() != b.assimilation()) {
      return a.assimilation() > b.assimilation();
    }
    if (a.canonical.size() != b.canonical.size()) {
      return a.canonical.size() < b.canonical.size();
    }
    return a.canonical < b.canonical;
  };
  Rng rng(1123);
  for (int trial = 0; trial < 40; ++trial) {
    const auto n = static_cast<size_t>(rng.Uniform(0, 400));
    std::vector<std::string> canonicals;
    while (canonicals.size() < n) {
      std::string c;
      for (uint64_t len = rng.Uniform(1, 5); len > 0; --len) {
        c += "Fa,\n"[rng.Uniform(0, 3)];
      }
      if (std::find(canonicals.begin(), canonicals.end(), c) ==
          canonicals.end()) {
        canonicals.push_back(std::move(c));
      }
    }
    CandidateList cands;
    for (std::string& c : canonicals) {
      CandidateTemplate& cand = cands.emplace_back();
      cand.canonical = std::move(c);
      cand.coverage = static_cast<double>(rng.Uniform(0, 6) * 4);
      cand.non_field_coverage = static_cast<double>(rng.Uniform(0, 6) * 2);
      cand.count = rng.Uniform(1, 1000);
      cand.first_line = rng.Uniform(0, 1000);
      cand.span = static_cast<int>(rng.Uniform(1, 4));
      cand.field_count = static_cast<int>(rng.Uniform(0, 5));
    }
    std::vector<CandidateTemplate> sorted(cands.begin(), cands.end());
    std::sort(sorted.begin(), sorted.end(), before);
    for (const int m : {-1, 0, 1, 200, static_cast<int>(n)}) {
      SCOPED_TRACE(testing::Message() << "trial " << trial << ", n " << n
                                      << ", m " << m);
      const std::vector<CandidateTemplate> pruned = PruneCandidates(cands, m);
      const size_t want =
          m < 0 ? n : std::min(n, static_cast<size_t>(m));
      ASSERT_EQ(pruned.size(), want);
      for (size_t i = 0; i < want; ++i) {
        EXPECT_EQ(pruned[i].canonical, sorted[i].canonical) << "#" << i;
        EXPECT_EQ(pruned[i].coverage, sorted[i].coverage) << "#" << i;
        EXPECT_EQ(pruned[i].non_field_coverage, sorted[i].non_field_coverage)
            << "#" << i;
        EXPECT_EQ(pruned[i].count, sorted[i].count) << "#" << i;
        EXPECT_EQ(pruned[i].first_line, sorted[i].first_line) << "#" << i;
        EXPECT_EQ(pruned[i].span, sorted[i].span) << "#" << i;
        EXPECT_EQ(pruned[i].field_count, sorted[i].field_count) << "#" << i;
      }
    }
  }
}

}  // namespace
}  // namespace datamaran
