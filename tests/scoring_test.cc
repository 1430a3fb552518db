#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <limits>
#include <new>
#include <set>
#include <string>
#include <vector>

#include "core/dataset.h"
#include "scoring/field_stats.h"
#include "scoring/mdl.h"
#include "template/matcher.h"
#include "template/template.h"
#include "util/rng.h"
#include "util/strings.h"

// Global allocation counting for ColumnStatsTest.RepeatsDoNotAllocate:
// while a thread's flag is set, every operator new it calls is counted.
namespace {
thread_local bool tl_count_allocations = false;
thread_local size_t tl_allocations = 0;
}  // namespace

void* operator new(std::size_t size) {
  if (tl_count_allocations) ++tl_allocations;
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) { return ::operator new(size); }
// Not inlined, so the compiler never sees free() meet operator new's result.
[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { ::operator delete(p); }
void operator delete(void* p, std::size_t) noexcept { ::operator delete(p); }
void operator delete[](void* p, std::size_t) noexcept { ::operator delete(p); }

namespace datamaran {
namespace {

StructureTemplate MustParse(std::string_view canonical) {
  auto r = StructureTemplate::FromCanonical(canonical);
  EXPECT_TRUE(r.ok()) << r.status().ToString();
  return std::move(r.value());
}

// ------------------------------------------------------------ field types --

TEST(ColumnStatsTest, IntColumn) {
  ColumnStats col;
  for (int i = 0; i < 100; ++i) col.Add(std::to_string(i % 16));
  EXPECT_TRUE(col.all_int());
  // 16 distinct small ints: enum and int are both valid; either way the
  // per-value cost is 4 bits.
  FieldType t = col.InferType();
  EXPECT_TRUE(t == FieldType::kInt || t == FieldType::kEnum);
  EXPECT_LT(col.BestBits(), col.TotalBits(FieldType::kString));
}

TEST(ColumnStatsTest, ConstantColumnIsNearlyFree) {
  ColumnStats col;
  for (int i = 0; i < 50; ++i) col.Add("INFO");
  EXPECT_EQ(col.distinct_count(), 1u);
  // log2(1) = 0 bits per value; only dictionary + tag remain.
  EXPECT_LT(col.TotalBits(FieldType::kEnum), 64.0);
}

TEST(ColumnStatsTest, RealColumn) {
  ColumnStats col;
  col.Add("1.25");
  col.Add("3.5");
  col.Add("-2.75");
  EXPECT_FALSE(col.all_int());
  EXPECT_TRUE(col.all_real());
  EXPECT_LT(col.TotalBits(FieldType::kReal),
            col.TotalBits(FieldType::kString) + 200);
}

TEST(ColumnStatsTest, StringFallback) {
  ColumnStats col;
  Rng rng(1);
  for (int i = 0; i < 100; ++i) {
    std::string s;
    for (int j = 0; j < 12; ++j) {
      s.push_back(static_cast<char>('a' + rng.Uniform(0, 25)));
    }
    col.Add(s);
  }
  EXPECT_FALSE(col.all_int());
  EXPECT_FALSE(col.all_real());
  // 100 random 12-char strings: enum dictionary costs as much as spelling
  // everything out, so either answer is close; just check cost sanity.
  EXPECT_GE(col.BestBits(), 8.0 * 12 * 100 * 0.5);
}

TEST(ColumnStatsTest, IntTighterThanStringForWideRanges) {
  ColumnStats col;
  Rng rng(2);
  for (int i = 0; i < 5000; ++i) {
    col.Add(std::to_string(rng.Uniform(0, 1000000)));
  }
  EXPECT_EQ(col.InferType(), FieldType::kInt);
}

// The column model spelled out over all of a column's values at once, with
// the enum dictionary as a std::set that stops growing once it holds more
// than 4096 values (the column can no longer be an enum).
class OracleColumn {
 public:
  explicit OracleColumn(const std::vector<std::string>& values)
      : values_(values) {
    for (const std::string& v : values_) {
      if (distinct_.size() > 4096) break;
      if (distinct_.insert(v).second) distinct_len_ += v.size();
    }
  }

  size_t distinct_count() const { return distinct_.size(); }

  double TotalBits(FieldType type) const {
    constexpr double kInf = std::numeric_limits<double>::infinity();
    const double n = static_cast<double>(values_.size());
    switch (type) {
      case FieldType::kEnum: {
        if (distinct_.size() > 4096) return kInf;
        const double d = static_cast<double>(distinct_.size());
        return 2 + 8.0 * (static_cast<double>(distinct_len_) + d) +
               n * Log2Ceil(d);
      }
      case FieldType::kInt: {
        if (values_.empty()) return kInf;
        int64_t lo = std::numeric_limits<int64_t>::max();
        int64_t hi = std::numeric_limits<int64_t>::min();
        for (const std::string& v : values_) {
          auto x = ParseInt64(v);
          if (!x.has_value()) return kInf;
          lo = std::min(lo, *x);
          hi = std::max(hi, *x);
        }
        return 2 + 2 * 64 +
               n * Log2Ceil(static_cast<double>(hi) -
                            static_cast<double>(lo) + 1.0);
      }
      case FieldType::kReal: {
        if (values_.empty()) return kInf;
        double lo = std::numeric_limits<double>::infinity();
        double hi = -lo;
        int exp_max = 0;
        for (const std::string& v : values_) {
          int exp = 0;
          auto x = ParseDecimal(v, &exp);
          if (!x.has_value()) return kInf;
          lo = std::min(lo, *x);
          hi = std::max(hi, *x);
          exp_max = std::max(exp_max, exp);
        }
        return 2 + 2 * 64 + 32 +
               n * Log2Ceil(std::round((hi - lo) * std::pow(10.0, exp_max)) +
                            1.0);
      }
      case FieldType::kString: {
        size_t len = 0;
        for (const std::string& v : values_) len += v.size();
        return 2 + 8.0 * (static_cast<double>(len) + n);
      }
    }
    return kInf;
  }

  FieldType InferType() const {
    FieldType best = FieldType::kString;
    for (FieldType t : {FieldType::kEnum, FieldType::kInt, FieldType::kReal}) {
      if (TotalBits(t) < TotalBits(best)) best = t;
    }
    return best;
  }

 private:
  const std::vector<std::string>& values_;
  std::set<std::string> distinct_;
  size_t distinct_len_ = 0;
};

ColumnStats ExpectMatchesOracle(const std::vector<std::string>& values) {
  ColumnStats col;
  for (const std::string& v : values) col.Add(v);
  const OracleColumn oracle(values);
  EXPECT_EQ(col.count(), values.size());
  EXPECT_EQ(col.distinct_count(), oracle.distinct_count());
  for (FieldType t : {FieldType::kEnum, FieldType::kInt, FieldType::kReal,
                      FieldType::kString}) {
    EXPECT_EQ(col.TotalBits(t), oracle.TotalBits(t)) << FieldTypeName(t);
  }
  EXPECT_EQ(col.InferType(), oracle.InferType());
  return col;
}

// One random value of the given kind: 0 empty, 1 bytes with embedded NULs,
// 2 a long shared prefix and a short tail, 3 over 15 bytes (past the
// short-string buffer), 4 an integer, 5 a decimal, 6 around 128 bytes (where
// a stored length takes a second byte), 7 over 16 KiB (longer than a
// dictionary block).
std::string RandomValue(Rng* rng, int kind) {
  std::string v;
  switch (kind) {
    case 0:
      break;
    case 1:
      for (int64_t i = rng->Uniform(1, 6); i > 0; --i) {
        v.push_back(static_cast<char>(rng->Uniform(0, 3)));  // '\0' often
      }
      break;
    case 2:
      v = "1970-01-01T00:00:00.000000+00:00 worker-pool-";
      v += std::to_string(rng->Uniform(0, 40));
      break;
    case 3:
      for (int64_t i = rng->Uniform(16, 40); i > 0; --i) {
        v.push_back(static_cast<char>('a' + rng->Uniform(0, 2)));
      }
      break;
    case 4:
      v = std::to_string(rng->Uniform(-50, 50));
      break;
    case 5:
      v = std::to_string(rng->Uniform(0, 99)) + "." +
          std::to_string(rng->Uniform(0, 9));
      break;
    case 6:
      v.assign(static_cast<size_t>(rng->Uniform(125, 131)), 'm');
      v.back() = static_cast<char>('0' + rng->Uniform(0, 2));
      break;
    default:
      v.assign(static_cast<size_t>(rng->Uniform(16300, 16500)), 'l');
      v += std::to_string(rng->Uniform(0, 5));
      break;
  }
  return v;
}

TEST(ColumnStatsTest, MatchesSetOracleOnRandomColumns) {
  Rng rng(18);
  for (int trial = 0; trial < 300; ++trial) {
    SCOPED_TRACE(trial);
    // Each column draws from one to three kinds, so some stay all-int or
    // all-real and some mix empty, NUL-bearing and long values.
    std::vector<int> kinds;
    for (int64_t k = rng.Uniform(1, 3); k > 0; --k) {
      kinds.push_back(static_cast<int>(rng.Uniform(0, 7)));
    }
    std::vector<std::string> values;
    for (int64_t i = rng.Uniform(0, 400); i > 0; --i) {
      values.push_back(RandomValue(&rng, rng.Choice(kinds)));
    }
    ExpectMatchesOracle(values);
  }
}

TEST(ColumnStatsTest, MatchesSetOracleAroundTheDistinctLimit) {
  // 4096 distinct values still make an enum; the 4097th ends it, and
  // repeats or new values after that change nothing.
  Rng rng(4096);
  for (size_t distinct : {4095u, 4096u, 4097u, 4098u}) {
    SCOPED_TRACE(distinct);
    std::vector<std::string> pool;
    for (size_t i = 0; i < distinct; ++i) {
      // Long shared prefixes, one empty value and a NUL in every fourth:
      // values that differ only near their ends are compared in full.
      std::string v = "request-id-0000000000000000-";
      v += std::to_string(i);
      if (i % 4 == 1) v.push_back('\0');
      pool.push_back(i == 0 ? std::string() : v);
    }
    std::vector<std::string> values = pool;
    for (int i = 0; i < 3000; ++i) {
      values.push_back(pool[static_cast<size_t>(
          rng.Uniform(0, static_cast<int64_t>(distinct) - 1))]);
    }
    // Shuffle all but the first value, then repeat a few after the end.
    for (size_t i = values.size() - 1; i > 1; --i) {
      std::swap(values[i],
                values[static_cast<size_t>(
                    rng.Uniform(1, static_cast<int64_t>(i)))]);
    }
    for (int i = 0; i < 50; ++i) values.push_back(pool[static_cast<size_t>(i)]);
    const ColumnStats col = ExpectMatchesOracle(values);
    EXPECT_EQ(col.distinct_count(), std::min<size_t>(distinct, 4097));
    EXPECT_EQ(std::isinf(col.TotalBits(FieldType::kEnum)), distinct > 4096);
  }
}

TEST(ColumnStatsTest, RepeatsDoNotAllocate) {
  // A repeated value is found in the dictionary without building anything;
  // only the dictionary's growth allocates. The 16 values are longer than
  // the short-string buffer, so a copy of one would allocate.
  std::vector<std::string> values;
  for (int i = 0; i < 16; ++i) {
    values.push_back("GET /api/v1/resource/" + std::to_string(100 + i));
  }
  ColumnStats col;
  tl_allocations = 0;
  tl_count_allocations = true;
  for (int i = 0; i < 100000; ++i) col.Add(values[static_cast<size_t>(i % 16)]);
  tl_count_allocations = false;
  EXPECT_EQ(col.distinct_count(), 16u);
  EXPECT_GT(tl_allocations, 0u);  // the counter sees the growth
  EXPECT_LE(tl_allocations, 32u);
}

TEST(FieldStatsTest, GammaBitsGrowsLogarithmically) {
  EXPECT_EQ(GammaBits(1), 1);
  EXPECT_EQ(GammaBits(2), 3);
  EXPECT_EQ(GammaBits(4), 5);
  EXPECT_EQ(GammaBits(1024), 21);
}

TEST(FieldStatsTest, Log2Ceil) {
  EXPECT_EQ(Log2Ceil(0), 0);
  EXPECT_EQ(Log2Ceil(1), 0);
  EXPECT_EQ(Log2Ceil(2), 1);
  EXPECT_EQ(Log2Ceil(5), 3);
}

TEST(TemplateStatsCollectorTest, PoolsArrayRepetitionsIntoOneColumn) {
  StructureTemplate st = MustParse("(F,)*F\n");
  TemplateMatcher m(&st);
  TemplateStatsCollector collector(&st);
  std::string text = "1,2,3\n4,5\n";
  Dataset data(std::move(text));
  for (size_t li = 0; li < data.line_count(); ++li) {
    auto v = m.Parse(data.text(), data.line_begin(li));
    ASSERT_TRUE(v.has_value());
    collector.AddRecord(*v, data.text());
  }
  ASSERT_EQ(collector.columns().size(), 1u);
  EXPECT_EQ(collector.columns()[0].count(), 5u);
  EXPECT_EQ(collector.record_count(), 2u);
  // Two arrays of sizes 3 and 2: gamma(3) + gamma(2) = 3 + 3.
  EXPECT_EQ(collector.ArrayCountBits(), 6);
}

TEST(TemplateStatsCollectorTest, StructColumnsSeparate) {
  StructureTemplate st = MustParse("F,F\n");
  TemplateMatcher m(&st);
  TemplateStatsCollector collector(&st);
  std::string text = "1,a\n2,b\n";
  Dataset data(std::move(text));
  for (size_t li = 0; li < data.line_count(); ++li) {
    auto v = m.Parse(data.text(), data.line_begin(li));
    ASSERT_TRUE(v.has_value());
    collector.AddRecord(*v, data.text());
  }
  ASSERT_EQ(collector.columns().size(), 2u);
  EXPECT_TRUE(collector.columns()[0].all_int());
  EXPECT_FALSE(collector.columns()[1].all_int());
}

// ------------------------------------------------------------------- MDL --

std::string CsvText(int rows, uint64_t seed = 42) {
  std::string text;
  Rng rng(seed);
  for (int i = 0; i < rows; ++i) {
    text += std::to_string(rng.Uniform(0, 999)) + "," +
            std::to_string(rng.Uniform(0, 999)) + "," +
            std::to_string(rng.Uniform(0, 999)) + "\n";
  }
  return text;
}

TEST(MdlTest, RealTemplateBeatsNoiseEncoding) {
  Dataset data(CsvText(300));
  MdlScorer scorer;
  StructureTemplate st = MustParse("(F,)*F\n");
  MdlBreakdown b = scorer.Evaluate(data, st);
  EXPECT_EQ(b.noise_lines, 0u);
  EXPECT_EQ(b.records, 300u);
  EXPECT_LT(b.total_bits, b.noise_only_bits * 0.8);
}

TEST(MdlTest, TrivialTemplateNoBetterThanNoise) {
  Dataset data(CsvText(300));
  MdlScorer scorer;
  StructureTemplate st = MustParse("F\n");
  MdlBreakdown b = scorer.Evaluate(data, st);
  // "F\n" turns each line into one random string field: about the same cost
  // as noise (within a few percent), never a significant win.
  EXPECT_GT(b.total_bits, b.noise_only_bits * 0.9);
}

TEST(MdlTest, DoubledVariantTiesWithinFlagTerm) {
  // With the paper's per-block flag term, a template covering two CSV rows
  // per record is slightly *cheaper* (half the flags) — the pipeline
  // prevents such degenerate winners structurally: generation
  // canonicalizes periodic templates to one period, so the doubled form is
  // never a candidate (see GenerationTest.StackedVariantsReducedToOnePeriod).
  Dataset data(CsvText(300));
  MdlScorer scorer;
  StructureTemplate one = MustParse("(F,)*F\n");
  StructureTemplate two = MustParse("(F,)*F\n(F,)*F\n");
  double d = scorer.Score(data, two) - scorer.Score(data, one);
  EXPECT_LT(std::abs(d), 300.0);  // within the flag-term magnitude
}

TEST(MdlTest, UnfoldedCsvBeatsArrayForm) {
  // Columns have heterogeneous types; unfolding types them separately.
  std::string text;
  Rng rng(9);
  for (int i = 0; i < 300; ++i) {
    text += std::string("GET,") + std::to_string(rng.Uniform(0, 20)) + "," +
            std::to_string(rng.Uniform(100000, 999999)) + "\n";
  }
  Dataset data(std::move(text));
  MdlScorer scorer;
  StructureTemplate folded = MustParse("(F,)*F\n");
  StructureTemplate unfolded = MustParse("F,F,F\n");
  EXPECT_LT(scorer.Score(data, unfolded), scorer.Score(data, folded));
}

TEST(MdlTest, NoiseChargedPerLine) {
  Dataset data("complete noise here\nmore noise\n");
  MdlScorer scorer;
  StructureTemplate st = MustParse("F=F\n");  // matches nothing
  MdlBreakdown b = scorer.Evaluate(data, st);
  EXPECT_EQ(b.records, 0u);
  EXPECT_EQ(b.noise_lines, 2u);
  EXPECT_GT(b.noise_bits, 8.0 * 30);
}

TEST(MdlTest, MultiTemplateSetCoversInterleaved) {
  std::string text;
  Rng rng(5);
  for (int i = 0; i < 200; ++i) {
    if (i % 2 == 0) {
      text += "A," + std::to_string(rng.Uniform(0, 99)) + "\n";
    } else {
      text += "B=" + std::to_string(rng.Uniform(0, 99)) + ";\n";
    }
  }
  Dataset data(std::move(text));
  MdlScorer scorer;
  StructureTemplate a = MustParse("F,F\n");
  StructureTemplate b = MustParse("F=F;\n");
  std::vector<const StructureTemplate*> both = {&a, &b};
  MdlBreakdown set = scorer.EvaluateSet(data, both);
  EXPECT_EQ(set.noise_lines, 0u);
  EXPECT_EQ(set.records, 200u);
  // Using only one template leaves half the file as noise: strictly worse.
  EXPECT_LT(set.total_bits, scorer.Score(data, a));
  EXPECT_LT(set.total_bits, scorer.Score(data, b));
}

TEST(MdlTest, MultiLineTemplateConsumesSpan) {
  std::string text;
  for (int i = 0; i < 50; ++i) {
    text += "id: " + std::to_string(i) + "\nok.\n";
  }
  Dataset data(std::move(text));
  MdlScorer scorer;
  StructureTemplate st = MustParse("F: F\nF.\n");
  MdlBreakdown b = scorer.Evaluate(data, st);
  EXPECT_EQ(b.records, 50u);
  EXPECT_EQ(b.record_lines, 100u);
  EXPECT_EQ(b.noise_lines, 0u);
}

void ExpectSameBreakdown(const MdlBreakdown& got, const MdlBreakdown& want) {
  EXPECT_EQ(got.total_bits, want.total_bits);
  EXPECT_EQ(got.model_bits, want.model_bits);
  EXPECT_EQ(got.flag_bits, want.flag_bits);
  EXPECT_EQ(got.noise_bits, want.noise_bits);
  EXPECT_EQ(got.record_bits, want.record_bits);
  EXPECT_EQ(got.noise_only_bits, want.noise_only_bits);
  EXPECT_EQ(got.records, want.records);
  EXPECT_EQ(got.noise_lines, want.noise_lines);
  EXPECT_EQ(got.record_lines, want.record_lines);
  EXPECT_EQ(got.covered_chars, want.covered_chars);
  EXPECT_EQ(got.pruned, want.pruned);
}

TEST(MdlTest, GappedViewScoresLikeItsLinesCopied) {
  // Two-line records with a dead line between their two lines: every
  // window straddles a view gap, so ResolveSpan assembles it in the
  // scorer's reused scratch buffer, which the next window overwrites. Keys
  // of varying length move each value to a different scratch offset, so a
  // dictionary that kept views of a window instead of copies would read
  // another window's bytes.
  const std::vector<std::string> keys = {"k", "key", "keyword", "a_long_key"};
  std::vector<std::string> ids;
  for (int i = 0; i < 8; ++i) {
    ids.push_back("session-" + std::to_string(1000 + i) + "-replica-east");
  }
  Rng rng(17);
  std::string text;
  std::vector<uint32_t> live;
  uint32_t line = 0;
  auto add = [&](const std::string& l, bool is_live) {
    text += l;
    if (is_live) live.push_back(line);
    ++line;
  };
  for (int i = 0; i < 300; ++i) {
    add(rng.Choice(keys) + "=" + rng.Choice(ids) + "\n", true);
    // Most records straddle a gap; some stay contiguous.
    if (!rng.Bernoulli(0.1)) add("#dead " + std::to_string(i) + "\n", false);
    add("n " + std::to_string(rng.Uniform(0, 99999)) + "\n", true);
    if (rng.Bernoulli(0.1)) add("live noise " + std::to_string(i) + "\n", true);
  }
  const Dataset data(std::move(text));
  const DatasetView gapped(data, live);
  std::string copied;
  for (size_t v = 0; v < gapped.line_count(); ++v) {
    copied += gapped.line_with_newline(v);
  }
  const Dataset contiguous(std::move(copied));

  MdlScorer scorer;
  StructureTemplate record = MustParse("F=F\nF F\n");
  StructureTemplate noise = MustParse("F F F\n");
  for (const std::vector<const StructureTemplate*>& set :
       {std::vector<const StructureTemplate*>{&record},
        std::vector<const StructureTemplate*>{&record, &noise}}) {
    SCOPED_TRACE(set.size());
    const MdlBreakdown got = scorer.EvaluateSet(gapped, set);
    EXPECT_GE(got.records, 300u);  // every two-line record matched
    ExpectSameBreakdown(got, scorer.EvaluateSet(contiguous, set));
  }
}

}  // namespace
}  // namespace datamaran
