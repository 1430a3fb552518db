#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "core/dataset.h"
#include "core/options.h"
#include "refinement/refiner.h"
#include "scoring/mdl.h"
#include "template/template.h"
#include "util/rng.h"

namespace datamaran {
namespace {

StructureTemplate MustParse(std::string_view canonical) {
  auto r = StructureTemplate::FromCanonical(canonical);
  EXPECT_TRUE(r.ok()) << r.status().ToString();
  return std::move(r.value());
}

// ---------------------------------------------------------- array counts --

TEST(ArrayCountsTest, ConstantCount) {
  std::string text;
  for (int i = 0; i < 50; ++i) text += "a,b,c,d\n";
  Dataset data(std::move(text));
  StructureTemplate st = MustParse("(F,)*F\n");
  auto counts = CollectArrayCounts(data, st);
  ASSERT_EQ(counts.size(), 1u);
  EXPECT_EQ(counts[0].occurrences, 50u);
  EXPECT_TRUE(counts[0].constant());
  EXPECT_EQ(counts[0].min_count, 4u);
}

TEST(ArrayCountsTest, VaryingCount) {
  Dataset data("a,b\na,b,c,d,e\na,b,c\n");
  StructureTemplate st = MustParse("(F,)*F\n");
  auto counts = CollectArrayCounts(data, st);
  ASSERT_EQ(counts.size(), 1u);
  EXPECT_FALSE(counts[0].constant());
  EXPECT_EQ(counts[0].min_count, 2u);
  EXPECT_EQ(counts[0].max_count, 5u);
}

// -------------------------------------------------------------- unfolding --

TEST(UnfoldTest, FullUnfold) {
  StructureTemplate st = MustParse("(F,)*F\n");
  StructureTemplate unfolded = UnfoldArray(st, 0, 3, /*keep_array=*/false);
  ASSERT_FALSE(unfolded.empty());
  EXPECT_EQ(unfolded.canonical(), "F,F,F\n");
  EXPECT_TRUE(unfolded.Validate().ok());
}

TEST(UnfoldTest, PartialUnfold) {
  StructureTemplate st = MustParse("(F )*F\n");
  StructureTemplate unfolded = UnfoldArray(st, 0, 4, /*keep_array=*/true);
  ASSERT_FALSE(unfolded.empty());
  // Paper Section 4.3.1: "F F F F (F )*F\n".
  EXPECT_EQ(unfolded.canonical(), "F F F F (F )*F\n");
  EXPECT_TRUE(unfolded.Validate().ok());
}

TEST(UnfoldTest, UnfoldInsideSurroundingStruct) {
  StructureTemplate st = MustParse("[(F,)*F]\n");
  StructureTemplate unfolded = UnfoldArray(st, 0, 2, false);
  EXPECT_EQ(unfolded.canonical(), "[F,F]\n");
}

TEST(UnfoldTest, OutOfRangeIndexReturnsEmpty) {
  StructureTemplate st = MustParse("(F,)*F\n");
  EXPECT_TRUE(UnfoldArray(st, 5, 2, false).empty());
}

TEST(UnfoldTest, SecondArrayTargeted) {
  StructureTemplate st = MustParse("(F,)*F;(F|)*F\n");
  StructureTemplate unfolded = UnfoldArray(st, 1, 2, false);
  EXPECT_EQ(unfolded.canonical(), "(F,)*F;F|F\n");
}

// -------------------------------------------------------------- rotations --

TEST(RotationTest, SingleLineHasNoRotations) {
  StructureTemplate st = MustParse("F,F\n");
  EXPECT_TRUE(LineRotations(st).empty());
}

TEST(RotationTest, ThreeLineTemplateHasTwoRotations) {
  StructureTemplate st = MustParse("A: F\nB: F\nC: F\n");
  auto rots = LineRotations(st);
  ASSERT_EQ(rots.size(), 2u);
  EXPECT_EQ(rots[0].canonical(), "B: F\nC: F\nA: F\n");
  EXPECT_EQ(rots[1].canonical(), "C: F\nA: F\nB: F\n");
}

TEST(RotationTest, FirstOccurrence) {
  Dataset data("noise\nx=1\ny=2\nx=3\ny=4\n");
  StructureTemplate st = MustParse("x=F\ny=F\n");
  EXPECT_EQ(FirstOccurrenceLine(data, st), 1u);
  StructureTemplate shifted = MustParse("y=F\nx=F\n");
  EXPECT_EQ(FirstOccurrenceLine(data, shifted), 2u);
}

// ---------------------------------------------------------------- refiner --

// The refiner fixtures: each dataset paired with the template handed to
// Refine. FixedWidthCsv's "(F,)*F" unfolds fully, Syslog's "(F )*F" peels a
// fixed prefix off a free-text tail, XyPairs' "y=F\nx=F" shifts to the
// rotation seen first, and Semicolon's "F;F" is already best.
std::string FixedWidthCsv() {
  std::string text;
  Rng rng(4);
  for (int i = 0; i < 300; ++i) {
    text += std::string("GET,") + std::to_string(rng.Uniform(0, 20)) + "," +
            std::to_string(rng.Uniform(100000, 999999)) + "\n";
  }
  return text;
}

std::string Syslog() {
  // Paper's syslog example: fixed fields then a free-text message.
  std::string text;
  Rng rng(8);
  const std::vector<std::string> words = {"snort",  "shutdown", "succeeded",
                                          "nightly", "yum",      "disabling"};
  for (int i = 0; i < 300; ++i) {
    text += "Apr " + std::to_string(rng.Uniform(10, 28)) + " srv" +
            std::to_string(rng.Uniform(1, 9));
    int n = static_cast<int>(rng.Uniform(2, 5));
    for (int w = 0; w < n; ++w) {
      text += " " + words[static_cast<size_t>(rng.Uniform(0, 5))];
    }
    text += "\n";
  }
  return text;
}

std::string XyPairs() {
  // Records are (x,y) pairs starting at line 0; the shifted template
  // (y,x) first matches only at line 1.
  std::string text;
  for (int i = 0; i < 60; ++i) {
    text += "x=" + std::to_string(i) + "\ny=" + std::to_string(i * 2) + "\n";
  }
  return text;
}

std::string Semicolon() {
  std::string text;
  Rng rng(6);
  for (int i = 0; i < 200; ++i) {
    text += std::to_string(rng.Uniform(0, 9)) + ";" +
            std::to_string(rng.Uniform(0, 9)) + "\n";
  }
  return text;
}

Refiner::Refined RefineWithMdl(std::string text, std::string_view canonical) {
  Dataset data(std::move(text));
  MdlScorer scorer;
  DatamaranOptions opts;
  Refiner refiner(&data, &scorer, &opts);
  StructureTemplate st = MustParse(canonical);
  return refiner.Refine(st, scorer.Score(data, st));
}

TEST(RefinerTest, UnfoldsFixedWidthCsv) {
  auto refined = RefineWithMdl(FixedWidthCsv(), "(F,)*F\n");
  EXPECT_EQ(refined.st.canonical(), "F,F,F\n");
}

TEST(RefinerTest, PartialUnfoldForFreeTextTail) {
  auto refined = RefineWithMdl(Syslog(), "(F )*F\n");
  // At least the fixed prefix ("Apr", day, host) should be peeled off.
  EXPECT_TRUE(refined.st.canonical().rfind("F F F ", 0) == 0)
      << refined.st.canonical();
  EXPECT_NE(refined.st.canonical().find("(F )*F"), std::string::npos)
      << refined.st.canonical();
}

TEST(RefinerTest, ShiftsToEarliestFirstOccurrence) {
  auto refined = RefineWithMdl(XyPairs(), "y=F\nx=F\n");
  EXPECT_EQ(refined.st.canonical(), "x=F\ny=F\n");
}

TEST(RefinerTest, LeavesGoodTemplateAlone) {
  auto refined = RefineWithMdl(Semicolon(), "F;F\n");
  EXPECT_EQ(refined.st.canonical(), "F;F\n");
}

/// Forwards to an MdlScorer and records the canonical of every template it
/// is asked to score.
class CountingScorer : public RegularityScorer {
 public:
  double ScoreSet(const DatasetView& sample,
                  const std::vector<const StructureTemplate*>& templates)
      const override {
    for (const StructureTemplate* st : templates) {
      scored.emplace_back(st->canonical());
    }
    return base.ScoreSet(sample, templates);
  }
  std::optional<double> ScoreBounded(const DatasetView& sample,
                                     const StructureTemplate& st,
                                     double abort_above) const override {
    scored.emplace_back(st.canonical());
    return base.ScoreBounded(sample, st, abort_above);
  }

  MdlScorer base;
  mutable std::vector<std::string> scored;
};

// Refine starts from the caller's score: the input template is never
// rescored, and the result (template and score) is the one refinement
// produced when it scored the input itself.
TEST(RefinerTest, StartsFromGivenScoreWithoutRescoringInput) {
  struct Case {
    std::string text;
    const char* input;
    const char* want;
    double want_score;
  };
  const Case cases[] = {
      {FixedWidthCsv(), "(F,)*F\n", "F,F,F\n", 8174},
      {Syslog(), "(F )*F\n", "F F F (F )*F\n", 8385},
      {XyPairs(), "y=F\nx=F\n", "x=F\ny=F\n", 1196},
      {Semicolon(), "F;F\n", "F;F\n", 2124},
  };
  for (const Case& c : cases) {
    Dataset data(c.text);
    CountingScorer scorer;
    DatamaranOptions opts;
    Refiner refiner(&data, &scorer, &opts);
    StructureTemplate st = MustParse(c.input);
    const double score = scorer.Score(data, st);
    scorer.scored.clear();
    auto refined = refiner.Refine(st, score);
    EXPECT_EQ(std::count(scorer.scored.begin(), scorer.scored.end(),
                         st.canonical()),
              0)
        << c.input;
    EXPECT_EQ(refined.st.canonical(), c.want) << c.input;
    EXPECT_EQ(refined.score, c.want_score) << c.input;
  }
}

}  // namespace
}  // namespace datamaran
