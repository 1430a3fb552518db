// Whole-pipeline property tests: random structure templates are sampled,
// instantiated into synthetic datasets, and the pipeline must recover a
// template that (a) matches every record at its true boundary and (b)
// passes the Section 9.3 success criterion.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "core/datamaran.h"
#include "datagen/spec.h"
#include "datagen/values.h"
#include "evalharness/criterion.h"
#include "generation/generator.h"
#include "scoring/mdl.h"
#include "template/matcher.h"
#include "util/rng.h"

namespace datamaran {
namespace {

/// A randomly shaped single-line record format: fields separated by random
/// delimiters, with typed values.
struct RandomFormat {
  std::vector<char> seps;        // seps[i] after field i; last is '\n'
  std::vector<int> kinds;        // 0=int 1=word 2=real 3=alnum
  std::string lead;              // literal prefix
};

RandomFormat MakeFormat(Rng* rng) {
  // Well-posed random formats: distinct separators (a repeated separator
  // creates array folds whose column pooling is a different — equally
  // valid — reading of the structure, which the strict per-target check
  // would flag).
  RandomFormat fmt;
  std::string sep_pool = ",;|: =#";
  for (size_t i = sep_pool.size(); i > 1; --i) {  // Fisher-Yates shuffle
    std::swap(sep_pool[i - 1],
              sep_pool[static_cast<size_t>(rng->Uniform(0, i - 1))]);
  }
  int fields = static_cast<int>(rng->Uniform(2, 6));
  if (rng->Bernoulli(0.4)) {
    fmt.lead = std::string(1, sep_pool[static_cast<size_t>(fields)]);
  }
  bool prev_stringy = true;
  for (int i = 0; i < fields; ++i) {
    // No two adjacent string-typed fields: a separator between two
    // untyped strings is MDL-neutral (merging them costs the same bits),
    // so the minimal-description reading legitimately merges them — that
    // would make the strict per-target check ill-posed, not wrong.
    int kind = prev_stringy ? (rng->Bernoulli(0.5) ? 0 : 2)
                            : static_cast<int>(rng->Uniform(0, 3));
    prev_stringy = (kind == 1 || kind == 3);
    fmt.kinds.push_back(kind);
    fmt.seps.push_back(i + 1 == fields ? '\n'
                                       : sep_pool[static_cast<size_t>(i)]);
  }
  return fmt;
}

std::string RenderValue(Rng* rng, int kind) {
  switch (kind) {
    case 0:
      return GenInt(rng, 0, 99999);
    case 1:
      return GenName(rng);
    case 2:
      return GenReal(rng, 0, 999, 2);
    default:
      return GenAlnum(rng, static_cast<int>(rng->Uniform(2, 10)));
  }
}

GeneratedDataset MakeDataset(Rng* rng, const RandomFormat& fmt, int records,
                             double noise_rate) {
  DatasetBuilder b;
  for (int r = 0; r < records; ++r) {
    if (rng->Bernoulli(noise_rate)) {
      b.NoiseLine("?? " + GenAlnum(rng, static_cast<int>(rng->Uniform(4, 30))));
    }
    b.BeginRecord(0);
    b.Append(fmt.lead);
    for (size_t i = 0; i < fmt.kinds.size(); ++i) {
      std::string name = "f";
      name += std::to_string(i);
      b.Target(name, RenderValue(rng, fmt.kinds[i]));
      b.Append(std::string_view(&fmt.seps[i], 1));
    }
    b.EndRecord();
  }
  return b.Build("random", DatasetLabel::kSingleNonInterleaved);
}

class PipelineProperty : public ::testing::TestWithParam<int> {};

TEST_P(PipelineProperty, RecoversRandomSingleLineFormats) {
  Rng rng(static_cast<uint64_t>(GetParam()) * 7919 + 13);
  for (int iter = 0; iter < 3; ++iter) {
    RandomFormat fmt = MakeFormat(&rng);
    GeneratedDataset ds = MakeDataset(&rng, fmt, 400, 0.05);
    DatamaranOptions opts;
    opts.max_special_chars = 8;
    Datamaran dm(opts);
    PipelineResult result = dm.ExtractText(std::string(ds.text));
    SuccessReport report =
        CheckExtraction(ds, UnitsFromPipeline(result, ds.text));
    EXPECT_TRUE(report.success)
        << "iter " << iter << ": " << report.failure_reason << "\nsample: "
        << ds.text.substr(0, 120);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, PipelineProperty,
                         ::testing::Values(1, 2, 3, 4, 5, 6));

// Property: for any accepted template set, every extracted record's span
// re-parses under its template, and the MDL of the accepted set is no
// worse than pure noise.
class InvariantProperty : public ::testing::TestWithParam<int> {};

TEST_P(InvariantProperty, AcceptedTemplatesExplainTheirRecords) {
  Rng rng(static_cast<uint64_t>(GetParam()) * 104729 + 7);
  RandomFormat fmt = MakeFormat(&rng);
  GeneratedDataset ds = MakeDataset(&rng, fmt, 300, 0.1);
  DatamaranOptions opts;
  opts.max_special_chars = 8;
  Datamaran dm(opts);
  PipelineResult result = dm.ExtractText(std::string(ds.text));
  if (result.templates.empty()) GTEST_SKIP();

  Dataset data{std::string(ds.text)};
  std::vector<TemplateMatcher> matchers;
  for (const auto& st : result.templates) matchers.emplace_back(&st);
  for (const auto& rec : result.extraction.records) {
    auto m = matchers[static_cast<size_t>(rec.template_id)].TryMatch(
        data.text(), rec.begin);
    ASSERT_TRUE(m.has_value());
    EXPECT_EQ(m->end, rec.end);
  }
  MdlScorer scorer;
  std::vector<const StructureTemplate*> set;
  for (const auto& st : result.templates) set.push_back(&st);
  MdlBreakdown b = scorer.EvaluateSet(data, set);
  EXPECT_LT(b.total_bits, b.noise_only_bits);
}

INSTANTIATE_TEST_SUITE_P(Seeds, InvariantProperty,
                         ::testing::Values(1, 2, 3, 4));

// Property: generation canonicalization — for random single-line formats,
// no surviving candidate is a multi-line stack of another candidate.
class CanonicalizationProperty : public ::testing::TestWithParam<int> {};

TEST_P(CanonicalizationProperty, NoPeriodicCandidatesSurvive) {
  Rng rng(static_cast<uint64_t>(GetParam()) * 31 + 5);
  RandomFormat fmt = MakeFormat(&rng);
  GeneratedDataset ds = MakeDataset(&rng, fmt, 300, 0.0);
  Dataset data{std::string(ds.text)};
  DatamaranOptions opts;
  opts.max_special_chars = 6;
  CandidateGenerator gen(&data, &opts);
  GenerationResult result = gen.Run();
  for (const auto& cand : result.candidates) {
    EXPECT_EQ(ReduceLinePeriod(cand.canonical), cand.canonical)
        << cand.canonical;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CanonicalizationProperty,
                         ::testing::Values(1, 2, 3));

}  // namespace
}  // namespace datamaran
