// Differential tests for the compiled matching engine (template/compiled.h,
// template/dispatch.h) against the reference tree walker: a randomized
// template x line corpus must agree on match/no-match, MatchStats, the full
// MatchEvent stream, and the replayed ParsedValue tree; the TemplateSetIndex
// must never skip a template that matches; and the end-to-end pipeline must
// be byte-identical between MatchEngine::kCompiled and MatchEngine::kTree.

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <string_view>
#include <vector>

#include "core/datamaran.h"
#include "datagen/github_corpus.h"
#include "template/compiled.h"
#include "template/dispatch.h"
#include "template/matcher.h"
#include "template/template.h"
#include "util/rng.h"

namespace datamaran {
namespace {

// Literal pool: special characters that need no canonical escaping.
constexpr std::string_view kLiterals = ",;:|[]= #@-";
constexpr std::string_view kFieldChars =
    "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789._";

char RandomLiteral(Rng* rng) {
  return kLiterals[static_cast<size_t>(
      rng->Uniform(0, static_cast<int64_t>(kLiterals.size()) - 1))];
}

/// One random line of a canonical serialization: fields, literals, and
/// occasionally (nested) arrays, never two adjacent fields.
std::string RandomCanonicalLine(Rng* rng) {
  std::string out;
  const int tokens = static_cast<int>(rng->Uniform(1, 6));
  bool last_was_field = false;
  for (int i = 0; i < tokens; ++i) {
    const int kind = static_cast<int>(rng->Uniform(0, 2));
    if (kind == 0 && !last_was_field) {
      out += 'F';
      last_was_field = true;
    } else if (kind == 2 && !last_was_field) {
      const char sep = RandomLiteral(rng);
      std::string elem = "F";
      if (rng->Bernoulli(0.3)) {
        char inner = RandomLiteral(rng);
        while (inner == sep) inner = RandomLiteral(rng);
        if (rng->Bernoulli(0.3)) {
          // Nested array element: (F<inner>)*F
          elem = std::string("(F") + inner + ")*F";
        } else {
          elem = std::string("F") + inner + "F";
        }
      }
      out += "(" + elem + sep + ")*" + elem;
      last_was_field = true;
    } else {
      out += RandomLiteral(rng);
      last_was_field = false;
    }
  }
  out += '\n';
  return out;
}

std::string RandomCanonical(Rng* rng) {
  std::string out = RandomCanonicalLine(rng);
  while (rng->Bernoulli(0.25)) out += RandomCanonicalLine(rng);
  return out;
}

/// A text instance that matches `node` by construction.
void GenerateInstance(const TemplateNode& node, Rng* rng, std::string* out) {
  switch (node.kind) {
    case NodeKind::kChar:
      out->push_back(node.ch);
      break;
    case NodeKind::kField: {
      const int len = static_cast<int>(rng->Uniform(1, 8));
      for (int i = 0; i < len; ++i) {
        out->push_back(kFieldChars[static_cast<size_t>(rng->Uniform(
            0, static_cast<int64_t>(kFieldChars.size()) - 1))]);
      }
      break;
    }
    case NodeKind::kStruct:
      for (const auto& child : node.children) {
        GenerateInstance(*child, rng, out);
      }
      break;
    case NodeKind::kArray: {
      const int reps = static_cast<int>(rng->Uniform(1, 4));
      for (int r = 0; r < reps; ++r) {
        if (r > 0) out->push_back(node.ch);
        GenerateInstance(*node.children[0], rng, out);
      }
      break;
    }
  }
}

/// Random single-edit corruption of a matching instance; parity must hold
/// whether or not the result still matches.
std::string Mutate(std::string text, Rng* rng) {
  if (text.empty()) return text;
  const size_t at =
      static_cast<size_t>(rng->Uniform(0, static_cast<int64_t>(text.size()) - 1));
  switch (rng->Uniform(0, 3)) {
    case 0:
      text.erase(at, 1);
      break;
    case 1:
      text.insert(at, 1, RandomLiteral(rng));
      break;
    case 2:
      text[at] = RandomLiteral(rng);
      break;
    default:
      text.resize(at);
      break;
  }
  return text;
}

void ExpectSameParsedValue(const ParsedValue& a, const ParsedValue& b) {
  ASSERT_EQ(a.kind, b.kind);
  ASSERT_EQ(a.begin, b.begin);
  ASSERT_EQ(a.end, b.end);
  ASSERT_EQ(a.children.size(), b.children.size());
  for (size_t i = 0; i < a.children.size(); ++i) {
    ExpectSameParsedValue(a.children[i], b.children[i]);
  }
}

/// Asserts full engine agreement for one (template, text, pos) probe.
void ExpectParity(const StructureTemplate& st, const TemplateMatcher& tree,
                  const CompiledTemplate& compiled, std::string_view text,
                  size_t pos) {
  auto tree_match = tree.TryMatch(text, pos);
  auto compiled_match = compiled.TryMatch(text, pos);
  ASSERT_EQ(tree_match.has_value(), compiled_match.has_value())
      << st.Display() << " on " << text;
  if (tree_match.has_value()) {
    EXPECT_EQ(tree_match->end, compiled_match->end);
    EXPECT_EQ(tree_match->field_chars, compiled_match->field_chars);
  }

  std::vector<MatchEvent> tree_events, compiled_events;
  auto tree_flat = tree.ParseFlat(text, pos, &tree_events);
  auto compiled_flat = compiled.ParseFlat(text, pos, &compiled_events);
  ASSERT_EQ(tree_flat.has_value(), compiled_flat.has_value());
  ASSERT_EQ(tree_flat.has_value(), tree_match.has_value());
  if (!tree_flat.has_value()) return;
  EXPECT_EQ(tree_flat->end, compiled_flat->end);
  EXPECT_EQ(tree_flat->field_chars, compiled_flat->field_chars);
  ASSERT_EQ(tree_events.size(), compiled_events.size());
  for (size_t i = 0; i < tree_events.size(); ++i) {
    EXPECT_EQ(tree_events[i].node, compiled_events[i].node) << i;
    EXPECT_EQ(tree_events[i].kind(), compiled_events[i].kind()) << i;
    EXPECT_EQ(tree_events[i].begin, compiled_events[i].begin) << i;
    if (tree_events[i].kind() == MatchEvent::kFieldValue) {
      EXPECT_EQ(tree_events[i].end(), compiled_events[i].end()) << i;
    } else {
      EXPECT_EQ(tree_events[i].count(), compiled_events[i].count()) << i;
    }
  }

  // The replayed tree must equal the walker's Parse output exactly — this
  // is what keeps extraction's ParsedValues engine-independent.
  auto tree_parse = tree.Parse(text, pos);
  ASSERT_TRUE(tree_parse.has_value());
  ParsedValue replayed = BuildParsedValue(st, pos, compiled_events);
  ExpectSameParsedValue(*tree_parse, replayed);
}

TEST(CompiledParityTest, RandomizedTemplateLineCorpus) {
  Rng rng(20260731);
  int templates_tested = 0;
  for (int iter = 0; iter < 500; ++iter) {
    auto parsed = StructureTemplate::FromCanonical(RandomCanonical(&rng));
    if (!parsed.ok() || !parsed.value().Validate().ok()) continue;
    const StructureTemplate st = std::move(parsed.value());
    const TemplateMatcher tree(&st);
    const CompiledTemplate compiled(&st);
    ASSERT_TRUE(compiled.ok()) << st.Display();
    ++templates_tested;

    std::vector<std::string> probes;
    for (int k = 0; k < 4; ++k) {
      std::string text;
      GenerateInstance(st.root(), &rng, &text);
      probes.push_back(text);
      probes.push_back(Mutate(text, &rng));
      probes.push_back(Mutate(Mutate(text, &rng), &rng));
    }
    probes.push_back("");
    probes.push_back("\n");
    probes.push_back("plain noise line\n");
    for (const std::string& text : probes) {
      ExpectParity(st, tree, compiled, text, 0);
      // Matching mid-buffer exercises pos-relative spans.
      const std::string shifted = "prefix\n" + text;
      ExpectParity(st, tree, compiled, shifted, 7);
    }
  }
  // The corpus must be meaningful, not vacuously skipped.
  EXPECT_GT(templates_tested, 150);
}

// An unvalidated template with an empty RT-charset ("F" has no literals)
// must scan past NUL bytes identically in both engines.
TEST(CompiledParityTest, EmptyCharsetScansPastNulBytes) {
  auto st = StructureTemplate::FromCanonical("F");
  ASSERT_TRUE(st.ok());
  const TemplateMatcher tree(&st.value());
  const CompiledTemplate compiled(&st.value());
  const std::string text("abc\0defghijklmnop", 17);
  ExpectParity(st.value(), tree, compiled, text, 0);
  auto m = compiled.TryMatch(text, 0);
  ASSERT_TRUE(m.has_value());
  EXPECT_EQ(m->end, text.size());  // NUL is not a stop byte
}

TEST(CompiledParityTest, FirstBytesAdmitEveryMatchingWindow) {
  Rng rng(99);
  int checked = 0;
  for (int iter = 0; iter < 300; ++iter) {
    auto parsed = StructureTemplate::FromCanonical(RandomCanonical(&rng));
    if (!parsed.ok() || !parsed.value().Validate().ok()) continue;
    const StructureTemplate st = std::move(parsed.value());
    const CharSet first = TemplateFirstBytes(st);
    const TemplateMatcher tree(&st);
    for (int k = 0; k < 4; ++k) {
      std::string text;
      GenerateInstance(st.root(), &rng, &text);
      ASSERT_FALSE(text.empty());
      if (tree.TryMatch(text, 0).has_value()) {
        EXPECT_TRUE(first.Contains(static_cast<unsigned char>(text[0])))
            << st.Display() << " on " << text;
        ++checked;
      }
    }
  }
  EXPECT_GT(checked, 300);
}

TEST(TemplateSetIndexTest, NeverSkipsAMatchingTemplate) {
  Rng rng(4242);
  for (int round = 0; round < 40; ++round) {
    std::vector<StructureTemplate> templates;
    while (templates.size() < 5) {
      auto parsed = StructureTemplate::FromCanonical(RandomCanonical(&rng));
      if (!parsed.ok() || !parsed.value().Validate().ok()) continue;
      templates.push_back(std::move(parsed.value()));
    }
    const std::vector<RecordMatcher> matchers =
        BuildMatchers(templates, MatchEngine::kCompiled);
    const TemplateSetIndex index(matchers);

    std::vector<std::string> probes;
    for (const StructureTemplate& st : templates) {
      std::string text;
      GenerateInstance(st.root(), &rng, &text);
      probes.push_back(text);
      probes.push_back(Mutate(text, &rng));
    }
    for (const std::string& text : probes) {
      if (text.empty()) continue;
      const auto& candidates =
          index.Candidates(static_cast<unsigned char>(text[0]));
      for (size_t t = 0; t < matchers.size(); ++t) {
        if (!matchers[t].TryMatch(text, 0).has_value()) continue;
        EXPECT_TRUE(std::find(candidates.begin(), candidates.end(),
                              static_cast<uint16_t>(t)) != candidates.end())
            << "index skipped matching template " << templates[t].Display()
            << " for line " << text;
      }
    }
  }
}

/// End-to-end: the two engines must produce byte-identical pipelines —
/// same accepted templates, same record segmentation, same noise lines.
TEST(MatchEngineTest, PipelineIdenticalAcrossEngines) {
  for (int ds = 0; ds < 3; ++ds) {
    GeneratedDataset data = BuildGithubDataset(ds, 24 * 1024);
    if (data.label == DatasetLabel::kNoStructure) continue;

    DatamaranOptions compiled_opts;
    compiled_opts.num_threads = 2;
    compiled_opts.match_engine = MatchEngine::kCompiled;
    DatamaranOptions tree_opts = compiled_opts;
    tree_opts.match_engine = MatchEngine::kTree;

    PipelineResult a = Datamaran(compiled_opts).ExtractText(data.text);
    PipelineResult b = Datamaran(tree_opts).ExtractText(data.text);

    ASSERT_EQ(a.templates.size(), b.templates.size()) << "dataset " << ds;
    for (size_t i = 0; i < a.templates.size(); ++i) {
      EXPECT_EQ(a.templates[i].canonical(), b.templates[i].canonical());
    }
    ASSERT_EQ(a.reports.size(), b.reports.size());
    for (size_t i = 0; i < a.reports.size(); ++i) {
      EXPECT_DOUBLE_EQ(a.reports[i].mdl_bits, b.reports[i].mdl_bits) << i;
    }
    ASSERT_EQ(a.extraction.records.size(), b.extraction.records.size());
    for (size_t i = 0; i < a.extraction.records.size(); ++i) {
      EXPECT_EQ(a.extraction.records[i].template_id,
                b.extraction.records[i].template_id);
      EXPECT_EQ(a.extraction.records[i].begin, b.extraction.records[i].begin);
      EXPECT_EQ(a.extraction.records[i].end, b.extraction.records[i].end);
      EXPECT_EQ(a.extraction.records[i].first_line,
                b.extraction.records[i].first_line);
    }
    EXPECT_EQ(a.extraction.noise_lines, b.extraction.noise_lines);
    EXPECT_EQ(a.extraction.covered_chars, b.extraction.covered_chars);
  }
}

}  // namespace
}  // namespace datamaran
