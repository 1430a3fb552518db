// Catalog round-trip and fingerprint tests (template/catalog.h):
//
//  * CatalogEscape/CatalogUnescape must be exact inverses over all 256 byte
//    values and produce whitespace-free tokens (the format is line- and
//    space-delimited, so any raw whitespace would corrupt the grammar).
//  * serialize -> Parse must reproduce every template canonical exactly —
//    property-tested over randomized templates whose literals include NUL,
//    control bytes, spaces and non-UTF8 bytes — and the reloaded templates
//    must compile to programs with full differential parity against the
//    originals (TryMatch/ParseFlat agreement on matching and mutated
//    instances), which is what makes catalog-hit extraction byte-identical
//    to the fresh-discovery run.
//  * MatchCatalog must hit on data drawn from a cataloged format, miss on
//    foreign data, discard impossible entries in the FIRST-byte prefilter
//    without scoring them, and respect the min_match threshold on drifted
//    (partially matching) inputs.
//  * ExtractionResult's line accounting (the drift signal surfaced in
//    summaries) must count matched and noise lines exactly.

#include <gtest/gtest.h>

#include <cstddef>
#include <cstdio>
#include <filesystem>
#include <optional>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "core/dataset.h"
#include "core/input.h"
#include "extraction/extractor.h"
#include "template/catalog.h"
#include "template/compiled.h"
#include "template/matcher.h"
#include "template/template.h"
#include "util/file_io.h"
#include "util/rng.h"
#include "util/sampler.h"
#include "util/status.h"
#include "util/strings.h"

namespace datamaran {
namespace {

// ------------------------------------------------------------- generators ---

// Literal pool for randomized templates: printable separators plus the
// nasty bytes a real log can contain — NUL, control characters, space,
// DEL, and non-UTF8 high bytes. None of these are canonical
// metacharacters, field bytes, or '\n', so they serialize raw and the
// catalog escaping layer is what must carry them.
// (Explicit length: the pool contains a NUL, which would truncate a
// strlen-based string_view construction.)
constexpr char kNastyBytes[] = ",;:|[]= #@-\t\x00\x01\x07\x1f\x7f\x80\xab\xfe\xff";
constexpr std::string_view kNastyLiterals(kNastyBytes, sizeof(kNastyBytes) - 1);
constexpr std::string_view kFieldChars =
    "abcdefghijklmnopqrstuvwxyz0123456789";

char RandomLiteral(Rng* rng) {
  return kNastyLiterals[static_cast<size_t>(
      rng->Uniform(0, static_cast<int64_t>(kNastyLiterals.size()) - 1))];
}

/// One random canonical line: fields, nasty literals, occasional arrays,
/// never two adjacent fields (Validate's LL(1) restriction).
std::string RandomCanonicalLine(Rng* rng) {
  std::string out;
  const int tokens = static_cast<int>(rng->Uniform(2, 6));
  bool last_was_field = false;
  for (int i = 0; i < tokens; ++i) {
    const int kind = static_cast<int>(rng->Uniform(0, 3));
    if (kind == 0 && !last_was_field) {
      out += 'F';
      last_was_field = true;
    } else if (kind == 1 && !last_was_field) {
      const char sep = RandomLiteral(rng);
      std::string elem = "F";
      if (rng->Bernoulli(0.4)) {
        char inner = RandomLiteral(rng);
        while (inner == sep) inner = RandomLiteral(rng);
        elem = std::string("F") + inner + "F";
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

Result<StructureTemplate> RandomTemplate(Rng* rng) {
  std::string canonical = RandomCanonicalLine(rng);
  while (rng->Bernoulli(0.2)) canonical += RandomCanonicalLine(rng);
  return StructureTemplate::FromCanonical(canonical);
}

/// A text instance matching `node` by construction: field content drawn
/// from kFieldChars, which is disjoint from the literal pool.
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

std::string Mutate(std::string text, Rng* rng) {
  if (text.empty()) return text;
  const size_t at = static_cast<size_t>(
      rng->Uniform(0, static_cast<int64_t>(text.size()) - 1));
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

void ExpectEventParity(const std::vector<MatchEvent>& a,
                       const std::vector<MatchEvent>& b,
                       const std::string& context) {
  ASSERT_EQ(a.size(), b.size()) << context;
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].kind(), b[i].kind()) << context << " event " << i;
    EXPECT_EQ(a[i].begin, b[i].begin) << context << " event " << i;
    if (a[i].kind() == MatchEvent::kFieldValue) {
      EXPECT_EQ(a[i].end(), b[i].end()) << context << " event " << i;
    } else {
      EXPECT_EQ(a[i].count(), b[i].count()) << context << " event " << i;
    }
  }
}

// --------------------------------------------------------------- escaping ---

TEST(CatalogEscapeTest, RoundTripsAllSingleBytes) {
  for (int b = 0; b < 256; ++b) {
    const std::string raw(1, static_cast<char>(b));
    const std::string token = CatalogEscape(raw);
    ASSERT_FALSE(token.empty());
    for (char c : token) {
      EXPECT_TRUE(c > 0x20 && c < 0x7f)
          << "byte " << b << " escaped to non-printable token";
    }
    auto back = CatalogUnescape(token);
    ASSERT_TRUE(back.ok()) << "byte " << b;
    EXPECT_EQ(back.value(), raw) << "byte " << b;
  }
}

TEST(CatalogEscapeTest, RoundTripsRandomByteStrings) {
  Rng rng(20260808);
  for (int iter = 0; iter < 500; ++iter) {
    std::string raw;
    const int len = static_cast<int>(rng.Uniform(0, 40));
    for (int i = 0; i < len; ++i) {
      raw.push_back(static_cast<char>(rng.Uniform(0, 255)));
    }
    auto back = CatalogUnescape(CatalogEscape(raw));
    ASSERT_TRUE(back.ok());
    EXPECT_EQ(back.value(), raw);
  }
}

TEST(CatalogEscapeTest, RejectsMalformedTokens) {
  EXPECT_FALSE(CatalogUnescape("\\").ok());        // dangling escape
  EXPECT_FALSE(CatalogUnescape("ab\\q").ok());     // unknown escape
  EXPECT_FALSE(CatalogUnescape("\\x").ok());       // truncated hex
  EXPECT_FALSE(CatalogUnescape("\\x4").ok());      // truncated hex
  EXPECT_FALSE(CatalogUnescape("\\xzz").ok());     // bad hex digits
  EXPECT_FALSE(CatalogUnescape("a b").ok());       // raw space
}

// ----------------------------------------------------- round-trip property ---

TEST(CatalogRoundTripTest, RandomTemplatesSurviveSerializeParse) {
  Rng rng(42);
  for (int iter = 0; iter < 200; ++iter) {
    TemplateCatalog catalog;
    const int num_entries = static_cast<int>(rng.Uniform(1, 3));
    for (int e = 0; e < num_entries; ++e) {
      CatalogEntry entry;
      const int num_templates = static_cast<int>(rng.Uniform(1, 3));
      for (int t = 0; t < num_templates; ++t) {
        auto st = RandomTemplate(&rng);
        ASSERT_TRUE(st.ok()) << st.status().message();
        if (!st.value().Validate().ok()) continue;  // rare invalid draws
        CatalogTemplateMeta meta;
        meta.mdl_bits = rng.UniformDouble() * 1e6;
        meta.noise_only_bits = meta.mdl_bits * (1.0 + rng.UniformDouble());
        meta.sample_records = static_cast<size_t>(rng.Uniform(0, 10000));
        meta.sample_coverage = rng.UniformDouble();
        entry.templates.push_back(std::move(st.value()));
        entry.meta.push_back(meta);
      }
      if (!entry.templates.empty()) catalog.AddEntry(std::move(entry));
    }
    if (catalog.empty()) continue;

    const std::string text = catalog.Serialize();
    auto reloaded = TemplateCatalog::Parse(text);
    ASSERT_TRUE(reloaded.ok())
        << reloaded.status().message() << "\nserialized:\n" << text;
    ASSERT_EQ(reloaded.value().size(), catalog.size());
    for (size_t e = 0; e < catalog.size(); ++e) {
      const CatalogEntry& want = catalog.entry(e);
      const CatalogEntry& got = reloaded.value().entry(e);
      EXPECT_EQ(got.name, want.name);
      ASSERT_EQ(got.templates.size(), want.templates.size());
      for (size_t t = 0; t < want.templates.size(); ++t) {
        // Exact canonical equality: the load-bearing invariant. A
        // CompiledTemplate is a pure function of (canonical, engine), so
        // this is what guarantees byte-identical catalog-hit extraction.
        EXPECT_EQ(got.templates[t].canonical(), want.templates[t].canonical());
        EXPECT_DOUBLE_EQ(got.meta[t].mdl_bits, want.meta[t].mdl_bits);
        EXPECT_DOUBLE_EQ(got.meta[t].noise_only_bits,
                         want.meta[t].noise_only_bits);
        EXPECT_EQ(got.meta[t].sample_records, want.meta[t].sample_records);
        EXPECT_DOUBLE_EQ(got.meta[t].sample_coverage,
                         want.meta[t].sample_coverage);
      }
      EXPECT_EQ(got.Signature(), want.Signature());
    }
    // Serialization is canonical: a second round trip is byte-identical.
    EXPECT_EQ(reloaded.value().Serialize(), text);
  }
}

TEST(CatalogRoundTripTest, ReloadedTemplatesHaveCompiledParity) {
  Rng rng(7);
  for (int iter = 0; iter < 100; ++iter) {
    auto orig = RandomTemplate(&rng);
    ASSERT_TRUE(orig.ok());
    if (!orig.value().Validate().ok()) continue;

    TemplateCatalog catalog;
    CatalogEntry entry;
    entry.templates.push_back(orig.value());
    entry.meta.emplace_back();
    catalog.AddEntry(std::move(entry));
    auto reloaded = TemplateCatalog::Parse(catalog.Serialize());
    ASSERT_TRUE(reloaded.ok()) << reloaded.status().message();
    const StructureTemplate& copy = reloaded.value().entry(0).templates[0];

    const CompiledTemplate orig_prog(&orig.value());
    const CompiledTemplate copy_prog(&copy);
    ASSERT_EQ(orig_prog.ok(), copy_prog.ok());
    if (!orig_prog.ok()) continue;
    const TemplateMatcher orig_tree(&orig.value());
    const TemplateMatcher copy_tree(&copy);

    for (int probe = 0; probe < 20; ++probe) {
      std::string text;
      GenerateInstance(orig.value().root(), &rng, &text);
      if (rng.Bernoulli(0.5)) text = Mutate(std::move(text), &rng);
      const std::string context =
          orig.value().Display() + " on instance " + std::to_string(probe);

      auto want = orig_prog.TryMatch(text, 0);
      auto got = copy_prog.TryMatch(text, 0);
      ASSERT_EQ(want.has_value(), got.has_value()) << context;
      auto tree_want = orig_tree.TryMatch(text, 0);
      auto tree_got = copy_tree.TryMatch(text, 0);
      ASSERT_EQ(tree_want.has_value(), tree_got.has_value()) << context;
      ASSERT_EQ(tree_want.has_value(), want.has_value()) << context;
      if (want.has_value()) {
        EXPECT_EQ(want->end, got->end) << context;
        EXPECT_EQ(want->field_chars, got->field_chars) << context;
        std::vector<MatchEvent> want_events, got_events;
        auto pf_want = orig_prog.ParseFlat(text, 0, &want_events);
        auto pf_got = copy_prog.ParseFlat(text, 0, &got_events);
        ASSERT_TRUE(pf_want.has_value() && pf_got.has_value()) << context;
        ExpectEventParity(want_events, got_events, context);
      }
    }
  }
}

// ------------------------------------------------------------ parse errors ---

TEST(CatalogParseTest, RejectsMalformedInputs) {
  EXPECT_FALSE(TemplateCatalog::Parse("").ok());
  EXPECT_FALSE(TemplateCatalog::Parse("not-a-catalog\n").ok());
  EXPECT_FALSE(TemplateCatalog::Parse("datamaran-catalog v99\n").ok());
  // Template line outside an entry.
  EXPECT_FALSE(
      TemplateCatalog::Parse("datamaran-catalog v1\n"
                             "template F\\n mdl=1 noise=2 records=3 "
                             "coverage=0.5\n")
          .ok());
  // Entry never closed with "end".
  EXPECT_FALSE(
      TemplateCatalog::Parse("datamaran-catalog v1\n"
                             "entry fmt0 templates=1\n"
                             "template F\\n mdl=1 noise=2 records=3 "
                             "coverage=0.5\n")
          .ok());
  // Declared template count does not match the body.
  EXPECT_FALSE(
      TemplateCatalog::Parse("datamaran-catalog v1\n"
                             "entry fmt0 templates=2\n"
                             "template F\\n mdl=1 noise=2 records=3 "
                             "coverage=0.5\n"
                             "end\n")
          .ok());
  // Invalid template: adjacent fields fail Validate.
  EXPECT_FALSE(
      TemplateCatalog::Parse("datamaran-catalog v1\n"
                             "entry fmt0 templates=1\n"
                             "template FF\\n mdl=1 noise=2 records=3 "
                             "coverage=0.5\n"
                             "end\n")
          .ok());
  // Invalid template: does not end with newline.
  EXPECT_FALSE(
      TemplateCatalog::Parse("datamaran-catalog v1\n"
                             "entry fmt0 templates=1\n"
                             "template F,F mdl=1 noise=2 records=3 "
                             "coverage=0.5\n"
                             "end\n")
          .ok());
  // Empty catalog is valid.
  auto empty = TemplateCatalog::Parse("datamaran-catalog v1\n");
  ASSERT_TRUE(empty.ok());
  EXPECT_TRUE(empty.value().empty());

  // The program lines earlier v2 builds wrote are dropped on load, but
  // still only after their template, one per template, as one token with
  // well-formed escapes.
  const std::string head = "datamaran-catalog v2\nentry fmt0 templates=1\n";
  const std::string tmpl =
      "template F,F\\n mdl=1 noise=2 records=3 coverage=0.5\n";
  EXPECT_TRUE(
      TemplateCatalog::Parse(head + tmpl + "program \\x00ab\nend\n").ok());
  // Before any template.
  EXPECT_FALSE(
      TemplateCatalog::Parse(head + "program ab\n" + tmpl + "end\n").ok());
  // Two for the same template.
  EXPECT_FALSE(
      TemplateCatalog::Parse(head + tmpl + "program ab\nprogram ab\nend\n")
          .ok());
  // An extra token.
  EXPECT_FALSE(
      TemplateCatalog::Parse(head + tmpl + "program ab cd\nend\n").ok());
  // A bad escape.
  EXPECT_FALSE(
      TemplateCatalog::Parse(head + tmpl + "program a\\qb\nend\n").ok());
}

TEST(CatalogParseTest, AddEntryDeduplicatesBySignature) {
  auto st = StructureTemplate::FromCanonical("F,F\n");
  ASSERT_TRUE(st.ok());
  TemplateCatalog catalog;
  CatalogEntry a;
  a.templates.push_back(st.value());
  a.meta.emplace_back();
  CatalogEntry b = a;
  EXPECT_EQ(catalog.AddEntry(std::move(a)), 0u);
  EXPECT_EQ(catalog.size(), 1u);
  // Same template set folds into the existing entry.
  EXPECT_EQ(catalog.AddEntry(std::move(b)), 0u);
  EXPECT_EQ(catalog.size(), 1u);
  EXPECT_EQ(catalog.entry(0).name, "fmt0");
  EXPECT_EQ(catalog.FindSignature({st.value()}), 0);

  auto other = StructureTemplate::FromCanonical("F;F\n");
  ASSERT_TRUE(other.ok());
  EXPECT_EQ(catalog.FindSignature({other.value()}), -1);
  CatalogEntry c;
  c.templates.push_back(other.value());
  c.meta.emplace_back();
  EXPECT_EQ(catalog.AddEntry(std::move(c)), 1u);
  EXPECT_EQ(catalog.entry(1).name, "fmt1");
}

// ------------------------------------------------------------- fingerprint ---

/// `count` lines of "k=v;k=v;" shaped records (matches "F=F;F=F;\n").
std::string KvLines(int count, Rng* rng) {
  std::string out;
  for (int i = 0; i < count; ++i) {
    for (int f = 0; f < 2; ++f) {
      const int klen = static_cast<int>(rng->Uniform(1, 6));
      const int vlen = static_cast<int>(rng->Uniform(1, 10));
      for (int c = 0; c < klen; ++c) out.push_back('a' + i % 26);
      out.push_back('=');
      for (int c = 0; c < vlen; ++c) out.push_back('0' + (i + c) % 10);
      out.push_back(';');
    }
    out.push_back('\n');
  }
  return out;
}

std::string ProseLines(int count) {
  std::string out;
  for (int i = 0; i < count; ++i) {
    out += "the quick brown fox jumps over the lazy dog again\n";
  }
  return out;
}

TemplateCatalog KvCatalog() {
  TemplateCatalog catalog;
  CatalogEntry entry;
  auto st = StructureTemplate::FromCanonical("F=F;F=F;\n");
  EXPECT_TRUE(st.ok());
  entry.templates.push_back(std::move(st.value()));
  entry.meta.emplace_back();
  catalog.AddEntry(std::move(entry));
  return catalog;
}

TEST(MatchCatalogTest, HitsOnCatalogedFormat) {
  Rng rng(1);
  const Dataset data(KvLines(300, &rng));
  const CatalogMatch m = MatchCatalog(KvCatalog(), data, {});
  ASSERT_TRUE(m.hit());
  EXPECT_EQ(m.entry, 0);
  EXPECT_GE(m.match_rate, 0.99);
  EXPECT_LT(m.mdl_bits, m.noise_only_bits);
  EXPECT_EQ(m.entries_scored, 1u);
}

TEST(MatchCatalogTest, MissesOnForeignData) {
  const Dataset data(ProseLines(200));
  const CatalogMatch m = MatchCatalog(KvCatalog(), data, {});
  EXPECT_FALSE(m.hit());
  EXPECT_EQ(m.entry, -1);
}

TEST(MatchCatalogTest, PrefilterSkipsImpossibleEntries) {
  // "#F\n" can only start at '#'; prose has none, so the FIRST-byte
  // prefilter must discard the entry without a single match attempt.
  TemplateCatalog catalog;
  CatalogEntry entry;
  auto st = StructureTemplate::FromCanonical("\\#F\n");
  ASSERT_TRUE(st.ok()) << st.status().message();
  entry.templates.push_back(std::move(st.value()));
  entry.meta.emplace_back();
  catalog.AddEntry(std::move(entry));

  const Dataset data(ProseLines(100));
  const CatalogMatch m = MatchCatalog(catalog, data, {});
  EXPECT_FALSE(m.hit());
  EXPECT_EQ(m.entries_prefiltered, 1u);
  EXPECT_EQ(m.entries_scored, 0u);
}

TEST(MatchCatalogTest, MinMatchThresholdGovernsDriftedInputs) {
  Rng rng(2);
  // 40% record lines, 60% noise: below the default 0.8 threshold, above a
  // relaxed 0.3 one.
  const Dataset data(KvLines(120, &rng) + ProseLines(180));

  CatalogMatchOptions strict;
  strict.min_match = 0.8;
  EXPECT_FALSE(MatchCatalog(KvCatalog(), data, strict).hit());

  CatalogMatchOptions relaxed;
  relaxed.min_match = 0.3;
  const CatalogMatch m = MatchCatalog(KvCatalog(), data, relaxed);
  ASSERT_TRUE(m.hit());
  EXPECT_NEAR(m.match_rate, 0.4, 0.05);
}

TEST(MatchCatalogTest, FileReadSampleOverTheBudgetHitsLikeOwned) {
  // An input larger than the 256 KB sample budget is fingerprinted by the
  // tools on the sample InputReader reads from the file, one owned copy of
  // the sampled lines; the in-memory input is read through a gapped
  // SampleView. Both must pick the same entry at the same rates,
  // including a two-line entry whose windows cross the sample's chunk
  // boundaries.
  Rng rng(4);
  std::string text;
  while (text.size() < 400 * 1024) {
    text += KvLines(40, &rng);
    text += ProseLines(3);
  }
  const std::string path = ::testing::TempDir() + "dm_catalog_sampled.log";
  ASSERT_TRUE(WriteStringToFile(path, text).ok());
  auto reader = InputReader::Open({path}, InputOptions{});
  ASSERT_TRUE(reader.ok()) << reader.status().ToString();
  ASSERT_TRUE(reader->windowed());
  const CatalogMatchOptions options;
  SamplerOptions sampler;
  sampler.max_sample_bytes = options.max_sample_bytes;
  sampler.num_chunks = options.sample_chunks;
  sampler.max_line_bytes = options.max_line_bytes;
  std::optional<Dataset> copy;
  auto sample = reader->ReadSample(sampler, &copy);
  ASSERT_TRUE(sample.ok()) << sample.status().ToString();
  ASSERT_TRUE(copy.has_value());
  const Dataset owned{std::string(text)};

  TemplateCatalog catalog = KvCatalog();
  CatalogEntry pairs;
  auto st = StructureTemplate::FromCanonical("F=F;F=F;\nF=F;F=F;\n");
  ASSERT_TRUE(st.ok());
  pairs.templates.push_back(std::move(st.value()));
  pairs.meta.emplace_back();
  catalog.AddEntry(std::move(pairs));

  const CatalogMatch want = MatchCatalog(catalog, owned, options);
  const CatalogMatch got = MatchCatalog(catalog, sample.value(), options);
  ASSERT_TRUE(want.hit());
  EXPECT_LT(want.match_rate, 1.0);
  EXPECT_EQ(got.entry, want.entry);
  EXPECT_EQ(got.match_rate, want.match_rate);
  EXPECT_DOUBLE_EQ(got.mdl_bits, want.mdl_bits);
  EXPECT_DOUBLE_EQ(got.noise_only_bits, want.noise_only_bits);
  EXPECT_EQ(got.entries_scored, want.entries_scored);
  EXPECT_EQ(got.entries_prefiltered, want.entries_prefiltered);
  std::remove(path.c_str());
}

TEST(MatchCatalogTest, EmptyCatalogNeverHits) {
  Rng rng(3);
  const Dataset data(KvLines(50, &rng));
  const CatalogMatch m = MatchCatalog(TemplateCatalog(), data, {});
  EXPECT_FALSE(m.hit());
  EXPECT_EQ(m.entries_prefiltered, 0u);
  EXPECT_EQ(m.entries_scored, 0u);
}

// -------------------------------------------------------- drift accounting ---

// --------------------------------------------------- v2: kv, migration ---

/// One-template catalog entry around `canonical`; meta left default.
CatalogEntry EntryFor(const std::string& canonical) {
  CatalogEntry entry;
  auto st = StructureTemplate::FromCanonical(canonical);
  EXPECT_TRUE(st.ok()) << canonical;
  entry.templates.push_back(std::move(st.value()));
  entry.meta.emplace_back();
  return entry;
}

TEST(CatalogV2Test, SerializeEmitsV2HeaderAndTemplatesOnly) {
  TemplateCatalog catalog;
  catalog.AddEntry(EntryFor("F=F;F=F;\n"));
  const std::string text = catalog.Serialize();
  EXPECT_EQ(text.rfind("datamaran-catalog v2\n", 0), 0u);
  EXPECT_EQ(text.find("\nprogram "), std::string::npos) << text;
}

TEST(CatalogV2Test, KvExtensionsRoundTrip) {
  TemplateCatalog catalog;
  CatalogEntry entry = EntryFor("F,F\n");
  entry.extensions.emplace_back("origin", "unit test");
  entry.extensions.emplace_back("weird\nkey", "value with \\ and spaces");
  catalog.AddEntry(std::move(entry));

  auto reloaded = TemplateCatalog::Parse(catalog.Serialize());
  ASSERT_TRUE(reloaded.ok()) << reloaded.status().message();
  const CatalogEntry& got = reloaded.value().entry(0);
  EXPECT_EQ(got.extensions, catalog.entry(0).extensions);
  // Canonical serialization: a second round trip is byte-identical.
  EXPECT_EQ(reloaded.value().Serialize(), catalog.Serialize());
}

std::string FixturePath(const char* name = "catalog_v1.txt") {
  return std::string(DM_SOURCE_DIR) + "/tests/data/" + name;
}

/// catalog_v2_programs.txt is catalog_v1.txt as a build that persisted
/// compiled programs saved it (a `program` line after each template), plus
/// one kv line. It loads, and serializes as the same text without the
/// program lines.
TEST(CatalogV2Test, ProgramLinesFromOlderBuildsAreDropped) {
  auto text = ReadFileToString(FixturePath("catalog_v2_programs.txt"));
  ASSERT_TRUE(text.ok());
  auto catalog = TemplateCatalog::Parse(text.value());
  ASSERT_TRUE(catalog.ok()) << catalog.status().message();
  std::string want;
  for (std::string_view line : SplitLines(text.value())) {
    if (line.rfind("program ", 0) == 0) continue;
    want.append(line);
    want += '\n';
  }
  EXPECT_EQ(catalog.value().Serialize(), want);
  ASSERT_EQ(catalog.value().entry(0).extensions.size(), 1u);
  EXPECT_EQ(catalog.value().entry(0).extensions[0].first, "origin");
}

/// The committed v1 fixture gates the migration path forever: v1 files
/// (no kv lines) must load, migrate in memory, and re-save as v2 with
/// identical template canonicals.
TEST(CatalogV2Test, V1FixtureLoadsMigratesAndSavesAsV2) {
  auto v1 = TemplateCatalog::Load(FixturePath());
  ASSERT_TRUE(v1.ok()) << v1.status().message();
  ASSERT_EQ(v1.value().size(), 2u);
  ASSERT_EQ(v1.value().entry(0).templates.size(), 2u);
  ASSERT_EQ(v1.value().entry(1).templates.size(), 1u);
  EXPECT_EQ(v1.value().entry(0).templates[0].canonical(), "F=F;F=F;\n");
  EXPECT_EQ(v1.value().entry(1).templates[0].canonical(), "F:(F,)*F;\n");
  // Migrated in memory: the entry shape is v2 (no extensions), and
  // Serialize writes the current version.
  EXPECT_TRUE(v1.value().entry(0).extensions.empty());

  const std::string path =
      ::testing::TempDir() + "dm_catalog_migrated_v2.txt";
  std::filesystem::remove(path);
  ASSERT_TRUE(v1.value().Save(path).ok());
  auto text = ReadFileToString(path);
  ASSERT_TRUE(text.ok());
  EXPECT_EQ(text.value().rfind("datamaran-catalog v2\n", 0), 0u);

  auto v2 = TemplateCatalog::Load(path);
  ASSERT_TRUE(v2.ok()) << v2.status().message();
  ASSERT_EQ(v2.value().size(), v1.value().size());
  for (size_t e = 0; e < v2.value().size(); ++e) {
    const CatalogEntry& want = v1.value().entry(e);
    const CatalogEntry& got = v2.value().entry(e);
    EXPECT_EQ(got.name, want.name);
    ASSERT_EQ(got.templates.size(), want.templates.size());
    for (size_t t = 0; t < want.templates.size(); ++t) {
      EXPECT_EQ(got.templates[t].canonical(), want.templates[t].canonical());
    }
  }
  std::filesystem::remove(path);
  std::filesystem::remove(path + ".lock");
}

// ----------------------------------------------------- locked merging saves ---

TEST(FileLockTest, AcquireHoldReleaseReacquire) {
  const std::string path = ::testing::TempDir() + "dm_locktest.txt";
  auto lock = FileLock::Acquire(path);
  ASSERT_TRUE(lock.ok()) << lock.status().message();
#if defined(__unix__) || defined(__APPLE__)
  EXPECT_TRUE(lock.value().held());
#endif
  lock.value().Release();
  EXPECT_FALSE(lock.value().held());
  auto again = FileLock::Acquire(path);
  ASSERT_TRUE(again.ok());
  std::filesystem::remove(path + ".lock");
}

TEST(CatalogSaveTest, InterleavedSavesMergeBothWriters) {
  const std::string path = ::testing::TempDir() + "dm_catalog_merge.txt";
  std::filesystem::remove(path);

  // Two independent catalogs (two crawler processes, neither aware of the
  // other) save to the same path; the second save must fold the first
  // writer's on-disk entry in instead of clobbering it.
  TemplateCatalog a;
  a.AddEntry(EntryFor("F=F;F=F;\n"));
  TemplateCatalog b;
  b.AddEntry(EntryFor("F|F|F\n"));
  ASSERT_TRUE(a.Save(path).ok());
  ASSERT_TRUE(b.Save(path).ok());

  auto merged = TemplateCatalog::Load(path);
  ASSERT_TRUE(merged.ok()) << merged.status().message();
  EXPECT_EQ(merged.value().size(), 2u);
  auto st_a = StructureTemplate::FromCanonical("F=F;F=F;\n");
  auto st_b = StructureTemplate::FromCanonical("F|F|F\n");
  ASSERT_TRUE(st_a.ok() && st_b.ok());
  EXPECT_GE(merged.value().FindSignature({st_a.value()}), 0);
  EXPECT_GE(merged.value().FindSignature({st_b.value()}), 0);
  // Merged names stay unique even though both writers named theirs fmt0.
  EXPECT_NE(merged.value().entry(0).name, merged.value().entry(1).name);

  // Saving an identical catalog twice merges by signature, not by name:
  // no duplicate entries accumulate.
  ASSERT_TRUE(b.Save(path).ok());
  auto again = TemplateCatalog::Load(path);
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(again.value().size(), 2u);

  std::filesystem::remove(path);
  std::filesystem::remove(path + ".lock");
}

TEST(CatalogSaveTest, NoMergeOverwrites) {
  const std::string path = ::testing::TempDir() + "dm_catalog_nomerge.txt";
  std::filesystem::remove(path);
  TemplateCatalog a;
  a.AddEntry(EntryFor("F=F;F=F;\n"));
  TemplateCatalog b;
  b.AddEntry(EntryFor("F|F|F\n"));
  ASSERT_TRUE(a.Save(path).ok());
  ASSERT_TRUE(b.Save(path, CatalogSaveOptions{/*merge=*/false}).ok());
  auto loaded = TemplateCatalog::Load(path);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded.value().size(), 1u);
  auto st_b = StructureTemplate::FromCanonical("F|F|F\n");
  ASSERT_TRUE(st_b.ok());
  EXPECT_EQ(loaded.value().FindSignature({st_b.value()}), 0);
  std::filesystem::remove(path);
  std::filesystem::remove(path + ".lock");
}

TEST(CatalogSaveTest, RefusesToMergeOverCorruptExistingFile) {
  const std::string path = ::testing::TempDir() + "dm_catalog_corrupt.txt";
  ASSERT_TRUE(WriteStringToFile(path, "important non-catalog data\n").ok());
  TemplateCatalog c;
  c.AddEntry(EntryFor("F,F\n"));
  // Merge-on-save must never destroy a file it cannot parse; the explicit
  // no-merge escape hatch is the only way to overwrite it.
  EXPECT_FALSE(c.Save(path).ok());
  auto text = ReadFileToString(path);
  ASSERT_TRUE(text.ok());
  EXPECT_EQ(text.value(), "important non-catalog data\n");
  EXPECT_TRUE(c.Save(path, CatalogSaveOptions{/*merge=*/false}).ok());
  EXPECT_TRUE(TemplateCatalog::Load(path).ok());
  std::filesystem::remove(path);
  std::filesystem::remove(path + ".lock");
}

TEST(CatalogSaveTest, ConcurrentThreadedWritersLoseNoEntries) {
  const std::string path = ::testing::TempDir() + "dm_catalog_race.txt";
  std::filesystem::remove(path);
  const std::vector<std::string> canonicals = {
      "F=F;F=F;\n", "F|F|F\n", "F,F,F\n", "F;F\n",
      "F:F:F\n",    "F#F\n",   "F@F@F\n", "F-F-F\n",
  };
  std::vector<std::thread> writers;
  writers.reserve(canonicals.size());
  for (const std::string& canonical : canonicals) {
    writers.emplace_back([&path, canonical] {
      TemplateCatalog c;
      c.AddEntry(EntryFor(canonical));
      ASSERT_TRUE(c.Save(path).ok());
    });
  }
  for (std::thread& t : writers) t.join();

  auto merged = TemplateCatalog::Load(path);
  ASSERT_TRUE(merged.ok()) << merged.status().message();
  EXPECT_EQ(merged.value().size(), canonicals.size());
  for (const std::string& canonical : canonicals) {
    auto st = StructureTemplate::FromCanonical(canonical);
    ASSERT_TRUE(st.ok());
    EXPECT_GE(merged.value().FindSignature({st.value()}), 0)
        << canonical << " lost in the merge";
  }
  std::filesystem::remove(path);
  std::filesystem::remove(path + ".lock");
}

// A successful save must clean up its advisory-lock sidecar (best-effort
// unlink while still holding the lock), so long-lived output directories
// do not accumulate stray `.lock` files — while a *failed* save keeps
// serializing correctly and concurrent writers after cleanup still merge.
TEST(CatalogSaveTest, SaveCleansUpLockSidecar) {
  const std::string path = ::testing::TempDir() + "dm_catalog_unlock.txt";
  std::filesystem::remove(path);
  std::filesystem::remove(path + ".lock");

  TemplateCatalog a;
  a.AddEntry(EntryFor("F=F;F=F;\n"));
  ASSERT_TRUE(a.Save(path).ok());
  EXPECT_FALSE(std::filesystem::exists(path + ".lock"))
      << "successful save left its sidecar behind";

  // A second writer re-creates and re-cleans the sidecar; entries merge.
  TemplateCatalog b;
  b.AddEntry(EntryFor("F|F|F\n"));
  ASSERT_TRUE(b.Save(path).ok());
  EXPECT_FALSE(std::filesystem::exists(path + ".lock"));
  auto merged = TemplateCatalog::Load(path);
  ASSERT_TRUE(merged.ok());
  EXPECT_EQ(merged.value().size(), 2u);

  // The sidecar-unlink race guard: acquiring after an unlink must land on
  // the live sidecar inode, and UnlinkSidecar while held removes it again.
  auto lock = FileLock::Acquire(path);
  ASSERT_TRUE(lock.ok());
#if defined(__unix__) || defined(__APPLE__)
  ASSERT_TRUE(lock.value().held());
  EXPECT_TRUE(std::filesystem::exists(path + ".lock"));
  lock.value().UnlinkSidecar();
  EXPECT_FALSE(std::filesystem::exists(path + ".lock"));
#endif
  lock.value().Release();
  std::filesystem::remove(path);
}

TEST(ExtractorLineAccountingTest, CountsMatchedAndNoiseLinesExactly) {
  Rng rng(4);
  const Dataset data(KvLines(120, &rng) + ProseLines(180));
  const DatasetView view(data);
  std::vector<StructureTemplate> templates;
  auto st = StructureTemplate::FromCanonical("F=F;F=F;\n");
  ASSERT_TRUE(st.ok());
  templates.push_back(std::move(st.value()));

  const Extractor extractor(&templates);
  const ExtractionResult r = extractor.Extract(view);
  EXPECT_EQ(r.total_lines, 300u);
  EXPECT_EQ(r.matched_records, 120u);
  EXPECT_EQ(r.noise_line_count, 180u);
  EXPECT_NEAR(r.line_match_rate(), 0.4, 1e-9);
  EXPECT_EQ(r.records.size(), r.matched_records);
  EXPECT_EQ(r.noise_lines.size(), r.noise_line_count);
}

}  // namespace
}  // namespace datamaran
