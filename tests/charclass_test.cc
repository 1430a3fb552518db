#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <limits>
#include <string>
#include <string_view>
#include <vector>

#include "core/datamaran.h"
#include "core/dataset.h"
#include "core/options.h"
#include "datagen/github_corpus.h"
#include "generation/generator.h"
#include "scoring/mdl.h"
#include "template/template.h"
#include "util/byte_class.h"
#include "util/char_class.h"
#include "util/charset_engine.h"
#include "util/hashing.h"
#include "util/rng.h"
#include "util/thread_pool.h"

// Differential coverage for the byte-classification engines and the MDL
// evaluation fast path:
//
//  * ByteClassifier block operations — the table walk (kScalar) vs kSimd's
//    kernel (AVX2 where the CPU has it) — on adversarial buffers: all 256
//    byte values, every start offset, tails shorter than the vector width,
//    NUL/0xFF runs, and sets containing NUL/0xFF themselves. A per-byte
//    loop over CharSet::Contains is the oracle for both.
//  * Generation parity: tokenizing through the generator's shared
//    special-character mask must give candidates identical, in order, to
//    the per-byte reference — on gapped views whose live lines straddle
//    the mask's 64-bit words, with and without a thread pool.
//  * Full-pipeline parity: byte-identical output across
//    charset_engine x match_engine x threads x pruning.
//  * ScoreBounded exactness: a returned value is the exact total; nullopt
//    proves the total strictly exceeds the abort threshold, and an aborted
//    evaluation reports a lower bound on it.
//  * Bound-based pruning exactness: DiscoverTemplates with pruning on and
//    off accepts identical templates, and kept + pruned candidates add up
//    to the brute-force evaluation count.

namespace datamaran {
namespace {

constexpr CharsetEngine kEngines[] = {CharsetEngine::kScalar,
                                      CharsetEngine::kSimd};

const char* EngineLabel(CharsetEngine e) { return CharsetEngineName(e); }

// ------------------------------------------------------- block operations --

/// The oracle: per-byte membership via CharSet itself.
uint64_t ReferenceMask(const CharSet& set, std::string_view text,
                       size_t pos) {
  uint64_t mask = 0;
  for (size_t i = 0; i < 64 && pos + i < text.size(); ++i) {
    if (set.Contains(static_cast<unsigned char>(text[pos + i]))) {
      mask |= uint64_t{1} << i;
    }
  }
  return mask;
}

/// Buffers chosen to hit every kernel edge: vector-width blocks, unaligned
/// starts, sub-width tails, and byte values (NUL, 0xFF) that break naive
/// padding or sign handling.
std::vector<std::string> AdversarialBuffers() {
  std::vector<std::string> buffers;
  // Every byte value, ascending, then descending.
  std::string all;
  for (int c = 0; c < 256; ++c) all.push_back(static_cast<char>(c));
  buffers.push_back(all);
  std::string rev(all.rbegin(), all.rend());
  buffers.push_back(rev);
  // NUL and 0xFF runs with members sprinkled in.
  buffers.push_back(std::string(100, '\0') + "," + std::string(30, '\0'));
  buffers.push_back(std::string(70, '\xff') + ";" + std::string(70, '\xff'));
  // Short tails: every length 0..70 of a random-ish pattern.
  Rng rng(42);
  for (size_t len : {size_t{0}, size_t{1}, size_t{7}, size_t{15}, size_t{16},
                     size_t{17}, size_t{31}, size_t{32}, size_t{33},
                     size_t{63}, size_t{64}, size_t{65}, size_t{70}}) {
    std::string s;
    for (size_t i = 0; i < len; ++i) {
      s.push_back(static_cast<char>(rng.Uniform(0, 255)));
    }
    buffers.push_back(std::move(s));
  }
  // A long random buffer for unaligned-offset sweeps.
  std::string big;
  for (size_t i = 0; i < 1000; ++i) {
    big.push_back(static_cast<char>(rng.Uniform(0, 255)));
  }
  buffers.push_back(std::move(big));
  return buffers;
}

/// Charsets from 1 member (memchr-sized) through small and medium to wide
/// (64 members, every nibble pair of the AVX2 LUTs), plus NUL/0xFF
/// members.
std::vector<CharSet> TrialCharsets() {
  std::vector<CharSet> sets;
  sets.push_back(CharSet::Of(","));
  sets.push_back(CharSet::Of(",;"));
  sets.push_back(CharSet::Of(",;:|"));
  sets.push_back(CharSet::Of(",;:|[]{}"));
  sets.push_back(CharSet::Of(",;:|[]{}()<>\"' \t-="));  // 18 members
  CharSet with_nul = CharSet::Of(",\n");
  with_nul.Add('\0');
  sets.push_back(with_nul);
  CharSet with_ff = CharSet::Of(";");
  with_ff.Add(0xff);
  with_ff.Add('\0');
  sets.push_back(with_ff);
  CharSet wide;  // 64 members: every 4th byte value
  for (int c = 0; c < 256; c += 4) wide.Add(static_cast<unsigned char>(c));
  sets.push_back(wide);
  Rng rng(7);
  for (int trial = 0; trial < 8; ++trial) {
    CharSet random;
    const int members = static_cast<int>(rng.Uniform(1, 40));
    for (int m = 0; m < members; ++m) {
      random.Add(static_cast<unsigned char>(rng.Uniform(0, 255)));
    }
    sets.push_back(random);
  }
  return sets;
}

TEST(ByteClassifierTest, MaskBlockMatchesReferenceAcrossEngines) {
  const auto buffers = AdversarialBuffers();
  for (const CharSet& set : TrialCharsets()) {
    for (CharsetEngine engine : kEngines) {
      const ByteClassifier cls(set, engine);
      for (const std::string& buf : buffers) {
        // Every offset: covers unaligned starts and every tail length.
        for (size_t pos = 0; pos <= buf.size(); ++pos) {
          ASSERT_EQ(cls.MaskBlock(buf, pos), ReferenceMask(set, buf, pos))
              << EngineLabel(engine) << " set{" << set.ToString() << "} len "
              << buf.size() << " pos " << pos;
        }
      }
    }
  }
}

TEST(ByteClassifierTest, FindFirstMemberMatchesReference) {
  const auto buffers = AdversarialBuffers();
  for (const CharSet& set : TrialCharsets()) {
    for (CharsetEngine engine : kEngines) {
      const ByteClassifier cls(set, engine);
      for (const std::string& buf : buffers) {
        for (size_t from = 0; from <= buf.size(); ++from) {
          size_t want = from;
          while (want < buf.size() &&
                 !set.Contains(static_cast<unsigned char>(buf[want]))) {
            ++want;
          }
          ASSERT_EQ(cls.FindFirstMember(buf, from), want)
              << EngineLabel(engine) << " set{" << set.ToString() << "} len "
              << buf.size() << " from " << from;
        }
      }
    }
  }
}

TEST(ByteClassifierTest, RandomizedDifferentialSweep) {
  Rng rng(1234);
  for (int trial = 0; trial < 200; ++trial) {
    CharSet set;
    const int members = static_cast<int>(rng.Uniform(1, 48));
    for (int m = 0; m < members; ++m) {
      set.Add(static_cast<unsigned char>(rng.Uniform(0, 255)));
    }
    std::string buf;
    const size_t len = rng.Uniform(0, 300);
    for (size_t i = 0; i < len; ++i) {
      // Bias toward members so masks are dense, and toward 0/0xFF edges.
      const uint64_t pick = rng.Uniform(0, 9);
      if (pick < 2) {
        buf.push_back('\0');
      } else if (pick < 4) {
        buf.push_back('\xff');
      } else {
        buf.push_back(static_cast<char>(rng.Uniform(0, 255)));
      }
    }
    const ByteClassifier scalar(set, CharsetEngine::kScalar);
    const ByteClassifier simd(set, CharsetEngine::kSimd);
    const size_t pos = buf.empty() ? 0 : rng.Uniform(0, buf.size());
    const uint64_t want = ReferenceMask(set, buf, pos);
    ASSERT_EQ(scalar.MaskBlock(buf, pos), want) << "trial " << trial;
    ASSERT_EQ(simd.MaskBlock(buf, pos), want) << "trial " << trial;
  }
}

TEST(ByteClassifierTest, SimdLevelNamesAKeptKernel) {
  // kSimd classifies with AVX2 or, without it, the table walk; the CLI
  // prints which.
  const std::string_view level = CharsetSimdLevel();
  EXPECT_TRUE(level == "avx2" || level == "none") << level;
}

// ------------------------------------------------------- generation parity --

std::string GenerationCorpus() {
  Rng rng(99);
  std::string text;
  for (int i = 0; i < 400; ++i) {
    text += std::to_string(rng.Uniform(0, 999)) + "," +
            std::to_string(rng.Uniform(0, 999)) + "," +
            std::to_string(rng.Uniform(0, 999)) + "\n";
    if (i % 7 == 0) {
      text += "[INFO] worker " + std::to_string(rng.Uniform(0, 9)) +
              ": ok=" + std::to_string(rng.Uniform(0, 1)) + "\n";
    }
    if (i % 23 == 0) text += "## free text noise line\n";
  }
  return text;
}

void ExpectSameCandidates(const std::vector<CandidateTemplate>& want,
                          const std::vector<CandidateTemplate>& got,
                          const std::string& label) {
  ASSERT_EQ(got.size(), want.size()) << label;
  for (size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(got[i].canonical, want[i].canonical) << label << " #" << i;
    EXPECT_EQ(got[i].coverage, want[i].coverage) << label << " #" << i;
    EXPECT_EQ(got[i].non_field_coverage, want[i].non_field_coverage)
        << label << " #" << i;
    EXPECT_EQ(got[i].span, want[i].span) << label << " #" << i;
    EXPECT_EQ(got[i].count, want[i].count) << label << " #" << i;
    EXPECT_EQ(got[i].first_line, want[i].first_line) << label << " #" << i;
    EXPECT_EQ(got[i].field_count, want[i].field_count) << label << " #" << i;
  }
}

/// A line of exactly `len` bytes, '\n' included: comma-separated fields
/// with a key=value head, padded with a letter run.
std::string LineOfLength(size_t len, Rng* rng) {
  std::string line = "k";
  line += std::to_string(rng->Uniform(0, 9)) + "=";
  while (line.size() + 4 < len) {
    line += std::to_string(rng->Uniform(10, 99)) + ",";
  }
  while (line.size() + 1 < len) line.push_back('x');
  line.resize(len - 1);
  line.push_back('\n');
  return line;
}

/// Lines whose bytes straddle the special mask's 64-bit words: 63, 64, 65,
/// 128 and 130 bytes, an empty line, and a line whose special characters
/// are NUL and 0xFF. Seven shapes, so a view that drops every third line
/// keeps some of each.
std::string WordEdgeCorpus() {
  Rng rng(61);
  std::string text;
  for (int i = 0; i < 280; ++i) {
    switch (i % 7) {
      case 0: text += LineOfLength(63, &rng); break;
      case 1: text += LineOfLength(64, &rng); break;
      case 2: text += LineOfLength(65, &rng); break;
      case 3: text += LineOfLength(130, &rng); break;
      case 4: text += "\n"; break;
      case 5: text += LineOfLength(128, &rng); break;
      default:
        text += "a";
        text += std::to_string(rng.Uniform(0, 99));
        text.push_back('\0');
        text += std::to_string(rng.Uniform(0, 99)) + "\xff" +
                std::to_string(rng.Uniform(0, 99)) + "\n";
        break;
    }
  }
  return text;
}

TEST(CharsetEngineGenerationTest, CandidateBinsIdenticalAcrossEngines) {
  // Every trial of each search, per engine, on the whole sample and on
  // gapped views: live runs start mid-word in the backing text, and each
  // run starts a new mask word.
  struct Corpus {
    const char* name;
    std::string text;
    CharSet special_chars;
  };
  CharSet edge_chars = CharSet::Of(",=");
  edge_chars.Add('\0');
  edge_chars.Add(0xff);
  const Corpus corpora[] = {
      {"generation", GenerationCorpus(), DefaultSpecialChars()},
      {"word-edge", WordEdgeCorpus(), edge_chars},
  };
  ThreadPool pool(4);
  for (const Corpus& corpus : corpora) {
    const Dataset data(corpus.text);
    std::vector<std::pair<std::string, DatasetView>> views;
    views.emplace_back("all lines", DatasetView(data));
    std::vector<uint32_t> third_dead, random_dead;
    Rng rng(8);
    for (uint32_t k = 0; k < data.line_count(); ++k) {
      if (k % 3 != 2) third_dead.push_back(k);
      if (rng.Uniform(0, 9) < 6) random_dead.push_back(k);
    }
    views.emplace_back("every third line dead",
                       DatasetView(data, std::move(third_dead)));
    views.emplace_back("random lines dead",
                       DatasetView(data, std::move(random_dead)));
    for (const auto& [view_name, view] : views) {
      for (ThreadPool* p : {static_cast<ThreadPool*>(nullptr), &pool}) {
        std::vector<std::vector<CandidateTemplate>> results;
        for (CharsetEngine engine : kEngines) {
          DatamaranOptions opts;
          opts.charset_engine = engine;
          opts.special_chars = corpus.special_chars;
          CandidateGenerator gen(view, &opts, p);
          if (std::string_view(corpus.name) == "word-edge") {
            // NUL and 0xFF are in the pool.
            ASSERT_EQ(gen.search_chars().size(), 4u);
          }
          results.push_back(gen.Run().candidates);
        }
        ASSERT_FALSE(results[0].empty());
        for (size_t e = 1; e < results.size(); ++e) {
          ExpectSameCandidates(
              results[0], results[e],
              std::string(corpus.name) + ", " + view_name + ", " +
                  (p != nullptr ? "4 threads" : "no pool") + ": " +
                  EngineLabel(kEngines[e]));
        }
      }
    }
  }
}

TEST(CharsetEngineGenerationTest, OutOfPoolCharsetFallsBackToReference) {
  // RunCharset with a charset outside the generator's special-char pool
  // cannot use the special-character mask; it must still match the scalar
  // reference bit for bit.
  Dataset data(GenerationCorpus());
  DatamaranOptions scalar_opts;
  scalar_opts.charset_engine = CharsetEngine::kScalar;
  DatamaranOptions simd_opts;
  CandidateGenerator scalar_gen(&data, &scalar_opts);
  CandidateGenerator simd_gen(&data, &simd_opts);
  CharSet odd = CharSet::Of(",~");  // '~' absent from the corpus
  std::vector<CandidateTemplate> a, b;
  scalar_gen.RunCharset(odd, &a);
  simd_gen.RunCharset(odd, &b);
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].canonical, b[i].canonical);
    EXPECT_EQ(a[i].count, b[i].count);
  }
}

// --------------------------------------------------------- pipeline parity --

void HashSizeT(uint64_t* h, size_t v) {
  for (int b = 0; b < 8; ++b) {
    *h = Fnv1aByte(*h, static_cast<unsigned char>(v >> (b * 8)));
  }
}

uint64_t PipelineSignature(const std::string& text,
                           const DatamaranOptions& opts) {
  Datamaran dm(opts);
  PipelineResult r = dm.ExtractText(text);
  uint64_t sig = kFnvOffset;
  for (const StructureTemplate& st : r.templates) {
    sig = Fnv1a(st.canonical(), sig);
  }
  for (const ExtractedRecord& rec : r.extraction.records) {
    HashSizeT(&sig, static_cast<size_t>(rec.template_id));
    HashSizeT(&sig, rec.begin);
    HashSizeT(&sig, rec.end);
    HashSizeT(&sig, rec.first_line);
  }
  for (size_t noise : r.extraction.noise_lines) HashSizeT(&sig, noise);
  return sig;
}

TEST(CharsetEnginePipelineTest, ByteIdenticalAcrossEngineMatrix) {
  const std::string text = GenerationCorpus();
  DatamaranOptions base;
  base.num_threads = 1;
  const uint64_t want = PipelineSignature(text, base);
  for (CharsetEngine charset : kEngines) {
    for (MatchEngine match : {MatchEngine::kCompiled, MatchEngine::kTree}) {
      for (int threads : {1, 4}) {
        for (bool pruning : {true, false}) {
          DatamaranOptions opts;
          opts.charset_engine = charset;
          opts.match_engine = match;
          opts.num_threads = threads;
          opts.enable_mdl_pruning = pruning;
          EXPECT_EQ(PipelineSignature(text, opts), want)
              << EngineLabel(charset) << " x " << MatchEngineName(match)
              << " x threads=" << threads << " x pruning=" << pruning;
        }
      }
    }
  }
}

// ------------------------------------------------------ bounded evaluation --

TEST(ScoreBoundedTest, ValueIsExactAndNulloptProvesAboveThreshold) {
  Dataset data(GenerationCorpus());
  MdlScorer scorer;
  for (const char* canonical :
       {"(F,)*F\n", "F,F,F\n", "[F] F F: F=F\n", "F F\n"}) {
    auto st = StructureTemplate::FromCanonical(canonical);
    ASSERT_TRUE(st.ok()) << canonical;
    const double exact = scorer.Score(data, st.value());
    for (double abort_above :
         {exact * 0.25, exact * 0.9, exact - 1, exact, exact + 1,
          exact * 1.5, std::numeric_limits<double>::infinity()}) {
      auto bounded = scorer.ScoreBounded(data, st.value(), abort_above);
      if (bounded.has_value()) {
        // The contract: any returned value is the exact total, even when
        // the scan finished without the bound ever tripping.
        EXPECT_EQ(*bounded, exact) << canonical << " abort " << abort_above;
      } else {
        EXPECT_GT(exact, abort_above) << canonical;
      }
    }
    // A threshold at or above the exact total can never prune.
    EXPECT_TRUE(scorer.ScoreBounded(data, st.value(), exact).has_value());
  }
}

TEST(ScoreBoundedTest, AbortedEvaluationReportsLowerBound) {
  Dataset data(GenerationCorpus());
  DatasetView view(data);
  MdlScorer scorer;
  auto st = StructureTemplate::FromCanonical("(F,)*F\n");
  ASSERT_TRUE(st.ok());
  const double exact = scorer.Score(view, st.value());

  // An impossible threshold aborts: no value, and the breakdown carries a
  // lower bound that already exceeds the threshold but not the exact total.
  EXPECT_FALSE(scorer.ScoreBounded(view, st.value(), 1.0).has_value());
  const std::vector<const StructureTemplate*> ts = {&st.value()};
  const MdlBreakdown aborted = scorer.EvaluateSet(view, ts, 1.0);
  EXPECT_TRUE(aborted.pruned);
  EXPECT_GT(aborted.total_bits, 1.0);
  EXPECT_LE(aborted.total_bits, exact);

  // A completing bounded evaluation returns the exact total.
  auto full = scorer.ScoreBounded(view, st.value(),
                                  std::numeric_limits<double>::infinity());
  ASSERT_TRUE(full.has_value());
  EXPECT_EQ(*full, exact);
  EXPECT_FALSE(scorer.EvaluateSet(view, ts, exact).pruned);
}

// ------------------------------------------------------- pruning exactness --

TEST(PruningExactnessTest, AcceptedTemplatesAndCountsMatchBruteForce) {
  // Real multi-charset corpora produce hundreds of retained candidates, so
  // the waved threshold actually prunes; exactness then demands identical
  // accepted templates and complementary candidate accounting.
  size_t total_pruned = 0;
  for (int ds = 0; ds < 4; ++ds) {
    GeneratedDataset gen = BuildGithubDataset(ds, 24 * 1024);
    if (gen.label == DatasetLabel::kNoStructure) continue;
    Dataset data(std::move(gen.text));

    DatamaranOptions pruned_opts;
    pruned_opts.num_threads = 1;
    DatamaranOptions brute_opts;
    brute_opts.num_threads = 1;
    brute_opts.enable_mdl_pruning = false;

    Datamaran pruned_dm(pruned_opts);
    Datamaran brute_dm(brute_opts);
    PipelineStats pruned_stats, brute_stats;
    auto pruned_templates =
        pruned_dm.DiscoverTemplates(data, nullptr, &pruned_stats, nullptr);
    auto brute_templates =
        brute_dm.DiscoverTemplates(data, nullptr, &brute_stats, nullptr);

    ASSERT_EQ(pruned_templates.size(), brute_templates.size()) << "ds " << ds;
    for (size_t t = 0; t < pruned_templates.size(); ++t) {
      EXPECT_EQ(pruned_templates[t].canonical(),
                brute_templates[t].canonical())
          << "ds " << ds;
    }
    // Every valid candidate is either scored to completion or pruned; the
    // brute run scores all of them.
    EXPECT_EQ(pruned_stats.candidates_evaluated +
                  pruned_stats.candidates_pruned,
              brute_stats.candidates_evaluated)
        << "ds " << ds;
    EXPECT_EQ(brute_stats.candidates_pruned, 0u) << "ds " << ds;
    total_pruned += pruned_stats.candidates_pruned;
  }
  // The fast path must actually engage somewhere in this suite, or the
  // exactness assertions above test nothing.
  EXPECT_GT(total_pruned, 0u);
}

}  // namespace
}  // namespace datamaran
