#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "core/datamaran.h"
#include "core/dataset.h"
#include "util/rng.h"
#include "util/thread_pool.h"

// Edge cases for the zero-copy dataset layer: Dataset's line index,
// DatasetView gap semantics, the index-only residual transition
// (MaskMatchedLines).

namespace datamaran {
namespace {

// ------------------------------------------------------------- Dataset ----

TEST(DatasetTest, EmptyText) {
  Dataset data{std::string()};
  EXPECT_EQ(data.size_bytes(), 0u);
  EXPECT_EQ(data.line_count(), 0u);
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

TEST(DatasetTest, LineIndexMatchesByteScan) {
  // The index is built from 64-byte newline masks. Against a byte loop:
  // newlines on and around block edges, runs of empty lines, bytes one
  // bit away from '\n' (0x0b, 0x08, 0x8a) and NUL/0xff, with and without
  // a final newline. One Dataset is also reset to every text in turn, its
  // index rebuilt in place, and gives each text back.
  const char alphabet[] = {'\n', '\n', 'a', '\x0b', '\x08', '\x8a', '\0',
                           '\xff'};
  Rng rng(7);
  std::vector<std::string> texts = {std::string(63, 'x') + "\n",
                                    std::string(64, 'x') + "\n",
                                    std::string(127, '\n'),
                                    std::string(130, 'x')};
  for (int i = 0; i < 200; ++i) {
    std::string text(static_cast<size_t>(rng.Uniform(0, 300)), 'a');
    for (char& c : text) c = alphabet[rng.Uniform(0, 7)];
    texts.push_back(std::move(text));
  }
  Dataset reused;
  for (const std::string& text : texts) {
    std::string want_text = text;
    if (!want_text.empty() && want_text.back() != '\n') want_text += '\n';
    std::vector<size_t> want;
    for (size_t i = 0, begin = 0; i < want_text.size(); ++i) {
      if (want_text[i] != '\n') continue;
      want.push_back(begin);
      begin = i + 1;
    }
    const Dataset data{std::string(text)};
    reused.Reset(std::string(text));
    const Dataset* const both[] = {&data, &reused};
    for (const Dataset* d : both) {
      ASSERT_EQ(d->text(), want_text);
      ASSERT_EQ(d->line_count(), want.size());
      for (size_t i = 0; i < want.size(); ++i) {
        ASSERT_EQ(d->line_begin(i), want[i]) << "line " << i;
      }
    }
    ASSERT_EQ(reused.Release(), want_text);
    ASSERT_EQ(reused.size_bytes(), 0u);
    ASSERT_EQ(reused.line_count(), 0u);
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
