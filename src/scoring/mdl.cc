#include "scoring/mdl.h"

#include <algorithm>
#include <memory>
#include <string>

#include "template/dispatch.h"
#include "template/matcher.h"

namespace datamaran {

double MdlScorer::ScoreSet(
    const DatasetView& sample,
    const std::vector<const StructureTemplate*>& templates) const {
  return EvaluateSet(sample, templates).total_bits;
}

std::optional<double> MdlScorer::ScoreBounded(const DatasetView& sample,
                                              const StructureTemplate& st,
                                              double abort_above) const {
  std::vector<const StructureTemplate*> ts = {&st};
  MdlBreakdown b = EvaluateSet(sample, ts, abort_above);
  if (b.pruned) return std::nullopt;
  return b.total_bits;
}

MdlBreakdown MdlScorer::EvaluateSet(
    const DatasetView& sample,
    const std::vector<const StructureTemplate*>& templates,
    double abort_above) const {
  MdlBreakdown out;
  // Noise is charged 8 bits per character including the line's '\n'
  // (paper: len(block) * 8). Keeping the newline in both the noise coding
  // and the record templates makes the trivial "F\n" template an exact
  // no-op rather than an 8-bit-per-line win.
  out.noise_only_bits = 32 + static_cast<double>(sample.line_count()) +
                        8.0 * static_cast<double>(sample.size_bytes());

  std::vector<RecordMatcher> matchers;
  std::vector<TemplateStatsCollector> collectors;
  std::vector<size_t> spans;
  matchers.reserve(templates.size());
  collectors.reserve(templates.size());
  spans.reserve(templates.size());
  for (const StructureTemplate* st : templates) {
    matchers.emplace_back(st, engine_, charset_engine_);
    collectors.emplace_back(st);
    spans.push_back(static_cast<size_t>(std::max(1, st->line_span())));
  }
  // Multi-template sets dispatch on the line's first byte; a template whose
  // FIRST set misses it cannot match, so the index only narrows the
  // priority-ordered attempt list, never changes its outcome. Singleton
  // sets (the per-candidate scoring path) use the matcher's own
  // first-byte filter and skip the index build.
  const bool use_index = templates.size() > 1;
  const TemplateSetIndex index =
      use_index ? TemplateSetIndex(matchers) : TemplateSetIndex();

  const double type_bits =
      templates.size() > 1
          ? Log2Ceil(static_cast<double>(templates.size()))
          : 0;

  // Model bits are a fixed, scan-independent term; charging them up front
  // makes the running partial below a valid lower bound from line one.
  for (const StructureTemplate* st : templates) {
    out.model_bits += 8.0 * static_cast<double>(st->canonical().size());
  }
  out.model_bits += 32;

  // The scan parses with the flat event API into one reused buffer: no
  // ParsedValue tree (a vector-of-children allocation per node per record)
  // is ever built, so the per-line cost is pure matching plus stats
  // accumulation. Candidate windows resolve against the backing buffer in
  // place, whose field values the column dictionaries keep as views; only
  // windows that straddle a view gap touch `scratch`, whose values they
  // copy.
  std::vector<MatchEvent> events;
  std::string scratch;
  size_t li = 0;
  const size_t n = sample.line_count();
  auto try_template = [&](size_t t) -> bool {
    const DatasetView::SpanText win = sample.ResolveSpan(li, spans[t],
                                                         &scratch);
    auto parsed = matchers[t].ParseFlat(win.text, win.pos, &events);
    if (!parsed.has_value()) return false;
    collectors[t].AddRecordFlat(events, win.text, !win.assembled);
    out.records += 1;
    out.record_lines += spans[t];
    out.covered_chars += parsed->end - win.pos;
    out.record_bits += type_bits;
    li += spans[t];
    return true;
  };
  const bool bounded = abort_above < std::numeric_limits<double>::infinity();
  while (li < n) {
    // Lines always contain at least their '\n', so front() is safe; the
    // first byte keys both the index dispatch and the singleton filter.
    const unsigned char first = static_cast<unsigned char>(
        sample.line_with_newline(li).front());
    bool matched = false;
    if (use_index) {
      for (uint16_t t : index.Candidates(first)) {
        if (try_template(t)) {
          matched = true;
          break;
        }
      }
    } else if (!matchers.empty() && matchers[0].CanStartWith(first)) {
      matched = try_template(0);
    }
    if (!matched) {
      out.noise_bits +=
          8.0 * static_cast<double>(sample.line_with_newline(li).size());
      out.noise_lines += 1;
      ++li;
    }
    if (bounded) {
      // Every accumulated term is nonnegative and the remaining terms
      // (unscanned lines, per-column field/array-count bits) only add, so
      // the partial sum is a true lower bound on the final total: once it
      // strictly exceeds abort_above, the exact total must too.
      const double lower =
          out.model_bits + out.noise_bits + out.record_bits +
          static_cast<double>(out.records + out.noise_lines);
      if (lower > abort_above) {
        out.pruned = true;
        out.total_bits = lower;
        return out;
      }
    }
  }

  for (size_t t = 0; t < templates.size(); ++t) {
    out.record_bits +=
        collectors[t].FieldBits() + collectors[t].ArrayCountBits();
  }
  // The paper's "32 + m" term: one record/noise flag per block, where a
  // block is one record or one noise line (Definition 2.4). This makes a
  // template that explains k lines as one record cheaper than one that
  // leaves some of those lines as noise — the per-block term is what lets
  // the full multi-line template beat its line-subsets when the extra
  // lines carry no typable content. (Templates that merely concatenate
  // several periods of a true template would also profit from this term;
  // those are eliminated structurally at generation by period/rotation
  // canonicalization, see generation/generator.h.)
  out.flag_bits = static_cast<double>(out.records + out.noise_lines);
  out.total_bits =
      out.model_bits + out.flag_bits + out.noise_bits + out.record_bits;
  return out;
}

}  // namespace datamaran
