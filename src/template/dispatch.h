#ifndef DATAMARAN_TEMPLATE_DISPATCH_H_
#define DATAMARAN_TEMPLATE_DISPATCH_H_

#include <array>
#include <cstdint>
#include <optional>
#include <string_view>
#include <vector>

#include "template/compiled.h"
#include "template/matcher.h"
#include "template/template.h"

/// Engine selection and template-set dispatch for the match hot loops.
///
/// RecordMatcher is the facade every pipeline stage matches through: one
/// template, bound to either the compiled bytecode engine (compiled.h) or
/// the reference tree walker (matcher.h) per DatamaranOptions::match_engine.
/// Both produce identical MatchStats, MatchEvent streams, and ParsedValue
/// trees, so the switch trades nothing but speed.
///
/// TemplateSetIndex serves the multi-template call sites (the extraction
/// scan, multi-template MDL evaluation): templates are bucketed by the 256
/// possible first bytes of a window using each template's FIRST set
/// (TemplateFirstBytes). A line whose first byte is outside a template's
/// FIRST set can never match it, so dispatching through the index attempts
/// only plausible templates per line while preserving the exact
/// first-match-in-priority-order semantics.

namespace datamaran {

/// Reconstructs the ParsedValue tree of a successful match from its flat
/// event stream (field spans + array counts) by replaying the template:
/// literals advance the cursor by their length, fields adopt their event's
/// span, arrays iterate their recorded count. Produces exactly the tree
/// TemplateMatcher::Parse builds, without re-scanning the text.
ParsedValue BuildParsedValue(const StructureTemplate& st, size_t pos,
                             const MatchEvent* events, size_t num_events);

inline ParsedValue BuildParsedValue(const StructureTemplate& st, size_t pos,
                                    const std::vector<MatchEvent>& events) {
  return BuildParsedValue(st, pos, events.data(), events.size());
}

/// One template bound to one engine. Cheap to construct and move; the
/// template must outlive the matcher (same contract as TemplateMatcher).
class RecordMatcher {
 public:
  /// `charset_engine` tunes the compiled engine's wide-stop-set field scans
  /// (util/charset_engine.h); the tree walker ignores it. Results are
  /// byte-identical for every combination.
  RecordMatcher(const StructureTemplate* st, MatchEngine engine,
                CharsetEngine charset_engine = CharsetEngine::kSimd);

  std::optional<MatchStats> TryMatch(std::string_view text, size_t pos) const {
    if (compiled_.has_value()) return compiled_->TryMatch(text, pos);
    return tree_.TryMatch(text, pos);
  }

  std::optional<MatchStats> ParseFlat(std::string_view text, size_t pos,
                                      std::vector<MatchEvent>* events) const {
    if (compiled_.has_value()) return compiled_->ParseFlat(text, pos, events);
    return tree_.ParseFlat(text, pos, events);
  }

  /// Tree-shaped parse. The compiled engine parses flat into a transient
  /// buffer and replays it; hot loops that parse repeatedly should instead
  /// call ParseFlat with a reused buffer and BuildParsedValue on hits.
  std::optional<ParsedValue> Parse(std::string_view text, size_t pos) const;

  const StructureTemplate& structure_template() const { return tree_.structure_template(); }

  /// Bytes that can begin a match (TemplateFirstBytes).
  const CharSet& first_bytes() const { return first_bytes_; }

  /// True when a window starting with `b` could match; false windows are
  /// rejected without resolving or scanning them.
  bool CanStartWith(unsigned char b) const { return first_bytes_.Contains(b); }

 private:
  TemplateMatcher tree_;
  /// Engaged for MatchEngine::kCompiled when the template compiles (the
  /// tree walker is the fallback for programs past engine limits).
  std::optional<CompiledTemplate> compiled_;
  CharSet first_bytes_;
};

/// First-byte dispatch over a set of RecordMatchers in priority order.
/// Candidates(b) lists, in that same order, exactly the templates whose
/// FIRST set contains `b` — a complete, never-skipping filter.
class TemplateSetIndex {
 public:
  TemplateSetIndex() = default;
  explicit TemplateSetIndex(const std::vector<RecordMatcher>& matchers);

  const std::vector<uint16_t>& Candidates(unsigned char first_byte) const {
    return buckets_[first_byte];
  }

 private:
  std::array<std::vector<uint16_t>, 256> buckets_;
};

/// Builds one RecordMatcher per template, in order. The templates vector
/// must outlive the result (matchers hold pointers into it).
std::vector<RecordMatcher> BuildMatchers(
    const std::vector<StructureTemplate>& templates, MatchEngine engine,
    CharsetEngine charset_engine = CharsetEngine::kSimd);

}  // namespace datamaran

#endif  // DATAMARAN_TEMPLATE_DISPATCH_H_
