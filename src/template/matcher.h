#ifndef DATAMARAN_TEMPLATE_MATCHER_H_
#define DATAMARAN_TEMPLATE_MATCHER_H_

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string_view>
#include <vector>

#include "template/template.h"

/// LL(1) matching of structure templates against raw text (Section 3.3
/// remark: Assumption 3 templates form an LL(1) grammar, so extraction runs
/// in linear time with single-character lookahead and no backtracking).
///
/// A field matches the maximal non-empty run of characters outside the
/// template's RT-CharSet; a literal matches itself; an array repeats its
/// element as long as the lookahead equals the separator.
///
/// Two engines implement these semantics with byte-identical results:
///  - TemplateMatcher (this header): the reference recursive tree walker.
///  - CompiledTemplate (template/compiled.h): the template lowered once
///    into a flat bytecode program run by a non-recursive loop — what the
///    pipeline's hot paths use by default.
/// Call sites go through RecordMatcher (template/dispatch.h), which binds
/// one template to the engine selected by DatamaranOptions::match_engine;
/// multi-template sites dispatch through a TemplateSetIndex so only
/// templates whose FIRST set admits a line's first byte are attempted.
/// Both engines emit the MatchEvent stream defined here, and a ParsedValue
/// tree can be replayed from it without re-scanning the text
/// (BuildParsedValue in dispatch.h).

namespace datamaran {

/// Parsed shape of one instantiated record, mirroring the template tree.
///  - field: [begin,end) is the field value span in the input text.
///  - char:  no payload (span covers the single character).
///  - struct: children parallel the template's children.
///  - array: children are the parsed elements, one per repetition.
struct ParsedValue {
  NodeKind kind;
  size_t begin = 0;
  size_t end = 0;
  std::vector<ParsedValue> children;
};

/// Result of a successful capture-free match.
struct MatchStats {
  size_t end = 0;          ///< one past the last matched character
  size_t field_chars = 0;  ///< total characters inside field values
};

/// One entry of a flat (allocation-free) parse. Instead of materializing
/// the ParsedValue tree — a vector-of-children allocation per node per
/// record — ParseFlat appends plain events to a caller-owned buffer that
/// is reused across records. `node` identifies the template node, which is
/// all a consumer needs to attribute the event to a relational column
/// (each distinct kField node is one column; array repetitions revisit the
/// same element nodes and pool into the same columns).
///
/// Three words: the kind is not stored but read from the node (a kField
/// node is a field value, a kArray node an array count), and one word
/// holds a field value's end or an array's repetition count, which never
/// occur together. A parallel scan buffers threads x 2 chunks of events
/// per wave (extraction/extractor.h), so their size sets that state.
struct MatchEvent {
  enum Kind : uint8_t {
    kFieldValue,  ///< `node` is a kField leaf; [begin, end()) is the value
    kArrayCount,  ///< `node` is a kArray; count() repetitions were parsed
  };

  static MatchEvent FieldValue(const TemplateNode* node, size_t begin,
                               size_t end) {
    MatchEvent ev;
    ev.node = node;
    ev.begin = begin;
    ev.end_or_count_ = end;
    return ev;
  }
  /// The count is patched in with set_count() once the array is parsed.
  static MatchEvent ArrayCount(const TemplateNode* node) {
    MatchEvent ev;
    ev.node = node;
    return ev;
  }

  Kind kind() const {
    return node->kind == NodeKind::kArray ? kArrayCount : kFieldValue;
  }
  size_t end() const { return end_or_count_; }    ///< kFieldValue only
  size_t count() const { return end_or_count_; }  ///< kArrayCount only
  void set_count(size_t count) { end_or_count_ = count; }

  const TemplateNode* node = nullptr;
  size_t begin = 0;  ///< kFieldValue: value span start (kArrayCount: 0)

 private:
  size_t end_or_count_ = 0;
};
static_assert(sizeof(MatchEvent) == 24,
              "MatchEvent is three words: node, begin, end or count");

/// The reference tree-walking matcher, bound to one structure template.
/// Cheap to construct; holds only pointers/derived sets, so the template
/// must outlive the matcher. Kept as the differential-testing baseline for
/// the compiled engine (tests/compiled_test.cc) and selectable pipeline-
/// wide via MatchEngine::kTree.
class TemplateMatcher {
 public:
  explicit TemplateMatcher(const StructureTemplate* st);

  /// Attempts to match one record starting exactly at `pos`.
  /// Returns std::nullopt if the text does not match.
  std::optional<MatchStats> TryMatch(std::string_view text, size_t pos) const;

  /// Like TryMatch but also produces the parsed value tree.
  std::optional<ParsedValue> Parse(std::string_view text, size_t pos) const;

  /// Like Parse but emits a flat event stream instead of a tree: `events`
  /// is cleared, then one kFieldValue event is appended per field value
  /// and one kArrayCount event per array node (in template order, the
  /// array's count preceding its elements' fields). Performs no heap
  /// allocation once the buffer's capacity is warm, which is what makes
  /// the scoring hot loop allocation-free. On a failed match `events` is
  /// left partially filled and must be ignored.
  std::optional<MatchStats> ParseFlat(std::string_view text, size_t pos,
                                      std::vector<MatchEvent>* events) const;

  const StructureTemplate& structure_template() const { return *st_; }

 private:
  bool ParseNode(const TemplateNode& node, std::string_view text, size_t* pos,
                 ParsedValue* out) const;
  /// Shared LL(1) walker for TryMatch (events == nullptr) and ParseFlat:
  /// one implementation keeps capture-free matching and flat parsing in
  /// lockstep by construction.
  bool ParseFlatNode(const TemplateNode& node, std::string_view text,
                     size_t* pos, size_t* field_chars,
                     std::vector<MatchEvent>* events) const;

  const StructureTemplate* st_;
  CharSet rt_charset_;
};

}  // namespace datamaran

#endif  // DATAMARAN_TEMPLATE_MATCHER_H_
