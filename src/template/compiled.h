#ifndef DATAMARAN_TEMPLATE_COMPILED_H_
#define DATAMARAN_TEMPLATE_COMPILED_H_

#include <array>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "template/match_engine.h"
#include "template/matcher.h"
#include "template/template.h"
#include "util/byte_class.h"
#include "util/char_class.h"
#include "util/charset_engine.h"

/// Compiled template matching: each StructureTemplate is lowered once into
/// a flat bytecode program executed by a tight non-recursive loop, instead
/// of re-walking the template tree per record. Both engines implement the
/// same LL(1) semantics (matcher.h) and emit byte-identical MatchStats and
/// MatchEvent streams; the tree walker remains the reference implementation
/// (DatamaranOptions::match_engine selects one pipeline-wide).
///
/// Lowering collapses the tree into four instruction shapes:
///   - literal runs: consecutive kChar nodes become one memcmp against a
///     shared literal pool (single-byte runs compare inline);
///   - field scans: a maximal run of bytes outside the RT-CharSet. The scan
///     strategy is picked per template (the stop set is the same for every
///     field): a plain memchr when the charset has a single member (fields
///     then run to end of line — long, and memchr is vectorized), a
///     word-at-a-time SWAR scan for two to four members that finds the
///     *position* of the first stop byte branchlessly (one 8-byte step
///     usually resolves a whole short field, with no per-byte loop and no
///     data-dependent exit branch), and — for five or more members — a
///     ByteClassifier scan under CharsetEngine::kSimd (32 bytes per step
///     with AVX2, after a 4-byte table lead-in for short tokens) or, under
///     kScalar, the precomputed 256-entry stop-byte table (the scalar
///     reference). A field followed by a fixed literal byte fuses into
///     one instruction (scan + compare, the dominant token pair);
///   - fused field arrays: an array whose element is a single field — the
///     dominant generated shape, e.g. "(F,)*F" — becomes one instruction
///     whose inner loop alternates field scan and separator lookahead with
///     no dispatch in between;
///   - general arrays: ArrayBegin pushes a repetition frame, the element
///     program runs in place, and ArrayNext peeks one character of
///     lookahead — the separator jumps back to the element start, anything
///     else pops the frame and falls through (Assumption 3's
///     single-character lookahead, now an explicit branch instead of a
///     recursive call).

namespace datamaran {

/// The set of bytes that can begin a match of `st` (FIRST set of the LL(1)
/// grammar): a leading literal contributes itself, a leading field
/// contributes every byte outside the RT-CharSet (fields are non-empty), a
/// leading array defers to its element. A window whose first byte is not in
/// this set can never match — the property TemplateSetIndex dispatches on.
CharSet TemplateFirstBytes(const StructureTemplate& st);

/// A StructureTemplate lowered to bytecode. Cheap to move; holds a pointer
/// to the template (which must outlive the program) only for MatchEvent
/// node attribution and structure_template().
class CompiledTemplate {
 public:
  /// `charset_engine` selects the field-scan strategy for wide stop sets
  /// (five or more charset members): kSimd engages the classifier scan,
  /// kScalar keeps the stop-byte table. Match results are byte-identical
  /// for both.
  explicit CompiledTemplate(
      const StructureTemplate* st,
      CharsetEngine charset_engine = CharsetEngine::kSimd);

  /// False when the template exceeds engine limits (array nesting deeper
  /// than kMaxArrayDepth); callers must then fall back to the tree walker.
  bool ok() const { return ok_; }

  /// Drop-in equivalents of TemplateMatcher::TryMatch / ParseFlat: same
  /// match decisions, same MatchStats, same event stream (events cleared on
  /// entry, partially filled on failure).
  std::optional<MatchStats> TryMatch(std::string_view text, size_t pos) const;
  std::optional<MatchStats> ParseFlat(std::string_view text, size_t pos,
                                      std::vector<MatchEvent>* events) const;

  const StructureTemplate& structure_template() const { return *st_; }
  const CharSet& first_bytes() const { return first_bytes_; }

  /// Deepest array nesting the execution stack supports.
  static constexpr int kMaxArrayDepth = 16;

 private:
  struct Inst {
    enum Op : uint8_t {
      kLit,          ///< memcmp(pool + a, text + p, b)
      kLit1,         ///< single literal byte
      kField,        ///< field scan; a = node index
      kFieldLit1,    ///< fused field scan + literal byte; a = node index
      kFieldLitRun,  ///< b fused (field, literal) pairs; a = first field
                     ///< node (consecutive), c = pool offset of literals
      kFieldArray,   ///< fused (field sep)* field; a = field node, b = array
      kArrayBegin,   ///< push frame; b = node index
      kArrayNext,    ///< byte == separator: jump to a; else pop frame
    };
    Op op;
    uint8_t byte = 0;  ///< kLit1/kFieldLit1 literal; array separator
    uint32_t a = 0;    ///< kLit pool offset; field node; kArrayNext target
    uint32_t b = 0;    ///< kLit length; array node; kFieldLitRun pair count
    uint32_t c = 0;    ///< kFieldLitRun literal-pool offset
  };

  /// Field-scan strategy, a function of the template-wide stop set. The
  /// mode is baked into the execution loop as a template parameter so the
  /// per-field scan inlines with no dispatch inside the hot loop.
  enum class ScanKind : uint8_t {
    kTable,
    kMemchr,
    kSwar2,
    kSwar3,
    kSwar4,
    /// Vectorized classifier scan (util/byte_class.h) for stop sets of
    /// five or more members under CharsetEngine::kSimd; a short table
    /// lead-in keeps 1-3 character tokens off the vector setup.
    kClass,
  };

  void Compile(const TemplateNode& node, int depth);
  void FlushLiteral();
  void FlushPendingField();

  template <bool kEmitEvents, ScanKind kScan>
  bool Run(std::string_view text, size_t* pos, size_t* field_chars,
           std::vector<MatchEvent>* events) const;

  /// Picks the Run instantiation for this template's scan kind.
  template <bool kEmitEvents>
  bool Dispatch(std::string_view text, size_t* pos, size_t* field_chars,
                std::vector<MatchEvent>* events) const;

  const StructureTemplate* st_ = nullptr;
  std::vector<Inst> insts_;
  std::string pool_;                    ///< concatenated literal runs
  std::vector<const TemplateNode*> nodes_;  ///< event attribution targets
  std::array<uint8_t, 256> stop_{};     ///< RT-CharSet membership
  ScanKind scan_kind_ = ScanKind::kTable;
  uint8_t memchr_stop_ = 0;             ///< the stop byte (charset size 1)
  std::array<uint64_t, 4> swar_{};      ///< broadcast stop bytes
  std::optional<ByteClassifier> classifier_;  ///< engaged for kClass
  std::string pending_literal_;         ///< compile-time scratch
  const TemplateNode* pending_field_ = nullptr;  ///< compile-time scratch
  CharSet first_bytes_;
  bool ok_ = true;
};

}  // namespace datamaran

#endif  // DATAMARAN_TEMPLATE_COMPILED_H_
