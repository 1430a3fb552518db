#include "refinement/refiner.h"

#include <algorithm>
#include <limits>
#include <optional>
#include <string>
#include <unordered_map>
#include <utility>

#include "template/dispatch.h"
#include "util/logging.h"

namespace datamaran {

namespace {

/// Maps every array node to its pre-order index (the numbering UnfoldArray
/// targets: a node before its element subtree, struct children in order).
void IndexArrays(const TemplateNode& node, int* next,
                 std::unordered_map<const TemplateNode*, int>* index) {
  if (node.kind == NodeKind::kArray) {
    index->emplace(&node, (*next)++);
  }
  for (const auto& child : node.children) {
    IndexArrays(*child, next, index);
  }
}

int CountArrays(const TemplateNode& node) {
  int n = 0;
  if (node.kind == NodeKind::kArray) ++n;
  for (const auto& c : node.children) n += CountArrays(*c);
  return n;
}

/// Clones `node`, replacing the array with pre-order index `target` using
/// the unfold parameters. Appends the resulting node(s) to `out` (an unfold
/// yields a sequence, which the caller splices).
void CloneUnfolding(const TemplateNode& node, int target, size_t reps,
                    bool keep_array, int* array_idx,
                    std::vector<std::unique_ptr<TemplateNode>>* out) {
  if (node.kind == NodeKind::kArray) {
    int idx = (*array_idx)++;
    if (idx == target) {
      const TemplateNode& elem = *node.children[0];
      size_t copies = keep_array ? reps : reps - 1;
      for (size_t r = 0; r < copies; ++r) {
        out->push_back(elem.Clone());
        out->push_back(TemplateNode::Char(node.ch));
      }
      if (keep_array) {
        out->push_back(node.Clone());
        // Do not descend: nested arrays keep their structure. Advance the
        // index counter past the subtree.
        *array_idx += CountArrays(elem);
      } else {
        out->push_back(elem.Clone());
        *array_idx += CountArrays(elem);
      }
      return;
    }
    // A different array: clone it, recursing into the element.
    std::vector<std::unique_ptr<TemplateNode>> elem_out;
    CloneUnfolding(*node.children[0], target, reps, keep_array, array_idx,
                   &elem_out);
    std::unique_ptr<TemplateNode> elem =
        elem_out.size() == 1 ? std::move(elem_out[0])
                             : TemplateNode::Struct(std::move(elem_out));
    out->push_back(TemplateNode::Array(std::move(elem), node.ch));
    return;
  }
  if (node.kind == NodeKind::kStruct) {
    std::vector<std::unique_ptr<TemplateNode>> children;
    for (const auto& c : node.children) {
      CloneUnfolding(*c, target, reps, keep_array, array_idx, &children);
    }
    out->push_back(TemplateNode::Struct(std::move(children)));
    return;
  }
  out->push_back(node.Clone());
}

}  // namespace

std::vector<ArrayCountStats> CollectArrayCounts(const DatasetView& sample,
                                                const StructureTemplate& st,
                                                MatchEngine engine,
                                                CharsetEngine charset_engine,
                                                bool constancy_only) {
  std::vector<ArrayCountStats> stats(
      static_cast<size_t>(CountArrays(st.root())));
  if (stats.empty()) return stats;
  std::unordered_map<const TemplateNode*, int> array_index;
  int next = 0;
  IndexArrays(st.root(), &next, &array_index);
  const RecordMatcher matcher(&st, engine, charset_engine);
  std::vector<MatchEvent> events;
  std::string scratch;
  size_t nonconstant = 0;
  size_t matched = 0;
  // Constancy-only callers decide from a bounded probe: past this many
  // matched records with a count that never varied, the count is taken as
  // constant without walking the rest of the sample — and past this many
  // parse *attempts*, the scan stops outright, so a template that matches
  // almost nothing cannot spend a full sample walk discovering that. See
  // the header contract for why this is a ranking heuristic, not a
  // correctness risk.
  constexpr size_t kConstancyProbe = 16;
  constexpr size_t kConstancyTries = 128;
  size_t tries = 0;
  size_t li = 0;
  const size_t n = sample.line_count();
  const size_t span = static_cast<size_t>(std::max(1, st.line_span()));
  while (li < n) {
    const unsigned char first =
        static_cast<unsigned char>(sample.line_with_newline(li).front());
    if (!matcher.CanStartWith(first)) {
      ++li;
      continue;
    }
    if (constancy_only && ++tries > kConstancyTries) break;
    const DatasetView::SpanText win = sample.ResolveSpan(li, span, &scratch);
    auto parsed = matcher.ParseFlat(win.text, win.pos, &events);
    if (parsed.has_value()) {
      ++matched;
      // Every array instantiation — outer arrays once per record, nested
      // arrays once per enclosing repetition — emits one kArrayCount event,
      // exactly the visits the old ParsedValue walk made.
      for (const MatchEvent& ev : events) {
        if (ev.kind != MatchEvent::kArrayCount) continue;
        ArrayCountStats& s =
            stats[static_cast<size_t>(array_index.at(ev.node))];
        if (s.occurrences == 0) {
          s.min_count = s.max_count = ev.count;
        } else if (s.min_count == s.max_count &&
                   ev.count != s.min_count) {
          s.min_count = std::min(s.min_count, ev.count);
          s.max_count = std::max(s.max_count, ev.count);
          ++nonconstant;  // constant -> non-constant, a one-way transition
        } else {
          s.min_count = std::min(s.min_count, ev.count);
          s.max_count = std::max(s.max_count, ev.count);
        }
        s.occurrences++;
      }
      if (constancy_only &&
          (nonconstant == stats.size() || matched >= kConstancyProbe)) {
        break;
      }
      li += span;
    } else {
      ++li;
    }
  }
  return stats;
}

StructureTemplate UnfoldArray(const StructureTemplate& st, int array_index,
                              size_t reps, bool keep_array) {
  if (reps == 0) return StructureTemplate();
  int idx = 0;
  std::vector<std::unique_ptr<TemplateNode>> out;
  CloneUnfolding(st.root(), array_index, reps, keep_array, &idx, &out);
  if (array_index >= idx) return StructureTemplate();  // index out of range
  std::unique_ptr<TemplateNode> root =
      out.size() == 1 ? std::move(out[0])
                      : TemplateNode::Struct(std::move(out));
  return StructureTemplate(std::move(root));
}

std::vector<StructureTemplate> LineRotations(const StructureTemplate& st) {
  std::vector<StructureTemplate> rotations;
  if (st.line_span() < 2) return rotations;
  // Split top-level children into line groups ending at '\n' literals.
  const TemplateNode& root = st.root();
  if (root.kind != NodeKind::kStruct) return rotations;
  std::vector<std::vector<const TemplateNode*>> groups;
  std::vector<const TemplateNode*> current;
  for (const auto& child : root.children) {
    current.push_back(child.get());
    if (child->kind == NodeKind::kChar && child->ch == '\n') {
      groups.push_back(std::move(current));
      current.clear();
    }
  }
  if (!current.empty()) return rotations;  // malformed (no trailing newline)
  if (groups.size() < 2) return rotations;
  for (size_t r = 1; r < groups.size(); ++r) {
    std::vector<std::unique_ptr<TemplateNode>> children;
    for (size_t g = 0; g < groups.size(); ++g) {
      for (const TemplateNode* n : groups[(r + g) % groups.size()]) {
        children.push_back(n->Clone());
      }
    }
    rotations.emplace_back(TemplateNode::Struct(std::move(children)));
  }
  return rotations;
}

size_t FirstOccurrenceLine(const DatasetView& sample,
                           const StructureTemplate& st, MatchEngine engine,
                           CharsetEngine charset_engine) {
  const RecordMatcher matcher(&st, engine, charset_engine);
  std::string scratch;
  const size_t span = static_cast<size_t>(std::max(1, st.line_span()));
  for (size_t li = 0; li < sample.line_count(); ++li) {
    const unsigned char first =
        static_cast<unsigned char>(sample.line_with_newline(li).front());
    if (!matcher.CanStartWith(first)) continue;
    const DatasetView::SpanText win = sample.ResolveSpan(li, span, &scratch);
    if (matcher.TryMatch(win.text, win.pos).has_value()) return li;
  }
  return std::numeric_limits<size_t>::max();
}

StructureTemplate AutoUnfoldConstantArrays(const DatasetView& sample,
                                           const StructureTemplate& st,
                                           int max_passes, MatchEngine engine,
                                           CharsetEngine charset_engine) {
  StructureTemplate current = st;
  for (int pass = 0; pass < max_passes; ++pass) {
    auto counts = CollectArrayCounts(sample, current, engine, charset_engine,
                                     /*constancy_only=*/true);
    bool changed = false;
    for (int a = 0; a < static_cast<int>(counts.size()); ++a) {
      const ArrayCountStats& s = counts[static_cast<size_t>(a)];
      if (!s.constant() || s.min_count < 2 || s.min_count > 64) continue;
      StructureTemplate unfolded =
          UnfoldArray(current, a, s.min_count, /*keep_array=*/false);
      if (unfolded.empty() || !unfolded.Validate().ok()) continue;
      current = std::move(unfolded);
      changed = true;
      break;  // indices shifted; recollect counts
    }
    if (!changed) break;
  }
  return current;
}

Refiner::Refiner(DatasetView sample, const RegularityScorer* scorer,
                 const DatamaranOptions* options)
    : sample_(std::move(sample)), scorer_(scorer), options_(options) {}

Refiner::Refined Refiner::Refine(const StructureTemplate& st,
                                 double score) const {
  Refined current{st, score};

  // --- Array unfolding: repeat until no variant improves the score. ---
  bool improved = true;
  while (improved) {
    improved = false;
    auto counts = CollectArrayCounts(sample_, current.st,
                                     options_->match_engine,
                                     options_->charset_engine);
    for (int a = 0; a < static_cast<int>(counts.size()) && !improved; ++a) {
      const ArrayCountStats& s = counts[static_cast<size_t>(a)];
      if (s.occurrences == 0) continue;
      std::vector<std::pair<size_t, bool>> variants;  // (reps, keep_array)
      if (s.constant() && s.min_count >= 2 &&
          s.min_count <= static_cast<size_t>(options_->max_unfold_tries) * 4) {
        variants.emplace_back(s.min_count, false);  // full unfold
      }
      size_t max_prefix = s.min_count > 0 ? s.min_count - 1 : 0;
      max_prefix = std::min(
          max_prefix, static_cast<size_t>(options_->max_unfold_tries));
      for (size_t p = 1; p <= max_prefix; ++p) {
        variants.emplace_back(p, true);  // partial unfold
      }
      for (const auto& [reps, keep] : variants) {
        StructureTemplate variant = UnfoldArray(current.st, a, reps, keep);
        if (variant.empty() || !variant.Validate().ok()) continue;
        // Bounded scoring is exact here: acceptance needs a score strictly
        // below current.score, and a pruned evaluation proves the variant's
        // total is strictly above it — rejected either way.
        std::optional<double> score =
            options_->enable_mdl_pruning
                ? scorer_->ScoreBounded(sample_, variant, current.score)
                : std::optional<double>(scorer_->Score(sample_, variant));
        if (score.has_value() && *score < current.score) {
          DM_LOG(kInfo, "refine: unfold a=%d reps=%zu keep=%d: %.0f -> %.0f",
                 a, reps, keep ? 1 : 0, current.score, *score);
          current.st = std::move(variant);
          current.score = *score;
          improved = true;
          break;
        }
      }
    }
  }

  // --- Structure shifting: earliest first occurrence wins. ---
  auto rotations = LineRotations(current.st);
  if (!rotations.empty()) {
    size_t best_line =
        FirstOccurrenceLine(sample_, current.st, options_->match_engine,
                            options_->charset_engine);
    const StructureTemplate* best = nullptr;
    for (const StructureTemplate& rot : rotations) {
      size_t line = FirstOccurrenceLine(sample_, rot, options_->match_engine,
                                        options_->charset_engine);
      if (line < best_line) {
        best_line = line;
        best = &rot;
      }
    }
    if (best != nullptr) {
      DM_LOG(kInfo, "refine: shifted to rotation first seen at line %zu",
             best_line);
      current.st = *best;
      current.score = scorer_->Score(sample_, current.st);
    }
  }
  return current;
}

}  // namespace datamaran
