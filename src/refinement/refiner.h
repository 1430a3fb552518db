#ifndef DATAMARAN_REFINEMENT_REFINER_H_
#define DATAMARAN_REFINEMENT_REFINER_H_

#include <cstddef>
#include <vector>

#include "core/dataset.h"
#include "core/options.h"
#include "scoring/mdl.h"
#include "template/template.h"

/// Structure refinement (Section 4.3): applied to the top-M templates
/// during the evaluation step. Two techniques:
///
///  * Array unfolding (4.3.1): generation always produces *minimal*
///    templates, but e.g. a CSV file's "(F,)*F\n" is better expressed as the
///    plain struct "F,F,...,F\n" (each column typed separately). Full
///    unfolding replaces an array whose repetition count is constant with
///    that many copies; partial unfolding peels a fixed prefix and keeps the
///    array tail (for "regular fields followed by free text"). A variant is
///    kept only if it improves the regularity score.
///
///  * Structure shifting (4.3.2): a multi-line template that is a cyclic
///    line-rotation of the true one scores almost identically; among all
///    rotations we keep the one whose first occurrence in the sample is
///    earliest.

namespace datamaran {

/// Per-array-node repetition statistics observed in a sample.
struct ArrayCountStats {
  size_t occurrences = 0;
  size_t min_count = 0;
  size_t max_count = 0;
  bool constant() const { return occurrences > 0 && min_count == max_count; }
};

/// Collects repetition stats for every array node (pre-order index) by
/// parsing all matches of `st` in the live lines of `sample`. Counts come
/// straight from the flat kArrayCount event stream — no ParsedValue tree is
/// materialized.
/// With `constancy_only` the scan stops as soon as every array has shown
/// two distinct counts (non-constancy is sticky, so no further record can
/// make any array constant again) — or once a bounded probe of matched
/// records has gone by with a count never varying, which is taken as
/// constant without walking the rest of the sample. The probe is a ranking
/// heuristic, not a correctness risk: the only consumer
/// (AutoUnfoldConstantArrays) picks which *extra* variant gets scored, the
/// plain template is always scored alongside it, and every pipeline scores
/// through the same decision — so a wrong guess can only add a
/// poorly-scoring variant, never change what a score means. Callers that
/// read exact `min_count`/`max_count` over the whole sample (the Refiner's
/// partial unfolds) need the full scan.
std::vector<ArrayCountStats> CollectArrayCounts(
    const DatasetView& sample, const StructureTemplate& st,
    MatchEngine engine = MatchEngine::kCompiled,
    CharsetEngine charset_engine = CharsetEngine::kSimd,
    bool constancy_only = false);

/// Rewrites array node `array_index` (pre-order). If `keep_array` is false
/// the array is fully expanded into `reps` copies (reps >= 1); otherwise
/// `reps` copies of (elem sep) are peeled off in front of the retained
/// array. Returns an empty template if the index is out of range.
StructureTemplate UnfoldArray(const StructureTemplate& st, int array_index,
                              size_t reps, bool keep_array);

/// All cyclic line-rotations of a multi-line template, excluding the
/// original. Empty for single-line templates.
std::vector<StructureTemplate> LineRotations(const StructureTemplate& st);

/// View-line index of the first match of `st` in `sample`, or SIZE_MAX.
size_t FirstOccurrenceLine(const DatasetView& sample,
                           const StructureTemplate& st,
                           MatchEngine engine = MatchEngine::kCompiled,
                           CharsetEngine charset_engine = CharsetEngine::kSimd);

/// Unfolds every array whose observed repetition count is constant across
/// the sample (iterated up to `max_passes`). A constant-count array is
/// semantically a struct (the paper's CSV example in Section 4.3.1), and
/// its unfolded form exposes per-column types; scoring candidates in this
/// form keeps the evaluation ranking honest. Returns the input when no
/// array qualifies or the unfold fails validation.
StructureTemplate AutoUnfoldConstantArrays(
    const DatasetView& sample, const StructureTemplate& st, int max_passes = 4,
    MatchEngine engine = MatchEngine::kCompiled,
    CharsetEngine charset_engine = CharsetEngine::kSimd);

class Refiner {
 public:
  /// Refinement reads `sample` through the view (cheap copy; the backing
  /// dataset must outlive the refiner).
  Refiner(DatasetView sample, const RegularityScorer* scorer,
          const DatamaranOptions* options);

  /// Convenience: all lines of `sample` (must outlive the refiner).
  Refiner(const Dataset* sample, const RegularityScorer* scorer,
          const DatamaranOptions* options)
      : Refiner(DatasetView(*sample), scorer, options) {}

  struct Refined {
    StructureTemplate st;
    double score = 0;
  };

  /// Runs the unfold-until-no-improvement loop followed by structure
  /// shifting; returns the refined template and its score. `score` must be
  /// `st`'s exact score on the refiner's sample — the evaluation step
  /// passes the score it already computed, so `st` is never rescored.
  Refined Refine(const StructureTemplate& st, double score) const;

 private:
  DatasetView sample_;
  const RegularityScorer* scorer_;
  const DatamaranOptions* options_;
};

}  // namespace datamaran

#endif  // DATAMARAN_REFINEMENT_REFINER_H_
