#ifndef DATAMARAN_SCORING_MDL_H_
#define DATAMARAN_SCORING_MDL_H_

#include <cstdint>
#include <limits>
#include <optional>
#include <vector>

#include "core/dataset.h"
#include "scoring/field_stats.h"
#include "template/match_engine.h"
#include "template/template.h"
#include "util/charset_engine.h"

/// The regularity score F(T,S) (Problem 2). Datamaran treats the scorer as
/// a black box — any function mimicking human judgment plugs in via the
/// RegularityScorer interface — and ships the minimum-description-length
/// scorer of Section 9.2 as the default.
///
/// Scorers consume a DatasetView (the sampled lines, or a residual round's
/// live lines) and never materialize text: candidate windows that are
/// physically contiguous in the backing buffer are matched in place, and
/// only the rare window crossing a view gap is assembled into a reused
/// scratch buffer (see DatasetView::ResolveSpan).
///
/// MDL model (lower is better, in bits):
///   model:   8 * len(ST) per template + 32, plus per-column parameters
///   flags:   one record/noise indicator bit per block ("32 + m" in the
///            paper, where a block is one record or one noise line). This
///            term is what makes covering a record's untypable lines
///            cheaper than leaving them as noise; the degenerate templates
///            it would otherwise reward (k concatenated periods of a true
///            template) are removed structurally at generation by
///            period/rotation canonicalization.
///   noise:   8 bits per unmatched character (including the '\n')
///   records: record-type id + Elias-gamma array repetition counts + typed
///            field values (enum / int / real / string, cheapest valid).

namespace datamaran {

/// Abstract regularity score: lower is better.
class RegularityScorer {
 public:
  virtual ~RegularityScorer() = default;

  /// Scores the structural component (a set of templates, priority order)
  /// against the live lines of `sample`. Lines no template matches are
  /// charged as noise.
  virtual double ScoreSet(
      const DatasetView& sample,
      const std::vector<const StructureTemplate*>& templates) const = 0;

  /// Convenience: score a single-template structural component.
  double Score(const DatasetView& sample, const StructureTemplate& st) const {
    std::vector<const StructureTemplate*> ts = {&st};
    return ScoreSet(sample, ts);
  }

  /// Bounded form of Score: returns the exact score, or std::nullopt when
  /// the scorer proved score > abort_above without finishing the
  /// evaluation (the MDL scan's running partial sum is a monotone lower
  /// bound, so the proof is exact — see MdlScorer::EvaluateSet). A
  /// returned value is always the exact score, even when it exceeds
  /// abort_above; only nullopt carries the "provably worse" verdict. The
  /// default implementation never aborts.
  virtual std::optional<double> ScoreBounded(const DatasetView& sample,
                                             const StructureTemplate& st,
                                             double abort_above) const {
    (void)abort_above;
    return Score(sample, st);
  }
};

/// Detailed evaluation output, used by the pipeline's accept/reject logic
/// and surfaced in reports.
struct MdlBreakdown {
  double total_bits = 0;
  double model_bits = 0;
  double flag_bits = 0;
  double noise_bits = 0;
  double record_bits = 0;
  /// Reference cost of describing the whole sample as noise.
  double noise_only_bits = 0;
  size_t records = 0;
  size_t noise_lines = 0;
  size_t record_lines = 0;
  /// Characters covered by matched records.
  size_t covered_chars = 0;
  /// True when the evaluation aborted early because its running lower
  /// bound exceeded the caller's abort_above; total_bits then holds that
  /// lower bound (a proof that the true total is larger), not the exact
  /// total, and the other tallies cover only the scanned prefix.
  bool pruned = false;
};

/// Minimum-description-length scorer (Section 9.2). The scan matches
/// through RecordMatcher (compiled bytecode by default, the reference tree
/// walker via MatchEngine::kTree — identical results either way) and, when
/// scoring a multi-template set, dispatches each line through a
/// TemplateSetIndex so only templates whose FIRST set contains the line's
/// first byte are attempted.
class MdlScorer : public RegularityScorer {
 public:
  MdlScorer() = default;
  explicit MdlScorer(MatchEngine engine,
                     CharsetEngine charset_engine = CharsetEngine::kSimd)
      : engine_(engine), charset_engine_(charset_engine) {}

  MatchEngine engine() const { return engine_; }

  double ScoreSet(const DatasetView& sample,
                  const std::vector<const StructureTemplate*>& templates)
      const override;

  /// Exact bound-based early abort: every term of the MDL total is
  /// nonnegative and the scan accumulates them monotonically, so the
  /// running partial (model + flags-so-far + noise-so-far +
  /// record-bits-so-far) is a true lower bound on the final total. The
  /// scan aborts — returning nullopt — as soon as that bound strictly
  /// exceeds abort_above.
  std::optional<double> ScoreBounded(const DatasetView& sample,
                                     const StructureTemplate& st,
                                     double abort_above) const override;

  /// Full breakdown; ScoreSet returns .total_bits of this. A finite
  /// `abort_above` arms the early abort (see ScoreBounded); on abort the
  /// breakdown comes back with .pruned set.
  MdlBreakdown EvaluateSet(
      const DatasetView& sample,
      const std::vector<const StructureTemplate*>& templates,
      double abort_above = std::numeric_limits<double>::infinity()) const;

  MdlBreakdown Evaluate(const DatasetView& sample,
                        const StructureTemplate& st) const {
    std::vector<const StructureTemplate*> ts = {&st};
    return EvaluateSet(sample, ts);
  }

 private:
  MatchEngine engine_ = MatchEngine::kCompiled;
  CharsetEngine charset_engine_ = CharsetEngine::kSimd;
};

}  // namespace datamaran

#endif  // DATAMARAN_SCORING_MDL_H_
