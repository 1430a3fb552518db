#ifndef DATAMARAN_GENERATION_CANDIDATES_H_
#define DATAMARAN_GENERATION_CANDIDATES_H_

#include <cstddef>
#include <deque>
#include <string>

/// A structure-template candidate produced by the generation step, with the
/// coverage statistics accumulated in its hash bin (Section 4.1 step 5).

namespace datamaran {

struct CandidateTemplate {
  /// Canonical serialization of the minimal structure template.
  std::string canonical;

  /// Estimated coverage: total characters of the greedily non-overlapping
  /// candidate records hashed into this bin. It is only used for
  /// thresholding and ranking.
  double coverage = 0;

  /// Coverage minus the characters inside field values — the
  /// Non-Field-Coverage term of the assimilation score (Section 4.2).
  double non_field_coverage = 0;

  /// Number of candidate records hashed into the bin.
  size_t count = 0;

  /// Earliest line index at which the template was instantiated (used by
  /// structure shifting to prefer the earliest-first-occurrence variant).
  size_t first_line = 0;

  /// Number of lines a record spans.
  int span = 1;

  /// Number of field leaves in the minimal template.
  int field_count = 0;

  /// Assimilation score G(T,S) = Cov x Non_Field_Cov (Section 4.2).
  double assimilation() const { return coverage * non_field_coverage; }
};
// Field order keeps the two ints in one word: 72 bytes with libstdc++, 7 to
// a 512-byte deque block.
static_assert(sizeof(CandidateTemplate) ==
                  sizeof(std::string) + 2 * sizeof(double) +
                      2 * sizeof(size_t) + 2 * sizeof(int),
              "CandidateTemplate has no padding");

/// The generation search's candidates, in the order it merged them. A
/// deque never relocates what it holds, so the list grows by one block at
/// a time instead of copying every candidate into a buffer twice its size.
using CandidateList = std::deque<CandidateTemplate>;

}  // namespace datamaran

#endif  // DATAMARAN_GENERATION_CANDIDATES_H_
