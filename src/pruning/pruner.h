#ifndef DATAMARAN_PRUNING_PRUNER_H_
#define DATAMARAN_PRUNING_PRUNER_H_

#include <vector>

#include "generation/candidates.h"

/// The pruning step (Section 4.2): order candidates by the assimilation
/// score G(T,S) = Cov(T,S) x Non_Field_Cov(T,S) and retain only the best M,
/// so that the expensive regularity-score evaluation runs on a small set.
/// Coverage alone cannot reject templates that misclassify structure as
/// field values (Figure 11's second redundancy source); the non-field
/// coverage term handles exactly that.

namespace datamaran {

/// Returns the top `m` candidates by assimilation score (descending), or
/// all of them when `m` is negative. Ties break toward smaller templates
/// (shorter canonical), then lexicographically, a total order over
/// distinct canonicals, so input order is irrelevant. Only the top `m` are
/// sorted, in place, and only they are moved out: the list, with every
/// candidate it drops, is freed when the call returns.
std::vector<CandidateTemplate> PruneCandidates(CandidateList candidates,
                                               int m);

}  // namespace datamaran

#endif  // DATAMARAN_PRUNING_PRUNER_H_
