#include "pruning/pruner.h"

#include <algorithm>
#include <iterator>

namespace datamaran {

std::vector<CandidateTemplate> PruneCandidates(CandidateList candidates,
                                               int m) {
  const size_t keep = m < 0 ? candidates.size()
                            : std::min(candidates.size(),
                                       static_cast<size_t>(m));
  const auto kept = candidates.begin() + static_cast<ptrdiff_t>(keep);
  std::partial_sort(candidates.begin(), kept, candidates.end(),
                    [](const CandidateTemplate& a, const CandidateTemplate& b) {
                      double ga = a.assimilation();
                      double gb = b.assimilation();
                      if (ga != gb) return ga > gb;
                      if (a.canonical.size() != b.canonical.size()) {
                        return a.canonical.size() < b.canonical.size();
                      }
                      return a.canonical < b.canonical;
                    });
  return std::vector<CandidateTemplate>(
      std::make_move_iterator(candidates.begin()),
      std::make_move_iterator(kept));
}

}  // namespace datamaran
