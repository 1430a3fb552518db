// Ablation study for the implementation's design choices (DESIGN.md §4):
//
//   A1  assimilation score: G = Cov x NonFieldCov  vs  coverage alone
//       (the paper's §4.2 motivation for the non-field term)
//   A2  refinement on/off (array unfolding + shifting + auto-unfold)
//   A3  retained-candidate budget M (10 vs 200)
//   A4  greedy vs exhaustive charset search
//
// Each variant runs over a slice of the GitHub corpus; the metric is the
// §5.1 success rate (NS excluded).

#include <algorithm>
#include <cstdio>
#include <vector>

#include "bench_common.h"
#include "core/datamaran.h"
#include "datagen/github_corpus.h"
#include "evalharness/criterion.h"
#include "generation/generator.h"
#include "pruning/pruner.h"
#include "refinement/refiner.h"
#include "scoring/mdl.h"
#include "util/sampler.h"

namespace {

using namespace datamaran;

/// Success rate of the standard pipeline under `opts`.
double RunPipelineVariant(const std::vector<GeneratedDataset>& corpus,
                          const DatamaranOptions& opts) {
  int ok = 0, total = 0;
  for (const auto& ds : corpus) {
    if (ds.label == DatasetLabel::kNoStructure) continue;
    Datamaran dm(opts);
    PipelineResult result = dm.ExtractText(std::string(ds.text));
    SuccessReport report =
        CheckExtraction(ds, UnitsFromPipeline(result, ds.text));
    ++total;
    if (report.success) ++ok;
  }
  return total == 0 ? 0 : 100.0 * ok / total;
}

/// A1: how often does the top-1 candidate under each ranking match the
/// best-MDL candidate? (the pruning step's job is to not lose it)
void AblateAssimilation(const std::vector<GeneratedDataset>& corpus) {
  int g_hits = 0, cov_hits = 0, total = 0;
  for (const auto& ds : corpus) {
    if (ds.label == DatasetLabel::kNoStructure) continue;
    Dataset data{std::string(ds.text)};
    DatasetView sample = SampleView(data, SamplerOptions());
    DatamaranOptions opts;
    CandidateGenerator gen(sample, &opts);
    auto candidates = gen.Run().candidates;
    if (candidates.empty()) continue;
    // Reference: best MDL among all candidates.
    MdlScorer scorer;
    std::string best;
    double best_score = 0;
    for (const auto& c : candidates) {
      auto st = StructureTemplate::FromCanonical(c.canonical);
      if (!st.ok() || !st->Validate().ok()) continue;
      double s = scorer.Score(sample, st.value());
      if (best.empty() || s < best_score) {
        best = c.canonical;
        best_score = s;
      }
    }
    // Rank by G and by coverage alone; does the top-25 contain the best?
    auto by_g = PruneCandidates(candidates, 25);
    std::vector<CandidateTemplate> by_cov(candidates.begin(),
                                          candidates.end());
    std::sort(by_cov.begin(), by_cov.end(),
              [](const CandidateTemplate& a, const CandidateTemplate& b) {
                return a.coverage > b.coverage;
              });
    if (by_cov.size() > 25) by_cov.resize(25);
    auto contains = [&](const std::vector<CandidateTemplate>& v) {
      for (const auto& c : v) {
        if (c.canonical == best) return true;
      }
      return false;
    };
    ++total;
    if (contains(by_g)) ++g_hits;
    if (contains(by_cov)) ++cov_hits;
  }
  std::printf(
      "A1  top-25 retains the best-MDL template: G=Cov*NonFieldCov %d/%d, "
      "coverage-only %d/%d\n",
      g_hits, total, cov_hits, total);
}

}  // namespace

int main() {
  bench::Header("Ablations", "design-choice ablations on a corpus slice");

  const int n = bench::QuickMode() ? 16 : 40;
  std::vector<GeneratedDataset> corpus;
  for (int i = 0; i < n; ++i) {
    corpus.push_back(
        BuildGithubDataset(i * (kGithubCorpusSize / n), 32 * 1024));
  }

  AblateAssimilation(corpus);

  DatamaranOptions base;
  std::printf("A2  refinement on : %5.1f%% success\n",
              RunPipelineVariant(corpus, base));
  {
    DatamaranOptions off = base;
    off.refine_top_k = 1;
    off.max_unfold_tries = 0;
    std::printf("A2  refinement off: %5.1f%% success (top-1 only, no "
                "unfolding)\n",
                RunPipelineVariant(corpus, off));
  }
  {
    DatamaranOptions m = base;
    m.num_retained = 10;
    std::printf("A3  M=10          : %5.1f%% success\n",
                RunPipelineVariant(corpus, m));
    m.num_retained = 200;
    std::printf("A3  M=200         : %5.1f%% success\n",
                RunPipelineVariant(corpus, m));
  }
  {
    DatamaranOptions g = base;
    g.search = CharsetSearch::kGreedy;
    std::printf("A4  greedy        : %5.1f%% success\n",
                RunPipelineVariant(corpus, g));
    std::printf("A4  exhaustive    : %5.1f%% success\n",
                RunPipelineVariant(corpus, base));
  }
  return 0;
}
