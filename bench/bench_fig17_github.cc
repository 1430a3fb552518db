// Figure 17a/17b + headline numbers: GitHub corpus characteristics and the
// extraction accuracy of Datamaran (exhaustive & greedy) vs RecordBreaker.
// Paper: DM-exhaustive 95.5% overall (excl. NS) with 100% / 92.3% / 85.7% /
// 94.4% on S(NI)/S(I)/M(NI)/M(I); RecordBreaker 29.2% overall with 56.8% /
// 7.1% / 0% / 0%.

#include <cstdio>
#include <string>
#include <vector>

#include "bench_common.h"
#include "datagen/github_corpus.h"
#include "evalharness/accuracy.h"

int main() {
  using namespace datamaran;
  bench::Header("Figure 17a/17b",
                "GitHub corpus characteristics and per-label accuracy");

  const size_t bytes = bench::QuickMode() ? 24 * 1024 : 48 * 1024;
  const int n = bench::QuickMode() ? 40 : kGithubCorpusSize;

  DatamaranOptions base;
  EvalTools tools;
  tools.run_exhaustive = true;
  tools.run_greedy = true;
  tools.run_recordbreaker = true;

  std::vector<DatasetOutcome> outcomes;
  std::vector<GeneratedDataset> failures_to_report;
  for (int i = 0; i < n; ++i) {
    GeneratedDataset ds = BuildGithubDataset(i, bytes);
    DatasetOutcome out = EvaluateDataset(ds, base, tools);
    outcomes.push_back(out);
    if (ds.label == DatasetLabel::kNoStructure) continue;
    // One line per miss and search mode; tools/check_accuracy.sh gates
    // these lines against its list of known misses.
    auto report = [&](const char* mode, bool ok, const std::string& reason) {
      if (ok) return;
      std::printf("  [%s miss] %-10s %-6s %s%s\n", mode, out.name.c_str(),
                  DatasetLabelName(out.label), reason.c_str(),
                  out.expect_hard ? "  (designed-hard)" : "");
    };
    report("exhaustive", out.dm_exhaustive, out.dm_exhaustive_reason);
    report("greedy", out.dm_greedy, out.dm_greedy_reason);
  }

  auto agg = Aggregate(outcomes);

  std::printf("\n--- Figure 17a: corpus characteristics ---\n");
  for (int l = 0; l < 5; ++l) {
    std::printf("  %-6s %3d datasets\n",
                DatasetLabelName(static_cast<DatasetLabel>(l)), agg[l].total);
  }

  std::printf("\n--- Figure 17b: extraction accuracy (%%) ---\n");
  std::printf("  %-6s %12s %9s %13s   (paper: exh / RB)\n", "label",
              "exhaustive", "greedy", "RecordBreaker");
  const char* paper[4] = {"100 / 56.8", "92.3 / 7.1", "85.7 / 0",
                          "94.4 / 0"};
  int tot = 0, ex = 0, gr = 0, rb = 0;
  for (int l = 0; l < 4; ++l) {  // NS excluded, as in the paper
    const LabelAccuracy& a = agg[l];
    if (a.total == 0) continue;
    std::printf("  %-6s %11.1f%% %8.1f%% %12.1f%%   (%s)\n",
                DatasetLabelName(static_cast<DatasetLabel>(l)),
                100.0 * a.dm_exhaustive / a.total, 100.0 * a.dm_greedy / a.total,
                100.0 * a.rb / a.total, paper[l]);
    tot += a.total;
    ex += a.dm_exhaustive;
    gr += a.dm_greedy;
    rb += a.rb;
  }
  std::printf("  %-6s %11.1f%% %8.1f%% %12.1f%%   (95.5 / 29.2)\n", "all",
              100.0 * ex / tot, 100.0 * gr / tot, 100.0 * rb / tot);
  std::printf("\n(NS datasets: %d, excluded from accuracy, as in the paper)\n",
              agg[4].total);
  return 0;
}
