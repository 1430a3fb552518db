#ifndef DATAMARAN_BENCH_E2E_REPLAY_H_
#define DATAMARAN_BENCH_E2E_REPLAY_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "e2e/trace.h"
#include "e2e/workloads.h"
#include "util/status.h"

/// The traced in-process replay. For each workload it makes the entry
/// point's own sequence of public calls, with the same thread count and
/// chunking, and records each call as a span:
///
///   batch datamaran_cli  OpenInputs -> Datamaran::ExtractDataset ->
///                        Extractor -> ExtractEvents into ColumnarWriteSink
///   datamaran_crawl      TemplateCatalog::Load, then per file OpenInputs
///                        and MatchCatalog (DiscoverTemplates and AddEntry
///                        on a miss), ExtractEvents, and finally Save
///   datamaran_cli --follow  FollowReader::Read -> StreamingSession::
///                        FeedBytes, then Finish
///
/// The replay's output directories are the reference every measured run's
/// output must equal. Accuracy — the Section 5.1 criterion against the
/// generator's ground truth — and the isolated sampler timing are computed
/// after the spans close, so they never count as traced time.

namespace datamaran::e2e {

/// One accuracy unit: a corpus or batch file, a logical lake file, or a
/// follow_drift phase.
struct Verdict {
  std::string name;
  bool success = false;
  std::string reason;
};

struct ReplayResult {
  Status status;  ///< a failure of the replay itself
  /// Reference output digests, one per op output: per file (corpus,
  /// batch), per logical lake file's tables directory, or the follower's
  /// output directory.
  std::vector<uint64_t> ref_digests;
  /// What each digest covers: the input file's path under Inputs::dir, the
  /// crawl's logical file name, or "out" for the follower.
  std::vector<std::string> ref_names;
  uint64_t ref_catalog_digest = 0;  ///< lake_crawl: the saved catalog
  std::vector<Verdict> verdicts;
  /// follow_drift: template-set additions after warm-up, per phase.
  std::vector<size_t> evolutions_per_phase;
  size_t evolutions = 0;
  /// Per-layer metrics (PerLayerMetricDefs names; trace.overhead is left
  /// to the caller, which knows the end-to-end wall time).
  std::map<std::string, double> per_layer;
  /// Self time per layer as a share of traced thread time.
  std::map<std::string, double> layer_share;
  std::unique_ptr<Tracer> tracer;
};

struct MetricDef {
  const char* name;
  const char* unit;
};

/// Every per-layer metric the replay reports, with its unit.
const std::vector<MetricDef>& PerLayerMetricDefs();

/// Replays `in` (already written to disk) with `threads` worker threads,
/// writing reference outputs under `out_root`.
ReplayResult Replay(const Inputs& in, int threads, const std::string& out_root);

/// Follow-only check: the follower evolved at least twice and never in the
/// returning (last) phase, and the measured run's evolution count matches.
bool FollowEvolutionsOk(const ReplayResult& replay, size_t measured_evolutions);

}  // namespace datamaran::e2e

#endif  // DATAMARAN_BENCH_E2E_REPLAY_H_
