#ifndef DATAMARAN_CORE_DATAMARAN_H_
#define DATAMARAN_CORE_DATAMARAN_H_

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "core/dataset.h"
#include "core/options.h"
#include "extraction/extractor.h"
#include "scoring/mdl.h"
#include "template/catalog.h"
#include "template/template.h"
#include "util/status.h"
#include "util/thread_pool.h"

/// Public entry point: the end-to-end Datamaran pipeline (Figure 9).
///
///   Generation  — enumerate RT-CharSets and candidate record boundaries,
///                 hash minimal structure templates, keep those with >=
///                 alpha% coverage (Section 4.1).
///   Pruning     — rank by assimilation score G = Cov x NonFieldCov and
///                 keep the top M (Section 4.2).
///   Evaluation  — score the survivors with the regularity score (MDL by
///                 default), refine the best one by array unfolding and
///                 structure shifting (Section 4.3), and accept it if it
///                 beats the pure-noise encoding.
///   Interleaved datasets are handled by re-running the three steps on the
///   unexplained residual (Section 9.1) until nothing else clears alpha%.
///   Finally the whole file is extracted with the accepted template set.
///
/// Memory model: the input file is one immutable backing buffer (owned or
/// mmap'd — see Dataset::FromFile), the discovery sample is a DatasetView
/// of its lines, and each residual round is produced by MaskMatchedLines —
/// an index-only mask-and-compact over the previous round's live lines.
/// No stage ever rewrites text, so the per-round cost is O(live lines) and
/// a mapped multi-GB file only faults in the pages the sample and the
/// final extraction actually touch.

namespace datamaran {

/// Wall-clock seconds per pipeline step (Table 3's empirical counterpart).
struct StepTimings {
  /// Catalog fingerprinting (template/catalog.h MatchCatalog); 0 when no
  /// catalog is loaded. On a catalog hit this replaces the generation /
  /// pruning / evaluation / refinement steps, which then report 0.
  double catalog_match_s = 0;
  double generation_s = 0;
  double pruning_s = 0;
  double evaluation_s = 0;
  /// Refinement of the top-K scored candidates (unfold loop + structure
  /// shifting). Separate from evaluation_s so the candidate-scoring fast
  /// path (bound-based pruning) is measurable in isolation.
  double refinement_s = 0;
  double extraction_s = 0;
  double total_s = 0;
};

/// Per-accepted-template diagnostics.
struct TemplateReport {
  StructureTemplate st;
  double mdl_bits = 0;
  double noise_only_bits = 0;
  size_t sample_records = 0;
  double sample_coverage = 0;  // fraction of residual chars covered
};

/// The catalog entry for a discovered format: the accepted templates in
/// discovery order, each with its report's MDL metadata.
CatalogEntry CatalogEntryFromReports(const std::vector<TemplateReport>& reports);

/// Aggregate statistics of a pipeline run.
struct PipelineStats {
  size_t charsets_tried = 0;
  size_t candidates_generated = 0;  // K: survivors of generation, all rounds
  size_t candidates_evaluated = 0;
  /// Retained candidates skipped by the evaluation step's bound-based
  /// pruning (their MDL lower bound proved them outside the refinement
  /// top-K; see core/datamaran.cc). Always 0 with enable_mdl_pruning off.
  size_t candidates_pruned = 0;
  size_t sample_bytes = 0;
  int rounds = 0;
  /// Always 0: the pipeline has no score cache. Kept only because
  /// bench_e2e/e2e/replay.cc still reads them; they go with the next
  /// change to that benchmark.
  size_t score_cache_hits = 0;
  size_t score_cache_misses = 0;
  /// Text bytes materialized by residual transitions. Index-only masking
  /// copies nothing except the rare candidate window that straddles a view
  /// gap, so this stays O(gaps x record) instead of O(rounds x sample).
  size_t residual_copy_bytes = 0;
  /// Input backing diagnostics (ExtractFile / ExtractDataset only).
  size_t input_bytes = 0;
  bool input_mapped = false;
  size_t input_resident_bytes = 0;
  /// Catalog fast path (options.catalog_in): whether the input was
  /// fingerprinted against a loaded catalog, and whether that produced a
  /// hit (discovery skipped; templates served from catalog_entry).
  bool catalog_checked = false;
  bool catalog_hit = false;
  int catalog_entry = -1;
  /// Fraction of sampled lines the accepted entry's records covered.
  double catalog_match_rate = 0;
};

struct PipelineResult {
  /// Accepted structure templates in discovery (priority) order.
  std::vector<StructureTemplate> templates;
  /// Full-file extraction with those templates.
  ExtractionResult extraction;
  StepTimings timings;
  PipelineStats stats;
  std::vector<TemplateReport> reports;
};

class Datamaran {
 public:
  /// When options.catalog_in is set the catalog is loaded here; a load
  /// failure is sticky (catalog_status()) and surfaced by ExtractFile,
  /// while the dataset entry points fall back to cold discovery.
  explicit Datamaran(DatamaranOptions options);

  const DatamaranOptions& options() const { return options_; }

  /// Load status of options().catalog_in (OK when unset). The in-memory
  /// catalog after any number of Extract* calls: loaded entries plus every
  /// format this instance discovered cold while options().catalog_out is
  /// set.
  const Status& catalog_status() const { return catalog_status_; }
  const TemplateCatalog& catalog() const { return catalog_; }

  /// Runs the full pipeline over the file at `path`, choosing the backing
  /// (mmap vs owned read) per options().mmap_mode.
  Result<PipelineResult> ExtractFile(const std::string& path) const;

  /// Runs the full pipeline over an already-opened dataset.
  PipelineResult ExtractDataset(const Dataset& data) const;

  /// Runs the full pipeline over an in-memory dataset.
  PipelineResult ExtractText(std::string text) const;

  /// Structure discovery only (no whole-file extraction); `data` is sampled
  /// internally. Used by parameter-sweep benchmarks.
  std::vector<StructureTemplate> DiscoverTemplates(const Dataset& data,
                                                   StepTimings* timings,
                                                   PipelineStats* stats,
                                                   std::vector<TemplateReport>*
                                                       reports) const;

 private:
  DatamaranOptions options_;
  MdlScorer scorer_;
  /// Shared worker pool for all parallel stages (options_.num_threads,
  /// 0 = hardware concurrency). Created once per Datamaran instance; a
  /// size-1 pool runs everything inline, reproducing the sequential
  /// reference behavior bit for bit.
  std::unique_ptr<ThreadPool> pool_;
  /// Catalog fast-path state. ExtractDataset is const (the pipeline is a
  /// pure function of options + input); folding a cold-discovered format
  /// back into the catalog is a cache fill, so the catalog is mutable and
  /// mutex-guarded for callers extracting from several threads.
  mutable std::mutex catalog_mu_;
  mutable TemplateCatalog catalog_;
  Status catalog_status_;
  bool catalog_loaded_ = false;
};

/// The index-only residual transition (replaces the old residual-string
/// rebuild): every live line covered by a greedy first-match scan of `st`
/// is masked out, and the survivors are compacted into the returned view.
/// The expensive per-line match attempts run on `pool` in parallel (pure
/// per-index work) through the selected match engine, the O(live) mask walk
/// is sequential, and the result is identical for every thread count and
/// either engine. No text is copied — only candidate windows straddling a
/// view gap are assembled transiently (`assembled_bytes` totals them).
struct ResidualMask {
  DatasetView view;  ///< surviving lines
  size_t matched_records = 0;
  size_t assembled_bytes = 0;
};
ResidualMask MaskMatchedLines(const DatasetView& view,
                              const StructureTemplate& st,
                              ThreadPool* pool = nullptr,
                              MatchEngine engine = MatchEngine::kCompiled,
                              CharsetEngine charset_engine =
                                  CharsetEngine::kSimd);

}  // namespace datamaran

#endif  // DATAMARAN_CORE_DATAMARAN_H_
