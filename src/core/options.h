#ifndef DATAMARAN_CORE_OPTIONS_H_
#define DATAMARAN_CORE_OPTIONS_H_

#include <cstddef>
#include <cstdint>
#include <string>

#include "core/dataset.h"
#include "core/input.h"
#include "template/catalog.h"
#include "template/match_engine.h"
#include "util/char_class.h"
#include "util/charset_engine.h"

/// Configuration for the Datamaran pipeline. Field names follow the paper's
/// notation (Table 2): alpha = minimum coverage threshold, L = maximum
/// record span in lines, M = number of structure templates retained after
/// the pruning step.

namespace datamaran {

/// RT-CharSet search strategy for the generation step (Section 9.1).
enum class CharsetSearch {
  /// Enumerate all subsets of the candidate special characters (2^c).
  kExhaustive,
  /// Grow the charset one character at a time, keeping the character whose
  /// addition yields the best assimilation score (O(c^2) subsets).
  kGreedy,
};

struct DatamaranOptions {
  /// alpha: a structure template must cover at least this fraction of the
  /// (sampled) dataset to survive the generation step. Paper default: 10%.
  double coverage_threshold = 0.10;

  /// L: maximum number of lines a record may span. Paper default: 10.
  int max_record_span = 10;

  /// M: number of candidates retained after pruning. The paper's initial
  /// default is 50 but Section 5.2.3 recommends 1000 in practice; 200 is a
  /// good cost/robustness point for this implementation (candidate
  /// duplicates are already collapsed by period/rotation canonicalization).
  int num_retained = 200;

  /// RT-CharSet enumeration strategy.
  CharsetSearch search = CharsetSearch::kExhaustive;

  /// Pool of characters that may appear in record templates
  /// (RT-CharSet-Candidate). '\n' is always added internally.
  CharSet special_chars = DefaultSpecialChars();

  /// Engineering cap: the exhaustive search enumerates subsets of at most
  /// this many (most frequent) special characters from the sample.
  int max_special_chars = 10;

  /// Sampling bounds for the generation and evaluation steps (Section 9.1);
  /// the final extraction pass always scans the whole file. The sample is a
  /// DatasetView into the backing file (line indices, no text copy).
  size_t max_sample_bytes = 256 * 1024;
  int sample_chunks = 8;

  /// Input backing for ExtractFile: memory-map files at/above
  /// mmap_threshold_bytes (kAuto), always map (kAlways, with read
  /// fallback), or always read (kNever). Pipeline output is byte-identical
  /// across backings; mapping keeps multi-GB extractions from requiring the
  /// whole file in memory. The tools always run kAuto; the forced
  /// backings are test oracles.
  MapMode mmap_mode = MapMode::kAuto;
  size_t mmap_threshold_bytes = Dataset::kDefaultMmapThreshold;

  /// Input front-end hardening (core/input.h). `crlf` controls "\r\n"
  /// normalization (kAuto probes the head of the input and strips when CRLF
  /// is detected); `max_inflate_bytes` caps gzip decompression (bomb
  /// guard; 0 = unlimited); `max_line_bytes` is the oversized-line guard —
  /// a line longer than this is excluded from the discovery sample and
  /// degraded to noise by the extraction scan instead of being indexed,
  /// tokenized, or matched (0 = unlimited). All three are pure functions
  /// of the input bytes, so output stays byte-identical across threads,
  /// engines, and backings.
  CrlfPolicy crlf = CrlfPolicy::kAuto;
  size_t max_inflate_bytes = 4ull * 1024 * 1024 * 1024;
  size_t max_line_bytes = 4 * 1024 * 1024;

  /// Matching engine for every match hot loop (generation-round masking,
  /// MDL scoring, refinement, extraction): kCompiled runs templates as flat
  /// bytecode programs with first-byte template-set dispatch
  /// (template/compiled.h, template/dispatch.h); kTree is the reference
  /// recursive walker. Pipeline output is byte-identical between engines —
  /// the switch trades nothing but speed, so the tools always run kCompiled
  /// and kTree is a test oracle.
  MatchEngine match_engine = MatchEngine::kCompiled;

  /// Byte-classification engine for the charset hot loops: generation's
  /// per-line tokenization (RunCharset's special-position index) and the
  /// compiled match engine's wide-stop-set field scans. kSimd resolves by
  /// runtime CPU detection (AVX2 > SSE2) and degrades down the ladder
  /// (kSwar, then kScalar) on hardware without vector support; kScalar is
  /// the per-byte reference. Pipeline output is byte-identical across all
  /// three — the switch trades nothing but speed (util/byte_class.h), so
  /// the tools always run kSimd and the other tiers are test oracles.
  CharsetEngine charset_engine = CharsetEngine::kSimd;

  /// Bound-based candidate pruning in the evaluation step: candidates whose
  /// running MDL lower bound already exceeds the current top-K threshold
  /// abort scoring early. Exact — the refined template and all pipeline
  /// output are identical with pruning on or off (the pruned candidates are
  /// provably outside the refinement top-K). The tools always prune;
  /// disabling it gives tests and benches the brute-force baseline.
  bool enable_mdl_pruning = true;

  /// Maximum number of record types extracted from an interleaved dataset
  /// (the Generation-Pruning-Evaluation loop re-runs on the residual).
  int max_record_types = 8;

  /// Stop iterating when the unexplained residual falls below this fraction
  /// of the sample.
  double min_residual_fraction = 0.02;

  /// A discovered template is accepted only if its description length beats
  /// encoding the residual as pure noise by this relative margin.
  double min_mdl_gain = 0.01;

  /// Cap on array-unfolding variants tried per array node during refinement.
  int max_unfold_tries = 8;

  /// The evaluation step refines the best `refine_top_k` candidates (by
  /// unrefined score) and picks the best refined one. Refining before the
  /// final comparison matters: unfolding exposes per-column typing, which
  /// is what separates a true record type's template from an overly
  /// generic one that merges several types (Section 9.4).
  int refine_top_k = 8;

  /// Template catalog fast path (template/catalog.h). When `catalog_in`
  /// names a catalog file, every pipeline run first fingerprints a sample
  /// of the input against it (FIRST-byte prefilter, then MDL acceptance
  /// per the discovery noise model); a hit skips discovery entirely and
  /// extracts with the stored templates — byte-identical output to the
  /// fresh-discovery run that produced the entry, at compiled-match speed.
  /// A miss falls back to cold discovery unchanged. When `catalog_out` is
  /// set, the catalog (including any format discovered cold by this run)
  /// is written there after the run, so discovery cost amortizes across a
  /// lake's files.
  std::string catalog_in;
  std::string catalog_out;

  /// Minimum fraction of sampled lines a catalog entry must cover to count
  /// as a hit (CatalogMatchOptions::min_match).
  double catalog_min_match = 0.8;

  /// Merge-on-save for `catalog_out` (CatalogSaveOptions::merge): re-load
  /// the on-disk catalog under the advisory lock and write the union, so
  /// concurrent runs sharing one catalog never lose entries. false (the
  /// --catalog-no-merge escape hatch) overwrites with this run's catalog.
  bool catalog_merge = true;

  /// Emit INFO-level progress logging.
  bool verbose = false;

  /// Worker threads for the parallel hot paths: generation's independent
  /// charset trials, candidate scoring/refinement in the evaluation step,
  /// and chunked whole-file extraction. 0 = use all hardware threads
  /// (std::thread::hardware_concurrency); 1 = fully sequential reference
  /// behavior. Results are byte-identical across all values — parallel
  /// workers fill per-index slots that are merged in a fixed order — so
  /// this knob trades nothing but wall-clock time.
  int num_threads = 0;
};

/// The input-layer slice of the pipeline options, for OpenInput/OpenInputs.
inline InputOptions MakeInputOptions(const DatamaranOptions& options) {
  InputOptions in;
  in.mmap_mode = options.mmap_mode;
  in.mmap_threshold_bytes = options.mmap_threshold_bytes;
  in.crlf = options.crlf;
  in.max_inflate_bytes = options.max_inflate_bytes;
  return in;
}

/// The fingerprinting slice of the pipeline options, for MatchCatalog: the
/// same sampling policy, noise-model margin and engines discovery uses.
inline CatalogMatchOptions MakeCatalogMatchOptions(
    const DatamaranOptions& options) {
  CatalogMatchOptions match;
  match.min_match = options.catalog_min_match;
  match.min_mdl_gain = options.min_mdl_gain;
  match.max_sample_bytes = options.max_sample_bytes;
  match.sample_chunks = options.sample_chunks;
  match.max_line_bytes = options.max_line_bytes;
  match.match_engine = options.match_engine;
  match.charset_engine = options.charset_engine;
  return match;
}

}  // namespace datamaran

#endif  // DATAMARAN_CORE_OPTIONS_H_
