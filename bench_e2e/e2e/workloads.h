#ifndef DATAMARAN_BENCH_E2E_WORKLOADS_H_
#define DATAMARAN_BENCH_E2E_WORKLOADS_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "datagen/spec.h"
#include "util/status.h"

/// The four end-to-end workloads and their inputs. Every input is a pure
/// function of (workload, seed, scale), built through the public
/// src/datagen generators (and util/gzip for compressed lake members), so
/// the same seed reproduces byte-identical files and ground truth.

namespace datamaran::e2e {

enum class WorkloadKind {
  kCorpusDiscover,
  kBatchLarge,
  kLakeCrawl,
  kFollowDrift,
};

struct WorkloadInfo {
  WorkloadKind kind;
  const char* name;
};

/// All workloads, in their default round-robin order.
const std::vector<WorkloadInfo>& AllWorkloads();

/// Input sizes. DefaultScale() is what the benchmark measures;
/// SelftestScale() shrinks every workload for the --selftest run.
struct Scale {
  /// corpus_discover: variants k = 0..corpus_variants-1 of each of the 25
  /// Table 5 generators, each at DefaultManualBytes(i), seed 4*S+k.
  int corpus_variants = 4;
  /// batch_large: bytes per file.
  size_t batch_bytes = 16u << 20;
  /// lake_crawl: logical files per catalogued and per novel format, the
  /// unstructured file count and lines per unstructured file (40–100 KB),
  /// and the structured logical-file size range.
  int lake_files_per_catalogued = 26;
  int lake_files_per_novel = 12;
  int lake_unstructured = 4;
  size_t lake_unstructured_lines = 2000;
  size_t lake_min_bytes = 24u << 10;
  size_t lake_max_bytes = 200u << 10;
  /// follow_drift: bytes per phase (four phases).
  size_t follow_phase_bytes = 8u << 20;
};
Scale DefaultScale();
Scale SelftestScale();

/// One file as written to disk, relative to Inputs::dir.
struct InputFile {
  std::string rel_path;
  size_t bytes = 0;
  uint64_t digest = 0;
};

struct Inputs {
  WorkloadKind kind = WorkloadKind::kCorpusDiscover;
  std::string dir;  ///< where the files were written ("" = not written)
  std::vector<InputFile> files;
  /// Ground truth per checked unit, `name` set to the unit's identity:
  /// the file's path under dir (corpus, batch), the crawl's logical file
  /// name under the lake root (lake), or the phase (follow). Lake truth
  /// text is the stitched, inflated logical file.
  std::vector<GeneratedDataset> truth;
  /// Uncompressed bytes one round of the workload processes.
  size_t logical_bytes = 0;

  /// lake_crawl: the lake root and the pristine catalog, both under dir.
  std::string lake_root;
  std::string pristine_catalog;

  /// follow_drift: the stream (also written as dir/stream.log) and where
  /// each phase starts, in bytes and lines.
  std::string stream;
  std::string stream_path;
  std::vector<size_t> phase_offsets;
  std::vector<size_t> phase_lines;
};

/// Generates the workload's inputs for `seed` and, when `dir` is
/// non-empty, writes them there (the lake's pristine catalog is built by
/// in-process discovery over one exemplar per catalogued format).
Result<Inputs> GenerateInputs(WorkloadKind kind, uint64_t seed,
                              const Scale& scale, const std::string& dir);

}  // namespace datamaran::e2e

#endif  // DATAMARAN_BENCH_E2E_WORKLOADS_H_
