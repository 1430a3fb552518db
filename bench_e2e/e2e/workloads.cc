#include "e2e/workloads.h"

#include <algorithm>
#include <filesystem>
#include <iterator>

#include "core/datamaran.h"
#include "datagen/github_corpus.h"
#include "datagen/manual_datasets.h"
#include "e2e/files.h"
#include "template/catalog.h"
#include "util/file_io.h"
#include "util/gzip.h"
#include "util/rng.h"
#include "util/strings.h"

namespace datamaran::e2e {

namespace {

// batch_large: 4-line records (fastq_genetic), single-line CSV
// (comma_sep_records), and single-line logs (printer_logs). All three
// discover cheaply from the 256 KB sample, so the whole-file pass
// dominates, and their verdicts hold on every seed (github_log_5 flips
// between seeds at this size, and netstat's discovery alone would take a
// fifth of the time). Three files keep the per-file median on one file.
constexpr int kBatchFormats[] = {18, 1, 9};

// lake_crawl: formats in the pristine catalog (netstat_output brings
// two-template dispatch), formats the crawl must discover, and the
// GitHub-corpus no-structure datasets (indices 89..99).
constexpr int kLakeCatalogued[] = {0, 1, 2, 3, 8, 9, 12, 14};
constexpr int kLakeNovel[] = {10, 18};
constexpr int kFirstNoStructure = kGithubSingleNI + kGithubSingleI +
                                  kGithubMultiNI + kGithubMultiI;

// follow_drift phases: web-server log, netstat (two record types),
// fastq (4-line records), then the web-server log again — a known format
// that must not evolve.
constexpr int kFollowPhases[] = {2, 8, 18, 2};

uint64_t Mix(uint64_t a, uint64_t b) {
  uint64_t z = a * 0x9E3779B97F4A7C15ull + b + 0x632BE59BD9B4E019ull;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

class Writer {
 public:
  explicit Writer(Inputs* in) : in_(in) {}

  Status Add(const std::string& rel, const std::string& bytes) {
    in_->files.push_back({rel, bytes.size(), DigestBytes(bytes)});
    if (in_->dir.empty()) return Status::Ok();
    const std::string path = in_->dir + "/" + rel;
    Status made = MakeDirs(std::filesystem::path(path).parent_path().string());
    if (!made.ok()) return made;
    return WriteStringToFile(path, bytes);
  }

 private:
  Inputs* in_;
};

/// Splits `text` into `parts` pieces at line boundaries near equal sizes.
std::vector<std::string> SplitAtLines(const std::string& text, int parts) {
  std::vector<std::string> out;
  size_t begin = 0;
  for (int p = 1; p <= parts; ++p) {
    size_t end = text.size();
    if (p < parts) {
      end = text.find('\n', text.size() * static_cast<size_t>(p) / parts);
      end = end == std::string::npos ? text.size() : end + 1;
    }
    out.push_back(text.substr(begin, end - begin));
    begin = end;
  }
  return out;
}

/// The first `lines` lines of `text` (all of it when it has fewer).
std::string FirstLines(const std::string& text, size_t lines) {
  size_t end = 0;
  for (size_t n = 0; n < lines && end < text.size(); ++n) {
    const size_t nl = text.find('\n', end);
    end = nl == std::string::npos ? text.size() : nl + 1;
  }
  return text.substr(0, end);
}

/// Gzip when this build can inflate it again; plain bytes otherwise.
std::string MaybeGzip(const std::string& text, bool* gzipped) {
  *gzipped = false;
  if (!GzipSupported()) return text;
  auto gz = GzipCompress(text);
  if (!gz.ok()) return text;
  *gzipped = true;
  return std::move(gz.value());
}

Status GenerateCorpus(uint64_t seed, const Scale& scale, Inputs* in) {
  Writer w(in);
  for (int k = 0; k < scale.corpus_variants; ++k) {
    for (int i = 0; i < kManualDatasetCount; ++i) {
      GeneratedDataset ds =
          BuildManualDataset(i, DefaultManualBytes(i), 4 * seed + k);
      ds.name = StrFormat("%s_k%d.log", ds.name.c_str(), k);
      Status st = w.Add(ds.name, ds.text);
      if (!st.ok()) return st;
      in->truth.push_back(std::move(ds));
    }
  }
  return Status::Ok();
}

Status GenerateBatch(uint64_t seed, const Scale& scale, Inputs* in) {
  Writer w(in);
  for (int f : kBatchFormats) {
    GeneratedDataset ds = BuildManualDataset(f, scale.batch_bytes, seed);
    ds.name += ".log";
    Status st = w.Add(ds.name, ds.text);
    if (!st.ok()) return st;
    in->truth.push_back(std::move(ds));
  }
  return Status::Ok();
}

/// Builds the pristine catalog: one cold discovery per catalogued format
/// over an exemplar that is not part of the lake.
Status BuildPristineCatalog(uint64_t seed, Inputs* in) {
  DatamaranOptions options;
  options.num_threads = 2;
  Datamaran dm(options);
  TemplateCatalog catalog;
  for (int f : kLakeCatalogued) {
    const GeneratedDataset ex =
        BuildManualDataset(f, 48u << 10, Mix(seed, 0xE000 + f));
    Dataset data{std::string(ex.text)};
    StepTimings timings;
    PipelineStats stats;
    std::vector<TemplateReport> reports;
    CatalogEntry entry;
    entry.templates = dm.DiscoverTemplates(data, &timings, &stats, &reports);
    if (entry.templates.empty()) continue;
    for (const TemplateReport& r : reports) {
      entry.meta.push_back({r.mdl_bits, r.noise_only_bits, r.sample_records,
                            r.sample_coverage});
    }
    catalog.AddEntry(std::move(entry));
  }
  in->pristine_catalog = in->dir + "/pristine.catalog";
  Status saved = catalog.Save(in->pristine_catalog, CatalogSaveOptions{false});
  if (!saved.ok()) return saved;
  auto bytes = ReadFileToString(in->pristine_catalog);
  if (!bytes.ok()) return bytes.status();
  in->files.push_back({"pristine.catalog", bytes.value().size(),
                       DigestBytes(bytes.value())});
  return Status::Ok();
}

Status GenerateLake(uint64_t seed, const Scale& scale, Inputs* in) {
  Writer w(in);
  in->lake_root = in->dir + "/lake";
  auto add_format = [&](int f, int count) -> Status {
    const std::string fmt = GetManualDatasetInfo(f).name;
    for (int j = 0; j < count; ++j) {
      Rng rng(Mix(seed, static_cast<uint64_t>(f) * 1000 + j));
      const int64_t spread =
          static_cast<int64_t>(scale.lake_max_bytes - scale.lake_min_bytes);
      const size_t bytes =
          scale.lake_min_bytes + static_cast<size_t>(rng.Uniform(0, spread));
      const std::string base =
          StrFormat("lake/host%d/%s-%02d.log", j % 4, fmt.c_str(), j);
      // Every fifth logical file is a rotation set (oldest generation
      // gzipped); a quarter of the others are gzipped whole.
      const bool rotated = j % 5 == 4;
      GeneratedDataset ds = BuildManualDataset(
          f, rotated ? 3 * bytes : bytes, Mix(seed, 0xA000 + f * 1000 + j));
      Status st;
      if (rotated) {
        const std::vector<std::string> parts = SplitAtLines(ds.text, 3);
        bool gz = false;
        const std::string oldest = MaybeGzip(parts[0], &gz);
        st = w.Add(base + (gz ? ".2.gz" : ".2"), oldest);
        if (st.ok()) st = w.Add(base + ".1", parts[1]);
        if (st.ok()) st = w.Add(base, parts[2]);
        ds.name = base.substr(5);
      } else if (rng.Bernoulli(0.25)) {
        bool gz = false;
        const std::string bytes_gz = MaybeGzip(ds.text, &gz);
        st = w.Add(base + (gz ? ".gz" : ""), bytes_gz);
        ds.name = (base + (gz ? ".gz" : "")).substr(5);
      } else {
        st = w.Add(base, ds.text);
        ds.name = base.substr(5);
      }
      if (!st.ok()) return st;
      in->truth.push_back(std::move(ds));
    }
    return Status::Ok();
  };
  for (int f : kLakeCatalogued) {
    Status st = add_format(f, scale.lake_files_per_catalogued);
    if (!st.ok()) return st;
  }
  for (int f : kLakeNovel) {
    Status st = add_format(f, scale.lake_files_per_novel);
    if (!st.ok()) return st;
  }
  for (int j = 0; j < scale.lake_unstructured; ++j) {
    const int index = kFirstNoStructure +
                      static_cast<int>((seed * 4 + j) % kGithubNoStructure);
    // A fixed line count, whichever generator the seed picks (their line
    // lengths differ by 2x), so that the lake's share of noise lines — and
    // with it line_match_rate — does not move with the seed.
    GeneratedDataset ds = BuildGithubDataset(index, scale.lake_max_bytes);
    ds.text = FirstLines(ds.text, scale.lake_unstructured_lines);
    ds.name = StrFormat("misc/notes-%d.txt", j);
    Status st = w.Add("lake/" + ds.name, ds.text);
    if (!st.ok()) return st;
    in->truth.push_back(std::move(ds));
  }
  if (in->dir.empty()) return Status::Ok();
  return BuildPristineCatalog(seed, in);
}

Status GenerateFollow(uint64_t seed, const Scale& scale, Inputs* in) {
  size_t lines = 0;
  for (size_t p = 0; p < std::size(kFollowPhases); ++p) {
    GeneratedDataset ds = BuildManualDataset(
        kFollowPhases[p], scale.follow_phase_bytes, Mix(seed, 0xF00 + p));
    ds.name = StrFormat("phase%zu_%s", p + 1, ds.name.c_str());
    in->phase_offsets.push_back(in->stream.size());
    in->phase_lines.push_back(lines);
    lines += static_cast<size_t>(
        std::count(ds.text.begin(), ds.text.end(), '\n'));
    in->stream += ds.text;
    in->truth.push_back(std::move(ds));
  }
  in->stream_path = in->dir + "/stream.log";
  return Writer(in).Add("stream.log", in->stream);
}

}  // namespace

const std::vector<WorkloadInfo>& AllWorkloads() {
  // Why each workload exists is recorded in BENCHMARK.json and README.md.
  static const std::vector<WorkloadInfo> kAll = {
      {WorkloadKind::kCorpusDiscover, "corpus_discover"},
      {WorkloadKind::kBatchLarge, "batch_large"},
      {WorkloadKind::kLakeCrawl, "lake_crawl"},
      {WorkloadKind::kFollowDrift, "follow_drift"},
  };
  return kAll;
}

Scale DefaultScale() { return Scale{}; }

Scale SelftestScale() {
  Scale s;
  s.corpus_variants = 1;
  s.batch_bytes = 1u << 20;
  s.lake_files_per_catalogued = 3;
  s.lake_files_per_novel = 2;
  s.lake_unstructured = 1;
  s.lake_unstructured_lines = 800;
  s.lake_max_bytes = 64u << 10;
  s.follow_phase_bytes = 1u << 20;
  return s;
}

Result<Inputs> GenerateInputs(WorkloadKind kind, uint64_t seed,
                              const Scale& scale, const std::string& dir) {
  Inputs in;
  in.kind = kind;
  in.dir = dir;
  if (!dir.empty()) {
    RemoveTree(dir);
    Status made = MakeDirs(dir);
    if (!made.ok()) return made;
  }
  Status st;
  switch (kind) {
    case WorkloadKind::kCorpusDiscover:
      st = GenerateCorpus(seed, scale, &in);
      break;
    case WorkloadKind::kBatchLarge:
      st = GenerateBatch(seed, scale, &in);
      break;
    case WorkloadKind::kLakeCrawl:
      st = GenerateLake(seed, scale, &in);
      break;
    case WorkloadKind::kFollowDrift:
      st = GenerateFollow(seed, scale, &in);
      break;
  }
  if (!st.ok()) return st;
  for (const GeneratedDataset& ds : in.truth) {
    in.logical_bytes += ds.text.size();
  }
  return in;
}

}  // namespace datamaran::e2e
