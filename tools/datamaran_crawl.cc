// Data-lake crawler: walk a directory tree, cluster files by structure
// template catalog entry, discover formats on miss, and extract every
// structured file to streamed relational tables.
//
//   datamaran_crawl <dir> [flags]
//
// `datamaran_crawl --help` lists the flags: the crawl-only ones declared
// in main, plus those shared with datamaran_cli (tools/flag_parse.h).
//
// Every file opens through the resilient input front-end (core/input.h
// InputReader), which reads it through a 256 KiB window and never holds
// it whole: gzip'd files inflate a window at a time, CRLF line endings
// normalize per --crlf, and rotation siblings (app.log, app.log.1,
// app.log.2.gz) are stitched into ONE logical input in chronological
// order — one manifest entry, one fingerprint, one extraction — unless
// --no-stitch-rotated. So a worker's memory does not grow with any file
// it reads.
// Failure containment is per file: an unreadable, corrupt, missing or
// non-regular member, or a file cut short while it is read, never aborts
// the crawl; its Status lands in the manifest's "errors" section
// (and the per-file summary's "error" field), the crawl continues, and the
// process exits 1 so automation still notices.
//
// The paper's data-lake setting has thousands of files sharing a few dozen
// formats, so the crawl amortizes discovery: full discovery (generation +
// MDL evaluation + refinement) runs once per *format*, and every other
// file is served by the catalog fast path at compiled-match speed. Three
// phases, each deterministic (files are processed in sorted relative-path
// order; every per-file artifact is byte-identical for any --threads), all
// on the one pool of the crawl's Datamaran, so --threads=N runs N threads:
//
//   1. Fingerprint (parallel over files): read each file's discovery
//      sample and match it against the catalog (template/catalog.h
//      MatchCatalog — FIRST-byte prefilter, then MDL acceptance).
//   2. Discover-on-miss (sequential, sorted order): each missed file is
//      re-fingerprinted against the catalog *as grown so far* — so the
//      second and later files of a new format cluster without discovery —
//      and only a genuine miss pays cold discovery on its sample; its
//      accepted templates fold into the catalog as a new entry.
//   3. Extract (parallel over files): each structured file is scanned a
//      window at a time and streams its tables through the O(wave)
//      columnar sinks into <out>/<relative-path>.tables/. Parallelism is
//      per *file* here (the wave-bounded extractor runs sequentially within
//      each file): the pool cannot nest, and with many files the outer
//      level is the right grain — peak memory stays O(threads x window).
//
// The crawl ends with a lake manifest (JSON): format -> file clusters with
// per-file summaries (the same FileSummary object --summary-json emits),
// plus drifted-file flags — files whose sample matched a catalog entry but
// whose whole-file match rate fell below the threshold. With
// --catalog-out, the grown catalog is saved for the next crawl; the save
// merges with whatever is on disk under an advisory lock, so concurrent
// crawls sharing one catalog never lose entries (--catalog-no-merge
// overwrites instead).
//
// --incremental turns repeat crawls of a mostly-unchanged lake into no-ops:
// the previous manifest at --manifest is read back, and every logical file
// whose on-disk identity (total member size, newest member mtime) is
// unchanged has its summary restored verbatim from that manifest —
// fingerprinting, discovery, and extraction are all skipped, and existing
// --out tables are left as the previous run wrote them. A changed, new, or
// previously-failed file re-runs the full three phases. Pass the previous
// run's --catalog-out as --catalog-in so restored catalog-entry indices
// keep naming the same formats.

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/datamaran.h"
#include "core/input.h"
#include "core/summary.h"
#include "extraction/sinks.h"
#include "flag_parse.h"
#include "template/catalog.h"
#include "util/file_io.h"
#include "util/json.h"
#include "util/strings.h"
#include "util/thread_pool.h"
#include "util/timer.h"

namespace {

using namespace datamaran;

/// Per-file crawl state, indexed like `files` (sorted relative paths).
/// One CrawlFile may be a rotation group: `members` lists the physical
/// relative paths stitched into this logical file, in chronological order
/// (a plain file is a group of one, itself).
struct CrawlFile {
  std::string rel_path;  ///< logical name (rotation base for groups)
  std::vector<std::string> members;  ///< physical files, oldest first
  int entry = -1;         ///< catalog entry used for extraction; -1 = none
  bool fingerprint_hit = false;  ///< phase-1/2 catalog hit (vs. cold/none)
  double fingerprint_rate = 0;
  /// Every member stat'd cleanly, so summary.source_size/source_mtime_ns
  /// hold this group's change-detection identity (incremental re-crawl).
  bool stat_ok = false;
  FileSummary summary;  ///< summary.skipped = restored, phases 1-3 skipped
  Status error;  ///< open/extract failure (crawl continues, exit code 1)
};

}  // namespace

int main(int argc, char** argv) {
  using namespace datamaran_tools;
  SharedSettings shared;
  const DatamaranOptions& options = shared.options;
  const std::string& out_dir = shared.out_dir;
  std::string manifest_path;
  bool stitch_rotated = true;
  bool incremental = false;
  FlagTable flags("datamaran_crawl", {"<dir> [flags]"});
  flags.Add(String("--manifest", "PATH",
                   "write the lake manifest JSON (formats -> files -> "
                   "tables -> row/noise counts) to PATH instead of stdout",
                   &manifest_path));
  flags.Add(Switch("--incremental",
                   "restore the summaries of files unchanged since the "
                   "previous manifest at --manifest (by size and mtime) "
                   "instead of re-extracting them",
                   &incremental)
                .Needs("--manifest"));
  flags.Add(Switch("--no-stitch-rotated",
                   "process rotation siblings (app.log.1, app.log.2.gz) as "
                   "separate files instead of one stitched chronological "
                   "dataset",
                   &stitch_rotated, false));
  AddSharedFlags(&flags, &shared);
  std::vector<std::string> positional;
  flags.Parse(argc, argv, &positional);
  if (positional.size() != 1) flags.Fail("give exactly one <dir> to crawl");
  const std::string& root = positional[0];

  // The crawler owns the catalog lifecycle; the per-file pipeline objects
  // must not load/save it again.
  TemplateCatalog catalog;
  if (!options.catalog_in.empty()) {
    auto loaded = TemplateCatalog::Load(options.catalog_in);
    if (!loaded.ok()) {
      std::fprintf(stderr, "error: %s\n", loaded.status().ToString().c_str());
      return 1;
    }
    catalog = std::move(loaded.value());
  }

  // Collect regular files, sorted by relative path: the processing order —
  // and therefore entry numbering, manifest order, and all output — is a
  // pure function of the tree's contents.
  namespace fs = std::filesystem;
  std::error_code ec;
  std::vector<CrawlFile> files;
  for (fs::recursive_directory_iterator it(root, ec), end; it != end;
       it.increment(ec)) {
    if (ec) break;
    if (!it->is_regular_file(ec)) continue;
    CrawlFile f;
    f.rel_path = fs::relative(it->path(), root, ec).generic_string();
    files.push_back(std::move(f));
  }
  if (ec) {
    std::fprintf(stderr, "error: cannot walk %s: %s\n", root.c_str(),
                 ec.message().c_str());
    return 1;
  }
  std::sort(files.begin(), files.end(),
            [](const CrawlFile& a, const CrawlFile& b) {
              return a.rel_path < b.rel_path;
            });

  // Rotation stitching: logrotate siblings (app.log, app.log.1,
  // app.log.2.gz) collapse into ONE logical crawl file whose members are
  // read oldest-first (highest rotation index first, live file last). A
  // group only forms when two or more paths share a rotation base — a lone
  // app.log.7 keeps its own name rather than being silently renamed.
  if (stitch_rotated) {
    std::map<std::string, std::vector<std::string>> by_base;
    for (const CrawlFile& f : files) {
      by_base[RotationKeyFor(f.rel_path).base].push_back(f.rel_path);
    }
    std::vector<CrawlFile> grouped;
    grouped.reserve(by_base.size());
    for (auto& [base, members] : by_base) {
      CrawlFile f;
      if (members.size() >= 2) {
        SortByRotation(&members);
        f.rel_path = base;
      } else {
        f.rel_path = members[0];
      }
      f.members = std::move(members);
      grouped.push_back(std::move(f));
    }
    std::sort(grouped.begin(), grouped.end(),
              [](const CrawlFile& a, const CrawlFile& b) {
                return a.rel_path < b.rel_path;
              });
    files = std::move(grouped);
  } else {
    for (CrawlFile& f : files) f.members = {f.rel_path};
  }

  // Change-detection identity per logical file: total on-disk member size
  // plus the newest member's mtime. Recorded in every manifest (cold runs
  // included) so the *next* --incremental crawl has a baseline to compare.
  for (CrawlFile& f : files) {
    size_t total_size = 0;
    int64_t newest_mtime = 0;
    bool ok = true;
    for (const std::string& m : f.members) {
      const std::string path = root + "/" + m;
      auto size = FileSizeBytes(path);
      auto mtime = FileMtimeNs(path);
      if (!size.ok() || !mtime.ok()) {
        ok = false;
        break;
      }
      total_size += size.value();
      newest_mtime = std::max(newest_mtime, mtime.value());
    }
    if (ok) {
      f.stat_ok = true;
      f.summary.source_size = total_size;
      f.summary.source_mtime_ns = newest_mtime;
    }
  }

  // --incremental: restore unchanged files' summaries from the previous
  // manifest and skip all three phases for them. A missing or unreadable
  // previous manifest degrades to a full crawl (the first incremental run
  // is always cold); a changed, new, or previously-failed file re-runs.
  size_t restored_count = 0;
  if (incremental) {
    auto prev_text = ReadFileToString(manifest_path);
    if (prev_text.ok()) {
      auto prev = ParseJson(prev_text.value());
      if (!prev.ok()) {
        std::fprintf(stderr,
                     "warning: --incremental: previous manifest %s does not "
                     "parse (%s); running a full crawl\n",
                     manifest_path.c_str(),
                     prev.status().ToString().c_str());
      } else {
        const JsonValue* prev_files = prev.value().Find("files");
        std::map<std::string_view, const JsonValue*> by_path;
        if (prev_files != nullptr && prev_files->is_array()) {
          for (const JsonValue& pf : prev_files->items) {
            const JsonValue* path = pf.Find("path");
            const std::string* p =
                path != nullptr ? path->AsString() : nullptr;
            if (p != nullptr) by_path.emplace(*p, &pf);
          }
        }
        for (CrawlFile& f : files) {
          if (!f.stat_ok) continue;
          const auto it = by_path.find(f.rel_path);
          if (it == by_path.end()) continue;
          auto restored = FileSummaryFromJson(*it->second);
          if (!restored.ok()) continue;
          FileSummary& prev_summary = restored.value();
          // Skip only when the previous run succeeded on this file AND the
          // bytes behind it are provably the same AND its catalog entry
          // still exists in the loaded catalog (so the manifest's format
          // section keeps naming the same formats).
          if (!prev_summary.error.empty()) continue;
          if (prev_summary.source_size != f.summary.source_size ||
              prev_summary.source_mtime_ns != f.summary.source_mtime_ns) {
            continue;
          }
          if (prev_summary.catalog_entry >= static_cast<int>(catalog.size())) {
            continue;
          }
          f.summary = std::move(prev_summary);
          f.summary.skipped = true;
          f.summary.timings = StepTimings{};  // no work done this run
          f.entry = f.summary.catalog_entry;
          f.fingerprint_hit = f.summary.catalog_hit;
          f.fingerprint_rate = f.summary.catalog_match_rate;
          restored_count++;
        }
      }
    }
    if (options.verbose) {
      std::fprintf(stderr, "incremental: %zu of %zu file(s) unchanged\n",
                   restored_count, files.size());
    }
  }

  const CatalogMatchOptions match_opts = MakeCatalogMatchOptions(options);
  const InputOptions input_opts = MakeInputOptions(options);
  const SamplerOptions sampler_opts = MakeSamplerOptions(options);
  auto open_file = [&](const CrawlFile& f) {
    std::vector<std::string> paths;
    paths.reserve(f.members.size());
    for (const std::string& m : f.members) paths.push_back(root + "/" + m);
    return InputReader::Open(paths, input_opts);
  };

  Timer total_timer;
  // One Datamaran for the crawl, its catalog paths cleared: its pool runs
  // phase 2's discovery and fans phases 1 and 3 out over files, so
  // --threads=N runs N threads.
  DatamaranOptions discover_opts = options;
  discover_opts.catalog_in.clear();
  discover_opts.catalog_out.clear();
  const Datamaran dm(discover_opts);
  ThreadPool& pool = *dm.pool();

  // --- Phase 1: fingerprint every file against the incoming catalog.
  // Pure per-file reads of a shared immutable catalog: safe to fan out.
  Timer fingerprint_timer;
  pool.ParallelFor(files.size(), [&](size_t k) {
    CrawlFile& f = files[k];
    if (f.summary.skipped) return;  // restored from the previous manifest
    Timer t;
    auto reader = open_file(f);
    if (!reader.ok()) {
      f.error = reader.status();
      return;
    }
    std::optional<Dataset> sample_copy;
    auto sample = reader.value().ReadSample(sampler_opts, &sample_copy);
    if (!sample.ok()) {
      f.error = sample.status();
      return;
    }
    const CatalogMatch m = MatchCatalog(catalog, sample.value(), match_opts);
    f.summary.timings.catalog_match_s = t.Seconds();
    if (m.hit()) {
      f.entry = m.entry;
      f.fingerprint_hit = true;
      f.fingerprint_rate = m.match_rate;
    }
  });
  const double fingerprint_s = fingerprint_timer.Seconds();

  // --- Phase 2: discover formats for the misses, in sorted order. Each
  // miss first re-fingerprints against the catalog as grown by earlier
  // misses (same-format files cluster behind one discovery); only a
  // genuine miss pays cold discovery. Discovery itself parallelizes
  // internally on the pool, so this loop being sequential costs little and
  // keeps entry numbering deterministic.
  Timer discovery_timer;
  size_t discoveries = 0;
  for (CrawlFile& f : files) {
    if (f.summary.skipped || f.entry >= 0 || !f.error.ok()) continue;
    auto reader = open_file(f);
    if (!reader.ok()) {
      f.error = reader.status();
      continue;
    }
    std::optional<Dataset> sample_copy;
    auto sample = reader.value().ReadSample(sampler_opts, &sample_copy);
    if (!sample.ok()) {
      f.error = sample.status();
      continue;
    }
    const DatasetView& sample_view = sample.value();
    if (!catalog.empty()) {
      Timer t;
      const CatalogMatch m = MatchCatalog(catalog, sample_view, match_opts);
      f.summary.timings.catalog_match_s += t.Seconds();
      if (m.hit()) {
        f.entry = m.entry;
        f.fingerprint_hit = true;
        f.fingerprint_rate = m.match_rate;
        continue;
      }
    }
    StepTimings timings;
    PipelineStats stats;
    std::vector<TemplateReport> reports;
    dm.DiscoverTemplates(sample_view, &timings, &stats, &reports);
    f.summary.timings.generation_s = timings.generation_s;
    f.summary.timings.pruning_s = timings.pruning_s;
    f.summary.timings.evaluation_s = timings.evaluation_s;
    f.summary.timings.refinement_s = timings.refinement_s;
    discoveries++;
    if (reports.empty()) continue;  // unstructured: noise-only file
    f.entry =
        static_cast<int>(catalog.AddEntry(CatalogEntryFromReports(reports)));
    f.fingerprint_rate = 1.0;  // its own discovery sample, by definition
  }
  const double discovery_s = discovery_timer.Seconds();

  // --- Phase 3: extract every structured file. File-level parallelism
  // over the wave-bounded sequential extractor (the pool cannot nest);
  // the catalog is frozen now, so entry template vectors are stable.
  Timer extract_timer;
  const std::vector<StructureTemplate> no_templates;
  // Noise reaches the writers with its text, so they need no input view.
  const Dataset no_data{std::string()};
  const DatasetView no_view(no_data);
  pool.ParallelFor(files.size(), [&](size_t k) {
    CrawlFile& f = files[k];
    FileSummary& s = f.summary;
    if (s.skipped) return;  // summary restored verbatim; tables kept as-is
    s.path = f.rel_path;
    s.match_engine = MatchEngineName(options.match_engine);
    s.charset_engine = CharsetEngineName(options.charset_engine);
    s.threads = 1;  // per-file scan is sequential; the crawl fans out files
    s.catalog_checked = true;
    s.catalog_hit = f.fingerprint_hit;
    s.catalog_entry = f.entry;
    s.catalog_match_rate = f.fingerprint_rate;
    if (!f.error.ok()) return;
    auto reader = open_file(f);
    if (!reader.ok()) {
      f.error = reader.status();
      return;
    }
    // An unstructured file is scanned with no templates: every line is
    // noise, and the scan only counts them.
    const CatalogEntry* entry =
        f.entry >= 0 ? &catalog.entry(static_cast<size_t>(f.entry)) : nullptr;
    const std::vector<StructureTemplate>& templates =
        entry != nullptr ? entry->templates : no_templates;
    for (const StructureTemplate& st : templates) {
      s.templates.push_back(st.Display());
    }
    Timer t;
    Extractor extractor(&templates, /*pool=*/nullptr, options.match_engine,
                        options.charset_engine, options.max_line_bytes);
    std::unique_ptr<ColumnarWriteSink> sink;
    if (entry != nullptr && !out_dir.empty()) {
      sink = std::make_unique<ColumnarWriteSink>(
          &entry->templates, no_view, out_dir + "/" + f.rel_path + ".tables",
          shared.format);
      if (!sink->status().ok()) {
        f.error = sink->status();
        return;
      }
    }
    auto scanned = reader.value().Scan(extractor, sink.get());
    if (!scanned.ok()) {
      f.error = scanned.status();
      return;
    }
    if (sink != nullptr) {
      Status finished = sink->Finish();
      if (!finished.ok()) {
        f.error = finished;
        return;
      }
    }
    // Unstructured files too: phases 1-2 timed their catalog match and
    // discovery, so every scanned file reports its scan time and a total.
    s.timings.extraction_s = t.Seconds();
    s.timings.total_s = s.timings.catalog_match_s + s.timings.generation_s +
                        s.timings.pruning_s + s.timings.evaluation_s +
                        s.timings.refinement_s + s.timings.extraction_s;
    ExtractionResult& stats = scanned.value();
    s.input_bytes = stats.total_chars;
    s.total_lines = stats.total_lines;
    if (entry == nullptr) {
      s.noise_lines = s.total_lines;
      s.match_rate = s.total_lines == 0 ? 1.0 : 0.0;
      return;
    }
    s.records_per_template = std::move(stats.records_per_template);
    s.records = stats.matched_records;
    s.noise_lines = stats.noise_line_count;
    s.match_rate = stats.line_match_rate();
    s.coverage = stats.coverage();
    // Drift flag: the sample matched the catalog entry but the whole file
    // does not clear the same threshold — the extractor's line accounting
    // is what surfaces this instead of silently inflating noise.
    s.drifted = f.fingerprint_hit && s.match_rate < options.catalog_min_match;
  });
  const double extract_s = extract_timer.Seconds();

  if (!options.catalog_out.empty()) {
    Status saved = catalog.Save(options.catalog_out,
                                CatalogSaveOptions{options.catalog_merge});
    if (!saved.ok()) {
      std::fprintf(stderr, "error: %s\n", saved.ToString().c_str());
      return 1;
    }
  }

  // --- Lake manifest: formats -> files -> tables -> row/noise counts.
  // Per-format aggregates join per-file summaries on catalog_entry.
  struct FormatAgg {
    size_t file_count = 0;
    size_t records = 0;
    size_t noise_lines = 0;
  };
  std::vector<FormatAgg> agg(catalog.size());
  size_t unstructured = 0, drifted = 0, errors = 0, total_records = 0;
  size_t extracted = 0;
  for (CrawlFile& f : files) {
    if (!f.error.ok()) {
      f.summary.error = f.error.ToString();
      errors++;
      continue;
    }
    total_records += f.summary.records;
    if (f.summary.drifted) drifted++;
    if (f.entry < 0) {
      unstructured++;
      continue;
    }
    if (!f.summary.skipped) extracted++;
    FormatAgg& a = agg[static_cast<size_t>(f.entry)];
    a.file_count++;
    a.records += f.summary.records;
    a.noise_lines += f.summary.noise_lines;
  }

  std::string manifest;
  manifest += "{\n";
  manifest += "  \"root\": \"";
  AppendJsonEscaped(root, &manifest);
  manifest += "\",\n";
  manifest += StrFormat("  \"file_count\": %zu,\n", files.size());
  manifest += StrFormat("  \"format_count\": %zu,\n", catalog.size());
  manifest += StrFormat("  \"unstructured_count\": %zu,\n", unstructured);
  manifest += StrFormat("  \"drifted_count\": %zu,\n", drifted);
  manifest += StrFormat("  \"error_count\": %zu,\n", errors);
  // Incremental accounting: structured files actually extracted this run
  // vs. files whose summaries were restored from the previous manifest. A
  // warm --incremental re-crawl of an unchanged lake has extracted_count 0.
  manifest += StrFormat("  \"extracted_count\": %zu,\n", extracted);
  manifest += StrFormat("  \"skipped_count\": %zu,\n", restored_count);
  // Failure containment ledger: every file the crawl had to skip, with the
  // Status that explains why. Always present (empty array on a clean run)
  // so manifest consumers can key on it unconditionally.
  manifest += "  \"errors\": [";
  {
    bool first = true;
    for (const CrawlFile& f : files) {
      if (f.error.ok()) continue;
      manifest += first ? "\n" : ",\n";
      first = false;
      manifest += "    {\"path\": \"";
      AppendJsonEscaped(f.rel_path, &manifest);
      manifest += "\", \"error\": \"";
      AppendJsonEscaped(f.error.ToString(), &manifest);
      manifest += "\"}";
    }
    manifest += first ? "],\n" : "\n  ],\n";
  }
  manifest += StrFormat("  \"discoveries\": %zu,\n", discoveries);
  manifest +=
      StrFormat("  \"timings\": {\"fingerprint_s\": %.6f, "
                "\"discovery_s\": %.6f, \"extraction_s\": %.6f, "
                "\"total_s\": %.6f},\n",
                fingerprint_s, discovery_s, extract_s, total_timer.Seconds());
  manifest += "  \"formats\": [\n";
  for (size_t e = 0; e < catalog.size(); ++e) {
    const CatalogEntry& entry = catalog.entry(e);
    manifest += StrFormat("    {\"name\": \"%s\", \"templates\": [",
                          entry.name.c_str());
    for (size_t t = 0; t < entry.templates.size(); ++t) {
      if (t > 0) manifest += ", ";
      manifest += '"';
      AppendJsonEscaped(entry.templates[t].Display(), &manifest);
      manifest += '"';
    }
    manifest += StrFormat("], \"file_count\": %zu, \"records\": %zu, "
                          "\"noise_lines\": %zu}%s\n",
                          agg[e].file_count, agg[e].records,
                          agg[e].noise_lines,
                          e + 1 < catalog.size() ? "," : "");
  }
  manifest += "  ],\n";
  manifest += "  \"files\": [\n";
  for (size_t k = 0; k < files.size(); ++k) {
    AppendFileSummaryJson(files[k].summary, 4, &manifest);
    manifest += k + 1 < files.size() ? ",\n" : "\n";
  }
  manifest += "  ]\n";
  manifest += "}\n";
  if (manifest_path.empty()) {
    std::fputs(manifest.c_str(), stdout);
  } else {
    Status written = WriteFileAtomic(manifest_path, manifest);
    if (!written.ok()) {
      std::fprintf(stderr, "error: %s\n", written.ToString().c_str());
      return 1;
    }
  }

  std::fprintf(stderr,
               "crawled %zu file(s): %zu format(s), %zu discover(ies), "
               "%zu unstructured, %zu drifted, %zu skipped, %zu error(s); "
               "%zu record(s) in %.2fs "
               "(fingerprint %.2fs, discovery %.2fs, extraction %.2fs)\n",
               files.size(), catalog.size(), discoveries, unstructured,
               drifted, restored_count, errors, total_records,
               total_timer.Seconds(), fingerprint_s, discovery_s, extract_s);
  for (const CrawlFile& f : files) {
    if (!f.error.ok()) {
      std::fprintf(stderr, "error: %s: %s\n", f.rel_path.c_str(),
                   f.error.ToString().c_str());
    }
  }
  return errors == 0 ? 0 : 1;
}
