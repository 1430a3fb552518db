#include "e2e/replay.h"

#include <algorithm>
#include <chrono>
#include <filesystem>
#include <optional>

#include "core/datamaran.h"
#include "core/input.h"
#include "core/stream.h"
#include "e2e/files.h"
#include "e2e/stats.h"
#include "evalharness/criterion.h"
#include "extraction/sinks.h"
#include "template/catalog.h"
#include "template/dispatch.h"
#include "util/sampler.h"
#include "util/strings.h"
#include "util/thread_pool.h"
#include "util/timer.h"

namespace datamaran::e2e {

namespace {

using Clock = std::chrono::steady_clock;

constexpr size_t kReadBytes = 64 * 1024;  // the follower's read size

/// Accuracy judges inputs up to this size whole and larger ones in pieces
/// of this size (see CheckInPieces).
constexpr size_t kPieceBytes = 1u << 20;

/// Sink decorator that accumulates the time spent inside the wrapped
/// sink's callbacks. Callbacks arrive on one (the stitching) thread.
class TimingSink : public EventSink {
 public:
  explicit TimingSink(EventSink* inner) : inner_(inner) {}

  void OnRecord(int template_id, size_t first_line, std::string_view text,
                size_t pos, size_t end, const MatchEvent* events,
                size_t num_events) override {
    const Clock::time_point t0 = Clock::now();
    inner_->OnRecord(template_id, first_line, text, pos, end, events,
                     num_events);
    busy_ += Clock::now() - t0;
  }
  void OnNoiseLine(size_t line_index) override {
    const Clock::time_point t0 = Clock::now();
    inner_->OnNoiseLine(line_index);
    busy_ += Clock::now() - t0;
  }
  void OnNoiseText(size_t line_index, std::string_view line) override {
    const Clock::time_point t0 = Clock::now();
    inner_->OnNoiseText(line_index, line);
    busy_ += Clock::now() - t0;
  }
  void OnTemplatesAdded(
      const std::vector<const StructureTemplate*>& added) override {
    const Clock::time_point t0 = Clock::now();
    inner_->OnTemplatesAdded(added);
    busy_ += Clock::now() - t0;
  }
  void OnWaveEnd() override {
    const Clock::time_point t0 = Clock::now();
    inner_->OnWaveEnd();
    busy_ += Clock::now() - t0;
  }

  double seconds() const {
    return std::chrono::duration<double>(busy_).count();
  }

 private:
  EventSink* inner_;
  Clock::duration busy_{0};
};

/// Sends every callback to two sinks, in order.
class TeeSink : public EventSink {
 public:
  TeeSink(EventSink* first, EventSink* second)
      : first_(first), second_(second) {}

  void OnRecord(int template_id, size_t first_line, std::string_view text,
                size_t pos, size_t end, const MatchEvent* events,
                size_t num_events) override {
    first_->OnRecord(template_id, first_line, text, pos, end, events,
                     num_events);
    second_->OnRecord(template_id, first_line, text, pos, end, events,
                      num_events);
  }
  void OnNoiseLine(size_t line_index) override {
    first_->OnNoiseLine(line_index);
    second_->OnNoiseLine(line_index);
  }
  void OnNoiseText(size_t line_index, std::string_view line) override {
    first_->OnNoiseText(line_index, line);
    second_->OnNoiseText(line_index, line);
  }
  void OnTemplatesAdded(
      const std::vector<const StructureTemplate*>& added) override {
    first_->OnTemplatesAdded(added);
    second_->OnTemplatesAdded(added);
  }
  void OnWaveEnd() override {
    first_->OnWaveEnd();
    second_->OnWaveEnd();
  }

 private:
  EventSink* first_;
  EventSink* second_;
};

/// Appends the criterion's units of one record: top-level fields, and each
/// array as one contiguous unit (as UnitsFromPipeline does), shifted from
/// the match text's coordinates by `shift`.
void AppendUnits(const TemplateNode& node, const ParsedValue& value,
                 int64_t shift,
                 std::vector<std::pair<size_t, size_t>>* units) {
  switch (node.kind) {
    case NodeKind::kField:
    case NodeKind::kArray:
      units->emplace_back(static_cast<size_t>(value.begin + shift),
                          static_cast<size_t>(value.end + shift));
      break;
    case NodeKind::kChar:
      break;
    case NodeKind::kStruct:
      for (size_t i = 0; i < node.children.size(); ++i) {
        AppendUnits(*node.children[i], value.children[i], shift, units);
      }
      break;
  }
}

/// Collects the follower's decisions in stream coordinates for the
/// accuracy check: every record with its criterion units, and the decided
/// line count at each template-set addition (warm-up, then evolutions).
class CaptureSink : public EventSink {
 public:
  explicit CaptureSink(std::string_view stream) {
    line_begin_.push_back(0);
    for (size_t i = 0; i < stream.size(); ++i) {
      if (stream[i] == '\n') line_begin_.push_back(i + 1);
    }
  }

  void OnRecord(int template_id, size_t first_line, std::string_view text,
                size_t pos, size_t end, const MatchEvent* events,
                size_t num_events) override {
    const StructureTemplate& st =
        *templates_[static_cast<size_t>(template_id)];
    const ParsedValue value = BuildParsedValue(st, pos, events, num_events);
    RecordUnits r;
    r.type = template_id;
    r.begin = line_begin_[first_line];
    r.end = r.begin + (end - pos);
    AppendUnits(st.root(), value,
                static_cast<int64_t>(r.begin) - static_cast<int64_t>(pos),
                &r.units);
    records.push_back(std::move(r));
    decided_lines_ += static_cast<size_t>(
        std::count(text.begin() + pos, text.begin() + end, '\n'));
  }
  void OnNoiseText(size_t, std::string_view) override { ++decided_lines_; }
  void OnTemplatesAdded(
      const std::vector<const StructureTemplate*>& added) override {
    templates_.insert(templates_.end(), added.begin(), added.end());
    additions_at_line.push_back(decided_lines_);
  }

  std::vector<RecordUnits> records;
  std::vector<size_t> additions_at_line;

 private:
  std::vector<size_t> line_begin_;
  std::vector<const StructureTemplate*> templates_;
  size_t decided_lines_ = 0;
};

/// Counters gathered at the replay's call boundaries.
struct Counters {
  double sampler_s = 0;
  size_t charsets_tried = 0, candidates = 0, scored = 0, pruned = 0;
  size_t cache_hits = 0, cache_misses = 0, rounds = 0, templates = 0;
  size_t fingerprints = 0, entries_scored = 0, entries_prefiltered = 0;
  size_t lake_files = 0, lake_catalog_hits = 0;
  double inflate_bytes = 0, inflate_s = 0;
  size_t records = 0, noise_lines = 0, bytes_written = 0;
  double extracted_bytes = 0;
  size_t discovery_runs = 0, evolutions = 0, evolution_attempts = 0;
  std::vector<double> feed_ms;

  void AddDiscovery(const PipelineStats& s, size_t accepted) {
    charsets_tried += s.charsets_tried;
    candidates += s.candidates_generated;
    scored += s.candidates_evaluated;
    pruned += s.candidates_pruned;
    cache_hits += s.score_cache_hits;
    cache_misses += s.score_cache_misses;
    rounds += static_cast<size_t>(s.rounds);
    templates += accepted;
  }
  void AddMatch(const CatalogMatch& m) {
    fingerprints++;
    entries_scored += m.entries_scored;
    entries_prefiltered += m.entries_prefiltered;
  }
  void AddExtraction(const ExtractionResult& r, size_t view_bytes,
                     size_t written) {
    records += r.matched_records;
    noise_lines += r.noise_line_count;
    extracted_bytes += static_cast<double>(view_bytes);
    bytes_written += written;
  }
};

/// The library's own step timings, as duration-only children of `parent`.
void AddStepDurations(Tracer* tr, int parent, const StepTimings& t,
                      bool with_collect) {
  tr->AddDuration(parent, "generation", "generation", t.generation_s);
  tr->AddDuration(parent, "pruning", "pruning", t.pruning_s);
  tr->AddDuration(parent, "scoring", "scoring", t.evaluation_s);
  tr->AddDuration(parent, "refinement", "refinement", t.refinement_s);
  if (with_collect) {
    tr->AddDuration(parent, "collecting Extract", "collect", t.extraction_s);
  }
}

/// The isolated sampler call with the pipeline's sampling options, timed
/// outside every span.
double TimeSampleView(const Dataset& data, const DatamaranOptions& o) {
  SamplerOptions s;
  s.max_sample_bytes = o.max_sample_bytes;
  s.num_chunks = o.sample_chunks;
  s.max_line_bytes = o.max_line_bytes;
  Timer t;
  const DatasetView view = SampleView(data, s);
  const double seconds = t.Seconds();
  (void)view;
  return seconds;
}

/// Applies the Section 5.1 criterion to `truth`, one verdict per piece of
/// at most kPieceBytes of its text that holds judged ground-truth records:
/// larger inputs are judged piecewise so that one missed record costs one
/// piece, not the whole input, and accuracy moves smoothly across seeds.
/// The truth sits at `shift` in `text`, the coordinates of `extracted`
/// (sorted by begin); ground-truth records before line `from_line` are not
/// judged.
void CheckInPieces(const GeneratedDataset& truth, size_t shift,
                   size_t from_line,
                   const std::vector<RecordUnits>& extracted,
                   std::string_view text, std::vector<Verdict>* out) {
  if (truth.label == DatasetLabel::kNoStructure) {
    const SuccessReport report = CheckExtraction(truth, extracted);
    out->push_back({truth.name, report.success, report.failure_reason});
    return;
  }
  const size_t size = truth.text.size();
  const size_t pieces = std::max<size_t>(1, (size + kPieceBytes - 1) /
                                                kPieceBytes);
  auto begins_before = [](const RecordUnits& r, size_t v) {
    return r.begin < v;
  };
  for (size_t k = 0; k < pieces; ++k) {
    const size_t lo = shift + k * kPieceBytes;
    const size_t hi = k + 1 == pieces ? shift + size : lo + kPieceBytes;
    const std::vector<RecordUnits> in_piece(
        std::lower_bound(extracted.begin(), extracted.end(), lo,
                         begins_before),
        std::lower_bound(extracted.begin(), extracted.end(), hi,
                         begins_before));
    Verdict v{pieces == 1 ? truth.name
                          : StrFormat("%s@%zu", truth.name.c_str(), k),
              false, ""};
    bool judged = false;
    for (const auto& alternative : truth.alternatives) {
      std::vector<GroundTruthRecord> gts;
      for (GroundTruthRecord gt : alternative) {
        gt.begin += shift;
        if (gt.first_line < from_line || gt.begin < lo || gt.begin >= hi) {
          continue;
        }
        gt.end += shift;
        for (TargetSpan& t : gt.targets) {
          t.begin += shift;
          t.end += shift;
        }
        gts.push_back(std::move(gt));
      }
      if (gts.empty()) continue;
      judged = true;
      const SuccessReport report = CheckAgainstTruth(gts, in_piece, text);
      v.success = report.success;
      v.reason = report.failure_reason;
      if (v.success) break;
    }
    if (judged) out->push_back(std::move(v));
  }
}

// ------------------------------------------------------ batch datamaran_cli

void ReplayCli(const Inputs& in, int threads, const std::string& out_root,
               Tracer* tr, Counters* c, ReplayResult* r) {
  DatamaranOptions options;
  options.num_threads = threads;
  for (size_t i = 0; i < in.truth.size(); ++i) {
    const GeneratedDataset& truth = in.truth[i];
    const std::string out_dir = out_root + "/" + std::to_string(i);
    const int req = static_cast<int>(i);
    std::optional<Dataset> data;
    PipelineResult result;
    {
      Scope root(tr, "datamaran_cli", "", -1, req);
      Datamaran dm(options);
      {
        Scope s(tr, "OpenInputs", "input", root.id(), req);
        auto opened = OpenInputs({in.dir + "/" + truth.name},
                                 MakeInputOptions(options));
        if (!opened.ok()) {
          r->status = opened.status();
          return;
        }
        data.emplace(std::move(opened.value()));
      }
      {
        Scope s(tr, "Datamaran::ExtractDataset", "discovery", root.id(), req);
        result = dm.ExtractDataset(*data);
        AddStepDurations(tr, s.id(), result.timings, /*with_collect=*/true);
      }
      if (!result.templates.empty()) {
        data->Advise(AccessHint::kSequential);
        ThreadPool pool(ThreadPool::ResolveThreadCount(threads));
        std::optional<Extractor> extractor;
        {
          Scope s(tr, "Extractor", "template", root.id(), req);
          extractor.emplace(&result.templates, &pool, options.match_engine,
                            options.charset_engine, options.max_line_bytes);
        }
        const DatasetView view(*data);
        std::optional<ColumnarWriteSink> sink;
        {
          Scope s(tr, "ColumnarWriteSink", "sinks", root.id(), req);
          sink.emplace(&result.templates, view, out_dir);
        }
        TimingSink timed(&*sink);
        ExtractionResult extracted;
        {
          Scope s(tr, "Extractor::ExtractEvents", "extraction", root.id(),
                  req);
          extracted = extractor->ExtractEvents(view, &timed);
          tr->AddDuration(s.id(), "EventSink callbacks", "sinks",
                          timed.seconds());
        }
        Status finished;
        {
          Scope s(tr, "ColumnarWriteSink::Finish", "sinks", root.id(), req);
          finished = sink->Finish();
        }
        if (!finished.ok()) {
          r->status = finished;
          return;
        }
        c->AddExtraction(extracted, view.size_bytes(),
                         sink->stats().bytes_written);
      }
    }
    c->AddDiscovery(result.stats, result.templates.size());
    r->ref_digests.push_back(DigestTree(out_dir));
    r->ref_names.push_back(truth.name);
    CheckInPieces(truth, 0, 0, UnitsFromPipeline(result, truth.text),
                  truth.text, &r->verdicts);
    c->sampler_s += TimeSampleView(*data, options);
  }
}

// ----------------------------------------------------------- datamaran_crawl

struct CrawlFile {
  std::string rel_path;
  std::vector<std::string> members;
  int entry = -1;
  bool hit = false;
  bool has_gz = false;
  Status error;
};

/// The crawler's file walk: regular files in sorted relative-path order,
/// rotation siblings grouped into one logical file read oldest first.
std::vector<CrawlFile> WalkLake(const std::string& root) {
  namespace fs = std::filesystem;
  std::vector<std::string> paths;
  std::error_code ec;
  for (fs::recursive_directory_iterator it(root, ec), end; it != end;
       it.increment(ec)) {
    if (ec) break;
    if (!it->is_regular_file(ec)) continue;
    paths.push_back(fs::relative(it->path(), root, ec).generic_string());
  }
  std::map<std::string, std::vector<std::string>> by_base;
  for (const std::string& p : paths) {
    by_base[RotationKeyFor(p).base].push_back(p);
  }
  std::vector<CrawlFile> files;
  for (auto& [base, members] : by_base) {
    CrawlFile f;
    if (members.size() >= 2) {
      SortByRotation(&members);
      f.rel_path = base;
    } else {
      f.rel_path = members[0];
    }
    for (const std::string& m : members) f.has_gz |= EndsWith(m, ".gz");
    f.members = std::move(members);
    files.push_back(std::move(f));
  }
  std::sort(files.begin(), files.end(),
            [](const CrawlFile& a, const CrawlFile& b) {
              return a.rel_path < b.rel_path;
            });
  return files;
}

void ReplayCrawl(const Inputs& in, int threads, const std::string& out_root,
                 Tracer* tr, Counters* c, ReplayResult* r) {
  const std::string tables = out_root + "/tables";
  const std::string catalog_out = out_root + "/catalog";
  DatamaranOptions options;
  options.num_threads = threads;
  CatalogMatchOptions match_opts;
  match_opts.min_match = options.catalog_min_match;
  match_opts.min_mdl_gain = options.min_mdl_gain;
  match_opts.max_sample_bytes = options.max_sample_bytes;
  match_opts.sample_chunks = options.sample_chunks;
  match_opts.match_engine = options.match_engine;
  match_opts.charset_engine = options.charset_engine;
  match_opts.max_line_bytes = options.max_line_bytes;
  const InputOptions input_opts = MakeInputOptions(options);
  auto open_untraced = [&](const CrawlFile& f) {
    std::vector<std::string> paths;
    for (const std::string& m : f.members) {
      paths.push_back(in.lake_root + "/" + m);
    }
    return OpenInputs(paths, input_opts);
  };
  auto open = [&](const CrawlFile& f, int parent, int req, int tid) {
    Scope s(tr, "OpenInputs", "input", parent, req, tid);
    return open_untraced(f);
  };

  TemplateCatalog catalog;
  std::vector<CrawlFile> files;
  std::vector<CatalogMatch> first_matches;
  std::vector<ExtractionResult> extracted;
  std::vector<size_t> view_bytes, written;
  {
    Scope root(tr, "datamaran_crawl", "", -1, 0);
    {
      Scope s(tr, "TemplateCatalog::Load", "catalog.load", root.id(), 0);
      auto loaded = TemplateCatalog::Load(in.pristine_catalog);
      if (!loaded.ok()) {
        r->status = loaded.status();
        return;
      }
      catalog = std::move(loaded.value());
    }
    files = WalkLake(in.lake_root);
    first_matches.resize(files.size());
    extracted.resize(files.size());
    view_bytes.assign(files.size(), 0);
    written.assign(files.size(), 0);
    ThreadPool pool(ThreadPool::ResolveThreadCount(threads));

    {  // Phase 1: fingerprint every file against the incoming catalog.
      Scope phase(tr, "fingerprint phase", "", root.id(), 0);
      pool.ParallelFor(files.size(), [&](size_t k, int worker) {
        const int req = static_cast<int>(k) + 1;
        Scope f(tr, "file", "", phase.id(), req, worker);
        auto data = open(files[k], f.id(), req, worker);
        if (!data.ok()) {
          files[k].error = data.status();
          return;
        }
        Scope s(tr, "MatchCatalog", "catalog.fingerprint", f.id(), req,
                worker);
        first_matches[k] = MatchCatalog(catalog, data.value(), match_opts);
      });
      for (size_t k = 0; k < files.size(); ++k) {
        if (!files[k].error.ok()) continue;
        c->AddMatch(first_matches[k]);
        if (first_matches[k].hit()) {
          files[k].entry = first_matches[k].entry;
          files[k].hit = true;
        }
      }
    }
    {  // Phase 2: discover the misses in sorted order.
      Scope phase(tr, "discovery phase", "", root.id(), 0);
      Datamaran dm(options);
      for (size_t k = 0; k < files.size(); ++k) {
        CrawlFile& f = files[k];
        if (f.entry >= 0 || !f.error.ok()) continue;
        const int req = static_cast<int>(k) + 1;
        Scope fs(tr, "file", "", phase.id(), req);
        auto data = open(f, fs.id(), req, 0);
        if (!data.ok()) {
          f.error = data.status();
          continue;
        }
        if (!catalog.empty()) {
          CatalogMatch m;
          {
            Scope s(tr, "MatchCatalog", "catalog.fingerprint", fs.id(), req);
            m = MatchCatalog(catalog, data.value(), match_opts);
          }
          c->AddMatch(m);
          if (m.hit()) {
            f.entry = m.entry;
            f.hit = true;
            continue;
          }
        }
        StepTimings timings;
        PipelineStats stats;
        std::vector<TemplateReport> reports;
        std::vector<StructureTemplate> templates;
        {
          Scope s(tr, "Datamaran::DiscoverTemplates", "discovery", fs.id(),
                  req);
          templates = dm.DiscoverTemplates(data.value(), &timings, &stats,
                                           &reports);
          AddStepDurations(tr, s.id(), timings, /*with_collect=*/false);
        }
        c->AddDiscovery(stats, templates.size());
        if (templates.empty()) continue;
        Scope s(tr, "TemplateCatalog::AddEntry", "catalog.add", fs.id(), req);
        CatalogEntry entry;
        entry.templates = std::move(templates);
        for (const TemplateReport& rep : reports) {
          entry.meta.push_back({rep.mdl_bits, rep.noise_only_bits,
                                rep.sample_records, rep.sample_coverage});
        }
        f.entry = static_cast<int>(catalog.AddEntry(std::move(entry)));
      }
    }
    {  // Phase 3: extract every structured file, file-parallel.
      Scope phase(tr, "extraction phase", "", root.id(), 0);
      pool.ParallelFor(files.size(), [&](size_t k, int worker) {
        CrawlFile& f = files[k];
        if (!f.error.ok()) return;
        const int req = static_cast<int>(k) + 1;
        Scope fs(tr, "file", "", phase.id(), req, worker);
        auto data = open(f, fs.id(), req, worker);
        if (!data.ok()) {
          f.error = data.status();
          return;
        }
        if (f.entry < 0) return;  // unstructured: every line is noise
        const CatalogEntry& entry =
            catalog.entry(static_cast<size_t>(f.entry));
        data->Advise(AccessHint::kSequential);
        std::optional<Extractor> extractor;
        {
          Scope s(tr, "Extractor", "template", fs.id(), req, worker);
          extractor.emplace(
              &entry.templates, /*pool=*/nullptr, options.match_engine,
              options.charset_engine, options.max_line_bytes,
              entry.programs.empty() ? nullptr : &entry.programs);
        }
        const DatasetView view(data.value());
        std::optional<ColumnarWriteSink> sink;
        {
          Scope s(tr, "ColumnarWriteSink", "sinks", fs.id(), req, worker);
          sink.emplace(&entry.templates, view,
                       tables + "/" + f.rel_path + ".tables");
        }
        TimingSink timed(&*sink);
        {
          Scope s(tr, "Extractor::ExtractEvents", "extraction", fs.id(), req,
                  worker);
          extracted[k] = extractor->ExtractEvents(view, &timed);
          tr->AddDuration(s.id(), "EventSink callbacks", "sinks",
                          timed.seconds());
        }
        Scope s(tr, "ColumnarWriteSink::Finish", "sinks", fs.id(), req,
                worker);
        f.error = sink->Finish();
        view_bytes[k] = view.size_bytes();
        written[k] = sink->stats().bytes_written;
      });
    }
    Scope s(tr, "TemplateCatalog::Save", "catalog.save", root.id(), 0);
    const Status saved =
        catalog.Save(catalog_out, CatalogSaveOptions{options.catalog_merge});
    if (!saved.ok()) r->status = saved;
  }

  // Outside every span: reference digests, accuracy, the isolated sampler.
  r->ref_catalog_digest = DigestFile(catalog_out);
  std::map<std::string, const GeneratedDataset*> truth_by_name;
  for (const GeneratedDataset& t : in.truth) truth_by_name[t.name] = &t;
  std::vector<size_t> logical_bytes(files.size(), 0);
  for (size_t k = 0; k < files.size(); ++k) {
    const CrawlFile& f = files[k];
    r->ref_digests.push_back(
        DigestTree(tables + "/" + f.rel_path + ".tables"));
    r->ref_names.push_back(f.rel_path);
    c->lake_files++;
    c->lake_catalog_hits += f.hit ? 1 : 0;
    c->AddExtraction(extracted[k], view_bytes[k], written[k]);
    if (!f.error.ok() && r->status.ok()) r->status = f.error;
    const auto t = truth_by_name.find(f.rel_path);
    auto data = open_untraced(f);
    if (t == truth_by_name.end() || !data.ok()) {
      r->status = Status::Internal("cannot judge lake file " + f.rel_path);
      continue;
    }
    const GeneratedDataset& truth = *t->second;
    logical_bytes[k] = truth.text.size();
    c->sampler_s += TimeSampleView(data.value(), options);
    PipelineResult collected;
    if (f.entry >= 0) {
      collected.templates =
          catalog.entry(static_cast<size_t>(f.entry)).templates;
      const Extractor extractor(&collected.templates, nullptr,
                                options.match_engine, options.charset_engine,
                                options.max_line_bytes);
      collected.extraction = extractor.Extract(data.value());
    }
    CheckInPieces(truth, 0, 0, UnitsFromPipeline(collected, truth.text),
                  truth.text, &r->verdicts);
  }
  // Inflate throughput: the opens of logical files with a gzip member.
  for (const Span& s : tr->spans()) {
    if (s.name != "OpenInputs" || s.request < 1) continue;
    const size_t k = static_cast<size_t>(s.request - 1);
    if (!files[k].has_gz) continue;
    c->inflate_s += s.seconds();
    c->inflate_bytes += static_cast<double>(logical_bytes[k]);
  }
}

// --------------------------------------------------- datamaran_cli --follow

void ReplayFollow(const Inputs& in, int threads, const std::string& out_root,
                  Tracer* tr, Counters* c, ReplayResult* r) {
  const std::string out_dir = out_root + "/out";
  DatamaranOptions options;
  options.num_threads = threads;
  const StreamOptions stream_options;
  // As in the CLI: the sink starts with no templates and an empty view;
  // the session hands it templates and noise text as it decides.
  const Dataset empty_data{std::string()};
  const DatasetView empty_view(empty_data);
  const std::vector<StructureTemplate> no_templates;
  // The session's decisions also go, in stream coordinates, to the capture
  // for the per-phase criterion and evolution placement. Its calls are
  // timed apart and recorded as the benchmark's own work (no layer), so
  // they stay out of stream.feed_s and the traced time.
  CaptureSink capture(in.stream);
  TimingSink timed_capture(&capture);
  {
    Scope root(tr, "datamaran_cli --follow", "", -1, 0);
    std::optional<ColumnarWriteSink> sink;
    {
      Scope s(tr, "ColumnarWriteSink", "sinks", root.id(), 0);
      sink.emplace(&no_templates, empty_view, out_dir);
    }
    TimingSink timed(&*sink);
    TeeSink tee(&timed, &timed_capture);
    // Records each sink's share of the time inside span `id` since the
    // given readings of the two timers.
    auto add_sink_durations = [&](int id, double sink_before,
                                  double capture_before) {
      tr->AddDuration(id, "EventSink callbacks", "sinks",
                      timed.seconds() - sink_before);
      tr->AddDuration(id, "accuracy capture", "",
                      timed_capture.seconds() - capture_before);
    };
    std::optional<StreamingSession> session;
    {
      Scope s(tr, "StreamingSession", "stream", root.id(), 0);
      session.emplace(options, stream_options, &tee);
    }
    FollowReader reader(in.stream_path);
    std::string buf;
    size_t fed = 0;
    while (fed < in.stream.size()) {
      buf.clear();
      bool eof = false;
      {
        Scope s(tr, "FollowReader::Read", "input", root.id(), 0);
        auto read = reader.Read(&buf, kReadBytes);
        if (!read.ok()) {
          r->status = read.status();
          return;
        }
        eof = read.value().eof;
      }
      if (buf.empty()) {
        if (eof) break;
        continue;
      }
      fed += buf.size();
      Scope s(tr, "StreamingSession::FeedBytes", "stream", root.id(), 0);
      const double sink_before = timed.seconds();
      const double capture_before = timed_capture.seconds();
      session->FeedBytes(buf);
      add_sink_durations(s.id(), sink_before, capture_before);
    }
    {
      Scope s(tr, "StreamingSession::Finish", "stream", root.id(), 0);
      const double sink_before = timed.seconds();
      const double capture_before = timed_capture.seconds();
      const Status ended = session->Finish();
      add_sink_durations(s.id(), sink_before, capture_before);
      if (!ended.ok()) r->status = ended;
    }
    {
      Scope s(tr, "ColumnarWriteSink::Finish", "sinks", root.id(), 0);
      const Status finished = sink->Finish();
      if (!finished.ok()) r->status = finished;
    }
    const StreamStats& stats = session->stats();
    c->discovery_runs = stats.discovery_runs;
    c->evolutions = stats.evolutions;
    c->evolution_attempts = stats.evolution_attempts;
    c->records = stats.records;
    c->noise_lines = stats.noise_lines;
    c->bytes_written = sink->stats().bytes_written;
    r->evolutions = stats.evolutions;
  }
  // Feed latency: each FeedBytes call, less the accuracy capture inside it.
  std::map<int, double> capture_s;
  for (const Span& s : tr->spans()) {
    if (s.duration_only && s.layer.empty()) capture_s[s.parent] += s.seconds();
  }
  for (const Span& s : tr->spans()) {
    if (s.name == "StreamingSession::FeedBytes") {
      c->feed_ms.push_back((s.seconds() - capture_s[s.id]) * 1e3);
    }
  }
  r->ref_digests.push_back(DigestTree(out_dir));
  r->ref_names.push_back("out");

  // Each template-set addition (warm-up, then evolutions) belongs to the
  // phase its trigger line falls in. A phase is judged from its last
  // addition on (its start when it has none): lines before that point are
  // the follower's detection lag, decided as noise by design until drift
  // triggers re-discovery.
  const size_t phases = in.truth.size();
  r->evolutions_per_phase.assign(phases, 0);
  std::vector<size_t> judged_from_line = in.phase_lines;
  for (size_t a = 0; a < capture.additions_at_line.size(); ++a) {
    const size_t line = capture.additions_at_line[a];
    size_t p = phases - 1;
    while (p > 0 && in.phase_lines[p] > line) --p;
    if (a > 0) r->evolutions_per_phase[p]++;
    judged_from_line[p] = std::max(judged_from_line[p], line);
  }
  for (size_t p = 0; p < phases; ++p) {
    CheckInPieces(in.truth[p], in.phase_offsets[p],
                  judged_from_line[p] - in.phase_lines[p], capture.records,
                  in.stream, &r->verdicts);
  }
}

void FillPerLayer(const Counters& c, const Tracer& tr, ReplayResult* r) {
  const std::map<std::string, double> layer = tr.SelfTimeByLayer();
  auto busy = [&](const char* name) {
    const auto it = layer.find(name);
    return it == layer.end() ? 0.0 : it->second;
  };
  auto ratio = [](size_t num, size_t den) {
    return Ratio(static_cast<double>(num), static_cast<double>(den));
  };
  const double thread_s = tr.ThreadSeconds();
  double covered = 0;
  for (const auto& [name, s] : layer) {
    covered += s;
    r->layer_share[name] = Ratio(s, thread_s);
  }
  std::map<std::string, double>& m = r->per_layer;
  m["input.open_s"] = busy("input");
  m["input.inflate_mb_per_s"] = Ratio(c.inflate_bytes, c.inflate_s) / 1e6;
  m["sampler.busy_s"] = c.sampler_s;
  m["generation.busy_s"] = busy("generation");
  m["generation.charsets_tried"] = static_cast<double>(c.charsets_tried);
  m["generation.candidates"] = static_cast<double>(c.candidates);
  m["pruning.busy_s"] = busy("pruning");
  m["scoring.busy_s"] = busy("scoring");
  m["scoring.scored"] = static_cast<double>(c.scored);
  m["scoring.pruned"] = static_cast<double>(c.pruned);
  m["scoring.prune_ratio"] = ratio(c.pruned, c.pruned + c.scored);
  m["scoring.cache_hits"] = static_cast<double>(c.cache_hits);
  m["scoring.cache_misses"] = static_cast<double>(c.cache_misses);
  m["scoring.cache_hit_ratio"] =
      ratio(c.cache_hits, c.cache_hits + c.cache_misses);
  m["refinement.busy_s"] = busy("refinement");
  m["discovery.self_s"] = busy("discovery");
  m["discovery.rounds"] = static_cast<double>(c.rounds);
  m["discovery.templates"] = static_cast<double>(c.templates);
  m["pipeline.collect_s"] = busy("collect");
  m["template.compile_s"] = busy("template");
  m["catalog.load_s"] = busy("catalog.load");
  m["catalog.fingerprint_s"] = busy("catalog.fingerprint");
  m["catalog.hit_ratio"] = ratio(c.lake_catalog_hits, c.lake_files);
  m["catalog.scored_per_file"] = ratio(c.entries_scored, c.fingerprints);
  m["catalog.prefilter_ratio"] =
      ratio(c.entries_prefiltered, c.entries_prefiltered + c.entries_scored);
  m["catalog.save_s"] = busy("catalog.save");
  m["extraction.busy_s"] = busy("extraction");
  m["extraction.mb_per_s"] =
      Ratio(c.extracted_bytes, busy("extraction")) / 1e6;
  m["extraction.records"] = static_cast<double>(c.records);
  m["extraction.noise_lines"] = static_cast<double>(c.noise_lines);
  m["sinks.busy_s"] = busy("sinks");
  m["sinks.bytes_written"] = static_cast<double>(c.bytes_written);
  m["sinks.write_mb_per_s"] =
      Ratio(static_cast<double>(c.bytes_written), busy("sinks")) / 1e6;
  m["stream.feed_s"] = busy("stream");
  m["stream.feed_p99_ms"] = Quantile(c.feed_ms, 0.99);
  m["stream.feed_max_ms"] = Quantile(c.feed_ms, 1.0);
  m["stream.discovery_runs"] = static_cast<double>(c.discovery_runs);
  m["stream.evolutions"] = static_cast<double>(c.evolutions);
  m["stream.evolution_yield"] = ratio(c.evolutions, c.evolution_attempts);
  m["trace.coverage"] = Ratio(covered, thread_s);
}

}  // namespace

const std::vector<MetricDef>& PerLayerMetricDefs() {
  static const std::vector<MetricDef> kDefs = {
      {"input.open_s", "s"},
      {"input.inflate_mb_per_s", "MB/s"},
      {"sampler.busy_s", "s"},
      {"generation.busy_s", "s"},
      {"generation.charsets_tried", "count"},
      {"generation.candidates", "count"},
      {"pruning.busy_s", "s"},
      {"scoring.busy_s", "s"},
      {"scoring.scored", "count"},
      {"scoring.pruned", "count"},
      {"scoring.prune_ratio", "fraction"},
      {"scoring.cache_hits", "count"},
      {"scoring.cache_misses", "count"},
      {"scoring.cache_hit_ratio", "fraction"},
      {"refinement.busy_s", "s"},
      {"discovery.self_s", "s"},
      {"discovery.rounds", "count"},
      {"discovery.templates", "count"},
      {"pipeline.collect_s", "s"},
      {"template.compile_s", "s"},
      {"catalog.load_s", "s"},
      {"catalog.fingerprint_s", "s"},
      {"catalog.hit_ratio", "fraction"},
      {"catalog.scored_per_file", "count"},
      {"catalog.prefilter_ratio", "fraction"},
      {"catalog.save_s", "s"},
      {"extraction.busy_s", "s"},
      {"extraction.mb_per_s", "MB/s"},
      {"extraction.records", "count"},
      {"extraction.noise_lines", "count"},
      {"sinks.busy_s", "s"},
      {"sinks.bytes_written", "bytes"},
      {"sinks.write_mb_per_s", "MB/s"},
      {"stream.feed_s", "s"},
      {"stream.feed_p99_ms", "ms"},
      {"stream.feed_max_ms", "ms"},
      {"stream.discovery_runs", "count"},
      {"stream.evolutions", "count"},
      {"stream.evolution_yield", "fraction"},
      {"trace.coverage", "fraction"},
      {"trace.overhead", "fraction"},
  };
  return kDefs;
}

ReplayResult Replay(const Inputs& in, int threads,
                    const std::string& out_root) {
  ReplayResult r;
  r.tracer = std::make_unique<Tracer>();
  RemoveTree(out_root);
  Counters c;
  switch (in.kind) {
    case WorkloadKind::kCorpusDiscover:
    case WorkloadKind::kBatchLarge:
      ReplayCli(in, threads, out_root, r.tracer.get(), &c, &r);
      break;
    case WorkloadKind::kLakeCrawl:
      ReplayCrawl(in, threads, out_root, r.tracer.get(), &c, &r);
      break;
    case WorkloadKind::kFollowDrift:
      ReplayFollow(in, threads, out_root, r.tracer.get(), &c, &r);
      break;
  }
  FillPerLayer(c, *r.tracer, &r);
  return r;
}

bool FollowEvolutionsOk(const ReplayResult& replay,
                        size_t measured_evolutions) {
  return replay.evolutions >= 2 && !replay.evolutions_per_phase.empty() &&
         replay.evolutions_per_phase.back() == 0 &&
         measured_evolutions == replay.evolutions;
}

}  // namespace datamaran::e2e
