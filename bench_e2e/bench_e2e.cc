// End-to-end and per-layer benchmark of the three entry points: batch
// datamaran_cli, datamaran_crawl, and datamaran_cli --follow.
//
//   bench_e2e --seed=S [--runs=R] [--seconds=T] [--workload=NAME[,NAME]]
//             [--trace-only] [--selftest] [--print-inputs]
//             [--baseline=PATH] [--bin-dir=DIR] [--work-dir=DIR]
//             [--json-out=PATH] [--trace-out=PATH] [--benchmark-json=PATH]
//             [--commit=ID]
//
// For every selected workload it
//  1. generates the inputs from seed S (untimed; see e2e/workloads.h);
//  2. replays the entry point in-process with tracing (e2e/replay.h): the
//     per-layer metrics, the accuracy verdicts, and the reference outputs;
//  3. runs rounds — one round is one pass over the workload's inputs, each
//     op a child process (e2e/child.h), one at a time, closed loop —
//     round-robin across workloads with the order alternating, until every
//     workload has R rounds and no further round fits in T seconds. Before
//     each op it times one invocation of the entry point on an empty input
//     (setup_s), and tops these up to 31 after the rounds;
//  4. checks every op (exit status, summary or manifest, output digest
//     equal to the replay's), prints "workload metric value unit" for
//     every metric, and writes BENCH_e2e.json and the Chrome trace.
//
// Exit status: 0 all outputs correct, 1 a check failed or the run could
// not complete, 2 bad flags.

#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "core/summary.h"
#include "datagen/manual_datasets.h"
#include "e2e/child.h"
#include "e2e/files.h"
#include "e2e/replay.h"
#include "e2e/stats.h"
#include "e2e/trace.h"
#include "e2e/workloads.h"
#include "evalharness/accuracy.h"
#include "extraction/sinks.h"
#include "util/file_io.h"
#include "util/json.h"
#include "util/strings.h"
#include "util/timer.h"

namespace {

using namespace datamaran;
using namespace datamaran::e2e;

/// End-to-end metrics, reported per workload. The error rate is the
/// result's attempted/failed pair rather than a metric: it reads 0 when all
/// is well. The wall-time metrics (mb_per_s, file_p50_ms, file_p90_ms) are
/// reported but not declared in BENCHMARK.json: their run-to-run spread on
/// a shared 4-vCPU VM exceeds the 10% bound they would need (README.md).
const std::vector<MetricDef>& EndToEndMetricDefs() {
  static const std::vector<MetricDef> kDefs = {
      {"mb_per_s", "MB/s"},         {"file_p50_ms", "ms"},
      {"file_p90_ms", "ms"},        {"peak_rss_mb", "MB"},
      {"setup_s", "s"},             {"accuracy", "fraction"},
      {"line_match_rate", "fraction"},
  };
  return kDefs;
}

/// Worsening of setup_s below this many seconds is never flagged against a
/// baseline: it measures a few milliseconds, where a relative bound alone
/// is a fraction of a millisecond.
constexpr double kSetupFloorS = 0.002;

struct Flags {
  uint64_t seed = 1;
  int runs = 5;
  double seconds = 0;
  int setup_runs = 31;
  std::vector<std::string> workloads;
  bool trace_only = false;
  bool selftest = false;
  bool print_inputs = false;
  std::string baseline;
  std::string bin_dir;
  std::string work_dir = "bench_e2e_work";
  std::string json_out = "BENCH_e2e.json";
  std::string trace_out = "bench_e2e_trace.json";
  std::string benchmark_json = "BENCHMARK.json";
  std::string commit = "unknown";
};

/// One pass over a workload's inputs.
struct Round {
  double wall_s = 0;  ///< summed wall time of the round's entry-point ops
  double bytes = 0;   ///< uncompressed input bytes the round processed
  double peak_rss_mb = 0;
  /// Per-file latency samples: each CLI invocation (corpus, batch), each
  /// logical lake file as the crawl's manifest times it, or the follower's
  /// intake time for each 1 MiB piece of the stream — the unit its
  /// accuracy is judged in (follow).
  std::vector<double> file_ms;
  double matched_lines = 0, total_lines = 0;
};

struct Metric {
  std::string unit;
  double value = 0;
  std::vector<double> runs;  ///< per-round values (setup_s: every sample)
  size_t samples = 0;
};

/// One workload in this invocation.
struct Run {
  const WorkloadInfo* info = nullptr;
  int threads = 1;
  std::string work;
  Inputs in;
  ReplayResult replay;
  std::vector<double> setup_s;
  std::vector<Round> rounds;
  double measured_s = 0;
  size_t attempted = 0, failed = 0;
  std::vector<std::string> problems;
  std::map<std::string, Metric> e2e;
  std::map<std::string, Metric> layer;

  std::string Path(const std::string& rel) const { return work + "/" + rel; }
  void Problem(std::string p) {
    if (problems.size() < 20) problems.push_back(std::move(p));
  }
  bool correct() const {
    return failed == 0 && problems.empty() && replay.status.ok();
  }
};

int ThreadsFor(WorkloadKind kind) {
  return kind == WorkloadKind::kCorpusDiscover ? 1 : 2;
}

std::string SelfDir() {
  std::error_code ec;
  const auto exe = std::filesystem::read_symlink("/proc/self/exe", ec);
  return ec ? "." : exe.parent_path().string();
}

std::string Abs(const std::string& p) {
  std::error_code ec;
  const auto a = std::filesystem::absolute(p, ec);
  return ec ? p : a.lexically_normal().string();
}

Result<JsonValue> LoadJson(const std::string& path) {
  auto text = ReadFileToString(path);
  if (!text.ok()) return text.status();
  return ParseJson(text.value());
}

std::string ExitText(const ChildResult& child) {
  return StrFormat("exit %d (%s)", child.exit_code, child.error.c_str());
}

// ------------------------------------------------------------ output checks

struct OpCheck {
  bool ok = true;
  std::string problem;
  double matched_lines = 0, total_lines = 0;
  size_t evolutions = 0;
};

/// A datamaran_cli op (batch or --follow): clean exit, an error-free
/// summary, and an output tree equal to the replay's.
OpCheck CheckCliOp(const ChildResult& child, const std::string& summary,
                   const std::string& out_dir, uint64_t ref_digest) {
  OpCheck c;
  auto fail = [&](std::string why) {
    if (c.ok) c.problem = std::move(why);
    c.ok = false;
  };
  if (!child.ok()) fail(ExitText(child));
  auto json = LoadJson(summary);
  auto s = json.ok() ? FileSummaryFromJson(json.value())
                     : Result<FileSummary>(json.status());
  if (!s.ok()) {
    fail("summary: " + s.status().ToString());
  } else {
    if (!s.value().error.empty()) fail("summary error: " + s.value().error);
    c.total_lines = static_cast<double>(s.value().total_lines);
    c.matched_lines =
        static_cast<double>(s.value().total_lines - s.value().noise_lines);
    c.evolutions = s.value().stream_evolutions;
  }
  if (DigestTree(out_dir) != ref_digest) fail("output differs from replay");
  return c;
}

struct CrawlCheck {
  size_t files = 0, failed = 0;
  double matched_lines = 0, total_lines = 0;
  /// Per logical file, the crawl's own timing from the manifest:
  /// fingerprinting (its open included), discovery on a miss, and
  /// extraction. The sum is taken here rather than read from `total_s`,
  /// which the crawl leaves 0 for unstructured files.
  std::vector<double> file_ms;
  std::string problem;
};

/// A datamaran_crawl op: one check per logical lake file — no manifest
/// error, tables equal to the replay's — plus the saved catalog, whose
/// mismatch fails every file of the crawl.
CrawlCheck CheckCrawlOp(const Run& w, const ChildResult& child,
                        const std::string& run_dir) {
  CrawlCheck c;
  c.files = w.replay.ref_names.size();
  auto all_failed = [&](std::string why) {
    c.failed = c.files;
    c.problem = std::move(why);
    return c;
  };
  auto manifest = LoadJson(run_dir + "/manifest.json");
  if (!manifest.ok()) {
    return all_failed("manifest: " + manifest.status().ToString());
  }
  const JsonValue* files = manifest.value().Find("files");
  if (files == nullptr || !files->is_array()) {
    return all_failed("manifest has no file list");
  }
  if (DigestFile(run_dir + "/catalog") != w.replay.ref_catalog_digest) {
    return all_failed("saved catalog differs from replay");
  }
  std::map<std::string, size_t> index;
  for (size_t i = 0; i < w.replay.ref_names.size(); ++i) {
    index[w.replay.ref_names[i]] = i;
  }
  for (const JsonValue& entry : files->items) {
    auto s = FileSummaryFromJson(entry);
    if (!s.ok()) continue;
    const auto it = index.find(s.value().path);
    if (it == index.end()) continue;
    const size_t ref = it->second;
    index.erase(it);
    c.total_lines += static_cast<double>(s.value().total_lines);
    c.matched_lines +=
        static_cast<double>(s.value().total_lines - s.value().noise_lines);
    const StepTimings& t = s.value().timings;
    c.file_ms.push_back(1e3 * (t.catalog_match_s + t.generation_s +
                               t.pruning_s + t.evaluation_s +
                               t.refinement_s + t.extraction_s));
    const bool same =
        DigestTree(run_dir + "/tables/" + s.value().path + ".tables") ==
        w.replay.ref_digests[ref];
    if (!s.value().error.empty() || !same) {
      c.failed++;
      if (c.problem.empty()) {
        c.problem = s.value().path + ": " +
                    (same ? s.value().error : "tables differ from replay");
      }
    }
  }
  c.failed += index.size();  // files the manifest does not list
  if (!child.ok() && c.failed == 0) return all_failed(ExitText(child));
  return c;
}

// ------------------------------------------------------------ entry points

struct Programs {
  std::string cli, crawl;
  std::string launcher;  ///< e2e_spawn, built next to this binary
};

ChildSpec BaseSpec(const Programs& p, const std::string& dir) {
  ChildSpec spec;
  spec.launcher = p.launcher;
  spec.report_path = dir + "/launch.report";
  spec.log_path = dir + "/child.log";
  return spec;
}

ChildSpec CliSpec(const Programs& p, const Run& w, const std::string& input,
                  const std::string& dir) {
  ChildSpec spec = BaseSpec(p, dir);
  spec.argv = {p.cli, input, "--out=" + dir + "/out",
               "--summary-json=" + dir + "/summary.json",
               StrFormat("--threads=%d", w.threads)};
  return spec;
}

ChildSpec CrawlSpec(const Programs& p, const Run& w, const std::string& lake,
                    const std::string& dir) {
  ChildSpec spec = BaseSpec(p, dir);
  spec.argv = {p.crawl,
               lake,
               "--catalog-in=" + w.in.pristine_catalog,
               "--catalog-out=" + dir + "/catalog",
               "--manifest=" + dir + "/manifest.json",
               "--out=" + dir + "/tables",
               StrFormat("--threads=%d", w.threads)};
  return spec;
}

/// `stream` null: stdin is /dev/null.
ChildSpec FollowSpec(const Programs& p, const Run& w, const std::string& dir,
                     const std::string* stream) {
  ChildSpec spec = BaseSpec(p, dir);
  spec.argv = {p.cli, "--follow=-", "--out=" + dir + "/out",
               "--summary-json=" + dir + "/summary.json",
               StrFormat("--threads=%d", w.threads)};
  spec.stdin_data = stream;
  return spec;
}

/// Empties `dir` for the next op and flushes the filesystem, untimed (see
/// SyncFilesystem).
void FreshDir(const std::string& dir) {
  RemoveTree(dir);
  (void)MakeDirs(dir);
  SyncFilesystem(dir);
}

/// Times one invocation of the entry point, with the workload's flags, on
/// an empty input (see Prepare): process start, pool creation, catalog
/// load, program deserialization.
void MeasureSetup(const Programs& p, Run* w) {
  const std::string dir = w->Path("setup");
  FreshDir(dir);
  ChildSpec spec;
  switch (w->info->kind) {
    case WorkloadKind::kCorpusDiscover:
    case WorkloadKind::kBatchLarge:
      spec = CliSpec(p, *w, w->Path("empty.log"), dir);
      break;
    case WorkloadKind::kLakeCrawl:
      spec = CrawlSpec(p, *w, w->Path("empty_lake"), dir);
      break;
    case WorkloadKind::kFollowDrift:
      spec = FollowSpec(p, *w, dir, nullptr);
      break;
  }
  const ChildResult r = RunChild(spec);
  if (!r.ok()) w->Problem("setup invocation: " + ExitText(r));
  w->setup_s.push_back(r.wall_s);
}

/// One round; every op is preceded by one set-up sample, so that setup_s
/// is sampled across the same stretch of time as the ops.
void RunRound(const Programs& p, Run* w) {
  Timer timer;
  Round round;
  round.bytes = static_cast<double>(w->in.logical_bytes);
  const std::string dir = w->Path("run");
  auto account = [&](const ChildResult& r, double matched, double total) {
    round.wall_s += r.wall_s;
    round.peak_rss_mb = std::max(round.peak_rss_mb, r.peak_rss_mb);
    round.matched_lines += matched;
    round.total_lines += total;
  };
  auto record = [&](const OpCheck& c, const std::string& what) {
    w->attempted++;
    if (c.ok) return;
    w->failed++;
    w->Problem(what + ": " + c.problem);
  };
  switch (w->info->kind) {
    case WorkloadKind::kCorpusDiscover:
    case WorkloadKind::kBatchLarge:
      for (size_t i = 0; i < w->in.truth.size(); ++i) {
        const std::string& name = w->in.truth[i].name;
        MeasureSetup(p, w);
        FreshDir(dir);
        const ChildResult r =
            RunChild(CliSpec(p, *w, w->in.dir + "/" + name, dir));
        const OpCheck c = CheckCliOp(r, dir + "/summary.json", dir + "/out",
                                     w->replay.ref_digests[i]);
        account(r, c.matched_lines, c.total_lines);
        round.file_ms.push_back(r.wall_s * 1e3);
        record(c, name);
      }
      break;
    case WorkloadKind::kLakeCrawl: {
      MeasureSetup(p, w);
      FreshDir(dir);
      const ChildResult r = RunChild(CrawlSpec(p, *w, w->in.lake_root, dir));
      CrawlCheck c = CheckCrawlOp(*w, r, dir);
      account(r, c.matched_lines, c.total_lines);
      round.file_ms = std::move(c.file_ms);
      w->attempted += c.files;
      w->failed += c.failed;
      if (!c.problem.empty()) w->Problem(c.problem);
      break;
    }
    case WorkloadKind::kFollowDrift: {
      MeasureSetup(p, w);
      FreshDir(dir);
      ChildResult r = RunChild(FollowSpec(p, *w, dir, &w->in.stream));
      OpCheck c = CheckCliOp(r, dir + "/summary.json", dir + "/out",
                             w->replay.ref_digests[0]);
      if (c.ok && !FollowEvolutionsOk(w->replay, c.evolutions)) {
        c.ok = false;
        c.problem = StrFormat("evolutions: run %zu, replay %zu (per phase",
                              c.evolutions, w->replay.evolutions);
        for (size_t n : w->replay.evolutions_per_phase) {
          c.problem += StrFormat(" %zu", n);
        }
        c.problem += "); want >= 2 and none in the returning phase";
      }
      account(r, c.matched_lines, c.total_lines);
      round.file_ms = std::move(r.piece_ms);
      record(c, "stream");
      break;
    }
  }
  w->rounds.push_back(std::move(round));
  w->measured_s += timer.Seconds();
}

/// Another round is due while the workload has fewer than `runs` rounds,
/// or while one more (at the mean round time so far) fits in `seconds`.
bool NeedsRound(const Run& w, const Flags& f) {
  if (static_cast<int>(w.rounds.size()) < f.runs) return true;
  if (f.seconds <= 0 || w.rounds.empty()) return false;
  const double mean = w.measured_s / static_cast<double>(w.rounds.size());
  return w.measured_s + mean <= f.seconds;
}

// ----------------------------------------------------------------- metrics

Metric FromRuns(const char* unit, std::vector<double> runs) {
  Metric m;
  m.unit = unit;
  m.value = Median(runs);
  m.samples = runs.size();
  m.runs = std::move(runs);
  return m;
}

/// Per-round values for the run lists; latency percentiles pool every
/// sample of every round.
Metric Latency(const std::vector<Round>& rounds, double q) {
  std::vector<double> per_round, all;
  for (const Round& r : rounds) {
    per_round.push_back(Quantile(r.file_ms, q));
    all.insert(all.end(), r.file_ms.begin(), r.file_ms.end());
  }
  Metric m = FromRuns("ms", std::move(per_round));
  m.value = Quantile(all, q);
  m.samples = all.size();
  return m;
}

void ComputeMetrics(Run* w) {
  for (const MetricDef& d : PerLayerMetricDefs()) {
    const auto it = w->replay.per_layer.find(d.name);
    Metric& m = w->layer[d.name];
    m.unit = d.unit;
    m.value = it == w->replay.per_layer.end() ? 0 : it->second;
    m.samples = 1;
  }
  std::vector<double> mbps, rss, lines, walls;
  for (const Round& r : w->rounds) {
    mbps.push_back(Ratio(r.bytes, r.wall_s) / 1e6);
    rss.push_back(r.peak_rss_mb);
    lines.push_back(Ratio(r.matched_lines, r.total_lines));
    walls.push_back(r.wall_s);
  }
  if (!walls.empty()) {
    w->layer["trace.overhead"].value =
        Ratio(w->replay.tracer->WallSeconds(), Median(walls)) - 1;
  }
  size_t ok = 0;
  for (const Verdict& v : w->replay.verdicts) ok += v.success ? 1 : 0;
  const double units = static_cast<double>(w->replay.verdicts.size());
  w->e2e["mb_per_s"] = FromRuns("MB/s", mbps);
  w->e2e["file_p50_ms"] = Latency(w->rounds, 0.5);
  w->e2e["file_p90_ms"] = Latency(w->rounds, 0.9);
  w->e2e["peak_rss_mb"] = FromRuns("MB", rss);
  w->e2e["setup_s"] = FromRuns("s", w->setup_s);
  w->e2e["accuracy"] =
      FromRuns("fraction", {Ratio(static_cast<double>(ok), units)});
  w->e2e["accuracy"].samples = w->replay.verdicts.size();
  w->e2e["line_match_rate"] = FromRuns("fraction", lines);
}

// ------------------------------------------------------------------ output

std::string Num(double v) {
  return std::isfinite(v) ? StrFormat("%.10g", v) : std::string("null");
}

std::string Quote(std::string_view s) {
  std::string out = "\"";
  AppendJsonEscaped(s, &out);
  return out + "\"";
}

std::string CpuModel() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    const size_t colon = line.find(':');
    if (line.rfind("model name", 0) == 0 && colon != std::string::npos) {
      return std::string(Trim(std::string_view(line).substr(colon + 1)));
    }
  }
  return "unknown";
}

std::string Compiler() {
#if defined(__clang__)
  return std::string("clang++ ") + __clang_version__;
#elif defined(__GNUC__)
  return std::string("g++ ") + __VERSION__;
#else
  return "unknown";
#endif
}

void AppendMetrics(const std::map<std::string, Metric>& metrics,
                   const std::vector<MetricDef>& order, bool with_runs,
                   std::string* out) {
  const char* sep = "\n";
  for (const MetricDef& d : order) {
    const Metric& m = metrics.at(d.name);
    *out += StrFormat("%s        %s: {\"unit\": %s, \"value\": %s", sep,
                      Quote(d.name).c_str(), Quote(m.unit).c_str(),
                      Num(m.value).c_str());
    sep = ",\n";
    if (!with_runs) {
      *out += "}";
      continue;
    }
    *out += StrFormat(
        ", \"median\": %s, \"q1\": %s, \"q3\": %s, \"samples\": %zu, "
        "\"runs\": [",
        Num(Median(m.runs)).c_str(), Num(Quantile(m.runs, 0.25)).c_str(),
        Num(Quantile(m.runs, 0.75)).c_str(), m.samples);
    for (size_t i = 0; i < m.runs.size(); ++i) {
      *out += (i ? ", " : "") + Num(m.runs[i]);
    }
    *out += "]}";
  }
  *out += "\n      ";
}

std::string ResultsJson(const Flags& f, const std::vector<Run>& runs) {
  std::string out = "{\n  \"schema\": \"bench_e2e/1\",\n";
  out += StrFormat("  \"seed\": %llu,\n  \"runs\": %d,\n  \"seconds\": %s,\n",
                   static_cast<unsigned long long>(f.seed), f.runs,
                   Num(f.seconds).c_str());
  out += StrFormat(
      "  \"environment\": {\"nproc\": %u, \"cpu_model\": %s, "
      "\"compiler\": %s, \"commit\": %s},\n",
      std::thread::hardware_concurrency(), Quote(CpuModel()).c_str(),
      Quote(Compiler()).c_str(), Quote(f.commit).c_str());
  out += "  \"workloads\": {";
  for (size_t i = 0; i < runs.size(); ++i) {
    const Run& w = runs[i];
    out += i ? ",\n" : "\n";
    out += StrFormat(
        "    %s: {\n      \"correct\": %s, \"attempted\": %zu, "
        "\"failed\": %zu, \"rounds\": %zu, \"measured_s\": %s,\n",
        Quote(w.info->name).c_str(), w.correct() ? "true" : "false",
        w.attempted, w.failed, w.rounds.size(), Num(w.measured_s).c_str());
    auto append_list = [&](const char* key,
                           const std::vector<std::string>& list) {
      out += StrFormat("      \"%s\": [", key);
      for (size_t k = 0; k < list.size(); ++k) {
        out += (k ? ", " : "") + Quote(list[k]);
      }
      out += "],\n";
    };
    std::vector<std::string> failed_verdicts;
    for (const Verdict& v : w.replay.verdicts) {
      if (!v.success) failed_verdicts.push_back(v.name + ": " + v.reason);
    }
    append_list("problems", w.problems);
    append_list("failed_verdicts", failed_verdicts);
    out += "      \"end_to_end\": {";
    AppendMetrics(w.e2e, EndToEndMetricDefs(), true, &out);
    out += "},\n      \"per_layer\": {";
    AppendMetrics(w.layer, PerLayerMetricDefs(), false, &out);
    out += "},\n      \"layer_share\": {";
    const char* sep = "";
    for (const auto& [layer, share] : w.replay.layer_share) {
      out += StrFormat("%s%s: %s", sep, Quote(layer).c_str(),
                       Num(share).c_str());
      sep = ", ";
    }
    out += "}\n    }";
  }
  out += "\n  }\n}\n";
  return out;
}

void PrintRun(const Run& w, bool with_e2e) {
  const char* name = w.info->name;
  if (with_e2e) {
    for (const MetricDef& d : EndToEndMetricDefs()) {
      std::printf("%s %s %.6g %s\n", name, d.name, w.e2e.at(d.name).value,
                  d.unit);
    }
  }
  for (const MetricDef& d : PerLayerMetricDefs()) {
    std::printf("%s %s %.6g %s\n", name, d.name, w.layer.at(d.name).value,
                d.unit);
  }
  std::printf("%s rounds=%zu ops=%zu failed=%zu correct=%s\n", name,
              w.rounds.size(), w.attempted, w.failed,
              w.correct() ? "yes" : "no");
  for (const std::string& p : w.problems) {
    std::printf("%s problem: %s\n", name, p.c_str());
  }
  if (!w.replay.status.ok()) {
    std::printf("%s replay error: %s\n", name,
                w.replay.status.ToString().c_str());
  }
  for (const Verdict& v : w.replay.verdicts) {
    if (v.success) continue;
    std::printf("%s criterion failed: %s: %s\n", name, v.name.c_str(),
                v.reason.c_str());
  }
}

// ---------------------------------------------------------------- baseline

struct Bound {
  bool lower_is_better = true;
  double share = 0;
};

/// The end_to_end bounds declared in BENCHMARK.json, by metric name.
std::map<std::string, Bound> DeclaredBounds(const JsonValue& benchmark) {
  std::map<std::string, Bound> out;
  const JsonValue* e2e = benchmark.Find("end_to_end");
  if (e2e == nullptr) return out;
  for (const JsonValue& m : e2e->items) {
    const JsonValue* name = m.Find("name");
    const JsonValue* better = m.Find("better");
    const JsonValue* bound = m.Find("bound");
    if (name == nullptr || better == nullptr || bound == nullptr ||
        name->AsString() == nullptr || better->AsString() == nullptr) {
      continue;
    }
    out[*name->AsString()] = {*better->AsString() == "lower",
                              bound->AsDouble().value_or(0)};
  }
  return out;
}

/// Prints each metric's delta against the baseline; end-to-end metrics that
/// BENCHMARK.json declares are flagged against their bound (for setup_s,
/// the bound or kSetupFloorS, whichever is larger). Returns false on a
/// regression.
bool CompareBaseline(const Flags& f, const std::vector<Run>& runs) {
  auto base = LoadJson(f.baseline);
  auto bench = LoadJson(f.benchmark_json);
  if (!base.ok() || !bench.ok()) {
    std::printf("baseline: cannot read %s or %s\n", f.baseline.c_str(),
                f.benchmark_json.c_str());
    return false;
  }
  const std::map<std::string, Bound> bounds = DeclaredBounds(bench.value());
  const JsonValue* workloads = base.value().Find("workloads");
  bool ok = true;
  for (const Run& w : runs) {
    const JsonValue* bw = workloads ? workloads->Find(w.info->name) : nullptr;
    if (bw == nullptr) {
      std::printf("baseline: no %s\n", w.info->name);
      continue;
    }
    for (const auto& [section, metrics] :
         {std::pair{"end_to_end", &w.e2e}, std::pair{"per_layer", &w.layer}}) {
      const JsonValue* bs = bw->Find(section);
      for (const auto& [name, m] : *metrics) {
        const JsonValue* bm = bs ? bs->Find(name) : nullptr;
        const JsonValue* bv = bm ? bm->Find("value") : nullptr;
        if (bv == nullptr || !bv->AsDouble()) continue;
        const double b = *bv->AsDouble();
        const double delta = b == 0 ? 0 : (m.value - b) / std::fabs(b);
        std::string flag;
        const auto bound = bounds.find(name);
        if (metrics == &w.e2e && bound == bounds.end()) {
          flag = " no bound";  // reported, but not declared in BENCHMARK.json
        } else if (metrics == &w.e2e) {
          const double worse =
              bound->second.lower_is_better ? m.value - b : b - m.value;
          const double floor = name == "setup_s" ? kSetupFloorS : 0;
          const bool regressed =
              worse > std::max(bound->second.share * std::fabs(b), floor);
          ok &= !regressed;
          flag = StrFormat(" bound %.1f%%", bound->second.share * 100);
          if (floor > 0) flag += StrFormat(" or +%g ms", floor * 1e3);
          flag += regressed ? " REGRESSION" : " ok";
        }
        std::printf("baseline %s %s %.6g vs %.6g (%+.1f%%)%s\n",
                    w.info->name, name.c_str(), m.value, b, delta * 100,
                    flag.c_str());
      }
    }
  }
  return ok;
}

// ---------------------------------------------------------------- the runs

Status Prepare(const Flags& f, const Scale& scale, const WorkloadInfo& info,
               Run* w) {
  w->info = &info;
  w->threads = ThreadsFor(info.kind);
  w->work = Abs(f.work_dir + "/" + info.name);
  auto in = GenerateInputs(info.kind, f.seed, scale, w->work + "/in");
  if (!in.ok()) return in.status();
  w->in = std::move(in.value());
  w->replay = Replay(w->in, w->threads, w->work + "/ref");
  // The empty inputs MeasureSetup runs the entry point on.
  Status st = WriteStringToFile(w->Path("empty.log"), "");
  if (st.ok()) st = MakeDirs(w->Path("empty_lake"));
  SyncFilesystem(w->work);
  return st;
}

/// Runs `selected` end to end; returns the finished runs.
Result<std::vector<Run>> RunWorkloads(
    const Flags& f, const Scale& scale, const Programs& progs,
    const std::vector<const WorkloadInfo*>& selected) {
  std::vector<Run> runs(selected.size());
  for (size_t i = 0; i < selected.size(); ++i) {
    Status st = Prepare(f, scale, *selected[i], &runs[i]);
    if (!st.ok()) return st;
  }
  for (size_t r = 0; !f.trace_only; ++r) {
    bool any = false;
    for (size_t k = 0; k < runs.size(); ++k) {
      Run& w = runs[r % 2 == 0 ? k : runs.size() - 1 - k];
      if (!NeedsRound(w, f)) continue;
      RunRound(progs, &w);
      any = true;
    }
    if (!any) break;
  }
  for (Run& w : runs) {
    while (!f.trace_only &&
           static_cast<int>(w.setup_s.size()) < f.setup_runs) {
      MeasureSetup(progs, &w);
    }
  }
  for (Run& w : runs) ComputeMetrics(&w);
  return runs;
}

Status WriteOutputs(const Flags& f, const std::vector<Run>& runs) {
  Status st = WriteFileAtomic(f.json_out, ResultsJson(f, runs));
  if (!st.ok()) return st;
  std::vector<std::pair<std::string, const Tracer*>> traces;
  for (const Run& w : runs) {
    traces.emplace_back(w.info->name, w.replay.tracer.get());
  }
  return WriteChromeTrace(f.trace_out, traces);
}

// ---------------------------------------------------------------- selftest

struct Selftest {
  int failures = 0;
  void Expect(bool ok, const std::string& what) {
    std::printf("selftest %s: %s\n", ok ? "PASS" : "FAIL", what.c_str());
    failures += ok ? 0 : 1;
  }
};

void ExpectSeedDeterminism(const Scale& scale, Selftest* t) {
  for (const WorkloadInfo& info : AllWorkloads()) {
    auto a = GenerateInputs(info.kind, 5, scale, "");
    auto b = GenerateInputs(info.kind, 5, scale, "");
    auto c = GenerateInputs(info.kind, 6, scale, "");
    const bool ok = a.ok() && b.ok() && c.ok() &&
                    a.value().files.size() == b.value().files.size() &&
                    a.value().files.size() == c.value().files.size();
    bool same = ok, differ = ok;
    for (size_t i = 0; ok && i < a.value().files.size(); ++i) {
      same &= a.value().files[i].digest == b.value().files[i].digest;
      differ &= a.value().files[i].digest != c.value().files[i].digest;
    }
    t->Expect(same, std::string(info.name) +
                        ": the same seed generates identical inputs");
    t->Expect(differ,
              std::string(info.name) + ": seed + 1 changes every input");
  }
}

void ExpectMetricsEmitted(const Run& w, const JsonValue& benchmark,
                          Selftest* t) {
  for (const auto& [section, emitted] :
       {std::pair{"end_to_end", &w.e2e}, std::pair{"per_layer", &w.layer}}) {
    const JsonValue* list = benchmark.Find(section);
    size_t missing = 0;
    for (const JsonValue& m : list ? list->items : std::vector<JsonValue>{}) {
      const JsonValue* name = m.Find("name");
      missing += name == nullptr || name->AsString() == nullptr ||
                 emitted->count(*name->AsString()) == 0;
    }
    t->Expect(list != nullptr && missing == 0,
              StrFormat("%s: every %s metric of BENCHMARK.json emitted "
                        "(%zu missing)",
                        w.info->name, section, missing));
  }
}

/// The k=0 corpus files at seed 0 are bench_table5_manual's inputs, and the
/// replay's verdicts equal that bench's exhaustive-search ones.
void ExpectTable5Identity(const Run& corpus, Selftest* t) {
  const size_t n = kManualDatasetCount;
  bool identical = corpus.in.truth.size() == n;
  bool same_verdicts = identical && corpus.replay.verdicts.size() == n;
  int table5_ok = 0;
  for (size_t i = 0; identical && i < n; ++i) {
    const int index = static_cast<int>(i);
    const GeneratedDataset ds = BuildManualDataset(
        index, static_cast<size_t>(DefaultManualBytes(index) * 1.0));
    identical &= ds.text == corpus.in.truth[i].text;
    const DatasetOutcome out =
        EvaluateDataset(ds, DatamaranOptions{}, EvalTools{});
    table5_ok += out.dm_exhaustive ? 1 : 0;
    same_verdicts &= out.dm_exhaustive == corpus.replay.verdicts[i].success;
  }
  t->Expect(identical,
            "corpus k=0 files at seed 0 are byte-identical to Table 5's");
  t->Expect(same_verdicts,
            StrFormat("corpus verdicts equal Table 5's (%d/25)", table5_ok));
}

/// Each check must fail on its injected fault.
void ExpectFaultsCaught(const std::vector<Run>& runs, Selftest* t) {
  ChildResult clean;
  clean.spawned = clean.exited = true;
  clean.exit_code = 0;
  const Run* corpus = nullptr;
  const Run* follow = nullptr;
  for (const Run& w : runs) {
    const std::string dir = w.Path("run");
    bool caught = false;
    if (w.info->kind == WorkloadKind::kLakeCrawl) {
      caught = FlipFirstByte(dir + "/tables") &&
               CheckCrawlOp(w, clean, dir).failed > 0;
    } else {
      caught = FlipFirstByte(dir + "/out") &&
               !CheckCliOp(clean, dir + "/summary.json", dir + "/out",
                           w.replay.ref_digests.back())
                    .ok;
    }
    t->Expect(caught, std::string(w.info->name) +
                          ": a flipped output byte fails the digest check");
    if (w.info->kind == WorkloadKind::kCorpusDiscover) corpus = &w;
    if (w.info->kind == WorkloadKind::kFollowDrift) follow = &w;
  }
  if (corpus != nullptr) {
    const GeneratedDataset& truth = corpus->in.truth.front();
    DatamaranOptions options;
    options.num_threads = corpus->threads;
    const PipelineResult result = Datamaran(options).ExtractText(truth.text);
    const std::vector<RecordUnits> units =
        UnitsFromPipeline(result, truth.text);
    GeneratedDataset perturbed = truth;
    for (auto& alternative : perturbed.alternatives) {
      if (!alternative.empty()) alternative.front().end -= 1;
    }
    t->Expect(CheckExtraction(truth, units).success &&
                  !CheckExtraction(perturbed, units).success,
              truth.name + ": perturbed ground truth fails the criterion");
  }
  if (follow != nullptr) {
    const ReplayResult& r = follow->replay;
    t->Expect(FollowEvolutionsOk(r, r.evolutions) &&
                  !FollowEvolutionsOk(r, r.evolutions + 1),
              "follow_drift: a wrong expected evolution count fails");
  }
}

/// Small-scale run of all four workloads, then every check against an
/// injected fault. Seed 0, so corpus_discover's files are exactly the
/// Table 5 bench's inputs.
int RunSelftest(Flags f, const Programs& progs) {
  Timer timer;
  Selftest t;
  const Scale scale = SelftestScale();
  f.seed = 0;
  f.runs = 1;
  f.seconds = 0;
  f.setup_runs = 3;
  f.trace_only = false;
  ExpectSeedDeterminism(scale, &t);

  std::vector<const WorkloadInfo*> all;
  for (const WorkloadInfo& info : AllWorkloads()) all.push_back(&info);
  auto ran = RunWorkloads(f, scale, progs, all);
  if (!ran.ok()) {
    t.Expect(false, "workloads ran: " + ran.status().ToString());
    return 1;
  }
  const std::vector<Run>& runs = ran.value();
  auto benchmark = LoadJson(f.benchmark_json);
  t.Expect(benchmark.ok(), "read " + f.benchmark_json);
  for (const Run& w : runs) {
    PrintRun(w, true);
    t.Expect(w.correct(), std::string(w.info->name) + ": outputs correct");
    if (benchmark.ok()) ExpectMetricsEmitted(w, benchmark.value(), &t);
    if (w.info->kind == WorkloadKind::kCorpusDiscover) {
      ExpectTable5Identity(w, &t);
    }
  }
  ExpectFaultsCaught(runs, &t);
  t.Expect(timer.Seconds() < 60,
           StrFormat("selftest took %.1f s (< 60 s)", timer.Seconds()));
  std::printf("selftest %s (%d failure(s))\n",
              t.failures ? "FAILED" : "passed", t.failures);
  return t.failures == 0 ? 0 : 1;
}

bool ParseFlags(int argc, char** argv, Flags* f) {
  for (int i = 1; i < argc; ++i) {
    const std::string_view a = argv[i];
    std::string v;
    auto value = [&](std::string_view prefix) {
      if (!StartsWith(a, prefix)) return false;
      v = std::string(a.substr(prefix.size()));
      return true;
    };
    if (value("--seed=")) {
      f->seed = std::strtoull(v.c_str(), nullptr, 10);
    } else if (value("--runs=")) {
      f->runs = std::atoi(v.c_str());
    } else if (value("--seconds=")) {
      f->seconds = std::atof(v.c_str());
    } else if (value("--workload=")) {
      for (std::string_view name : Split(v, ',')) {
        f->workloads.emplace_back(name);
      }
    } else if (value("--baseline=")) {
      f->baseline = v;
    } else if (value("--bin-dir=")) {
      f->bin_dir = v;
    } else if (value("--work-dir=")) {
      f->work_dir = v;
    } else if (value("--json-out=")) {
      f->json_out = v;
    } else if (value("--trace-out=")) {
      f->trace_out = v;
    } else if (value("--benchmark-json=")) {
      f->benchmark_json = v;
    } else if (value("--commit=")) {
      f->commit = v;
    } else if (a == "--trace-only") {
      f->trace_only = true;
    } else if (a == "--selftest") {
      f->selftest = true;
    } else if (a == "--print-inputs") {
      f->print_inputs = true;
    } else {
      std::fprintf(stderr, "unknown flag: %s\n", argv[i]);
      return false;
    }
  }
  return f->runs >= 0 && f->seconds >= 0;
}

int PrintInputs(const Flags& f,
                const std::vector<const WorkloadInfo*>& selected) {
  for (const WorkloadInfo* info : selected) {
    auto in = GenerateInputs(info->kind, f.seed, DefaultScale(), "");
    if (!in.ok()) {
      std::fprintf(stderr, "error: %s\n", in.status().ToString().c_str());
      return 1;
    }
    for (const InputFile& file : in.value().files) {
      std::printf("%s %s %zu %016llx\n", info->name, file.rel_path.c_str(),
                  file.bytes, static_cast<unsigned long long>(file.digest));
    }
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  Flags f;
  if (!ParseFlags(argc, argv, &f)) return 2;
  InstallChildSignalHandlers();
  std::vector<const WorkloadInfo*> selected;
  for (const WorkloadInfo& info : AllWorkloads()) {
    if (f.workloads.empty() ||
        std::count(f.workloads.begin(), f.workloads.end(), info.name) > 0) {
      selected.push_back(&info);
    }
  }
  if (!f.workloads.empty() && selected.size() != f.workloads.size()) {
    std::fprintf(stderr, "unknown workload in --workload\n");
    return 2;
  }
  if (f.print_inputs) return PrintInputs(f, selected);

  const std::string bin = f.bin_dir.empty() ? SelfDir() : f.bin_dir;
  const Programs progs{Abs(bin + "/datamaran_cli"),
                       Abs(bin + "/datamaran_crawl"),
                       Abs(SelfDir() + "/e2e_spawn")};
  for (const std::string& p : {progs.cli, progs.crawl, progs.launcher}) {
    if (access(p.c_str(), X_OK) != 0) {
      std::fprintf(stderr, "error: %s is not executable (see --bin-dir)\n",
                   p.c_str());
      return 1;
    }
  }
  if (f.selftest) return RunSelftest(f, progs);

  auto ran = RunWorkloads(f, DefaultScale(), progs, selected);
  if (!ran.ok()) {
    std::fprintf(stderr, "error: %s\n", ran.status().ToString().c_str());
    return 1;
  }
  bool correct = true;
  for (const Run& w : ran.value()) {
    PrintRun(w, !f.trace_only);
    correct &= w.correct();
  }
  Status written = WriteOutputs(f, ran.value());
  if (!written.ok()) {
    std::fprintf(stderr, "error: %s\n", written.ToString().c_str());
    return 1;
  }
  if (!f.baseline.empty()) correct &= CompareBaseline(f, ran.value());
  return correct ? 0 : 1;
}
