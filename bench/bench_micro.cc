// Micro-benchmarks (google-benchmark) for the pipeline's hot paths:
// record-template extraction, reduction, LL(1) matching (tree and flat),
// hashing-based generation, and MDL scoring. These back the engineering
// claims in DESIGN.md (generation cost per charset, parse-bound
// extraction).
//
// In addition to the google-benchmark micro suite, main() first runs the
// end-to-end pipeline over a GitHub-corpus workload at num_threads=1 and
// num_threads=max(4, hardware) and writes machine-readable results to
// BENCH_micro.json (override the path with DM_BENCH_OUT, the thread count
// with DM_BENCH_THREADS): per-stage wall seconds, MB/s, the speedup,
// whether the two configurations produced byte-identical output, the
// process peak RSS, and the bytes the index-only residual transitions
// materialized (cross-gap windows only — the old per-round string rebuild
// is gone). A second section extracts one large synthetic file the way
// the CLI reads it — InputReader: the sample read from the file, one scan
// through a 256 KiB window — and from one whole owned buffer, each in its
// own forked child, and fails the process unless the templates, records and
// noise lines hash identically; the windowed child's peak RSS is reported.
// A rotated four-member stitch with a gzip'd member is read the same way
// in its own child: its peak RSS past the child's start must stay under a
// constant 4 MiB whatever the stitch size, and its sample and scan must
// hash identically to OpenInputs' whole buffer, or the process fails.
// A third section compares the two match engines (reference tree walker vs
// compiled bytecode + TemplateSetIndex dispatch) on the discovered
// templates: records/s each, the speedup, and an engine-parity bit; parity
// failure or a speedup below 1.2x fails the process, which is what gates
// the CI smoke job. A fourth section extracts one large synthetic file
// through the collecting sink (O(file): one ParsedValue tree per record)
// and the streaming columnar sink (O(wave): flat events straight to CSV),
// each in its own forked child so each phase has its own peak RSS (every
// peak-RSS case here is measured that way); streaming peak RSS at or
// above 50% of the collecting peak also fails the process. A fifth
// section runs the same gate for the normalized layout:
// NormalizedWriteSink streaming root + child-table CSVs vs collecting
// into NormalizedTables and rendering ToCsv. A sixth section
// ("charset_engine") compares generation's charset-trial tokenization
// under the scalar reference engine vs kSimd (candidate-set parity gates
// the process), then times the two classification kernels, the table walk
// against kSimd's (AVX2 where the CPU has it), on the Dataset line index's
// newline masks and generation's special-character mask (mask parity
// gates the process; speed does not). A "generation" section times one
// exhaustive CandidateGenerator::Run under the scalar engine and under
// kSimd's per-skeleton trials, on a fixed sample and on one where every
// line has its own skeleton (candidate parity gates the process). A seventh
// section ("evaluation") runs the single-thread pipeline with MDL
// bound-based pruning on vs off: byte-identical output and a
// candidate-evaluation speedup (evaluation_s; the shared top-K
// refinement is timed separately as refinement_s) of at least 1.3x gate
// the process. An eighth section ("catalog") crawls a synthetic
// multi-format lake warm (template catalog: discover each format once,
// fingerprint + extract every repeat) vs cold per-file discovery: every
// repeat file must hit, hit extraction must be signature-identical to the
// cold run, and the warm crawl must be at least 5x faster. Every
// best-of-rounds section reports its round count plus best and median so
// the JSON carries run-to-run variance, not a bare point estimate. Future
// PRs track the perf trajectory from that file.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <bit>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

#if defined(__unix__) || defined(__APPLE__)
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>
#endif

#include "bench_common.h"
#include "core/datamaran.h"
#include "core/stream.h"
#include "extraction/extractor.h"
#include "extraction/sinks.h"
#include "template/catalog.h"
#include "util/file_io.h"
#include "util/gzip.h"
#include "util/sampler.h"
#include "core/dataset.h"
#include "core/input.h"
#include "core/options.h"
#include "datagen/github_corpus.h"
#include "datagen/manual_datasets.h"
#include "generation/generator.h"
#include "scoring/mdl.h"
#include "template/compiled.h"
#include "template/dispatch.h"
#include "template/matcher.h"
#include "template/record_template.h"
#include "template/template.h"
#include "util/byte_class.h"
#include "util/char_class.h"
#include "util/hashing.h"
#include "util/rng.h"
#include "util/thread_pool.h"
#include "util/timer.h"

namespace {

using namespace datamaran;

std::string MakeCsv(int rows) {
  Rng rng(1);
  std::string text;
  for (int i = 0; i < rows; ++i) {
    text += std::to_string(rng.Uniform(0, 999)) + "," +
            std::to_string(rng.Uniform(0, 999)) + "," +
            std::to_string(rng.Uniform(0, 999)) + "," +
            std::to_string(rng.Uniform(0, 999)) + "\n";
  }
  return text;
}

void BM_ExtractRecordTemplate(benchmark::State& state) {
  std::string text = MakeCsv(1);
  CharSet cs = CharSet::Of(",\n");
  std::string out;
  for (auto _ : state) {
    out.clear();
    AppendRecordTemplate(text, cs, &out);
    benchmark::DoNotOptimize(out);
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(text.size()));
}
BENCHMARK(BM_ExtractRecordTemplate);

void BM_ReduceToCanonical(benchmark::State& state) {
  std::string rt = "F,F,F,F,F,F,F,F\n";
  ReduceWorkspace ws;
  std::string out;
  for (auto _ : state) {
    ReduceToCanonical(rt, &ws, &out);
    benchmark::DoNotOptimize(out);
  }
}
BENCHMARK(BM_ReduceToCanonical);

void BM_ReduceNested(benchmark::State& state) {
  std::string rt = "F,F,F;F,F,F;F,F,F;F,F,F\n";
  ReduceWorkspace ws;
  std::string out;
  for (auto _ : state) {
    ReduceToCanonical(rt, &ws, &out);
    benchmark::DoNotOptimize(out);
  }
}
BENCHMARK(BM_ReduceNested);

void BM_Ll1Match(benchmark::State& state) {
  auto st = StructureTemplate::FromCanonical("(F,)*F\n");
  TemplateMatcher matcher(&st.value());
  std::string text = MakeCsv(100);
  Dataset data(std::move(text));
  for (auto _ : state) {
    size_t total = 0;
    for (size_t li = 0; li < data.line_count(); ++li) {
      auto m = matcher.TryMatch(data.text(), data.line_begin(li));
      if (m.has_value()) total += m->end;
    }
    benchmark::DoNotOptimize(total);
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(data.size_bytes()));
}
BENCHMARK(BM_Ll1Match);

void BM_Ll1Parse(benchmark::State& state) {
  auto st = StructureTemplate::FromCanonical("(F,)*F\n");
  TemplateMatcher matcher(&st.value());
  Dataset data(MakeCsv(100));
  for (auto _ : state) {
    for (size_t li = 0; li < data.line_count(); ++li) {
      auto v = matcher.Parse(data.text(), data.line_begin(li));
      benchmark::DoNotOptimize(v);
    }
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(data.size_bytes()));
}
BENCHMARK(BM_Ll1Parse);

// The allocation-free flat parse used by the MDL scoring loop; compare
// against BM_Ll1Parse to see the cost of materializing ParsedValue trees.
void BM_Ll1ParseFlat(benchmark::State& state) {
  auto st = StructureTemplate::FromCanonical("(F,)*F\n");
  TemplateMatcher matcher(&st.value());
  Dataset data(MakeCsv(100));
  std::vector<MatchEvent> events;
  for (auto _ : state) {
    for (size_t li = 0; li < data.line_count(); ++li) {
      auto v = matcher.ParseFlat(data.text(), data.line_begin(li), &events);
      benchmark::DoNotOptimize(v);
    }
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(data.size_bytes()));
}
BENCHMARK(BM_Ll1ParseFlat);

// The compiled bytecode counterpart of BM_Ll1Match: same template, same
// text, matching through CompiledTemplate instead of the tree walker.
void BM_CompiledMatch(benchmark::State& state) {
  auto st = StructureTemplate::FromCanonical("(F,)*F\n");
  CompiledTemplate compiled(&st.value());
  std::string text = MakeCsv(100);
  Dataset data(std::move(text));
  for (auto _ : state) {
    size_t total = 0;
    for (size_t li = 0; li < data.line_count(); ++li) {
      auto m = compiled.TryMatch(data.text(), data.line_begin(li));
      if (m.has_value()) total += m->end;
    }
    benchmark::DoNotOptimize(total);
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(data.size_bytes()));
}
BENCHMARK(BM_CompiledMatch);

// Compiled flat parse (events emitted), vs BM_Ll1ParseFlat.
void BM_CompiledParseFlat(benchmark::State& state) {
  auto st = StructureTemplate::FromCanonical("(F,)*F\n");
  CompiledTemplate compiled(&st.value());
  Dataset data(MakeCsv(100));
  std::vector<MatchEvent> events;
  for (auto _ : state) {
    for (size_t li = 0; li < data.line_count(); ++li) {
      auto v = compiled.ParseFlat(data.text(), data.line_begin(li), &events);
      benchmark::DoNotOptimize(v);
    }
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(data.size_bytes()));
}
BENCHMARK(BM_CompiledParseFlat);

void BM_GenerationCharsetPass(benchmark::State& state) {
  Dataset data(MakeCsv(2000));
  DatamaranOptions opts;
  CandidateGenerator gen(&data, &opts);
  CharSet cs = CharSet::Of(",");
  for (auto _ : state) {
    std::vector<CandidateTemplate> out;
    gen.RunCharset(cs, &out);
    benchmark::DoNotOptimize(out);
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(data.size_bytes()));
}
BENCHMARK(BM_GenerationCharsetPass);

void BM_MdlEvaluate(benchmark::State& state) {
  Dataset data(MakeCsv(2000));
  auto st = StructureTemplate::FromCanonical("F,F,F,F\n");
  MdlScorer scorer;
  for (auto _ : state) {
    double score = scorer.Score(data, st.value());
    benchmark::DoNotOptimize(score);
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(data.size_bytes()));
}
BENCHMARK(BM_MdlEvaluate);

// ---------------------------------------------------------------------------
// End-to-end pipeline: single- vs multi-thread throughput on the GitHub
// corpus workload, emitted as BENCH_micro.json.
// ---------------------------------------------------------------------------

struct PipelineRun {
  StepTimings timings;    // summed over all datasets
  size_t bytes = 0;       // total input bytes
  size_t residual_copy_bytes = 0;  // text materialized by residual rounds
  size_t candidates_evaluated = 0;
  size_t candidates_pruned = 0;
  uint64_t signature = kFnvOffset;  // fingerprint of templates + extraction
};

/// Median of a sample (0 when empty). Reported next to the best-of value so
/// BENCH_micro.json carries run-to-run variance, not just a point estimate.
double Median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

#if defined(__unix__) || defined(__APPLE__)
/// ru_maxrss in bytes.
size_t MaxRssBytes(const struct rusage& usage) {
#if defined(__APPLE__)
  return static_cast<size_t>(usage.ru_maxrss);  // bytes on macOS
#else
  return static_cast<size_t>(usage.ru_maxrss) * 1024;  // KB on Linux
#endif
}
#endif

/// Process peak resident set size in bytes (0 when unavailable).
size_t PeakRssBytes() {
#if defined(__unix__) || defined(__APPLE__)
  struct rusage usage;
  if (getrusage(RUSAGE_SELF, &usage) != 0) return 0;
  return MaxRssBytes(usage);
#else
  return 0;
#endif
}

/// A case run in its own process: the case's result and that process's
/// peak RSS. `isolated` is false when no child could be forked (the case
/// then ran in this process and its peak is the process-wide one) or the
/// child failed (the result is then default, which fails the case).
template <typename T>
struct ChildRun {
  T result{};
  size_t peak_rss = 0;  // bytes
  bool isolated = false;
};

/// Runs `fn` in a forked child, passes its trivially copyable result back
/// through a pipe, and takes the child's peak RSS from wait4's ru_maxrss.
/// Every memory case gets its own high-water mark this way, instead of a
/// process-wide one whose floor is whatever earlier sections left on the
/// heap. A forked child starts as a copy of this process, so its peak also
/// counts the parent's resident pages at fork time: the memory cases run
/// first, while that is a few MB and the same for every case.
template <typename T, typename Fn>
ChildRun<T> RunInChild(Fn fn) {
  static_assert(std::is_trivially_copyable_v<T>);
  ChildRun<T> run;
#if defined(__unix__) || defined(__APPLE__)
  int fds[2];
  if (pipe(fds) == 0) {
    std::fflush(nullptr);  // the child must not re-emit buffered output
    const pid_t pid = fork();
    if (pid == 0) {
      close(fds[0]);
      const T result = fn();
      const bool sent = write(fds[1], &result, sizeof(T)) ==
                        static_cast<ssize_t>(sizeof(T));
      _exit(sent ? 0 : 1);
    }
    close(fds[1]);
    if (pid > 0) {
      T result{};
      size_t got = 0;
      char* dst = reinterpret_cast<char*>(&result);
      while (got < sizeof(T)) {
        const ssize_t n = read(fds[0], dst + got, sizeof(T) - got);
        if (n <= 0) break;
        got += static_cast<size_t>(n);
      }
      close(fds[0]);
      int status = 0;
      struct rusage usage;
      if (wait4(pid, &status, 0, &usage) == pid && WIFEXITED(status) &&
          WEXITSTATUS(status) == 0 && got == sizeof(T)) {
        run.result = result;
        run.peak_rss = MaxRssBytes(usage);
        run.isolated = true;
      }
      return run;
    }
    close(fds[0]);
  }
#endif
  run.result = fn();
  run.peak_rss = PeakRssBytes();
  return run;
}

void HashSizeT(uint64_t* h, size_t v) {
  for (int b = 0; b < 8; ++b) {
    *h = Fnv1aByte(*h, static_cast<unsigned char>(v >> (b * 8)));
  }
}

PipelineRun RunPipelineWorkload(
    const std::vector<std::string>& texts, int num_threads,
    std::vector<std::vector<StructureTemplate>>* templates_out = nullptr,
    const DatamaranOptions* base_options = nullptr) {
  DatamaranOptions opts =
      base_options != nullptr ? *base_options : DatamaranOptions();
  opts.num_threads = num_threads;
  Datamaran dm(opts);
  PipelineRun run;
  for (const std::string& text : texts) {
    run.bytes += text.size();
    PipelineResult r = dm.ExtractText(text);
    if (templates_out != nullptr) templates_out->push_back(r.templates);
    run.residual_copy_bytes += r.stats.residual_copy_bytes;
    run.candidates_evaluated += r.stats.candidates_evaluated;
    run.candidates_pruned += r.stats.candidates_pruned;
    run.timings.generation_s += r.timings.generation_s;
    run.timings.pruning_s += r.timings.pruning_s;
    run.timings.evaluation_s += r.timings.evaluation_s;
    run.timings.refinement_s += r.timings.refinement_s;
    run.timings.extraction_s += r.timings.extraction_s;
    run.timings.total_s += r.timings.total_s;
    // Fingerprint everything downstream consumers would see: the accepted
    // templates and the full record/noise segmentation.
    for (const StructureTemplate& st : r.templates) {
      run.signature = Fnv1a(st.canonical(), run.signature);
    }
    for (const ExtractedRecord& rec : r.extraction.records) {
      HashSizeT(&run.signature, static_cast<size_t>(rec.template_id));
      HashSizeT(&run.signature, rec.begin);
      HashSizeT(&run.signature, rec.end);
      HashSizeT(&run.signature, rec.first_line);
    }
    for (size_t noise : r.extraction.noise_lines) {
      HashSizeT(&run.signature, noise);
    }
  }
  return run;
}

// ---------------------------------------------------------------------------
// Match-engine microbench: the extraction-style greedy first-match scan over
// the GitHub-corpus workload, tree walker (try every template in priority
// order) vs compiled bytecode with first-byte TemplateSetIndex dispatch —
// the before/after of the compiled-matching PR. Records/s, speedup, and an
// identical-output parity bit land in BENCH_micro.json; parity failure or a
// speedup below 1.2x fails the process (the CI smoke gate).
// ---------------------------------------------------------------------------

struct EngineScan {
  uint64_t signature = kFnvOffset;
  size_t records = 0;
  size_t lines = 0;
};

/// One workload dataset with both engines' matchers prebuilt — setup cost
/// (template lowering, index construction) is paid once, like the pipeline
/// pays it once per stage, so the timed loops measure pure matching.
struct PreparedDataset {
  Dataset data;
  std::vector<StructureTemplate> templates;
  std::vector<int> spans;
  std::vector<TemplateMatcher> tree;
  std::vector<RecordMatcher> compiled;
  TemplateSetIndex index;

  PreparedDataset(std::string text, std::vector<StructureTemplate> ts)
      : data(std::move(text)), templates(std::move(ts)) {
    for (const StructureTemplate& st : templates) {
      spans.push_back(std::max(1, st.line_span()));
      tree.emplace_back(&st);
    }
    compiled = BuildMatchers(templates, MatchEngine::kCompiled);
    index = TemplateSetIndex(compiled);
  }
  PreparedDataset(PreparedDataset&&) = delete;  // matchers point into *this
};

/// `with_signature` folds every outcome into a parity fingerprint; the
/// timed throughput passes turn it off so both engines are measured on
/// matching alone.
EngineScan ScanOnce(const PreparedDataset& ds, bool use_compiled,
                    bool with_signature = false) {
  EngineScan out;
  const std::string_view text = ds.data.text();
  const size_t n = ds.data.line_count();
  out.lines = n;

  auto emit = [&](int hit, size_t end, size_t* li) {
    if (hit >= 0) {
      out.records++;
      if (with_signature) {
        HashSizeT(&out.signature, static_cast<size_t>(hit));
        HashSizeT(&out.signature, end);
      }
      *li += static_cast<size_t>(ds.spans[static_cast<size_t>(hit)]);
    } else {
      ++*li;
    }
  };

  if (use_compiled) {
    // Same dispatch policy as Extractor::MatchAt: singleton sets answer
    // from the matcher's FIRST set, larger sets go through the index.
    const bool singleton = ds.compiled.size() == 1;
    size_t li = 0;
    while (li < n) {
      const unsigned char first =
          static_cast<unsigned char>(text[ds.data.line_begin(li)]);
      int hit = -1;
      size_t end = 0;
      if (singleton) {
        if (ds.compiled[0].CanStartWith(first)) {
          auto m = ds.compiled[0].TryMatch(text, ds.data.line_begin(li));
          if (m.has_value()) {
            hit = 0;
            end = m->end;
          }
        }
      } else {
        for (uint16_t t : ds.index.Candidates(first)) {
          auto m = ds.compiled[t].TryMatch(text, ds.data.line_begin(li));
          if (m.has_value()) {
            hit = static_cast<int>(t);
            end = m->end;
            break;
          }
        }
      }
      emit(hit, end, &li);
    }
  } else {
    size_t li = 0;
    while (li < n) {
      int hit = -1;
      size_t end = 0;
      for (size_t t = 0; t < ds.tree.size(); ++t) {
        auto m = ds.tree[t].TryMatch(text, ds.data.line_begin(li));
        if (m.has_value()) {
          hit = static_cast<int>(t);
          end = m->end;
          break;
        }
      }
      emit(hit, end, &li);
    }
  }
  return out;
}

/// One timed block: `reps` full-workload scans. Returns records/second.
double TimeScanBlock(
    const std::vector<std::unique_ptr<PreparedDataset>>& datasets,
    bool use_compiled, int reps) {
  size_t records = 0;
  Timer timer;
  for (int r = 0; r < reps; ++r) {
    for (const auto& ds : datasets) {
      records += ScanOnce(*ds, use_compiled).records;
    }
  }
  const double s = timer.Seconds();
  return s > 0 ? static_cast<double>(records) / s : 0;
}

/// Per-round records/second for both engines, measured in alternating
/// rounds: background load only ever slows a round down, so the fastest
/// round is the cleanest throughput estimate, the median shows the spread,
/// and alternation keeps cache/frequency drift from favoring whichever
/// engine runs last.
void MeasureEngines(
    const std::vector<std::unique_ptr<PreparedDataset>>& datasets,
    double min_seconds, std::vector<double>* tree_rates,
    std::vector<double>* compiled_rates) {
  constexpr int kRounds = 3;
  // Calibrate block size on the tree engine so each round carries
  // comparable, non-trivial work.
  Timer calibrate;
  (void)TimeScanBlock(datasets, /*use_compiled=*/false, 1);
  const double once = calibrate.Seconds();
  const double per_block = min_seconds / kRounds;
  const int reps =
      once > 0 ? std::max(1, static_cast<int>(per_block / once)) : 1;
  for (int round = 0; round < kRounds; ++round) {
    tree_rates->push_back(
        TimeScanBlock(datasets, /*use_compiled=*/false, reps));
    compiled_rates->push_back(
        TimeScanBlock(datasets, /*use_compiled=*/true, reps));
  }
}

/// Runs the engine comparison; writes the "match_engine" JSON object to `f`
/// (preceded by a comma) and returns true when output parity holds and the
/// compiled engine is not a >20% regression against the 1.5x target.
bool RunMatchEngineBench(FILE* f, const std::vector<std::string>& texts,
                         std::vector<std::vector<StructureTemplate>> templates,
                         bool quick) {
  std::vector<std::unique_ptr<PreparedDataset>> datasets;
  for (size_t i = 0; i < texts.size() && i < templates.size(); ++i) {
    if (templates[i].empty()) continue;  // nothing to match against
    datasets.push_back(std::make_unique<PreparedDataset>(
        texts[i], std::move(templates[i])));
  }
  if (datasets.empty()) {
    std::fprintf(f, ",\n  \"match_engine\": {\"skipped\": true}");
    return true;
  }

  // Parity first: one scan per engine must segment every dataset
  // identically.
  bool identical = true;
  size_t lines = 0;
  for (const auto& ds : datasets) {
    EngineScan tree = ScanOnce(*ds, /*use_compiled=*/false,
                               /*with_signature=*/true);
    EngineScan comp = ScanOnce(*ds, /*use_compiled=*/true,
                               /*with_signature=*/true);
    identical = identical && tree.signature == comp.signature &&
                tree.records == comp.records;
    lines += tree.lines;
  }

  const double min_seconds = quick ? 0.3 : 1.0;
  std::vector<double> tree_rates, compiled_rates;
  MeasureEngines(datasets, min_seconds, &tree_rates, &compiled_rates);
  const double tree_rate =
      *std::max_element(tree_rates.begin(), tree_rates.end());
  const double compiled_rate =
      *std::max_element(compiled_rates.begin(), compiled_rates.end());
  const double speedup = tree_rate > 0 ? compiled_rate / tree_rate : 0;

  std::printf("match engines: tree %.0f records/s, compiled %.0f records/s "
              "(%.2fx over %zu rounds), identical: %s\n",
              tree_rate, compiled_rate, speedup, tree_rates.size(),
              identical ? "yes" : "NO — ENGINE PARITY BUG");

  std::fprintf(f,
               ",\n"
               "  \"match_engine\": {\n"
               "    \"datasets\": %zu,\n"
               "    \"lines\": %zu,\n"
               "    \"rounds\": %zu,\n"
               "    \"tree_records_per_s\": %.1f,\n"
               "    \"tree_records_per_s_median\": %.1f,\n"
               "    \"compiled_records_per_s\": %.1f,\n"
               "    \"compiled_records_per_s_median\": %.1f,\n"
               "    \"speedup\": %.3f,\n"
               "    \"identical_output\": %s\n"
               "  }",
               datasets.size(), lines, tree_rates.size(), tree_rate,
               Median(tree_rates), compiled_rate, Median(compiled_rates),
               speedup, identical ? "true" : "false");
  // 1.5x is the target; below 1.2x counts as a >20% throughput regression.
  return identical && speedup >= 1.2;
}

double MbPerSec(size_t bytes, double seconds) {
  return seconds <= 0 ? 0 : static_cast<double>(bytes) / (1024.0 * 1024.0) /
                                seconds;
}

// ---------------------------------------------------------------------------
// Streaming-sink memory case: the collecting sink materializes one
// ParsedValue tree per record (O(file) memory); the columnar streaming sink
// consumes the flat event stream and flushes per wave (O(wave) memory).
// Both paths extract the same large synthetic file, each in its own forked
// child (RunInChild) so each has its own peak RSS. Streaming peak RSS >=
// 50% of the collecting peak — or a record-count mismatch — fails the
// process (the CI smoke gate).
// ---------------------------------------------------------------------------

// ---------------------------------------------------------------------------
// Large-file extraction: windowed reader vs whole buffer
// ---------------------------------------------------------------------------

/// Hashes every decision of a scan: each record's template, stream line,
/// event count and bytes, each noise line's index and bytes. Index-only
/// noise (the whole-buffer scan) is resolved against `data`.
class HashingSink : public EventSink {
 public:
  explicit HashingSink(const Dataset* data) : data_(data) {}
  void OnRecord(int template_id, size_t first_line, std::string_view text,
                size_t pos, size_t end, const MatchEvent* /*events*/,
                size_t num_events) override {
    HashSizeT(&sig, static_cast<size_t>(template_id));
    HashSizeT(&sig, first_line);
    HashSizeT(&sig, num_events);
    sig = Fnv1a(text.substr(pos, end - pos), sig);
  }
  void OnNoiseLine(size_t line_index) override {
    OnNoiseText(line_index, data_->line_with_newline(line_index));
  }
  void OnNoiseText(size_t line_index, std::string_view line) override {
    HashSizeT(&sig, line_index);
    sig = Fnv1a(line, sig);
  }
  uint64_t sig = kFnvOffset;

 private:
  const Dataset* data_;
};

/// One side of the window case, as reported back from its child process.
struct WindowPhase {
  uint64_t sig = 0;
  double seconds = 0;
  bool ok = false;
};

struct WindowCase {
  size_t bytes = 0;
  double window_s = 0;
  double whole_s = 0;
  size_t window_peak = 0;  // bytes, child process peak
  size_t whole_peak = 0;
  bool isolated = false;   // both sides ran in their own child process
  bool identical = false;
};

/// The CLI's batch sequence on one large synthetic file, two ways, each in
/// its own forked child: through InputReader (the sample read from the
/// file, templates resolved on it, one scan through the window) and on one
/// whole owned buffer (OpenInputs, ResolveTemplates on the Dataset, one
/// ExtractEvents). Templates, records and noise must hash identically.
WindowCase RunWindowCase(int threads, bool quick) {
  WindowCase out;
  const std::string path = "bench_micro_window_input.tmp";
  {
    const size_t target = quick ? 2 * 1024 * 1024 : 16 * 1024 * 1024;
    Rng rng(5);
    std::string big;
    big.reserve(target + 128);
    while (big.size() < target) {
      big += std::to_string(rng.Uniform(0, 999999)) + "," +
             std::to_string(rng.Uniform(0, 999)) + "," +
             std::to_string(rng.Uniform(0, 999)) + "\n";
      if (rng.Bernoulli(0.02)) big += "## unstructured comment line\n";
    }
    out.bytes = big.size();
    if (!WriteStringToFile(path, big).ok()) return out;
  }  // freed before forking: a child's peak counts the parent's pages
  DatamaranOptions opts;
  opts.num_threads = threads;
  const auto hash_templates = [](const PipelineResult& r, uint64_t* sig) {
    for (const StructureTemplate& st : r.templates) {
      *sig = Fnv1a(st.canonical(), *sig);
    }
  };
  const auto windowed = RunInChild<WindowPhase>([&] {
    WindowPhase p;
    Datamaran dm(opts);
    Timer timer;
    auto reader = InputReader::Open({path}, MakeInputOptions(opts));
    if (!reader.ok()) return p;
    PipelineResult r;
    {
      std::optional<Dataset> sample_copy;
      auto sample = reader->ReadSample(MakeSamplerOptions(opts), &sample_copy);
      if (!sample.ok()) return p;
      r = dm.ResolveTemplates(sample.value());
    }
    const Extractor extractor(&r.templates, dm.pool());
    HashingSink sink(nullptr);
    hash_templates(r, &sink.sig);
    if (!reader->Scan(extractor, &sink).ok()) return p;
    p.seconds = timer.Seconds();
    p.sig = sink.sig;
    p.ok = true;
    return p;
  });
  const auto whole = RunInChild<WindowPhase>([&] {
    WindowPhase p;
    Datamaran dm(opts);
    Timer timer;
    auto data = OpenInputs({path}, MakeInputOptions(opts));
    if (!data.ok()) return p;
    const PipelineResult r = dm.ResolveTemplates(data.value());
    const Extractor extractor(&r.templates, dm.pool());
    HashingSink sink(&data.value());
    hash_templates(r, &sink.sig);
    extractor.ExtractEvents(DatasetView(data.value()), &sink);
    p.seconds = timer.Seconds();
    p.sig = sink.sig;
    p.ok = true;
    return p;
  });
  std::remove(path.c_str());
  out.window_s = windowed.result.seconds;
  out.whole_s = whole.result.seconds;
  out.window_peak = windowed.peak_rss;
  out.whole_peak = whole.peak_rss;
  out.isolated = windowed.isolated && whole.isolated;
  out.identical = windowed.result.ok && whole.result.ok &&
                  windowed.result.sig == whole.result.sig;
  std::printf("large-file (%zu MB): windowed %.3fs (%.2f MB/s, peak %.1f MB), "
              "whole buffer %.3fs (peak %.1f MB), identical: %s\n",
              out.bytes >> 20, out.window_s, MbPerSec(out.bytes, out.window_s),
              static_cast<double>(out.window_peak) / (1 << 20), out.whole_s,
              static_cast<double>(out.whole_peak) / (1 << 20),
              out.identical ? "yes" : "NO — WINDOW BUG");
  return out;
}

struct SinkCase {
  size_t bytes = 0;
  size_t records = 0;
  size_t streaming_peak = 0;   // bytes, child process peak when gated
  size_t collecting_peak = 0;  // bytes, child process peak when gated
  double streaming_s = 0;
  double collecting_s = 0;
  bool counts_match = false;
  bool rss_gated = false;  // both phases ran in their own child process
  bool ok = false;
};

/// One phase of a sink case, as reported back from its child process.
struct SinkPhase {
  size_t bytes = 0;
  size_t records = 0;
  size_t covered = 0;
  size_t child_rows = 0;  // normalized layout: rows of the array table
  double seconds = 0;
  bool ok = false;
};

/// The shared corpus for both sink memory cases (denormalized and
/// normalized gates must measure the same workload shape): comma lists
/// of 3-7 fields matching "(F,)*F\n", plus ~2% noise. A line starting
/// with the separator cannot parse (fields are non-empty), so the noise
/// lines are genuine noise for that template.
std::string MakeSinkCorpus(uint64_t seed, bool quick) {
  const size_t target_bytes = quick ? 6 * 1024 * 1024 : 16 * 1024 * 1024;
  Rng rng(seed);
  std::string big;
  big.reserve(target_bytes + 128);
  while (big.size() < target_bytes) {
    const int reps = static_cast<int>(rng.Uniform(3, 7));
    for (int r = 0; r < reps; ++r) {
      big += std::to_string(rng.Uniform(0, 99999));
      if (r + 1 < reps) big += ",";
    }
    big += "\n";
    if (rng.Bernoulli(0.02)) big += ",noise\n";
  }
  return big;
}

std::vector<StructureTemplate> SinkTemplates() {
  std::vector<StructureTemplate> templates;
  templates.push_back(std::move(
      StructureTemplate::FromCanonical("(F,)*F\n").value()));
  return templates;
}

/// Runs the streaming and the collecting phase of a sink case, each in its
/// own child, then applies the shared gate: streaming peak RSS at or above
/// 50% of the collecting peak — or a count mismatch — clears `ok`, which
/// fails the process (the CI smoke gate). `normalized` also compares the
/// array-table row counts.
SinkCase GateSinkCase(const char* label, bool normalized,
                      const ChildRun<SinkPhase>& streaming,
                      const ChildRun<SinkPhase>& collecting) {
  SinkCase out;
  out.bytes = streaming.result.bytes;
  out.records = collecting.result.records;
  out.streaming_peak = streaming.peak_rss;
  out.collecting_peak = collecting.peak_rss;
  out.streaming_s = streaming.result.seconds;
  out.collecting_s = collecting.result.seconds;
  out.rss_gated = streaming.isolated && collecting.isolated;
  out.counts_match =
      streaming.result.ok && collecting.result.ok &&
      streaming.result.records == collecting.result.records &&
      streaming.result.covered == collecting.result.covered &&
      (!normalized ||
       streaming.result.child_rows == collecting.result.child_rows);
  const double ratio =
      out.collecting_peak > 0
          ? static_cast<double>(out.streaming_peak) /
                static_cast<double>(out.collecting_peak)
          : 1.0;
  std::printf("%s sink (%zu MB, %zu records): streamed %.3fs "
              "(%.2f MB/s) peak %zu MB, collecting %.3fs peak %zu MB "
              "(%.2fx)%s, counts %s\n",
              label, out.bytes >> 20, out.records, out.streaming_s,
              MbPerSec(out.bytes, out.streaming_s),
              out.streaming_peak >> 20, out.collecting_s,
              out.collecting_peak >> 20, ratio,
              out.rss_gated ? "" : " [peaks not isolated; gate skipped]",
              out.counts_match ? "match" : "MISMATCH — SINK BUG");
  out.ok = out.counts_match && (!out.rss_gated || ratio < 0.5);
  return out;
}

SinkCase RunStreamingSinkCase(int threads, bool quick) {
  const std::vector<StructureTemplate> templates = SinkTemplates();
  const auto streaming = RunInChild<SinkPhase>([&] {
    SinkPhase p;
    Dataset data(MakeSinkCorpus(7, quick));
    p.bytes = data.size_bytes();
    ThreadPool pool(threads);
    Extractor extractor(&templates, &pool);
    const std::string out_dir = "bench_micro_sink_out.tmp";
    Timer timer;
    {
      DatasetView view(data);
      ColumnarWriteSink sink(&templates, view, out_dir);
      ExtractionResult stats = extractor.ExtractEvents(view, &sink);
      const Status finished = sink.Finish();
      if (!finished.ok()) {
        std::fprintf(stderr, "streaming sink: %s\n",
                     finished.ToString().c_str());
      }
      p.ok = finished.ok();
      p.records = sink.stats().total_records;
      p.covered = stats.covered_chars;
    }
    p.seconds = timer.Seconds();
    std::error_code ec;
    std::filesystem::remove_all(out_dir, ec);
    return p;
  });
  const auto collecting = RunInChild<SinkPhase>([&] {
    SinkPhase p;
    Dataset data(MakeSinkCorpus(7, quick));
    ThreadPool pool(threads);
    Extractor extractor(&templates, &pool);
    Timer timer;
    ExtractionResult collected = extractor.Extract(data);
    p.seconds = timer.Seconds();
    p.records = collected.records.size();
    p.covered = collected.covered_chars;
    p.ok = true;
    return p;
  });
  return GateSinkCase("streaming", /*normalized=*/false, streaming,
                      collecting);
}

/// Normalized-layout counterpart of RunStreamingSinkCase: the streaming
/// NormalizedWriteSink (O(wave): flat events to root + child-table CSVs,
/// per-table row-id counters rebased at flush) against what the collecting
/// path used to do — Extract() into ParsedValue trees, materialize the
/// NormalizedTables tree, render ToCsv (all O(file)). Same corpus shape
/// and the same 50% RSS gate.
SinkCase RunNormalizedSinkCase(int threads, bool quick) {
  const std::vector<StructureTemplate> templates = SinkTemplates();
  const auto streaming = RunInChild<SinkPhase>([&] {
    SinkPhase p;
    Dataset data(MakeSinkCorpus(11, quick));
    p.bytes = data.size_bytes();
    ThreadPool pool(threads);
    Extractor extractor(&templates, &pool);
    const std::string out_dir = "bench_micro_norm_out.tmp";
    Timer timer;
    {
      DatasetView view(data);
      NormalizedWriteSink sink(&templates, view, out_dir);
      ExtractionResult stats = extractor.ExtractEvents(view, &sink);
      const Status finished = sink.Finish();
      if (!finished.ok()) {
        std::fprintf(stderr, "normalized sink: %s\n",
                     finished.ToString().c_str());
      }
      p.ok = finished.ok();
      p.records = sink.stats().total_records;
      p.covered = stats.covered_chars;
      p.child_rows = sink.rows_in_table(0, 1);
    }
    p.seconds = timer.Seconds();
    std::error_code ec;
    std::filesystem::remove_all(out_dir, ec);
    return p;
  });
  const auto collecting = RunInChild<SinkPhase>([&] {
    SinkPhase p;
    Dataset data(MakeSinkCorpus(11, quick));
    ThreadPool pool(threads);
    Extractor extractor(&templates, &pool);
    Timer timer;
    ExtractionResult collected = extractor.Extract(data);
    auto tables = NormalizedTables(templates[0], collected.records,
                                   data.text(), 0, "type0");
    size_t collected_bytes = 0;
    for (const Table& table : tables) {
      collected_bytes += table.ToCsv().size();
    }
    p.seconds = timer.Seconds();
    p.records = collected.records.size();
    p.covered = collected.covered_chars;
    p.child_rows = tables[1].row_count();
    p.ok = tables[0].row_count() == p.records && collected_bytes > 0;
    return p;
  });
  return GateSinkCase("normalized", /*normalized=*/true, streaming,
                      collecting);
}

// ---------------------------------------------------------------------------
// Charset-engine microbench: one generation charset trial (tokenize every
// line against an RT-CharSet, reduce, hash candidate boundaries) under the
// scalar reference engine vs kSimd (the generator's shared special-character
// mask, classified with AVX2 where the CPU has it). The candidate sets must
// be identical field for field — a mismatch fails the process. Two kernel
// rows follow, the table walk against kSimd's classifier on the same bytes:
// MaskBlock on '\n' over the whole corpus (the Dataset line-index loop) and
// BuildSpecialMask for the default special-char pool over the corpus lines
// (generation's mask). A mask mismatch fails the process; speed is
// reported, not gated. Throughput is best-of-rounds with median and round
// count.
// ---------------------------------------------------------------------------

/// Best-of-rounds MB/s of a reference sweep and a vectorized one over the
/// same bytes.
struct SweepRates {
  std::vector<double> reference, vectorized;

  double reference_best() const {
    return *std::max_element(reference.begin(), reference.end());
  }
  double vectorized_best() const {
    return *std::max_element(vectorized.begin(), vectorized.end());
  }
  double speedup() const {
    return reference_best() > 0 ? vectorized_best() / reference_best() : 0;
  }
};

/// Times `reference` and `vectorized` — each one sweep over `bytes` bytes,
/// returning a checksum so the sweep cannot be optimized away — in
/// alternating blocks, each sized on the reference to carry `per_block`
/// seconds of comparable, non-trivial work.
template <typename Reference, typename Vectorized>
SweepRates TimeSweeps(size_t bytes, int rounds, double per_block,
                      Reference reference, Vectorized vectorized) {
  auto time_block = [bytes](auto& sweep, int reps) {
    uint64_t checksum = 0;
    Timer timer;
    for (int r = 0; r < reps; ++r) checksum += sweep();
    const double s = timer.Seconds();
    benchmark::DoNotOptimize(checksum);
    return s > 0 ? static_cast<double>(bytes) * static_cast<double>(reps) /
                       (1024.0 * 1024.0) / s
                 : 0;
  };
  Timer calibrate;
  (void)time_block(reference, 1);
  const double once = calibrate.Seconds();
  const int reps =
      once > 0 ? std::max(1, static_cast<int>(per_block / once)) : 1;
  SweepRates rates;
  for (int round = 0; round < rounds; ++round) {
    rates.reference.push_back(time_block(reference, reps));
    rates.vectorized.push_back(time_block(vectorized, reps));
  }
  return rates;
}

/// One kernel row: the table walk against kSimd's classifier.
void PrintKernelRow(FILE* f, const char* label, const char* key,
                    const SweepRates& rates, bool identical, int rounds) {
  std::printf("charset kernel %s: table walk %.1f MB/s, %s %.1f MB/s "
              "(%.2fx over %d rounds), identical: %s\n",
              label, rates.reference_best(), CharsetSimdLevel(),
              rates.vectorized_best(), rates.speedup(), rounds,
              identical ? "yes" : "NO — CHARSET KERNEL PARITY BUG");
  std::fprintf(f,
               "    \"%s\": {\n"
               "      \"table_walk_mb_per_s\": %.3f,\n"
               "      \"table_walk_mb_per_s_median\": %.3f,\n"
               "      \"simd_mb_per_s\": %.3f,\n"
               "      \"simd_mb_per_s_median\": %.3f,\n"
               "      \"speedup\": %.3f,\n"
               "      \"identical\": %s\n"
               "    },\n",
               key, rates.reference_best(), Median(rates.reference),
               rates.vectorized_best(), Median(rates.vectorized),
               rates.speedup(), identical ? "true" : "false");
}

bool RunCharsetEngineBench(FILE* f, bool quick) {
  Dataset data(MakeSinkCorpus(13, quick));
  DatamaranOptions scalar_opts;
  scalar_opts.charset_engine = CharsetEngine::kScalar;
  DatamaranOptions simd_opts;  // default kSimd: AVX2 when the CPU has it
  CandidateGenerator scalar_gen(&data, &scalar_opts);
  CandidateGenerator simd_gen(&data, &simd_opts);
  const CharSet cs = CharSet::Of(",");

  // Parity first: both engines must accumulate identical candidate bins
  // (the vectorized generator built its special-character mask when it was
  // constructed, so the timed rounds below measure the steady state both
  // engines reach across a real search's many trials).
  std::vector<CandidateTemplate> scalar_cands, simd_cands;
  scalar_gen.RunCharset(cs, &scalar_cands);
  simd_gen.RunCharset(cs, &simd_cands);
  bool identical = scalar_cands.size() == simd_cands.size();
  for (size_t i = 0; identical && i < scalar_cands.size(); ++i) {
    identical =
        scalar_cands[i].canonical == simd_cands[i].canonical &&
        scalar_cands[i].coverage == simd_cands[i].coverage &&
        scalar_cands[i].non_field_coverage ==
            simd_cands[i].non_field_coverage &&
        scalar_cands[i].span == simd_cands[i].span &&
        scalar_cands[i].count == simd_cands[i].count &&
        scalar_cands[i].first_line == simd_cands[i].first_line &&
        scalar_cands[i].field_count == simd_cands[i].field_count;
  }

  const int kRounds = quick ? 3 : 5;
  std::vector<CandidateTemplate> out;
  auto trial = [&](CandidateGenerator* gen) {
    out.clear();
    gen->RunCharset(cs, &out);
    return static_cast<uint64_t>(out.size());
  };
  const SweepRates trials = TimeSweeps(
      data.size_bytes(), kRounds, quick ? 0.2 : 0.5,
      [&] { return trial(&scalar_gen); }, [&] { return trial(&simd_gen); });

  const char* engine_name = CharsetEngineName(simd_opts.charset_engine);
  std::printf("charset engines: scalar %.1f MB/s, %s (%s) %.1f MB/s "
              "(%.2fx over %d rounds), identical: %s\n",
              trials.reference_best(), engine_name, CharsetSimdLevel(),
              trials.vectorized_best(), trials.speedup(), kRounds,
              identical ? "yes" : "NO — CHARSET ENGINE PARITY BUG");
  std::fprintf(f,
               ",\n"
               "  \"charset_engine\": {\n"
               "    \"bytes\": %zu,\n"
               "    \"resolved_engine\": \"%s\",\n"
               "    \"simd_level\": \"%s\",\n"
               "    \"rounds\": %d,\n"
               "    \"scalar_mb_per_s\": %.3f,\n"
               "    \"scalar_mb_per_s_median\": %.3f,\n"
               "    \"vectorized_mb_per_s\": %.3f,\n"
               "    \"vectorized_mb_per_s_median\": %.3f,\n"
               "    \"speedup\": %.3f,\n",
               data.size_bytes(), engine_name, CharsetSimdLevel(), kRounds,
               trials.reference_best(), Median(trials.reference),
               trials.vectorized_best(), Median(trials.vectorized),
               trials.speedup());

  // Kernel rows: parity over every mask and every line, then timing.
  const double kernel_block = quick ? 0.1 : 0.25;
  const std::string_view text = data.text();
  CharSet newline;
  newline.Add('\n');
  const ByteClassifier newline_table(newline, CharsetEngine::kScalar);
  const ByteClassifier newline_simd(newline, CharsetEngine::kSimd);
  bool masks_identical = true;
  for (size_t pos = 0; pos < text.size() && masks_identical; pos += 64) {
    masks_identical =
        newline_table.MaskBlock(text, pos) == newline_simd.MaskBlock(text, pos);
  }
  auto count_lines = [&](const ByteClassifier& cls) {
    uint64_t lines = 0;
    for (size_t pos = 0; pos < text.size(); pos += 64) {
      lines += static_cast<uint64_t>(std::popcount(cls.MaskBlock(text, pos)));
    }
    return lines;
  };
  PrintKernelRow(f, "newline mask", "newline_mask",
                 TimeSweeps(text.size(), kRounds, kernel_block,
                            [&] { return count_lines(newline_table); },
                            [&] { return count_lines(newline_simd); }),
                 masks_identical, kRounds);

  // Generation's special-character mask of the corpus lines, built by the
  // generator's own BuildSpecialMask with each kernel.
  const ByteClassifier pool_table(DefaultSpecialChars(),
                                  CharsetEngine::kScalar);
  const ByteClassifier pool_simd(DefaultSpecialChars(), CharsetEngine::kSimd);
  std::vector<uint64_t> special_mask;
  std::vector<size_t> line_bit;
  auto build_mask = [&](const ByteClassifier& cls) {
    BuildSpecialMask(data, cls, &special_mask, &line_bit);
    return static_cast<uint64_t>(special_mask.size());
  };
  build_mask(pool_table);
  const std::vector<uint64_t> want = special_mask;
  build_mask(pool_simd);
  const bool special_identical = special_mask == want;
  PrintKernelRow(f, "special mask", "special_mask",
                 TimeSweeps(text.size(), kRounds, kernel_block,
                            [&] { return build_mask(pool_table); },
                            [&] { return build_mask(pool_simd); }),
                 special_identical, kRounds);

  std::fprintf(f, "    \"identical_candidates\": %s\n  }",
               identical ? "true" : "false");
  return identical && masks_identical && special_identical;
}

// ---------------------------------------------------------------------------
// Generation bench ("generation"): one exhaustive CandidateGenerator,
// constructed and Run, under kScalar (every trial scans every line byte by
// byte) and under kSimd (the constructor interns each line's skeleton, and
// every trial reduces each distinct skeleton once), on two samples: a
// fixed Table 5 dataset (crash_log at its default size), and an
// adversarial one in which every line has its own skeleton, so a trial
// has as many units as lines. The two engines' candidate lists must be
// identical, in order and field for field, or the process fails; times
// (best and median of alternating rounds) and skeletons per line are
// reported, not gated.
// ---------------------------------------------------------------------------

/// `lines` lines of six special characters, where the ',' and ':' between
/// twelve short fields spell the line's index in binary: no two lines share
/// a skeleton.
std::string MakeDistinctSkeletonSample(int lines) {
  Rng rng(41);
  std::string text;
  for (int i = 0; i < lines; ++i) {
    text += '[';
    text += std::to_string(rng.Uniform(0, 9999));
    text += "] k";
    for (int b = 0; b < 12; ++b) {
      text += ((i >> b) & 1) != 0 ? ',' : ':';
      text += std::to_string(rng.Uniform(0, 99));
    }
    text += " =";
    text += std::to_string(rng.Uniform(0, 999999));
    text += '\n';
  }
  return text;
}

/// One sample's row; returns whether the engines' candidates are identical.
bool RunGenerationCase(FILE* f, const char* key, const char* label,
                       const Dataset& sample, int rounds, bool last) {
  DatamaranOptions scalar_opts;
  scalar_opts.charset_engine = CharsetEngine::kScalar;
  const DatamaranOptions simd_opts;  // default kSimd
  auto run = [&sample](const DatamaranOptions& opts, size_t* skeletons) {
    CandidateGenerator gen(&sample, &opts);
    if (skeletons != nullptr) *skeletons = gen.skeleton_count();
    return gen.Run();
  };
  size_t skeletons = 0;
  const GenerationResult scalar = run(scalar_opts, nullptr);
  const GenerationResult simd = run(simd_opts, &skeletons);
  bool identical = scalar.candidates.size() == simd.candidates.size() &&
                   scalar.charsets_tried == simd.charsets_tried;
  for (size_t i = 0; identical && i < scalar.candidates.size(); ++i) {
    const CandidateTemplate& a = scalar.candidates[i];
    const CandidateTemplate& b = simd.candidates[i];
    identical = a.canonical == b.canonical && a.coverage == b.coverage &&
                    a.non_field_coverage == b.non_field_coverage &&
                    a.count == b.count && a.first_line == b.first_line &&
                    a.span == b.span && a.field_count == b.field_count;
  }
  std::vector<double> scalar_s, simd_s;
  for (int round = 0; round < rounds; ++round) {
    for (int engine = 0; engine < 2; ++engine) {
      Timer timer;
      const GenerationResult r =
          run(engine == 0 ? scalar_opts : simd_opts, nullptr);
      benchmark::DoNotOptimize(r.candidates.size());
      (engine == 0 ? scalar_s : simd_s).push_back(timer.Seconds());
    }
  }
  const double scalar_best = *std::min_element(scalar_s.begin(),
                                               scalar_s.end());
  const double simd_best = *std::min_element(simd_s.begin(), simd_s.end());
  const double lines = static_cast<double>(sample.line_count());
  const double per_line = lines > 0 ? static_cast<double>(skeletons) / lines
                                     : 0;
  std::printf("generation %s: %zu lines, %zu skeletons (%.4f per line), "
              "%zu charsets, %zu candidates; scalar %.3f s, kSimd %.3f s "
              "(%.2fx, best of %d), identical: %s\n",
              label, sample.line_count(), skeletons, per_line,
              simd.charsets_tried, simd.candidates.size(), scalar_best,
              simd_best, simd_best > 0 ? scalar_best / simd_best : 0, rounds,
              identical ? "yes" : "NO — GENERATION PARITY BUG");
  std::fprintf(f,
               "    \"%s\": {\n"
               "      \"bytes\": %zu,\n"
               "      \"lines\": %zu,\n"
               "      \"skeletons\": %zu,\n"
               "      \"skeletons_per_line\": %.6f,\n"
               "      \"charsets_tried\": %zu,\n"
               "      \"candidates\": %zu,\n"
               "      \"rounds\": %d,\n"
               "      \"scalar_s\": %.6f,\n"
               "      \"scalar_s_median\": %.6f,\n"
               "      \"simd_s\": %.6f,\n"
               "      \"simd_s_median\": %.6f,\n"
               "      \"identical\": %s\n"
               "    }%s\n",
               key, sample.size_bytes(), sample.line_count(), skeletons,
               per_line, simd.charsets_tried, simd.candidates.size(), rounds,
               scalar_best, Median(scalar_s), simd_best, Median(simd_s),
               identical ? "true" : "false", last ? "" : ",");
  return identical;
}

bool RunGenerationBench(FILE* f, bool quick) {
  const int rounds = quick ? 3 : 5;
  constexpr int kCrashLog = 5;  // BuildManualDataset index
  const Dataset fixed(
      BuildManualDataset(kCrashLog, DefaultManualBytes(kCrashLog)).text);
  const Dataset adversarial(MakeDistinctSkeletonSample(quick ? 1024 : 4096));
  std::fprintf(f, ",\n  \"generation\": {\n");
  const bool fixed_ok = RunGenerationCase(f, "fixed", "crash_log", fixed,
                                          rounds, /*last=*/false);
  const bool adversarial_ok =
      RunGenerationCase(f, "adversarial", "one skeleton per line",
                        adversarial, rounds, /*last=*/true);
  std::fprintf(f, "  }");
  return fixed_ok && adversarial_ok;
}

// ---------------------------------------------------------------------------
// Evaluation fast-path bench: the single-thread pipeline with MDL
// bound-based pruning (waved bounded scoring + canonical batching +
// bounded refinement) vs brute force (every retained candidate scored to
// completion). The outputs must be byte-identical — pruning is provably
// exact — and the candidate-evaluation phase (evaluation_s, which times
// candidate scoring only; the top-K refinement that both runs share is
// reported separately as refinement_s) must be at least 1.3x faster, or
// the process fails (the CI smoke gate).
// ---------------------------------------------------------------------------

bool RunEvaluationBench(FILE* f, const std::vector<std::string>& texts,
                        bool quick) {
  DatamaranOptions pruned_opts;  // default: enable_mdl_pruning = true
  DatamaranOptions brute_opts;
  brute_opts.enable_mdl_pruning = false;
  const int kRounds = quick ? 2 : 3;
  std::vector<double> pruned_eval, brute_eval, pruned_total, brute_total;
  std::vector<double> pruned_refine, brute_refine;
  PipelineRun pruned_run, brute_run;
  bool identical = true;
  for (int round = 0; round < kRounds; ++round) {
    pruned_run = RunPipelineWorkload(texts, 1, nullptr, &pruned_opts);
    brute_run = RunPipelineWorkload(texts, 1, nullptr, &brute_opts);
    identical = identical && pruned_run.signature == brute_run.signature;
    pruned_eval.push_back(pruned_run.timings.evaluation_s);
    brute_eval.push_back(brute_run.timings.evaluation_s);
    pruned_refine.push_back(pruned_run.timings.refinement_s);
    brute_refine.push_back(brute_run.timings.refinement_s);
    pruned_total.push_back(pruned_run.timings.total_s);
    brute_total.push_back(brute_run.timings.total_s);
  }
  const double pruned_best =
      *std::min_element(pruned_eval.begin(), pruned_eval.end());
  const double brute_best =
      *std::min_element(brute_eval.begin(), brute_eval.end());
  const double speedup = pruned_best > 0 ? brute_best / pruned_best : 0;

  std::printf("evaluation: pruned %.3fs vs brute %.3fs (%.2fx over %d "
              "rounds); %zu scored + %zu pruned of %zu; identical: %s\n",
              pruned_best, brute_best, speedup, kRounds,
              pruned_run.candidates_evaluated, pruned_run.candidates_pruned,
              brute_run.candidates_evaluated,
              identical ? "yes" : "NO — PRUNING EXACTNESS BUG");

  std::fprintf(f,
               ",\n"
               "  \"evaluation\": {\n"
               "    \"rounds\": %d,\n"
               "    \"pruned_evaluation_s\": %.6f,\n"
               "    \"pruned_evaluation_s_median\": %.6f,\n"
               "    \"brute_evaluation_s\": %.6f,\n"
               "    \"brute_evaluation_s_median\": %.6f,\n"
               "    \"pruned_refinement_s\": %.6f,\n"
               "    \"brute_refinement_s\": %.6f,\n"
               "    \"pruned_total_s\": %.6f,\n"
               "    \"brute_total_s\": %.6f,\n"
               "    \"candidates_evaluated\": %zu,\n"
               "    \"candidates_pruned\": %zu,\n"
               "    \"brute_candidates_evaluated\": %zu,\n"
               "    \"speedup\": %.3f,\n"
               "    \"identical_output\": %s\n"
               "  }",
               kRounds, pruned_best, Median(pruned_eval), brute_best,
               Median(brute_eval),
               *std::min_element(pruned_refine.begin(), pruned_refine.end()),
               *std::min_element(brute_refine.begin(), brute_refine.end()),
               *std::min_element(pruned_total.begin(), pruned_total.end()),
               *std::min_element(brute_total.begin(), brute_total.end()),
               pruned_run.candidates_evaluated, pruned_run.candidates_pruned,
               brute_run.candidates_evaluated, speedup,
               identical ? "true" : "false");
  // 1.3x is the gate: below it the fast path is not paying for itself.
  return identical && speedup >= 1.3;
}

// ---------------------------------------------------------------------------
// Catalog fast path ("catalog" section): a warm crawl over a synthetic lake
// — discover each format once on first miss, fingerprint + compiled-match
// extract every later file of that format — against the cold baseline that
// pays full per-file discovery. The gate is threefold: every repeat file
// must hit the catalog, hit extraction must be signature-identical to the
// cold run's, and the warm crawl must finish at least 5x faster.
// ---------------------------------------------------------------------------

/// One synthetic lake file of the given format (0..2: key-value log, CSV,
/// pipe-delimited), with ~1% comment noise lines.
std::string MakeLakeFile(int format, uint64_t seed, size_t target_bytes) {
  Rng rng(seed);
  std::string out;
  out.reserve(target_bytes + 64);
  while (out.size() < target_bytes) {
    switch (format) {
      case 0:
        out += "host" + std::to_string(rng.Uniform(0, 999)) + "=" +
               std::to_string(rng.Uniform(0, 9999)) +
               ";lat=" + std::to_string(rng.Uniform(1, 500)) + ";\n";
        break;
      case 1:
        out += std::to_string(rng.Uniform(0, 999999)) + "," +
               std::to_string(rng.Uniform(0, 999)) + "," +
               std::to_string(rng.Uniform(0, 999)) + "\n";
        break;
      default:
        out += "u";
        out += std::to_string(rng.Uniform(0, 99)) + "|op" +
               std::to_string(rng.Uniform(0, 9)) + "|" +
               std::to_string(rng.Uniform(0, 99999)) + "|ok\n";
        break;
    }
    // Comment noise only in the key-value format: a periodic noise line
    // makes the winning template set content-dependent in the other two
    // (multi-line candidates ending at the comment flip in and out of
    // acceptance), and this gate needs per-format discovery to be stable
    // so warm extraction can be signature-compared to cold.
    if (format == 0 && rng.Bernoulli(0.01)) out += "## maintenance note\n";
  }
  return out;
}

uint64_t ExtractionSignature(const std::vector<StructureTemplate>& templates,
                             const ExtractionResult& extraction) {
  uint64_t sig = kFnvOffset;
  for (const StructureTemplate& st : templates) {
    sig = Fnv1a(st.canonical(), sig);
  }
  for (const ExtractedRecord& rec : extraction.records) {
    HashSizeT(&sig, static_cast<size_t>(rec.template_id));
    HashSizeT(&sig, rec.begin);
    HashSizeT(&sig, rec.end);
  }
  for (size_t noise : extraction.noise_lines) HashSizeT(&sig, noise);
  return sig;
}

/// Streaming equivalent of ExtractionSignature: hashes records as they
/// arrive (scan order == collected order) and defers the noise lines to
/// Finish() so the digest matches the collecting form records-then-noise.
/// This is the O(wave) path the crawler runs, so the warm side of the gate
/// times what the product actually does — no per-record tree allocation.
class SignatureSink : public EventSink {
 public:
  explicit SignatureSink(const std::vector<StructureTemplate>* templates) {
    for (const StructureTemplate& st : *templates) {
      sig_ = Fnv1a(st.canonical(), sig_);
    }
  }

  void OnRecord(int template_id, size_t /*first_line*/,
                std::string_view /*text*/, size_t pos, size_t end,
                const MatchEvent* /*events*/,
                size_t /*num_events*/) override {
    HashSizeT(&sig_, static_cast<size_t>(template_id));
    HashSizeT(&sig_, pos);
    HashSizeT(&sig_, end);
  }

  void OnNoiseLine(size_t line_index) override {
    noise_lines_.push_back(line_index);
  }

  uint64_t Finish() {
    for (size_t noise : noise_lines_) HashSizeT(&sig_, noise);
    return sig_;
  }

 private:
  uint64_t sig_ = kFnvOffset;
  std::vector<size_t> noise_lines_;
};

bool RunCatalogBench(FILE* f, bool quick) {
  constexpr int kFormats = 3;
  const int files_per_format = quick ? 3 : 6;
  const size_t file_bytes = quick ? 96 * 1024 : 192 * 1024;

  // Interleave the formats so the warm crawl grows its catalog mid-stream
  // (miss, fold, then hit) rather than format by format.
  std::vector<Dataset> lake;
  for (int i = 0; i < files_per_format; ++i) {
    for (int fmt = 0; fmt < kFormats; ++fmt) {
      lake.emplace_back(
          MakeLakeFile(fmt, 1000 + static_cast<uint64_t>(i) * kFormats + fmt,
                       file_bytes));
    }
  }

  DatamaranOptions opts;
  opts.num_threads = 1;
  const Datamaran dm(opts);

  // Cold baseline: every file pays full discovery + extraction.
  std::vector<uint64_t> cold_sigs(lake.size());
  double cold_discovery_s = 0;
  Timer cold_timer;
  for (size_t i = 0; i < lake.size(); ++i) {
    const PipelineResult r = dm.ExtractDataset(lake[i]);
    cold_sigs[i] = ExtractionSignature(r.templates, r.extraction);
    cold_discovery_s += r.timings.total_s - r.timings.extraction_s;
  }
  const double cold_s = cold_timer.Seconds();

  // Catalog build (the amortized, once-per-format cost, reported but not
  // part of the warm per-file path): discover one exemplar of each format
  // and fold it in — exactly what a crawl's first miss of the format does.
  TemplateCatalog catalog;
  Timer build_timer;
  for (int fmt = 0; fmt < kFormats; ++fmt) {
    StepTimings discover_timings;
    PipelineStats discover_stats;
    std::vector<TemplateReport> reports;
    dm.DiscoverTemplates(lake[static_cast<size_t>(fmt)], &discover_timings,
                         &discover_stats, &reports);
    catalog.AddEntry(CatalogEntryFromReports(reports));
  }
  const double build_s = build_timer.Seconds();

  // Warm pass: every file served from the catalog — fingerprint + extract,
  // no discovery.
  CatalogMatchOptions match_opts;
  // A fingerprint decides accept/reject, it does not rank candidates — a
  // 32 KB spread sample is plenty and keeps the warm path's fixed cost
  // well under one discovery sample scan.
  match_opts.max_sample_bytes = 32 * 1024;
  size_t hits = 0;
  bool parity = true;
  double fingerprint_s = 0;
  Timer warm_timer;
  for (size_t i = 0; i < lake.size(); ++i) {
    Timer fp;
    const CatalogMatch m = MatchCatalog(catalog, lake[i], match_opts);
    fingerprint_s += fp.Seconds();
    if (!m.hit()) continue;
    ++hits;
    const std::vector<StructureTemplate>& templates =
        catalog.entry(static_cast<size_t>(m.entry)).templates;
    const Extractor extractor(&templates);
    SignatureSink sink(&templates);
    extractor.ExtractEvents(DatasetView(lake[i]), &sink);
    parity = parity && sink.Finish() == cold_sigs[i];
  }
  const double warm_s = warm_timer.Seconds();

  const size_t total = lake.size();
  const bool all_hit = hits == total;
  const double speedup = warm_s > 0 ? cold_s / warm_s : 0;
  std::printf("catalog: cold %.3fs (%.3fs discovery) vs warm %.3fs "
              "(%zu/%zu hits, fingerprint %.3fs; build %.3fs amortized) "
              "= %.2fx; identical: %s\n",
              cold_s, cold_discovery_s, warm_s, hits, total, fingerprint_s,
              build_s, speedup, parity ? "yes" : "NO — CATALOG PARITY BUG");

  std::fprintf(f,
               ",\n"
               "  \"catalog\": {\n"
               "    \"formats\": %d,\n"
               "    \"files\": %zu,\n"
               "    \"file_bytes\": %zu,\n"
               "    \"cold_s\": %.6f,\n"
               "    \"cold_discovery_s\": %.6f,\n"
               "    \"build_s\": %.6f,\n"
               "    \"warm_s\": %.6f,\n"
               "    \"fingerprint_s\": %.6f,\n"
               "    \"hits\": %zu,\n"
               "    \"speedup\": %.3f,\n"
               "    \"identical_output\": %s\n"
               "  }",
               kFormats, total, file_bytes, cold_s, cold_discovery_s, build_s,
               warm_s, fingerprint_s, hits, speedup,
               parity ? "true" : "false");
  // 5x is the gate: with discovery amortized into the catalog, serving a
  // file must cost fingerprint + compiled-match extraction, a small
  // fraction of rediscovering its structure.
  return all_hit && parity && speedup >= 5.0;
}

// ---------------------------------------------------------------------------
// Streaming section ("streaming"): the --follow memory and recovery
// contract as a gate. A deterministic drifting stream (format A, an
// alternating transition band, then format B) is fed to a StreamingSession
// in 64 KiB chunks at two lengths, 1x and 4x. Two gates: (1) peak RSS is
// independent of stream length — peak(4x) must stay within 1.5x of
// peak(1x) + 8 MB slack, catching any path that starts buffering history;
// (2) drift recovery — after the evolution the B-phase tail must match at
// >= 90%, catching a monitor or splice regression that leaves the evolved
// format as noise. Each length runs in its own forked child like the sink
// cases, and early, while the parent is small (RunInChild); when no child
// can run the RSS gate is skipped (reported as rss_gated=false), the
// recovery gate always runs.
// ---------------------------------------------------------------------------

/// Counting sink for streaming runs: records, noise, and noise in the
/// tail region [tail_from, end) of the stream.
class StreamCountSink : public EventSink {
 public:
  void OnRecord(int /*template_id*/, size_t /*first_line*/,
                std::string_view /*text*/, size_t /*pos*/, size_t /*end*/,
                const MatchEvent* /*events*/,
                size_t /*num_events*/) override {
    ++records;
  }
  void OnNoiseText(size_t line_index,
                   std::string_view /*line_with_newline*/) override {
    ++noise;
    if (line_index >= tail_from) ++tail_noise;
  }
  size_t records = 0, noise = 0, tail_noise = 0;
  size_t tail_from = 0;
};

/// Deterministic drifting stream: ~45% format A ("n,n,n"), 10%
/// alternating A/B, then format B ("n|n|n|n"); counter-driven, no RNG.
/// Produced chunk by chunk, so the stream itself never sits in memory and
/// a case's peak RSS is the session's own.
class DriftingStream {
 public:
  explicit DriftingStream(size_t total_bytes) : total_(total_bytes) {}

  /// Replaces `chunk` with the next whole lines, at least `min_bytes` of
  /// them unless the stream ends first; false once the stream is done.
  bool Next(size_t min_bytes, std::string* chunk) {
    chunk->clear();
    char buf[64];
    while (produced_ < total_ && chunk->size() < min_bytes) {
      const size_t i = lines_;
      const bool fmt_a =
          produced_ < total_ * 9 / 20
              ? true
              : (produced_ < total_ * 11 / 20 ? i % 2 == 0 : false);
      int n;
      if (fmt_a) {
        n = std::snprintf(buf, sizeof(buf), "%zu,%zu,%zu\n", i,
                          i * 7 % 1000, i % 97);
      } else {
        n = std::snprintf(buf, sizeof(buf), "%zu|%zu|%zu|%zu\n", i, i % 89,
                          i * 3 % 1000, i % 7);
      }
      chunk->append(buf, static_cast<size_t>(n));
      produced_ += static_cast<size_t>(n);
      ++lines_;
    }
    return !chunk->empty();
  }

  size_t bytes() const { return produced_; }
  size_t lines() const { return lines_; }

 private:
  size_t total_;
  size_t produced_ = 0;
  size_t lines_ = 0;
};

struct StreamingCase {
  size_t bytes = 0;
  size_t lines = 0;
  size_t records = 0;
  size_t noise = 0;
  size_t evolutions = 0;
  double seconds = 0;
  double tail_match_rate = 0;
  bool finished = false;
};

StreamingCase RunStreamingCase(size_t total_bytes) {
  StreamingCase out;
  std::string chunk;
  {
    DriftingStream counting(total_bytes);
    while (counting.Next(64 * 1024, &chunk)) {
    }
    out.bytes = counting.bytes();
    out.lines = counting.lines();
  }
  const size_t lines = out.lines;

  DatamaranOptions options;
  options.num_threads = 1;
  StreamOptions stream_options;
  StreamCountSink sink;
  // Tail = the stable B region, past the transition band and the drift
  // trigger: the last third of the stream.
  sink.tail_from = lines - lines / 3;

  // Only the session's work is timed, not producing the chunks.
  Timer timer;
  StreamingSession session(options, stream_options, &sink);
  out.seconds = timer.Seconds();
  DriftingStream stream(total_bytes);
  while (stream.Next(64 * 1024, &chunk)) {
    Timer feed;
    session.FeedBytes(chunk);
    out.seconds += feed.Seconds();
  }
  Timer finish;
  out.finished = session.Finish().ok();
  out.seconds += finish.Seconds();
  out.records = sink.records;
  out.noise = sink.noise;
  out.evolutions = session.stats().evolutions;
  const size_t tail_lines = lines / 3;
  out.tail_match_rate =
      tail_lines > 0
          ? 1.0 - static_cast<double>(sink.tail_noise) / tail_lines
          : 0.0;
  return out;
}

/// The 1x and 4x streams, each measured in its own child.
struct StreamingRuns {
  ChildRun<StreamingCase> small;
  ChildRun<StreamingCase> large;
};

StreamingRuns RunStreamingCases(bool quick) {
  const size_t short_bytes = quick ? 1 * 1024 * 1024 : 4 * 1024 * 1024;
  StreamingRuns runs;
  runs.small = RunInChild<StreamingCase>(
      [&] { return RunStreamingCase(short_bytes); });
  runs.large = RunInChild<StreamingCase>(
      [&] { return RunStreamingCase(short_bytes * 4); });
  return runs;
}

bool ReportStreamingBench(FILE* f, const StreamingRuns& runs) {
  const StreamingCase& small = runs.small.result;
  const StreamingCase& large = runs.large.result;
  const size_t small_peak = runs.small.peak_rss;
  const size_t large_peak = runs.large.peak_rss;
  const bool rss_gated = runs.small.isolated && runs.large.isolated;

  // The slack scales with the stream: the 4x stream may add at most half
  // its own bytes on top of 1.5x the 1x peak, so a path that retains the
  // stream's history (at least its bytes) fails at every stream size,
  // quick mode's 4 MiB included.
  const size_t budget =
      static_cast<size_t>(small_peak * 1.5) + large.bytes / 2;
  const bool rss_ok = !rss_gated || large_peak <= budget;
  const bool recovery_ok = large.finished && small.finished &&
                           large.evolutions >= 1 &&
                           large.tail_match_rate >= 0.9 &&
                           small.tail_match_rate >= 0.9;
  std::printf(
      "streaming: %zu MB %.3fs (%.2f MB/s) peak %zu KB; 4x stream peak "
      "%zu KB (budget %zu KB)%s; evolutions=%zu tail match %.1f%%: %s\n",
      small.bytes >> 20, small.seconds, MbPerSec(small.bytes, small.seconds),
      small_peak >> 10, large_peak >> 10, budget >> 10,
      rss_gated ? "" : " [peaks not isolated; RSS gate skipped]",
      large.evolutions, large.tail_match_rate * 100,
      rss_ok && recovery_ok ? "ok" : "NO — STREAMING GATE FAILED");

  std::fprintf(f,
               ",\n"
               "  \"streaming\": {\n"
               "    \"short_bytes\": %zu,\n"
               "    \"long_bytes\": %zu,\n"
               "    \"short_s\": %.6f,\n"
               "    \"long_s\": %.6f,\n"
               "    \"mb_per_s\": %.3f,\n"
               "    \"short_peak_rss_bytes\": %zu,\n"
               "    \"long_peak_rss_bytes\": %zu,\n"
               "    \"rss_gated\": %s,\n"
               "    \"evolutions\": %zu,\n"
               "    \"tail_match_rate\": %.4f\n"
               "  }",
               small.bytes, large.bytes, small.seconds, large.seconds,
               MbPerSec(large.bytes, large.seconds), small_peak, large_peak,
               rss_gated ? "true" : "false", large.evolutions,
               large.tail_match_rate);
  return rss_ok && recovery_ok;
}

// ---------------------------------------------------------------------------
// Rotated-stitch memory case: a four-member rotated set, its oldest member
// gzip'd, read the way the tools read it — InputReader: the discovery
// sample, then one scan — in a forked child. The child's peak RSS past its
// peak at start must stay under a constant budget that does not depend on
// the stitch size, and the sample and scan must hash identically to
// OpenInputs' whole buffer (a second child); either failure fails the
// process.
// ---------------------------------------------------------------------------
struct StitchedPeakCase {
  size_t bytes = 0;
  size_t members = 0;
  double read_s = 0;
  size_t peak_delta = 0;
  bool rss_gated = false;
  bool identical = false;
  bool ok = false;
};

/// Bytes the reader's child may add to its starting peak RSS: a few
/// windows, the sample and one segment's scan state, whatever the size.
constexpr size_t kStitchPeakBudget = 4u << 20;

/// One side of the stitch case, as reported back from its child process.
struct StitchPhase {
  uint64_t sig = 0;
  size_t baseline_peak = 0;  // the child's peak RSS when it started
  double seconds = 0;
  bool ok = false;
};

/// Hashes the sample's lines into `*sig`.
void HashSample(const DatasetView& sample, uint64_t* sig) {
  for (size_t v = 0; v < sample.line_count(); ++v) {
    *sig = Fnv1a(sample.line_with_newline(v), *sig);
  }
}

StitchedPeakCase RunStitchedPeakCase(bool quick) {
  StitchedPeakCase out;
  constexpr size_t kMembers = 4;
  std::vector<std::string> paths;
  {
    const std::string text = MakeSinkCorpus(13, quick);
    size_t begin = 0;
    for (size_t m = 0; m < kMembers; ++m) {
      const size_t end =
          m + 1 < kMembers
              ? text.find('\n', (m + 1) * (text.size() / kMembers)) + 1
              : text.size();
      const std::string_view member =
          std::string_view(text).substr(begin, end - begin);
      // Rotation order is oldest first, and the oldest generation is the
      // one logrotate compresses.
      std::string bytes(member);
      if (m == 0 && GzipSupported()) {
        auto gz = GzipCompress(member);
        if (!gz.ok()) return out;
        bytes = std::move(gz.value());
      }
      paths.push_back("bench_micro_stitch_" + std::to_string(m) + ".tmp");
      if (!WriteStringToFile(paths.back(), bytes).ok()) {
        for (const std::string& p : paths) std::remove(p.c_str());
        return out;
      }
      begin = end;
    }
    out.bytes = text.size();
    out.members = kMembers;
  }  // freed before forking: a child's peak counts the parent's pages
  const std::vector<StructureTemplate> templates = SinkTemplates();
  const Extractor extractor(&templates);
  const SamplerOptions sampler;
  const auto windowed = RunInChild<StitchPhase>([&] {
    StitchPhase p;
    p.baseline_peak = PeakRssBytes();
    Timer timer;
    auto reader = InputReader::Open(paths, InputOptions{});
    if (!reader.ok()) return p;
    HashingSink sink(nullptr);
    {
      std::optional<Dataset> sample_copy;
      auto sample = reader->ReadSample(sampler, &sample_copy);
      if (!sample.ok()) return p;
      HashSample(sample.value(), &sink.sig);
    }
    if (!reader->Scan(extractor, &sink).ok()) return p;
    p.seconds = timer.Seconds();
    p.sig = sink.sig;
    p.ok = true;
    return p;
  });
  const auto whole = RunInChild<StitchPhase>([&] {
    StitchPhase p;
    auto data = OpenInputs(paths, InputOptions{});
    if (!data.ok()) return p;
    HashingSink sink(&data.value());
    HashSample(SampleView(data.value(), sampler), &sink.sig);
    extractor.ExtractEvents(DatasetView(data.value()), &sink);
    p.sig = sink.sig;
    p.ok = true;
    return p;
  });
  for (const std::string& path : paths) std::remove(path.c_str());
  out.read_s = windowed.result.seconds;
  out.identical = windowed.result.ok && whole.result.ok &&
                  windowed.result.sig == whole.result.sig;
  out.rss_gated = windowed.isolated;
  out.peak_delta = windowed.peak_rss > windowed.result.baseline_peak
                       ? windowed.peak_rss - windowed.result.baseline_peak
                       : 0;
  const bool under_budget = out.peak_delta <= kStitchPeakBudget;
  std::printf("stitched read (%zu members, one gzip'd, %zu MB): %.3fs "
              "(%.2f MB/s), peak delta %.1f MB (budget %zu MB)%s, "
              "OpenInputs digest %s\n",
              out.members, out.bytes >> 20, out.read_s,
              MbPerSec(out.bytes, out.read_s),
              static_cast<double>(out.peak_delta) / (1 << 20),
              kStitchPeakBudget >> 20,
              out.rss_gated ? (under_budget ? "" : " OVER BUDGET")
                            : " [peak not isolated; gate skipped]",
              out.identical ? "match" : "MISMATCH — STITCH BUG");
  out.ok = out.identical && (!out.rss_gated || under_budget);
  return out;
}

void PrintRunJson(FILE* f, const char* key, const PipelineRun& run,
                  int threads) {
  std::fprintf(f,
               "  \"%s\": {\n"
               "    \"threads\": %d,\n"
               "    \"generation_s\": %.6f,\n"
               "    \"pruning_s\": %.6f,\n"
               "    \"evaluation_s\": %.6f,\n"
               "    \"refinement_s\": %.6f,\n"
               "    \"extraction_s\": %.6f,\n"
               "    \"total_s\": %.6f,\n"
               "    \"mb_per_s\": %.3f\n"
               "  }",
               key, threads, run.timings.generation_s, run.timings.pruning_s,
               run.timings.evaluation_s, run.timings.refinement_s,
               run.timings.extraction_s, run.timings.total_s,
               MbPerSec(run.bytes, run.timings.total_s));
}

int RunPipelineBench() {
  const bool quick = bench::QuickMode();
  const int datasets = bench::EnvInt("DM_BENCH_DATASETS", quick ? 4 : 16);
  const size_t bytes = quick ? 24 * 1024 : 48 * 1024;
  const int hw = ThreadPool::DefaultThreadCount();
  const int multi = bench::EnvInt("DM_BENCH_THREADS", std::max(4, hw));

  // Every peak-RSS case runs first, each in its own forked child: a child
  // starts as a copy of this process, so the parent must still be small.
  // The streaming section reports later, in its usual place.
  const StitchedPeakCase stitch_case = RunStitchedPeakCase(quick);
  const WindowCase window_case = RunWindowCase(multi, quick);
  const SinkCase sink_case = RunStreamingSinkCase(multi, quick);
  const SinkCase norm_case = RunNormalizedSinkCase(multi, quick);
  const StreamingRuns streaming_runs = RunStreamingCases(quick);

  std::vector<std::string> texts;
  texts.reserve(static_cast<size_t>(datasets));
  for (int i = 0; static_cast<int>(texts.size()) < datasets; ++i) {
    // Skip pure-noise corpus entries: they exercise nothing downstream.
    GeneratedDataset ds = BuildGithubDataset(i % kGithubCorpusSize, bytes);
    if (ds.label == DatasetLabel::kNoStructure) continue;
    texts.push_back(std::move(ds.text));
  }

  std::printf("pipeline workload: %d GitHub-corpus datasets, %.1f MB total\n",
              datasets,
              static_cast<double>(bytes) * datasets / (1024.0 * 1024.0));
  PipelineRun single = RunPipelineWorkload(texts, 1);
  std::printf("  threads=1:  total %.3fs  (gen %.3fs, eval %.3fs, "
              "extract %.3fs)  %.2f MB/s\n",
              single.timings.total_s, single.timings.generation_s,
              single.timings.evaluation_s, single.timings.extraction_s,
              MbPerSec(single.bytes, single.timings.total_s));
  std::vector<std::vector<StructureTemplate>> workload_templates;
  PipelineRun parallel =
      RunPipelineWorkload(texts, multi, &workload_templates);
  std::printf("  threads=%d:  total %.3fs  (gen %.3fs, eval %.3fs, "
              "extract %.3fs)  %.2f MB/s\n",
              multi, parallel.timings.total_s, parallel.timings.generation_s,
              parallel.timings.evaluation_s, parallel.timings.extraction_s,
              MbPerSec(parallel.bytes, parallel.timings.total_s));

  const bool identical = single.signature == parallel.signature;
  const double speedup = parallel.timings.total_s > 0
                             ? single.timings.total_s / parallel.timings.total_s
                             : 0;
  std::printf("  speedup %.2fx, output identical: %s\n", speedup,
              identical ? "yes" : "NO — DETERMINISM BUG");

  const char* out_path = std::getenv("DM_BENCH_OUT");
  if (out_path == nullptr) out_path = "BENCH_micro.json";
  FILE* f = std::fopen(out_path, "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", out_path);
    return 1;
  }
  std::fprintf(f,
               "{\n"
               "  \"workload\": \"github_corpus\",\n"
               "  \"datasets\": %d,\n"
               "  \"bytes\": %zu,\n"
               "  \"hardware_threads\": %d,\n",
               datasets, single.bytes, hw);
  PrintRunJson(f, "single_thread", single, 1);
  std::fprintf(f, ",\n");
  PrintRunJson(f, "multi_thread", parallel, multi);
  const bool match_ok =
      RunMatchEngineBench(f, texts, std::move(workload_templates), quick);
  const bool charset_ok = RunCharsetEngineBench(f, quick);
  const bool generation_ok = RunGenerationBench(f, quick);
  const bool eval_ok = RunEvaluationBench(f, texts, quick);
  const bool catalog_ok = RunCatalogBench(f, quick);
  const bool streaming_ok = ReportStreamingBench(f, streaming_runs);
  std::fprintf(f,
               ",\n"
               "  \"speedup\": %.3f,\n"
               "  \"identical_output\": %s,\n"
               "  \"residual_copy_bytes\": %zu,\n"
               "  \"peak_rss_bytes\": %zu,\n"
               "  \"window_case\": {\n"
               "    \"bytes\": %zu,\n"
               "    \"window_s\": %.6f,\n"
               "    \"whole_s\": %.6f,\n"
               "    \"window_mb_per_s\": %.3f,\n"
               "    \"window_peak_rss_bytes\": %zu,\n"
               "    \"whole_peak_rss_bytes\": %zu,\n"
               "    \"rss_isolated\": %s,\n"
               "    \"identical\": %s\n"
               "  },\n"
               "  \"streaming_sink\": {\n"
               "    \"bytes\": %zu,\n"
               "    \"records\": %zu,\n"
               "    \"streaming_s\": %.6f,\n"
               "    \"collecting_s\": %.6f,\n"
               "    \"streaming_peak_rss_bytes\": %zu,\n"
               "    \"collecting_peak_rss_bytes\": %zu,\n"
               "    \"rss_gated\": %s,\n"
               "    \"counts_match\": %s\n"
               "  },\n"
               "  \"normalized_sink\": {\n"
               "    \"bytes\": %zu,\n"
               "    \"records\": %zu,\n"
               "    \"streaming_s\": %.6f,\n"
               "    \"collecting_s\": %.6f,\n"
               "    \"streaming_peak_rss_bytes\": %zu,\n"
               "    \"collecting_peak_rss_bytes\": %zu,\n"
               "    \"rss_gated\": %s,\n"
               "    \"counts_match\": %s\n"
               "  },\n"
               "  \"stitched_peak\": {\n"
               "    \"bytes\": %zu,\n"
               "    \"members\": %zu,\n"
               "    \"read_s\": %.6f,\n"
               "    \"peak_delta_bytes\": %zu,\n"
               "    \"peak_budget_bytes\": %zu,\n"
               "    \"rss_gated\": %s,\n"
               "    \"identical\": %s\n"
               "  }\n"
               "}\n",
               speedup, identical ? "true" : "false",
               single.residual_copy_bytes + parallel.residual_copy_bytes,
               PeakRssBytes(), window_case.bytes, window_case.window_s,
               window_case.whole_s,
               MbPerSec(window_case.bytes, window_case.window_s),
               window_case.window_peak, window_case.whole_peak,
               window_case.isolated ? "true" : "false",
               window_case.identical ? "true" : "false", sink_case.bytes,
               sink_case.records, sink_case.streaming_s,
               sink_case.collecting_s, sink_case.streaming_peak,
               sink_case.collecting_peak,
               sink_case.rss_gated ? "true" : "false",
               sink_case.counts_match ? "true" : "false", norm_case.bytes,
               norm_case.records, norm_case.streaming_s,
               norm_case.collecting_s, norm_case.streaming_peak,
               norm_case.collecting_peak,
               norm_case.rss_gated ? "true" : "false",
               norm_case.counts_match ? "true" : "false", stitch_case.bytes,
               stitch_case.members, stitch_case.read_s,
               stitch_case.peak_delta, kStitchPeakBudget,
               stitch_case.rss_gated ? "true" : "false",
               stitch_case.identical ? "true" : "false");
  std::fclose(f);
  std::printf("wrote %s\n\n", out_path);
  return identical && window_case.identical && match_ok && charset_ok &&
                 generation_ok && eval_ok && catalog_ok && streaming_ok &&
                 sink_case.ok && norm_case.ok && stitch_case.ok
             ? 0
             : 1;
}

}  // namespace

int main(int argc, char** argv) {
  // The pipeline section takes seconds and writes BENCH_micro.json; skip
  // it for google-benchmark introspection/filter invocations (and on
  // DM_BENCH_SKIP_PIPELINE=1) so the standard bench CLI stays snappy and
  // side-effect free. Scan argv before Initialize — it consumes the flags
  // it recognizes.
  bool pipeline = std::getenv("DM_BENCH_SKIP_PIPELINE") == nullptr;
  for (int i = 1; i < argc && pipeline; ++i) {
    const std::string_view arg = argv[i];
    if (arg.rfind("--benchmark_list_tests", 0) == 0 ||
        arg.rfind("--benchmark_filter", 0) == 0 || arg == "--help") {
      pipeline = false;
    }
  }
  benchmark::Initialize(&argc, argv);
  const int rc = pipeline ? RunPipelineBench() : 0;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return rc;
}
