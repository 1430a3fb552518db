// Command-line front end: extract structure from a log file and emit
// relational tables.
//
//   datamaran_cli <file> [flags]
//   datamaran_cli --inputs=SPEC [flags]
//   datamaran_cli --follow=PATH [flags]
//
// The flags are declared once, in the table built at the top of main (the
// ones shared with datamaran_crawl come from tools/flag_parse.h);
// `datamaran_cli --help` prints the usage generated from it.
//
// Batch mode opens the input through the resilient front-end
// (core/input.h InputReader: gzip, CRLF, rotation stitching for --inputs),
// reads the discovery sample straight from the input, resolves the
// templates on it (Datamaran::ResolveTemplates: catalog hit or discovery),
// and scans the input exactly once more, a 256 KiB window at a time: with
// --out that pass streams the tables through the flat-event writers in
// extraction/sinks.h, and the same pass yields the printed summary and
// --summary-json. Memory is a constant whatever the size of the input,
// gzip'd, CRLF-terminated and stitched inputs included. --follow switches
// to online streaming (core/stream.h) at O(window) memory: a live file or
// stdin is decided line by line, and format drift re-runs discovery over
// recent noise. Corrupt or truncated input — a file cut short while it is
// read included — exits 1 with a descriptive error, also recorded in the
// --summary-json "error" field; bad flags exit 2.

#include <cstdio>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#if defined(__unix__) || defined(__APPLE__)
#include <unistd.h>
#endif

#include "core/datamaran.h"
#include "core/input.h"
#include "core/stream.h"
#include "core/summary.h"
#include "extraction/sinks.h"
#include "flag_parse.h"
#include "util/file_io.h"
#include "util/strings.h"
#include "util/thread_pool.h"
#include "util/timer.h"

namespace {

/// Fallback EventSink for `--follow` without `--out`: counts per-template
/// records (for the summary) and drops everything else. Decisions still
/// drive the session's own counters and drift monitor.
class CountingSink : public datamaran::EventSink {
 public:
  void OnRecord(int template_id, size_t /*first_line*/,
                std::string_view /*text*/, size_t /*pos*/, size_t /*end*/,
                const datamaran::MatchEvent* /*events*/,
                size_t /*num_events*/) override {
    const size_t t = static_cast<size_t>(template_id);
    if (t >= per_template.size()) per_template.resize(t + 1, 0);
    per_template[t]++;
  }

  std::vector<size_t> per_template;
};

}  // namespace

int main(int argc, char** argv) {
  using namespace datamaran;
  using namespace datamaran_tools;

  SharedSettings shared;
  DatamaranOptions& options = shared.options;
  const std::string& out_dir = shared.out_dir;
  const OutputFormat& format = shared.format;
  std::string inputs_spec;
  std::string summary_json;
  std::string follow_path;
  size_t follow_max_bytes = 0;
  int follow_poll_ms = 50;
  StreamOptions stream_options;
  bool normalized = false;
  FlagTable flags("datamaran_cli", {"<file> [flags]", "--inputs=SPEC [flags]",
                                    "--follow=PATH [flags]"});
  flags.Add(String("--inputs", "SPEC",
                   "comma-separated paths and/or glob patterns stitched "
                   "into one logical dataset in rotation-chronological "
                   "order (app.log.2.gz, app.log.1, app.log); each member "
                   "may be gzip'd. Replaces the positional <file>",
                   &inputs_spec));
  flags.Add(String("--follow", "PATH",
                   "streaming mode: tail PATH (a live log, followed through "
                   "rotation and truncation) or stdin (\"-\"); discover "
                   "structure over a sliding window of recent lines, "
                   "stream records through the --out sinks as they are "
                   "decided, and evolve the template set on format drift, "
                   "at O(window) peak memory. Replaces the positional "
                   "<file>; --catalog-out checkpoints the live template set",
                   &follow_path)
                .Conflicts({"--inputs", "--catalog-in"}));
  AddSharedFlags(&flags, &shared);
  flags.Add(Switch("--normalized",
                   "with --out: stream the normalized table tree (root "
                   "type<t>.csv plus per-array child tables "
                   "type<t>_arr<a>.csv with foreign keys); CSV only",
                   &normalized));
  flags.Add(Switch("--greedy",
                   "greedy charset search instead of exhaustive",
                   &options.search, CharsetSearch::kGreedy));
  flags.Add(String("--summary-json", "PATH",
                   "write the run summary (records, noise lines, timings, "
                   "catalog hit/miss; in follow mode a stream object) to "
                   "PATH as JSON; the crawl manifest embeds the same "
                   "object per file",
                   &summary_json));
  flags.Section("streaming mode (each needs --follow):", "--follow");
  flags.Add(Size("--follow-max-bytes", "N",
                 "stop following after N input bytes (default 0 = until "
                 "stdin EOF, or forever on a file)",
                 &follow_max_bytes));
  flags.Add(Int("--follow-poll-ms", "N",
                "sleep between polls of a drained live file (default 50; "
                "stdin never polls)",
                &follow_poll_ms));
  flags.Add(Size("--stream-window-lines", "N",
                 "lines per discovery window and steady-state segment "
                 "(default 4096)",
                 &stream_options.window_lines));
  flags.Add(Size("--stream-window-bytes", "N",
                 "byte cap on the same window (default 256KiB)",
                 &stream_options.window_bytes));
  flags.Add(Size("--drift-window", "N",
                 "decided lines in the rolling noise-rate window (default "
                 "256)",
                 &stream_options.drift_window_lines));
  flags.Add(Percent("--drift-threshold",
                    "percent noise over the drift window that triggers "
                    "re-discovery over recent noise (default 50)",
                    &stream_options.drift_threshold));
  flags.Add(Switch("--no-evolve",
                   "monitor drift but never evolve the template set",
                   &stream_options.evolve, false));
  std::vector<std::string> positional;
  flags.Parse(argc, argv, &positional);

  // Exactly one input source; every rejection is exit 2 before any
  // pipeline work or output-directory creation.
  if (positional.size() + flags.Seen("--inputs") + flags.Seen("--follow") !=
      1) {
    flags.Fail("give exactly one input: <file>, --inputs=SPEC or "
               "--follow=PATH");
  }
  const std::string path = positional.empty() ? "" : positional[0];
  if (normalized && format != OutputFormat::kCsv) {
    flags.Fail("--normalized writes the relational table tree and is "
               "CSV-only; it conflicts with --format=ndjson");
  }

  // Every input failure funnels through here: descriptive message, and —
  // when a summary was requested — a summary document whose "error" field
  // carries the same Status, so automated callers never have to scrape
  // stderr. The exit code stays 1 (input/runtime error), distinct from 2
  // (bad flags).
  const std::string display_path = !follow_path.empty()
                                       ? follow_path
                                       : (path.empty() ? inputs_spec : path);
  auto fail = [&](const Status& st) {
    std::fprintf(stderr, "error: %s\n", st.ToString().c_str());
    if (!summary_json.empty()) {
      FileSummary s;
      s.path = display_path;
      s.error = st.ToString();
      (void)WriteFileAtomic(summary_json, FileSummaryToJson(s));
    }
    return 1;
  };

  if (!follow_path.empty()) {
    stream_options.checkpoint_path = options.catalog_out;
    stream_options.checkpoint_merge = options.catalog_merge;

    // The write sinks resolve noise text through OnNoiseText in streaming
    // mode; the DatasetView they hold only needs to outlive them.
    Dataset empty_data{std::string()};
    DatasetView empty_view(empty_data);
    std::vector<StructureTemplate> no_templates;
    CountingSink counting;
    std::unique_ptr<WriteSinkBase> write_sink;
    EventSink* sink = &counting;
    if (!out_dir.empty()) {
      if (normalized) {
        write_sink = std::make_unique<NormalizedWriteSink>(
            &no_templates, empty_view, out_dir);
      } else {
        write_sink = std::make_unique<ColumnarWriteSink>(
            &no_templates, empty_view, out_dir, format);
      }
      if (!write_sink->status().ok()) return fail(write_sink->status());
      sink = write_sink.get();
    }

    StreamingSession session(options, stream_options, sink);
    FollowReader reader(follow_path);
    std::string buf;
    uint64_t fed = 0;
    for (;;) {
      buf.clear();
      size_t want = 64 * 1024;
      if (follow_max_bytes > 0) {
        const uint64_t left = follow_max_bytes - fed;
        if (left < want) want = static_cast<size_t>(left);
      }
      auto read = reader.Read(&buf, want);
      if (!read.ok()) return fail(read.status());
      if (!buf.empty()) {
        fed += buf.size();
        session.FeedBytes(buf);
      }
      if (follow_max_bytes > 0 && fed >= follow_max_bytes) break;
      if (read.value().eof) {
        if (reader.is_stdin()) break;  // stdin EOF is final
#if defined(__unix__) || defined(__APPLE__)
        if (follow_poll_ms > 0) {
          ::usleep(static_cast<unsigned>(follow_poll_ms) * 1000u);
        }
#endif
      }
    }
    Status ended = session.Finish();

    const StreamStats& stats = session.stats();
    std::printf("streamed %llu bytes, %llu lines (%llu decided)\n",
                static_cast<unsigned long long>(stats.bytes_in),
                static_cast<unsigned long long>(stats.lines_in),
                static_cast<unsigned long long>(stats.lines_decided));
    std::printf("%zu structure template(s):\n", session.templates().size());
    size_t t = 0;
    for (const StructureTemplate& st : session.templates()) {
      std::printf("  [%zu] span=%d fields=%d  %s\n", t++, st.line_span(),
                  st.field_count(), st.Display().c_str());
    }
    std::printf("records=%llu noise_lines=%llu oversized=%llu\n",
                static_cast<unsigned long long>(stats.records),
                static_cast<unsigned long long>(stats.noise_lines),
                static_cast<unsigned long long>(stats.oversized_lines));
    std::printf("drift: epochs=%llu evolutions=%llu (attempts=%llu), "
                "discovery_runs=%llu, noise_rate=%.2f\n",
                static_cast<unsigned long long>(stats.epochs),
                static_cast<unsigned long long>(stats.evolutions),
                static_cast<unsigned long long>(stats.evolution_attempts),
                static_cast<unsigned long long>(stats.discovery_runs),
                stats.last_noise_rate);
    if (!stream_options.checkpoint_path.empty()) {
      std::printf("checkpoints: %llu to %s\n",
                  static_cast<unsigned long long>(stats.checkpoints),
                  stream_options.checkpoint_path.c_str());
    }

    int exit_code = 0;
    if (!ended.ok()) {
      std::fprintf(stderr, "error: %s\n", ended.ToString().c_str());
      exit_code = 1;
    }
    if (write_sink != nullptr) {
      Status finished = write_sink->Finish();
      if (!finished.ok()) {
        std::fprintf(stderr, "error: %s\n", finished.ToString().c_str());
        exit_code = 1;
      }
      std::printf("wrote %s/%s (%zu lines); %zu bytes streamed\n",
                  out_dir.c_str(), WriteSinkBase::NoiseFileName().c_str(),
                  write_sink->stats().noise_lines,
                  write_sink->stats().bytes_written);
    }

    if (!summary_json.empty()) {
      FileSummary s;
      s.path = display_path;
      s.input_bytes = static_cast<size_t>(stats.bytes_in);
      if (!ended.ok()) s.error = ended.ToString();
      for (const StructureTemplate& st : session.templates()) {
        s.templates.push_back(st.Display());
      }
      s.total_lines = static_cast<size_t>(stats.lines_in);
      s.records = static_cast<size_t>(stats.records);
      s.records_per_template = write_sink != nullptr
                                   ? write_sink->stats().records_per_template
                                   : counting.per_template;
      s.noise_lines = static_cast<size_t>(stats.noise_lines);
      s.match_rate =
          stats.lines_decided == 0
              ? 1.0
              : static_cast<double>(stats.lines_decided - stats.noise_lines) /
                    static_cast<double>(stats.lines_decided);
      s.coverage =
          stats.decided_bytes == 0
              ? 0
              : static_cast<double>(stats.decided_bytes - stats.noise_bytes) /
                    static_cast<double>(stats.decided_bytes);
      s.streaming = true;
      s.stream_epochs = static_cast<size_t>(stats.epochs);
      s.stream_evolutions = static_cast<size_t>(stats.evolutions);
      s.stream_discovery_runs = static_cast<size_t>(stats.discovery_runs);
      s.stream_checkpoints = static_cast<size_t>(stats.checkpoints);
      s.stream_oversized_lines = static_cast<size_t>(stats.oversized_lines);
      s.match_engine = MatchEngineName(options.match_engine);
      s.charset_engine = CharsetEngineName(options.charset_engine);
      s.threads = ThreadPool::ResolveThreadCount(options.num_threads);
      Status written = WriteFileAtomic(summary_json, FileSummaryToJson(s));
      if (!written.ok()) {
        std::fprintf(stderr, "error: %s\n", written.ToString().c_str());
        exit_code = 1;
      }
    }
    return exit_code;
  }

  std::vector<std::string> input_paths;
  if (!inputs_spec.empty()) {
    auto expanded = ExpandInputSpec(inputs_spec);
    if (!expanded.ok()) return fail(expanded.status());
    input_paths = std::move(expanded.value());
  } else {
    input_paths.push_back(path);
  }

  Datamaran dm(options);
  if (!dm.catalog_status().ok()) return fail(dm.catalog_status());
  auto opened = InputReader::Open(input_paths, MakeInputOptions(options));
  if (!opened.ok()) return fail(opened.status());
  InputReader& reader = opened.value();
  Timer total_timer;
  // Batch is one streaming pass: resolve the templates on the sample (a
  // catalog hit or cold discovery), then a single windowed scan of the
  // file feeds the --out writers (or no sink) and yields every count and
  // timing reported below.
  PipelineResult result;
  {
    std::optional<Dataset> sample_copy;
    auto sample = reader.ReadSample(MakeSamplerOptions(options), &sample_copy);
    if (!sample.ok()) return fail(sample.status());
    result = dm.ResolveTemplates(sample.value());
  }

  // Both layouts stream through the same WriteSinkBase machinery; noise
  // arrives with its text, so the writers need no view of the input. No
  // output directory is created when no template was accepted.
  Timer extract_timer;
  const Dataset no_data{std::string()};
  const DatasetView no_view(no_data);
  std::unique_ptr<WriteSinkBase> sink;
  if (!out_dir.empty() && !result.templates.empty()) {
    if (normalized) {
      sink = std::make_unique<NormalizedWriteSink>(&result.templates, no_view,
                                                   out_dir);
    } else {
      sink = std::make_unique<ColumnarWriteSink>(&result.templates, no_view,
                                                 out_dir, format);
    }
    // An unwritable out dir fails before the scan.
    if (!sink->status().ok()) return fail(sink->status());
  }
  const Extractor extractor(&result.templates, dm.pool(),
                            options.match_engine, options.charset_engine,
                            options.max_line_bytes);
  auto scanned = reader.Scan(extractor, sink.get());
  if (!scanned.ok()) return fail(scanned.status());
  result.extraction = std::move(scanned.value());
  if (sink != nullptr) {
    Status finished = sink->Finish();
    if (!finished.ok()) return fail(finished);
  }
  result.timings.extraction_s = extract_timer.Seconds();
  result.timings.total_s = total_timer.Seconds();
  result.stats.input_bytes = result.extraction.total_chars;

  std::printf("%zu structure template(s):\n", result.templates.size());
  for (size_t t = 0; t < result.templates.size(); ++t) {
    std::printf("  [%zu] span=%d fields=%d  %s\n", t,
                result.templates[t].line_span(),
                result.templates[t].field_count(),
                result.templates[t].Display().c_str());
  }
  std::printf("records:");
  for (size_t t = 0; t < result.extraction.records_per_template.size(); ++t) {
    std::printf(" type%zu=%zu", t, result.extraction.records_per_template[t]);
  }
  std::printf("  noise_lines=%zu  coverage=%.1f%%\n",
              result.extraction.noise_line_count,
              result.extraction.coverage() * 100);
  std::printf(
      "timings: gen=%.2fs prune=%.2fs eval=%.2fs refine=%.2fs extract=%.2fs\n",
      result.timings.generation_s, result.timings.pruning_s,
      result.timings.evaluation_s, result.timings.refinement_s,
      result.timings.extraction_s);
  if (result.stats.catalog_checked) {
    if (result.stats.catalog_hit) {
      std::printf("catalog: hit entry %d (%.1f%% of sample; fingerprint "
                  "%.3fs, discovery skipped)\n",
                  result.stats.catalog_entry,
                  result.stats.catalog_match_rate * 100,
                  result.timings.catalog_match_s);
    } else {
      std::printf("catalog: miss (fingerprint %.3fs, cold discovery)\n",
                  result.timings.catalog_match_s);
    }
  }
  // kSimd names the kernel it classifies with: AVX2 when the CPU has it.
  if (options.charset_engine == CharsetEngine::kSimd) {
    std::printf("charset engine: %s (%s)\n",
                CharsetEngineName(options.charset_engine), CharsetSimdLevel());
  } else {
    std::printf("charset engine: %s\n",
                CharsetEngineName(options.charset_engine));
  }
  std::printf("evaluation: %zu candidate(s) scored, %zu pruned by MDL "
              "bound\n",
              result.stats.candidates_evaluated,
              result.stats.candidates_pruned);
  if (reader.windowed()) {
    std::printf("input: %zu bytes from %zu file(s) read through a %zu KiB "
                "window\n",
                result.stats.input_bytes, input_paths.size(),
                InputReader::kWindowBytes / 1024);
  } else {
    std::printf("input: %zu bytes from %zu file(s) normalized in memory\n",
                result.stats.input_bytes, input_paths.size());
  }
  if (sink != nullptr) {
    for (size_t t = 0; t < result.templates.size(); ++t) {
      if (normalized) {
        const auto& norm = static_cast<const NormalizedWriteSink&>(*sink);
        for (size_t k = 0; k < norm.table_count(t); ++k) {
          std::printf("wrote %s/%s (%zu rows)\n", out_dir.c_str(),
                      NormalizedWriteSink::TableFileName(t, k).c_str(),
                      norm.rows_in_table(t, k));
        }
      } else {
        std::printf("wrote %s/%s (%zu rows)\n", out_dir.c_str(),
                    ColumnarWriteSink::FileName(t, format).c_str(),
                    sink->stats().records_per_template[t]);
      }
    }
    std::printf("wrote %s/%s (%zu lines); %zu bytes streamed\n",
                out_dir.c_str(), WriteSinkBase::NoiseFileName().c_str(),
                sink->stats().noise_lines, sink->stats().bytes_written);
  }

  if (!summary_json.empty()) {
    const FileSummary summary = SummarizeResult(display_path, result, options);
    Status written =
        WriteFileAtomic(summary_json, FileSummaryToJson(summary));
    if (!written.ok()) {
      std::fprintf(stderr, "error: %s\n", written.ToString().c_str());
      return 1;
    }
  }
  return 0;
}
