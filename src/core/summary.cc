#include "core/summary.h"

#include "extraction/sinks.h"
#include "util/strings.h"
#include "util/thread_pool.h"

namespace datamaran {

namespace {

void AppendJsonString(std::string_view s, std::string* out) {
  *out += '"';
  AppendJsonEscaped(s, out);
  *out += '"';
}

}  // namespace

FileSummary SummarizeResult(const std::string& path, const PipelineResult& r,
                            const DatamaranOptions& options) {
  FileSummary s;
  s.path = path;
  s.input_bytes = r.stats.input_bytes;
  for (const StructureTemplate& st : r.templates) {
    s.templates.push_back(st.Display());
  }
  s.total_lines = r.extraction.total_lines;
  s.records = r.extraction.matched_records;
  s.noise_lines = r.extraction.noise_line_count;
  s.match_rate = r.extraction.line_match_rate();
  s.coverage = r.extraction.coverage();
  // Per-template counts come from the extractor's own accounting, which
  // every scan path fills — streaming-sink runs included, where the
  // collected records vector is empty by design.
  s.records_per_template = r.extraction.records_per_template;
  s.catalog_checked = r.stats.catalog_checked;
  s.catalog_hit = r.stats.catalog_hit;
  s.catalog_entry = r.stats.catalog_entry;
  s.catalog_match_rate = r.stats.catalog_match_rate;
  s.drifted = r.stats.catalog_hit &&
              r.extraction.line_match_rate() < options.catalog_min_match;
  s.match_engine = MatchEngineName(options.match_engine);
  s.charset_engine = CharsetEngineName(options.charset_engine);
  s.threads = ThreadPool::ResolveThreadCount(options.num_threads);
  s.timings = r.timings;
  return s;
}

void AppendFileSummaryJson(const FileSummary& s, int indent,
                           std::string* out) {
  const std::string pad(static_cast<size_t>(indent), ' ');
  const std::string field = pad + "  ";
  *out += pad + "{\n";
  *out += field + "\"path\": ";
  AppendJsonString(s.path, out);
  *out += ",\n";
  *out += field + StrFormat("\"input_bytes\": %zu,\n", s.input_bytes);
  *out += field + StrFormat("\"source_size\": %zu,\n", s.source_size);
  *out += field + StrFormat("\"source_mtime_ns\": %lld,\n",
                            static_cast<long long>(s.source_mtime_ns));
  *out += field +
          StrFormat("\"skipped\": %s,\n", s.skipped ? "true" : "false");
  *out += field + "\"error\": ";
  AppendJsonString(s.error, out);
  *out += ",\n";
  *out += field + "\"templates\": [";
  for (size_t t = 0; t < s.templates.size(); ++t) {
    if (t > 0) *out += ", ";
    AppendJsonString(s.templates[t], out);
  }
  *out += "],\n";
  *out += field + StrFormat("\"total_lines\": %zu,\n", s.total_lines);
  *out += field + StrFormat("\"records\": %zu,\n", s.records);
  *out += field + "\"records_per_template\": [";
  for (size_t t = 0; t < s.records_per_template.size(); ++t) {
    if (t > 0) *out += ", ";
    *out += StrFormat("%zu", s.records_per_template[t]);
  }
  *out += "],\n";
  *out += field + StrFormat("\"noise_lines\": %zu,\n", s.noise_lines);
  *out += field + StrFormat("\"match_rate\": %.6f,\n", s.match_rate);
  *out += field + StrFormat("\"coverage\": %.6f,\n", s.coverage);
  *out += field +
          StrFormat("\"catalog\": {\"checked\": %s, \"hit\": %s, "
                    "\"entry\": %d, \"match_rate\": %.6f, \"drifted\": %s},\n",
                    s.catalog_checked ? "true" : "false",
                    s.catalog_hit ? "true" : "false", s.catalog_entry,
                    s.catalog_match_rate, s.drifted ? "true" : "false");
  if (s.streaming) {
    // Batch summaries omit this object entirely; its presence is what
    // round-trips `streaming` through FileSummaryFromJson.
    *out += field +
            StrFormat("\"stream\": {\"epochs\": %zu, \"evolutions\": %zu, "
                      "\"discovery_runs\": %zu, \"checkpoints\": %zu, "
                      "\"oversized_lines\": %zu},\n",
                      s.stream_epochs, s.stream_evolutions,
                      s.stream_discovery_runs, s.stream_checkpoints,
                      s.stream_oversized_lines);
  }
  *out += field + "\"match_engine\": ";
  AppendJsonString(s.match_engine, out);
  *out += ",\n";
  *out += field + "\"charset_engine\": ";
  AppendJsonString(s.charset_engine, out);
  *out += ",\n";
  *out += field + StrFormat("\"threads\": %d,\n", s.threads);
  *out += field +
          StrFormat("\"timings\": {\"catalog_match_s\": %.6f, "
                    "\"generation_s\": %.6f, \"pruning_s\": %.6f, "
                    "\"evaluation_s\": %.6f, \"refinement_s\": %.6f, "
                    "\"extraction_s\": %.6f, \"total_s\": %.6f}\n",
                    s.timings.catalog_match_s, s.timings.generation_s,
                    s.timings.pruning_s, s.timings.evaluation_s,
                    s.timings.refinement_s, s.timings.extraction_s,
                    s.timings.total_s);
  *out += pad + "}";
}

std::string FileSummaryToJson(const FileSummary& s) {
  std::string out;
  AppendFileSummaryJson(s, 0, &out);
  out += '\n';
  return out;
}

namespace {

Status MissingKey(const char* key) {
  return Status::ParseError(
      std::string("file summary: missing or mistyped key: ") + key);
}

}  // namespace

Result<FileSummary> FileSummaryFromJson(const JsonValue& v) {
  if (!v.is_object()) {
    return Status::ParseError("file summary: not a JSON object");
  }
  FileSummary s;
  const auto str = [&v](const char* key, std::string* out) {
    const JsonValue* m = v.Find(key);
    const std::string* sv = m != nullptr ? m->AsString() : nullptr;
    if (sv == nullptr) return false;
    *out = *sv;
    return true;
  };
  const auto u64 = [](const JsonValue* obj, const char* key, size_t* out) {
    const JsonValue* m = obj != nullptr ? obj->Find(key) : nullptr;
    const auto val =
        m != nullptr ? m->AsUint64() : std::optional<uint64_t>();
    if (!val.has_value()) return false;
    *out = static_cast<size_t>(*val);
    return true;
  };
  const auto boolean = [](const JsonValue* obj, const char* key, bool* out) {
    const JsonValue* m = obj != nullptr ? obj->Find(key) : nullptr;
    const auto val = m != nullptr ? m->AsBool() : std::optional<bool>();
    if (!val.has_value()) return false;
    *out = *val;
    return true;
  };
  const auto dbl = [](const JsonValue* obj, const char* key, double* out) {
    const JsonValue* m = obj != nullptr ? obj->Find(key) : nullptr;
    const auto val = m != nullptr ? m->AsDouble() : std::optional<double>();
    if (!val.has_value()) return false;
    *out = *val;
    return true;
  };

  if (!str("path", &s.path)) return MissingKey("path");
  if (!u64(&v, "input_bytes", &s.input_bytes)) return MissingKey("input_bytes");
  // Manifests written while inputs could be memory-mapped also carry an
  // "input_mapped" flag; like any unknown key it is ignored, so they still
  // restore under --incremental.
  if (!u64(&v, "source_size", &s.source_size)) return MissingKey("source_size");
  {
    const JsonValue* m = v.Find("source_mtime_ns");
    const auto val = m != nullptr ? m->AsInt64() : std::optional<int64_t>();
    if (!val.has_value()) return MissingKey("source_mtime_ns");
    s.source_mtime_ns = *val;
  }
  if (!boolean(&v, "skipped", &s.skipped)) return MissingKey("skipped");
  if (!str("error", &s.error)) return MissingKey("error");
  {
    const JsonValue* m = v.Find("templates");
    if (m == nullptr || !m->is_array()) return MissingKey("templates");
    for (const JsonValue& item : m->items) {
      const std::string* t = item.AsString();
      if (t == nullptr) return MissingKey("templates");
      s.templates.push_back(*t);
    }
  }
  if (!u64(&v, "total_lines", &s.total_lines)) return MissingKey("total_lines");
  if (!u64(&v, "records", &s.records)) return MissingKey("records");
  {
    const JsonValue* m = v.Find("records_per_template");
    if (m == nullptr || !m->is_array()) {
      return MissingKey("records_per_template");
    }
    for (const JsonValue& item : m->items) {
      const auto n = item.AsUint64();
      if (!n.has_value()) return MissingKey("records_per_template");
      s.records_per_template.push_back(static_cast<size_t>(*n));
    }
  }
  if (!u64(&v, "noise_lines", &s.noise_lines)) return MissingKey("noise_lines");
  if (!dbl(&v, "match_rate", &s.match_rate)) return MissingKey("match_rate");
  if (!dbl(&v, "coverage", &s.coverage)) return MissingKey("coverage");
  {
    const JsonValue* c = v.Find("catalog");
    if (c == nullptr || !c->is_object()) return MissingKey("catalog");
    if (!boolean(c, "checked", &s.catalog_checked)) {
      return MissingKey("catalog.checked");
    }
    if (!boolean(c, "hit", &s.catalog_hit)) return MissingKey("catalog.hit");
    const JsonValue* e = c->Find("entry");
    const auto entry = e != nullptr ? e->AsInt64() : std::optional<int64_t>();
    if (!entry.has_value()) return MissingKey("catalog.entry");
    s.catalog_entry = static_cast<int>(*entry);
    if (!dbl(c, "match_rate", &s.catalog_match_rate)) {
      return MissingKey("catalog.match_rate");
    }
    if (!boolean(c, "drifted", &s.drifted)) return MissingKey("catalog.drifted");
  }
  {
    // Optional-with-default: only streaming runs write this object.
    const JsonValue* st = v.Find("stream");
    if (st != nullptr) {
      if (!st->is_object()) return MissingKey("stream");
      s.streaming = true;
      if (!u64(st, "epochs", &s.stream_epochs) ||
          !u64(st, "evolutions", &s.stream_evolutions) ||
          !u64(st, "discovery_runs", &s.stream_discovery_runs) ||
          !u64(st, "checkpoints", &s.stream_checkpoints) ||
          !u64(st, "oversized_lines", &s.stream_oversized_lines)) {
        return MissingKey("stream");
      }
    }
  }
  if (!str("match_engine", &s.match_engine)) return MissingKey("match_engine");
  if (!str("charset_engine", &s.charset_engine)) {
    return MissingKey("charset_engine");
  }
  {
    const JsonValue* m = v.Find("threads");
    const auto val = m != nullptr ? m->AsInt64() : std::optional<int64_t>();
    if (!val.has_value()) return MissingKey("threads");
    s.threads = static_cast<int>(*val);
  }
  {
    const JsonValue* t = v.Find("timings");
    if (t == nullptr || !t->is_object()) return MissingKey("timings");
    if (!dbl(t, "catalog_match_s", &s.timings.catalog_match_s) ||
        !dbl(t, "generation_s", &s.timings.generation_s) ||
        !dbl(t, "pruning_s", &s.timings.pruning_s) ||
        !dbl(t, "evaluation_s", &s.timings.evaluation_s) ||
        !dbl(t, "refinement_s", &s.timings.refinement_s) ||
        !dbl(t, "extraction_s", &s.timings.extraction_s) ||
        !dbl(t, "total_s", &s.timings.total_s)) {
      return MissingKey("timings");
    }
  }
  return s;
}

}  // namespace datamaran
