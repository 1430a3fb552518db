// Fuzz target: catalog matching + extraction against arbitrary logs. The
// input splits at its first NUL byte into a catalog text and log bytes —
// the fuzzer can therefore mutate the templates and the data they run
// over independently. Only inputs whose first part parses as a catalog
// reach matching/extraction (seed the corpus with a real catalog so that
// path is actually taken); the extractor runs with the oversized-line
// guard on, so crafted giant lines degrade to noise instead of OOMing.
//
// The log is also written to a file and scanned through InputReader at a
// window of 1-64 bytes taken from the input's last byte: its record and
// noise transcript and its counts must equal the whole-buffer
// ExtractEvents over the same bytes, or the target aborts. Fuzzed catalogs
// reach template spans and byte patterns the unit tests do not.

#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <string_view>

#include <unistd.h>

#include "core/input.h"
#include "extraction/extractor.h"
#include "template/catalog.h"
#include "util/file_io.h"
#include "util/strings.h"

namespace {

/// Every decision as one string: records with their stream line and
/// bytes, noise lines with theirs. Index-only noise is resolved against
/// `data` (the whole-buffer scan); the windowed scan carries the text.
class TranscriptSink : public datamaran::EventSink {
 public:
  explicit TranscriptSink(const datamaran::Dataset* data) : data_(data) {}

  void OnRecord(int template_id, size_t first_line, std::string_view text,
                size_t pos, size_t end, const datamaran::MatchEvent* /*events*/,
                size_t num_events) override {
    log += datamaran::StrFormat("R%d@%zu/%zu:", template_id, first_line,
                                num_events);
    log.append(text.data() + pos, end - pos);
  }
  void OnNoiseLine(size_t line_index) override {
    OnNoiseText(line_index, data_->line_with_newline(line_index));
  }
  void OnNoiseText(size_t line_index, std::string_view line) override {
    log += datamaran::StrFormat("N@%zu:", line_index);
    log.append(line.data(), line.size());
  }

  std::string log;

 private:
  const datamaran::Dataset* data_;
};

/// A per-process scratch file for the windowed scan.
std::string ScratchPath() {
  const char* dir = std::getenv("TMPDIR");
  return std::string(dir != nullptr ? dir : "/tmp") +
         "/fuzz_extraction_window." + std::to_string(::getpid()) + ".log";
}

}  // namespace

extern "C" int LLVMFuzzerTestOneInput(const uint8_t* data, size_t size) {
  using namespace datamaran;
  if (size > (64u << 10)) return 0;
  const std::string_view input(reinterpret_cast<const char*>(data), size);
  const size_t split = input.find('\0');
  const std::string_view cat_text =
      split == std::string_view::npos ? input : input.substr(0, split);
  const std::string_view log_bytes =
      split == std::string_view::npos ? std::string_view()
                                      : input.substr(split + 1);

  auto parsed = TemplateCatalog::Parse(cat_text);
  if (!parsed.ok() || parsed.value().empty()) return 0;
  const TemplateCatalog& catalog = parsed.value();

  auto ds = DatasetFromBytes(std::string(log_bytes), InputOptions{});
  if (!ds.ok()) return 0;

  CatalogMatchOptions match_opts;
  match_opts.max_sample_bytes = 2048;
  match_opts.sample_chunks = 2;
  match_opts.max_line_bytes = 512;
  (void)MatchCatalog(catalog, ds.value(), match_opts);

  const CatalogEntry& entry = catalog.entry(0);
  if (entry.templates.empty()) return 0;
  Extractor extractor(&entry.templates, /*pool=*/nullptr,
                      MatchEngine::kCompiled, CharsetEngine::kSimd,
                      /*max_line_bytes=*/512);
  DatasetView view(ds.value());
  TranscriptSink whole(&ds.value());
  const ExtractionResult want = extractor.ExtractEvents(view, &whole);

  const std::string path = ScratchPath();
  if (!WriteStringToFile(path, log_bytes).ok()) return 0;
  auto reader = InputReader::Open({path}, InputOptions{});
  // The reader holds its own descriptor (or the normalized text) now.
  std::remove(path.c_str());
  if (!reader.ok()) std::abort();  // the bytes opened in memory above
  reader.value().set_window_bytes(1 + data[size - 1] % 64);
  TranscriptSink windowed(nullptr);
  auto got = reader.value().Scan(extractor, &windowed);
  if (!got.ok() || windowed.log != whole.log ||
      got->total_lines != want.total_lines ||
      got->total_chars != want.total_chars ||
      got->covered_chars != want.covered_chars ||
      got->matched_records != want.matched_records ||
      got->noise_line_count != want.noise_line_count ||
      got->records_per_template != want.records_per_template) {
    std::fprintf(stderr, "windowed scan differs from the whole buffer\n");
    std::abort();
  }
  return 0;
}
