// Fuzz target: catalog matching + extraction against arbitrary logs. The
// input splits at its first NUL byte into a catalog text and log bytes —
// the fuzzer can therefore mutate the templates and the data they run
// over independently. Only inputs whose first part parses as a catalog
// reach matching/extraction (seed the corpus with a real catalog so that
// path is actually taken); the extractor runs with the oversized-line
// guard on, so crafted giant lines degrade to noise instead of OOMing.
//
// The log is also scanned through InputReader at a window of 1-64 bytes
// taken from the input's last byte, three ways: written to one file, gzip'd
// (when the build has zlib), and split into a two-member stitch at a byte
// the input picks. Each scan's record and noise transcript and its counts
// must equal the whole-buffer ExtractEvents over OpenInputs' Dataset of the
// same files — or, where OpenInputs fails, the scan must fail with the same
// Status — or the target aborts. The files are deleted right after Open, so
// the reader must hold its descriptors. Fuzzed catalogs reach template
// spans and byte patterns the unit tests do not.

#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <string_view>
#include <vector>

#include <unistd.h>

#include "core/input.h"
#include "extraction/extractor.h"
#include "template/catalog.h"
#include "util/file_io.h"
#include "util/gzip.h"
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

/// A per-process scratch file for the windowed scans.
std::string ScratchPath(int member) {
  const char* dir = std::getenv("TMPDIR");
  return std::string(dir != nullptr ? dir : "/tmp") +
         "/fuzz_extraction_window." + std::to_string(::getpid()) + "." +
         std::to_string(member) + ".log";
}

/// Writes `members` to scratch files, scans them through InputReader at
/// `window` and aborts unless the scan equals the whole-buffer scan of
/// OpenInputs' Dataset, or fails with OpenInputs' Status.
void CheckWindowedScan(const std::vector<std::string>& members,
                       size_t window,
                       const datamaran::Extractor& extractor) {
  using namespace datamaran;
  std::vector<std::string> paths;
  for (size_t m = 0; m < members.size(); ++m) {
    paths.push_back(ScratchPath(static_cast<int>(m)));
    if (!WriteStringToFile(paths.back(), members[m]).ok()) std::abort();
  }
  auto data = OpenInputs(paths, InputOptions{});
  auto reader = InputReader::Open(paths, InputOptions{});
  // The reader holds its own descriptors now.
  for (const std::string& path : paths) std::remove(path.c_str());
  if (!reader.ok()) std::abort();  // every member is a regular file
  reader.value().set_window_bytes(window);
  TranscriptSink windowed(nullptr);
  auto got = reader.value().Scan(extractor, &windowed);
  if (!data.ok()) {
    if (got.ok() || got.status().code() != data.status().code() ||
        got.status().message() != data.status().message()) {
      std::fprintf(stderr, "windowed scan error differs from OpenInputs\n");
      std::abort();
    }
    return;
  }
  TranscriptSink whole(&data.value());
  const ExtractionResult want =
      extractor.ExtractEvents(DatasetView(data.value()), &whole);
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
  if (ds.ok()) {
    CatalogMatchOptions match_opts;
    match_opts.max_sample_bytes = 2048;
    match_opts.sample_chunks = 2;
    match_opts.max_line_bytes = 512;
    (void)MatchCatalog(catalog, ds.value(), match_opts);
  }

  const CatalogEntry& entry = catalog.entry(0);
  if (entry.templates.empty()) return 0;
  Extractor extractor(&entry.templates, /*pool=*/nullptr,
                      MatchEngine::kCompiled, CharsetEngine::kSimd,
                      /*max_line_bytes=*/512);
  const size_t window = 1 + data[size - 1] % 64;
  const std::string log(log_bytes);
  CheckWindowedScan({log}, window, extractor);
  if (GzipSupported()) {
    auto gz = GzipCompress(log);
    if (gz.ok()) CheckWindowedScan({gz.value()}, window, extractor);
  }
  const size_t cut =
      ((size_t{data[size / 2]} << 8) | data[size - 1]) % (log.size() + 1);
  CheckWindowedScan({log.substr(0, cut), log.substr(cut)}, window, extractor);
  return 0;
}
