// Tests for the resilient input front-end (core/input.h + util/gzip.h):
// gzip round trips and failure Statuses, CRLF normalization policies,
// rotation ordering and spec expansion, multi-file stitching parity, the
// windowed InputReader (every input kind — plain, gzip, CRLF, stitched —
// against OpenInputs, gzip errors, truncation under the reader, missing
// and non-regular members), the oversized-line guard, and atomic artifact
// writes.

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <new>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "core/datamaran.h"
#include "core/input.h"
#include "extraction/extractor.h"
#include "template/catalog.h"
#include "util/file_io.h"
#include "util/gzip.h"
#include "util/sampler.h"
#include "util/strings.h"

#if defined(__unix__) || defined(__APPLE__)
#include <sys/resource.h>
#include <sys/stat.h>
#endif

// Allocation counting for the InputReader allocation tests: while a
// thread's flag is set, every operator new it calls for at least
// kLargeAllocation bytes is counted. The nothrow forms (std::stable_sort's
// temporary buffer) are replaced too, so every form frees with free().
namespace {
constexpr std::size_t kLargeAllocation = 64 * 1024;
thread_local bool tl_count_allocations = false;
thread_local size_t tl_large_allocations = 0;

void* CountedMalloc(std::size_t size) noexcept {
  if (tl_count_allocations && size >= kLargeAllocation) {
    ++tl_large_allocations;
  }
  return std::malloc(size == 0 ? 1 : size);
}
}  // namespace

// Neither side is inlined, so the compiler never sees malloc() meet
// operator delete or free() meet operator new's result.
[[gnu::noinline]] void* operator new(std::size_t size) {
  if (void* p = CountedMalloc(size)) return p;
  throw std::bad_alloc();
}
[[gnu::noinline]] void* operator new(std::size_t size,
                                     const std::nothrow_t&) noexcept {
  return CountedMalloc(size);
}
void* operator new[](std::size_t size) { return ::operator new(size); }
void* operator new[](std::size_t size, const std::nothrow_t& tag) noexcept {
  return ::operator new(size, tag);
}
[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { ::operator delete(p); }
void operator delete(void* p, std::size_t) noexcept { ::operator delete(p); }
void operator delete[](void* p, std::size_t) noexcept { ::operator delete(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept {
  ::operator delete(p);
}
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  ::operator delete(p);
}

namespace datamaran {
namespace {

namespace fs = std::filesystem;

/// Fresh empty directory under the gtest temp root.
std::string MakeCaseDir(const std::string& name) {
  const std::string dir = testing::TempDir() + "/dm_input_" + name;
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir;
}

void WriteOrDie(const std::string& path, std::string_view bytes) {
  ASSERT_TRUE(WriteStringToFile(path, bytes).ok()) << path;
}

// ------------------------------------------------------------------ gzip ---

TEST(Gzip, RoundTrip) {
  if (!GzipSupported()) GTEST_SKIP() << "built without zlib";
  const std::string text = "alpha,1\nbeta,2\ngamma,3\n";
  auto gz = GzipCompress(text);
  ASSERT_TRUE(gz.ok());
  EXPECT_TRUE(LooksGzip(gz.value()));
  auto back = GunzipToString(gz.value());
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back.value(), text);
}

TEST(Gzip, MultiMemberConcatenation) {
  if (!GzipSupported()) GTEST_SKIP() << "built without zlib";
  // Rotated logs are frequently `cat a.gz b.gz > all.gz`; each member must
  // inflate and the outputs concatenate.
  auto a = GzipCompress("first member\n");
  auto b = GzipCompress("second member\n");
  ASSERT_TRUE(a.ok() && b.ok());
  auto back = GunzipToString(a.value() + b.value());
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back.value(), "first member\nsecond member\n");
}

TEST(Gzip, TruncatedStreamIsCleanError) {
  if (!GzipSupported()) GTEST_SKIP() << "built without zlib";
  auto gz = GzipCompress(std::string(4096, 'x'));
  ASSERT_TRUE(gz.ok());
  const std::string cut = gz.value().substr(0, gz.value().size() / 2);
  auto back = GunzipToString(cut);
  ASSERT_FALSE(back.ok());
  EXPECT_EQ(back.status().code(), StatusCode::kIoError);
  EXPECT_NE(back.status().ToString().find("truncated"), std::string::npos);
}

TEST(Gzip, CorruptStreamIsCleanError) {
  if (!GzipSupported()) GTEST_SKIP() << "built without zlib";
  auto gz = GzipCompress("some perfectly ordinary log line\n");
  ASSERT_TRUE(gz.ok());
  std::string mangled = gz.value();
  // Flip bytes in the deflate body (past the 10-byte member header).
  for (size_t i = 12; i < mangled.size(); i += 3) mangled[i] ^= 0x5a;
  auto back = GunzipToString(mangled);
  ASSERT_FALSE(back.ok());
  EXPECT_EQ(back.status().code(), StatusCode::kIoError);
}

TEST(Gzip, BombCapIsCleanError) {
  if (!GzipSupported()) GTEST_SKIP() << "built without zlib";
  auto gz = GzipCompress(std::string(1 << 20, 'a'));  // 1 MiB of 'a'
  ASSERT_TRUE(gz.ok());
  auto back = GunzipToString(gz.value(), /*max_output_bytes=*/1024);
  ASSERT_FALSE(back.ok());
  EXPECT_NE(back.status().ToString().find("exceeds cap"), std::string::npos);
}

// ------------------------------------------------------------------ CRLF ---

TEST(Crlf, DetectAndStrip) {
  EXPECT_TRUE(DetectCrlf("a,b\r\nc,d\r\n"));
  EXPECT_FALSE(DetectCrlf("a,b\nc,d\n"));
  EXPECT_FALSE(DetectCrlf("lone\rcarriage\n"));

  std::string text = "a,b\r\nc\rd\r\n";
  EXPECT_EQ(StripCrlfInPlace(&text), 2u);
  EXPECT_EQ(text, "a,b\nc\rd\n");  // the lone \r is data, untouched
}

TEST(Crlf, PolicyMatrix) {
  const std::string crlf_text = "x,1\r\ny,2\r\n";
  InputOptions keep;
  keep.crlf = CrlfPolicy::kKeep;
  auto kept = DatasetFromBytes(crlf_text, keep);
  ASSERT_TRUE(kept.ok());
  EXPECT_EQ(kept->line(0), "x,1\r");  // bytes preserved

  for (CrlfPolicy p : {CrlfPolicy::kAuto, CrlfPolicy::kStrip}) {
    InputOptions in;
    in.crlf = p;
    auto ds = DatasetFromBytes(crlf_text, in);
    ASSERT_TRUE(ds.ok());
    EXPECT_EQ(ds->line(0), "x,1");
    EXPECT_EQ(ds->line(1), "y,2");
  }
}

TEST(Crlf, NulBytesFlowThrough) {
  std::string hostile = "a";
  hostile.push_back('\0');
  hostile += "b,1\nc,2\n";
  auto ds = DatasetFromBytes(hostile, InputOptions{});
  ASSERT_TRUE(ds.ok());
  ASSERT_EQ(ds->line_count(), 2u);
  std::string want = "a";
  want.push_back('\0');
  want += "b,1";
  EXPECT_EQ(ds->line(0), want);
}

// -------------------------------------------------------------- rotation ---

TEST(Rotation, KeyFor) {
  EXPECT_EQ(RotationKeyFor("app.log").base, "app.log");
  EXPECT_EQ(RotationKeyFor("app.log").index, -1);
  EXPECT_EQ(RotationKeyFor("app.log.1").base, "app.log");
  EXPECT_EQ(RotationKeyFor("app.log.1").index, 1);
  EXPECT_EQ(RotationKeyFor("app.log.12.gz").base, "app.log");
  EXPECT_EQ(RotationKeyFor("app.log.12.gz").index, 12);
  EXPECT_EQ(RotationKeyFor("app.log.gz").base, "app.log");
  EXPECT_EQ(RotationKeyFor("app.log.gz").index, -1);
  // A 4-digit suffix is a year, not a rotation generation.
  EXPECT_EQ(RotationKeyFor("data.2023").base, "data.2023");
  EXPECT_EQ(RotationKeyFor("data.2023").index, -1);
}

TEST(Rotation, SortOldestFirst) {
  std::vector<std::string> paths = {"app.log", "app.log.10.gz", "app.log.2",
                                    "app.log.1", "b.log"};
  SortByRotation(&paths);
  const std::vector<std::string> want = {"app.log.10.gz", "app.log.2",
                                         "app.log.1", "app.log", "b.log"};
  EXPECT_EQ(paths, want);
}

TEST(Rotation, ExpandInputSpec) {
  const std::string dir = MakeCaseDir("spec");
  WriteOrDie(dir + "/app.log", "live\n");
  WriteOrDie(dir + "/app.log.1", "older\n");
  WriteOrDie(dir + "/app.log.2", "oldest\n");
  WriteOrDie(dir + "/other.txt", "x\n");

  auto paths = ExpandInputSpec(dir + "/app.log*");
  ASSERT_TRUE(paths.ok());
  const std::vector<std::string> want = {dir + "/app.log.2", dir + "/app.log.1",
                                         dir + "/app.log"};
  EXPECT_EQ(paths.value(), want);

  auto missing = ExpandInputSpec(dir + "/nope*");
  ASSERT_FALSE(missing.ok());
  EXPECT_EQ(missing.status().code(), StatusCode::kNotFound);
}

// ------------------------------------------------------------- stitching ---

TEST(OpenInputs, StitchedEqualsConcatenated) {
  const std::string dir = MakeCaseDir("stitch");
  const std::string oldest = "1,100\n2,200\n";
  const std::string older = "3,300\n4,400";  // missing trailing newline
  const std::string live = "5,500\n";

  WriteOrDie(dir + "/s.log", live);
  WriteOrDie(dir + "/s.log.1", older);
  if (GzipSupported()) {
    auto gz = GzipCompress(oldest);
    ASSERT_TRUE(gz.ok());
    WriteOrDie(dir + "/s.log.2.gz", gz.value());
  } else {
    WriteOrDie(dir + "/s.log.2", oldest);
  }

  auto paths = ExpandInputSpec(dir + "/s.log*");
  ASSERT_TRUE(paths.ok());
  auto ds = OpenInputs(paths.value(), InputOptions{});
  ASSERT_TRUE(ds.ok());
  // Member boundaries must not merge records: s.log.1 has no trailing
  // newline, yet "5,500" stays its own line.
  EXPECT_EQ(ds->text(), "1,100\n2,200\n3,300\n4,400\n5,500\n");
}

TEST(OpenInput, GzipFileAndErrors) {
  const std::string dir = MakeCaseDir("open");
  WriteOrDie(dir + "/plain.log", "p,1\n");
  auto plain = OpenInput(dir + "/plain.log", InputOptions{});
  ASSERT_TRUE(plain.ok());
  EXPECT_EQ(plain->text(), "p,1\n");

  auto missing = OpenInput(dir + "/absent.log", InputOptions{});
  ASSERT_FALSE(missing.ok());

  if (!GzipSupported()) return;
  auto gz = GzipCompress("g,1\ng,2\n");
  ASSERT_TRUE(gz.ok());
  WriteOrDie(dir + "/ok.log.gz", gz.value());
  auto inflated = OpenInput(dir + "/ok.log.gz", InputOptions{});
  ASSERT_TRUE(inflated.ok());
  EXPECT_EQ(inflated->text(), "g,1\ng,2\n");

  // Truncated member: error Status names the file.
  WriteOrDie(dir + "/cut.log.gz", gz.value().substr(0, gz.value().size() - 4));
  auto cut = OpenInput(dir + "/cut.log.gz", InputOptions{});
  ASSERT_FALSE(cut.ok());
  EXPECT_EQ(cut.status().code(), StatusCode::kIoError);
  EXPECT_NE(cut.status().ToString().find("cut.log.gz"), std::string::npos);
}

// ----------------------------------------------------------- InputReader ---

/// Every decision a scan emits, with its stream line and bytes.
class TranscriptSink : public EventSink {
 public:
  void OnRecord(int template_id, size_t first_line, std::string_view text,
                size_t pos, size_t end, const MatchEvent* /*events*/,
                size_t /*num_events*/) override {
    log += StrFormat("R%d@%zu:", template_id, first_line);
    log.append(text.data() + pos, end - pos);
  }
  void OnNoiseLine(size_t line_index) override {
    log += StrFormat("N@%zu:<index only>", line_index);
  }
  void OnNoiseText(size_t line_index, std::string_view line) override {
    log += StrFormat("N@%zu:", line_index);
    log.append(line.data(), line.size());
  }
  std::string log;
};

/// The transcript and counts ExtractEvents yields over the whole text,
/// with noise resolved against it as the reader delivers it.
std::pair<std::string, ExtractionResult> WholeBufferScan(
    const Extractor& extractor, const Dataset& data) {
  class Resolve : public TranscriptSink {
   public:
    explicit Resolve(const Dataset& data) : data_(data) {}
    void OnNoiseLine(size_t line_index) override {
      OnNoiseText(line_index, data_.line_with_newline(line_index));
    }

   private:
    const Dataset& data_;
  } sink(data);
  ExtractionResult counts = extractor.ExtractEvents(DatasetView(data), &sink);
  return {std::move(sink.log), std::move(counts)};
}

/// Compares every call of a reader over `paths` with OpenInputs' Dataset
/// at windows of 1 byte, 13 bytes and kWindowBytes: size, the sample under
/// three samplers (read before the size is known and again after the scan
/// learned it), and the scan's transcript and counts.
void ExpectReaderServesOpenInputs(const std::vector<std::string>& paths,
                                  const InputOptions& options,
                                  const Extractor& extractor) {
  auto data = OpenInputs(paths, options);
  ASSERT_TRUE(data.ok()) << data.status().ToString();
  const auto [want_log, want] = WholeBufferScan(extractor, data.value());
  SamplerOptions small;
  small.max_sample_bytes = 512;
  small.num_chunks = 3;
  SamplerOptions capped = small;
  capped.max_line_bytes = 8;
  const SamplerOptions whole;  // the 256 KiB default: every case fits
  // A budget far past any input, set to sample whole files: a stream's
  // text, reserved before its size is known, must not be reserved at it.
  SamplerOptions huge;
  huge.max_sample_bytes = size_t{1} << 50;
  for (const size_t window :
       {size_t{1}, size_t{13}, InputReader::kWindowBytes}) {
    for (const SamplerOptions& sampler : {small, capped, whole, huge}) {
      SCOPED_TRACE(StrFormat("window %zu, sample budget %zu, line cap %zu",
                             window, sampler.max_sample_bytes,
                             sampler.max_line_bytes));
      auto reader = InputReader::Open(paths, options);
      ASSERT_TRUE(reader.ok()) << reader.status().ToString();
      EXPECT_TRUE(reader->windowed());
      reader->set_window_bytes(window);
      const DatasetView want_view = SampleView(data.value(), sampler);
      for (int round = 0; round < 2; ++round) {
        SCOPED_TRACE(round == 0 ? "sample first" : "sample after the scan");
        std::optional<Dataset> copy;
        auto sample = reader->ReadSample(sampler, &copy);
        ASSERT_TRUE(sample.ok()) << sample.status().ToString();
        EXPECT_TRUE(copy.has_value());
        EXPECT_EQ(reader->size_bytes(), data->size_bytes());
        ASSERT_EQ(sample->line_count(), want_view.line_count());
        for (size_t v = 0; v < want_view.line_count(); ++v) {
          ASSERT_EQ(sample->line_with_newline(v),
                    want_view.line_with_newline(v))
              << "line " << v;
        }
        if (round == 1) break;

        TranscriptSink sink;
        auto scanned = reader->Scan(extractor, &sink);
        ASSERT_TRUE(scanned.ok()) << scanned.status().ToString();
        EXPECT_EQ(sink.log, want_log);
        EXPECT_EQ(scanned->total_lines, want.total_lines);
        EXPECT_EQ(scanned->total_chars, want.total_chars);
        EXPECT_EQ(scanned->covered_chars, want.covered_chars);
        EXPECT_EQ(scanned->matched_records, want.matched_records);
        EXPECT_EQ(scanned->noise_line_count, want.noise_line_count);
        EXPECT_EQ(scanned->records_per_template, want.records_per_template);
      }
    }
  }
}

/// "F,F\n": matches the numbered lines of the test bodies below.
std::vector<StructureTemplate> PairTemplates() {
  std::vector<StructureTemplate> templates;
  templates.push_back(StructureTemplate::FromCanonical("F,F\n").value());
  return templates;
}

/// 300 lines: "i,3i" records with a comment line every seventh.
std::string NumberedBody() {
  std::string body;
  for (int i = 0; i < 300; ++i) {
    body += i % 7 == 3 ? "# comment " + std::to_string(i) + "\n"
                       : std::to_string(i) + "," + std::to_string(i * 3) +
                             "\n";
  }
  return body;
}

std::string ToCrlf(std::string_view text) {
  std::string crlf;
  for (char c : text) {
    if (c == '\n') crlf += '\r';
    crlf += c;
  }
  return crlf;
}

/// LF lines, some holding a lone '\r', until the first "\r\n" lands with
/// its '\n' at byte `lf_at`; CRLF lines follow, past kCrlfProbeBytes.
std::string CrlfFrom(size_t lf_at) {
  std::string text;
  for (int i = 0; text.size() < lf_at; ++i) {
    text += std::to_string(i) + (i % 5 == 0 ? ",a\rb\n" : ",x\n");
  }
  // Cut back to a line end, then pad one line so its '\n' sits at lf_at,
  // preceded by the '\r' that makes it the first CRLF.
  text.resize(text.rfind('\n', lf_at - 2) + 1);
  const size_t pad = lf_at - 1 - text.size();
  text += std::string(pad, '7') + "\r\n";
  for (int i = 0; text.size() < kCrlfProbeBytes + 4096; ++i) {
    text += std::to_string(i) + (i % 9 == 0 ? ",c\rd\r\n" : ",y\r\n");
  }
  return text;
}

TEST(InputReader, EveryPathServesOpenInputsText) {
  // Every input is read through the window — plain files with and without
  // a final newline or CRLFs, gzip files with one or two members, CRLF
  // decided per member right at the probe's edge, stitches with gzip,
  // empty and unterminated members — and must yield the size, sample and
  // scan OpenInputs' Dataset would.
  const std::string dir = MakeCaseDir("reader");
  const std::string body = NumberedBody();
  WriteOrDie(dir + "/plain.log", body);
  WriteOrDie(dir + "/noeol.log", body.substr(0, body.size() - 1));
  WriteOrDie(dir + "/empty.log", "");
  WriteOrDie(dir + "/crlf.log", ToCrlf(body));
  WriteOrDie(dir + "/part.log.1", body.substr(0, 400));
  WriteOrDie(dir + "/part.log", body.substr(400));
  const std::string inside = CrlfFrom(kCrlfProbeBytes - 1);
  const std::string outside = CrlfFrom(kCrlfProbeBytes);
  ASSERT_EQ(inside.find("\r\n"), kCrlfProbeBytes - 2);
  ASSERT_EQ(outside.find("\r\n"), kCrlfProbeBytes - 1);
  WriteOrDie(dir + "/inside.log", inside);
  WriteOrDie(dir + "/outside.log", outside);
  // The head's only CRLF straddles a 4 KiB block: '\r' at 4095, '\n' at
  // 4096.
  const std::string straddle = CrlfFrom(4096);
  ASSERT_EQ(straddle.find("\r\n"), 4095u);
  WriteOrDie(dir + "/straddle.log", straddle);
  std::vector<std::vector<std::string>> cases = {
      {dir + "/plain.log"},
      {dir + "/noeol.log"},
      {dir + "/empty.log"},
      {dir + "/crlf.log"},
      {dir + "/inside.log"},
      {dir + "/outside.log"},
      {dir + "/straddle.log"},
      {dir + "/part.log.1", dir + "/part.log"},
      {dir + "/part.log.1", dir + "/empty.log", dir + "/part.log"},
      // One CRLF decision per member: the first strips, the second keeps.
      {dir + "/inside.log", dir + "/outside.log"},
      {dir + "/noeol.log", dir + "/crlf.log"},
  };
  if (GzipSupported()) {
    auto gz = GzipCompress(body);
    auto first = GzipCompress(body.substr(0, 1000));
    auto second = GzipCompress(body.substr(1000));
    // CRLF-terminated, ending in a lone '\r' that no '\n' follows.
    auto crlf_gz = GzipCompress(ToCrlf(body.substr(0, 600)) + "tail\r");
    ASSERT_TRUE(gz.ok() && first.ok() && second.ok() && crlf_gz.ok());
    WriteOrDie(dir + "/plain.log.gz", gz.value());
    WriteOrDie(dir + "/two.log.gz", first.value() + second.value());
    WriteOrDie(dir + "/crlf.log.gz", crlf_gz.value());
    cases.push_back({dir + "/plain.log.gz"});
    cases.push_back({dir + "/two.log.gz"});
    cases.push_back({dir + "/crlf.log.gz"});
    cases.push_back({dir + "/part.log.1", dir + "/crlf.log.gz",
                     dir + "/plain.log"});
    cases.push_back({dir + "/two.log.gz", dir + "/empty.log",
                     dir + "/noeol.log"});
  }
  const std::vector<StructureTemplate> templates = PairTemplates();
  const Extractor extractor(&templates);
  for (const std::vector<std::string>& paths : cases) {
    std::string names;
    for (const std::string& p : paths) {
      names += " ";
      names += fs::path(p).filename().string();
    }
    SCOPED_TRACE(names);
    ExpectReaderServesOpenInputs(paths, InputOptions{}, extractor);
  }
  // The explicit policies, on the members whose kAuto decision differs.
  for (const CrlfPolicy policy : {CrlfPolicy::kKeep, CrlfPolicy::kStrip}) {
    SCOPED_TRACE(policy == CrlfPolicy::kKeep ? "keep" : "strip");
    InputOptions options;
    options.crlf = policy;
    ExpectReaderServesOpenInputs({dir + "/outside.log"}, options, extractor);
    ExpectReaderServesOpenInputs({dir + "/inside.log", dir + "/noeol.log"},
                                 options, extractor);
  }
}

TEST(InputReader, BadGzipMemberFailsAsOpenInputsDoes) {
  // A truncated member, a corrupt one and one over max_inflate_bytes: the
  // sample and the scan each fail with OpenInputs' code and message,
  // alone and as the second member of a stitch.
  if (!GzipSupported()) GTEST_SKIP() << "built without zlib";
  const std::string dir = MakeCaseDir("badgz");
  const std::string body = NumberedBody();
  WriteOrDie(dir + "/plain.log", body);
  auto gz = GzipCompress(body + body);
  ASSERT_TRUE(gz.ok());
  WriteOrDie(dir + "/cut.log.gz", gz.value().substr(0, gz.value().size() / 2));
  std::string mangled = gz.value();
  for (size_t i = 12; i < mangled.size(); i += 3) mangled[i] ^= 0x5a;
  WriteOrDie(dir + "/corrupt.log.gz", mangled);
  WriteOrDie(dir + "/bomb.log.gz", gz.value());
  InputOptions capped;
  capped.max_inflate_bytes = body.size();
  const std::vector<StructureTemplate> templates = PairTemplates();
  const Extractor extractor(&templates);
  SamplerOptions sampler;
  sampler.max_sample_bytes = 512;
  for (const std::string name : {"cut.log.gz", "corrupt.log.gz", "bomb.log.gz"}) {
    const InputOptions options =
        name == "bomb.log.gz" ? capped : InputOptions{};
    for (const std::vector<std::string>& paths :
         std::vector<std::vector<std::string>>{
             {dir + "/" + name}, {dir + "/plain.log", dir + "/" + name}}) {
      SCOPED_TRACE(paths.size() == 1 ? name : "plain.log " + name);
      auto data = OpenInputs(paths, options);
      ASSERT_FALSE(data.ok());
      const Status& want = data.status();
      EXPECT_NE(want.message().find(name), std::string::npos);
      for (const size_t window : {size_t{13}, InputReader::kWindowBytes}) {
        auto reader = InputReader::Open(paths, options);
        ASSERT_TRUE(reader.ok()) << reader.status().ToString();
        reader->set_window_bytes(window);
        std::optional<Dataset> copy;
        auto sample = reader->ReadSample(sampler, &copy);
        TranscriptSink sink;
        auto scanned = reader->Scan(extractor, &sink);
        ASSERT_FALSE(sample.ok());
        ASSERT_FALSE(scanned.ok());
        for (const Status& got : {sample.status(), scanned.status()}) {
          EXPECT_EQ(got.code(), want.code());
          EXPECT_EQ(got.message(), want.message());
        }
      }
    }
  }
}

TEST(InputReader, TruncatedFileIsAnErrorNotACrash) {
  // A copytruncate rotation cuts a file after it was opened. Reading the
  // sample and scanning must both fail with an IoError naming the path
  // and both sizes — no crash, and no partial success — whether the file
  // is read alone or as the plain member of a stitch.
  const std::string dir = MakeCaseDir("truncated");
  const std::string path = dir + "/app.log";
  std::string body;
  for (int i = 0; body.size() < (size_t{2} << 20); ++i) {
    body += std::to_string(i) + "," + std::to_string(i % 97) + "\n";
  }
  WriteOrDie(dir + "/app.log.1", "1,2\n3,4\n");
  const std::vector<StructureTemplate> templates = PairTemplates();
  const Extractor extractor(&templates);

  for (const std::vector<std::string>& paths :
       std::vector<std::vector<std::string>>{{path},
                                             {dir + "/app.log.1", path}}) {
    SCOPED_TRACE(paths.size());
    WriteOrDie(path, body);
    auto reader = InputReader::Open(paths, InputOptions{});
    ASSERT_TRUE(reader.ok()) << reader.status().ToString();
    fs::resize_file(path, body.size() / 2);

    std::optional<Dataset> copy;
    auto sample = reader->ReadSample(SamplerOptions{}, &copy);
    ASSERT_FALSE(sample.ok());
    TranscriptSink sink;
    auto scanned = reader->Scan(extractor, &sink);
    ASSERT_FALSE(scanned.ok());
    for (const Status& error : {sample.status(), scanned.status()}) {
      EXPECT_EQ(error.code(), StatusCode::kIoError);
      const std::string message = error.ToString();
      EXPECT_NE(message.find(path), std::string::npos) << message;
      EXPECT_NE(message.find(std::to_string(body.size())), std::string::npos)
          << message;
      EXPECT_NE(message.find(std::to_string(body.size() / 2)),
                std::string::npos)
          << message;
    }
  }
}

TEST(InputReader, MissingOrNonRegularPathIsAnError) {
  // Only a regular file has a size to read up to. A missing path, a FIFO
  // (what `<(cmd)` and a piped /dev/stdin are) and a directory must each
  // fail Open with an IoError naming the path — never open as an empty
  // input, and never wait for a FIFO writer — read alone or as the second
  // member of a stitch.
  if (!RandomAccessFile::kSupported) GTEST_SKIP() << "no positioned reads";
  const std::string dir = MakeCaseDir("nonregular");
  const std::string plain = dir + "/plain.log";
  WriteOrDie(plain, "1,2\n");
  std::vector<std::string> bad = {dir + "/absent.log", dir};
#if defined(__unix__) || defined(__APPLE__)
  const std::string fifo = dir + "/pipe.log";
  ASSERT_EQ(::mkfifo(fifo.c_str(), 0600), 0);
  bad.push_back(fifo);
#endif
  for (const std::string& path : bad) {
    for (const std::vector<std::string>& paths :
         std::vector<std::vector<std::string>>{{path}, {plain, path}}) {
      auto reader = InputReader::Open(paths, InputOptions{});
      ASSERT_FALSE(reader.ok()) << path;
      EXPECT_EQ(reader.status().code(), StatusCode::kIoError) << path;
      const std::string message = reader.status().ToString();
      EXPECT_NE(message.find(path), std::string::npos) << message;
    }
  }
}

TEST(InputReader, StitchPastTheDescriptorLimitIsAnError) {
  // Open holds one descriptor per member, so a stitch with more members
  // than the process may open fails Open with an IoError naming the
  // member it could not open.
#if defined(__unix__) || defined(__APPLE__)
  const std::string dir = MakeCaseDir("fdlimit");
  std::vector<std::string> paths;
  for (int m = 0; m < 64; ++m) {
    paths.push_back(dir + "/app.log." + std::to_string(m));
    WriteOrDie(paths.back(), "1,2\n");
  }
  struct rlimit saved;
  ASSERT_EQ(::getrlimit(RLIMIT_NOFILE, &saved), 0);
  struct rlimit low = saved;
  low.rlim_cur = 32;
  ASSERT_EQ(::setrlimit(RLIMIT_NOFILE, &low), 0);
  auto reader = InputReader::Open(paths, InputOptions{});
  ASSERT_EQ(::setrlimit(RLIMIT_NOFILE, &saved), 0);
  ASSERT_FALSE(reader.ok());
  EXPECT_EQ(reader.status().code(), StatusCode::kIoError);
  const std::string message = reader.status().ToString();
  EXPECT_NE(message.find(dir + "/app.log."), std::string::npos) << message;
#else
  GTEST_SKIP() << "no descriptor limit to lower";
#endif
}

/// Allocations of at least kLargeAllocation bytes `fn` makes on this
/// thread.
template <typename Fn>
size_t LargeAllocations(Fn&& fn) {
  tl_large_allocations = 0;
  tl_count_allocations = true;
  fn();
  tl_count_allocations = false;
  return tl_large_allocations;
}

/// At least `bytes` of 64-byte "F,F" lines: short enough lines that no
/// 256 KiB segment's line index reaches kLargeAllocation.
std::string WidePairLines(size_t bytes) {
  std::string text;
  text.reserve(bytes + 64);
  for (int i = 0; text.size() < bytes; ++i) {
    text += StrFormat("%09d,%053d\n", i, i * 3);
  }
  return text;
}

TEST(InputReader, ScanAllocatesItsBuffersOncePerReader) {
  // The scan reads every segment into one buffer, indexes it with one line
  // index and keeps one set of wave buffers, so a file of 64 windows makes
  // no more large allocations than one of 16 windows.
  const std::string dir = MakeCaseDir("scan_allocations");
  const std::vector<StructureTemplate> templates = PairTemplates();
  const Extractor extractor(&templates);
  std::vector<size_t> allocations;
  for (const size_t windows : {size_t{16}, size_t{64}}) {
    SCOPED_TRACE(StrFormat("%zu windows", windows));
    const std::string path = dir + StrFormat("/w%zu.log", windows);
    const std::string text = WidePairLines(windows * InputReader::kWindowBytes);
    WriteOrDie(path, text);
    auto reader = InputReader::Open({path}, InputOptions{});
    ASSERT_TRUE(reader.ok()) << reader.status().ToString();
    std::optional<Result<ExtractionResult>> scanned;
    allocations.push_back(LargeAllocations(
        [&] { scanned.emplace(reader->Scan(extractor, nullptr)); }));
    ASSERT_TRUE(scanned->ok()) << scanned->status().ToString();
    EXPECT_EQ(scanned->value().total_chars, text.size());
    EXPECT_EQ(scanned->value().matched_records, text.size() / 64);
  }
  EXPECT_GT(allocations[0], 0u);  // the counter sees the scan's buffer
  EXPECT_LE(allocations[1], allocations[0]);
}

TEST(InputReader, SampleTextIsAllocatedOnce) {
  // A file past the sample budget is read in its sampled ranges, whose
  // total is known before a byte is read: the text is reserved once
  // instead of doubling toward the sample's size.
  const std::string dir = MakeCaseDir("sample_allocations");
  const std::string path = dir + "/big.log";
  WriteOrDie(path, WidePairLines(8 * InputReader::kWindowBytes));
  auto reader = InputReader::Open({path}, InputOptions{});
  ASSERT_TRUE(reader.ok()) << reader.status().ToString();
  const SamplerOptions sampler;
  std::optional<Dataset> copy;
  std::optional<Result<DatasetView>> sample;
  const size_t allocations = LargeAllocations(
      [&] { sample.emplace(reader->ReadSample(sampler, &copy)); });
  ASSERT_TRUE(sample->ok()) << sample->status().ToString();
  ASSERT_TRUE(copy.has_value());
  EXPECT_GT(copy->size_bytes(), sampler.max_sample_bytes * 3 / 4);
  EXPECT_EQ(allocations, 1u);
}

// -------------------------------------------------------- oversized lines ---

TEST(OversizedLines, DegradeToNoise) {
  // A structured corpus with one multi-KB line wedged in: with the guard
  // on, that line must be excluded from discovery AND counted as noise by
  // extraction, not matched or OOM'd on.
  std::string text;
  for (int i = 0; i < 200; ++i) {
    text += StrFormat("%d,%d\n", 100 + i, 1000 + i);
  }
  text += std::string(8192, '7') + "," + std::string(8192, '8') + "\n";
  for (int i = 0; i < 200; ++i) {
    text += StrFormat("%d,%d\n", 300 + i, 5000 + i);
  }

  DatamaranOptions opts;
  opts.num_threads = 1;
  opts.max_line_bytes = 1024;
  Datamaran dm(opts);
  PipelineResult res = dm.ExtractText(text);
  EXPECT_EQ(res.extraction.total_lines, 401u);
  EXPECT_EQ(res.extraction.matched_records, 400u);
  EXPECT_EQ(res.extraction.noise_line_count, 1u);
}

// ---------------------------------------------------------- atomic writes ---

TEST(AtomicWrite, WritesAndReplaces) {
  const std::string dir = MakeCaseDir("atomic");
  const std::string path = dir + "/artifact.txt";
  ASSERT_TRUE(WriteFileAtomic(path, "first\n").ok());
  ASSERT_TRUE(WriteFileAtomic(path, "second\n").ok());
  auto back = ReadFileToString(path);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back.value(), "second\n");
  EXPECT_FALSE(fs::exists(path + ".tmp"));  // no droppings on success
}

TEST(AtomicWrite, TruncatedCatalogIsCleanError) {
  // Simulates the failure WriteFileAtomic prevents: a catalog cut
  // mid-write. Load must return a ParseError Status, not crash or accept.
  const std::string dir = MakeCaseDir("catalog");
  std::string text;
  for (int i = 0; i < 50; ++i) text += StrFormat("%d,%d\n", i, i * 7);
  DatamaranOptions opts;
  opts.num_threads = 1;
  Datamaran dm(opts);
  auto data = DatasetFromBytes(text, InputOptions{});
  ASSERT_TRUE(data.ok());
  std::vector<StructureTemplate> templates =
      dm.DiscoverTemplates(data.value(), nullptr, nullptr, nullptr);
  ASSERT_FALSE(templates.empty());
  TemplateCatalog catalog;
  CatalogEntry entry;
  entry.templates = std::move(templates);
  catalog.AddEntry(std::move(entry));

  const std::string path = dir + "/catalog.txt";
  ASSERT_TRUE(catalog.Save(path).ok());
  auto full = ReadFileToString(path);
  ASSERT_TRUE(full.ok());

  const std::string cut_path = dir + "/catalog_cut.txt";
  WriteOrDie(cut_path, std::string_view(full.value())
                           .substr(0, full.value().size() * 2 / 3));
  auto loaded = TemplateCatalog::Load(cut_path);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kParseError);
}

}  // namespace
}  // namespace datamaran
