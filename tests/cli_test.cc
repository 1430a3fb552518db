#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#if defined(__unix__) || defined(__APPLE__)
#include <unistd.h>
#endif

#include "core/datamaran.h"
#include "core/input.h"
#include "extraction/sinks.h"
#include "util/file_io.h"
#include "util/gzip.h"
#include "util/strings.h"
#include "util/thread_pool.h"

// End-to-end golden harness for `datamaran_cli --out`: runs the real binary
// (full pipeline: discovery + streaming columnar extraction) on small
// committed corpora and compares the output directory byte-for-byte against
// checked-in goldens at threads {1,4}, for CSV, plus both formats at one
// representative configuration. The engine x backing half of the
// determinism matrix — the reference tree matcher and forced mmap/read
// backings, which are test oracles reachable only through DatamaranOptions
// — runs in process through the CLI's own library sequence against the
// same goldens (CliEngineMatrixTest). Any divergence in discovery, scan
// order, stitching, or writer bytes fails with the offending file named.
//
// DM_CLI_PATH and DM_SOURCE_DIR are injected by CMake.

namespace datamaran {
namespace {

namespace fs = std::filesystem;

std::string SourcePath(const std::string& rel) {
  return std::string(DM_SOURCE_DIR) + "/" + rel;
}

/// Runs a binary; returns its exit code (-1 when it did not exit normally).
int RunBinary(const char* binary, const std::string& args) {
  const std::string cmd =
      std::string("\"") + binary + "\" " + args + " > /dev/null 2>&1";
  const int rc = std::system(cmd.c_str());
  if (rc == -1) return -1;
#if defined(__unix__) || defined(__APPLE__)
  return WIFEXITED(rc) ? WEXITSTATUS(rc) : -1;
#else
  return rc;
#endif
}

int RunCli(const std::string& args) { return RunBinary(DM_CLI_PATH, args); }
int RunCrawl(const std::string& args) { return RunBinary(DM_CRAWL_PATH, args); }

/// Sorted relative file names under `dir` (empty when dir is missing).
std::vector<std::string> ListFiles(const std::string& dir) {
  std::vector<std::string> names;
  std::error_code ec;
  for (const auto& entry : fs::directory_iterator(dir, ec)) {
    if (entry.is_regular_file()) {
      names.push_back(entry.path().filename().string());
    }
  }
  std::sort(names.begin(), names.end());
  return names;
}

/// Asserts `actual_dir` holds exactly the same file set with the same bytes
/// as `golden_dir`.
void ExpectDirsEqual(const std::string& golden_dir,
                     const std::string& actual_dir,
                     const std::string& context) {
  const std::vector<std::string> golden_files = ListFiles(golden_dir);
  const std::vector<std::string> actual_files = ListFiles(actual_dir);
  ASSERT_FALSE(golden_files.empty())
      << "missing golden directory " << golden_dir;
  EXPECT_EQ(golden_files, actual_files) << context;
  for (const std::string& name : golden_files) {
    auto want = ReadFileToString(golden_dir + "/" + name);
    auto got = ReadFileToString(actual_dir + "/" + name);
    ASSERT_TRUE(want.ok()) << golden_dir << "/" << name;
    ASSERT_TRUE(got.ok()) << context << ": missing " << name;
    EXPECT_TRUE(want.value() == got.value())
        << context << ": " << name << " differs from golden ("
        << got.value().size() << " vs " << want.value().size() << " bytes)";
  }
}

void RunGoldenMatrix(const std::string& corpus) {
  const std::string input = SourcePath("tests/data/" + corpus + ".log");
  ASSERT_TRUE(ReadFileToString(input).ok()) << input;
  int run = 0;
  for (const int threads : {1, 4}) {
    const std::string out = ::testing::TempDir() +
                            StrFormat("dm_cli_%s_%d", corpus.c_str(), run++);
    fs::remove_all(out);
    const std::string context =
        StrFormat("%s --threads=%d", corpus.c_str(), threads);
    const int rc = RunCli(StrFormat("\"%s\" --threads=%d --out=\"%s\"",
                                    input.c_str(), threads, out.c_str()));
    ASSERT_EQ(rc, 0) << context;
    ExpectDirsEqual(SourcePath("tests/golden/" + corpus + "_csv"), out,
                    context);
    fs::remove_all(out);
  }
}

/// The normalized layout runs the same thread matrix as CSV: the per-table
/// row-id counters advance with the stitch, so id/parent_id cells are
/// where a thread-count divergence would show first.
void RunGoldenNormalized(const std::string& corpus) {
  const std::string input = SourcePath("tests/data/" + corpus + ".log");
  ASSERT_TRUE(ReadFileToString(input).ok()) << input;
  int run = 0;
  for (const int threads : {1, 4}) {
    const std::string out =
        ::testing::TempDir() +
        StrFormat("dm_cli_norm_%s_%d", corpus.c_str(), run++);
    fs::remove_all(out);
    const std::string context =
        StrFormat("%s --normalized --threads=%d", corpus.c_str(), threads);
    const int rc =
        RunCli(StrFormat("\"%s\" --normalized --threads=%d --out=\"%s\"",
                         input.c_str(), threads, out.c_str()));
    ASSERT_EQ(rc, 0) << context;
    ExpectDirsEqual(SourcePath("tests/golden/" + corpus + "_normalized"),
                    out, context);
    fs::remove_all(out);
  }
}

void RunGoldenNdjson(const std::string& corpus) {
  const std::string input = SourcePath("tests/data/" + corpus + ".log");
  const std::string out =
      ::testing::TempDir() + "dm_cli_" + corpus + "_ndjson";
  fs::remove_all(out);
  const int rc = RunCli(StrFormat(
      "\"%s\" --threads=4 --format=ndjson --out=\"%s\"",
      input.c_str(), out.c_str()));
  ASSERT_EQ(rc, 0) << corpus << " ndjson";
  ExpectDirsEqual(SourcePath("tests/golden/" + corpus + "_ndjson"), out,
                  corpus + " ndjson");
  fs::remove_all(out);
}

TEST(CliGoldenTest, BasicCsvMatrix) { RunGoldenMatrix("cli_basic"); }
TEST(CliGoldenTest, InterleavedCsvMatrix) { RunGoldenMatrix("cli_interleaved"); }
TEST(CliGoldenTest, MultilineCsvMatrix) { RunGoldenMatrix("cli_multiline"); }
TEST(CliGoldenTest, ArraysCsvMatrix) { RunGoldenMatrix("cli_arrays"); }

TEST(CliGoldenTest, BasicNdjson) { RunGoldenNdjson("cli_basic"); }
TEST(CliGoldenTest, InterleavedNdjson) { RunGoldenNdjson("cli_interleaved"); }
TEST(CliGoldenTest, MultilineNdjson) { RunGoldenNdjson("cli_multiline"); }
TEST(CliGoldenTest, ArraysNdjson) { RunGoldenNdjson("cli_arrays"); }

// Hostile-byte corpora run the same thread matrix: CRLF line
// endings (auto-normalized), embedded NUL bytes and invalid UTF-8 flowing
// byte-exact through extraction, and a CRLF file with no trailing newline.
TEST(CliGoldenTest, CrlfCsvMatrix) { RunGoldenMatrix("cli_crlf"); }
TEST(CliGoldenTest, HostileBytesCsvMatrix) { RunGoldenMatrix("cli_hostile"); }
TEST(CliGoldenTest, CrlfNoTrailingNewlineCsvMatrix) {
  RunGoldenMatrix("cli_crlf_noeol");
}

// cli_interleaved exercises multiple record types (root tables only);
// cli_arrays discovers an array template, so its normalized golden also
// pins the child-table layout (id, parent_id, pos columns).
TEST(CliGoldenTest, InterleavedNormalizedMatrix) {
  RunGoldenNormalized("cli_interleaved");
}
TEST(CliGoldenTest, ArraysNormalizedMatrix) {
  RunGoldenNormalized("cli_arrays");
}

// ------------------------------------------------------ resilient inputs ---

bool HaveGzipTool() { return std::system("command -v gzip > /dev/null") == 0; }

/// Writes `text` to `path`.gz via the system gzip tool.
void WriteGzipped(const std::string& path, const std::string& text) {
  ASSERT_TRUE(WriteStringToFile(path, text).ok());
  ASSERT_EQ(std::system(("gzip -nf \"" + path + "\"").c_str()), 0);
}

/// The rotation-stitching invariant: a gzip'd rotated triple (app.log.2.gz
/// oldest, app.log.1, app.log newest) opened via --inputs must produce
/// output byte-identical to a plain pre-concatenated file of the same bytes
/// in chronological order, for every thread count (every engine and
/// backing: CliEngineMatrixTest.RotatedGzipStitch).
TEST(CliInputsTest, RotatedGzipMatchesConcatenatedMatrix) {
  if (!HaveGzipTool()) GTEST_SKIP() << "no gzip tool on PATH";
  const std::string dir = ::testing::TempDir() + "dm_cli_rotated";
  fs::remove_all(dir);
  fs::create_directories(dir);

  auto whole = ReadFileToString(SourcePath("tests/data/cli_basic.log"));
  ASSERT_TRUE(whole.ok());
  const std::string& text = whole.value();
  const size_t third = text.size() / 3;
  const size_t cut1 = text.find('\n', third) + 1;
  const size_t cut2 = text.find('\n', 2 * third) + 1;
  WriteGzipped(dir + "/app.log.2", text.substr(0, cut1));
  ASSERT_TRUE(
      WriteStringToFile(dir + "/app.log.1", text.substr(cut1, cut2 - cut1))
          .ok());
  ASSERT_TRUE(WriteStringToFile(dir + "/app.log", text.substr(cut2)).ok());
  ASSERT_TRUE(WriteStringToFile(dir + "/concat.log", text).ok());

  int run = 0;
  for (const int threads : {1, 4}) {
    const std::string stitched_out =
        ::testing::TempDir() + StrFormat("dm_cli_rot_s_%d", run);
    const std::string concat_out =
        ::testing::TempDir() + StrFormat("dm_cli_rot_c_%d", run++);
    fs::remove_all(stitched_out);
    fs::remove_all(concat_out);
    const std::string context = StrFormat("rotated --threads=%d", threads);
    ASSERT_EQ(RunCli(StrFormat("--inputs=\"%s/app.log*\" --threads=%d "
                               "--out=\"%s\"",
                               dir.c_str(), threads, stitched_out.c_str())),
              0)
        << context;
    ASSERT_EQ(RunCli(StrFormat("\"%s/concat.log\" --threads=%d --out=\"%s\"",
                               dir.c_str(), threads, concat_out.c_str())),
              0)
        << context;
    ExpectDirsEqual(concat_out, stitched_out, context);
    fs::remove_all(stitched_out);
    fs::remove_all(concat_out);
  }
  fs::remove_all(dir);
}

TEST(CliInputsTest, CorruptGzipFailsWithErrorSummary) {
  if (!HaveGzipTool()) GTEST_SKIP() << "no gzip tool on PATH";
  const std::string dir = ::testing::TempDir() + "dm_cli_corrupt";
  fs::remove_all(dir);
  fs::create_directories(dir);
  WriteGzipped(dir + "/full.log", "alpha,1\nbeta,2\ngamma,3\ndelta,4\n");
  auto gz = ReadFileToString(dir + "/full.log.gz");
  ASSERT_TRUE(gz.ok());
  ASSERT_TRUE(WriteStringToFile(dir + "/cut.log.gz",
                                std::string_view(gz.value())
                                    .substr(0, gz.value().size() / 2))
                  .ok());

  const std::string summary = dir + "/summary.json";
  const std::string out = dir + "/out";
  EXPECT_EQ(RunCli(StrFormat("\"%s/cut.log.gz\" --summary-json=\"%s\" "
                             "--out=\"%s\"",
                             dir.c_str(), summary.c_str(), out.c_str())),
            1)
      << "a truncated gzip stream must exit 1, not crash";
  // Sticky Status propagation: the summary JSON carries the error text.
  auto sum = ReadFileToString(summary);
  ASSERT_TRUE(sum.ok()) << "--summary-json must be written even on failure";
  EXPECT_NE(sum.value().find("\"error\": \"IO_ERROR"), std::string::npos);
  EXPECT_NE(sum.value().find("truncated"), std::string::npos);
  fs::remove_all(dir);
}

TEST(CliInputsTest, MissingInputsSpecFailsCleanly) {
  EXPECT_EQ(RunCli("--inputs=/nonexistent/nope*"), 1);
  // --inputs and a positional path are mutually exclusive.
  EXPECT_EQ(RunCli(StrFormat("\"%s\" --inputs=\"%s\"",
                             SourcePath("tests/data/cli_basic.log").c_str(),
                             SourcePath("tests/data/cli_basic.log").c_str())),
            2);
}

// ------------------------------------------------------- catalog fast path ---

/// The headline catalog invariant: a warm (catalog-hit) run must produce
/// byte-identical output to the cold discovery run that built the catalog,
/// for every thread count (every engine and backing:
/// CliEngineMatrixTest.CatalogHit) — the golden directory pins all of them
/// at once. The cold run writes the catalog; the warm runs reload it with
/// discovery skipped.
TEST(CliCatalogTest, CatalogHitMatchesColdDiscoveryMatrix) {
  const std::string input = SourcePath("tests/data/cli_interleaved.log");
  const std::string catalog = ::testing::TempDir() + "dm_cli_catalog.txt";
  const std::string cold_out = ::testing::TempDir() + "dm_cli_catalog_cold";
  fs::remove(catalog);
  fs::remove_all(cold_out);

  ASSERT_EQ(RunCli(StrFormat("\"%s\" --catalog-out=\"%s\" --out=\"%s\"",
                             input.c_str(), catalog.c_str(),
                             cold_out.c_str())),
            0);
  ExpectDirsEqual(SourcePath("tests/golden/cli_interleaved_csv"), cold_out,
                  "cold discovery with --catalog-out");
  auto catalog_text = ReadFileToString(catalog);
  ASSERT_TRUE(catalog_text.ok());
  EXPECT_EQ(catalog_text.value().rfind("datamaran-catalog v2\n", 0), 0u)
      << "catalog file must start with the current version header";
  EXPECT_NE(catalog_text.value().find("\nprogram "), std::string::npos)
      << "saved catalogs carry precompiled programs";

  int run = 0;
  for (const int threads : {1, 4}) {
    const std::string out =
        ::testing::TempDir() + StrFormat("dm_cli_catalog_warm_%d", run++);
    fs::remove_all(out);
    const std::string context =
        StrFormat("catalog hit --threads=%d", threads);
    const int rc = RunCli(
        StrFormat("\"%s\" --catalog-in=\"%s\" --threads=%d --out=\"%s\"",
                  input.c_str(), catalog.c_str(), threads, out.c_str()));
    ASSERT_EQ(rc, 0) << context;
    ExpectDirsEqual(SourcePath("tests/golden/cli_interleaved_csv"), out,
                    context);
    fs::remove_all(out);
  }
  fs::remove_all(cold_out);
  fs::remove(catalog);
}

TEST(CliCatalogTest, MissingCatalogFileFailsCleanly) {
  const std::string input = SourcePath("tests/data/cli_basic.log");
  const std::string out = ::testing::TempDir() + "dm_cli_catalog_missing";
  fs::remove_all(out);
  EXPECT_NE(RunCli(StrFormat(
                "\"%s\" --catalog-in=/nonexistent/catalog.txt --out=\"%s\"",
                input.c_str(), out.c_str())),
            0);
  EXPECT_FALSE(fs::exists(out))
      << "a bad --catalog-in must fail before writing output";
}

TEST(CliCatalogTest, SummaryJsonReportsCatalogAndCounts) {
  const std::string input = SourcePath("tests/data/cli_interleaved.log");
  const std::string catalog = ::testing::TempDir() + "dm_cli_sum_catalog.txt";
  const std::string cold_sum = ::testing::TempDir() + "dm_cli_sum_cold.json";
  const std::string warm_sum = ::testing::TempDir() + "dm_cli_sum_warm.json";
  fs::remove(catalog);

  ASSERT_EQ(RunCli(StrFormat(
                "\"%s\" --catalog-out=\"%s\" --summary-json=\"%s\"",
                input.c_str(), catalog.c_str(), cold_sum.c_str())),
            0);
  auto cold = ReadFileToString(cold_sum);
  ASSERT_TRUE(cold.ok());
  EXPECT_NE(cold.value().find("\"path\": "), std::string::npos);
  EXPECT_NE(cold.value().find("\"total_lines\": 1400"), std::string::npos);
  EXPECT_NE(cold.value().find("\"hit\": false"), std::string::npos);
  EXPECT_NE(cold.value().find("\"refinement_s\": "), std::string::npos);

  ASSERT_EQ(RunCli(StrFormat(
                "\"%s\" --catalog-in=\"%s\" --summary-json=\"%s\"",
                input.c_str(), catalog.c_str(), warm_sum.c_str())),
            0);
  auto warm = ReadFileToString(warm_sum);
  ASSERT_TRUE(warm.ok());
  EXPECT_NE(warm.value().find("\"checked\": true"), std::string::npos);
  EXPECT_NE(warm.value().find("\"hit\": true"), std::string::npos);
  EXPECT_NE(warm.value().find("\"entry\": 0"), std::string::npos);
  EXPECT_NE(warm.value().find("\"drifted\": false"), std::string::npos);
  EXPECT_NE(warm.value().find("\"catalog_match_s\": "), std::string::npos);

  // Cold and warm agree on every extraction-derived count: same templates,
  // same records, same noise — only the catalog/timing sections differ.
  auto section = [](const std::string& text, const char* key) {
    const size_t at = text.find(key);
    EXPECT_NE(at, std::string::npos) << key;
    return text.substr(at, text.find('\n', at) - at);
  };
  for (const char* key :
       {"\"templates\": ", "\"records\": ", "\"records_per_template\": ",
        "\"noise_lines\": ", "\"match_rate\": ", "\"coverage\": "}) {
    EXPECT_EQ(section(cold.value(), key), section(warm.value(), key));
  }

  fs::remove(catalog);
  fs::remove(cold_sum);
  fs::remove(warm_sum);
}

// ------------------------------------------------------------------- crawl ---

/// End-to-end lake crawl: two copies of one format (nested a level deep) and
/// a prose file. The crawler must cluster both copies behind one discovery,
/// write per-file tables byte-identical to the single-file CLI goldens,
/// classify the prose as unstructured, and emit a well-formed manifest; a
/// second crawl warmed by the saved catalog must reproduce the same bytes
/// with zero structured discoveries.
TEST(CliCrawlTest, CrawlClustersExtractsAndWarmRunIsIdentical) {
  const std::string lake = ::testing::TempDir() + "dm_crawl_lake";
  const std::string out = ::testing::TempDir() + "dm_crawl_out";
  const std::string out2 = ::testing::TempDir() + "dm_crawl_out2";
  const std::string catalog = ::testing::TempDir() + "dm_crawl_catalog.txt";
  const std::string manifest = ::testing::TempDir() + "dm_crawl_manifest.json";
  for (const std::string& d : {lake, out, out2}) fs::remove_all(d);
  fs::remove(catalog);

  fs::create_directories(lake + "/sub");
  fs::copy_file(SourcePath("tests/data/cli_interleaved.log"), lake + "/a.log");
  fs::copy_file(SourcePath("tests/data/cli_interleaved.log"),
                lake + "/sub/b.log");
  ASSERT_TRUE(WriteStringToFile(lake + "/readme.txt",
                                "notes about this directory\n"
                                "nothing here is machine readable\n")
                  .ok());

  ASSERT_EQ(RunCrawl(StrFormat(
                "\"%s\" --catalog-out=\"%s\" --out=\"%s\" --manifest=\"%s\"",
                lake.c_str(), catalog.c_str(), out.c_str(),
                manifest.c_str())),
            0);

  // Both copies extract byte-identically to the single-file CLI golden.
  ExpectDirsEqual(SourcePath("tests/golden/cli_interleaved_csv"),
                  out + "/a.log.tables", "crawl a.log");
  ExpectDirsEqual(SourcePath("tests/golden/cli_interleaved_csv"),
                  out + "/sub/b.log.tables", "crawl sub/b.log");

  auto m = ReadFileToString(manifest);
  ASSERT_TRUE(m.ok());
  EXPECT_NE(m.value().find("\"file_count\": 3"), std::string::npos);
  EXPECT_NE(m.value().find("\"format_count\": 1"), std::string::npos)
      << "both copies must cluster into one catalog entry";
  EXPECT_NE(m.value().find("\"unstructured_count\": 1"), std::string::npos);
  EXPECT_NE(m.value().find("\"error_count\": 0"), std::string::npos);
  EXPECT_NE(m.value().find("\"discoveries\": 2"), std::string::npos)
      << "one structured discovery (a.log) plus the prose attempt";
  EXPECT_NE(m.value().find("sub/b.log"), std::string::npos);

  // Warm crawl: catalog-in, zero structured discoveries, identical bytes.
  const std::string manifest2 =
      ::testing::TempDir() + "dm_crawl_manifest2.json";
  ASSERT_EQ(RunCrawl(StrFormat(
                "\"%s\" --catalog-in=\"%s\" --out=\"%s\" --manifest=\"%s\"",
                lake.c_str(), catalog.c_str(), out2.c_str(),
                manifest2.c_str())),
            0);
  auto m2 = ReadFileToString(manifest2);
  ASSERT_TRUE(m2.ok());
  EXPECT_NE(m2.value().find("\"discoveries\": 1"), std::string::npos)
      << "warm crawl re-discovers only the unstructured prose";
  ExpectDirsEqual(out + "/a.log.tables", out2 + "/a.log.tables",
                  "warm crawl a.log");
  ExpectDirsEqual(out + "/sub/b.log.tables", out2 + "/sub/b.log.tables",
                  "warm crawl sub/b.log");

  for (const std::string& d : {lake, out, out2}) fs::remove_all(d);
  fs::remove(catalog);
  fs::remove(manifest);
  fs::remove(manifest2);
}

/// Failure containment: a lake with one good file, one truncated gzip, and
/// one unreadable file must still extract the good file, record the bad
/// ones in the manifest's errors section (with their Status text), and
/// exit 1 — never abort the crawl.
TEST(CliCrawlTest, CrawlContainsPerFileFailures) {
  if (!HaveGzipTool()) GTEST_SKIP() << "no gzip tool on PATH";
  const std::string lake = ::testing::TempDir() + "dm_crawl_fail_lake";
  const std::string out = ::testing::TempDir() + "dm_crawl_fail_out";
  const std::string manifest =
      ::testing::TempDir() + "dm_crawl_fail_manifest.json";
  fs::remove_all(lake);
  fs::remove_all(out);
  fs::create_directories(lake);

  fs::copy_file(SourcePath("tests/data/cli_interleaved.log"),
                lake + "/good.log");
  WriteGzipped(lake + "/full", "a,1\nb,2\nc,3\nd,4\n");
  auto gz = ReadFileToString(lake + "/full.gz");
  ASSERT_TRUE(gz.ok());
  ASSERT_TRUE(WriteStringToFile(lake + "/cut.log.gz",
                                std::string_view(gz.value())
                                    .substr(0, gz.value().size() / 2))
                  .ok());
  fs::remove(lake + "/full.gz");
  // An unreadable file only errors for non-root users; root reads anything,
  // so the truncated gzip above carries this test in root environments.
  bool expect_denied = false;
#if defined(__unix__) || defined(__APPLE__)
  if (::geteuid() != 0) {
    ASSERT_TRUE(WriteStringToFile(lake + "/locked.log", "x,1\n").ok());
    fs::permissions(lake + "/locked.log", fs::perms::none);
    expect_denied = true;
  }
#endif

  EXPECT_EQ(RunCrawl(StrFormat("\"%s\" --out=\"%s\" --manifest=\"%s\"",
                               lake.c_str(), out.c_str(), manifest.c_str())),
            1)
      << "per-file failures exit 1 (and must not abort the crawl)";

  // The good file still extracted, byte-identical to the CLI golden.
  ExpectDirsEqual(SourcePath("tests/golden/cli_interleaved_csv"),
                  out + "/good.log.tables", "crawl good.log despite errors");

  auto m = ReadFileToString(manifest);
  ASSERT_TRUE(m.ok());
  const size_t want_errors = expect_denied ? 2u : 1u;
  EXPECT_NE(
      m.value().find(StrFormat("\"error_count\": %zu", want_errors)),
      std::string::npos)
      << m.value();
  EXPECT_NE(m.value().find("\"errors\": [\n"), std::string::npos);
  EXPECT_NE(m.value().find("cut.log.gz"), std::string::npos);
  EXPECT_NE(m.value().find("truncated"), std::string::npos)
      << "the gzip Status text must reach the manifest";
  if (expect_denied) {
    EXPECT_NE(m.value().find("locked.log"), std::string::npos);
    fs::permissions(lake + "/locked.log", fs::perms::owner_all);
  }

  fs::remove_all(lake);
  fs::remove_all(out);
  fs::remove(manifest);
}

/// Rotation stitching inside the crawl: a rotated gzip'd triple appears in
/// the manifest as ONE logical file whose tables equal a crawl over the
/// pre-concatenated bytes; --no-stitch-rotated restores per-file entries.
TEST(CliCrawlTest, CrawlStitchesRotatedSiblings) {
  if (!HaveGzipTool()) GTEST_SKIP() << "no gzip tool on PATH";
  const std::string lake = ::testing::TempDir() + "dm_crawl_rot_lake";
  const std::string plain = ::testing::TempDir() + "dm_crawl_rot_plain";
  const std::string out = ::testing::TempDir() + "dm_crawl_rot_out";
  const std::string out2 = ::testing::TempDir() + "dm_crawl_rot_out2";
  for (const std::string& d : {lake, plain, out, out2}) fs::remove_all(d);
  fs::create_directories(lake);
  fs::create_directories(plain);

  auto whole = ReadFileToString(SourcePath("tests/data/cli_basic.log"));
  ASSERT_TRUE(whole.ok());
  const std::string& text = whole.value();
  const size_t cut = text.find('\n', text.size() / 2) + 1;
  WriteGzipped(lake + "/app.log.1", text.substr(0, cut));
  ASSERT_TRUE(WriteStringToFile(lake + "/app.log", text.substr(cut)).ok());
  ASSERT_TRUE(WriteStringToFile(plain + "/app.log", text).ok());

  const std::string manifest =
      ::testing::TempDir() + "dm_crawl_rot_manifest.json";
  ASSERT_EQ(RunCrawl(StrFormat("\"%s\" --out=\"%s\" --manifest=\"%s\"",
                               lake.c_str(), out.c_str(), manifest.c_str())),
            0);
  auto m = ReadFileToString(manifest);
  ASSERT_TRUE(m.ok());
  EXPECT_NE(m.value().find("\"file_count\": 1"), std::string::npos)
      << "the rotated pair must crawl as one logical file: " << m.value();

  const std::string manifest2 =
      ::testing::TempDir() + "dm_crawl_rot_manifest2.json";
  ASSERT_EQ(
      RunCrawl(StrFormat("\"%s\" --out=\"%s\" --manifest=\"%s\"",
                         plain.c_str(), out2.c_str(), manifest2.c_str())),
      0);
  ExpectDirsEqual(out2 + "/app.log.tables", out + "/app.log.tables",
                  "stitched rotated crawl vs pre-concatenated crawl");

  const std::string out3 = ::testing::TempDir() + "dm_crawl_rot_out3";
  const std::string manifest3 =
      ::testing::TempDir() + "dm_crawl_rot_manifest3.json";
  fs::remove_all(out3);
  ASSERT_EQ(RunCrawl(StrFormat(
                "\"%s\" --no-stitch-rotated --out=\"%s\" --manifest=\"%s\"",
                lake.c_str(), out3.c_str(), manifest3.c_str())),
            0);
  auto m3 = ReadFileToString(manifest3);
  ASSERT_TRUE(m3.ok());
  EXPECT_NE(m3.value().find("\"file_count\": 2"), std::string::npos)
      << "--no-stitch-rotated keeps per-file entries: " << m3.value();

  for (const std::string& d : {lake, plain, out, out2, out3}) {
    fs::remove_all(d);
  }
  fs::remove(manifest);
  fs::remove(manifest2);
  fs::remove(manifest3);
}

TEST(CliCrawlTest, BadFlagsExitWithUsage) {
  EXPECT_EQ(RunCrawl(""), 2);
  EXPECT_EQ(RunCrawl("--format=parquet /tmp"), 2);
}

TEST(CliGoldenTest, BadFlagsExitWithUsage) {
  EXPECT_EQ(RunCli("--format=parquet input.log"), 2);
  EXPECT_EQ(RunCli("--crlf=sometimes input.log"), 2);
  EXPECT_EQ(RunCli(""), 2);
}

/// Runs a binary capturing stderr to a temp file; returns (exit code,
/// stderr text). Strict flag parsing must name the offending flag there.
std::pair<int, std::string> RunForStderr(const char* binary,
                                         const std::string& args,
                                         const std::string& tag) {
  const std::string err = ::testing::TempDir() + "dm_stderr_" + tag + ".txt";
  const std::string cmd = std::string("\"") + binary + "\" " + args +
                          " > /dev/null 2> \"" + err + "\"";
  int rc = std::system(cmd.c_str());
#if defined(__unix__) || defined(__APPLE__)
  rc = (rc != -1 && WIFEXITED(rc)) ? WEXITSTATUS(rc) : -1;
#endif
  auto text = ReadFileToString(err);
  fs::remove(err);
  return {rc, text.ok() ? text.value() : std::string()};
}

TEST(CliFlagTest, BadNumericFlagValuesExitTwoNamingTheFlag) {
  const std::string input = SourcePath("tests/data/cli_basic.log");
  // One captured case per parser family; the flag name must reach stderr.
  const auto [rc_int, err_int] =
      RunForStderr(DM_CLI_PATH, "\"" + input + "\" --threads=abc", "int");
  EXPECT_EQ(rc_int, 2);
  EXPECT_NE(err_int.find("--threads"), std::string::npos) << err_int;
  EXPECT_NE(err_int.find("abc"), std::string::npos) << err_int;

  const auto [rc_dbl, err_dbl] =
      RunForStderr(DM_CLI_PATH, "\"" + input + "\" --alpha=ten", "dbl");
  EXPECT_EQ(rc_dbl, 2);
  EXPECT_NE(err_dbl.find("--alpha"), std::string::npos) << err_dbl;

  const auto [rc_size, err_size] = RunForStderr(
      DM_CLI_PATH, "\"" + input + "\" --max-line-bytes=-1", "size");
  EXPECT_EQ(rc_size, 2);
  EXPECT_NE(err_size.find("--max-line-bytes"), std::string::npos) << err_size;

  // Same parsers wired into the crawler.
  const auto [rc_crawl, err_crawl] =
      RunForStderr(DM_CRAWL_PATH, "/tmp --threads=4x", "crawl");
  EXPECT_EQ(rc_crawl, 2);
  EXPECT_NE(err_crawl.find("--threads"), std::string::npos) << err_crawl;
  EXPECT_EQ(RunCrawl("/tmp --catalog-min-match=high"), 2);
  EXPECT_EQ(RunCli("\"" + input + "\" --span=1.5.2"), 2);
  EXPECT_EQ(RunCli("\"" + input + "\" --retain="), 2);
}

/// Runs a binary capturing stdout; returns (exit code, stdout text).
std::pair<int, std::string> RunForStdout(const char* binary,
                                         const std::string& args,
                                         const std::string& tag) {
  const std::string out = ::testing::TempDir() + "dm_stdout_" + tag + ".txt";
  const std::string cmd = std::string("\"") + binary + "\" " + args +
                          " > \"" + out + "\" 2> /dev/null";
  int rc = std::system(cmd.c_str());
#if defined(__unix__) || defined(__APPLE__)
  rc = (rc != -1 && WIFEXITED(rc)) ? WEXITSTATUS(rc) : -1;
#endif
  auto text = ReadFileToString(out);
  fs::remove(out);
  return {rc, text.ok() ? text.value() : std::string()};
}

TEST(CliFlagTest, HelpPrintsGeneratedUsageAndExitsZero) {
  const auto [rc_cli, usage_cli] = RunForStdout(DM_CLI_PATH, "--help", "cli");
  EXPECT_EQ(rc_cli, 0);
  for (const char* flag : {"--threads=N", "--follow=PATH", "--normalized",
                           "--drift-threshold=P", "--format=csv|ndjson",
                           "--help"}) {
    EXPECT_NE(usage_cli.find(flag), std::string::npos) << flag;
  }
  const auto [rc_crawl, usage_crawl] =
      RunForStdout(DM_CRAWL_PATH, "--help", "crawl");
  EXPECT_EQ(rc_crawl, 0);
  for (const char* flag : {"--threads=N", "--manifest=PATH", "--incremental",
                           "--crlf=auto|keep|strip", "--help"}) {
    EXPECT_NE(usage_crawl.find(flag), std::string::npos) << flag;
  }
  // --help wins over everything else on the line, including bad flags.
  EXPECT_EQ(RunCli("--bogus --help"), 0);
  EXPECT_EQ(usage_crawl.find("--follow"), std::string::npos)
      << "the crawl prints only its own flags";
}

TEST(CliFlagTest, BadChoiceValuesNameFlagValueAndChoices) {
  const std::string input = SourcePath("tests/data/cli_basic.log");
  const auto [rc_crlf, err_crlf] =
      RunForStderr(DM_CLI_PATH, "\"" + input + "\" --crlf=bogus", "crlf");
  EXPECT_EQ(rc_crlf, 2);
  for (const char* part : {"--crlf", "bogus", "auto, keep, strip"}) {
    EXPECT_NE(err_crlf.find(part), std::string::npos) << err_crlf;
  }
  const auto [rc_fmt, err_fmt] = RunForStderr(
      DM_CRAWL_PATH, "/tmp --format=parquet", "crawl_format");
  EXPECT_EQ(rc_fmt, 2);
  for (const char* part : {"--format", "parquet", "csv, ndjson"}) {
    EXPECT_NE(err_fmt.find(part), std::string::npos) << err_fmt;
  }
}

/// The four speed-only switches are gone from both tools (their settings
/// live on as test oracles in DatamaranOptions); each is an unknown flag,
/// exit 2 naming it, before any output is written.
TEST(CliFlagTest, RemovedFlagsExitTwoNamingTheFlag) {
  const std::string input = SourcePath("tests/data/cli_basic.log");
  const std::string out = ::testing::TempDir() + "dm_cli_removed_flag";
  fs::remove_all(out);
  int tag = 0;
  for (const char* flag : {"--match-engine=tree", "--charset-engine=scalar",
                           "--mmap=always", "--no-mdl-pruning"}) {
    const std::string name(
        std::string_view(flag).substr(0, std::string_view(flag).find('=')));
    const auto [rc_cli, err_cli] = RunForStderr(
        DM_CLI_PATH,
        StrFormat("\"%s\" %s --out=\"%s\"", input.c_str(), flag, out.c_str()),
        StrFormat("removed_cli_%d", tag));
    EXPECT_EQ(rc_cli, 2) << flag;
    EXPECT_NE(err_cli.find(name), std::string::npos) << err_cli;
    EXPECT_FALSE(fs::exists(out)) << flag;
    if (name == "--no-mdl-pruning") continue;  // never a crawl flag
    const auto [rc_crawl, err_crawl] =
        RunForStderr(DM_CRAWL_PATH, StrFormat("/tmp %s", flag),
                     StrFormat("removed_crawl_%d", tag++));
    EXPECT_EQ(rc_crawl, 2) << flag;
    EXPECT_NE(err_crawl.find(name), std::string::npos) << err_crawl;
  }
}

// ------------------------------------------------- catalog v1 compatibility ---

/// The committed v1 catalog (written by a pre-v2 build against
/// cli_interleaved.log) must keep serving the fast path: a warm run hits
/// it, extracts byte-identically to the golden, and a save through
/// --catalog-out upgrades the file to v2 with programs attached.
TEST(CliCatalogTest, V1CatalogFixtureServesGoldenAndUpgrades) {
  const std::string input = SourcePath("tests/data/cli_interleaved.log");
  const std::string fixture = SourcePath("tests/data/catalog_v1.txt");
  const std::string upgraded = ::testing::TempDir() + "dm_cli_catalog_v2up.txt";
  const std::string out = ::testing::TempDir() + "dm_cli_catalog_v1_out";
  fs::remove(upgraded);
  fs::remove_all(out);

  ASSERT_EQ(RunCli(StrFormat(
                "\"%s\" --catalog-in=\"%s\" --catalog-out=\"%s\" --out=\"%s\"",
                input.c_str(), fixture.c_str(), upgraded.c_str(),
                out.c_str())),
            0);
  ExpectDirsEqual(SourcePath("tests/golden/cli_interleaved_csv"), out,
                  "warm run against the v1 fixture");

  auto up = ReadFileToString(upgraded);
  ASSERT_TRUE(up.ok());
  EXPECT_EQ(up.value().rfind("datamaran-catalog v2\n", 0), 0u)
      << "a save migrates v1 files to the current version";
  EXPECT_NE(up.value().find("\nprogram "), std::string::npos);

  // The upgraded file is itself a working catalog.
  const std::string out2 = ::testing::TempDir() + "dm_cli_catalog_v1_out2";
  fs::remove_all(out2);
  ASSERT_EQ(RunCli(StrFormat("\"%s\" --catalog-in=\"%s\" --out=\"%s\"",
                             input.c_str(), upgraded.c_str(), out2.c_str())),
            0);
  ExpectDirsEqual(SourcePath("tests/golden/cli_interleaved_csv"), out2,
                  "warm run against the upgraded catalog");

  fs::remove(upgraded);
  fs::remove(upgraded + ".lock");
  fs::remove_all(out);
  fs::remove_all(out2);
}

// ------------------------------------------------------- incremental crawl ---

/// Drops manifest lines that legitimately differ between a cold crawl and
/// an incremental re-crawl of unchanged data: timings, the skipped markers
/// and counters, and the discovery count (a warm run discovers nothing).
std::string StripVolatileManifestLines(const std::string& text) {
  std::string out;
  size_t pos = 0;
  while (pos < text.size()) {
    size_t eol = text.find('\n', pos);
    if (eol == std::string::npos) eol = text.size() - 1;
    const std::string_view line(text.data() + pos, eol - pos + 1);
    const bool volatile_line =
        line.find("\"timings\"") != std::string_view::npos ||
        line.find("\"skipped\"") != std::string_view::npos ||
        line.find("\"skipped_count\"") != std::string_view::npos ||
        line.find("\"extracted_count\"") != std::string_view::npos ||
        line.find("\"discoveries\"") != std::string_view::npos;
    if (!volatile_line) out.append(line);
    pos = eol + 1;
  }
  return out;
}

TEST(CliCrawlTest, IncrementalRecrawlSkipsUnchangedAndInvalidatesTouched) {
  const std::string lake = ::testing::TempDir() + "dm_crawl_inc_lake";
  const std::string out = ::testing::TempDir() + "dm_crawl_inc_out";
  const std::string out2 = ::testing::TempDir() + "dm_crawl_inc_out2";
  const std::string out3 = ::testing::TempDir() + "dm_crawl_inc_out3";
  const std::string catalog = ::testing::TempDir() + "dm_crawl_inc_cat.txt";
  const std::string manifest = ::testing::TempDir() + "dm_crawl_inc_m.json";
  for (const std::string& d : {lake, out, out2, out3}) fs::remove_all(d);
  fs::remove(catalog);
  fs::remove(manifest);

  fs::create_directories(lake + "/sub");
  fs::copy_file(SourcePath("tests/data/cli_interleaved.log"), lake + "/a.log");
  fs::copy_file(SourcePath("tests/data/cli_basic.log"), lake + "/sub/b.log");
  ASSERT_TRUE(
      WriteStringToFile(lake + "/readme.txt", "plain prose notes here\n")
          .ok());

  // Cold crawl writes the manifest and catalog the warm runs reuse.
  ASSERT_EQ(RunCrawl(StrFormat(
                "\"%s\" --catalog-out=\"%s\" --out=\"%s\" --manifest=\"%s\"",
                lake.c_str(), catalog.c_str(), out.c_str(), manifest.c_str())),
            0);
  auto cold = ReadFileToString(manifest);
  ASSERT_TRUE(cold.ok());
  // extracted_count tallies structured files only; the prose file is
  // classified unstructured, not extracted.
  EXPECT_NE(cold.value().find("\"extracted_count\": 2"), std::string::npos)
      << cold.value();
  EXPECT_NE(cold.value().find("\"skipped_count\": 0"), std::string::npos);

  // Warm incremental run: nothing changed, so every file restores from the
  // previous manifest — zero extractions — and the manifest is identical
  // modulo the declared-volatile lines.
  ASSERT_EQ(
      RunCrawl(StrFormat("\"%s\" --incremental --catalog-in=\"%s\" "
                         "--out=\"%s\" --manifest=\"%s\"",
                         lake.c_str(), catalog.c_str(), out2.c_str(),
                         manifest.c_str())),
      0);
  auto warm = ReadFileToString(manifest);
  ASSERT_TRUE(warm.ok());
  EXPECT_NE(warm.value().find("\"extracted_count\": 0"), std::string::npos)
      << warm.value();
  EXPECT_NE(warm.value().find("\"skipped_count\": 3"), std::string::npos);
  EXPECT_EQ(StripVolatileManifestLines(cold.value()),
            StripVolatileManifestLines(warm.value()))
      << "an unchanged lake must re-crawl to the same manifest";

  // Touch one file (content grows by one record): only it re-extracts.
  auto basic = ReadFileToString(lake + "/sub/b.log");
  ASSERT_TRUE(basic.ok());
  ASSERT_TRUE(
      WriteStringToFile(lake + "/sub/b.log", basic.value() + "zeta,26\n")
          .ok());
  ASSERT_EQ(
      RunCrawl(StrFormat("\"%s\" --incremental --catalog-in=\"%s\" "
                         "--out=\"%s\" --manifest=\"%s\"",
                         lake.c_str(), catalog.c_str(), out3.c_str(),
                         manifest.c_str())),
      0);
  auto touched = ReadFileToString(manifest);
  ASSERT_TRUE(touched.ok());
  EXPECT_NE(touched.value().find("\"extracted_count\": 1"), std::string::npos)
      << touched.value();
  EXPECT_NE(touched.value().find("\"skipped_count\": 2"), std::string::npos);
  // The re-extracted file's tables were written; restored files' were not.
  EXPECT_TRUE(fs::exists(out3 + "/sub/b.log.tables"));
  EXPECT_FALSE(fs::exists(out3 + "/a.log.tables"));

  for (const std::string& d : {lake, out, out2, out3}) fs::remove_all(d);
  fs::remove(catalog);
  fs::remove(catalog + ".lock");
  fs::remove(manifest);
}

TEST(CliCrawlTest, IncrementalWithoutManifestExitsWithUsage) {
  EXPECT_EQ(RunCrawl("/tmp --incremental"), 2);
}

// -------------------------------------------------- concurrent catalog use ---

/// Two crawler processes over different lakes share one --catalog-out; the
/// locked merge-on-save must leave both discovered formats in the file no
/// matter how the saves interleave.
TEST(CliCrawlTest, ConcurrentCrawlersShareCatalogWithoutLoss) {
  const std::string lake_a = ::testing::TempDir() + "dm_crawl_conc_a";
  const std::string lake_b = ::testing::TempDir() + "dm_crawl_conc_b";
  const std::string out_a = ::testing::TempDir() + "dm_crawl_conc_outa";
  const std::string out_b = ::testing::TempDir() + "dm_crawl_conc_outb";
  const std::string catalog = ::testing::TempDir() + "dm_crawl_conc_cat.txt";
  for (const std::string& d : {lake_a, lake_b, out_a, out_b}) {
    fs::remove_all(d);
  }
  fs::remove(catalog);
  fs::create_directories(lake_a);
  fs::create_directories(lake_b);
  fs::copy_file(SourcePath("tests/data/cli_interleaved.log"),
                lake_a + "/a.log");
  fs::copy_file(SourcePath("tests/data/cli_basic.log"), lake_b + "/b.log");

  const std::string cmd = StrFormat(
      "\"%s\" \"%s\" --catalog-out=\"%s\" --out=\"%s\" >/dev/null 2>&1 & "
      "\"%s\" \"%s\" --catalog-out=\"%s\" --out=\"%s\" >/dev/null 2>&1 & "
      "wait",
      DM_CRAWL_PATH, lake_a.c_str(), catalog.c_str(), out_a.c_str(),
      DM_CRAWL_PATH, lake_b.c_str(), catalog.c_str(), out_b.c_str());
  ASSERT_EQ(std::system(cmd.c_str()), 0);

  auto text = ReadFileToString(catalog);
  ASSERT_TRUE(text.ok()) << "both crawlers exited without writing a catalog";
  size_t entries = 0;
  for (size_t at = text.value().find("\nentry "); at != std::string::npos;
       at = text.value().find("\nentry ", at + 1)) {
    entries++;
  }
  EXPECT_EQ(entries, 2u)
      << "concurrent saves lost a format:\n" << text.value();

  for (const std::string& d : {lake_a, lake_b, out_a, out_b}) {
    fs::remove_all(d);
  }
  fs::remove(catalog);
  fs::remove(catalog + ".lock");
}

// ------------------------------------------- streaming vs collecting parity ---

/// The crawler streams events (never materializing records); the CLI's
/// --summary-json path collects them. Both must report identical
/// per-template accounting for the same input — the counts come from the
/// extractor's own bookkeeping, not from the collected vector.
TEST(CliCrawlTest, StreamingCrawlCountsMatchCollectingCliSummary) {
  const std::string lake = ::testing::TempDir() + "dm_crawl_parity_lake";
  const std::string out = ::testing::TempDir() + "dm_crawl_parity_out";
  const std::string manifest =
      ::testing::TempDir() + "dm_crawl_parity_m.json";
  const std::string summary = ::testing::TempDir() + "dm_crawl_parity_s.json";
  fs::remove_all(lake);
  fs::remove_all(out);
  fs::create_directories(lake);
  fs::copy_file(SourcePath("tests/data/cli_interleaved.log"),
                lake + "/a.log");

  ASSERT_EQ(RunCrawl(StrFormat("\"%s\" --out=\"%s\" --manifest=\"%s\"",
                               lake.c_str(), out.c_str(), manifest.c_str())),
            0);
  ASSERT_EQ(
      RunCli(StrFormat("\"%s\" --summary-json=\"%s\"",
                       SourcePath("tests/data/cli_interleaved.log").c_str(),
                       summary.c_str())),
      0);
  auto m = ReadFileToString(manifest);
  auto s = ReadFileToString(summary);
  ASSERT_TRUE(m.ok() && s.ok());
  // Compare within the per-file section only: the manifest's formats
  // section reuses some of the same keys on aggregate lines.
  const size_t files_at = m.value().find("\"files\": [");
  ASSERT_NE(files_at, std::string::npos);
  const std::string file_section = m.value().substr(files_at);

  // Extract `"key": value` with surrounding indentation stripped; the two
  // documents indent differently but must agree on the values.
  const auto value_of = [](const std::string& text, const char* key) {
    const size_t at = text.find(key);
    EXPECT_NE(at, std::string::npos) << key;
    if (at == std::string::npos) return std::string();
    const size_t eol = text.find('\n', at);
    std::string v = text.substr(at, eol - at);
    while (!v.empty() && (v.back() == ',' || v.back() == ' ')) v.pop_back();
    return v;
  };
  for (const char* key :
       {"\"records\": ", "\"records_per_template\": ", "\"total_lines\": ",
        "\"noise_lines\": ", "\"templates\": ", "\"match_rate\": ",
        "\"coverage\": "}) {
    EXPECT_EQ(value_of(file_section, key), value_of(s.value(), key)) << key;
  }

  fs::remove_all(lake);
  fs::remove_all(out);
  fs::remove(manifest);
  fs::remove(summary);
}

// ------------------------------------------------------- streaming mode ---

TEST(CliFollowTest, ConflictingFlagsExitTwoBeforeOutput) {
  const std::string input = SourcePath("tests/data/cli_basic.log");
  const std::string out = ::testing::TempDir() + "dm_cli_follow_conflict";
  fs::remove_all(out);

  // Each conflict must be a named error on stderr, exit 2, and no output
  // directory created — mirroring the --normalized/--format=ndjson
  // precedent.
  const auto [rc_pos, err_pos] = RunForStderr(
      DM_CLI_PATH,
      StrFormat("\"%s\" --follow=\"%s\" --out=\"%s\"", input.c_str(),
                input.c_str(), out.c_str()),
      "follow_pos");
  EXPECT_EQ(rc_pos, 2);
  EXPECT_NE(err_pos.find("--follow"), std::string::npos) << err_pos;
  EXPECT_FALSE(fs::exists(out));

  const auto [rc_inputs, err_inputs] = RunForStderr(
      DM_CLI_PATH,
      StrFormat("--follow=\"%s\" --inputs=\"%s\" --out=\"%s\"", input.c_str(),
                input.c_str(), out.c_str()),
      "follow_inputs");
  EXPECT_EQ(rc_inputs, 2);
  EXPECT_NE(err_inputs.find("--inputs"), std::string::npos) << err_inputs;
  EXPECT_FALSE(fs::exists(out));

  const auto [rc_cat, err_cat] = RunForStderr(
      DM_CLI_PATH,
      StrFormat("--follow=\"%s\" --catalog-in=/tmp/nope.json --out=\"%s\"",
                input.c_str(), out.c_str()),
      "follow_catin");
  EXPECT_EQ(rc_cat, 2);
  EXPECT_NE(err_cat.find("--catalog-in"), std::string::npos) << err_cat;
  EXPECT_FALSE(fs::exists(out));

  // Stream-family flags are meaningless without --follow and must say so.
  const auto [rc_drift, err_drift] = RunForStderr(
      DM_CLI_PATH,
      StrFormat("\"%s\" --drift-threshold=60 --out=\"%s\"", input.c_str(),
                out.c_str()),
      "follow_drift");
  EXPECT_EQ(rc_drift, 2);
  EXPECT_NE(err_drift.find("--drift-threshold"), std::string::npos)
      << err_drift;
  EXPECT_NE(err_drift.find("--follow"), std::string::npos) << err_drift;
  EXPECT_FALSE(fs::exists(out));
}

// `--follow` bounded by --follow-max-bytes over a static file must produce
// byte-identical output to the batch run on the same corpus (the corpus
// fits the default warm-up window), and the summary must carry the stream
// counters.
TEST(CliFollowTest, FollowMatchesBatchOutputOnStaticFile) {
  const std::string input = SourcePath("tests/data/cli_basic.log");
  const auto size = FileSizeBytes(input);
  ASSERT_TRUE(size.ok());
  const std::string out_batch = ::testing::TempDir() + "dm_cli_follow_b";
  const std::string out_follow = ::testing::TempDir() + "dm_cli_follow_f";
  const std::string summary = ::testing::TempDir() + "dm_cli_follow.json";
  const std::string batch_summary =
      ::testing::TempDir() + "dm_cli_follow_batch.json";
  fs::remove_all(out_batch);
  fs::remove_all(out_follow);
  ASSERT_EQ(RunCli(StrFormat("\"%s\" --out=\"%s\" --summary-json=\"%s\"",
                             input.c_str(), out_batch.c_str(),
                             batch_summary.c_str())),
            0);
  ASSERT_EQ(RunCli(StrFormat("--follow=\"%s\" --follow-max-bytes=%zu "
                             "--out=\"%s\" --summary-json=\"%s\"",
                             input.c_str(), size.value(), out_follow.c_str(),
                             summary.c_str())),
            0);
  ExpectDirsEqual(out_batch, out_follow, "--follow vs batch");
  auto summary_text = ReadFileToString(summary);
  ASSERT_TRUE(summary_text.ok());
  EXPECT_NE(summary_text.value().find("\"stream\": {\"epochs\": 1"),
            std::string::npos)
      << summary_text.value();
  // Coverage is computed from the decided bytes and must equal batch's.
  auto batch_text = ReadFileToString(batch_summary);
  ASSERT_TRUE(batch_text.ok());
  auto coverage_of = [](const std::string& json) {
    const size_t at = json.find("\"coverage\": ");
    if (at == std::string::npos) return std::string();
    return json.substr(at, json.find(',', at) - at);
  };
  const std::string batch_coverage = coverage_of(batch_text.value());
  ASSERT_FALSE(batch_coverage.empty()) << batch_text.value();
  EXPECT_NE(batch_coverage, "\"coverage\": 0.000000");
  EXPECT_EQ(coverage_of(summary_text.value()), batch_coverage);
  fs::remove_all(out_batch);
  fs::remove_all(out_follow);
  fs::remove(summary);
  fs::remove(batch_summary);
}

// Satellite regression: a cold crawl that persists a shared catalog must
// not leave `.lock` sidecars behind in the output tree.
TEST(CliCrawlTest, ColdCrawlLeavesNoLockSidecars) {
  const std::string lake = ::testing::TempDir() + "dm_cli_locks_lake";
  const std::string out = ::testing::TempDir() + "dm_cli_locks_out";
  fs::remove_all(lake);
  fs::remove_all(out);
  ASSERT_TRUE(MakeDirs(lake).ok());
  auto basic = ReadFileToString(SourcePath("tests/data/cli_basic.log"));
  ASSERT_TRUE(basic.ok());
  ASSERT_TRUE(WriteStringToFile(lake + "/a.log", basic.value()).ok());
  ASSERT_TRUE(WriteStringToFile(lake + "/b.log", basic.value()).ok());
  ASSERT_EQ(RunCrawl(StrFormat("\"%s\" --out=\"%s\" "
                               "--catalog-out=\"%s/catalog.json\"",
                               lake.c_str(), out.c_str(), out.c_str())),
            0);
  ASSERT_TRUE(fs::exists(out + "/catalog.json"));
  size_t seen = 0;
  for (const auto& entry : fs::recursive_directory_iterator(out)) {
    ++seen;
    EXPECT_NE(entry.path().extension(), ".lock")
        << "stray lock sidecar: " << entry.path();
  }
  EXPECT_GT(seen, 0u) << "crawl produced no output under " << out;
  fs::remove_all(lake);
  fs::remove_all(out);
}

TEST(CliGoldenTest, NormalizedNdjsonConflictExitsBeforeOutput) {
  // The conflict must be rejected during argument handling: exit code 2
  // and no output directory created (the input path need not even exist
  // for the flags to be declared contradictory — but use a real one so a
  // regression would surface as a created directory, not a file error).
  const std::string input = SourcePath("tests/data/cli_basic.log");
  const std::string out =
      ::testing::TempDir() + "dm_cli_norm_ndjson_conflict";
  fs::remove_all(out);
  EXPECT_EQ(RunCli(StrFormat("\"%s\" --normalized --format=ndjson "
                             "--out=\"%s\"",
                             input.c_str(), out.c_str())),
            2);
  EXPECT_FALSE(fs::exists(out)) << "conflict must exit before opening " << out;
}


// ----------------------------------------------- engine x backing matrix ---

/// The engine and backing settings the tools no longer expose, kept as
/// test oracles: the reference tree matcher next to the compiled engine,
/// each on a forced mmap and a forced read backing.
struct EngineBacking {
  MatchEngine engine;
  MapMode backing;
};
constexpr EngineBacking kEngineBackings[] = {
    {MatchEngine::kTree, MapMode::kAlways},
    {MatchEngine::kTree, MapMode::kNever},
    {MatchEngine::kCompiled, MapMode::kAlways},
    {MatchEngine::kCompiled, MapMode::kNever},
};

std::string Describe(const EngineBacking& cell, int threads) {
  return StrFormat("threads=%d engine=%s backing=%s", threads,
                   cell.engine == MatchEngine::kTree ? "tree" : "compiled",
                   cell.backing == MapMode::kAlways ? "mmap" : "read");
}

DatamaranOptions CellOptions(const EngineBacking& cell, int threads) {
  DatamaranOptions options;
  options.num_threads = threads;
  options.match_engine = cell.engine;
  options.mmap_mode = cell.backing;
  return options;
}

/// datamaran_cli's batch `--out` sequence, in process: OpenInputs ->
/// Datamaran::ExtractDataset -> Extractor::ExtractEvents into the
/// columnar (or normalized) write sink. Reports whether the catalog hit.
void ExtractLikeCli(const std::vector<std::string>& inputs,
                    const DatamaranOptions& options, bool normalized,
                    const std::string& out, bool* catalog_hit = nullptr) {
  Datamaran dm(options);
  ASSERT_TRUE(dm.catalog_status().ok()) << dm.catalog_status().ToString();
  auto opened = OpenInputs(inputs, MakeInputOptions(options));
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  const Dataset& data = opened.value();
  PipelineResult result = dm.ExtractDataset(data);
  ASSERT_FALSE(result.templates.empty());
  if (catalog_hit != nullptr) *catalog_hit = result.stats.catalog_hit;
  ThreadPool pool(ThreadPool::ResolveThreadCount(options.num_threads));
  Extractor extractor(&result.templates, &pool, options.match_engine,
                      options.charset_engine, options.max_line_bytes);
  DatasetView view(data);
  std::unique_ptr<WriteSinkBase> sink;
  if (normalized) {
    sink = std::make_unique<NormalizedWriteSink>(&result.templates, view, out);
  } else {
    sink = std::make_unique<ColumnarWriteSink>(&result.templates, view, out,
                                               OutputFormat::kCsv);
  }
  ASSERT_TRUE(sink->status().ok()) << sink->status().ToString();
  extractor.ExtractEvents(view, sink.get());
  ASSERT_TRUE(sink->Finish().ok());
}

/// Every threads x engine x backing cell of `inputs` must reproduce the
/// golden directory byte for byte. With `catalog_in`, every cell must be
/// served by a catalog hit.
void RunEngineMatrix(const std::vector<std::string>& inputs,
                     const std::string& golden, bool normalized,
                     const std::string& tag,
                     const std::string& catalog_in = "") {
  const std::string out = ::testing::TempDir() + "dm_matrix_" + tag;
  for (const int threads : {1, 4}) {
    for (const EngineBacking& cell : kEngineBackings) {
      DatamaranOptions options = CellOptions(cell, threads);
      options.catalog_in = catalog_in;
      fs::remove_all(out);
      const std::string context = tag + " " + Describe(cell, threads);
      bool hit = false;
      ASSERT_NO_FATAL_FAILURE(
          ExtractLikeCli(inputs, options, normalized, out, &hit))
          << context;
      EXPECT_EQ(hit, !catalog_in.empty()) << context;
      ExpectDirsEqual(SourcePath("tests/golden/" + golden), out, context);
    }
  }
  fs::remove_all(out);
}

void RunCorpusMatrix(const std::string& corpus, bool normalized) {
  RunEngineMatrix({SourcePath("tests/data/" + corpus + ".log")},
                  corpus + (normalized ? "_normalized" : "_csv"), normalized,
                  corpus + (normalized ? "_norm" : "_csv"));
}

TEST(CliEngineMatrixTest, CsvCorpora) {
  for (const char* corpus :
       {"cli_basic", "cli_interleaved", "cli_multiline", "cli_arrays",
        "cli_crlf", "cli_hostile", "cli_crlf_noeol"}) {
    RunCorpusMatrix(corpus, /*normalized=*/false);
  }
}

TEST(CliEngineMatrixTest, NormalizedCorpora) {
  RunCorpusMatrix("cli_interleaved", /*normalized=*/true);
  RunCorpusMatrix("cli_arrays", /*normalized=*/true);
}

/// The rotated gzip'd triple of cli_basic, stitched in rotation order, is
/// the same bytes as cli_basic.log, so it must reproduce that golden.
TEST(CliEngineMatrixTest, RotatedGzipStitch) {
  auto whole = ReadFileToString(SourcePath("tests/data/cli_basic.log"));
  ASSERT_TRUE(whole.ok());
  const std::string& text = whole.value();
  const size_t third = text.size() / 3;
  const size_t cut1 = text.find('\n', third) + 1;
  const size_t cut2 = text.find('\n', 2 * third) + 1;
  auto oldest = GzipCompress(text.substr(0, cut1));
  if (!oldest.ok()) GTEST_SKIP() << oldest.status().ToString();

  const std::string dir = ::testing::TempDir() + "dm_matrix_rotated_in";
  fs::remove_all(dir);
  fs::create_directories(dir);
  ASSERT_TRUE(WriteStringToFile(dir + "/app.log.2.gz", oldest.value()).ok());
  ASSERT_TRUE(
      WriteStringToFile(dir + "/app.log.1", text.substr(cut1, cut2 - cut1))
          .ok());
  ASSERT_TRUE(WriteStringToFile(dir + "/app.log", text.substr(cut2)).ok());
  auto members = ExpandInputSpec(dir + "/app.log*");
  ASSERT_TRUE(members.ok()) << members.status().ToString();
  ASSERT_EQ(members.value().size(), 3u);
  RunEngineMatrix(members.value(), "cli_basic_csv", false, "rotated");
  fs::remove_all(dir);
}

/// A catalog built by one cold run serves every cell warm — discovery
/// skipped, tree matcher included — with the cold run's bytes.
TEST(CliEngineMatrixTest, CatalogHit) {
  const std::string input = SourcePath("tests/data/cli_interleaved.log");
  const std::string catalog = ::testing::TempDir() + "dm_matrix_catalog.txt";
  fs::remove(catalog);
  DatamaranOptions cold;
  cold.catalog_out = catalog;
  const std::string cold_out = ::testing::TempDir() + "dm_matrix_cold";
  fs::remove_all(cold_out);
  ASSERT_NO_FATAL_FAILURE(ExtractLikeCli({input}, cold, false, cold_out));
  ExpectDirsEqual(SourcePath("tests/golden/cli_interleaved_csv"), cold_out,
                  "cold run writing the catalog");
  fs::remove_all(cold_out);

  RunEngineMatrix({input}, "cli_interleaved_csv", false, "catalog", catalog);
  fs::remove(catalog);
}

}  // namespace
}  // namespace datamaran
