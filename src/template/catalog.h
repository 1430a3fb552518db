#ifndef DATAMARAN_TEMPLATE_CATALOG_H_
#define DATAMARAN_TEMPLATE_CATALOG_H_

#include <cstddef>
#include <string>
#include <string_view>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "core/dataset.h"
#include "template/match_engine.h"
#include "template/template.h"
#include "util/charset_engine.h"
#include "util/status.h"

/// Template catalog: the persisted output of structure discovery, so a data
/// lake's few dozen formats pay full discovery (generation + MDL evaluation
/// + refinement) once instead of once per file.
///
/// A catalog is a list of *entries*, one per discovered format; each entry
/// is the format's accepted structure templates in priority order plus
/// per-template discovery metadata (MDL score against the discovery sample,
/// FIRST set, field-scan strategy hint). Templates are stored in their
/// canonical serialization (template.h), which round-trips exactly through
/// FromCanonical — and a CompiledTemplate is a pure function of (canonical,
/// charset engine), so templates reloaded from a catalog compile to
/// byte-identical programs and extraction output is byte-identical to the
/// fresh-discovery run that produced the entry.
///
/// On-disk format (versioned, line-based text):
///
///   datamaran-catalog v2
///   entry fmt0 templates=2
///   template (F,)*F\n mdl=1234.5 noise=5678.9 records=42 coverage=0.97
///       first=... scan=swar2            (one line; wrapped here for width)
///   template F\sF\n ...
///   kv <key> <value>                    (per-entry extension area: opaque
///       key/value pairs, preserved byte-exact across load/save)
///   end
///
/// A catalog stores templates only: every matcher compiles its own. Earlier
/// v2 writers also put a `program <escaped-blob>` line (that template's
/// compiled program) after some templates; Parse still checks such a line
/// as strictly as they did (at most one per template, after it, one
/// well-formed escaped token) and drops it. v1 (no program/kv lines) is
/// still accepted by Parse and migrated in memory; Serialize always writes
/// the current version. Tools exchanging catalogs across builds therefore
/// upgrade files in place on their next save, and unknown per-entry state
/// from future minor revisions rides through the kv area.
///
/// Canonical forms and FIRST sets are arbitrary bytes (templates always
/// contain '\n'; separators may be NUL or non-UTF8), so every byte-valued
/// token is escaped into a space-free printable form (CatalogEscape /
/// CatalogUnescape, exact inverses over all 256 byte values). The numeric
/// metadata is advisory — parsing revalidates each template and recomputes
/// derived data from the canonical form, which is the only load-bearing
/// field.
///
/// MatchCatalog is the fingerprint step of the catalog-hit fast path: given
/// a new input, sample it (util/sampler.h; the tools pass the sample
/// core/input.h InputReader reads, the one discovery runs on), prefilter entries by FIRST-byte dispatch — an entry
/// none of whose templates can start at enough sample lines is discarded
/// without a single match attempt — then score the survivors with the MDL
/// noise model (scoring/mdl.h) and accept the best entry that both covers
/// at least `min_match` of the sample lines and beats the pure-noise
/// encoding by the discovery margin. A miss falls back to cold discovery.

namespace datamaran {

/// Escapes arbitrary bytes into a printable token with no whitespace:
/// backslash escapes for \\ \n \r \t, "\s" for space, "\xHH" for the
/// remaining non-printable or non-ASCII bytes. CatalogUnescape inverts
/// exactly (round-trips all 256 byte values).
std::string CatalogEscape(std::string_view bytes);
Result<std::string> CatalogUnescape(std::string_view token);

/// Per-template discovery metadata carried by a catalog entry. Advisory:
/// the canonical template form is authoritative and derived fields (FIRST
/// set, scan hint) are recomputed on load.
struct CatalogTemplateMeta {
  double mdl_bits = 0;         ///< MDL total on the discovery sample
  double noise_only_bits = 0;  ///< pure-noise cost of that sample
  size_t sample_records = 0;
  double sample_coverage = 0;
};

/// One discovered format: structure templates in priority (discovery)
/// order, with parallel per-template metadata.
struct CatalogEntry {
  std::string name;  ///< e.g. "fmt0"; unique within the catalog
  std::vector<StructureTemplate> templates;
  std::vector<CatalogTemplateMeta> meta;  ///< parallel to `templates`
  /// Always empty. Exists only because bench_e2e/e2e/replay.cc still
  /// passes it to the Extractor; it goes with that file's next change.
  std::vector<std::string> programs;
  /// v2 extension area: opaque key/value pairs (arbitrary bytes) preserved
  /// byte-exact across load/save. Forward-compatibility hook for minor
  /// revisions that don't warrant a version bump.
  std::vector<std::pair<std::string, std::string>> extensions;

  /// Identity of the template *set* (order-sensitive, length-prefixed
  /// canonicals): two entries with equal signatures extract identically.
  std::string Signature() const;
};

/// Field-scan strategy hint for `st` (the compiled engine's choice is a
/// function of the RT-CharSet size): "memchr", "swar2".."swar4", or "wide"
/// (classifier/table scan). Stored in the catalog for inspection.
std::string ScanStrategyHint(const StructureTemplate& st);

/// How TemplateCatalog::Save treats an existing file at the target path.
struct CatalogSaveOptions {
  /// Merge-on-save (the default): re-load the on-disk catalog under the
  /// advisory file lock, fold its entries into this catalog's by signature,
  /// and write the union — N parallel crawlers sharing one --catalog-out
  /// never lose each other's entries. false clobbers the file with exactly
  /// this catalog (the --catalog-no-merge escape hatch).
  bool merge = true;
};

class TemplateCatalog {
 public:
  static constexpr int kFormatVersion = 2;
  /// Oldest version Parse still accepts (migrated in memory on load).
  static constexpr int kMinFormatVersion = 1;

  size_t size() const { return entries_.size(); }
  bool empty() const { return entries_.empty(); }
  const CatalogEntry& entry(size_t i) const { return entries_[i]; }
  const std::vector<CatalogEntry>& entries() const { return entries_; }

  /// Adds `entry` and returns its index — or, when an entry with the same
  /// template-set signature already exists, returns that entry's index
  /// without adding (folding a rediscovered format is idempotent). An empty
  /// name — or one already taken by a different entry, as happens when two
  /// independently grown catalogs merge — is assigned a fresh "fmt<k>".
  size_t AddEntry(CatalogEntry entry);

  /// Index of the entry whose signature matches `templates`, or -1.
  int FindSignature(const std::vector<StructureTemplate>& templates) const;

  /// The versioned text form (see file comment).
  std::string Serialize() const;

  /// Inverse of Serialize, also accepting the previous format version
  /// (migrated in memory; the next Save rewrites the file as v%d). Every
  /// template is parsed back via FromCanonical and revalidated; any
  /// malformed line, unknown version, or invalid template fails the whole
  /// parse. Program lines are checked and dropped (see file comment).
  static Result<TemplateCatalog> Parse(std::string_view text);

  static Result<TemplateCatalog> Load(const std::string& path);

  /// Persists the catalog atomically, serialized against concurrent savers
  /// by an advisory lock on `path` + ".lock" (util/file_io FileLock). With
  /// options.merge (default), the on-disk catalog is re-loaded under the
  /// lock and its entries folded in by signature before writing, so
  /// concurrent writers union rather than overwrite; a merge against an
  /// unparseable existing file fails rather than destroy it.
  Status Save(const std::string& path,
              const CatalogSaveOptions& options = {}) const;

 private:
  std::vector<CatalogEntry> entries_;
  std::unordered_map<std::string, size_t> by_signature_;
  std::unordered_set<std::string> used_names_;
};

struct CatalogMatchOptions {
  /// Minimum fraction of sample lines an entry's templates must cover.
  double min_match = 0.8;
  /// MDL acceptance margin vs. the pure-noise encoding — the same noise
  /// model the discovery accept/reject step applies (options.h
  /// min_mdl_gain).
  double min_mdl_gain = 0.01;
  /// Sampling policy (mirrors DatamaranOptions), including the
  /// oversized-line guard so the fingerprint sample excludes exactly the
  /// lines discovery's sample would.
  size_t max_sample_bytes = 256 * 1024;
  int sample_chunks = 8;
  size_t max_line_bytes = 0;
  MatchEngine match_engine = MatchEngine::kCompiled;
  CharsetEngine charset_engine = CharsetEngine::kSimd;
};

/// Outcome of fingerprinting one input against a catalog.
struct CatalogMatch {
  int entry = -1;  ///< accepted entry index; -1 = miss (cold discovery)
  /// Fraction of sample lines covered by the accepted entry's records.
  double match_rate = 0;
  double mdl_bits = 0;        ///< accepted entry's MDL total on the sample
  double noise_only_bits = 0; ///< pure-noise cost of the sample
  /// Diagnostics: entries discarded by the FIRST-byte prefilter vs. scored.
  size_t entries_prefiltered = 0;
  size_t entries_scored = 0;

  bool hit() const { return entry >= 0; }
};

/// Fingerprints `data` against `catalog`: samples (SampleView under the
/// options' sampling policy), then matches that sample as below.
CatalogMatch MatchCatalog(const TemplateCatalog& catalog, const Dataset& data,
                          const CatalogMatchOptions& options);

/// Fingerprints an input by its discovery sample, used as is (the
/// sampling fields of `options` are ignored): prefilters by FIRST bytes,
/// MDL-scores surviving entries, and returns the best acceptable one
/// (lowest MDL total; ties break to the lowest entry index). Deterministic:
/// a pure function of the sample, the catalog, and the options.
CatalogMatch MatchCatalog(const TemplateCatalog& catalog,
                          const DatasetView& sample,
                          const CatalogMatchOptions& options);

}  // namespace datamaran

#endif  // DATAMARAN_TEMPLATE_CATALOG_H_
