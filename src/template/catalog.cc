#include "template/catalog.h"

#include <algorithm>
#include <array>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <limits>
#include <optional>
#include <system_error>
#include <utility>

#include "scoring/mdl.h"
#include "template/compiled.h"
#include "util/file_io.h"
#include "util/sampler.h"
#include "util/strings.h"

namespace datamaran {

namespace {

bool IsPrintableToken(unsigned char c) {
  // Space-free printable ASCII: anything else is escaped so every token
  // survives the line/space-based catalog grammar.
  return c > 0x20 && c < 0x7f && c != '\\';
}

int HexValue(char c) {
  if (c >= '0' && c <= '9') return c - '0';
  if (c >= 'a' && c <= 'f') return c - 'a' + 10;
  if (c >= 'A' && c <= 'F') return c - 'A' + 10;
  return -1;
}

/// Renders a FIRST set compactly: small sets list their members, large ones
/// (a leading field admits every byte outside the RT-CharSet) list the
/// complement prefixed with '!'. Advisory — recomputed on load.
std::string FirstSetToken(const CharSet& first) {
  if (first.Size() <= 128) return CatalogEscape(first.ToString());
  CharSet complement;
  for (int b = 0; b < 256; ++b) {
    if (!first.Contains(static_cast<unsigned char>(b))) {
      complement.Add(static_cast<unsigned char>(b));
    }
  }
  // Appended, not `"!" + std::string`: GCC 12 flags that inlined insert
  // with a false -Wrestrict overlap.
  std::string token = "!";
  token += CatalogEscape(complement.ToString());
  return token;
}

std::optional<double> ParseDoubleToken(std::string_view s) {
  // strtod needs NUL termination; metadata tokens are short.
  std::string buf(s);
  char* end = nullptr;
  const double v = std::strtod(buf.c_str(), &end);
  if (end != buf.c_str() + buf.size()) return std::nullopt;
  return v;
}

}  // namespace

std::string CatalogEscape(std::string_view bytes) {
  std::string out;
  out.reserve(bytes.size());
  for (char raw : bytes) {
    const unsigned char c = static_cast<unsigned char>(raw);
    switch (c) {
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      case ' ':  out += "\\s"; break;
      default:
        if (IsPrintableToken(c)) {
          out += static_cast<char>(c);
        } else {
          static const char kHex[] = "0123456789ABCDEF";
          out += "\\x";
          out += kHex[c >> 4];
          out += kHex[c & 0xf];
        }
    }
  }
  return out;
}

Result<std::string> CatalogUnescape(std::string_view token) {
  std::string out;
  out.reserve(token.size());
  for (size_t i = 0; i < token.size(); ++i) {
    const unsigned char c = static_cast<unsigned char>(token[i]);
    if (c != '\\') {
      if (!IsPrintableToken(c)) {
        return Status::ParseError(
            StrFormat("catalog: raw byte 0x%02X in token", c));
      }
      out += static_cast<char>(c);
      continue;
    }
    if (++i >= token.size()) {
      return Status::ParseError("catalog: dangling escape in token");
    }
    switch (token[i]) {
      case '\\': out += '\\'; break;
      case 'n': out += '\n'; break;
      case 'r': out += '\r'; break;
      case 't': out += '\t'; break;
      case 's': out += ' '; break;
      case 'x': {
        if (i + 2 >= token.size()) {
          return Status::ParseError("catalog: truncated \\x escape");
        }
        const int hi = HexValue(token[i + 1]);
        const int lo = HexValue(token[i + 2]);
        if (hi < 0 || lo < 0) {
          return Status::ParseError("catalog: bad \\x escape");
        }
        out += static_cast<char>((hi << 4) | lo);
        i += 2;
        break;
      }
      default:
        return Status::ParseError(
            StrFormat("catalog: unknown escape \\%c", token[i]));
    }
  }
  return out;
}

std::string ScanStrategyHint(const StructureTemplate& st) {
  switch (st.charset().Size()) {
    case 0:
    case 1: return "memchr";
    case 2: return "swar2";
    case 3: return "swar3";
    case 4: return "swar4";
    default: return "wide";
  }
}

std::string CatalogEntry::Signature() const {
  // Length-prefixed concatenation: unambiguous for arbitrary canonical
  // bytes, order-sensitive (priority order is part of extraction identity).
  std::string sig;
  for (const StructureTemplate& st : templates) {
    sig += std::to_string(st.canonical().size());
    sig += ':';
    sig += st.canonical();
  }
  return sig;
}

size_t TemplateCatalog::AddEntry(CatalogEntry entry) {
  const std::string sig = entry.Signature();
  auto it = by_signature_.find(sig);
  if (it != by_signature_.end()) return it->second;
  // Distinct signatures must keep distinct names (a merge of two
  // independently grown catalogs collides on "fmt0"): the incoming entry
  // yields and takes a fresh generated name.
  if (entry.name.empty() || used_names_.count(entry.name) != 0) {
    size_t k = entries_.size();
    do {
      entry.name = "fmt" + std::to_string(k++);
    } while (used_names_.count(entry.name) != 0);
  }
  entry.meta.resize(entry.templates.size());
  used_names_.insert(entry.name);
  by_signature_.emplace(sig, entries_.size());
  entries_.push_back(std::move(entry));
  return entries_.size() - 1;
}

int TemplateCatalog::FindSignature(
    const std::vector<StructureTemplate>& templates) const {
  CatalogEntry probe;
  probe.templates = templates;
  auto it = by_signature_.find(probe.Signature());
  return it == by_signature_.end() ? -1 : static_cast<int>(it->second);
}

std::string TemplateCatalog::Serialize() const {
  std::string out = StrFormat("datamaran-catalog v%d\n", kFormatVersion);
  for (const CatalogEntry& e : entries_) {
    out += StrFormat("entry %s templates=%zu\n", e.name.c_str(),
                     e.templates.size());
    for (size_t t = 0; t < e.templates.size(); ++t) {
      const StructureTemplate& st = e.templates[t];
      const CatalogTemplateMeta& m = e.meta[t];
      out += "template ";
      out += CatalogEscape(st.canonical());
      out += StrFormat(" mdl=%.17g noise=%.17g records=%zu coverage=%.17g",
                       m.mdl_bits, m.noise_only_bits, m.sample_records,
                       m.sample_coverage);
      out += " first=" + FirstSetToken(TemplateFirstBytes(st));
      out += " scan=" + ScanStrategyHint(st);
      out += '\n';
    }
    for (const auto& [key, value] : e.extensions) {
      out += "kv ";
      out += CatalogEscape(key);
      out += ' ';
      out += CatalogEscape(value);
      out += '\n';
    }
    out += "end\n";
  }
  return out;
}

Result<TemplateCatalog> TemplateCatalog::Parse(std::string_view text) {
  const std::vector<std::string_view> lines = SplitLines(text);
  constexpr std::string_view kHeader = "datamaran-catalog v";
  if (lines.empty() || !StartsWith(lines[0], kHeader)) {
    return Status::ParseError("catalog: missing datamaran-catalog header");
  }
  const auto version = ParseInt64(lines[0].substr(kHeader.size()));
  if (!version.has_value() || *version < kMinFormatVersion ||
      *version > kFormatVersion) {
    return Status::ParseError(
        StrFormat("catalog: unsupported version '%s' (expected v%d..v%d)",
                  std::string(lines[0]).c_str(), kMinFormatVersion,
                  kFormatVersion));
  }
  // v1 files migrate in memory: same entry/template grammar, no program or
  // kv lines. The next Save rewrites them at the current version.
  const bool v2 = *version >= 2;
  TemplateCatalog cat;
  size_t i = 1;
  while (i < lines.size()) {
    if (lines[i].empty()) {
      ++i;
      continue;
    }
    std::vector<std::string_view> toks = Split(lines[i], ' ');
    if (toks.size() != 3 || toks[0] != "entry" ||
        !StartsWith(toks[2], "templates=")) {
      return Status::ParseError(StrFormat("catalog line %zu: expected "
                                          "'entry <name> templates=N'",
                                          i + 1));
    }
    // Names round-trip through "entry %s ..." lines: anything outside
    // printable non-space ASCII (embedded NUL, control bytes, UTF-8) would
    // serialize to a line this parser reads back differently. Reject at
    // the boundary (fuzz-found).
    for (char c : toks[1]) {
      const unsigned char u = static_cast<unsigned char>(c);
      if (u < 0x21 || u > 0x7E) {
        return Status::ParseError(StrFormat(
            "catalog line %zu: entry name must be printable ASCII", i + 1));
      }
    }
    CatalogEntry entry;
    entry.name = std::string(toks[1]);
    const auto count = ParseInt64(toks[2].substr(strlen("templates=")));
    if (!count.has_value() || *count < 1) {
      return Status::ParseError(
          StrFormat("catalog line %zu: bad template count", i + 1));
    }
    ++i;
    // The template count at the entry's last program line: a program line
    // that finds it unchanged (a second one for a template, or one before
    // any template) is malformed.
    size_t programmed = 0;
    while (true) {
      if (i >= lines.size()) {
        return Status::ParseError("catalog: truncated entry");
      }
      if (lines[i] == "end") break;
      toks = Split(lines[i], ' ');
      if (v2 && !toks.empty() && toks[0] == "program") {
        // A compiled program an earlier build saved: checked, then dropped.
        if (toks.size() != 2 || programmed == entry.templates.size()) {
          return Status::ParseError(StrFormat(
              "catalog line %zu: program line must follow its template",
              i + 1));
        }
        auto blob = CatalogUnescape(toks[1]);
        if (!blob.ok()) return blob.status();
        programmed = entry.templates.size();
        ++i;
        continue;
      }
      if (v2 && !toks.empty() && toks[0] == "kv") {
        if (toks.size() != 3) {
          return Status::ParseError(StrFormat(
              "catalog line %zu: expected 'kv <key> <value>'", i + 1));
        }
        auto key = CatalogUnescape(toks[1]);
        if (!key.ok()) return key.status();
        auto value = CatalogUnescape(toks[2]);
        if (!value.ok()) return value.status();
        entry.extensions.emplace_back(std::move(key.value()),
                                      std::move(value.value()));
        ++i;
        continue;
      }
      if (toks.size() < 2 || toks[0] != "template") {
        return Status::ParseError(
            StrFormat("catalog line %zu: expected 'template <canonical> "
                      "key=value...'",
                      i + 1));
      }
      if (static_cast<int64_t>(entry.templates.size()) == *count) {
        return Status::ParseError(StrFormat(
            "catalog line %zu: more templates than declared", i + 1));
      }
      auto canonical = CatalogUnescape(toks[1]);
      if (!canonical.ok()) return canonical.status();
      auto st = StructureTemplate::FromCanonical(canonical.value());
      if (!st.ok()) return st.status();
      // Exact round-trip is the contract catalog hits rest on: a reloaded
      // template must compile to the program its discovery run used. A
      // canonical that re-serializes differently is corrupt.
      if (st->canonical() != canonical.value()) {
        return Status::ParseError(
            StrFormat("catalog line %zu: canonical form does not round-trip",
                      i + 1));
      }
      DM_RETURN_IF_ERROR(st->Validate());
      CatalogTemplateMeta meta;
      for (size_t k = 2; k < toks.size(); ++k) {
        const std::string_view tok = toks[k];
        const size_t eq = tok.find('=');
        if (eq == std::string_view::npos) {
          return Status::ParseError(
              StrFormat("catalog line %zu: bad metadata token", i + 1));
        }
        const std::string_view key = tok.substr(0, eq);
        const std::string_view val = tok.substr(eq + 1);
        if (key == "mdl" || key == "noise" || key == "coverage") {
          const auto v = ParseDoubleToken(val);
          if (!v.has_value()) {
            return Status::ParseError(
                StrFormat("catalog line %zu: bad numeric metadata", i + 1));
          }
          if (key == "mdl") meta.mdl_bits = *v;
          if (key == "noise") meta.noise_only_bits = *v;
          if (key == "coverage") meta.sample_coverage = *v;
        } else if (key == "records") {
          const auto v = ParseInt64(val);
          if (!v.has_value() || *v < 0) {
            return Status::ParseError(
                StrFormat("catalog line %zu: bad record count", i + 1));
          }
          meta.sample_records = static_cast<size_t>(*v);
        }
        // Unknown keys (and the derived first=/scan= fields) are skipped:
        // derived data is recomputed from the canonical form.
      }
      entry.templates.push_back(std::move(st.value()));
      entry.meta.push_back(meta);
      ++i;
    }
    if (static_cast<int64_t>(entry.templates.size()) != *count) {
      return Status::ParseError(
          StrFormat("catalog line %zu: entry has %zu templates, declared %lld",
                    i + 1, entry.templates.size(),
                    static_cast<long long>(*count)));
    }
    ++i;  // consume "end"
    cat.AddEntry(std::move(entry));
  }
  return cat;
}

Result<TemplateCatalog> TemplateCatalog::Load(const std::string& path) {
  auto text = ReadFileToString(path);
  if (!text.ok()) return text.status();
  return Parse(text.value());
}

Status TemplateCatalog::Save(const std::string& path,
                             const CatalogSaveOptions& options) const {
  // The advisory lock serializes the whole read-merge-write cycle across
  // processes; the write itself stays atomic (temp + rename), so a crashed
  // or killed run can never leave a truncated catalog that a later
  // --catalog-in load would reject, and readers that skip the lock still
  // see a complete snapshot.
  auto lock = FileLock::Acquire(path);
  if (!lock.ok()) return lock.status();
  TemplateCatalog merged = *this;
  if (options.merge) {
    std::error_code ec;
    if (std::filesystem::exists(path, ec)) {
      auto disk = Load(path);
      if (!disk.ok()) {
        // Never clobber a file we cannot parse under merge semantics — it
        // may be another writer's data (or not a catalog at all).
        return Status::ParseError("catalog merge: existing file " + path +
                                  " failed to load (" +
                                  disk.status().message() +
                                  "); pass no-merge to overwrite");
      }
      for (CatalogEntry& e : disk.value().entries_) {
        merged.AddEntry(std::move(e));
      }
    }
  }
  Status written = WriteFileAtomic(path, merged.Serialize());
  if (written.ok()) {
    // A successful save is done with the sidecar: clean it up (still under
    // the lock — Acquire's inode re-check makes this race-safe) so crawl
    // and output directories hold only real artifacts, not stray ".lock"
    // files. Best-effort: waiters already blocked on this inode still
    // serialize, and the next saver recreates the sidecar.
    lock.value().UnlinkSidecar();
  }
  return written;
}

CatalogMatch MatchCatalog(const TemplateCatalog& catalog, const Dataset& data,
                          const CatalogMatchOptions& options) {
  SamplerOptions sampler_opts;
  sampler_opts.max_sample_bytes = options.max_sample_bytes;
  sampler_opts.num_chunks = options.sample_chunks;
  sampler_opts.max_line_bytes = options.max_line_bytes;
  return MatchCatalog(catalog, SampleView(data, sampler_opts), options);
}

CatalogMatch MatchCatalog(const TemplateCatalog& catalog,
                          const DatasetView& sample,
                          const CatalogMatchOptions& options) {
  CatalogMatch out;
  const size_t n = sample.line_count();
  if (catalog.empty() || n == 0) return out;

  // One pass over the sample's line-leading bytes; every entry's prefilter
  // is then an O(256) histogram sum instead of a match scan.
  std::array<size_t, 256> first_counts{};
  for (size_t li = 0; li < n; ++li) {
    first_counts[static_cast<unsigned char>(
        sample.line_with_newline(li).front())]++;
  }

  const MdlScorer scorer(options.match_engine, options.charset_engine);
  double best_bits = std::numeric_limits<double>::infinity();
  for (size_t e = 0; e < catalog.size(); ++e) {
    const CatalogEntry& entry = catalog.entry(e);
    CharSet first;
    size_t max_span = 1;
    for (const StructureTemplate& st : entry.templates) {
      first = first.Union(TemplateFirstBytes(st));
      max_span = std::max(max_span,
                          static_cast<size_t>(std::max(1, st.line_span())));
    }
    size_t admissible = 0;
    for (int b = 0; b < 256; ++b) {
      if (first.Contains(static_cast<unsigned char>(b))) {
        admissible += first_counts[static_cast<size_t>(b)];
      }
    }
    // Every covered line belongs to a record of at most max_span lines
    // whose first line starts with a FIRST-set byte, so admissible *
    // max_span bounds the coverable lines from above: an entry below the
    // threshold is rejected without a single match attempt.
    if (static_cast<double>(admissible) * static_cast<double>(max_span) <
        options.min_match * static_cast<double>(n)) {
      out.entries_prefiltered++;
      continue;
    }
    out.entries_scored++;
    std::vector<const StructureTemplate*> ts;
    ts.reserve(entry.templates.size());
    for (const StructureTemplate& st : entry.templates) ts.push_back(&st);
    const MdlBreakdown breakdown = scorer.EvaluateSet(sample, ts);
    out.noise_only_bits = breakdown.noise_only_bits;
    const size_t lines_seen = breakdown.record_lines + breakdown.noise_lines;
    const double rate =
        lines_seen == 0 ? 0
                        : static_cast<double>(breakdown.record_lines) /
                              static_cast<double>(lines_seen);
    // The paper's noise-model acceptance, applied to the catalog entry as
    // if it were the freshly refined candidate: enough of the sample must
    // parse as records, and the structural encoding must beat pure noise
    // by the discovery margin.
    if (rate < options.min_match ||
        breakdown.total_bits >
            breakdown.noise_only_bits * (1 - options.min_mdl_gain)) {
      continue;
    }
    if (breakdown.total_bits < best_bits) {
      best_bits = breakdown.total_bits;
      out.entry = static_cast<int>(e);
      out.match_rate = rate;
      out.mdl_bits = breakdown.total_bits;
    }
  }
  return out;
}

}  // namespace datamaran
