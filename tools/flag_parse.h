#ifndef DATAMARAN_TOOLS_FLAG_PARSE_H_
#define DATAMARAN_TOOLS_FLAG_PARSE_H_

#include <cstdio>
#include <cstdlib>
#include <functional>
#include <limits>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "core/options.h"
#include "extraction/sinks.h"
#include "util/strings.h"

/// One declarative flag table for the datamaran command-line tools. Each
/// Flag holds its name, value kind, help text and the field it sets;
/// FlagTable parses argv against the table, generates the usage text from
/// it, and checks the cross-flag rules the entries declare (a flag that
/// needs another, flags that conflict). Every usage error exits 2 naming
/// the flag — and the value and what was expected, when the value was the
/// problem — before the tool does any work; `--help` prints the usage to
/// stdout and exits 0. Values are parsed strictly: std::atoi-style parsing
/// would quietly turn "--threads=all" into 0, i.e. every core.

namespace datamaran_tools {

enum class FlagKind { kBool, kInt, kSize, kPercent, kString, kChoice };

/// One table entry. `set` parses a value into the field the flag sets and
/// returns false when the value is malformed; `expected` says what a good
/// value looks like in that error.
struct Flag {
  std::string name;  ///< "--threads"
  FlagKind kind;
  std::string metavar;   ///< "N", "PATH", "csv|ndjson"; empty for kBool
  std::string expected;  ///< "an integer", "one of csv, ndjson"
  std::string help;
  std::function<bool(std::string_view)> set;
  std::string needs = {};                   ///< a flag that must be given too
  std::vector<std::string> conflicts = {};  ///< flags that must not be given

  Flag Needs(std::string flag) && {
    needs = std::move(flag);
    return std::move(*this);
  }
  Flag Conflicts(std::vector<std::string> flags) && {
    conflicts = std::move(flags);
    return std::move(*this);
  }
};

/// A value-less flag that stores `value` into `*field`.
template <typename T>
Flag Switch(std::string name, std::string help, T* field, T value) {
  return {std::move(name), FlagKind::kBool, "", "no value", std::move(help),
          [field, value](std::string_view) {
            *field = value;
            return true;
          }};
}

inline Flag Switch(std::string name, std::string help, bool* field) {
  return Switch(std::move(name), std::move(help), field, true);
}

/// Whole-string signed integer in int range.
inline Flag Int(std::string name, std::string metavar, std::string help,
                int* field) {
  return {std::move(name), FlagKind::kInt, std::move(metavar), "an integer",
          std::move(help), [field](std::string_view value) {
            const auto v = datamaran::ParseInt64(value);
            if (!v.has_value() || *v < std::numeric_limits<int>::min() ||
                *v > std::numeric_limits<int>::max()) {
              return false;
            }
            *field = static_cast<int>(*v);
            return true;
          }};
}

/// Whole-string non-negative integer (byte counts, caps).
inline Flag Size(std::string name, std::string metavar, std::string help,
                 size_t* field) {
  return {std::move(name), FlagKind::kSize, std::move(metavar),
          "a non-negative integer", std::move(help),
          [field](std::string_view value) {
            const auto v = datamaran::ParseInt64(value);
            if (!v.has_value() || *v < 0) return false;
            *field = static_cast<size_t>(*v);
            return true;
          }};
}

/// Decimal percentage ("80", "0.5"; no exponents), stored as a fraction.
inline Flag Percent(std::string name, std::string help, double* field) {
  return {std::move(name), FlagKind::kPercent, "P", "a decimal number",
          std::move(help), [field](std::string_view value) {
            const auto v = datamaran::ParseDecimal(value, nullptr);
            if (!v.has_value()) return false;
            *field = *v / 100.0;
            return true;
          }};
}

/// Non-empty text (paths, specs).
inline Flag String(std::string name, std::string metavar, std::string help,
                   std::string* field) {
  return {std::move(name), FlagKind::kString, std::move(metavar),
          "a non-empty value", std::move(help),
          [field](std::string_view value) {
            if (value.empty()) return false;
            *field = std::string(value);
            return true;
          }};
}

/// One of a fixed set of named values.
template <typename E>
Flag Choice(std::string name, std::string help, E* field,
            std::vector<std::pair<std::string, E>> values) {
  std::string metavar, expected = "one of ";
  for (size_t k = 0; k < values.size(); ++k) {
    metavar += (k == 0 ? "" : "|") + values[k].first;
    expected += (k == 0 ? "" : ", ") + values[k].first;
  }
  return {std::move(name), FlagKind::kChoice, std::move(metavar),
          std::move(expected), std::move(help),
          [field, values = std::move(values)](std::string_view value) {
            for (const auto& [text, v] : values) {
              if (value == text) {
                *field = v;
                return true;
              }
            }
            return false;
          }};
}

class FlagTable {
 public:
  /// `program` names the tool in messages; each of `forms` is one usage
  /// synopsis after the program name ("<file> [flags]").
  FlagTable(std::string program, std::vector<std::string> forms)
      : program_(std::move(program)), forms_(std::move(forms)) {
    sections_.push_back({"flags:", "", {}});
  }

  /// Starts a usage section; every flag added after it needs `needs`
  /// (unless empty) — the section is the flag group, so the "needs"
  /// check and its documentation come from one declaration.
  void Section(std::string title, std::string needs = "") {
    sections_.push_back({std::move(title), std::move(needs), {}});
  }

  void Add(Flag flag) {
    if (flag.needs.empty()) flag.needs = sections_.back().needs;
    sections_.back().flags.push_back(std::move(flag));
  }

  /// Parses argv against the table, appending non-flag arguments to
  /// `positional`. Returns only on success: `--help` exits 0, and every
  /// usage error exits 2 through Fail.
  void Parse(int argc, char** argv, std::vector<std::string>* positional) {
    for (int i = 1; i < argc; ++i) {
      if (std::string_view(argv[i]) == "--help") {
        std::fputs(Usage().c_str(), stdout);
        std::exit(0);
      }
    }
    for (int i = 1; i < argc; ++i) {
      const std::string_view arg = argv[i];
      if (!datamaran::StartsWith(arg, "--")) {
        positional->emplace_back(arg);
        continue;
      }
      const size_t eq = arg.find('=');
      const std::string name(arg.substr(0, eq));
      const Flag* flag = Find(name);
      if (flag == nullptr) Fail("unknown flag " + name);
      if (flag->kind == FlagKind::kBool && eq != std::string_view::npos) {
        Fail(name + " takes no value");
      }
      if (flag->kind != FlagKind::kBool && eq == std::string_view::npos) {
        Fail(name + " needs a value: " + name + "=" + flag->metavar);
      }
      const std::string_view value =
          eq == std::string_view::npos ? "" : arg.substr(eq + 1);
      if (!flag->set(value)) {
        Fail(datamaran::StrFormat(
            "invalid value for %s: \"%.*s\" (expected %s)", name.c_str(),
            static_cast<int>(value.size()), value.data(),
            flag->expected.c_str()));
      }
      seen_.push_back(flag);
    }
    for (const Flag* flag : seen_) {
      if (!flag->needs.empty() && !Seen(flag->needs)) {
        Fail(flag->name + " requires " + flag->needs);
      }
      for (const std::string& other : flag->conflicts) {
        if (Seen(other)) Fail(flag->name + " conflicts with " + other);
      }
    }
  }

  bool Seen(std::string_view name) const {
    for (const Flag* flag : seen_) {
      if (flag->name == name) return true;
    }
    return false;
  }

  [[noreturn]] void Fail(const std::string& message) const {
    std::fprintf(stderr, "error: %s\nrun '%s --help' for usage\n",
                 message.c_str(), program_.c_str());
    std::exit(2);
  }

  std::string Usage() const {
    std::string out;
    for (size_t i = 0; i < forms_.size(); ++i) {
      out += (i == 0 ? "usage: " : "       ") + program_ + " " + forms_[i] +
             "\n";
    }
    for (const SectionEntry& section : sections_) {
      out += "\n" + section.title + "\n";
      for (const Flag& f : section.flags) {
        std::string help = f.help;
        if (f.needs != section.needs) help += "; requires " + f.needs;
        for (size_t k = 0; k < f.conflicts.size(); ++k) {
          help += (k == 0 ? "; conflicts with " : ", ") + f.conflicts[k];
        }
        AppendEntry(f.metavar.empty() ? f.name : f.name + "=" + f.metavar,
                    help, &out);
      }
      if (&section == &sections_.front()) {
        AppendEntry("--help", "print this usage and exit", &out);
      }
    }
    return out;
  }

 private:
  struct SectionEntry {
    std::string title;
    std::string needs;
    std::vector<Flag> flags;
  };

  const Flag* Find(std::string_view name) const {
    for (const SectionEntry& section : sections_) {
      for (const Flag& f : section.flags) {
        if (f.name == name) return &f;
      }
    }
    return nullptr;
  }

  /// "  --label   help…" with the help word-wrapped into a column.
  static void AppendEntry(const std::string& label, const std::string& help,
                          std::string* out) {
    constexpr size_t kColumn = 26;
    constexpr size_t kWidth = 79;
    std::string line = "  " + label;
    if (line.size() >= kColumn) {
      *out += line + "\n";
      line.clear();
    }
    line.resize(kColumn, ' ');
    size_t start = 0;
    while (start < help.size()) {
      size_t end = help.find(' ', start);
      if (end == std::string::npos) end = help.size();
      const std::string_view word(help.data() + start, end - start);
      if (line.size() > kColumn && line.size() + 1 + word.size() > kWidth) {
        *out += line + "\n";
        line.assign(kColumn, ' ');
      }
      if (line.size() > kColumn) line += ' ';
      line += word;
      start = end + 1;
    }
    *out += line + "\n";
  }

  std::string program_;
  std::vector<std::string> forms_;
  std::vector<SectionEntry> sections_;
  std::vector<const Flag*> seen_;
};

/// What the flags shared by datamaran_cli and datamaran_crawl set.
struct SharedSettings {
  datamaran::DatamaranOptions options;
  std::string out_dir;
  datamaran::OutputFormat format = datamaran::OutputFormat::kCsv;
};

/// Declares the flags both tools accept, once.
inline void AddSharedFlags(FlagTable* table, SharedSettings* s) {
  using datamaran::CrlfPolicy;
  using datamaran::OutputFormat;
  datamaran::DatamaranOptions& o = s->options;
  table->Add(String("--out", "DIR",
                    "stream the relational tables (type<t>.csv or "
                    ".ndjson, plus noise.txt) into DIR, written "
                    "incrementally at O(wave) memory; datamaran_crawl "
                    "writes each file's tables under "
                    "DIR/<relative-path>.tables/",
                    &s->out_dir));
  table->Add(Choice("--format",
                    "table format for --out: csv (default; RFC-4180 "
                    "quoting) or ndjson (one JSON object per record)",
                    &s->format,
                    {{"csv", OutputFormat::kCsv},
                     {"ndjson", OutputFormat::kNdjson}}));
  table->Add(Int("--threads", "N",
                 "worker threads: 0 (default) = all hardware threads, 1 = "
                 "sequential; output is identical for every value",
                 &o.num_threads));
  table->Add(Percent("--alpha",
                     "coverage threshold alpha: percent of the sample a "
                     "candidate template must cover (default 10)",
                     &o.coverage_threshold));
  table->Add(Int("--span", "L", "maximum record span in lines (default 10)",
                 &o.max_record_span));
  table->Add(Int("--retain", "M",
                 "candidates retained after pruning (default 200)",
                 &o.num_retained));
  table->Add(Choice("--crlf",
                    "line endings: auto (default) normalizes \\r\\n to \\n "
                    "in each input file where a CRLF appears in its first "
                    "64KiB, strip always normalizes, keep never does",
                    &o.crlf,
                    {{"auto", CrlfPolicy::kAuto},
                     {"keep", CrlfPolicy::kKeep},
                     {"strip", CrlfPolicy::kStrip}}));
  table->Add(Size("--max-line-bytes", "N",
                  "oversized-line guard: lines longer than N bytes are left "
                  "out of discovery and extracted as noise (default 4MiB; "
                  "0 = unlimited)",
                  &o.max_line_bytes));
  table->Add(Size("--max-inflate-bytes", "N",
                  "gzip decompression-bomb cap; inflating past it is a "
                  "clean error, not an OOM (default 4GiB; 0 = unlimited)",
                  &o.max_inflate_bytes));
  table->Add(String("--catalog-in", "PATH",
                    "fingerprint each input against the template catalog "
                    "at PATH first; a hit skips discovery and extracts with "
                    "the stored templates, byte-identical to the cold run "
                    "that built the entry",
                    &o.catalog_in));
  table->Add(String("--catalog-out", "PATH",
                    "save the catalog (loaded entries plus every format "
                    "discovered cold) to PATH, merged under an advisory "
                    "lock with the catalog already there, so concurrent "
                    "runs never lose entries",
                    &o.catalog_out));
  table->Add(Switch("--catalog-no-merge",
                    "overwrite --catalog-out instead of merging with the "
                    "file on disk",
                    &o.catalog_merge, false));
  table->Add(Percent("--catalog-min-match",
                     "percent of sampled lines a catalog entry must cover "
                     "to count as a hit (default 80); datamaran_crawl also "
                     "flags a hit file as drifted when its whole-file match "
                     "rate falls below it",
                     &o.catalog_min_match));
  table->Add(Switch("--verbose", "per-stage progress logging on stderr",
                    &o.verbose));
}

}  // namespace datamaran_tools

#endif  // DATAMARAN_TOOLS_FLAG_PARSE_H_
