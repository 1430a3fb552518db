#include "core/input.h"

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <utility>

#include "util/gzip.h"
#include "util/strings.h"

#if defined(__unix__) || defined(__APPLE__)
#define DM_HAVE_GLOB 1
#include <fcntl.h>
#include <glob.h>
#include <sys/stat.h>
#include <unistd.h>
#endif

namespace datamaran {

namespace {

/// Re-wraps `s` with a leading context (usually the offending path) so
/// multi-file errors name their file, preserving the status code.
Status WithContext(const Status& s, const std::string& context) {
  const std::string msg = context + ": " + s.message();
  switch (s.code()) {
    case StatusCode::kInvalidArgument:
      return Status::InvalidArgument(msg);
    case StatusCode::kNotFound:
      return Status::NotFound(msg);
    case StatusCode::kParseError:
      return Status::ParseError(msg);
    case StatusCode::kInternal:
      return Status::Internal(msg);
    case StatusCode::kIoError:
    default:
      return Status::IoError(msg);
  }
}

/// Applies the CRLF policy to an owned buffer (kAuto probes the buffer's
/// own head — for decompressed input the probe must see plain text).
void ApplyCrlfPolicy(std::string* text, CrlfPolicy policy) {
  if (policy == CrlfPolicy::kKeep) return;
  if (policy == CrlfPolicy::kAuto &&
      !DetectCrlf(std::string_view(*text).substr(
          0, std::min(text->size(), kCrlfProbeBytes)))) {
    return;
  }
  StripCrlfInPlace(text);
}

/// Loads one stitch member fully into memory: gzip members inflate, plain
/// members read, and the CRLF policy applies per member.
Result<std::string> LoadMemberBytes(const std::string& path,
                                    const InputOptions& options) {
  auto bytes = ReadFileToString(path);
  if (!bytes.ok()) return bytes.status();
  std::string text = std::move(bytes.value());
  if (LooksGzip(text)) {
    auto inflated = GunzipToString(text, options.max_inflate_bytes);
    if (!inflated.ok()) return WithContext(inflated.status(), path);
    text = std::move(inflated.value());
  }
  ApplyCrlfPolicy(&text, options.crlf);
  return text;
}

}  // namespace

bool DetectCrlf(std::string_view head) {
  return head.find("\r\n") != std::string_view::npos;
}

size_t StripCrlfInPlace(std::string* text) {
  size_t stripped = 0;
  size_t w = 0;
  const size_t n = text->size();
  for (size_t r = 0; r < n; ++r) {
    if ((*text)[r] == '\r' && r + 1 < n && (*text)[r + 1] == '\n') {
      ++stripped;
      continue;  // drop the '\r'; the '\n' copies on the next iteration
    }
    (*text)[w++] = (*text)[r];
  }
  text->resize(w);
  return stripped;
}

RotationKey RotationKeyFor(std::string_view path) {
  RotationKey key;
  std::string_view rest = path;
  if (rest.size() > 3 && rest.substr(rest.size() - 3) == ".gz") {
    rest.remove_suffix(3);
  }
  // A short pure-numeric final component is a rotation generation; longer
  // numeric tails (dates like data.2023) are part of the name.
  const size_t dot = rest.rfind('.');
  if (dot != std::string_view::npos && dot + 1 < rest.size()) {
    const std::string_view digits = rest.substr(dot + 1);
    const bool numeric =
        digits.size() <= 3 &&
        std::all_of(digits.begin(), digits.end(), [](char c) {
          return std::isdigit(static_cast<unsigned char>(c)) != 0;
        });
    // The basename must not be empty or itself the whole name (".1").
    const size_t slash = rest.rfind('/');
    const size_t name_begin = slash == std::string_view::npos ? 0 : slash + 1;
    if (numeric && dot > name_begin) {
      key.base = std::string(rest.substr(0, dot));
      key.index = std::atoi(std::string(digits).c_str());
      return key;
    }
  }
  key.base = std::string(rest);
  key.index = -1;
  return key;
}

void SortByRotation(std::vector<std::string>* paths) {
  std::stable_sort(
      paths->begin(), paths->end(),
      [](const std::string& a, const std::string& b) {
        const RotationKey ka = RotationKeyFor(a);
        const RotationKey kb = RotationKeyFor(b);
        if (ka.base != kb.base) return ka.base < kb.base;
        if (ka.index != kb.index) {
          // Highest generation first (oldest data); the live file (-1)
          // comes last.
          if (ka.index == -1) return false;
          if (kb.index == -1) return true;
          return ka.index > kb.index;
        }
        return a < b;
      });
}

Result<std::vector<std::string>> ExpandInputSpec(std::string_view spec) {
  std::vector<std::string> paths;
  for (std::string_view token : Split(spec, ',')) {
    if (token.empty()) continue;
    const std::string pattern(token);
    const bool has_glob =
        pattern.find_first_of("*?[") != std::string::npos;
#if DM_HAVE_GLOB
    if (has_glob) {
      glob_t g{};
      const int rc = ::glob(pattern.c_str(), 0, nullptr, &g);
      if (rc == GLOB_NOMATCH) {
        ::globfree(&g);
        return Status::NotFound("no input matches pattern: " + pattern);
      }
      if (rc != 0) {
        ::globfree(&g);
        return Status::IoError("glob failed for pattern: " + pattern);
      }
      for (size_t i = 0; i < g.gl_pathc; ++i) {
        paths.emplace_back(g.gl_pathv[i]);
      }
      ::globfree(&g);
      continue;
    }
#else
    if (has_glob) {
      return Status::InvalidArgument(
          "glob patterns are not supported on this platform: " + pattern);
    }
#endif
    std::error_code ec;
    if (!std::filesystem::exists(pattern, ec)) {
      return Status::NotFound("no such input file: " + pattern);
    }
    paths.push_back(pattern);
  }
  if (paths.empty()) {
    return Status::InvalidArgument("empty --inputs spec");
  }
  // A literal path repeated, or overlapping globs, must not double the data.
  std::sort(paths.begin(), paths.end());
  paths.erase(std::unique(paths.begin(), paths.end()), paths.end());
  SortByRotation(&paths);
  return paths;
}

Result<Dataset> DatasetFromBytes(std::string bytes,
                                 const InputOptions& options) {
  if (LooksGzip(bytes)) {
    auto inflated = GunzipToString(bytes, options.max_inflate_bytes);
    if (!inflated.ok()) return inflated.status();
    bytes = std::move(inflated.value());
  }
  ApplyCrlfPolicy(&bytes, options.crlf);
  return Dataset(std::move(bytes));
}

Result<Dataset> OpenInput(const std::string& path,
                          const InputOptions& options) {
  auto text = LoadMemberBytes(path, options);
  if (!text.ok()) return text.status();
  return Dataset(std::move(text.value()));
}

Result<Dataset> OpenInputs(const std::vector<std::string>& paths,
                           const InputOptions& options) {
  if (paths.empty()) return Status::InvalidArgument("no input files");
  if (paths.size() == 1) return OpenInput(paths[0], options);
  std::string combined;
  for (const std::string& path : paths) {
    auto member = LoadMemberBytes(path, options);
    if (!member.ok()) return member.status();
    combined += member.value();
    // Newline-terminate each member so a truncated final line cannot merge
    // with the first line of the next rotation generation.
    if (!combined.empty() && combined.back() != '\n') combined += '\n';
  }
  return Dataset(std::move(combined));
}

// ------------------------------------------------------------- InputReader

namespace {

/// One member's decoded bytes on their way into the logical text: the CRLF
/// policy applied as StripCrlfInPlace applies it to the whole member, then
/// the '\n' OpenInputs gives a non-empty member that lacks one. kAuto is
/// decided at the member's first "\r\n": the bytes before it read the same
/// either way, and it strips when its '\n' lies within the first
/// kCrlfProbeBytes (DetectCrlf on the head), keeps otherwise. A '\r' at
/// the end of a block is held until the next byte shows whether it ends a
/// CRLF.
class MemberText {
 public:
  explicit MemberText(CrlfPolicy policy)
      : mode_(policy == CrlfPolicy::kAuto    ? Mode::kUndecided
              : policy == CrlfPolicy::kStrip ? Mode::kStrip
                                             : Mode::kKeep) {}

  /// True once every further byte passes unchanged, so the caller may
  /// read straight into the text and report the bytes with Passed.
  bool verbatim() const { return mode_ == Mode::kKeep; }

  void Passed(std::string_view bytes) {
    Note(bytes);
    seen_ += bytes.size();
  }

  /// Appends the member's next decoded bytes to `*out`.
  void Append(std::string_view in, std::string* out) {
    if (cr_held_ && !in.empty()) {
      cr_held_ = false;
      Carriage(seen_, in[0] == '\n', out);
    }
    for (size_t i = 0; i < in.size();) {
      // Past the probe no CRLF can decide kAuto for stripping.
      if (mode_ == Mode::kUndecided && seen_ + i >= kCrlfProbeBytes) {
        mode_ = Mode::kKeep;
      }
      const size_t cr =
          mode_ == Mode::kKeep ? std::string_view::npos : in.find('\r', i);
      if (cr == std::string_view::npos) {
        Emit(in.substr(i), out);
        break;
      }
      Emit(in.substr(i, cr - i), out);
      if (cr + 1 == in.size()) {
        cr_held_ = true;
        break;
      }
      Carriage(seen_ + cr + 1, in[cr + 1] == '\n', out);
      i = cr + 1;
    }
    seen_ += in.size();
  }

  /// Ends the member: a held '\r', then the '\n' a non-empty member lacks.
  void Finish(std::string* out) {
    if (cr_held_) Emit("\r", out);
    if (last_ != '\n') Emit("\n", out);
  }

 private:
  enum class Mode { kUndecided, kStrip, kKeep };

  /// A '\r' whose next byte, at member offset `next_at`, is a '\n' or
  /// not: the member's first CRLF decides kAuto, and the '\r' is emitted
  /// unless it is stripped.
  void Carriage(size_t next_at, bool crlf, std::string* out) {
    if (crlf && mode_ == Mode::kUndecided) {
      mode_ = next_at < kCrlfProbeBytes ? Mode::kStrip : Mode::kKeep;
    }
    if (!crlf || mode_ != Mode::kStrip) Emit("\r", out);
  }

  void Emit(std::string_view bytes, std::string* out) {
    out->append(bytes.data(), bytes.size());
    Note(bytes);
  }

  void Note(std::string_view bytes) {
    if (!bytes.empty()) last_ = bytes.back();
  }

  Mode mode_;
  bool cr_held_ = false;
  size_t seen_ = 0;   ///< decoded member bytes before the current block
  char last_ = '\n';  ///< the last byte out; an empty member needs no '\n'
};

/// Appends whole lines to a sample text, leaving out each line whose
/// content passes `cap` (0 = no cap), the rule SampleView applies. A line
/// is held only up to the cap, so an over-cap line is dropped without
/// being buffered whole.
class LineCollector {
 public:
  LineCollector(size_t cap, std::string* text)
      : cap_(cap), text_(text), line_(text->size()) {}

  /// `bytes` continue the text.
  void Append(std::string_view bytes) {
    while (!bytes.empty()) {
      const size_t nl = bytes.find('\n');
      const bool ends = nl != std::string_view::npos;
      const size_t take = ends ? nl + 1 : bytes.size();
      if (!dropping_) {
        text_->append(bytes.data(), take);
        if (cap_ != 0 && text_->size() - line_ - (ends ? 1 : 0) > cap_) {
          text_->resize(line_);
          dropping_ = !ends;
        }
      } else if (ends) {
        dropping_ = false;
      }
      if (ends) line_ = text_->size();
      bytes.remove_prefix(take);
    }
  }

 private:
  size_t cap_;
  std::string* text_;
  size_t line_;            ///< where the current line begins in *text_
  bool dropping_ = false;  ///< the current line is over the cap
};

}  // namespace

/// One forward pass over the logical text: the members in order, each
/// read (plain) or inflated (gzip) a window at a time and passed through
/// its MemberText.
class InputReader::Pass {
 public:
  explicit Pass(const InputReader& reader) : reader_(reader) { Start(); }

  /// Appends the next bytes of the logical text to `*out`, about one
  /// window of them, and sets `*end` once no more follow.
  Status Next(std::string* out, bool* end) {
    const size_t before = out->size();
    const size_t members = reader_.members_.size();
    while (member_ < members && out->size() == before) {
      bool member_end = false;
      DM_RETURN_IF_ERROR(Decode(out, &member_end));
      if (member_end) {
        text_->Finish(out);
        ++member_;
        Start();
      }
    }
    position_ += out->size() - before;
    *end = member_ == members;
    return Status::Ok();
  }

  /// Logical bytes passed so far.
  size_t position() const { return position_; }

  /// Empties `*block` for the next Next. A block holds at most a window,
  /// a '\r' held from the block before and a member's final '\n', and
  /// once the pass has passed its first block, `*block` is reserved at
  /// that once, so no later block grows it by doubling. A text that fits
  /// in its first block allocates only its own size.
  void Reuse(std::string* block) const {
    block->clear();
    const size_t most = reader_.window_bytes_ + 2;
    if (position_ > 0 && block->capacity() < most) {
      // Freed first: a reserve below twice the capacity would double it.
      std::string().swap(*block);
      block->reserve(most);
    }
  }

  /// Reads on from where the last Consume stopped: up to logical offset
  /// `to`, or through the next '\n' when `to` is npos, handing the bytes
  /// to `*lines` unless it is null. Returns the offset reached (the size,
  /// when the text ends first).
  Result<size_t> Consume(size_t to, LineCollector* lines) {
    for (;;) {
      const size_t reached = position_ - (block_.size() - at_);
      if (reached == to) return reached;
      if (at_ == block_.size()) {
        if (ended_) return reached;
        Reuse(&block_);
        at_ = 0;
        DM_RETURN_IF_ERROR(Next(&block_, &ended_));
        continue;
      }
      const std::string_view avail(block_.data() + at_, block_.size() - at_);
      size_t take = std::min(avail.size(), to - reached);
      bool done = false;
      if (to == std::string_view::npos) {
        const size_t nl = avail.find('\n');
        done = nl != std::string_view::npos;
        take = done ? nl + 1 : avail.size();
      }
      if (lines != nullptr) lines->Append(avail.substr(0, take));
      at_ += take;
      if (done) return reached + take;
    }
  }

 private:
  /// Resets the per-member state for member_.
  void Start() {
    offset_ = 0;
    pending_ = {};
    if (member_ == reader_.members_.size()) return;
    // The single plain file's head already showed nothing to strip.
    text_.emplace(reader_.positioned_ ? CrlfPolicy::kKeep
                                      : reader_.options_.crlf);
    if (reader_.members_[member_].gzip) {
      inflater_.emplace(reader_.options_.max_inflate_bytes);
    }
  }

  /// Decodes the next block of member_ into `*out`; `*member_end` once
  /// the member is used up.
  Status Decode(std::string* out, bool* member_end) {
    const Member& m = reader_.members_[member_];
    const size_t size = m.file.size();
    const size_t window = reader_.window_bytes_;
    if (!m.gzip) {
      const size_t n = std::min(window, size - offset_);
      if (text_->verbatim()) {
        const size_t at = out->size();
        out->resize(at + n);
        DM_RETURN_IF_ERROR(m.file.ReadAt(offset_, out->data() + at, n));
        text_->Passed(std::string_view(out->data() + at, n));
      } else {
        decoded_.resize(n);
        DM_RETURN_IF_ERROR(m.file.ReadAt(offset_, decoded_.data(), n));
        text_->Append(decoded_, out);
      }
      offset_ += n;
      *member_end = offset_ == size;
      return Status::Ok();
    }
    if (pending_.empty() && offset_ < size) {
      const size_t n = std::min(window, size - offset_);
      compressed_.resize(n);
      DM_RETURN_IF_ERROR(m.file.ReadAt(offset_, compressed_.data(), n));
      offset_ += n;
      pending_ = compressed_;
    }
    // The bytes one inflate with a window of room gives, inflated into
    // decoded_, which grows only as inflate fills it: from
    // kFirstDecodeBytes, doubling up to the window. So a small member
    // never zero-fills a window.
    const size_t first = std::min(window, kFirstDecodeBytes);
    if (decoded_.size() < first) decoded_.resize(first);
    size_t n = 0;
    for (;;) {
      const size_t room = decoded_.size();
      auto got = inflater_->Inflate(&pending_, offset_ == size,
                                    decoded_.data() + n, room - n);
      if (!got.ok()) return WithContext(got.status(), m.file.path());
      n += got.value();
      if (n < room || room == window) break;
      decoded_.resize(std::min(window, 2 * room));
    }
    text_->Append(std::string_view(decoded_.data(), n), out);
    *member_end = inflater_->finished();
    return Status::Ok();
  }

  static constexpr size_t kFirstDecodeBytes = 4096;

  const InputReader& reader_;
  size_t member_ = 0;
  size_t position_ = 0;
  // The member being decoded.
  size_t offset_ = 0;  ///< bytes of its file read so far
  std::optional<MemberText> text_;
  std::optional<GzipInflater> inflater_;
  std::string compressed_;
  std::string_view pending_;  ///< compressed bytes read, not yet inflated
  std::string decoded_;       ///< a block on its way through text_
  // Consume's block: bytes [at_, size) are passed but not yet consumed.
  std::string block_;
  size_t at_ = 0;
  bool ended_ = false;
};

Result<InputReader> InputReader::Open(const std::vector<std::string>& paths,
                                      const InputOptions& options) {
  if (paths.empty()) return Status::InvalidArgument("no input files");
  InputReader reader;
  if (!RandomAccessFile::kSupported) {
    // Without positioned reads every input is served from OpenInputs' text.
    auto data = OpenInputs(paths, options);
    if (!data.ok()) return data.status();
    reader.size_ = data.value().size_bytes();
    reader.owned_.emplace(std::move(data.value()));
    return reader;
  }
  reader.options_ = options;
  std::string head;
  for (const std::string& path : paths) {
    auto file = RandomAccessFile::Open(path);
    if (!file.ok()) return file.status();
    // The magic bytes decide gzip; a single file's head also decides the
    // CRLF policy.
    head.resize(std::min(file.value().size(),
                         paths.size() == 1 ? kCrlfProbeBytes : size_t{2}));
    DM_RETURN_IF_ERROR(file.value().ReadAt(0, head.data(), head.size()));
    reader.members_.push_back({std::move(file.value()), LooksGzip(head)});
  }
  Member& only = reader.members_.front();
  const bool strip = options.crlf == CrlfPolicy::kStrip ||
                     (options.crlf == CrlfPolicy::kAuto && DetectCrlf(head));
  if (paths.size() == 1 && !only.gzip && !strip) {
    reader.positioned_ = true;
    const size_t size = only.file.size();
    if (size > 0) {
      char last = '\n';
      DM_RETURN_IF_ERROR(only.file.ReadAt(size - 1, &last, 1));
      reader.appends_newline_ = last != '\n';
    }
    reader.size_ = size + (reader.appends_newline_ ? 1 : 0);
  }
  return reader;
}

Status InputReader::ReadAt(size_t offset, char* dst, size_t n) const {
  // The appended final newline is the one logical byte past the file.
  const RandomAccessFile& file = members_.front().file;
  const size_t in_file =
      offset < file.size() ? std::min(n, file.size() - offset) : 0;
  DM_RETURN_IF_ERROR(file.ReadAt(offset, dst, in_file));
  if (in_file < n) dst[in_file] = '\n';
  return Status::Ok();
}

Result<size_t> InputReader::EndOfLineAt(size_t pos, std::string* buf) const {
  const size_t size = *size_;
  while (pos < size) {
    const size_t n = std::min({kLineEndProbeBytes, window_bytes_, size - pos});
    buf->resize(n);
    DM_RETURN_IF_ERROR(ReadAt(pos, buf->data(), n));
    const size_t nl = std::string_view(*buf).find('\n');
    if (nl != std::string_view::npos) return pos + nl + 1;
    pos += n;
  }
  return size;
}

Result<DatasetView> InputReader::ReadSample(const SamplerOptions& options,
                                            std::optional<Dataset>* copy) {
  if (owned_.has_value()) return SampleView(*owned_, options);
  // The text is reserved once: grown line by line it would double, the old
  // copy live during each move. A positioned file reserves its ranges'
  // total. A stream reserves, for both passes, the budget plus a line-end
  // probe per chunk, room for each chunk's last line to run past the
  // chunk's nominal end; only a longer last line grows it. The stream's
  // reservation stops at the default budget's: a larger budget grows the
  // text only as far as the stream's bytes go.
  std::string text;
  if (!positioned_) {
    const SamplerOptions defaults;
    text.reserve(
        std::min(options.max_sample_bytes, defaults.max_sample_bytes) +
        static_cast<size_t>(
            std::clamp(options.num_chunks, 0, defaults.num_chunks)) *
            kLineEndProbeBytes);
  }
  if (!size_.has_value()) {
    // The first pass over a stream: the whole sample when the text ends
    // inside the budget; past it, the pass only learns the size, and the
    // text keeps its capacity for the second pass.
    LineCollector lines(options.max_line_bytes, &text);
    Pass pass(*this);
    std::string block;
    for (bool end = false; !end;) {
      pass.Reuse(&block);
      DM_RETURN_IF_ERROR(pass.Next(&block, &end));
      if (pass.position() <= options.max_sample_bytes) {
        lines.Append(block);
      } else {
        text.clear();
      }
    }
    size_ = pass.position();
    if (*size_ <= options.max_sample_bytes) {
      copy->emplace(std::move(text));
      return DatasetView(**copy);
    }
  }
  const size_t size = *size_;
  LineCollector lines(options.max_line_bytes, &text);
  Status failed;
  if (positioned_) {
    std::string scratch;
    // Bytes past a chunk's nominal end belong to one line; when there are
    // more than the cap allows, that line is dropped, so they are not
    // reserved for. The queries alternate, a chunk's end first.
    const size_t cap = options.max_line_bytes;
    size_t dropped = 0;
    bool chunk_end = true;
    const std::vector<SampleRange> ranges =
        SampleRanges(size, options, [&](size_t pos) {
          if (!failed.ok()) return size;  // stops the range walk
          auto end = EndOfLineAt(pos, &scratch);
          if (!end.ok()) {
            failed = end.status();
            return size;
          }
          if (chunk_end && cap != 0 && end.value() - pos > cap + 1) {
            dropped += end.value() - pos;
          }
          chunk_end = !chunk_end;
          return end.value();
        });
    DM_RETURN_IF_ERROR(failed);
    size_t total = 0;
    for (const SampleRange& r : ranges) total += r.end - r.begin;
    text.reserve(total - dropped);
    for (const SampleRange& r : ranges) {
      for (size_t pos = r.begin; pos < r.end;) {
        const size_t n = std::min(window_bytes_, r.end - pos);
        scratch.resize(n);
        DM_RETURN_IF_ERROR(ReadAt(pos, scratch.data(), n));
        lines.Append(scratch);
        pos += n;
      }
    }
  } else {
    // One forward pass answers the range walk's line-end queries, which
    // only move forward, and collects each chunk on the way: the queries
    // alternate between a chunk's end and the next chunk's begin, starting
    // with the end of chunk 0, which begins at byte 0.
    Pass pass(*this);
    bool in_chunk = true;
    SampleRanges(size, options, [&](size_t pos) {
      if (!failed.ok()) return size;  // stops the range walk
      LineCollector* into = in_chunk ? &lines : nullptr;
      auto reached = pass.Consume(pos, into);
      if (reached.ok()) reached = pass.Consume(std::string_view::npos, into);
      if (!reached.ok()) {
        failed = reached.status();
        return size;
      }
      in_chunk = !in_chunk;
      return reached.value();
    });
    DM_RETURN_IF_ERROR(failed);
    if (in_chunk) {
      // The last chunk runs to the end of the text.
      auto reached = pass.Consume(size, &lines);
      if (!reached.ok()) return reached.status();
    }
  }
  copy->emplace(std::move(text));
  return DatasetView(**copy);
}

Result<ExtractionResult> InputReader::Scan(const Extractor& extractor,
                                           EventSink* sink) {
  ExtractionResult counts;
  Extractor::ScanBuffers buffers;
  if (owned_.has_value()) {
    counts.total_chars = owned_->size_bytes();
    counts.total_lines = extractor.ExtractSegment(*owned_, /*final=*/true, 0,
                                                  sink, &counts, &buffers);
    return counts;
  }
  Pass pass(*this);
  // One buffer serves every segment: it moves into `segment` and back out,
  // and the undecided lines move to its front. When the size is known it
  // is reserved once, at one window for the bytes a pass appends plus one
  // for the carried lines (or the whole text, if smaller), so only a line
  // or an undecided span longer than a window grows it; a stream of
  // unknown size grows it as its first bytes arrive.
  std::string buf;  // the carried lines, then the bytes passed after them
  const size_t capacity = 2 * window_bytes_;
  if (size_.has_value()) buf.reserve(std::min(*size_, capacity));
  std::string partial;  // the bytes after the segment's last '\n'
  Dataset segment;
  size_t line = 0;  // stream line number of buf's first line
  for (bool final = false; !final;) {
    const size_t carried = buf.size();
    DM_RETURN_IF_ERROR(pass.Next(&buf, &final));
    size_t cut = buf.size();
    if (!final) {
      // The carry holds no unseen '\n', so only the new bytes are searched.
      const size_t nl = std::string_view(buf).substr(carried).rfind('\n');
      if (nl == std::string_view::npos) continue;  // a line past the window
      cut = carried + nl + 1;
    }
    partial.assign(buf, cut);
    buf.resize(cut);
    segment.Reset(std::move(buf));
    const size_t undecided =
        extractor.ExtractSegment(segment, final, line, sink, &counts,
                                 &buffers);
    line += undecided;
    const size_t decided = undecided < segment.line_count()
                               ? segment.line_begin(undecided)
                               : segment.size_bytes();
    buf = segment.Release();
    buf.erase(0, decided);
    buf += partial;
  }
  counts.total_chars = pass.position();
  counts.total_lines = line;
  size_ = counts.total_chars;
  return counts;
}

// ------------------------------------------------------------ StreamFramer

StreamFramer::StreamFramer(CrlfPolicy crlf, size_t max_line_bytes)
    : crlf_(crlf),
      max_line_bytes_(max_line_bytes),
      crlf_decided_(crlf != CrlfPolicy::kAuto),
      crlf_strip_(crlf == CrlfPolicy::kStrip) {}

void StreamFramer::EmitLine(std::string_view content_with_newline,
                            bool carry_oversized, const LineFn& on_line) {
  // kAuto resolves the first time a line terminates: a CRLF terminator
  // whose '\n' sits inside the probe window means "strip everywhere"
  // (exactly DetectCrlf's condition — every "\r\n" in the text is a line
  // terminator, so the head probe can only ever see one at a boundary).
  // The first terminator at or past the window locks in "keep", mirroring
  // the batch probe's deterministic give-up: later terminators sit even
  // further out, so no future "\r\n" can be fully inside the window.
  // Lines emitted before the decision need no rewrite either way: they
  // did not end in CRLF. bytes_in_ is advanced by the caller through this
  // line's '\n', so the '\n' absolute offset is bytes_in_ - 1, and
  // "inside the probe window" (both bytes of "\r\n" within the first
  // kCrlfProbeBytes) is bytes_in_ <= kCrlfProbeBytes.
  const bool ends_crlf = content_with_newline.size() >= 2 &&
                         content_with_newline[content_with_newline.size() -
                                              2] == '\r';
  if (!crlf_decided_) {
    if (ends_crlf && bytes_in_ <= kCrlfProbeBytes) {
      crlf_strip_ = true;
      crlf_decided_ = true;
    } else if (bytes_in_ > kCrlfProbeBytes) {
      crlf_strip_ = false;
      crlf_decided_ = true;
    }
  }
  std::string_view out = content_with_newline;
  if (crlf_strip_ && ends_crlf) {
    // Strip the '\r' of the CRLF terminator (lone '\r' bytes elsewhere in
    // the line are data, exactly like StripCrlfInPlace).
    scratch_.assign(out.data(), out.size() - 2);
    scratch_.push_back('\n');
    out = scratch_;
    ++crlf_stripped_;
  }
  ++lines_out_;
  if (carry_oversized) ++oversized_lines_;
  on_line(out, carry_oversized);
}

void StreamFramer::Feed(std::string_view bytes, const LineFn& on_line) {
  while (!bytes.empty()) {
    const char* nl = static_cast<const char*>(
        std::memchr(bytes.data(), '\n', bytes.size()));
    if (nl == nullptr) {
      // No terminator in this chunk: everything joins the carry, subject
      // to the oversized cap (overflow is dropped, never buffered).
      bytes_in_ += bytes.size();
      size_t take = bytes.size();
      if (max_line_bytes_ != 0 && carry_.size() + take > max_line_bytes_) {
        take = max_line_bytes_ > carry_.size()
                   ? max_line_bytes_ - carry_.size()
                   : 0;
        carry_oversized_ = true;
      }
      carry_.append(bytes.data(), take);
      return;
    }
    const size_t head = static_cast<size_t>(nl - bytes.data()) + 1;
    bytes_in_ += head;
    if (carry_.empty() && !carry_oversized_) {
      if (max_line_bytes_ != 0 && head > max_line_bytes_) {
        // The cap applies here too — framing must be a pure function of
        // the byte stream, so a line delivered whole truncates exactly
        // like one accumulated through the carry.
        carry_.assign(bytes.data(), max_line_bytes_);
        carry_.push_back('\n');
        EmitLine(carry_, true, on_line);
        carry_.clear();
      } else {
        // Whole line inside this chunk: emit a direct view, no copy.
        EmitLine(bytes.substr(0, head), false, on_line);
      }
    } else {
      if (max_line_bytes_ != 0 && carry_.size() + head > max_line_bytes_) {
        // Keep the terminator but drop the overflowing tail bytes: the
        // truncated content is exactly max_line_bytes_ long, so callers
        // configuring the cap one past their downstream oversized guard
        // get a guaranteed over-cap (hence noise) line.
        const size_t take = max_line_bytes_ > carry_.size()
                                ? max_line_bytes_ - carry_.size()
                                : 0;
        carry_oversized_ = true;
        carry_.append(bytes.data(), take);
      } else {
        carry_.append(bytes.data(), head - 1);
      }
      carry_.push_back('\n');
      EmitLine(carry_, carry_oversized_, on_line);
      carry_.clear();
      carry_oversized_ = false;
    }
    bytes.remove_prefix(head);
  }
}

void StreamFramer::Finish(const LineFn& on_line) {
  if (carry_.empty() && !carry_oversized_) return;
  // Mirror Dataset's missing-final-newline append. Batch appends the
  // missing '\n' AFTER CRLF normalization, so a trailing lone '\r' keeps
  // its '\r' there — bypass EmitLine's CRLF handling (the synthetic
  // terminator never forms a strippable CRLF and never drives the kAuto
  // decision, which batch derives from the raw head alone).
  carry_.push_back('\n');
  ++lines_out_;
  if (carry_oversized_) ++oversized_lines_;
  on_line(carry_, carry_oversized_);
  carry_.clear();
  carry_oversized_ = false;
}

// ------------------------------------------------------------ FollowReader

FollowReader::FollowReader(std::string path)
    : path_(std::move(path)), stdin_(path_ == "-") {}

FollowReader::~FollowReader() {
#if defined(__unix__) || defined(__APPLE__)
  if (fd_ >= 0 && !stdin_) ::close(fd_);
#endif
}

#if defined(__unix__) || defined(__APPLE__)

Status FollowReader::Reopen() {
  if (fd_ >= 0 && !stdin_) ::close(fd_);
  fd_ = -1;
  offset_ = 0;
  if (stdin_) {
    fd_ = 0;
    return Status::Ok();
  }
  const int fd = ::open(path_.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) {
    return Status::IoError("cannot open " + path_ + ": " +
                           std::strerror(errno));
  }
  fd_ = fd;
  return Status::Ok();
}

Result<FollowReader::ReadResult> FollowReader::Read(std::string* out,
                                                    size_t max_bytes) {
  ReadResult result;
  if (fd_ < 0) {
    Status opened = Reopen();
    if (!opened.ok()) return opened;
  }
  char buf[64 * 1024];
  while (result.bytes < max_bytes) {
    const size_t want =
        std::min(sizeof(buf), max_bytes - result.bytes);
    const ssize_t n = ::read(fd_, buf, want);
    if (n < 0) {
      if (errno == EINTR) continue;
      return Status::IoError("read " + path_ + ": " + std::strerror(errno));
    }
    if (n == 0) break;  // drained for now
    out->append(buf, static_cast<size_t>(n));
    offset_ += static_cast<uint64_t>(n);
    result.bytes += static_cast<size_t>(n);
  }
  if (result.bytes == static_cast<size_t>(max_bytes) && max_bytes > 0) {
    return result;  // budget filled; caller decides whether to continue
  }
  result.eof = true;
  if (stdin_) return result;
  // At EOF on a live file, check for the two rotation hazards. A stat
  // failure here (the path momentarily gone mid-rotation) is not an
  // error — the next poll finds the new file.
  struct stat by_path;
  struct stat by_fd;
  if (::stat(path_.c_str(), &by_path) != 0 || ::fstat(fd_, &by_fd) != 0) {
    return result;
  }
  if (by_path.st_ino != by_fd.st_ino || by_path.st_dev != by_fd.st_dev) {
    // Rotated: the old file is fully drained (we are at its EOF), so the
    // new inode starts clean at offset 0.
    Status opened = Reopen();
    if (!opened.ok()) return opened;
    result.rotated = true;
    result.eof = false;  // the new file may have content right now
  } else if (static_cast<uint64_t>(by_fd.st_size) < offset_) {
    // Truncated in place (copytruncate rotation): restart from the top.
    if (::lseek(fd_, 0, SEEK_SET) < 0) {
      return Status::IoError("lseek " + path_ + ": " + std::strerror(errno));
    }
    offset_ = 0;
    result.truncated = true;
    result.eof = false;
  }
  return result;
}

#else  // !(__unix__ || __APPLE__)

Status FollowReader::Reopen() {
  return Status::Internal("--follow requires a POSIX platform");
}

Result<FollowReader::ReadResult> FollowReader::Read(std::string*, size_t) {
  return Status::Internal("--follow requires a POSIX platform");
}

#endif

}  // namespace datamaran
