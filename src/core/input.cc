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
  // Pre-size the stitch buffer from the on-disk member sizes (+1 newline
  // terminator each) so appending never reallocates mid-stitch: peak
  // memory stays at one member plus the combined buffer, not 2x combined.
  // Gzip members inflate larger than their file size — the reserve is then
  // only a hint and growth proceeds as usual, never incorrectly.
  size_t reserve_hint = 0;
  for (const std::string& path : paths) {
    auto size = FileSizeBytes(path);
    if (size.ok()) reserve_hint += size.value() + 1;
  }
  std::string combined;
  bool first = true;
  for (const std::string& path : paths) {
    auto member = LoadMemberBytes(path, options);
    if (!member.ok()) return member.status();
    if (first) {
      // Adopt the first member's buffer wholesale instead of copying it.
      combined = std::move(member.value());
      if (combined.capacity() < reserve_hint) combined.reserve(reserve_hint);
      first = false;
    } else {
      combined += member.value();
    }
    // Newline-terminate each member so a truncated final line cannot merge
    // with the first line of the next rotation generation.
    if (!combined.empty() && combined.back() != '\n') combined += '\n';
  }
  return Dataset(std::move(combined));
}

// ------------------------------------------------------------- InputReader

Result<InputReader> InputReader::Open(const std::vector<std::string>& paths,
                                      const InputOptions& options) {
  InputReader reader;
  // Without positioned reads every input is served from OpenInputs' text.
  if (paths.size() == 1 && RandomAccessFile::kSupported) {
    auto file = RandomAccessFile::Open(paths[0]);
    if (!file.ok()) return file.status();
    // The head decides: gzip magic, or a CRLF the policy strips, means the
    // text has to be normalized in memory.
    std::string head(std::min(file.value().size(), kCrlfProbeBytes), '\0');
    DM_RETURN_IF_ERROR(file.value().ReadAt(0, head.data(), head.size()));
    const bool strip =
        options.crlf == CrlfPolicy::kStrip ||
        (options.crlf == CrlfPolicy::kAuto && DetectCrlf(head));
    if (!LooksGzip(head) && !strip) {
      reader.file_ = std::move(file.value());
      const size_t size = reader.file_.size();
      if (size > 0) {
        char last = '\n';
        DM_RETURN_IF_ERROR(reader.file_.ReadAt(size - 1, &last, 1));
        reader.appends_newline_ = last != '\n';
      }
      return reader;
    }
  }
  auto data = OpenInputs(paths, options);
  if (!data.ok()) return data.status();
  reader.owned_.emplace(std::move(data.value()));
  return reader;
}

size_t InputReader::size_bytes() const {
  return owned_.has_value() ? owned_->size_bytes()
                            : file_.size() + (appends_newline_ ? 1 : 0);
}

Status InputReader::ReadAt(size_t offset, char* dst, size_t n) const {
  // The appended final newline is the one logical byte past the file.
  const size_t in_file =
      offset < file_.size() ? std::min(n, file_.size() - offset) : 0;
  DM_RETURN_IF_ERROR(file_.ReadAt(offset, dst, in_file));
  if (in_file < n) dst[in_file] = '\n';
  return Status::Ok();
}

Result<size_t> InputReader::EndOfLineAt(size_t pos, std::string* buf) const {
  const size_t size = size_bytes();
  while (pos < size) {
    const size_t n = std::min(window_bytes_, size - pos);
    buf->resize(n);
    DM_RETURN_IF_ERROR(ReadAt(pos, buf->data(), n));
    const size_t nl = std::string_view(*buf).find('\n');
    if (nl != std::string_view::npos) return pos + nl + 1;
    pos += n;
  }
  return size;
}

Result<DatasetView> InputReader::ReadSample(
    const SamplerOptions& options, std::optional<Dataset>* copy) const {
  if (owned_.has_value()) return SampleView(*owned_, options);
  const size_t size = size_bytes();
  std::string scratch;
  Status failed;
  const std::vector<SampleRange> ranges =
      SampleRanges(size, options, [&](size_t pos) {
        if (!failed.ok()) return size;  // stops the range walk
        auto end = EndOfLineAt(pos, &scratch);
        if (!end.ok()) {
          failed = end.status();
          return size;
        }
        return end.value();
      });
  DM_RETURN_IF_ERROR(failed);
  const size_t cap = options.max_line_bytes;
  const auto keep = [&](size_t line_bytes) {
    return cap == 0 || line_bytes - 1 <= cap;
  };
  // Each range overruns its chunk by at most one line; a reserve past the
  // budget plus a window would only ever hold over-cap lines, which are
  // skipped.
  size_t range_bytes = 0;
  for (const SampleRange& r : ranges) range_bytes += r.end - r.begin;
  std::string text;
  text.reserve(std::min(range_bytes, options.max_sample_bytes + window_bytes_));
  for (const SampleRange& r : ranges) {
    size_t pos = r.begin;  // always a line begin
    while (pos < r.end) {
      // Read the block straight onto the end of the sample, then close up
      // the over-cap lines in it and cut the partial line it ends in.
      const size_t n = std::min(window_bytes_, r.end - pos);
      const size_t at = text.size();
      text.resize(at + n);
      DM_RETURN_IF_ERROR(ReadAt(pos, text.data() + at, n));
      size_t kept = at;
      size_t line = at;
      for (size_t nl; (nl = text.find('\n', line)) != std::string::npos;) {
        const size_t len = nl + 1 - line;
        if (keep(len)) {
          if (kept != line) {
            std::copy(text.begin() + line, text.begin() + nl + 1,
                      text.begin() + kept);
          }
          kept += len;
        }
        line = nl + 1;
      }
      pos += line - at;
      const bool partial = line < at + n;
      text.resize(kept);
      if (partial) {
        // The line at `pos` runs past this block: find its end first, and
        // read it only when it is within the cap.
        auto end = EndOfLineAt(pos, &scratch);
        if (!end.ok()) return end.status();
        const size_t len = end.value() - pos;
        if (keep(len)) {
          const size_t tail = text.size();
          text.resize(tail + len);
          DM_RETURN_IF_ERROR(ReadAt(pos, text.data() + tail, len));
        }
        pos = end.value();
      }
    }
  }
  copy->emplace(std::move(text));
  return DatasetView(**copy);
}

Result<ExtractionResult> InputReader::Scan(const Extractor& extractor,
                                           EventSink* sink) const {
  ExtractionResult counts;
  counts.total_chars = size_bytes();
  Extractor::ScanBuffers buffers;
  if (owned_.has_value()) {
    counts.total_lines = extractor.ExtractSegment(*owned_, /*final=*/true, 0,
                                                  sink, &counts, &buffers);
    return counts;
  }
  const size_t size = file_.size();
  std::string buf;  // the carried lines, then the window read after them
  size_t next = 0;  // file offset of the next read
  size_t line = 0;  // stream line number of buf's first line
  for (bool final = false; !final;) {
    const size_t carried = buf.size();
    const size_t n = std::min(window_bytes_, size - next);
    buf.resize(carried + n);
    DM_RETURN_IF_ERROR(file_.ReadAt(next, buf.data() + carried, n));
    next += n;
    final = next == size;
    size_t cut = buf.size();
    if (!final) {
      // The carry holds no unseen '\n', so only the new bytes are searched.
      const size_t nl = std::string_view(buf.data() + carried, n).rfind('\n');
      if (nl == std::string_view::npos) continue;  // a line past the window
      cut = carried + nl + 1;
    }
    std::string partial = buf.substr(cut);
    buf.resize(cut);
    // At the end, Dataset appends the final newline the file may lack.
    const Dataset segment(std::move(buf));
    const size_t undecided =
        extractor.ExtractSegment(segment, final, line, sink, &counts,
                                 &buffers);
    line += undecided;
    buf.assign(segment.text().substr(undecided < segment.line_count()
                                         ? segment.line_begin(undecided)
                                         : segment.size_bytes()));
    buf += partial;
  }
  counts.total_lines = line;
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
