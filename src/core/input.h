#ifndef DATAMARAN_CORE_INPUT_H_
#define DATAMARAN_CORE_INPUT_H_

#include <cstddef>
#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "core/dataset.h"
#include "extraction/extractor.h"
#include "util/file_io.h"
#include "util/sampler.h"
#include "util/status.h"

/// The resilient input front-end: everything between "a path (or several)
/// on disk" and "a well-formed Dataset the pipeline can trust".
///
/// Real data lakes are hostile. Files arrive gzip'd (`app.log.2.gz`),
/// rotated into numbered generations, CRLF-terminated, sprinkled with NUL
/// bytes and invalid UTF-8, truncated mid-write, or occasionally containing
/// a single multi-GB line. This layer contains those hazards before any
/// pipeline stage runs:
///
///  * Windowed reading: no input is ever held whole. InputReader reads
///    every input through fixed 256 KiB blocks — a plain file with pread,
///    the discovery sample from its sampled ranges and the extraction scan
///    one window-sized segment at a time — so memory is a constant
///    whatever the input's size or kind, and a file truncated under the
///    reader is an IoError.
///  * Compression: gzip members are sniffed by magic bytes and inflated
///    (multi-member, with a decompression-bomb cap) a window at a time by
///    util/gzip.h's GzipInflater as the reader passes over them.
///  * Rotation stitching: `app.log` + `app.log.1` + `app.log.2.gz` open as
///    ONE logical input in chronological order (highest rotation index
///    first — that is the oldest data), each member newline-terminated so
///    records never merge across a file boundary. The reader decodes the
///    members one after another, holding one descriptor per member.
///  * CRLF normalization: "\r\n" line endings are rewritten to "\n"
///    (policy-controlled; kAuto engages when a CRLF appears in the probe
///    window at the head of each member, decompressed), so templates and
///    goldens are identical whether a producer ran on Windows or not.
///  * Failure containment: every hazard — unreadable file, corrupt or
///    truncated gzip stream, decompression bomb — surfaces as a
///    descriptive error Status, never a crash. The CLI turns that into a
///    non-zero exit; the crawler records it in the manifest's errors
///    section and keeps crawling.
///
/// NUL bytes and invalid UTF-8 need no normalization: the dataset layer
/// indexes lines by '\n' alone and every matcher/tokenizer operates on raw
/// bytes (charset engines are NUL-member safe), so hostile bytes simply
/// flow through into extracted fields. Oversized-line containment lives
/// downstream (SamplerOptions/Extractor `max_line_bytes`), where a line
/// over the cap degrades to noise instead of being indexed or matched.

namespace datamaran {

/// What to do about "\r\n" line endings.
enum class CrlfPolicy {
  /// Probe the first kCrlfProbeBytes of each (decompressed) member; if a
  /// CRLF appears there, normalize that whole member. A member whose first
  /// CRLF hides beyond the probe window is treated as kKeep — the
  /// deterministic, documented trade for deciding from the head alone, so
  /// a multi-GB member is normalized as it streams past.
  kAuto,
  /// Never normalize; '\r' stays in the line bytes.
  kKeep,
  /// Always normalize every member.
  kStrip,
};

/// Bytes CrlfPolicy::kAuto inspects at the head of the input.
inline constexpr size_t kCrlfProbeBytes = 64 * 1024;

struct InputOptions {
  CrlfPolicy crlf = CrlfPolicy::kAuto;
  /// Decompression-bomb guard: inflating past this many bytes is an error.
  /// 0 = unlimited.
  size_t max_inflate_bytes = 4ull * 1024 * 1024 * 1024;
};

/// True when `head` contains a "\r\n" (the kAuto trigger).
bool DetectCrlf(std::string_view head);

/// Rewrites every "\r\n" to "\n" in place; lone '\r' bytes (not followed by
/// '\n') are data and are left alone. Returns the number of CRLFs stripped.
size_t StripCrlfInPlace(std::string* text);

/// Rotation identity of a path: `app.log.3.gz` -> base "app.log", index 3;
/// `app.log.1` -> base "app.log", index 1; `app.log` (the live file) ->
/// base "app.log", index -1. Only a short (1-3 digit) pure-numeric final
/// component counts as a rotation index — `data.2023` keeps its own name.
/// A trailing ".gz" is transparent to the identity.
struct RotationKey {
  std::string base;  ///< logical path, rotation suffix and .gz stripped
  int index = -1;    ///< rotation generation; -1 = the live (newest) file
};
RotationKey RotationKeyFor(std::string_view path);

/// Sorts `paths` into chronological read order: grouped by rotation base
/// (bases in lexicographic order), and within a base highest index first —
/// `app.log.2.gz`, `app.log.1`, `app.log` — because rotation renames
/// upward, making the highest generation the oldest data.
void SortByRotation(std::vector<std::string>* paths);

/// Expands a comma-separated `--inputs` spec into concrete paths: each
/// token is a literal path or a glob pattern (`logs/app.log*`). The result
/// is rotation-sorted (SortByRotation). A token that names no existing
/// file and matches nothing is a NotFound error — a silently-empty input
/// set hides typos.
Result<std::vector<std::string>> ExpandInputSpec(std::string_view spec);

/// Builds a Dataset from in-memory bytes, applying the gzip sniff and the
/// CRLF policy. The entry point the fuzz harness drives: any byte string
/// must produce either a Dataset or a clean error Status.
Result<Dataset> DatasetFromBytes(std::string bytes,
                                 const InputOptions& options);

/// Reads one file whole through the resilient front-end: gzip input
/// inflates and the CRLF policy applies. For callers that want the whole
/// text in memory; the tools read through InputReader.
Result<Dataset> OpenInput(const std::string& path,
                          const InputOptions& options);

/// Incremental line framer: the streaming (--follow) counterpart of the
/// batch front-end above. Bytes arrive in arbitrary chunks — split
/// mid-line, mid-UTF-8 sequence, or between the '\r' and '\n' of a CRLF
/// pair — and complete lines come out. Framing is a pure function of the
/// concatenated byte stream: the emitted line sequence is identical for
/// every chunk-delivery schedule, which is what the chunk-boundary
/// determinism gate in tests/stream_test.cc pins down.
///
/// CRLF policy matches the batch path exactly for every input: a "\r\n"
/// can only ever sit at a line boundary (the '\n' *is* the boundary), so
/// batch StripCrlfInPlace is equivalent to per-line strip-trailing-"\r",
/// and the kAuto probe ("a CRLF appears within the first kCrlfProbeBytes")
/// is equivalent to "a line terminated by CRLF completes with its '\n'
/// inside the probe window". Both are implemented in those per-line terms
/// here, so a finite corpus framed incrementally yields byte-identical
/// lines to OpenInput on the same bytes.
///
/// Oversized-line containment: with max_line_bytes set, a line whose
/// content grows past the cap stops accumulating — overflow bytes are
/// dropped until the terminator — and is delivered with oversized=true so
/// the caller can degrade it to noise without ever buffering an unbounded
/// carry. (Batch mode keeps the full line bytes and degrades it to noise
/// downstream; the truncation is the streaming-only trade for O(window)
/// memory on a hostile unterminated stream.)
class StreamFramer {
 public:
  /// `line` includes its trailing '\n' (the final unterminated carry is
  /// newline-terminated on Finish, mirroring Dataset's missing-final-
  /// newline append); the view is valid only during the callback.
  using LineFn = std::function<void(std::string_view line, bool oversized)>;

  explicit StreamFramer(CrlfPolicy crlf = CrlfPolicy::kAuto,
                        size_t max_line_bytes = 0);

  /// Feeds one chunk; emits every line it completes.
  void Feed(std::string_view bytes, const LineFn& on_line);

  /// End of stream: emits the non-empty partial-line carry as a final
  /// newline-terminated line. Feed must not be called afterwards.
  void Finish(const LineFn& on_line);

  uint64_t bytes_in() const { return bytes_in_; }
  uint64_t lines_out() const { return lines_out_; }
  uint64_t crlf_stripped() const { return crlf_stripped_; }
  uint64_t oversized_lines() const { return oversized_lines_; }
  size_t carry_bytes() const { return carry_.size(); }

 private:
  void EmitLine(std::string_view content_with_newline, bool carry_oversized,
                const LineFn& on_line);

  CrlfPolicy crlf_;
  size_t max_line_bytes_;
  std::string carry_;        ///< partial line awaiting its '\n'
  bool carry_oversized_ = false;
  std::string scratch_;      ///< CRLF-stripped emission buffer
  /// kAuto state: undecided until the probe window resolves it.
  bool crlf_decided_;
  bool crlf_strip_;
  uint64_t bytes_in_ = 0;
  uint64_t lines_out_ = 0;
  uint64_t crlf_stripped_ = 0;
  uint64_t oversized_lines_ = 0;
};

/// Non-blocking byte source for `--follow`: reads whatever `path` has
/// appended since the last call, detecting the two live-log hazards —
/// rotation (the name now points at a different inode: finish draining the
/// old file, then reopen at offset 0) and truncation (the file shrank
/// below our offset: a copytruncate-style rotation, reread from 0). The
/// caller owns the poll/sleep loop; Read never sleeps. Path "-" reads
/// stdin (no rotation or truncation there — EOF is final).
class FollowReader {
 public:
  explicit FollowReader(std::string path);
  ~FollowReader();

  FollowReader(const FollowReader&) = delete;
  FollowReader& operator=(const FollowReader&) = delete;

  struct ReadResult {
    size_t bytes = 0;      ///< appended to *out this call
    bool eof = false;      ///< no more data right now (poll again later)
    bool rotated = false;  ///< reopened a new inode at this path
    bool truncated = false;///< file shrank; restarted from offset 0
  };

  /// Appends at most `max_bytes` of new content to *out. `eof` means the
  /// source is drained *for now* — for a live file the caller sleeps and
  /// calls again; for stdin it is final. Errors (vanished file between
  /// polls is NOT an error — it reads as eof until the new file appears)
  /// are returned as a Status.
  Result<ReadResult> Read(std::string* out, size_t max_bytes);

  bool is_stdin() const { return stdin_; }
  const std::string& path() const { return path_; }

 private:
  Status Reopen();

  std::string path_;
  bool stdin_ = false;
  int fd_ = -1;
  uint64_t offset_ = 0;  ///< bytes consumed from the current fd
};

/// Opens several files as one logical dataset, stitched in the order given
/// (callers wanting chronological rotation order sort with SortByRotation
/// first — ExpandInputSpec already does). Every member is decompressed and
/// normalized like OpenInput and newline-terminated before concatenation.
/// A single path is OpenInput. The whole-buffer reference InputReader is
/// held to; the tools read through InputReader.
Result<Dataset> OpenInputs(const std::vector<std::string>& paths,
                           const InputOptions& options);

/// The one way both tools read their input (batch datamaran_cli and all
/// three datamaran_crawl phases): the text OpenInputs would build, served
/// through a window of kWindowBytes and never held whole, whatever the
/// input. Open opens every member, checks that it is a regular file and
/// keeps its descriptor for the reader's lifetime (so a stitch past the
/// descriptor limit fails Open); it reads only each member's head — the
/// gzip magic, and a single file's CRLF probe — and decodes nothing.
/// Each pass then decodes the members in order: a plain member is read
/// with pread, a gzip member is inflated by GzipInflater (with the
/// max_inflate_bytes cap), each member's CRLF policy is decided from its
/// own first kCrlfProbeBytes decoded bytes — a '\r' at a block end waits
/// for the next block — and a member that lacks a final '\n' gets one.
/// Every byte and count the reader yields, and every error, equals what
/// the same call would yield on OpenInputs' Dataset. A member that
/// shrinks after Open fails the next read with an IoError naming it and
/// both sizes, and a missing member, or one that is not a regular file (a
/// FIFO, a pipe, a device, a directory), fails Open with an IoError naming
/// it (util/file_io.h RandomAccessFile).
/// A single plain file with nothing to strip (no gzip magic, and no CRLF
/// the policy strips, both decided from its head at Open) is its own text,
/// so its size is known at Open and its sample is read with positioned
/// reads; any other input is a stream, read front to back. On a platform
/// without positioned reads every input is OpenInputs' owned text.
class InputReader {
 public:
  /// Bytes one read fetches. A constant: it bounds the reader's memory,
  /// and output does not depend on it.
  static constexpr size_t kWindowBytes = 256 * 1024;

  static Result<InputReader> Open(const std::vector<std::string>& paths,
                                  const InputOptions& options);

  /// Bytes of the logical text (OpenInputs' Dataset::size_bytes()): known
  /// at Open for a single plain file or owned text, and for a stream once
  /// a pass has reached its end; nullopt before.
  std::optional<size_t> size_bytes() const { return size_; }

  /// True when the input is read through the window; false only where
  /// positioned reads are missing and the input is owned text.
  bool windowed() const { return !owned_.has_value(); }

  /// The discovery sample: the lines SampleView would pick from
  /// OpenInputs' Dataset, as a view valid while this reader and `*copy`
  /// live. Owned text is sampled in place (SampleView, `*copy` untouched).
  /// Otherwise the sampled lines are read into `*copy`, one owned Dataset,
  /// and the view is its identity view; an over-cap line is dropped without
  /// being buffered whole. A single plain file is read only in the
  /// SampleRanges and the line ends they search for. A stream takes one
  /// forward pass, holding at most the sample budget plus a window, which
  /// is the whole sample when the text ends inside the budget; otherwise
  /// that pass only learns the size, and a second forward pass collects
  /// the SampleRanges (their line-end queries only move forward). Once
  /// the size is known, only the second pass runs. Templates and scores
  /// are the same either way (the copy concatenates the chunks as
  /// DatasetView::ResolveSpan assembles a window across a gap). The text
  /// is reserved once: a single plain file reserves its ranges' total, a
  /// stream the budget plus a line-end probe per chunk, at most the
  /// default budget's.
  Result<DatasetView> ReadSample(const SamplerOptions& options,
                                 std::optional<Dataset>* copy);

  /// Scans the input once with `extractor` into `sink` (which may be
  /// null), one segment at a time through Extractor::ExtractSegment:
  /// records arrive with stream line numbers and noise through
  /// EventSink::OnNoiseText. Returns the counts ExtractEvents would return
  /// over OpenInputs' Dataset (total_chars is the logical size). A segment
  /// is the lines undecided so far plus the complete lines of the next
  /// window; the reader holds one segment and the partial line after it,
  /// and a line longer than the window grows the segment until its '\n'
  /// arrives. The scan allocates its buffers once, not per segment: one
  /// text buffer (two windows, or the whole text if smaller, when the size
  /// is known) moves into the segment's Dataset and back out, the
  /// undecided lines move to its front, and the line index and the
  /// extractor's wave buffers are kept from one segment to the next.
  Result<ExtractionResult> Scan(const Extractor& extractor, EventSink* sink);

  /// Reads `bytes` per window instead of kWindowBytes (tests only; output
  /// is the same at every window size).
  void set_window_bytes(size_t bytes) { window_bytes_ = bytes; }

 private:
  class Pass;

  /// One input file, open for the reader's lifetime.
  struct Member {
    RandomAccessFile file;
    bool gzip = false;
  };

  /// Bytes [offset, offset + n) of a single plain file's logical text.
  Status ReadAt(size_t offset, char* dst, size_t n) const;

  /// One past the '\n' ending the line that holds byte `pos` of a single
  /// plain file's logical text; `*buf` is scratch for the blocks it reads,
  /// kLineEndProbeBytes at a time (capped at the window): a line end is
  /// usually a few bytes away, so reading a whole window would be waste.
  Result<size_t> EndOfLineAt(size_t pos, std::string* buf) const;
  static constexpr size_t kLineEndProbeBytes = 4096;

  std::vector<Member> members_;
  bool positioned_ = false;  ///< a single plain file with nothing to strip
  bool appends_newline_ = false;  ///< ... and no final '\n'
  std::optional<size_t> size_;
  InputOptions options_;
  std::optional<Dataset> owned_;
  size_t window_bytes_ = kWindowBytes;
};

}  // namespace datamaran

#endif  // DATAMARAN_CORE_INPUT_H_
