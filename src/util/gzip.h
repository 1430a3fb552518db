#ifndef DATAMARAN_UTIL_GZIP_H_
#define DATAMARAN_UTIL_GZIP_H_

#include <cstddef>
#include <memory>
#include <string>
#include <string_view>

#include "util/status.h"

/// Streaming gzip/zlib decompression for the input layer. Real data lakes
/// are full of rotated-and-compressed logs (`app.log.2.gz`); the input
/// front-end (core/input.h) sniffs the magic bytes and inflates such files
/// through GzipInflater a window at a time, so every downstream stage sees
/// plain text and no gzip'd input is ever held whole. GunzipToString
/// drains the same inflater into one string, for callers that want the
/// whole text. Corrupt or truncated streams yield a descriptive error
/// Status — never a crash — which is what lets the crawler skip a bad file
/// and keep going. Built against zlib when available; without it, LooksGzip
/// still answers (so callers can produce a clear "not supported" error)
/// and inflating returns that error.

namespace datamaran {

/// True when this build can inflate gzip input (zlib was available).
bool GzipSupported();

/// True when `head` starts with the gzip magic bytes (0x1f 0x8b). Needs at
/// least 2 bytes; shorter input is never gzip.
bool LooksGzip(std::string_view head);

/// Inflates a gzip stream in pieces: the caller hands in compressed bytes
/// as it reads them and takes the output into a buffer of its own, so
/// memory is constant whatever the stream's size. Handles multi-member
/// files (rotated logs are often `cat`'d members) by continuing after each
/// member boundary while compressed bytes remain. Errors are descriptive
/// and non-fatal:
///  - corrupt bytes            -> IoError "gzip: corrupt stream (...)"
///  - stream cut mid-member    -> IoError "gzip: truncated stream ..."
///  - output exceeding the cap -> IoError "gzip: inflated size exceeds cap ..."
/// `max_output_bytes` bounds the total inflated size (decompression-bomb
/// guard); 0 means unlimited. After an error the inflater must not be
/// called again.
class GzipInflater {
 public:
  explicit GzipInflater(size_t max_output_bytes = 0);
  ~GzipInflater();

  GzipInflater(const GzipInflater&) = delete;
  GzipInflater& operator=(const GzipInflater&) = delete;

  /// Inflates compressed bytes from the front of `*input`, removing those
  /// it consumes, into [dst, dst + n); returns the bytes written.
  /// `input_ends` says `*input` holds the rest of the stream, so running
  /// out of it inside a member is a truncated stream. Fewer than n bytes
  /// come back only when the stream is finished() or `*input` is used up
  /// and more is needed.
  Result<size_t> Inflate(std::string_view* input, bool input_ends, char* dst,
                         size_t n);

  /// True once the last member has ended and no compressed bytes remain.
  bool finished() const { return finished_; }

 private:
  struct Stream;  ///< the zlib state
  std::unique_ptr<Stream> stream_;
  size_t max_output_bytes_;
  size_t total_out_ = 0;
  bool member_ended_ = false;
  bool finished_ = false;
};

/// Inflates a complete gzip stream into a string: GzipInflater over the
/// whole input, with its errors and cap.
Result<std::string> GunzipToString(std::string_view compressed,
                                   size_t max_output_bytes = 0);

/// Deflates `text` into a single gzip member (the exact inverse of one
/// GunzipToString member). Used by tests to synthesize compressed inputs
/// in-process; InvalidArgument when the build has no zlib.
Result<std::string> GzipCompress(std::string_view text);

}  // namespace datamaran

#endif  // DATAMARAN_UTIL_GZIP_H_
