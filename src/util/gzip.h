#ifndef DATAMARAN_UTIL_GZIP_H_
#define DATAMARAN_UTIL_GZIP_H_

#include <cstddef>
#include <string>
#include <string_view>

#include "util/status.h"

/// Streaming gzip/zlib decompression for the input layer. Real data lakes
/// are full of rotated-and-compressed logs (`app.log.2.gz`); the input
/// front-end (core/input.h) sniffs the magic bytes and inflates such files
/// into an owned Dataset, so every downstream stage sees plain
/// text. Corrupt or truncated streams yield a descriptive error Status —
/// never a crash — which is what lets the crawler skip a bad file and keep
/// going. Built against zlib when available; without it, LooksGzip still
/// answers (so callers can produce a clear "not supported" error) and
/// GunzipToString returns that error.

namespace datamaran {

/// True when this build can inflate gzip input (zlib was available).
bool GzipSupported();

/// True when `head` starts with the gzip magic bytes (0x1f 0x8b). Needs at
/// least 2 bytes; shorter input is never gzip.
bool LooksGzip(std::string_view head);

/// Inflates a complete gzip stream into a string. Handles multi-member
/// files (rotated logs are often `cat`'d members) by continuing after each
/// member boundary. Errors are descriptive and non-fatal:
///  - corrupt bytes            -> IoError "corrupt gzip stream ..."
///  - stream cut mid-member    -> IoError "truncated gzip stream ..."
///  - output exceeding the cap -> IoError "inflated size exceeds cap ..."
/// `max_output_bytes` bounds the inflated size (decompression-bomb guard);
/// 0 means unlimited.
Result<std::string> GunzipToString(std::string_view compressed,
                                   size_t max_output_bytes = 0);

/// Deflates `text` into a single gzip member (the exact inverse of one
/// GunzipToString member). Used by tests to synthesize compressed inputs
/// in-process; InvalidArgument when the build has no zlib.
Result<std::string> GzipCompress(std::string_view text);

}  // namespace datamaran

#endif  // DATAMARAN_UTIL_GZIP_H_
