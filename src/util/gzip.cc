#include "util/gzip.h"

#include <algorithm>

#include "util/strings.h"

#if defined(DM_HAVE_ZLIB)
#include <zlib.h>
#endif

namespace datamaran {

bool GzipSupported() {
#if defined(DM_HAVE_ZLIB)
  return true;
#else
  return false;
#endif
}

bool LooksGzip(std::string_view head) {
  return head.size() >= 2 && static_cast<unsigned char>(head[0]) == 0x1f &&
         static_cast<unsigned char>(head[1]) == 0x8b;
}

#if defined(DM_HAVE_ZLIB)

Result<std::string> GunzipToString(std::string_view compressed,
                                   size_t max_output_bytes) {
  z_stream strm{};
  // windowBits 15+32: auto-detect gzip or zlib wrapping.
  if (inflateInit2(&strm, 15 + 32) != Z_OK) {
    return Status::Internal("zlib: inflateInit failed");
  }
  std::string out;
  // Chunked output keeps the working set bounded even though the result is
  // one owned string; the compressed input is consumed as-is.
  char buf[256 * 1024];
  strm.next_in =
      reinterpret_cast<Bytef*>(const_cast<char*>(compressed.data()));
  strm.avail_in = static_cast<uInt>(compressed.size());
  // Very large compressed inputs exceed uInt; feed them in slices.
  size_t fed = static_cast<size_t>(strm.avail_in);
  int rc = Z_OK;
  for (;;) {
    strm.next_out = reinterpret_cast<Bytef*>(buf);
    strm.avail_out = sizeof(buf);
    rc = inflate(&strm, Z_NO_FLUSH);
    const size_t produced = sizeof(buf) - strm.avail_out;
    if (produced > 0) {
      if (max_output_bytes != 0 && out.size() + produced > max_output_bytes) {
        inflateEnd(&strm);
        return Status::IoError(
            StrFormat("gzip: inflated size exceeds cap of %zu bytes "
                      "(decompression-bomb guard; raise --max-inflate-bytes "
                      "to override)",
                      max_output_bytes));
      }
      out.append(buf, produced);
    }
    if (rc == Z_STREAM_END) {
      // End of one gzip member. Rotated logs are often concatenated
      // members; keep inflating while compressed bytes remain.
      const size_t remaining =
          compressed.size() - fed + static_cast<size_t>(strm.avail_in);
      if (remaining == 0) break;
      if (inflateReset2(&strm, 15 + 32) != Z_OK) {
        inflateEnd(&strm);
        return Status::Internal("zlib: inflateReset failed");
      }
      strm.next_in = reinterpret_cast<Bytef*>(
          const_cast<char*>(compressed.data() + (compressed.size() -
                                                 remaining)));
      strm.avail_in = static_cast<uInt>(remaining);
      fed = compressed.size();
      continue;
    }
    if (rc == Z_OK || rc == Z_BUF_ERROR) {
      if (strm.avail_in == 0) {
        if (fed < compressed.size()) {
          const size_t slice =
              std::min<size_t>(compressed.size() - fed, 1u << 30);
          strm.next_in = reinterpret_cast<Bytef*>(
              const_cast<char*>(compressed.data() + fed));
          strm.avail_in = static_cast<uInt>(slice);
          fed += slice;
          continue;
        }
        // All input consumed without reaching Z_STREAM_END: the file was
        // cut mid-member (a crashed writer or partial copy).
        inflateEnd(&strm);
        return Status::IoError("gzip: truncated stream (input ended before "
                               "the end of a compressed member)");
      }
      continue;  // output buffer was full; drain more
    }
    inflateEnd(&strm);
    return Status::IoError(StrFormat(
        "gzip: corrupt stream (%s)",
        strm.msg != nullptr ? strm.msg : "inflate error"));
  }
  inflateEnd(&strm);
  return out;
}

Result<std::string> GzipCompress(std::string_view text) {
  z_stream strm{};
  // windowBits 15+16: emit the gzip container (not raw zlib).
  if (deflateInit2(&strm, Z_DEFAULT_COMPRESSION, Z_DEFLATED, 15 + 16, 8,
                   Z_DEFAULT_STRATEGY) != Z_OK) {
    return Status::Internal("zlib: deflateInit failed");
  }
  std::string out;
  char buf[64 * 1024];
  size_t fed = 0;
  int rc = Z_OK;
  do {
    if (strm.avail_in == 0 && fed < text.size()) {
      const size_t slice = std::min<size_t>(text.size() - fed, 1u << 30);
      strm.next_in =
          reinterpret_cast<Bytef*>(const_cast<char*>(text.data() + fed));
      strm.avail_in = static_cast<uInt>(slice);
      fed += slice;
    }
    strm.next_out = reinterpret_cast<Bytef*>(buf);
    strm.avail_out = sizeof(buf);
    const int flush = fed == text.size() ? Z_FINISH : Z_NO_FLUSH;
    rc = deflate(&strm, flush);
    if (rc == Z_STREAM_ERROR) {
      deflateEnd(&strm);
      return Status::Internal("zlib: deflate failed");
    }
    out.append(buf, sizeof(buf) - strm.avail_out);
  } while (rc != Z_STREAM_END);
  deflateEnd(&strm);
  return out;
}

#else  // !DM_HAVE_ZLIB

Result<std::string> GunzipToString(std::string_view /*compressed*/,
                                   size_t /*max_output_bytes*/) {
  return Status::InvalidArgument(
      "gzip input is not supported: datamaran was built without zlib");
}

Result<std::string> GzipCompress(std::string_view /*text*/) {
  return Status::InvalidArgument(
      "gzip output is not supported: datamaran was built without zlib");
}

#endif

}  // namespace datamaran
