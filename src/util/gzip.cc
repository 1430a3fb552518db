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

struct GzipInflater::Stream {
  z_stream z{};
  bool initialized = false;

  ~Stream() {
    if (initialized) inflateEnd(&z);
  }
};

GzipInflater::GzipInflater(size_t max_output_bytes)
    : stream_(std::make_unique<Stream>()),
      max_output_bytes_(max_output_bytes) {}

Result<size_t> GzipInflater::Inflate(std::string_view* input, bool input_ends,
                                     char* dst, size_t n) {
  z_stream& strm = stream_->z;
  if (!stream_->initialized) {
    // windowBits 15+32: auto-detect gzip or zlib wrapping.
    if (inflateInit2(&strm, 15 + 32) != Z_OK) {
      return Status::Internal("zlib: inflateInit failed");
    }
    stream_->initialized = true;
  }
  size_t written = 0;
  while (written < n && !finished_) {
    if (member_ended_) {
      // End of one gzip member. Rotated logs are often concatenated
      // members; keep inflating while compressed bytes remain.
      if (input->empty()) {
        finished_ = input_ends;
        break;
      }
      if (inflateReset2(&strm, 15 + 32) != Z_OK) {
        return Status::Internal("zlib: inflateReset failed");
      }
      member_ended_ = false;
    }
    // Very large buffers exceed uInt; zlib takes them in slices.
    const size_t in_slice = std::min<size_t>(input->size(), 1u << 30);
    const size_t out_slice = std::min<size_t>(n - written, 1u << 30);
    strm.next_in = reinterpret_cast<Bytef*>(const_cast<char*>(input->data()));
    strm.avail_in = static_cast<uInt>(in_slice);
    strm.next_out = reinterpret_cast<Bytef*>(dst + written);
    strm.avail_out = static_cast<uInt>(out_slice);
    const int rc = inflate(&strm, Z_NO_FLUSH);
    input->remove_prefix(in_slice - strm.avail_in);
    const size_t produced = out_slice - strm.avail_out;
    if (max_output_bytes_ != 0 &&
        total_out_ + produced > max_output_bytes_) {
      return Status::IoError(
          StrFormat("gzip: inflated size exceeds cap of %zu bytes "
                    "(decompression-bomb guard; raise --max-inflate-bytes "
                    "to override)",
                    max_output_bytes_));
    }
    total_out_ += produced;
    written += produced;
    if (rc == Z_STREAM_END) {
      member_ended_ = true;
      continue;
    }
    if (rc != Z_OK && rc != Z_BUF_ERROR) {
      return Status::IoError(StrFormat(
          "gzip: corrupt stream (%s)",
          strm.msg != nullptr ? strm.msg : "inflate error"));
    }
    if (strm.avail_out > 0 && input->empty()) {
      // zlib stopped for want of input. At the end of the stream that is
      // a file cut mid-member (a crashed writer or partial copy).
      if (input_ends) {
        return Status::IoError("gzip: truncated stream (input ended before "
                               "the end of a compressed member)");
      }
      break;
    }
  }
  return written;
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

struct GzipInflater::Stream {};

GzipInflater::GzipInflater(size_t max_output_bytes)
    : max_output_bytes_(max_output_bytes) {}

Result<size_t> GzipInflater::Inflate(std::string_view* /*input*/,
                                     bool /*input_ends*/, char* /*dst*/,
                                     size_t /*n*/) {
  return Status::InvalidArgument(
      "gzip input is not supported: datamaran was built without zlib");
}

Result<std::string> GzipCompress(std::string_view /*text*/) {
  return Status::InvalidArgument(
      "gzip output is not supported: datamaran was built without zlib");
}

#endif

GzipInflater::~GzipInflater() = default;

Result<std::string> GunzipToString(std::string_view compressed,
                                   size_t max_output_bytes) {
  GzipInflater inflater(max_output_bytes);
  std::string out;
  // Inflate in 256 KiB steps straight onto the end of the result.
  constexpr size_t kStep = 256 * 1024;
  while (!inflater.finished()) {
    const size_t at = out.size();
    out.resize(at + kStep);
    auto n = inflater.Inflate(&compressed, /*input_ends=*/true,
                              out.data() + at, kStep);
    if (!n.ok()) return n.status();
    out.resize(at + n.value());
  }
  return out;
}

}  // namespace datamaran
