#include "util/file_io.h"

#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <system_error>
#include <utility>

#if defined(__unix__) || defined(__APPLE__)
#define DM_HAVE_PREAD 1
#define DM_HAVE_FLOCK 1
#include <fcntl.h>
#include <sys/file.h>
#include <sys/stat.h>
#include <unistd.h>
#endif

namespace datamaran {

Result<std::string> ReadFileToString(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) {
    return Status::IoError("cannot open for read: " + path);
  }
  std::fseek(f, 0, SEEK_END);
  long size = std::ftell(f);
  if (size < 0) {
    std::fclose(f);
    return Status::IoError("cannot stat: " + path);
  }
  std::fseek(f, 0, SEEK_SET);
  std::string out;
  out.resize(static_cast<size_t>(size));
  size_t got = size > 0 ? std::fread(out.data(), 1, out.size(), f) : 0;
  std::fclose(f);
  if (got != out.size()) {
    return Status::IoError("short read: " + path);
  }
  return out;
}

Status WriteStringToFile(const std::string& path, std::string_view contents) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) {
    return Status::IoError("cannot open for write: " + path);
  }
  size_t put = contents.empty()
                   ? 0
                   : std::fwrite(contents.data(), 1, contents.size(), f);
  int rc = std::fclose(f);
  if (put != contents.size() || rc != 0) {
    return Status::IoError("short write: " + path);
  }
  return Status::Ok();
}

Status WriteFileAtomic(const std::string& path, std::string_view contents) {
#if defined(__unix__) || defined(__APPLE__)
  const std::string tmp = path + "." + std::to_string(::getpid()) + ".tmp";
#else
  const std::string tmp = path + ".tmp";
#endif
  std::FILE* f = std::fopen(tmp.c_str(), "wb");
  if (f == nullptr) {
    return Status::IoError("cannot open for write: " + tmp);
  }
  const size_t put = contents.empty()
                         ? 0
                         : std::fwrite(contents.data(), 1, contents.size(), f);
  bool flushed = std::fflush(f) == 0;
#if defined(__unix__) || defined(__APPLE__)
  // Durability before visibility: the rename must not land before the data.
  if (flushed) flushed = ::fsync(::fileno(f)) == 0;
#endif
  const int rc = std::fclose(f);
  if (put != contents.size() || !flushed || rc != 0) {
    std::remove(tmp.c_str());
    return Status::IoError("short write: " + tmp);
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    return Status::IoError("rename failed: " + tmp + " -> " + path);
  }
  return Status::Ok();
}

FileLock::~FileLock() { Release(); }

FileLock::FileLock(FileLock&& other) noexcept {
  fd_ = other.fd_;
  sidecar_ = std::move(other.sidecar_);
  other.fd_ = -1;
  other.sidecar_.clear();
}

FileLock& FileLock::operator=(FileLock&& other) noexcept {
  if (this == &other) return *this;
  Release();
  fd_ = other.fd_;
  sidecar_ = std::move(other.sidecar_);
  other.fd_ = -1;
  other.sidecar_.clear();
  return *this;
}

void FileLock::UnlinkSidecar() {
#if DM_HAVE_FLOCK
  // Only while held: unlinking an inode someone else holds the lock on
  // would be their call to make, not ours.
  if (fd_ >= 0 && !sidecar_.empty()) {
    (void)::unlink(sidecar_.c_str());
  }
#endif
}

void FileLock::Release() {
#if DM_HAVE_FLOCK
  if (fd_ >= 0) {
    // Close drops the flock; an explicit LOCK_UN first keeps the release
    // ordered before any later reopen of the same sidecar in this process.
    (void)::flock(fd_, LOCK_UN);
    ::close(fd_);
  }
#endif
  fd_ = -1;
  sidecar_.clear();
}

Result<FileLock> FileLock::Acquire(const std::string& path) {
  FileLock lock;
#if DM_HAVE_FLOCK
  const std::string sidecar = path + ".lock";
  for (;;) {
    int fd = ::open(sidecar.c_str(), O_RDWR | O_CREAT | O_CLOEXEC, 0666);
    if (fd < 0) {
      return Status::IoError("cannot open lock file: " + sidecar);
    }
    int rc;
    do {
      rc = ::flock(fd, LOCK_EX);
    } while (rc != 0 && errno == EINTR);
    if (rc != 0) {
      ::close(fd);
      return Status::IoError("flock failed: " + sidecar);
    }
    // A previous holder may have unlinked the sidecar (UnlinkSidecar)
    // between our open and our flock, leaving us exclusive on an orphaned
    // inode while a fresh acquirer locks a recreated one. Re-check that
    // the name still resolves to the inode we locked; if not, drop it and
    // race again on the live sidecar. Our held fd pins the old inode, so
    // its identity cannot be recycled under the comparison.
    struct stat by_path;
    struct stat by_fd;
    if (::stat(sidecar.c_str(), &by_path) != 0 ||
        ::fstat(fd, &by_fd) != 0 ||
        by_path.st_ino != by_fd.st_ino || by_path.st_dev != by_fd.st_dev) {
      (void)::flock(fd, LOCK_UN);
      ::close(fd);
      continue;
    }
    lock.fd_ = fd;
    lock.sidecar_ = sidecar;
    break;
  }
#else
  (void)path;
#endif
  return lock;
}

Status MakeDirs(const std::string& path) {
  std::error_code ec;
  std::filesystem::create_directories(path, ec);
  if (ec) return Status::IoError("mkdir failed: " + path + ": " + ec.message());
  return Status::Ok();
}

RandomAccessFile::~RandomAccessFile() {
#if DM_HAVE_PREAD
  if (fd_ >= 0) ::close(fd_);
#endif
}

RandomAccessFile::RandomAccessFile(RandomAccessFile&& other) noexcept {
  *this = std::move(other);
}

RandomAccessFile& RandomAccessFile::operator=(
    RandomAccessFile&& other) noexcept {
  if (this == &other) return *this;
#if DM_HAVE_PREAD
  if (fd_ >= 0) ::close(fd_);
#endif
  fd_ = other.fd_;
  size_ = other.size_;
  path_ = std::move(other.path_);
  other.fd_ = -1;
  other.size_ = 0;
  return *this;
}

Result<RandomAccessFile> RandomAccessFile::Open(const std::string& path) {
#if DM_HAVE_PREAD
  RandomAccessFile file;
  file.path_ = path;
  // O_NONBLOCK so that opening a FIFO returns at once instead of waiting
  // for a writer; regular-file reads ignore it.
  file.fd_ = ::open(path.c_str(), O_RDONLY | O_NONBLOCK | O_CLOEXEC);
  if (file.fd_ < 0) {
    return Status::IoError("cannot open for read: " + path + ": " +
                           std::strerror(errno));
  }
  struct stat st;
  if (::fstat(file.fd_, &st) != 0) return Status::IoError("cannot stat: " + path);
  if (!S_ISREG(st.st_mode)) {
    return Status::IoError("not a regular file: " + path);
  }
  file.size_ = static_cast<size_t>(st.st_size);
  return file;
#else
  return Status::Internal("positioned reads need a POSIX platform: " + path);
#endif
}

Status RandomAccessFile::ReadAt(size_t offset, char* dst, size_t n) const {
#if DM_HAVE_PREAD
  size_t got = 0;
  while (got < n) {
    const ssize_t r = ::pread(fd_, dst + got, n - got,
                              static_cast<off_t>(offset + got));
    if (r < 0 && errno == EINTR) continue;
    if (r < 0) {
      return Status::IoError("read failed: " + path_ + ": " +
                             std::strerror(errno));
    }
    if (r == 0) {
      struct stat st;
      const long long now =
          ::fstat(fd_, &st) == 0 ? static_cast<long long>(st.st_size) : -1;
      return Status::IoError(
          "short read: " + path_ + " is " + std::to_string(now) +
          " bytes, was " + std::to_string(size_) + " at open");
    }
    got += static_cast<size_t>(r);
  }
  return Status::Ok();
#else
  (void)offset;
  (void)dst;
  (void)n;
  return Status::Internal("positioned reads need a POSIX platform: " + path_);
#endif
}

Result<size_t> FileSizeBytes(const std::string& path) {
  std::error_code ec;
  const auto size = std::filesystem::file_size(path, ec);
  if (ec) return Status::IoError("cannot stat: " + path + ": " + ec.message());
  return static_cast<size_t>(size);
}

Result<int64_t> FileMtimeNs(const std::string& path) {
  std::error_code ec;
  const auto t = std::filesystem::last_write_time(path, ec);
  if (ec) return Status::IoError("cannot stat: " + path + ": " + ec.message());
  return static_cast<int64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          t.time_since_epoch())
          .count());
}

}  // namespace datamaran
