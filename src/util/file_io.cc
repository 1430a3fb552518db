#include "util/file_io.h"

#include <cerrno>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <system_error>
#include <utility>

#if defined(__unix__) || defined(__APPLE__)
#define DM_HAVE_MMAP 1
#define DM_HAVE_FLOCK 1
#include <fcntl.h>
#include <sys/file.h>
#include <sys/mman.h>
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

MappedRegion::~MappedRegion() {
#if DM_HAVE_MMAP
  if (mapped_ && addr_ != nullptr) {
    ::munmap(addr_, size_);
  }
#endif
}

MappedRegion::MappedRegion(MappedRegion&& other) noexcept {
  *this = std::move(other);
}

MappedRegion& MappedRegion::operator=(MappedRegion&& other) noexcept {
  if (this == &other) return *this;
#if DM_HAVE_MMAP
  if (mapped_ && addr_ != nullptr) {
    ::munmap(addr_, size_);
  }
#endif
  addr_ = other.addr_;
  size_ = other.size_;
  mapped_ = other.mapped_;
  owned_ = std::move(other.owned_);
  other.addr_ = nullptr;
  other.size_ = 0;
  other.mapped_ = false;
  other.owned_.clear();
  return *this;
}

MappedRegion MappedRegion::FromOwned(std::string text) {
  MappedRegion region;
  region.owned_ = std::move(text);
  return region;
}

std::string MappedRegion::ReleaseOwned() {
  std::string out = std::move(owned_);
  owned_.clear();
  return out;
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

void MappedRegion::Release(size_t begin, size_t end) const {
#if DM_HAVE_MMAP && defined(MADV_DONTNEED)
  if (!mapped_ || addr_ == nullptr || begin >= size_) return;
  static const size_t page = static_cast<size_t>(::sysconf(_SC_PAGESIZE));
  if (page == 0) return;
  // Whole pages only: round the start up and the end down, except that an
  // end at or past the size takes the last, partial page too (the mapping
  // covers it whole and nothing else lives there).
  begin = (begin + page - 1) / page * page;
  end = end >= size_ ? (size_ + page - 1) / page * page : end / page * page;
  if (begin >= end) return;
  // Best effort: a failing madvise only leaves the pages resident.
  (void)::madvise(static_cast<char*>(addr_) + begin, end - begin,
                  MADV_DONTNEED);
#else
  (void)begin;
  (void)end;
#endif
}

void MappedRegion::Advise(AccessHint hint) const {
#if DM_HAVE_MMAP && defined(MADV_NORMAL)
  if (!mapped_ || addr_ == nullptr || size_ == 0) return;
  int advice = MADV_NORMAL;
  switch (hint) {
    case AccessHint::kNormal:
      advice = MADV_NORMAL;
      break;
    case AccessHint::kSequential:
      advice = MADV_SEQUENTIAL;
      break;
    case AccessHint::kRandom:
      advice = MADV_RANDOM;
      break;
  }
  // Best effort: a failing madvise changes nothing but prefetch behavior.
  (void)::madvise(addr_, size_, advice);
#else
  (void)hint;
#endif
}

Result<MappedRegion> MmapFile(const std::string& path) {
#if DM_HAVE_MMAP
  int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) {
    return Status::IoError("cannot open for read: " + path);
  }
  struct stat st;
  if (::fstat(fd, &st) != 0) {
    ::close(fd);
    return Status::IoError("cannot stat: " + path);
  }
  const size_t size = static_cast<size_t>(st.st_size);
  if (size == 0) {
    ::close(fd);
    return MappedRegion::FromOwned(std::string());
  }
  void* addr = ::mmap(nullptr, size, PROT_READ, MAP_PRIVATE, fd, 0);
  ::close(fd);
  if (addr == MAP_FAILED) {
    // Graceful fallback: serve the bytes from an owned copy instead.
    auto text = ReadFileToString(path);
    if (!text.ok()) return text.status();
    return MappedRegion::FromOwned(std::move(text.value()));
  }
  MappedRegion region;
  region.addr_ = addr;
  region.size_ = size;
  region.mapped_ = true;
  return region;
#else
  auto text = ReadFileToString(path);
  if (!text.ok()) return text.status();
  return MappedRegion::FromOwned(std::move(text.value()));
#endif
}

}  // namespace datamaran
