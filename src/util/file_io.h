#ifndef DATAMARAN_UTIL_FILE_IO_H_
#define DATAMARAN_UTIL_FILE_IO_H_

#include <cstddef>
#include <string>
#include <string_view>

#include "util/status.h"

/// File access helpers: whole-file reads and writes for small artifacts
/// (catalogs, summaries, manifests), atomic replacement, advisory locks,
/// and RandomAccessFile — positioned reads of fixed-size blocks, which is
/// how the input front-end (core/input.h InputReader) reads a log file of
/// any size through a window of constant size.

namespace datamaran {

/// Reads the entire file at `path` into a string.
Result<std::string> ReadFileToString(const std::string& path);

/// Writes `contents` to `path`, replacing any existing file.
Status WriteStringToFile(const std::string& path, std::string_view contents);

/// Writes `contents` to `path` atomically: the bytes go to a temporary
/// sibling (`path` + ".<pid>.tmp") which is renamed over `path` only after
/// a complete, flushed write. A reader — or a crash/kill at any instant —
/// therefore sees either the old file or the complete new one, never a
/// truncated hybrid. The tmp name is per-process, so concurrent writers
/// cannot truncate each other's in-flight bytes (last rename wins). This
/// is the writer for artifacts later runs parse (template catalogs,
/// summaries, manifests).
Status WriteFileAtomic(const std::string& path, std::string_view contents);

/// Advisory whole-file lock (RAII). Acquire() blocks until the lock for
/// `path` is held, taking `flock(LOCK_EX)` on a sidecar `path` + ".lock"
/// file — a sidecar rather than the target itself because atomic writers
/// replace the target inode on rename, which would silently orphan a lock
/// taken on the old inode. The lock is advisory: it serializes cooperating
/// Datamaran processes (catalog read-merge-write cycles) and is released
/// on destruction or process death. On platforms without flock, Acquire
/// succeeds and the lock is a no-op (single-writer behavior unchanged).
///
/// Sidecar lifetime: a holder that finishes its critical section may call
/// UnlinkSidecar() (still holding the lock) so output directories are not
/// littered with stray `.lock` files. Acquire is race-safe against that
/// unlink: after the flock lands it re-stats the sidecar path, and when
/// the name is gone or points at a different inode — a previous holder
/// unlinked it between our open and our flock — it drops the orphaned
/// inode and retries, so two late acquirers can never both "hold" locks
/// on distinct unlinked inodes.
class FileLock {
 public:
  FileLock() = default;
  ~FileLock();

  FileLock(const FileLock&) = delete;
  FileLock& operator=(const FileLock&) = delete;
  FileLock(FileLock&& other) noexcept;
  FileLock& operator=(FileLock&& other) noexcept;

  /// Blocks until the advisory lock guarding `path` is held.
  static Result<FileLock> Acquire(const std::string& path);

  /// True when this object holds a live lock (always false on platforms
  /// without flock, where locking degrades to a no-op).
  bool held() const { return fd_ >= 0; }

  /// Best-effort removal of the sidecar file, for a holder done with its
  /// critical section. Must be called while the lock is held (no-op
  /// otherwise): waiters blocked in flock on this inode keep their fd and
  /// still serialize against each other, and fresh acquirers re-create
  /// the sidecar. Never fails the caller — littering is cosmetic.
  void UnlinkSidecar();

  /// Releases the lock early (idempotent; the destructor also releases).
  void Release();

 private:
  int fd_ = -1;
  std::string sidecar_;  ///< path of the lock file (empty when not held)
};

/// Creates directory `path` (and parents) if it does not exist.
Status MakeDirs(const std::string& path);

/// A regular file opened read-only for positioned reads (pread). The size
/// is taken once, at Open; a read that comes back short of it — the file
/// was truncated after opening, as a copytruncate rotation does — is an
/// IoError naming the path, the size at open and the size now, never a
/// crash or a silently shorter input. Anything but a regular file (a FIFO,
/// a pipe such as `<(cmd)` or a piped /dev/stdin, a device, a directory)
/// has no size to take and is an IoError at Open. Move-only; closes on
/// destruction.
class RandomAccessFile {
 public:
  /// False on platforms without pread, where Open always fails; callers
  /// then read whole files instead.
#if defined(__unix__) || defined(__APPLE__)
  static constexpr bool kSupported = true;
#else
  static constexpr bool kSupported = false;
#endif

  RandomAccessFile() = default;
  ~RandomAccessFile();

  RandomAccessFile(const RandomAccessFile&) = delete;
  RandomAccessFile& operator=(const RandomAccessFile&) = delete;
  RandomAccessFile(RandomAccessFile&& other) noexcept;
  RandomAccessFile& operator=(RandomAccessFile&& other) noexcept;

  static Result<RandomAccessFile> Open(const std::string& path);

  const std::string& path() const { return path_; }
  /// Size in bytes at Open.
  size_t size() const { return size_; }

  /// Reads bytes [offset, offset + n) into `dst`; the range must lie
  /// within size(). Anything less than n bytes is an IoError.
  Status ReadAt(size_t offset, char* dst, size_t n) const;

 private:
  int fd_ = -1;
  size_t size_ = 0;
  std::string path_;
};

/// Size of the file at `path` in bytes, without opening it.
Result<size_t> FileSizeBytes(const std::string& path);

/// Last-modification time of the file at `path` in nanoseconds since the
/// filesystem clock's epoch. The absolute epoch is platform-defined; the
/// value is only meaningful for equality comparison against an earlier
/// observation on the same machine (incremental re-crawl change detection).
Result<int64_t> FileMtimeNs(const std::string& path);

}  // namespace datamaran

#endif  // DATAMARAN_UTIL_FILE_IO_H_
