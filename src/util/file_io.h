#ifndef DATAMARAN_UTIL_FILE_IO_H_
#define DATAMARAN_UTIL_FILE_IO_H_

#include <cstddef>
#include <string>
#include <string_view>

#include "util/status.h"

/// File access helpers. Datamaran has two ways of getting a file's bytes
/// into the pipeline: a plain whole-file read (ReadFileToString) and a
/// read-only memory mapping (MmapFile) whose pages fault in lazily — the
/// backing store of choice for multi-GB data-lake files. Every pass over a
/// mapped input gives the pages behind it back (MappedRegion::Release), so
/// the input's resident share stays a few folios whatever the file size.
/// Which inputs are mapped is decided above this layer (core/input.h,
/// Dataset::FromFile): plain LF-terminated files of 8 MiB or more stay
/// mapped; gzip members, CRLF-stripped files, multi-file --inputs stitches
/// and files without a final newline are owned copies. MmapFile degrades
/// gracefully: on platforms without mmap, or when the mapping fails, the
/// region falls back to an owned in-memory copy, so callers never need a
/// second code path.

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

/// Largest page-cache folio one fault may map (the PMD size with 4 KiB
/// pages). Reading a single byte of a file mapping can map its whole folio,
/// so a scan that releases pages behind it rounds its cuts out to this.
inline constexpr size_t kMaxFolioBytes = size_t{2} << 20;

/// Expected access pattern for a mapped region, forwarded to the kernel as
/// an madvise hint: kSequential readahead for the streaming extraction
/// scan, kRandom for the scattered sampling/discovery touches, kNormal to
/// restore the default. Purely advisory — a no-op for owned (read-fallback)
/// regions and on platforms without madvise.
enum class AccessHint {
  kNormal,
  kSequential,
  kRandom,
};

/// A read-only view of a file's bytes, backed either by an mmap'd region
/// (is_mapped() == true; pages fault in on demand) or by an owned string
/// (the read fallback). Move-only; the view stays valid across moves.
class MappedRegion {
 public:
  MappedRegion() = default;
  ~MappedRegion();

  MappedRegion(const MappedRegion&) = delete;
  MappedRegion& operator=(const MappedRegion&) = delete;
  MappedRegion(MappedRegion&& other) noexcept;
  MappedRegion& operator=(MappedRegion&& other) noexcept;

  /// The file's bytes. Valid for the lifetime of the region.
  std::string_view view() const {
    return mapped_ ? std::string_view(static_cast<const char*>(addr_), size_)
                   : std::string_view(owned_);
  }
  size_t size() const { return mapped_ ? size_ : owned_.size(); }

  /// True when the bytes are served by a lazy mmap rather than an owned
  /// in-memory copy.
  bool is_mapped() const { return mapped_; }

  /// Gives the mapped pages wholly inside bytes [begin, end) back to the
  /// kernel (madvise MADV_DONTNEED), so they stop counting in the process's
  /// resident memory. Safe at any time: the mapping is private, read-only
  /// and never written, so a later read of a released page faults it back
  /// from the page cache with the same bytes. The range is clamped to the
  /// region and shrunk to whole pages (a partial page at either end is
  /// kept, except the file's last page when `end` reaches the size). No-op
  /// for owned regions and on platforms without madvise.
  void Release(size_t begin, size_t end) const;

  /// Advises the kernel of the expected access pattern (best effort; no-op
  /// when the region is not a live mapping or madvise is unavailable).
  void Advise(AccessHint hint) const;

  /// Takes ownership of an in-memory copy (the read-fallback constructor).
  static MappedRegion FromOwned(std::string text);

  /// Moves the fallback buffer out of a non-mapped region (the region
  /// becomes empty). Lets consumers adopt the bytes without a second copy.
  std::string ReleaseOwned();

 private:
  friend Result<MappedRegion> MmapFile(const std::string& path);

  void* addr_ = nullptr;  // mmap base (mapped_ only)
  size_t size_ = 0;       // mapped length
  bool mapped_ = false;
  std::string owned_;     // fallback storage
};

/// Size of the file at `path` in bytes, without opening or mapping it.
Result<size_t> FileSizeBytes(const std::string& path);

/// Last-modification time of the file at `path` in nanoseconds since the
/// filesystem clock's epoch. The absolute epoch is platform-defined; the
/// value is only meaningful for equality comparison against an earlier
/// observation on the same machine (incremental re-crawl change detection).
Result<int64_t> FileMtimeNs(const std::string& path);

/// Maps the file at `path` read-only. Falls back to ReadFileToString when
/// mapping is unavailable (empty file, platform without mmap, mmap error),
/// so a successful Result always carries the file's bytes.
Result<MappedRegion> MmapFile(const std::string& path);

}  // namespace datamaran

#endif  // DATAMARAN_UTIL_FILE_IO_H_
