#ifndef DATAMARAN_BENCH_E2E_FILES_H_
#define DATAMARAN_BENCH_E2E_FILES_H_

#include <cstdint>
#include <string>
#include <string_view>

/// Output digests: how the benchmark decides that an entry point's output
/// equals the traced replay's. A digest covers every regular file under a
/// directory — relative path, size, and bytes, in sorted path order — so a
/// missing, extra, renamed, or single-byte-different file changes it.

namespace datamaran::e2e {

/// 64-bit digest of `bytes` (not cryptographic; detects corruption).
uint64_t DigestBytes(std::string_view bytes, uint64_t seed = 0);

/// Digest of the tree under `dir`; a missing directory has its own fixed
/// digest (an entry point that found no structure writes no directory).
uint64_t DigestTree(const std::string& dir);

/// Digest of one file's bytes; a missing file has a fixed digest.
uint64_t DigestFile(const std::string& path);

/// Removes `path` recursively; missing is fine.
void RemoveTree(const std::string& path);

/// Flushes the filesystem holding `path` (syncfs). The benchmark calls it,
/// untimed, after deleting one op's outputs: otherwise the next op's own
/// fsync (summaries, manifests, catalogs are written atomically) would pay
/// for writing back and discarding the previous op's files, and op times
/// would drift with how much the benchmark itself had written.
void SyncFilesystem(const std::string& path);

/// Flips one bit of the first byte of the first file (in sorted order)
/// under `dir`; false when there is no non-empty file to corrupt. The
/// self-test's injected output fault.
bool FlipFirstByte(const std::string& dir);

}  // namespace datamaran::e2e

#endif  // DATAMARAN_BENCH_E2E_FILES_H_
