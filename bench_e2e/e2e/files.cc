#include "e2e/files.h"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <cstring>
#include <filesystem>
#include <vector>

#include "util/file_io.h"

namespace datamaran::e2e {

namespace fs = std::filesystem;

namespace {

constexpr uint64_t kMissing = 0x6d697373696e6721ull;

std::vector<std::string> SortedFiles(const std::string& dir) {
  std::vector<std::string> rel;
  std::error_code ec;
  for (fs::recursive_directory_iterator it(dir, ec), end; it != end;
       it.increment(ec)) {
    if (ec) break;
    if (it->is_regular_file(ec)) {
      rel.push_back(fs::relative(it->path(), dir, ec).generic_string());
    }
  }
  std::sort(rel.begin(), rel.end());
  return rel;
}

}  // namespace

uint64_t DigestBytes(std::string_view bytes, uint64_t seed) {
  // Word-at-a-time multiply-xorshift: fast enough to digest every output
  // of every run, and any flipped byte changes the result.
  uint64_t h =
      seed ^ 0x9E3779B97F4A7C15ull ^ (bytes.size() * 0xff51afd7ed558ccdull);
  size_t i = 0;
  for (; i + 8 <= bytes.size(); i += 8) {
    uint64_t w;
    std::memcpy(&w, bytes.data() + i, 8);
    h = (h ^ w) * 0xbf58476d1ce4e5b9ull;
    h ^= h >> 31;
  }
  uint64_t tail = 0;
  if (i < bytes.size()) std::memcpy(&tail, bytes.data() + i, bytes.size() - i);
  h = (h ^ tail) * 0x94d049bb133111ebull;
  return h ^ (h >> 29);
}

uint64_t DigestFile(const std::string& path) {
  auto bytes = ReadFileToString(path);
  return bytes.ok() ? DigestBytes(bytes.value()) : kMissing;
}

uint64_t DigestTree(const std::string& dir) {
  std::error_code ec;
  if (!fs::is_directory(dir, ec)) return kMissing;
  uint64_t h = 0;
  for (const std::string& rel : SortedFiles(dir)) {
    h = DigestBytes(rel, h);
    h = DigestBytes({}, h ^ DigestFile(dir + "/" + rel));
  }
  return h;
}

void RemoveTree(const std::string& path) {
  std::error_code ec;
  fs::remove_all(path, ec);
}

void SyncFilesystem(const std::string& path) {
  const int fd = open(path.c_str(), O_RDONLY | O_DIRECTORY | O_CLOEXEC);
  if (fd < 0) return;
  (void)syncfs(fd);
  close(fd);
}

bool FlipFirstByte(const std::string& dir) {
  for (const std::string& rel : SortedFiles(dir)) {
    const std::string path = dir + "/" + rel;
    auto bytes = ReadFileToString(path);
    if (!bytes.ok() || bytes.value().empty()) continue;
    bytes.value()[0] ^= 0x01;
    return WriteStringToFile(path, bytes.value()).ok();
  }
  return false;
}

}  // namespace datamaran::e2e
