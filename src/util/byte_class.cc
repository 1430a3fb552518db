#include "util/byte_class.h"

#include <cstring>

#if (defined(__x86_64__) || defined(__i386__)) && \
    (defined(__GNUC__) || defined(__clang__))
#include <immintrin.h>
#define DATAMARAN_BYTECLASS_AVX2 1
#endif

namespace datamaran {

namespace {

bool HaveAvx2() {
#ifdef DATAMARAN_BYTECLASS_AVX2
  return __builtin_cpu_supports("avx2");
#else
  return false;
#endif
}

// ---------------------------------------------------------------------------
// Table walk: the differential-test reference, and the kernel wherever AVX2
// is absent. The AVX2 kernels finish their sub-vector tails here too.

uint64_t TableMask64(const ByteClassTables& t, const char* p, size_t len) {
  uint64_t m = 0;
  for (size_t i = 0; i < len; ++i) {
    m |= static_cast<uint64_t>(t.table[static_cast<uint8_t>(p[i])]) << i;
  }
  return m;
}

size_t TableFindFirst(const ByteClassTables& t, std::string_view text,
                      size_t from) {
  for (size_t q = from; q < text.size(); ++q) {
    if (t.table[static_cast<uint8_t>(text[q])] != 0) return q;
  }
  return text.size();
}

#ifdef DATAMARAN_BYTECLASS_AVX2

// ---------------------------------------------------------------------------
// AVX2 kernel: nibble-shuffle classification of 32 arbitrary bytes against
// an arbitrary 256-bit set. Per-function target attribute keeps the rest of
// the translation unit baseline-ISA; callers guard with HaveAvx2().

/// One-hot high-nibble keys paired with the lo0 (nibbles 0-7) and lo1
/// (nibbles 8-15) LUTs; the same for every set.
alignas(16) constexpr std::array<uint8_t, 16> kHigh0 = {
    1, 2, 4, 8, 16, 32, 64, 128, 0, 0, 0, 0, 0, 0, 0, 0};
alignas(16) constexpr std::array<uint8_t, 16> kHigh1 = {
    0, 0, 0, 0, 0, 0, 0, 0, 1, 2, 4, 8, 16, 32, 64, 128};

__attribute__((target("avx2"))) inline uint32_t Avx2Mask32(
    const __m256i lo0, const __m256i lo1, const __m256i hi0, const __m256i hi1,
    const char* p) {
  const __m256i input =
      _mm256_loadu_si256(reinterpret_cast<const __m256i*>(p));
  const __m256i nib_mask = _mm256_set1_epi8(0x0f);
  const __m256i lo = _mm256_and_si256(input, nib_mask);
  const __m256i hi =
      _mm256_and_si256(_mm256_srli_epi16(input, 4), nib_mask);
  const __m256i hits = _mm256_or_si256(
      _mm256_and_si256(_mm256_shuffle_epi8(lo0, lo),
                       _mm256_shuffle_epi8(hi0, hi)),
      _mm256_and_si256(_mm256_shuffle_epi8(lo1, lo),
                       _mm256_shuffle_epi8(hi1, hi)));
  const __m256i zero = _mm256_cmpeq_epi8(hits, _mm256_setzero_si256());
  return ~static_cast<uint32_t>(_mm256_movemask_epi8(zero));
}

__attribute__((target("avx2"))) inline __m256i Avx2Broadcast16(
    const std::array<uint8_t, 16>& bytes) {
  return _mm256_broadcastsi128_si256(
      _mm_loadu_si128(reinterpret_cast<const __m128i*>(bytes.data())));
}

__attribute__((target("avx2"))) uint64_t Avx2Mask64(const ByteClassTables& t,
                                                    const char* p,
                                                    size_t len) {
  const __m256i lo0 = Avx2Broadcast16(t.lo0);
  const __m256i lo1 = Avx2Broadcast16(t.lo1);
  const __m256i hi0 = Avx2Broadcast16(kHigh0);
  const __m256i hi1 = Avx2Broadcast16(kHigh1);
  if (len < 64) {
    // Zero-padded copy, then mask off the padding bits (NUL may be a
    // member, so padding must be masked, not trusted to classify as 0).
    char buf[64] = {};
    std::memcpy(buf, p, len);
    const uint64_t m =
        static_cast<uint64_t>(Avx2Mask32(lo0, lo1, hi0, hi1, buf)) |
        (static_cast<uint64_t>(Avx2Mask32(lo0, lo1, hi0, hi1, buf + 32))
         << 32);
    return m & ((uint64_t{1} << len) - 1);
  }
  return static_cast<uint64_t>(Avx2Mask32(lo0, lo1, hi0, hi1, p)) |
         (static_cast<uint64_t>(Avx2Mask32(lo0, lo1, hi0, hi1, p + 32))
          << 32);
}

__attribute__((target("avx2"))) size_t Avx2FindFirst(const ByteClassTables& t,
                                                     std::string_view text,
                                                     size_t from) {
  const __m256i lo0 = Avx2Broadcast16(t.lo0);
  const __m256i lo1 = Avx2Broadcast16(t.lo1);
  const __m256i hi0 = Avx2Broadcast16(kHigh0);
  const __m256i hi1 = Avx2Broadcast16(kHigh1);
  const char* const data = text.data();
  size_t q = from;
  for (; q + 32 <= text.size(); q += 32) {
    const uint32_t m = Avx2Mask32(lo0, lo1, hi0, hi1, data + q);
    if (m != 0) return q + static_cast<size_t>(__builtin_ctz(m));
  }
  return TableFindFirst(t, text, q);
}

#endif  // DATAMARAN_BYTECLASS_AVX2

}  // namespace

const char* CharsetEngineName(CharsetEngine engine) {
  return engine == CharsetEngine::kSimd ? "simd" : "scalar";
}

const char* CharsetSimdLevel() { return HaveAvx2() ? "avx2" : "none"; }

void ByteClassifier::BuildTables(const CharSet& set) {
  tables_ = ByteClassTables{};
  for (int c = 0; c < 256; ++c) {
    if (!set.Contains(static_cast<unsigned char>(c))) continue;
    tables_.table[static_cast<size_t>(c)] = 1;
    const int lo = c & 0x0f;
    const int hi = c >> 4;
    if (hi < 8) {
      tables_.lo0[static_cast<size_t>(lo)] |=
          static_cast<uint8_t>(1u << hi);
    } else {
      tables_.lo1[static_cast<size_t>(lo)] |=
          static_cast<uint8_t>(1u << (hi - 8));
    }
  }
}

ByteClassifier::ByteClassifier(const CharSet& set, CharsetEngine engine)
    : avx2_(engine == CharsetEngine::kSimd && HaveAvx2()) {
  BuildTables(set);
}

uint64_t ByteClassifier::MaskBlock(std::string_view text, size_t pos) const {
  if (pos >= text.size()) return 0;
  const char* const p = text.data() + pos;
  const size_t len =
      text.size() - pos < 64 ? text.size() - pos : size_t{64};
#ifdef DATAMARAN_BYTECLASS_AVX2
  if (avx2_) return Avx2Mask64(tables_, p, len);
#endif
  return TableMask64(tables_, p, len);
}

size_t ByteClassifier::FindFirstMember(std::string_view text,
                                       size_t from) const {
  if (from >= text.size()) return text.size();
#ifdef DATAMARAN_BYTECLASS_AVX2
  if (avx2_) return Avx2FindFirst(tables_, text, from);
#endif
  return TableFindFirst(tables_, text, from);
}

}  // namespace datamaran
