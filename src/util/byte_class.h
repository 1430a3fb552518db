#ifndef DATAMARAN_UTIL_BYTE_CLASS_H_
#define DATAMARAN_UTIL_BYTE_CLASS_H_

#include <array>
#include <cstddef>
#include <cstdint>
#include <string_view>

#include "util/char_class.h"
#include "util/charset_engine.h"

/// Vectorized charset-membership scans. A ByteClassifier is a CharSet
/// frozen into lookup tables, with two block operations the hot loops
/// consume:
///
///   MaskBlock       — 64-bit membership mask of up to 64 bytes (the
///                     Dataset line index, on '\n', and generation's
///                     special-character mask of the sample)
///   FindFirstMember — first member at/after an offset (the compiled
///                     engine's wide-stop-set field scan)
///
/// Two kernels serve them:
///   AVX2 — 32 bytes per step via the nibble-shuffle technique: the set is
///          compiled into two 16-entry low-nibble LUTs whose bits are keyed
///          by the high nibble, so two shuffles + two ANDs classify 32
///          arbitrary bytes against an arbitrary 256-bit set.
///   table walk — one 256-entry table load per byte: the reference the
///          differential tests (tests/charclass_test.cc) compare AVX2
///          against, and the kernel wherever AVX2 is absent.
///
/// Both produce identical results for every input (including NUL and 0xFF
/// members, unaligned buffers, and tails shorter than the vector width —
/// AVX2 mask tails are copied into a zero-padded stack block and the
/// padding bits masked off, so no load ever touches bytes outside the
/// buffer). The AVX2 code carries a per-function target attribute and is
/// selected by CPU detection, so the rest of the binary stays baseline-ISA.

namespace datamaran {

/// Internal lookup tables, grouped so the AVX2 kernels (free functions in
/// byte_class.cc carrying target attributes) can take them by reference
/// without friending each one.
struct ByteClassTables {
  /// 1 = member; the table walk and the AVX2 tails read this.
  std::array<uint8_t, 256> table{};
  /// AVX2 nibble LUTs: lo0[l] bit h (h<8) and lo1[l] bit h-8 (h>=8) are
  /// set iff byte (h<<4)|l is a member.
  alignas(16) std::array<uint8_t, 16> lo0{};
  alignas(16) std::array<uint8_t, 16> lo1{};
};

class ByteClassifier {
 public:
  /// Empty set, table walk — a valid classifier that matches nothing.
  ByteClassifier() { BuildTables(CharSet()); }

  /// Freezes `set`. kSimd classifies with AVX2 when the CPU has it and
  /// with the table walk otherwise; kScalar always walks the table.
  ByteClassifier(const CharSet& set, CharsetEngine engine);

  bool Contains(unsigned char c) const { return tables_.table[c] != 0; }

  /// Membership mask of text[pos, pos+64): bit i (LSB-first) is set iff
  /// text[pos+i] is a member. Bits at or past text.size() are clear.
  uint64_t MaskBlock(std::string_view text, size_t pos) const;

  /// Position of the first member at or after `from`; text.size() if none.
  size_t FindFirstMember(std::string_view text, size_t from) const;

 private:
  void BuildTables(const CharSet& set);

  bool avx2_ = false;
  ByteClassTables tables_;
};

}  // namespace datamaran

#endif  // DATAMARAN_UTIL_BYTE_CLASS_H_
