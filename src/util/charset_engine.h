#ifndef DATAMARAN_UTIL_CHARSET_ENGINE_H_
#define DATAMARAN_UTIL_CHARSET_ENGINE_H_

/// The byte-classification engine selector, in its own header so
/// configuration surfaces (core/options.h) can name it without pulling in
/// the classifier itself (util/byte_class.h) — the same split as
/// template/match_engine.h.

namespace datamaran {

/// Which algorithms the byte-classification hot loops run. Output is
/// byte-identical between the two; kScalar is the per-byte reference kept
/// for differential testing.
enum class CharsetEngine {
  /// Per-byte references: generation tokenizes every line per trial
  /// charset, and the compiled engine scans wide stop sets by table.
  kScalar,
  /// Generation's shared special-character mask, and the compiled engine's
  /// classifier scan for stop sets of five or more members. Both classify
  /// with AVX2 when the CPU has it and with the table walk otherwise.
  kSimd,
};

/// "scalar" or "simd".
const char* CharsetEngineName(CharsetEngine engine);

/// The vector ISA the running CPU offers for classification: "avx2" or
/// "none". Reported in CLI/bench summaries so the kernel that runs is
/// visible without disassembly.
const char* CharsetSimdLevel();

}  // namespace datamaran

#endif  // DATAMARAN_UTIL_CHARSET_ENGINE_H_
