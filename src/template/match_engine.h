#ifndef DATAMARAN_TEMPLATE_MATCH_ENGINE_H_
#define DATAMARAN_TEMPLATE_MATCH_ENGINE_H_

/// The match-engine selector, in its own header so configuration surfaces
/// (core/options.h) can name it without pulling in the engines themselves
/// (template/compiled.h, template/matcher.h).

namespace datamaran {

/// Which matching engine the pipeline's hot loops use. Output is
/// byte-identical between the two; kTree is the reference tree walker kept
/// for differential testing and as a fallback.
enum class MatchEngine {
  kCompiled,
  kTree,
};

/// "compiled" or "tree".
inline const char* MatchEngineName(MatchEngine engine) {
  return engine == MatchEngine::kCompiled ? "compiled" : "tree";
}

}  // namespace datamaran

#endif  // DATAMARAN_TEMPLATE_MATCH_ENGINE_H_
