#include "template/dispatch.h"

namespace datamaran {

namespace {

struct ReplayCursor {
  const MatchEvent* events;
  size_t next_event = 0;
  size_t pos = 0;
};

/// Mirrors TemplateMatcher::ParseNode exactly, with event payloads standing
/// in for the text scans.
void ReplayNode(const TemplateNode& node, ReplayCursor* cursor,
                ParsedValue* out) {
  out->kind = node.kind;
  out->begin = cursor->pos;
  switch (node.kind) {
    case NodeKind::kChar:
      ++cursor->pos;
      break;
    case NodeKind::kField: {
      const MatchEvent& ev = cursor->events[cursor->next_event++];
      cursor->pos = ev.end();
      break;
    }
    case NodeKind::kStruct: {
      out->children.reserve(node.children.size());
      for (const auto& child : node.children) {
        ParsedValue v;
        ReplayNode(*child, cursor, &v);
        out->children.push_back(std::move(v));
      }
      break;
    }
    case NodeKind::kArray: {
      const MatchEvent& ev = cursor->events[cursor->next_event++];
      const TemplateNode& elem = *node.children[0];
      out->children.reserve(ev.count());
      for (size_t r = 0; r < ev.count(); ++r) {
        if (r > 0) ++cursor->pos;  // the separator between repetitions
        ParsedValue v;
        ReplayNode(elem, cursor, &v);
        out->children.push_back(std::move(v));
      }
      break;
    }
  }
  out->end = cursor->pos;
}

}  // namespace

ParsedValue BuildParsedValue(const StructureTemplate& st, size_t pos,
                             const MatchEvent* events, size_t /*num_events*/) {
  ReplayCursor cursor{events, 0, pos};
  ParsedValue root;
  ReplayNode(st.root(), &cursor, &root);
  return root;
}

RecordMatcher::RecordMatcher(const StructureTemplate* st, MatchEngine engine,
                             CharsetEngine charset_engine)
    : tree_(st), first_bytes_(TemplateFirstBytes(*st)) {
  if (engine == MatchEngine::kCompiled) {
    compiled_.emplace(st, charset_engine);
    if (!compiled_->ok()) compiled_.reset();
  }
}

std::optional<ParsedValue> RecordMatcher::Parse(std::string_view text,
                                                size_t pos) const {
  if (!compiled_.has_value()) return tree_.Parse(text, pos);
  std::vector<MatchEvent> events;
  auto stats = compiled_->ParseFlat(text, pos, &events);
  if (!stats.has_value()) return std::nullopt;
  return BuildParsedValue(structure_template(), pos, events);
}

TemplateSetIndex::TemplateSetIndex(const std::vector<RecordMatcher>& matchers) {
  for (size_t t = 0; t < matchers.size(); ++t) {
    const CharSet& first = matchers[t].first_bytes();
    for (int b = 0; b < 256; ++b) {
      if (first.Contains(static_cast<unsigned char>(b))) {
        buckets_[static_cast<size_t>(b)].push_back(static_cast<uint16_t>(t));
      }
    }
  }
}

std::vector<RecordMatcher> BuildMatchers(
    const std::vector<StructureTemplate>& templates, MatchEngine engine,
    CharsetEngine charset_engine) {
  std::vector<RecordMatcher> matchers;
  matchers.reserve(templates.size());
  for (const StructureTemplate& st : templates) {
    matchers.emplace_back(&st, engine, charset_engine);
  }
  return matchers;
}

}  // namespace datamaran
