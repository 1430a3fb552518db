#include "template/matcher.h"

namespace datamaran {

TemplateMatcher::TemplateMatcher(const StructureTemplate* st)
    : st_(st), rt_charset_(st->charset()) {}

std::optional<MatchStats> TemplateMatcher::TryMatch(std::string_view text,
                                                    size_t pos) const {
  MatchStats stats;
  size_t p = pos;
  if (!ParseFlatNode(st_->root(), text, &p, &stats.field_chars, nullptr)) {
    return std::nullopt;
  }
  stats.end = p;
  return stats;
}

bool TemplateMatcher::ParseNode(const TemplateNode& node,
                                std::string_view text, size_t* pos,
                                ParsedValue* out) const {
  out->kind = node.kind;
  out->begin = *pos;
  switch (node.kind) {
    case NodeKind::kChar:
      if (*pos >= text.size() || text[*pos] != node.ch) return false;
      ++*pos;
      break;
    case NodeKind::kField: {
      size_t p = *pos;
      while (p < text.size() &&
             !rt_charset_.Contains(static_cast<unsigned char>(text[p]))) {
        ++p;
      }
      if (p == *pos) return false;
      *pos = p;
      break;
    }
    case NodeKind::kStruct: {
      out->children.reserve(node.children.size());
      for (const auto& child : node.children) {
        ParsedValue v;
        if (!ParseNode(*child, text, pos, &v)) return false;
        out->children.push_back(std::move(v));
      }
      break;
    }
    case NodeKind::kArray: {
      const TemplateNode& elem = *node.children[0];
      ParsedValue first;
      if (!ParseNode(elem, text, pos, &first)) return false;
      out->children.push_back(std::move(first));
      while (*pos < text.size() && text[*pos] == node.ch) {
        ++*pos;
        ParsedValue next;
        if (!ParseNode(elem, text, pos, &next)) return false;
        out->children.push_back(std::move(next));
      }
      break;
    }
  }
  out->end = *pos;
  return true;
}

std::optional<ParsedValue> TemplateMatcher::Parse(std::string_view text,
                                                  size_t pos) const {
  ParsedValue root;
  size_t p = pos;
  if (!ParseNode(st_->root(), text, &p, &root)) return std::nullopt;
  return root;
}

bool TemplateMatcher::ParseFlatNode(const TemplateNode& node,
                                    std::string_view text, size_t* pos,
                                    size_t* field_chars,
                                    std::vector<MatchEvent>* events) const {
  switch (node.kind) {
    case NodeKind::kChar:
      if (*pos >= text.size() || text[*pos] != node.ch) return false;
      ++*pos;
      return true;
    case NodeKind::kField: {
      size_t start = *pos;
      size_t p = *pos;
      while (p < text.size() &&
             !rt_charset_.Contains(static_cast<unsigned char>(text[p]))) {
        ++p;
      }
      if (p == start) return false;  // fields are non-empty
      *field_chars += p - start;
      *pos = p;
      if (events != nullptr) {
        events->push_back(MatchEvent::FieldValue(&node, start, p));
      }
      return true;
    }
    case NodeKind::kStruct:
      for (const auto& child : node.children) {
        if (!ParseFlatNode(*child, text, pos, field_chars, events)) {
          return false;
        }
      }
      return true;
    case NodeKind::kArray: {
      const TemplateNode& elem = *node.children[0];
      // Emit the count event up front and patch the count afterwards so the
      // stream stays in template (pre-)order without a second pass.
      size_t count_idx = 0;
      if (events != nullptr) {
        count_idx = events->size();
        events->push_back(MatchEvent::ArrayCount(&node));
      }
      size_t reps = 1;
      if (!ParseFlatNode(elem, text, pos, field_chars, events)) return false;
      while (*pos < text.size() && text[*pos] == node.ch) {
        ++*pos;  // consume separator; LL(1) says another element follows
        if (!ParseFlatNode(elem, text, pos, field_chars, events)) {
          return false;
        }
        ++reps;
      }
      if (events != nullptr) (*events)[count_idx].set_count(reps);
      return true;
    }
  }
  return false;
}

std::optional<MatchStats> TemplateMatcher::ParseFlat(
    std::string_view text, size_t pos,
    std::vector<MatchEvent>* events) const {
  events->clear();
  MatchStats stats;
  size_t p = pos;
  if (!ParseFlatNode(st_->root(), text, &p, &stats.field_chars, events)) {
    return std::nullopt;
  }
  stats.end = p;
  return stats;
}

}  // namespace datamaran
