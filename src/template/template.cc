#include "template/template.h"

#include <utility>

#include "util/strings.h"

namespace datamaran {

std::unique_ptr<TemplateNode> TemplateNode::Field() {
  auto n = std::make_unique<TemplateNode>();
  n->kind = NodeKind::kField;
  return n;
}

std::unique_ptr<TemplateNode> TemplateNode::Char(char c) {
  auto n = std::make_unique<TemplateNode>();
  n->kind = NodeKind::kChar;
  n->ch = c;
  return n;
}

std::unique_ptr<TemplateNode> TemplateNode::Struct(
    std::vector<std::unique_ptr<TemplateNode>> children) {
  auto n = std::make_unique<TemplateNode>();
  n->kind = NodeKind::kStruct;
  n->children = std::move(children);
  return n;
}

std::unique_ptr<TemplateNode> TemplateNode::Array(
    std::unique_ptr<TemplateNode> elem, char sep) {
  auto n = std::make_unique<TemplateNode>();
  n->kind = NodeKind::kArray;
  n->ch = sep;
  n->children.push_back(std::move(elem));
  return n;
}

std::unique_ptr<TemplateNode> TemplateNode::Clone() const {
  auto n = std::make_unique<TemplateNode>();
  n->kind = kind;
  n->ch = ch;
  n->children.reserve(children.size());
  for (const auto& c : children) n->children.push_back(c->Clone());
  return n;
}

bool TemplateNode::Equals(const TemplateNode& other) const {
  if (kind != other.kind || ch != other.ch ||
      children.size() != other.children.size()) {
    return false;
  }
  for (size_t i = 0; i < children.size(); ++i) {
    if (!children[i]->Equals(*other.children[i])) return false;
  }
  return true;
}

void AppendEscapedChar(char c, std::string* out) {
  if (c == '(' || c == ')' || c == '*' || c == '\\') out->push_back('\\');
  out->push_back(c);
}

void SerializeNode(const TemplateNode& node, std::string* out) {
  switch (node.kind) {
    case NodeKind::kField:
      out->push_back('F');
      break;
    case NodeKind::kChar:
      AppendEscapedChar(node.ch, out);
      break;
    case NodeKind::kStruct:
      for (const auto& c : node.children) SerializeNode(*c, out);
      break;
    case NodeKind::kArray: {
      out->push_back('(');
      SerializeNode(*node.children[0], out);
      AppendEscapedChar(node.ch, out);
      out->push_back(')');
      out->push_back('*');
      SerializeNode(*node.children[0], out);
      break;
    }
  }
}

namespace {

/// Recursive-descent parser for the canonical form. `pos` advances through
/// `s`; parsing stops at end of input or an unbalanced ')'.
class CanonicalParser {
 public:
  explicit CanonicalParser(std::string_view s) : s_(s) {}

  Result<std::unique_ptr<TemplateNode>> ParseSequence() {
    std::vector<std::unique_ptr<TemplateNode>> children;
    while (pos_ < s_.size() && s_[pos_] != ')') {
      auto item = ParseItem();
      if (!item.ok()) return item.status();
      children.push_back(std::move(item.value()));
    }
    if (children.size() == 1) return std::move(children[0]);
    return TemplateNode::Struct(std::move(children));
  }

  bool AtEnd() const { return pos_ == s_.size(); }
  size_t pos() const { return pos_; }

 private:
  Result<std::unique_ptr<TemplateNode>> ParseItem() {
    char c = s_[pos_];
    if (c == 'F') {
      ++pos_;
      return TemplateNode::Field();
    }
    if (c == '\\') {
      if (pos_ + 1 >= s_.size()) {
        return Status::ParseError("dangling escape in template");
      }
      char lit = s_[pos_ + 1];
      pos_ += 2;
      return TemplateNode::Char(lit);
    }
    if (c == '(') {
      return ParseArray();
    }
    if (c == ')' || c == '*') {
      return Status::ParseError("unexpected metacharacter in template");
    }
    ++pos_;
    return TemplateNode::Char(c);
  }

  Result<std::unique_ptr<TemplateNode>> ParseArray() {
    DM_CHECK(s_[pos_] == '(');
    ++pos_;
    // Parse the paren contents: elem tokens followed by one separator char.
    std::vector<std::unique_ptr<TemplateNode>> inner;
    while (pos_ < s_.size() && s_[pos_] != ')') {
      auto item = ParseItem();
      if (!item.ok()) return item.status();
      inner.push_back(std::move(item.value()));
    }
    if (pos_ >= s_.size()) return Status::ParseError("unterminated '('");
    ++pos_;  // consume ')'
    if (pos_ >= s_.size() || s_[pos_] != '*') {
      return Status::ParseError("expected '*' after ')'");
    }
    ++pos_;  // consume '*'
    if (inner.size() < 2) {
      return Status::ParseError("array must contain elem + separator");
    }
    if (inner.back()->kind != NodeKind::kChar) {
      return Status::ParseError("array separator must be a character");
    }
    char sep = inner.back()->ch;
    inner.pop_back();
    std::unique_ptr<TemplateNode> elem;
    if (inner.size() == 1) {
      elem = std::move(inner[0]);
    } else {
      elem = TemplateNode::Struct(std::move(inner));
    }
    // The canonical form repeats ser(elem) after ")*"; verify and skip it.
    std::string elem_ser;
    SerializeNode(*elem, &elem_ser);
    if (s_.substr(pos_, elem_ser.size()) != elem_ser) {
      return Status::ParseError("array trailing element mismatch");
    }
    pos_ += elem_ser.size();
    return TemplateNode::Array(std::move(elem), sep);
  }

  std::string_view s_;
  size_t pos_ = 0;
};

void CollectStats(const TemplateNode& node, CharSet* charset, int* fields,
                  int* arrays, int* newlines) {
  switch (node.kind) {
    case NodeKind::kField:
      ++*fields;
      break;
    case NodeKind::kChar:
      charset->Add(static_cast<unsigned char>(node.ch));
      if (node.ch == '\n') ++*newlines;
      break;
    case NodeKind::kStruct:
      for (const auto& c : node.children) {
        CollectStats(*c, charset, fields, arrays, newlines);
      }
      break;
    case NodeKind::kArray:
      ++*arrays;
      charset->Add(static_cast<unsigned char>(node.ch));
      CollectStats(*node.children[0], charset, fields, arrays, newlines);
      break;
  }
}

/// First literal character a node can start with, or 0 if it starts with a
/// field (fields begin with non-RT-CharSet characters, which can never
/// collide with a separator, so 0 means "no conflict possible").
char FirstChar(const TemplateNode& node) {
  switch (node.kind) {
    case NodeKind::kField:
      return 0;
    case NodeKind::kChar:
      return node.ch;
    case NodeKind::kStruct:
      return node.children.empty() ? 0 : FirstChar(*node.children.front());
    case NodeKind::kArray:
      return FirstChar(*node.children[0]);
  }
  return 0;
}

/// LL(1) validation with FOLLOW sets: `follow` is the set of literal
/// characters that may immediately follow `node`. An array with separator x
/// is legal iff x is not in its FOLLOW set (the paper's x != y condition,
/// generalized to nested arrays: an inner array's terminator may be the
/// outer separator or the outer terminator).
/// True if the subtree contains a literal '\n'.
bool ContainsNewline(const TemplateNode& node) {
  if (node.kind == NodeKind::kChar && node.ch == '\n') return true;
  for (const auto& child : node.children) {
    if (ContainsNewline(*child)) return true;
  }
  return false;
}

Status ValidateNode(const TemplateNode& node, const CharSet& follow) {
  switch (node.kind) {
    case NodeKind::kField:
    case NodeKind::kChar:
      return Status::Ok();
    case NodeKind::kStruct: {
      if (node.children.empty()) {
        return Status::InvalidArgument("empty struct");
      }
      for (size_t i = 0; i < node.children.size(); ++i) {
        CharSet child_follow;
        if (i + 1 < node.children.size()) {
          char fc = FirstChar(*node.children[i + 1]);
          if (fc != 0) child_follow.Add(static_cast<unsigned char>(fc));
        } else {
          child_follow = follow;
        }
        DM_RETURN_IF_ERROR(ValidateNode(*node.children[i], child_follow));
        // Adjacent fields are ambiguous (a single field run would have been
        // extracted instead).
        if (i + 1 < node.children.size() &&
            node.children[i]->kind == NodeKind::kField &&
            node.children[i + 1]->kind == NodeKind::kField) {
          return Status::InvalidArgument("adjacent fields");
        }
      }
      return Status::Ok();
    }
    case NodeKind::kArray: {
      const TemplateNode& elem = *node.children[0];
      if (elem.kind == NodeKind::kChar) {
        return Status::InvalidArgument("array element must not be a bare char");
      }
      if (follow.Contains(static_cast<unsigned char>(node.ch))) {
        return Status::InvalidArgument(
            "array terminator equals separator (x == y)");
      }
      // Records are line-aligned with a span fixed by the template's '\n'
      // literals (Definition 2.4); an array whose separator or element
      // contains '\n' would make the matched line count repetition-
      // dependent, which every line-indexed scan (scoring, residual
      // masking, extraction) relies on being constant.
      // Generation cannot produce such templates (reduction is per line);
      // reject them so hand-built ones cannot slip in either.
      if (node.ch == '\n' || ContainsNewline(elem)) {
        return Status::InvalidArgument("array must not span lines");
      }
      CharSet elem_follow = follow;
      elem_follow.Add(static_cast<unsigned char>(node.ch));
      return ValidateNode(elem, elem_follow);
    }
  }
  return Status::Internal("unreachable");
}

}  // namespace

StructureTemplate::StructureTemplate(std::unique_ptr<TemplateNode> root)
    : root_(std::move(root)) {
  RecomputeDerived();
}

StructureTemplate::StructureTemplate(const StructureTemplate& other)
    : root_(other.root_ ? other.root_->Clone() : nullptr),
      canonical_(other.canonical_),
      charset_(other.charset_),
      field_count_(other.field_count_),
      array_count_(other.array_count_),
      line_span_(other.line_span_) {}

StructureTemplate& StructureTemplate::operator=(
    const StructureTemplate& other) {
  if (this == &other) return *this;
  root_ = other.root_ ? other.root_->Clone() : nullptr;
  canonical_ = other.canonical_;
  charset_ = other.charset_;
  field_count_ = other.field_count_;
  array_count_ = other.array_count_;
  line_span_ = other.line_span_;
  return *this;
}

void StructureTemplate::RecomputeDerived() {
  canonical_.clear();
  charset_ = CharSet();
  field_count_ = array_count_ = line_span_ = 0;
  if (root_ == nullptr) return;
  SerializeNode(*root_, &canonical_);
  CollectStats(*root_, &charset_, &field_count_, &array_count_, &line_span_);
}

Result<StructureTemplate> StructureTemplate::FromCanonical(
    std::string_view canonical) {
  CanonicalParser parser(canonical);
  auto root = parser.ParseSequence();
  if (!root.ok()) return root.status();
  if (!parser.AtEnd()) {
    return Status::ParseError("trailing characters in canonical template");
  }
  StructureTemplate st(std::move(root.value()));
  return st;
}

Status StructureTemplate::Validate() const {
  if (root_ == nullptr) return Status::InvalidArgument("empty template");
  if (canonical_.empty() || canonical_.back() != '\n') {
    return Status::InvalidArgument("template must end with newline");
  }
  return ValidateNode(*root_, CharSet());
}

std::string StructureTemplate::Display() const {
  return EscapeForDisplay(canonical_);
}

}  // namespace datamaran
