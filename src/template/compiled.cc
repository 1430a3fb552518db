#include "template/compiled.h"

#include <cstring>

namespace datamaran {

namespace {

CharSet FirstBytesOfNode(const TemplateNode& node, const CharSet& rt_charset) {
  switch (node.kind) {
    case NodeKind::kChar: {
      CharSet s;
      s.Add(static_cast<unsigned char>(node.ch));
      return s;
    }
    case NodeKind::kField: {
      // Fields are non-empty runs of non-charset bytes, so any byte outside
      // the RT-CharSet can start one.
      CharSet s;
      for (int c = 0; c < 256; ++c) {
        if (!rt_charset.Contains(static_cast<unsigned char>(c))) {
          s.Add(static_cast<unsigned char>(c));
        }
      }
      return s;
    }
    case NodeKind::kStruct:
      // Every node consumes at least one character (validated), so only the
      // first child contributes.
      return FirstBytesOfNode(*node.children[0], rt_charset);
    case NodeKind::kArray:
      return FirstBytesOfNode(*node.children[0], rt_charset);
  }
  return CharSet();
}

/// Per-byte high-bit mask of the zero bytes of `v` (classic SWAR zero-byte
/// trick). Borrow propagation can only disturb bytes *above* a true zero,
/// so the lowest set high-bit always marks the first zero byte exactly —
/// which is all the position scan consumes.
inline uint64_t ZeroByteMask(uint64_t v) {
  return (v - 0x0101010101010101ull) & ~v & 0x8080808080808080ull;
}

inline uint64_t BroadcastByte(uint8_t b) {
  return 0x0101010101010101ull * b;
}

constexpr bool kLittleEndian =
#if defined(__BYTE_ORDER__) && (__BYTE_ORDER__ == __ORDER_LITTLE_ENDIAN__)
    true;
#else
    false;
#endif

}  // namespace

CharSet TemplateFirstBytes(const StructureTemplate& st) {
  if (st.empty()) return CharSet();
  return FirstBytesOfNode(st.root(), st.charset());
}

CompiledTemplate::CompiledTemplate(const StructureTemplate* st,
                                   CharsetEngine charset_engine)
    : st_(st) {
  const CharSet& charset = st_->charset();
  for (int c = 0; c < 256; ++c) {
    stop_[static_cast<size_t>(c)] =
        charset.Contains(static_cast<unsigned char>(c)) ? 1 : 0;
  }
  // The field-scan strategy, from the RT-CharSet's members.
  const std::string members = charset.ToString();
  if (members.size() == 1) {
    // Fields run to the line terminator: long scans, vectorized memchr.
    scan_kind_ = ScanKind::kMemchr;
    memchr_stop_ = static_cast<uint8_t>(members[0]);
  } else if (members.size() >= 2 && members.size() <= 4 && kLittleEndian) {
    // (An empty charset — reachable via unvalidated templates like "F" —
    // must stay on the table path: zeroed SWAR masks would stop at NUL.)
    // The common CSV/log shape (separators + '\n'): one 8-byte SWAR step
    // finds the first stop byte's position without a per-byte loop.
    scan_kind_ = members.size() == 2   ? ScanKind::kSwar2
                 : members.size() == 3 ? ScanKind::kSwar3
                                       : ScanKind::kSwar4;
    for (size_t i = 0; i < members.size(); ++i) {
      swar_[i] = BroadcastByte(static_cast<uint8_t>(members[i]));
    }
  } else if (members.size() >= 5 && charset_engine == CharsetEngine::kSimd) {
    // Wide stop sets: the classifier scans them 32 bytes at a time under
    // AVX2 (first-stop position semantics are the stop table's, so match
    // results don't change).
    scan_kind_ = ScanKind::kClass;
    classifier_.emplace(charset, charset_engine);
  }
  first_bytes_ = TemplateFirstBytes(*st_);
  Compile(st_->root(), /*depth=*/0);
  FlushPendingField();
  FlushLiteral();
  pending_literal_.shrink_to_fit();
}

void CompiledTemplate::FlushLiteral() {
  if (pending_literal_.empty()) return;
  Inst inst;
  if (pending_literal_.size() == 1) {
    inst.op = Inst::kLit1;
    inst.byte = static_cast<uint8_t>(pending_literal_[0]);
  } else {
    inst.op = Inst::kLit;
    inst.a = static_cast<uint32_t>(pool_.size());
    inst.b = static_cast<uint32_t>(pending_literal_.size());
    pool_ += pending_literal_;
  }
  insts_.push_back(inst);
  pending_literal_.clear();
}

void CompiledTemplate::FlushPendingField() {
  if (pending_field_ == nullptr) return;
  Inst inst;
  inst.op = Inst::kField;
  inst.a = static_cast<uint32_t>(nodes_.size());
  nodes_.push_back(pending_field_);
  insts_.push_back(inst);
  pending_field_ = nullptr;
}

void CompiledTemplate::Compile(const TemplateNode& node, int depth) {
  switch (node.kind) {
    case NodeKind::kChar:
      if (pending_field_ != nullptr) {
        // The dominant token pair: field terminated by a fixed literal.
        // Adjacent pairs chain into one kFieldLitRun — a whole "F,F,F,F\n"
        // line body executes as a single instruction. Adjacency guarantees
        // the run's field nodes are consecutive in nodes_ and its literal
        // bytes contiguous in pool_.
        if (!insts_.empty() && (insts_.back().op == Inst::kFieldLit1 ||
                                insts_.back().op == Inst::kFieldLitRun)) {
          Inst& prev = insts_.back();
          if (prev.op == Inst::kFieldLit1) {
            prev.op = Inst::kFieldLitRun;
            prev.c = static_cast<uint32_t>(pool_.size());
            pool_.push_back(static_cast<char>(prev.byte));
            prev.b = 1;
          }
          pool_.push_back(node.ch);
          prev.b += 1;
          nodes_.push_back(pending_field_);
          pending_field_ = nullptr;
          return;
        }
        Inst inst;
        inst.op = Inst::kFieldLit1;
        inst.byte = static_cast<uint8_t>(node.ch);
        inst.a = static_cast<uint32_t>(nodes_.size());
        nodes_.push_back(pending_field_);
        insts_.push_back(inst);
        pending_field_ = nullptr;
        return;
      }
      pending_literal_.push_back(node.ch);
      return;
    case NodeKind::kField:
      FlushLiteral();
      FlushPendingField();  // adjacent fields are invalid, but stay safe
      pending_field_ = &node;
      return;
    case NodeKind::kStruct:
      for (const auto& child : node.children) Compile(*child, depth);
      return;
    case NodeKind::kArray: {
      FlushLiteral();
      FlushPendingField();
      const TemplateNode& elem = *node.children[0];
      if (elem.kind == NodeKind::kField) {
        // The dominant generated shape, e.g. a CSV row's "(F,)*F": one
        // fused instruction alternates field scan and separator lookahead.
        Inst inst;
        inst.op = Inst::kFieldArray;
        inst.byte = static_cast<uint8_t>(node.ch);
        inst.a = static_cast<uint32_t>(nodes_.size());
        nodes_.push_back(&elem);
        inst.b = static_cast<uint32_t>(nodes_.size());
        nodes_.push_back(&node);
        insts_.push_back(inst);
        return;
      }
      if (depth + 1 > kMaxArrayDepth) {
        ok_ = false;
        return;
      }
      Inst begin;
      begin.op = Inst::kArrayBegin;
      begin.b = static_cast<uint32_t>(nodes_.size());
      nodes_.push_back(&node);
      insts_.push_back(begin);
      const uint32_t elem_start = static_cast<uint32_t>(insts_.size());
      Compile(elem, depth + 1);
      FlushPendingField();
      FlushLiteral();
      Inst next;
      next.op = Inst::kArrayNext;
      next.byte = static_cast<uint8_t>(node.ch);
      next.a = elem_start;
      insts_.push_back(next);
      return;
    }
  }
}

template <bool kEmitEvents, CompiledTemplate::ScanKind kScan>
bool CompiledTemplate::Run(std::string_view text, size_t* pos,
                           size_t* field_chars,
                           std::vector<MatchEvent>* events) const {
  const char* const data = text.data();
  const size_t size = text.size();
  size_t p = *pos;
  size_t fields = 0;

  // Hoisted scan state; with kScan a compile-time constant the per-field
  // scan below inlines into the dispatch loop with no branching on mode.
  const uint64_t b0 = swar_[0];
  const uint64_t b1 = swar_[1];
  const uint64_t b2 = swar_[2];
  const uint64_t b3 = swar_[3];
  constexpr int kStops = kScan == ScanKind::kSwar2   ? 2
                         : kScan == ScanKind::kSwar3 ? 3
                         : kScan == ScanKind::kSwar4 ? 4
                                                     : 0;
  (void)b0;
  (void)b1;
  (void)b2;
  (void)b3;
  auto scan_field_end = [&](size_t q) -> size_t {
    if constexpr (kScan == ScanKind::kMemchr) {
      const void* hit = std::memchr(data + q, memchr_stop_, size - q);
      return hit != nullptr
                 ? static_cast<size_t>(static_cast<const char*>(hit) - data)
                 : size;
    } else if constexpr (kStops > 0) {
      // Log tokens are mostly 1-3 characters: with three or more stop
      // bytes, probe a few bytes with the stop table first so short fields
      // never pay the word-scan setup (two broadcast masks are cheap
      // enough that the word scan wins outright).
      if constexpr (kStops > 2) {
        const size_t lead = q + 4 < size ? q + 4 : size;
        while (q < lead) {
          if (stop_[static_cast<uint8_t>(data[q])]) return q;
          ++q;
        }
      }
      while (q + 8 <= size) {
        uint64_t word;
        std::memcpy(&word, data + q, 8);
        uint64_t mask = ZeroByteMask(word ^ b0);
        if constexpr (kStops > 1) mask |= ZeroByteMask(word ^ b1);
        if constexpr (kStops > 2) mask |= ZeroByteMask(word ^ b2);
        if constexpr (kStops > 3) mask |= ZeroByteMask(word ^ b3);
        if (mask != 0) {
          // Lowest set high-bit == first stop byte (little-endian layout).
          return q + (static_cast<size_t>(__builtin_ctzll(mask)) >> 3);
        }
        q += 8;
      }
      while (q < size && !stop_[static_cast<uint8_t>(data[q])]) ++q;
      return q;
    } else if constexpr (kScan == ScanKind::kClass) {
      // Short tokens resolve in the table lead-in; longer ones hand off to
      // the vectorized classifier (identical first-stop position).
      const size_t lead = q + 4 < size ? q + 4 : size;
      while (q < lead) {
        if (stop_[static_cast<uint8_t>(data[q])]) return q;
        ++q;
      }
      return classifier_->FindFirstMember(text, q);
    } else {
      while (q < size && !stop_[static_cast<uint8_t>(data[q])]) ++q;
      return q;
    }
  };

  struct ArrayFrame {
    size_t count_idx;  ///< index of the kArrayCount event to patch
    size_t reps;
  };
  // Only the event stream consumes repetition counts; the frame stack is
  // compiled out of the capture-free path entirely.
  ArrayFrame frames[kMaxArrayDepth];
  int fp = 0;
  (void)frames;
  (void)fp;

  const Inst* const insts = insts_.data();
  const uint32_t n_insts = static_cast<uint32_t>(insts_.size());
  for (uint32_t ip = 0; ip != n_insts; ++ip) {
    const Inst inst = insts[ip];
    switch (inst.op) {
      case Inst::kLit1:
        if (p >= size || static_cast<uint8_t>(data[p]) != inst.byte) {
          return false;
        }
        ++p;
        break;
      case Inst::kLit:
        if (size - p < inst.b ||
            std::memcmp(data + p, pool_.data() + inst.a, inst.b) != 0) {
          return false;
        }
        p += inst.b;
        break;
      case Inst::kField: {
        const size_t start = p;
        p = scan_field_end(p);
        if (p == start) return false;  // fields are non-empty
        fields += p - start;
        if constexpr (kEmitEvents) {
          events->push_back(MatchEvent::FieldValue(nodes_[inst.a], start, p));
        }
        break;
      }
      case Inst::kFieldLit1: {
        const size_t start = p;
        p = scan_field_end(p);
        if (p == start) return false;
        fields += p - start;
        if constexpr (kEmitEvents) {
          events->push_back(MatchEvent::FieldValue(nodes_[inst.a], start, p));
        }
        if (p >= size || static_cast<uint8_t>(data[p]) != inst.byte) {
          return false;
        }
        ++p;
        break;
      }
      case Inst::kFieldLitRun: {
        const char* const lits = pool_.data() + inst.c;
        for (uint32_t i = 0; i < inst.b; ++i) {
          const size_t start = p;
          p = scan_field_end(p);
          if (p == start) return false;
          fields += p - start;
          if constexpr (kEmitEvents) {
            events->push_back(
                MatchEvent::FieldValue(nodes_[inst.a + i], start, p));
          }
          if (p >= size ||
              static_cast<uint8_t>(data[p]) != static_cast<uint8_t>(lits[i])) {
            return false;
          }
          ++p;
        }
        break;
      }
      case Inst::kFieldArray: {
        size_t count_idx = 0;
        if constexpr (kEmitEvents) {
          count_idx = events->size();
          events->push_back(MatchEvent::ArrayCount(nodes_[inst.b]));
        }
        size_t reps = 0;
        for (;;) {
          const size_t start = p;
          p = scan_field_end(p);
          if (p == start) return false;
          fields += p - start;
          if constexpr (kEmitEvents) {
            events->push_back(MatchEvent::FieldValue(nodes_[inst.a], start, p));
          }
          ++reps;
          if (p < size && static_cast<uint8_t>(data[p]) == inst.byte) {
            ++p;  // consume separator; LL(1) says another element follows
            continue;
          }
          break;
        }
        if constexpr (kEmitEvents) {
          (*events)[count_idx].set_count(reps);
        }
        break;
      }
      case Inst::kArrayBegin: {
        if constexpr (kEmitEvents) {
          ArrayFrame& frame = frames[fp++];
          frame.reps = 1;
          frame.count_idx = events->size();
          events->push_back(MatchEvent::ArrayCount(nodes_[inst.b]));
        }
        break;
      }
      case Inst::kArrayNext: {
        if (p < size && static_cast<uint8_t>(data[p]) == inst.byte) {
          ++p;  // consume separator; another element follows
          if constexpr (kEmitEvents) ++frames[fp - 1].reps;
          ip = inst.a - 1;  // loop back to the element program
        } else if constexpr (kEmitEvents) {
          const ArrayFrame& frame = frames[--fp];
          (*events)[frame.count_idx].set_count(frame.reps);
        }
        break;
      }
    }
  }
  *pos = p;
  *field_chars += fields;
  return true;
}

template <bool kEmitEvents>
bool CompiledTemplate::Dispatch(std::string_view text, size_t* pos,
                                size_t* field_chars,
                                std::vector<MatchEvent>* events) const {
  switch (scan_kind_) {
    case ScanKind::kMemchr:
      return Run<kEmitEvents, ScanKind::kMemchr>(text, pos, field_chars,
                                                 events);
    case ScanKind::kSwar2:
      return Run<kEmitEvents, ScanKind::kSwar2>(text, pos, field_chars,
                                                events);
    case ScanKind::kSwar3:
      return Run<kEmitEvents, ScanKind::kSwar3>(text, pos, field_chars,
                                                events);
    case ScanKind::kSwar4:
      return Run<kEmitEvents, ScanKind::kSwar4>(text, pos, field_chars,
                                                events);
    case ScanKind::kClass:
      return Run<kEmitEvents, ScanKind::kClass>(text, pos, field_chars,
                                                events);
    case ScanKind::kTable:
      break;
  }
  return Run<kEmitEvents, ScanKind::kTable>(text, pos, field_chars, events);
}

std::optional<MatchStats> CompiledTemplate::TryMatch(std::string_view text,
                                                     size_t pos) const {
  MatchStats stats;
  size_t p = pos;
  if (!Dispatch<false>(text, &p, &stats.field_chars, nullptr)) {
    return std::nullopt;
  }
  stats.end = p;
  return stats;
}

std::optional<MatchStats> CompiledTemplate::ParseFlat(
    std::string_view text, size_t pos, std::vector<MatchEvent>* events) const {
  events->clear();
  MatchStats stats;
  size_t p = pos;
  if (!Dispatch<true>(text, &p, &stats.field_chars, events)) {
    return std::nullopt;
  }
  stats.end = p;
  return stats;
}

}  // namespace datamaran
