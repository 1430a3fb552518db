#include "template/compiled.h"

#include <cstring>
#include <unordered_map>

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

/// Bump whenever instruction semantics or the blob layout change; stale
/// persisted programs are then rejected by fingerprint and recompiled.
constexpr int kProgramFormatVersion = 1;

// The blob stores multi-byte integers explicitly little-endian, so
// serialized programs are portable across hosts.
void PutU32(std::string* out, uint32_t v) {
  out->push_back(static_cast<char>(v & 0xffu));
  out->push_back(static_cast<char>((v >> 8) & 0xffu));
  out->push_back(static_cast<char>((v >> 16) & 0xffu));
  out->push_back(static_cast<char>((v >> 24) & 0xffu));
}

uint32_t Fnv1a(std::string_view bytes) {
  uint32_t h = 2166136261u;
  for (char c : bytes) {
    h ^= static_cast<uint8_t>(c);
    h *= 16777619u;
  }
  return h;
}

/// Bounds-checked cursor over a serialized program blob.
struct ByteReader {
  const uint8_t* p;
  const uint8_t* end;

  bool ReadU8(uint8_t* out) {
    if (p >= end) return false;
    *out = *p++;
    return true;
  }
  bool ReadU32(uint32_t* out) {
    if (end - p < 4) return false;
    *out = static_cast<uint32_t>(p[0]) | (static_cast<uint32_t>(p[1]) << 8) |
           (static_cast<uint32_t>(p[2]) << 16) |
           (static_cast<uint32_t>(p[3]) << 24);
    p += 4;
    return true;
  }
  bool ReadBytes(size_t n, std::string_view* out) {
    if (static_cast<size_t>(end - p) < n) return false;
    *out = std::string_view(reinterpret_cast<const char*>(p), n);
    p += n;
    return true;
  }
};

void CollectPreorder(const TemplateNode& node,
                     std::vector<const TemplateNode*>* out) {
  out->push_back(&node);
  for (const auto& child : node.children) CollectPreorder(*child, out);
}

void Put256Bitmap(std::string* out, const uint8_t* flags) {
  for (int base = 0; base < 256; base += 8) {
    uint8_t byte = 0;
    for (int bit = 0; bit < 8; ++bit) {
      if (flags[base + bit]) byte |= static_cast<uint8_t>(1u << bit);
    }
    out->push_back(static_cast<char>(byte));
  }
}

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
  InitScanStrategy(charset.ToString(), charset_engine);
  first_bytes_ = TemplateFirstBytes(*st_);
  Compile(st_->root(), /*depth=*/0);
  FlushPendingField();
  FlushLiteral();
  pending_literal_.shrink_to_fit();
}

void CompiledTemplate::InitScanStrategy(const std::string& members,
                                        CharsetEngine charset_engine) {
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
    classifier_.emplace(st_->charset(), charset_engine);
  }
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

std::string CompiledTemplate::ProgramFingerprint() {
  return "dmprog v" + std::to_string(kProgramFormatVersion) +
         " ops=" + std::to_string(static_cast<int>(Inst::kArrayNext) + 1) +
         " depth=" + std::to_string(kMaxArrayDepth);
}

std::string CompiledTemplate::SerializeProgram() const {
  if (!ok_ || st_ == nullptr || st_->empty()) return std::string();
  std::vector<const TemplateNode*> preorder;
  CollectPreorder(st_->root(), &preorder);
  std::unordered_map<const TemplateNode*, uint32_t> index;
  index.reserve(preorder.size());
  for (size_t i = 0; i < preorder.size(); ++i) {
    index.emplace(preorder[i], static_cast<uint32_t>(i));
  }

  std::string payload;
  payload.reserve(insts_.size() * 14 + pool_.size() + nodes_.size() * 4 + 96);
  PutU32(&payload, static_cast<uint32_t>(insts_.size()));
  for (const Inst& inst : insts_) {
    payload.push_back(static_cast<char>(inst.op));
    payload.push_back(static_cast<char>(inst.byte));
    PutU32(&payload, inst.a);
    PutU32(&payload, inst.b);
    PutU32(&payload, inst.c);
  }
  PutU32(&payload, static_cast<uint32_t>(pool_.size()));
  payload += pool_;
  PutU32(&payload, static_cast<uint32_t>(nodes_.size()));
  for (const TemplateNode* node : nodes_) {
    auto it = index.find(node);
    if (it == index.end()) return std::string();  // foreign node: no program
    PutU32(&payload, it->second);
  }
  // Charset-derived scan state, so loading skips the CharSet walks: stop
  // table as a 256-bit bitmap, the member string (scan-kind selection),
  // and the FIRST-set bitmap.
  Put256Bitmap(&payload, stop_.data());
  const std::string members = st_->charset().ToString();
  PutU32(&payload, static_cast<uint32_t>(members.size()));
  payload += members;
  std::array<uint8_t, 256> first{};
  for (int c = 0; c < 256; ++c) {
    first[static_cast<size_t>(c)] =
        first_bytes_.Contains(static_cast<unsigned char>(c)) ? 1 : 0;
  }
  Put256Bitmap(&payload, first.data());

  const std::string fp = ProgramFingerprint();
  std::string blob;
  blob.reserve(4 + fp.size() + 4 + payload.size());
  PutU32(&blob, static_cast<uint32_t>(fp.size()));
  blob += fp;
  PutU32(&blob, Fnv1a(payload));
  blob += payload;
  return blob;
}

std::optional<CompiledTemplate> CompiledTemplate::FromSerialized(
    const StructureTemplate* st, std::string_view blob,
    CharsetEngine charset_engine) {
  if (st == nullptr || st->empty() || blob.empty()) return std::nullopt;
  ByteReader r{reinterpret_cast<const uint8_t*>(blob.data()),
               reinterpret_cast<const uint8_t*>(blob.data()) + blob.size()};
  uint32_t fp_len = 0;
  std::string_view fp;
  if (!r.ReadU32(&fp_len) || fp_len > 256 || !r.ReadBytes(fp_len, &fp)) {
    return std::nullopt;
  }
  if (fp != ProgramFingerprint()) return std::nullopt;
  uint32_t checksum = 0;
  if (!r.ReadU32(&checksum)) return std::nullopt;
  const std::string_view payload(reinterpret_cast<const char*>(r.p),
                                 static_cast<size_t>(r.end - r.p));
  if (Fnv1a(payload) != checksum) return std::nullopt;

  CompiledTemplate ct;
  ct.st_ = st;
  uint32_t n_insts = 0;
  if (!r.ReadU32(&n_insts) || n_insts > (1u << 22)) return std::nullopt;
  ct.insts_.reserve(n_insts);
  for (uint32_t i = 0; i < n_insts; ++i) {
    uint8_t op = 0;
    Inst inst;
    if (!r.ReadU8(&op) || op > static_cast<uint8_t>(Inst::kArrayNext) ||
        !r.ReadU8(&inst.byte) || !r.ReadU32(&inst.a) || !r.ReadU32(&inst.b) ||
        !r.ReadU32(&inst.c)) {
      return std::nullopt;
    }
    inst.op = static_cast<Inst::Op>(op);
    ct.insts_.push_back(inst);
  }
  uint32_t pool_len = 0;
  std::string_view pool;
  if (!r.ReadU32(&pool_len) || !r.ReadBytes(pool_len, &pool)) {
    return std::nullopt;
  }
  ct.pool_.assign(pool);
  std::vector<const TemplateNode*> preorder;
  CollectPreorder(st->root(), &preorder);
  uint32_t n_nodes = 0;
  if (!r.ReadU32(&n_nodes) || n_nodes > (1u << 22)) return std::nullopt;
  ct.nodes_.reserve(n_nodes);
  for (uint32_t i = 0; i < n_nodes; ++i) {
    uint32_t idx = 0;
    if (!r.ReadU32(&idx) || idx >= preorder.size()) return std::nullopt;
    ct.nodes_.push_back(preorder[idx]);
  }
  std::string_view stop_bits, first_bits;
  if (!r.ReadBytes(32, &stop_bits)) return std::nullopt;
  for (int c = 0; c < 256; ++c) {
    ct.stop_[static_cast<size_t>(c)] =
        (static_cast<uint8_t>(stop_bits[static_cast<size_t>(c >> 3)]) >>
         (c & 7)) &
        1u;
  }
  uint32_t members_len = 0;
  std::string_view members;
  if (!r.ReadU32(&members_len) || members_len > 256 ||
      !r.ReadBytes(members_len, &members)) {
    return std::nullopt;
  }
  if (!r.ReadBytes(32, &first_bits)) return std::nullopt;
  for (int c = 0; c < 256; ++c) {
    if ((static_cast<uint8_t>(first_bits[static_cast<size_t>(c >> 3)]) >>
         (c & 7)) &
        1u) {
      ct.first_bytes_.Add(static_cast<unsigned char>(c));
    }
  }
  if (r.p != r.end) return std::nullopt;  // trailing bytes: not our blob
  if (!ct.ValidateProgram()) return std::nullopt;
  ct.InitScanStrategy(std::string(members), charset_engine);
  ct.ok_ = true;
  return ct;
}

bool CompiledTemplate::ValidateProgram() const {
  const size_t n_nodes = nodes_.size();
  const size_t pool_size = pool_.size();
  const uint32_t n = static_cast<uint32_t>(insts_.size());
  // depth_before[i] = frame-stack depth when inst i begins executing.
  // Control flow is linear except validated backward jumps, so one pass
  // both computes it and checks every jump lands at matching depth — the
  // invariant that keeps Run's frame stack in [0, kMaxArrayDepth] for any
  // (possibly hostile) deserialized program.
  std::vector<int> depth_before(n, 0);
  std::vector<uint32_t> begins;
  int depth = 0;
  for (uint32_t i = 0; i < n; ++i) {
    depth_before[i] = depth;
    const Inst& inst = insts_[i];
    switch (inst.op) {
      case Inst::kLit:
        if (inst.b == 0 || inst.b > pool_size || inst.a > pool_size - inst.b) {
          return false;
        }
        break;
      case Inst::kLit1:
        break;
      case Inst::kField:
      case Inst::kFieldLit1:
        if (inst.a >= n_nodes || nodes_[inst.a]->kind != NodeKind::kField) {
          return false;
        }
        break;
      case Inst::kFieldLitRun: {
        if (inst.b == 0 || inst.b > n_nodes || inst.a > n_nodes - inst.b) {
          return false;
        }
        for (uint32_t k = 0; k < inst.b; ++k) {
          if (nodes_[inst.a + k]->kind != NodeKind::kField) return false;
        }
        if (inst.b > pool_size || inst.c > pool_size - inst.b) return false;
        break;
      }
      case Inst::kFieldArray:
        if (inst.a >= n_nodes || nodes_[inst.a]->kind != NodeKind::kField) {
          return false;
        }
        if (inst.b >= n_nodes || nodes_[inst.b]->kind != NodeKind::kArray) {
          return false;
        }
        break;
      case Inst::kArrayBegin:
        if (inst.b >= n_nodes || nodes_[inst.b]->kind != NodeKind::kArray) {
          return false;
        }
        if (depth + 1 > kMaxArrayDepth) return false;
        begins.push_back(i);
        ++depth;
        break;
      case Inst::kArrayNext: {
        if (begins.empty()) return false;
        const uint32_t begin = begins.back();
        // The separator branch must jump strictly inside this array's
        // element program, to an instruction at the same static depth.
        if (inst.a <= begin || inst.a > i) return false;
        if (depth_before[inst.a] != depth) return false;
        begins.pop_back();
        --depth;
        break;
      }
    }
  }
  return depth == 0;
}

}  // namespace datamaran
