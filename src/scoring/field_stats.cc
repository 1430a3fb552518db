#include "scoring/field_stats.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <functional>
#include <limits>

#include "util/common.h"
#include "util/strings.h"

namespace datamaran {

const char* FieldTypeName(FieldType type) {
  switch (type) {
    case FieldType::kEnum:
      return "enum";
    case FieldType::kInt:
      return "int";
    case FieldType::kReal:
      return "real";
    case FieldType::kString:
      return "string";
  }
  return "?";
}

double Log2Ceil(double n) {
  if (n <= 1) return 0;
  return std::ceil(std::log2(n));
}

double GammaBits(uint64_t k) {
  if (k == 0) return 1;
  return 2 * std::floor(std::log2(static_cast<double>(k))) + 1;
}

void ColumnStats::Add(std::string_view value, bool stable) {
  ++count_;
  total_len_ += value.size();
  if (all_int_) {
    auto v = ParseInt64(value);
    if (!v.has_value()) {
      all_int_ = false;
    } else if (count_ == 1 || *v < min_int_) {
      min_int_ = *v;
    }
    if (v.has_value() && (count_ == 1 || *v > max_int_)) max_int_ = *v;
  }
  if (all_real_) {
    int exp = 0;
    auto v = ParseDecimal(value, &exp);
    if (!v.has_value()) {
      all_real_ = false;
    } else {
      if (count_ == 1 || *v < min_real_) min_real_ = *v;
      if (count_ == 1 || *v > max_real_) max_real_ = *v;
      if (exp > max_exp_) max_exp_ = exp;
    }
  }
  if (distinct_ <= kMaxDistinct) Intern(value, stable);
}

std::string_view ColumnStats::Store(std::string_view value) {
  if (value.empty()) return {};
  if (value.size() > block_size_ - block_used_) {
    block_size_ = std::max(value.size(),
                           std::clamp(2 * block_size_, kMinBlock, kMaxBlock));
    blocks_.push_back(std::make_unique_for_overwrite<char[]>(block_size_));
    block_used_ = 0;
  }
  char* const copy = blocks_.back().get() + block_used_;
  std::copy(value.begin(), value.end(), copy);
  block_used_ += value.size();
  return {copy, value.size()};
}

void ColumnStats::Intern(std::string_view value, bool stable) {
  if (slots_.empty()) Grow();
  const auto hash =
      static_cast<uint32_t>(std::hash<std::string_view>{}(value));
  const uint32_t tag = hash >> kIdBits;
  const size_t mask = slots_.size() - 1;
  size_t i = hash >> (32 - std::countr_zero(slots_.size()));
  for (; slots_[i] != 0; i = (i + 1) & mask) {
    if (slots_[i] >> kIdBits == tag &&
        values_[(slots_[i] & kIdMask) - 1] == value) {
      return;
    }
  }
  if (++distinct_ > kMaxDistinct) {
    // No longer an enum: TotalBits only needs to know that.
    std::vector<std::unique_ptr<char[]>>().swap(blocks_);
    std::vector<std::string_view>().swap(values_);
    std::vector<uint32_t>().swap(slots_);
    return;
  }
  values_.push_back(stable ? value : Store(value));
  dict_bytes_ += value.size();
  slots_[i] = tag << kIdBits | static_cast<uint32_t>(values_.size());
  if (2 * values_.size() > slots_.size()) Grow();
}

void ColumnStats::Grow() {
  std::vector<uint32_t> old(std::max(kMinSlots, 2 * slots_.size()));
  old.swap(slots_);
  const size_t mask = slots_.size() - 1;
  const int shift = 32 - kIdBits - std::countr_zero(slots_.size());
  for (const uint32_t s : old) {
    if (s == 0) continue;
    size_t i = (s >> kIdBits) >> shift;
    while (slots_[i] != 0) i = (i + 1) & mask;
    slots_[i] = s;
  }
}

double ColumnStats::TotalBits(FieldType type) const {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  constexpr double kTypeTagBits = 2;
  const double n = static_cast<double>(count_);
  switch (type) {
    case FieldType::kEnum: {
      if (distinct_ > kMaxDistinct) return kInf;
      // Dictionary: every distinct value spelled out once.
      double dict = 8.0 * (static_cast<double>(dict_bytes_) +
                           static_cast<double>(distinct_));
      double per_value = Log2Ceil(static_cast<double>(distinct_));
      return kTypeTagBits + dict + n * per_value;
    }
    case FieldType::kInt: {
      if (!all_int_ || count_ == 0) return kInf;
      double range = static_cast<double>(max_int_) -
                     static_cast<double>(min_int_) + 1.0;
      return kTypeTagBits + 2 * 64 + n * Log2Ceil(range);
    }
    case FieldType::kReal: {
      if (!all_real_ || count_ == 0) return kInf;
      double scaled =
          std::round((max_real_ - min_real_) * std::pow(10.0, max_exp_)) + 1.0;
      return kTypeTagBits + 2 * 64 + 32 + n * Log2Ceil(scaled);
    }
    case FieldType::kString: {
      return kTypeTagBits +
             8.0 * (static_cast<double>(total_len_) + n);  // (len+1)*8 each
    }
  }
  return kInf;
}

FieldType ColumnStats::InferType() const {
  FieldType best = FieldType::kString;
  double best_bits = TotalBits(FieldType::kString);
  for (FieldType t : {FieldType::kEnum, FieldType::kInt, FieldType::kReal}) {
    double bits = TotalBits(t);
    if (bits < best_bits) {
      best_bits = bits;
      best = t;
    }
  }
  return best;
}

double ColumnStats::BestBits() const { return TotalBits(InferType()); }

namespace {

/// Assigns columns to kField leaves in pre-order (array elements visited
/// once). This single assignment is shared by the tree path (Walk) and the
/// flat path (AddRecordFlat), so the two can never disagree on bucketing.
void AssignFieldColumns(
    const TemplateNode& node, int* next_column,
    std::unordered_map<const TemplateNode*, int>* field_column) {
  switch (node.kind) {
    case NodeKind::kField:
      (*field_column)[&node] = (*next_column)++;
      break;
    case NodeKind::kChar:
      break;
    case NodeKind::kStruct:
    case NodeKind::kArray:
      for (const auto& c : node.children) {
        AssignFieldColumns(*c, next_column, field_column);
      }
      break;
  }
}

}  // namespace

TemplateStatsCollector::TemplateStatsCollector(const StructureTemplate* st)
    : st_(st) {
  int next_column = 0;
  AssignFieldColumns(st_->root(), &next_column, &field_column_);
  DM_CHECK(next_column == st_->field_count());
  columns_.resize(static_cast<size_t>(next_column));
}

void TemplateStatsCollector::AddRecord(const ParsedValue& root,
                                       std::string_view text) {
  ++records_;
  Walk(st_->root(), root, text);
}

void TemplateStatsCollector::AddRecordFlat(
    const std::vector<MatchEvent>& events, std::string_view text,
    bool stable_text) {
  ++records_;
  for (const MatchEvent& ev : events) {
    switch (ev.kind()) {
      case MatchEvent::kFieldValue:
        columns_[static_cast<size_t>(field_column_.at(ev.node))].Add(
            text.substr(ev.begin, ev.end() - ev.begin), stable_text);
        break;
      case MatchEvent::kArrayCount:
        array_bits_ += GammaBits(ev.count());
        break;
    }
  }
}

void TemplateStatsCollector::Walk(const TemplateNode& node,
                                  const ParsedValue& value,
                                  std::string_view text) {
  switch (node.kind) {
    case NodeKind::kField:
      columns_[static_cast<size_t>(field_column_.at(&node))].Add(
          text.substr(value.begin, value.end - value.begin));
      break;
    case NodeKind::kChar:
      break;
    case NodeKind::kStruct: {
      for (size_t i = 0; i < node.children.size(); ++i) {
        Walk(*node.children[i], value.children[i], text);
      }
      break;
    }
    case NodeKind::kArray: {
      array_bits_ += GammaBits(value.children.size());
      // All repetitions pool into the element's columns.
      for (const ParsedValue& rep : value.children) {
        Walk(*node.children[0], rep, text);
      }
      break;
    }
  }
}

double TemplateStatsCollector::FieldBits() const {
  double total = 0;
  for (const ColumnStats& col : columns_) total += col.BestBits();
  return total;
}

}  // namespace datamaran
