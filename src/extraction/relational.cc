#include "extraction/relational.h"

#include <algorithm>
#include <unordered_map>

#include "util/common.h"
#include "util/strings.h"

namespace datamaran {

void AppendCsvField(std::string_view s, std::string* out) {
  if (s.find_first_of(",\"\n\r") == std::string_view::npos) {
    out->append(s);
    return;
  }
  out->push_back('"');
  for (char c : s) {
    if (c == '"') out->push_back('"');
    out->push_back(c);
  }
  out->push_back('"');
}

namespace {

/// Pre-order field-leaf and array numbering shared by both layouts.
struct TemplateIndex {
  int leaf_count = 0;
  int array_count = 0;
};

void IndexTemplate(const TemplateNode& node, TemplateIndex* idx) {
  switch (node.kind) {
    case NodeKind::kField:
      idx->leaf_count++;
      break;
    case NodeKind::kChar:
      break;
    case NodeKind::kStruct:
      for (const auto& c : node.children) IndexTemplate(*c, idx);
      break;
    case NodeKind::kArray:
      idx->array_count++;
      IndexTemplate(*node.children[0], idx);
      break;
  }
}

// ------------------------------------------------------------ denormalized

void FillDenormalized(const TemplateNode& node, const ParsedValue& value,
                      std::string_view text, char join_sep, int* leaf,
                      std::vector<std::string>* cells,
                      std::vector<bool>* filled) {
  switch (node.kind) {
    case NodeKind::kField: {
      size_t i = static_cast<size_t>((*leaf)++);
      std::string_view v = text.substr(value.begin, value.end - value.begin);
      if ((*filled)[i]) {
        (*cells)[i].push_back(join_sep == 0 ? ' ' : join_sep);
        (*cells)[i].append(v);
      } else {
        (*cells)[i].assign(v);
        (*filled)[i] = true;
      }
      break;
    }
    case NodeKind::kChar:
      break;
    case NodeKind::kStruct:
      for (size_t i = 0; i < node.children.size(); ++i) {
        FillDenormalized(*node.children[i], value.children[i], text, join_sep,
                         leaf, cells, filled);
      }
      break;
    case NodeKind::kArray: {
      int saved = *leaf;
      for (const ParsedValue& rep : value.children) {
        *leaf = saved;
        FillDenormalized(*node.children[0], rep, text, node.ch, leaf, cells,
                         filled);
      }
      break;
    }
  }
}

/// Event-stream counterpart of FillDenormalized: walks the template with a
/// cursor over the record's flat parse (one kFieldValue event per field
/// visit, one kArrayCount event per array, in template order) and fills the
/// same cells. Kept structurally parallel to FillDenormalized so the two
/// stay in lockstep — the streaming-vs-tree row parity tests enforce it.
struct EventCursor {
  const MatchEvent* events;
  size_t count;
  size_t i = 0;
  const MatchEvent& Next() {
    DM_CHECK(i < count);
    return events[i++];
  }
};

void FillRowFromEvents(const TemplateNode& node, EventCursor* cur,
                       std::string_view text, char join_sep, int* leaf,
                       std::vector<std::string>* cells,
                       std::vector<char>* filled) {
  switch (node.kind) {
    case NodeKind::kField: {
      size_t i = static_cast<size_t>((*leaf)++);
      const MatchEvent& ev = cur->Next();
      std::string_view v = text.substr(ev.begin, ev.end() - ev.begin);
      if ((*filled)[i]) {
        (*cells)[i].push_back(join_sep == 0 ? ' ' : join_sep);
        (*cells)[i].append(v);
      } else {
        (*cells)[i].assign(v);
        (*filled)[i] = 1;
      }
      break;
    }
    case NodeKind::kChar:
      break;
    case NodeKind::kStruct:
      for (const auto& c : node.children) {
        FillRowFromEvents(*c, cur, text, join_sep, leaf, cells, filled);
      }
      break;
    case NodeKind::kArray: {
      const MatchEvent& ev = cur->Next();
      int saved = *leaf;
      for (size_t r = 0; r < ev.count(); ++r) {
        *leaf = saved;
        FillRowFromEvents(*node.children[0], cur, text, node.ch, leaf, cells,
                          filled);
      }
      break;
    }
  }
}

// -------------------------------------------------------------- normalized

/// Static table layout: table 0 is the root; arrays get tables 1..A in
/// pre-order. For every field leaf we record its table and column slot.
struct NormalizedLayout {
  struct FieldSlot {
    int table = 0;
    int column = 0;  // index into the table's field columns
  };
  int array_count = 0;
  std::vector<FieldSlot> fields;      // by leaf index
  std::vector<int> fields_per_table;  // by table index
  std::vector<char> array_sep;        // by array index (table = index + 1)
};

void BuildLayout(const TemplateNode& node, int table, int* leaf, int* array,
                 NormalizedLayout* layout) {
  switch (node.kind) {
    case NodeKind::kField: {
      NormalizedLayout::FieldSlot slot;
      slot.table = table;
      slot.column = layout->fields_per_table[static_cast<size_t>(table)]++;
      layout->fields[static_cast<size_t>((*leaf)++)] = slot;
      break;
    }
    case NodeKind::kChar:
      break;
    case NodeKind::kStruct:
      for (const auto& c : node.children) {
        BuildLayout(*c, table, leaf, array, layout);
      }
      break;
    case NodeKind::kArray: {
      int t = ++(*array);  // tables are 1-based for arrays
      layout->array_sep[static_cast<size_t>(t - 1)] = node.ch;
      BuildLayout(*node.children[0], t, leaf, array, layout);
      break;
    }
  }
}

/// The one source of truth for the normalized layout of a template —
/// NormalizedSchemaFor, NormalizedRowBuilder, and NormalizedTables all
/// derive from this, so the streaming-vs-collecting byte-parity contract
/// cannot be broken by one of them drifting.
NormalizedLayout ComputeNormalizedLayout(const StructureTemplate& st) {
  TemplateIndex idx;
  IndexTemplate(st.root(), &idx);
  NormalizedLayout layout;
  layout.array_count = idx.array_count;
  layout.fields.resize(static_cast<size_t>(idx.leaf_count));
  layout.fields_per_table.assign(static_cast<size_t>(idx.array_count) + 1, 0);
  layout.array_sep.resize(static_cast<size_t>(idx.array_count));
  int leaf = 0, array = 0;
  BuildLayout(st.root(), 0, &leaf, &array, &layout);
  return layout;
}

struct NormalizedBuilder {
  const NormalizedLayout* layout;
  std::vector<Table>* tables;
  std::string_view text;

  void Fill(const TemplateNode& node, const ParsedValue& value, int table,
            size_t row, int* leaf, int* array) {
    switch (node.kind) {
      case NodeKind::kField: {
        const auto& slot = layout->fields[static_cast<size_t>((*leaf)++)];
        DM_CHECK(slot.table == table);
        Table& t = (*tables)[static_cast<size_t>(table)];
        // Field columns start after the key columns (root: id; child:
        // id, parent_id, pos).
        size_t key_cols = table == 0 ? 1 : 3;
        t.rows[row][key_cols + static_cast<size_t>(slot.column)] =
            std::string(text.substr(value.begin, value.end - value.begin));
        break;
      }
      case NodeKind::kChar:
        break;
      case NodeKind::kStruct:
        for (size_t i = 0; i < node.children.size(); ++i) {
          Fill(*node.children[i], value.children[i], table, row, leaf, array);
        }
        break;
      case NodeKind::kArray: {
        int child_table = ++(*array);
        Table& ct = (*tables)[static_cast<size_t>(child_table)];
        const std::string parent_id =
            (*tables)[static_cast<size_t>(table)].rows[row][0];
        int saved_leaf = *leaf;
        int saved_array = *array;
        for (size_t pos = 0; pos < value.children.size(); ++pos) {
          size_t new_row = ct.rows.size();
          std::vector<std::string> cells(ct.columns.size());
          cells[0] = std::to_string(new_row);
          cells[1] = parent_id;
          cells[2] = std::to_string(pos);
          ct.rows.push_back(std::move(cells));
          *leaf = saved_leaf;
          *array = saved_array;
          Fill(*node.children[0], value.children[pos], child_table, new_row,
               leaf, array);
        }
        break;
      }
    }
  }
};

}  // namespace

std::string Table::ToCsv() const {
  std::string out;
  for (size_t c = 0; c < columns.size(); ++c) {
    if (c > 0) out.push_back(',');
    AppendCsvField(columns[c], &out);
  }
  out.push_back('\n');
  for (const auto& row : rows) {
    for (size_t c = 0; c < row.size(); ++c) {
      if (c > 0) out.push_back(',');
      AppendCsvField(row[c], &out);
    }
    out.push_back('\n');
  }
  return out;
}

DenormalizedSchema DenormalizedSchemaFor(const StructureTemplate& st) {
  TemplateIndex idx;
  IndexTemplate(st.root(), &idx);
  DenormalizedSchema schema;
  schema.leaf_count = idx.leaf_count;
  schema.columns.reserve(static_cast<size_t>(idx.leaf_count));
  for (int i = 0; i < idx.leaf_count; ++i) {
    schema.columns.push_back(StrFormat("f%d", i));
  }
  return schema;
}

DenormalizedRowBuilder::DenormalizedRowBuilder(const StructureTemplate* st)
    : st_(st) {
  TemplateIndex idx;
  IndexTemplate(st_->root(), &idx);
  leaf_count_ = idx.leaf_count;
  cells_.resize(static_cast<size_t>(leaf_count_));
  filled_.resize(static_cast<size_t>(leaf_count_));
}

const std::vector<std::string>& DenormalizedRowBuilder::FillFromEvents(
    std::string_view text, const MatchEvent* events, size_t num_events) {
  for (std::string& cell : cells_) cell.clear();
  std::fill(filled_.begin(), filled_.end(), 0);
  EventCursor cur{events, num_events};
  int leaf = 0;
  FillRowFromEvents(st_->root(), &cur, text, 0, &leaf, &cells_, &filled_);
  return cells_;
}

NormalizedSchema NormalizedSchemaFor(const StructureTemplate& st,
                                     const std::string& name) {
  const NormalizedLayout layout = ComputeNormalizedLayout(st);
  NormalizedSchema schema;
  schema.tables.resize(static_cast<size_t>(layout.array_count) + 1);
  schema.tables[0].name = name;
  schema.tables[0].columns.push_back("id");
  for (int i = 0; i < layout.fields_per_table[0]; ++i) {
    schema.tables[0].columns.push_back(StrFormat("f%d", i));
  }
  for (int a = 1; a <= layout.array_count; ++a) {
    NormalizedSchema::TableSchema& t = schema.tables[static_cast<size_t>(a)];
    t.name = StrFormat("%s_arr%d", name.c_str(), a);
    t.columns = {"id", "parent_id", "pos"};
    for (int i = 0; i < layout.fields_per_table[static_cast<size_t>(a)]; ++i) {
      t.columns.push_back(StrFormat("f%d", i));
    }
  }
  return schema;
}

NormalizedRowBuilder::NormalizedRowBuilder(const StructureTemplate* st)
    : st_(st) {
  NormalizedLayout layout = ComputeNormalizedLayout(*st_);
  fields_.reserve(layout.fields.size());
  for (const NormalizedLayout::FieldSlot& slot : layout.fields) {
    fields_.push_back(FieldSlot{slot.table, slot.column});
  }
  fields_per_table_ = std::move(layout.fields_per_table);
  next_relative_id_.assign(fields_per_table_.size(), 0);
}

size_t NormalizedRowBuilder::AppendRow(int table, int parent_table,
                                       size_t parent_id, size_t pos) {
  if (used_rows_ == rows_.size()) rows_.emplace_back();
  Row& row = rows_[used_rows_];
  row.table = table;
  row.id = next_relative_id_[static_cast<size_t>(table)]++;
  row.parent_table = parent_table;
  row.parent_id = parent_id;
  row.pos = pos;
  row.fields.resize(
      static_cast<size_t>(fields_per_table_[static_cast<size_t>(table)]));
  for (std::string& cell : row.fields) cell.clear();
  return used_rows_++;
}

void NormalizedRowBuilder::Fill(const TemplateNode& node,
                                std::string_view text,
                                const MatchEvent* events, size_t num_events,
                                size_t* cursor, int table, size_t row_index,
                                int* leaf, int* array) {
  switch (node.kind) {
    case NodeKind::kField: {
      const FieldSlot& slot = fields_[static_cast<size_t>((*leaf)++)];
      DM_CHECK(*cursor < num_events);
      const MatchEvent& ev = events[(*cursor)++];
      rows_[row_index].fields[static_cast<size_t>(slot.column)].assign(
          text.substr(ev.begin, ev.end() - ev.begin));
      break;
    }
    case NodeKind::kChar:
      break;
    case NodeKind::kStruct:
      for (const auto& c : node.children) {
        Fill(*c, text, events, num_events, cursor, table, row_index, leaf,
             array);
      }
      break;
    case NodeKind::kArray: {
      const int child_table = ++(*array);
      DM_CHECK(*cursor < num_events);
      const MatchEvent& ev = events[(*cursor)++];
      const size_t parent_relative_id = rows_[row_index].id;
      const int saved_leaf = *leaf;
      const int saved_array = *array;
      for (size_t r = 0; r < ev.count(); ++r) {
        const size_t child_row =
            AppendRow(child_table, table, parent_relative_id, r);
        *leaf = saved_leaf;
        *array = saved_array;
        Fill(*node.children[0], text, events, num_events, cursor, child_table,
             child_row, leaf, array);
      }
      break;
    }
  }
}

const std::vector<NormalizedRowBuilder::Row>&
NormalizedRowBuilder::FillFromEvents(std::string_view text,
                                     const MatchEvent* events,
                                     size_t num_events) {
  used_rows_ = 0;
  std::fill(next_relative_id_.begin(), next_relative_id_.end(), 0);
  const size_t root = AppendRow(0, -1, 0, 0);
  size_t cursor = 0;
  int leaf = 0, array = 0;
  Fill(st_->root(), text, events, num_events, &cursor, 0, root, &leaf,
       &array);
  return rows_;
}

Table DenormalizedTable(const StructureTemplate& st,
                        const std::vector<ExtractedRecord>& records,
                        std::string_view text, int template_id,
                        const std::string& name) {
  DenormalizedSchema schema = DenormalizedSchemaFor(st);
  Table table;
  table.name = name;
  table.columns = std::move(schema.columns);
  for (const ExtractedRecord& rec : records) {
    if (rec.template_id != template_id) continue;
    std::vector<std::string> cells(static_cast<size_t>(schema.leaf_count));
    std::vector<bool> filled(static_cast<size_t>(schema.leaf_count), false);
    int leaf = 0;
    FillDenormalized(st.root(), rec.value, text, 0, &leaf, &cells, &filled);
    table.rows.push_back(std::move(cells));
  }
  return table;
}

std::vector<Table> NormalizedTables(
    const StructureTemplate& st, const std::vector<ExtractedRecord>& records,
    std::string_view text, int template_id, const std::string& name) {
  const NormalizedLayout layout = ComputeNormalizedLayout(st);

  // Names, key columns, and headers come from the shared schema so the
  // collecting and streaming layouts can never drift apart.
  NormalizedSchema schema = NormalizedSchemaFor(st, name);
  std::vector<Table> tables(schema.tables.size());
  for (size_t i = 0; i < tables.size(); ++i) {
    tables[i].name = std::move(schema.tables[i].name);
    tables[i].columns = std::move(schema.tables[i].columns);
  }

  NormalizedBuilder builder{&layout, &tables, text};
  for (const ExtractedRecord& rec : records) {
    if (rec.template_id != template_id) continue;
    Table& root = tables[0];
    size_t row = root.rows.size();
    std::vector<std::string> cells(root.columns.size());
    cells[0] = std::to_string(row);
    root.rows.push_back(std::move(cells));
    int leaf = 0, array = 0;
    builder.Fill(st.root(), rec.value, 0, row, &leaf, &array);
  }
  return tables;
}

}  // namespace datamaran
