#include "src/sql/catalog.h"

#include "src/common/logging.h"

namespace ursa {

double SqlTable::approx_bytes() const {
  double bytes = 0.0;
  for (const auto& partition : partitions) {
    for (const SqlRow& row : partition) {
      for (const SqlValue& value : row) {
        if (std::holds_alternative<std::string>(value)) {
          bytes += 16.0 + static_cast<double>(std::get<std::string>(value).size());
        } else {
          bytes += 8.0;
        }
      }
    }
  }
  return bytes;
}

void SqlCatalog::CreateTable(const std::string& name, SqlSchema schema,
                             std::vector<SqlRow> rows, int partitions) {
  CHECK_GT(partitions, 0);
  CHECK(!Has(name)) << "table " << name << " already exists";
  SqlTable table;
  table.name = name;
  table.schema = std::move(schema);
  table.partitions.resize(static_cast<size_t>(partitions));
  for (SqlRow& row : rows) {
    CHECK_EQ(row.size(), table.schema.columns.size()) << "row arity mismatch in " << name;
    const size_t p = row.empty() ? 0 : HashValue(row[0]) % static_cast<size_t>(partitions);
    table.partitions[p].push_back(std::move(row));
  }
  tables_.emplace(name, std::move(table));
}

const SqlTable& SqlCatalog::Get(const std::string& name) const {
  auto it = tables_.find(name);
  CHECK(it != tables_.end()) << "unknown table: " << name;
  return it->second;
}

}  // namespace ursa
