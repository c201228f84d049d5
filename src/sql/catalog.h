// In-memory catalog of partitioned SQL tables.
#ifndef SRC_SQL_CATALOG_H_
#define SRC_SQL_CATALOG_H_

#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/sql/value.h"

namespace ursa {

struct SqlTable {
  std::string name;
  SqlSchema schema;
  std::vector<std::vector<SqlRow>> partitions;

  // Rough byte size used to seed simulator cost models.
  double approx_bytes() const;
};

class SqlCatalog {
 public:
  // Registers a table; rows are hash-distributed into `partitions` by the
  // first column.
  void CreateTable(const std::string& name, SqlSchema schema, std::vector<SqlRow> rows,
                   int partitions);

  bool Has(const std::string& name) const { return tables_.count(name) > 0; }
  const SqlTable& Get(const std::string& name) const;

 private:
  std::unordered_map<std::string, SqlTable> tables_;
};

}  // namespace ursa

#endif  // SRC_SQL_CATALOG_H_
