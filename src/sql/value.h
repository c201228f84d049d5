// Value/row/schema model for the SQL layer (section 4.1.2: Ursa provides
// SQL on top of its primitives; this reproduction ships a self-contained
// engine instead of the paper's Hive plug-in, which contributes parsing but
// no scheduling behaviour).
#ifndef SRC_SQL_VALUE_H_
#define SRC_SQL_VALUE_H_

#include <cstdint>
#include <cstdio>
#include <functional>
#include <string>
#include <variant>
#include <vector>

#include "src/common/logging.h"

namespace ursa {

enum class SqlType : int {
  kInt64 = 0,
  kDouble = 1,
  kString = 2,
};

using SqlValue = std::variant<int64_t, double, std::string>;
using SqlRow = std::vector<SqlValue>;

// Three-way comparison usable across int64/double (numeric promotion);
// strings compare lexicographically and only with strings.
inline int CompareValues(const SqlValue& a, const SqlValue& b) {
  if (std::holds_alternative<std::string>(a) || std::holds_alternative<std::string>(b)) {
    CHECK(std::holds_alternative<std::string>(a) && std::holds_alternative<std::string>(b))
        << "comparing string with non-string";
    const auto& sa = std::get<std::string>(a);
    const auto& sb = std::get<std::string>(b);
    return sa < sb ? -1 : (sa == sb ? 0 : 1);
  }
  const double da =
      std::holds_alternative<int64_t>(a) ? static_cast<double>(std::get<int64_t>(a))
                                         : std::get<double>(a);
  const double db =
      std::holds_alternative<int64_t>(b) ? static_cast<double>(std::get<int64_t>(b))
                                         : std::get<double>(b);
  return da < db ? -1 : (da == db ? 0 : 1);
}

inline double ToDouble(const SqlValue& value) {
  if (std::holds_alternative<int64_t>(value)) {
    return static_cast<double>(std::get<int64_t>(value));
  }
  CHECK(std::holds_alternative<double>(value)) << "numeric value required";
  return std::get<double>(value);
}

inline std::string ToDisplayString(const SqlValue& value) {
  if (std::holds_alternative<int64_t>(value)) {
    return std::to_string(std::get<int64_t>(value));
  }
  if (std::holds_alternative<double>(value)) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%g", std::get<double>(value));
    return buf;
  }
  return std::get<std::string>(value);
}

// Hash for shuffle partitioning.
inline size_t HashValue(const SqlValue& value) {
  if (std::holds_alternative<int64_t>(value)) {
    return std::hash<int64_t>{}(std::get<int64_t>(value));
  }
  if (std::holds_alternative<double>(value)) {
    return std::hash<double>{}(std::get<double>(value));
  }
  return std::hash<std::string>{}(std::get<std::string>(value));
}

struct SqlColumn {
  std::string name;
  SqlType type = SqlType::kInt64;
};

struct SqlSchema {
  std::vector<SqlColumn> columns;
};

}  // namespace ursa

#endif  // SRC_SQL_VALUE_H_
