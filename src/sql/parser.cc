#include "src/sql/parser.h"

#include <algorithm>
#include <cctype>

#include "src/common/logging.h"

namespace ursa {

namespace {

enum class TokenKind : int {
  kIdent,
  kNumber,
  kString,
  kSymbol,  // ( ) , . * = != <> < <= > >=
  kEnd,
};

struct Token {
  TokenKind kind = TokenKind::kEnd;
  std::string text;
  SqlValue literal;
};

class Lexer {
 public:
  explicit Lexer(const std::string& input) : input_(input) {}

  bool Next(Token* token, std::string* error) {
    while (pos_ < input_.size() && std::isspace(static_cast<unsigned char>(input_[pos_]))) {
      ++pos_;
    }
    if (pos_ >= input_.size()) {
      token->kind = TokenKind::kEnd;
      token->text.clear();
      return true;
    }
    const char c = input_[pos_];
    if (std::isalpha(static_cast<unsigned char>(c)) || c == '_') {
      size_t end = pos_;
      while (end < input_.size() &&
             (std::isalnum(static_cast<unsigned char>(input_[end])) || input_[end] == '_')) {
        ++end;
      }
      token->kind = TokenKind::kIdent;
      token->text = input_.substr(pos_, end - pos_);
      pos_ = end;
      return true;
    }
    if (std::isdigit(static_cast<unsigned char>(c)) ||
        (c == '-' && pos_ + 1 < input_.size() &&
         std::isdigit(static_cast<unsigned char>(input_[pos_ + 1])))) {
      size_t end = pos_ + 1;
      bool is_double = false;
      while (end < input_.size() &&
             (std::isdigit(static_cast<unsigned char>(input_[end])) || input_[end] == '.')) {
        if (input_[end] == '.') {
          is_double = true;
        }
        ++end;
      }
      token->kind = TokenKind::kNumber;
      token->text = input_.substr(pos_, end - pos_);
      if (is_double) {
        token->literal = std::stod(token->text);
      } else {
        token->literal = static_cast<int64_t>(std::stoll(token->text));
      }
      pos_ = end;
      return true;
    }
    if (c == '\'') {
      size_t end = pos_ + 1;
      while (end < input_.size() && input_[end] != '\'') {
        ++end;
      }
      if (end >= input_.size()) {
        *error = "unterminated string literal";
        return false;
      }
      token->kind = TokenKind::kString;
      token->text = input_.substr(pos_ + 1, end - pos_ - 1);
      token->literal = token->text;
      pos_ = end + 1;
      return true;
    }
    // Multi-char operators first.
    for (const char* op : {"!=", "<>", "<=", ">="}) {
      if (input_.compare(pos_, 2, op) == 0) {
        token->kind = TokenKind::kSymbol;
        token->text = input_.substr(pos_, 2);
        pos_ += 2;
        return true;
      }
    }
    if (std::string("(),.*=<>").find(c) != std::string::npos) {
      token->kind = TokenKind::kSymbol;
      token->text = std::string(1, c);
      ++pos_;
      return true;
    }
    *error = std::string("unexpected character '") + c + "'";
    return false;
  }

 private:
  const std::string& input_;
  size_t pos_ = 0;
};

std::string Upper(std::string s) {
  std::transform(s.begin(), s.end(), s.begin(),
                 [](unsigned char c) { return static_cast<char>(std::toupper(c)); });
  return s;
}

class Parser {
 public:
  explicit Parser(const std::string& input) : lexer_(input) {}

  bool Parse(SelectStatement* out, std::string* error) {
    error_ = error;
    if (!Advance()) {
      return false;
    }
    if (!ExpectKeyword("SELECT")) {
      return false;
    }
    if (!ParseSelectList(out)) {
      return false;
    }
    if (!ExpectKeyword("FROM")) {
      return false;
    }
    if (!ParseIdent(&out->from_table)) {
      return false;
    }
    while (IsKeyword("JOIN")) {
      if (!Advance()) {
        return false;
      }
      JoinClause join;
      if (!ParseIdent(&join.table) || !ExpectKeyword("ON")) {
        return false;
      }
      if (!ParseQualifiedIdent(&join.left_column)) {
        return false;
      }
      if (!ExpectSymbol("=")) {
        return false;
      }
      if (!ParseQualifiedIdent(&join.right_column)) {
        return false;
      }
      out->joins.push_back(std::move(join));
    }
    if (IsKeyword("WHERE")) {
      if (!Advance() || !ParseWhere(out)) {
        return false;
      }
    }
    if (IsKeyword("GROUP")) {
      if (!Advance() || !ExpectKeyword("BY")) {
        return false;
      }
      do {
        std::string column;
        if (!ParseQualifiedIdent(&column)) {
          return false;
        }
        out->group_by.push_back(std::move(column));
      } while (ConsumeSymbol(","));
    }
    if (IsKeyword("ORDER")) {
      if (!Advance() || !ExpectKeyword("BY")) {
        return false;
      }
      OrderBy order;
      if (!ParseQualifiedIdent(&order.column)) {
        return false;
      }
      if (IsKeyword("DESC")) {
        order.descending = true;
        if (!Advance()) {
          return false;
        }
      } else if (IsKeyword("ASC")) {
        if (!Advance()) {
          return false;
        }
      }
      out->order_by = std::move(order);
    }
    if (IsKeyword("LIMIT")) {
      if (!Advance()) {
        return false;
      }
      if (token_.kind != TokenKind::kNumber ||
          !std::holds_alternative<int64_t>(token_.literal)) {
        return Fail("LIMIT requires an integer");
      }
      out->limit = std::get<int64_t>(token_.literal);
      if (!Advance()) {
        return false;
      }
    }
    if (token_.kind != TokenKind::kEnd) {
      return Fail("unexpected trailing input: " + token_.text);
    }
    return true;
  }

 private:
  bool Fail(const std::string& message) {
    *error_ = message;
    return false;
  }

  bool Advance() {
    std::string lex_error;
    if (!lexer_.Next(&token_, &lex_error)) {
      return Fail(lex_error);
    }
    return true;
  }

  bool IsKeyword(const std::string& keyword) const {
    return token_.kind == TokenKind::kIdent && Upper(token_.text) == keyword;
  }

  bool ExpectKeyword(const std::string& keyword) {
    if (!IsKeyword(keyword)) {
      return Fail("expected " + keyword + ", got '" + token_.text + "'");
    }
    return Advance();
  }

  bool ExpectSymbol(const std::string& symbol) {
    if (token_.kind != TokenKind::kSymbol || token_.text != symbol) {
      return Fail("expected '" + symbol + "', got '" + token_.text + "'");
    }
    return Advance();
  }

  bool ConsumeSymbol(const std::string& symbol) {
    if (token_.kind == TokenKind::kSymbol && token_.text == symbol) {
      return Advance();
    }
    return false;
  }

  bool ParseIdent(std::string* out) {
    if (token_.kind != TokenKind::kIdent) {
      return Fail("expected identifier, got '" + token_.text + "'");
    }
    *out = token_.text;
    return Advance();
  }

  // table.column or column; stored as written (resolution handles both).
  bool ParseQualifiedIdent(std::string* out) {
    if (!ParseIdent(out)) {
      return false;
    }
    if (token_.kind == TokenKind::kSymbol && token_.text == ".") {
      if (!Advance()) {
        return false;
      }
      std::string rest;
      if (!ParseIdent(&rest)) {
        return false;
      }
      *out += "." + rest;
    }
    return true;
  }

  bool ParseSelectList(SelectStatement* out) {
    if (ConsumeSymbol("*")) {
      return true;  // Empty items list = SELECT *.
    }
    do {
      SelectItem item;
      static const struct {
        const char* name;
        AggFn fn;
      } kAggs[] = {{"COUNT", AggFn::kCount}, {"SUM", AggFn::kSum},   {"MIN", AggFn::kMin},
                   {"MAX", AggFn::kMax},     {"AVG", AggFn::kAvg}};
      bool is_agg = false;
      for (const auto& agg : kAggs) {
        if (IsKeyword(agg.name)) {
          item.agg = agg.fn;
          item.alias = Upper(token_.text);
          if (!Advance() || !ExpectSymbol("(")) {
            return false;
          }
          if (item.agg == AggFn::kCount && ConsumeSymbol("*")) {
            item.column.clear();
          } else {
            if (!ParseQualifiedIdent(&item.column)) {
              return false;
            }
          }
          if (!ExpectSymbol(")")) {
            return false;
          }
          item.alias += "(" + item.column + ")";
          is_agg = true;
          break;
        }
      }
      if (!is_agg) {
        if (!ParseQualifiedIdent(&item.column)) {
          return false;
        }
        item.alias = item.column;
      }
      if (IsKeyword("AS")) {
        if (!Advance() || !ParseIdent(&item.alias)) {
          return false;
        }
      }
      out->items.push_back(std::move(item));
    } while (ConsumeSymbol(","));
    return true;
  }

  bool ParseWhere(SelectStatement* out) {
    do {
      Predicate pred;
      if (!ParseQualifiedIdent(&pred.column)) {
        return false;
      }
      if (token_.kind != TokenKind::kSymbol) {
        return Fail("expected comparison operator");
      }
      const std::string op = token_.text;
      if (op == "=") {
        pred.op = CompareOp::kEq;
      } else if (op == "!=" || op == "<>") {
        pred.op = CompareOp::kNe;
      } else if (op == "<") {
        pred.op = CompareOp::kLt;
      } else if (op == "<=") {
        pred.op = CompareOp::kLe;
      } else if (op == ">") {
        pred.op = CompareOp::kGt;
      } else if (op == ">=") {
        pred.op = CompareOp::kGe;
      } else {
        return Fail("unknown operator '" + op + "'");
      }
      if (!Advance()) {
        return false;
      }
      if (token_.kind == TokenKind::kNumber || token_.kind == TokenKind::kString) {
        pred.literal = token_.literal;
        if (!Advance()) {
          return false;
        }
      } else {
        return Fail("expected literal after comparison");
      }
      out->where.push_back(std::move(pred));
    } while (IsKeyword("AND") && Advance());
    return true;
  }

  Lexer lexer_;
  Token token_;
  std::string* error_ = nullptr;
};

}  // namespace

bool TryParseSql(const std::string& query, SelectStatement* out, std::string* error) {
  Parser parser(query);
  return parser.Parse(out, error);
}

SelectStatement ParseSql(const std::string& query) {
  SelectStatement statement;
  std::string error;
  CHECK(TryParseSql(query, &statement, &error)) << "SQL syntax error: " << error
                                                << " in: " << query;
  return statement;
}

}  // namespace ursa
