#include "apps/sql/lexer.hpp"

#include <cctype>
#include <charconv>
#include <unordered_set>

namespace faultstudy::apps::sql {

bool is_keyword(std::string_view upper) {
  static const std::unordered_set<std::string_view> kKeywords = {
      "SELECT", "FROM",  "WHERE",  "ORDER",    "BY",     "INSERT", "INTO",
      "VALUES", "UPDATE", "SET",   "DELETE",   "COUNT",  "CREATE", "TABLE",
      "INT",    "TEXT",  "AND",    "LIMIT",    "OPTIMIZE", "FLUSH", "TABLES",
      "LOCK",   "UNLOCK", "WRITE", "READ",     "ASC",    "DESC",
  };
  return kKeywords.contains(upper);
}

util::Result<std::vector<Token>> lex(std::string_view sql) {
  std::vector<Token> out;
  std::size_t i = 0;
  const auto peek = [&](std::size_t k = 0) -> char {
    return i + k < sql.size() ? sql[i + k] : '\0';
  };

  while (i < sql.size()) {
    const char c = sql[i];
    if (std::isspace(static_cast<unsigned char>(c))) {
      ++i;
      continue;
    }
    if (std::isalpha(static_cast<unsigned char>(c)) || c == '_') {
      std::string word;
      while (i < sql.size() &&
             (std::isalnum(static_cast<unsigned char>(sql[i])) ||
              sql[i] == '_')) {
        word += sql[i++];
      }
      std::string upper = word;
      for (char& ch : upper) ch = static_cast<char>(std::toupper(static_cast<unsigned char>(ch)));
      Token t;
      if (is_keyword(upper)) {
        t.kind = TokenKind::kKeyword;
        t.text = upper;
      } else {
        t.kind = TokenKind::kIdentifier;
        t.text = word;
      }
      out.push_back(std::move(t));
      continue;
    }
    if (std::isdigit(static_cast<unsigned char>(c)) ||
        (c == '-' && std::isdigit(static_cast<unsigned char>(peek(1))))) {
      std::string num;
      num += sql[i++];
      while (i < sql.size() && std::isdigit(static_cast<unsigned char>(sql[i]))) {
        num += sql[i++];
      }
      Token t;
      t.kind = TokenKind::kInteger;
      const auto parsed =
          std::from_chars(num.data(), num.data() + num.size(), t.number);
      if (parsed.ec != std::errc()) {
        return util::Err{std::string("integer literal out of range")};
      }
      t.text = std::move(num);
      out.push_back(std::move(t));
      continue;
    }
    if (c == '\'') {
      ++i;
      std::string body;
      while (i < sql.size() && sql[i] != '\'') body += sql[i++];
      if (i >= sql.size()) return util::Err{std::string("unterminated string literal")};
      ++i;  // closing quote
      Token t;
      t.kind = TokenKind::kString;
      t.text = std::move(body);
      out.push_back(std::move(t));
      continue;
    }
    // Two-character comparison operators first.
    if ((c == '<' || c == '>' || c == '!') && peek(1) == '=') {
      Token t;
      t.kind = TokenKind::kSymbol;
      t.text = std::string{c, '='};
      out.push_back(std::move(t));
      i += 2;
      continue;
    }
    if (std::string_view("(),;*=<>").find(c) != std::string_view::npos) {
      Token t;
      t.kind = TokenKind::kSymbol;
      t.text = std::string(1, c);
      out.push_back(std::move(t));
      ++i;
      continue;
    }
    return util::Err{"unexpected character '" + std::string(1, c) + "'"};
  }
  out.push_back(Token{});  // kEnd
  return out;
}

}  // namespace faultstudy::apps::sql
