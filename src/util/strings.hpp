// Small string utilities shared across the text-mining pipeline and the
// report renderers. All functions are pure and allocate only when the result
// requires it.
#pragma once

#include <string>
#include <string_view>
#include <vector>

namespace faultstudy::util {

/// Splits on a single separator character; empty fields are preserved.
std::vector<std::string_view> split(std::string_view s, char sep);

/// Splits on any run of ASCII whitespace; no empty fields.
std::vector<std::string_view> split_ws(std::string_view s);

std::string join(const std::vector<std::string>& parts, std::string_view sep);

std::string_view trim(std::string_view s);

/// ASCII character classes: only A-Z and a-z are letters and only 0-9 are
/// digits; every byte >= 0x80 is neither. This is what <cctype> answers in
/// the "C" locale, which the program never leaves (it calls no setlocale),
/// without a locale lookup per byte. Every case fold in util/ and text/
/// goes through ascii::to_lower.
namespace ascii {
constexpr bool is_lower(char c) noexcept { return c >= 'a' && c <= 'z'; }
constexpr bool is_upper(char c) noexcept { return c >= 'A' && c <= 'Z'; }
constexpr bool is_alpha(char c) noexcept { return is_lower(c) || is_upper(c); }
constexpr bool is_digit(char c) noexcept { return c >= '0' && c <= '9'; }
constexpr bool is_alnum(char c) noexcept { return is_alpha(c) || is_digit(c); }
constexpr char to_lower(char c) noexcept {
  return is_upper(c) ? static_cast<char>(c - 'A' + 'a') : c;
}
}  // namespace ascii

/// Lowercases A-Z in place; every other byte is kept.
inline void to_lower_in_place(std::string& s) noexcept {
  for (char& c : s) c = ascii::to_lower(c);
}

std::string to_lower(std::string_view s);

inline bool starts_with(std::string_view s, std::string_view prefix) {
  return s.size() >= prefix.size() && s.substr(0, prefix.size()) == prefix;
}
inline bool ends_with(std::string_view s, std::string_view suffix) {
  return s.size() >= suffix.size() &&
         s.substr(s.size() - suffix.size()) == suffix;
}

/// Case-insensitive substring test (ASCII).
bool icontains(std::string_view haystack, std::string_view needle);

/// Replaces every occurrence of `from` with `to`.
std::string replace_all(std::string_view s, std::string_view from,
                        std::string_view to);

/// Left-pads / right-pads with spaces to at least `width` columns.
std::string pad_left(std::string_view s, std::size_t width);
std::string pad_right(std::string_view s, std::size_t width);

/// Formats a double with `digits` places after the point (no locale).
std::string fixed(double v, int digits);

/// Formats a proportion as a percentage string, e.g. 0.1234 -> "12.3%".
std::string percent(double fraction, int digits = 1);

}  // namespace faultstudy::util
