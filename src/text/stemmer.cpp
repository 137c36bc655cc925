#include "text/stemmer.hpp"

#include <algorithm>

#include "util/strings.hpp"

namespace faultstudy::text {

namespace {

using util::ends_with;

bool plain_alpha(std::string_view t) {
  return std::all_of(t.begin(), t.end(), util::ascii::is_alpha);
}

bool is_vowel(char c) {
  return c == 'a' || c == 'e' || c == 'i' || c == 'o' || c == 'u';
}

bool has_vowel(std::string_view t) {
  for (char c : t) {
    if (is_vowel(c)) return true;
  }
  return false;
}

}  // namespace

void stem_in_place(std::string& t) {
  if (t.size() < 4 || !plain_alpha(t)) return;

  // Step 1a: plurals. sses->ss, ies->i, s-> (but not ss).
  if (ends_with(t, "sses")) {
    t.resize(t.size() - 2);
  } else if (ends_with(t, "ies")) {
    t.resize(t.size() - 2);  // "dies" -> "di", matching "died" -> "di"
  } else if (ends_with(t, "s") && !ends_with(t, "ss") && !ends_with(t, "us")) {
    t.resize(t.size() - 1);
  }

  // Step 1b: -ed / -ing when a vowel precedes the suffix.
  auto strip_if_vowel_stem = [&](std::string_view suffix) {
    if (!ends_with(t, suffix)) return false;
    const std::string_view stem_part(t.data(), t.size() - suffix.size());
    if (stem_part.size() < 2 || !has_vowel(stem_part)) return false;
    t.resize(stem_part.size());
    return true;
  };
  if (strip_if_vowel_stem("ing") || strip_if_vowel_stem("ed")) {
    // Undouble final consonant ("stopped"->"stop", "hanging"->"hang" is
    // already fine) except for l/s/z where doubling is meaningful.
    if (t.size() >= 3 && t[t.size() - 1] == t[t.size() - 2] &&
        !is_vowel(t.back()) && t.back() != 'l' && t.back() != 's' &&
        t.back() != 'z') {
      t.resize(t.size() - 1);
    }
    // Restore a trailing 'e' for C-V-C+e stems ("crashe" stays stripped, but
    // "creat(ed)" -> "create" via the common -at -> -ate rule).
    if (ends_with(t, "at") || ends_with(t, "bl") || ends_with(t, "iz")) {
      t += 'e';
    }
  }

  // Step 2 subset: common derivational suffixes seen in bug prose.
  struct Rule {
    std::string_view from, to;
  };
  static constexpr Rule kRules[] = {
      {"ization", "ize"}, {"ational", "ate"}, {"fulness", "ful"},
      {"ousness", "ous"}, {"iveness", "ive"}, {"tional", "tion"},
      {"biliti", "ble"},  {"ation", "ate"},   {"alism", "al"},
      {"aliti", "al"},    {"iviti", "ive"},   {"ment", "ment"},
  };
  for (const auto& r : kRules) {
    if (ends_with(t, r.from) && t.size() - r.from.size() >= 2) {
      t.resize(t.size() - r.from.size());
      t += r.to;
      break;
    }
  }

  // Final -e removal for length >= 5 ("crashe" would not arise, but
  // "segfaulte" style artifacts collapse).
  if (t.size() >= 5 && t.back() == 'e' && !is_vowel(t[t.size() - 2])) {
    t.resize(t.size() - 1);
  }
}

std::string stem(std::string_view token) {
  std::string t(token);
  stem_in_place(t);
  return t;
}

std::vector<std::string> stem_all(std::vector<std::string> tokens) {
  for (auto& t : tokens) stem_in_place(t);
  return tokens;
}

}  // namespace faultstudy::text
