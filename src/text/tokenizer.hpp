// Tokenization for bug-report text.
//
// Bug reports mix prose with code fragments, version numbers, signal names,
// and URLs; the tokenizer keeps tokens like "sigsegv", "va_list" and "2.0.36"
// intact because they carry most of the classification signal.
#pragma once

#include <algorithm>
#include <string>
#include <string_view>
#include <vector>

#include "util/strings.hpp"

namespace faultstudy::text {

struct TokenizerOptions {
  bool lowercase = true;
  bool keep_numbers = true;
  /// Drop tokens shorter than this many characters after normalization.
  std::size_t min_length = 2;
};

/// Calls f(std::string& token) for each token of `input` in order, the token
/// normalized into the caller's reused `scratch` (f may modify it). f returns
/// false to stop early. A token is a maximal run of [A-Za-z0-9_] optionally
/// containing internal '.' or '-' when flanked by alphanumerics (so
/// "2.0.36", "va_list" and "tar.gz" each survive as one token). Bytes >= 0x80
/// separate tokens.
template <class F>
void for_each_token(std::string_view input, const TokenizerOptions& options,
                    std::string& scratch, F&& f) {
  const auto is_word_char = [](char c) {
    return util::ascii::is_alnum(c) || c == '_';
  };
  const std::size_t n = input.size();
  std::size_t i = 0;
  while (i < n) {
    if (!is_word_char(input[i])) {
      ++i;
      continue;
    }
    const std::size_t start = i;
    while (i < n) {
      if (is_word_char(input[i])) {
        ++i;
      } else if ((input[i] == '.' || input[i] == '-') && i + 1 < n &&
                 is_word_char(input[i + 1])) {
        i += 2;  // joiner plus the character that legitimized it
      } else {
        break;
      }
    }
    // Normalization keeps a token's length and its letters, so both tests
    // run on the raw bytes, before the copy.
    const std::string_view raw = input.substr(start, i - start);
    if (raw.size() < options.min_length) continue;
    if (!options.keep_numbers &&
        std::none_of(raw.begin(), raw.end(), util::ascii::is_alpha)) {
      continue;
    }
    scratch.assign(raw);
    if (options.lowercase) util::to_lower_in_place(scratch);
    if (!f(scratch)) return;
  }
}

/// Every token of `input` (see for_each_token), as owned strings.
std::vector<std::string> tokenize(std::string_view input,
                                  const TokenizerOptions& options = {});

/// Contiguous word n-grams over a token sequence, joined with '_'.
/// n must be >= 1; returns empty when tokens.size() < n.
std::vector<std::string> ngrams(const std::vector<std::string>& tokens,
                                std::size_t n);

}  // namespace faultstudy::text
