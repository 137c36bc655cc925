// A light-weight English suffix stemmer (Porter-style steps 1a/1b/2 subset).
//
// The mining pipeline needs "crashes"/"crashed"/"crashing" to collapse to one
// stem; it does not need linguistic perfection, so this stemmer trades recall
// of exotic suffixes for predictability. It never touches tokens containing
// digits, '_' , '.' or '-' (identifiers, versions, filenames).
#pragma once

#include <string>
#include <string_view>
#include <vector>

namespace faultstudy::text {

/// Returns the stem of a single lowercase token.
std::string stem(std::string_view token);

/// Replaces `token` with its stem; stem(t) is a copy of t passed through
/// this. Allocates only when a rule appends past the string's capacity.
void stem_in_place(std::string& token);

/// Stems every token in place.
std::vector<std::string> stem_all(std::vector<std::string> tokens);

}  // namespace faultstudy::text
