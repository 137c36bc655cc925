// Unit tests for the text substrate: tokenizer, stopwords, stemmer, TF-IDF,
// MinHash (including the Jaccard-estimation property).
#include <gtest/gtest.h>

#include <cctype>
#include <cmath>

#include "text/minhash.hpp"
#include "text/stemmer.hpp"
#include "text/stopwords.hpp"
#include "text/tfidf.hpp"
#include "text/tokenizer.hpp"
#include "util/rng.hpp"

namespace faultstudy::text {
namespace {

// ------------------------------------------------------------- tokenizer

TEST(Tokenizer, BasicWords) {
  const auto t = tokenize("The server crashed hard");
  EXPECT_EQ(t, (std::vector<std::string>{"the", "server", "crashed", "hard"}));
}

TEST(Tokenizer, KeepsVersionsAndIdentifiers) {
  const auto t = tokenize("Apache 2.0.36 uses va_list in ap_log_rerror");
  EXPECT_NE(std::find(t.begin(), t.end(), "2.0.36"), t.end());
  EXPECT_NE(std::find(t.begin(), t.end(), "va_list"), t.end());
  EXPECT_NE(std::find(t.begin(), t.end(), "ap_log_rerror"), t.end());
}

TEST(Tokenizer, KeepsCompoundFilenames) {
  const auto t = tokenize("double-clicking a tar.gz file");
  EXPECT_NE(std::find(t.begin(), t.end(), "tar.gz"), t.end());
  EXPECT_NE(std::find(t.begin(), t.end(), "double-clicking"), t.end());
}

TEST(Tokenizer, TrailingJoinerNotAbsorbed) {
  const auto t = tokenize("end of sentence.");
  EXPECT_NE(std::find(t.begin(), t.end(), "sentence"), t.end());
  EXPECT_EQ(std::find(t.begin(), t.end(), "sentence."), t.end());
}

TEST(Tokenizer, MinLengthDropsShortTokens) {
  TokenizerOptions opt;
  opt.min_length = 3;
  const auto t = tokenize("an ox is big", opt);
  EXPECT_EQ(t, (std::vector<std::string>{"big"}));
}

TEST(Tokenizer, NoLowercaseOption) {
  TokenizerOptions opt;
  opt.lowercase = false;
  const auto t = tokenize("SIGHUP", opt);
  ASSERT_EQ(t.size(), 1u);
  EXPECT_EQ(t[0], "SIGHUP");
}

TEST(Tokenizer, DropNumbersOption) {
  TokenizerOptions opt;
  opt.keep_numbers = false;
  const auto t = tokenize("error 404 found 1.2.3", opt);
  EXPECT_EQ(t, (std::vector<std::string>{"error", "found"}));
}

TEST(Tokenizer, EmptyInput) {
  EXPECT_TRUE(tokenize("").empty());
  EXPECT_TRUE(tokenize("!!! ??? ...").empty());
}

TEST(Ngrams, Bigrams) {
  const auto grams = ngrams({"race", "condition", "hit"}, 2);
  EXPECT_EQ(grams,
            (std::vector<std::string>{"race_condition", "condition_hit"}));
}

TEST(Ngrams, DegenerateCases) {
  EXPECT_TRUE(ngrams({"one"}, 2).empty());
  EXPECT_TRUE(ngrams({}, 1).empty());
  EXPECT_TRUE(ngrams({"a", "b"}, 0).empty());
  EXPECT_EQ(ngrams({"a", "b"}, 1), (std::vector<std::string>{"a", "b"}));
}

// ------------------------------------------------------------- stopwords

TEST(Stopwords, CommonWordsStopped) {
  EXPECT_TRUE(is_stopword("the"));
  EXPECT_TRUE(is_stopword("and"));
  EXPECT_TRUE(is_stopword("would"));
}

TEST(Stopwords, DomainWordsKept) {
  // These carry signal in this corpus and must NOT be stopped.
  EXPECT_FALSE(is_stopword("out"));
  EXPECT_FALSE(is_stopword("full"));
  EXPECT_FALSE(is_stopword("long"));
  EXPECT_FALSE(is_stopword("crash"));
}

TEST(Stopwords, RemovePreservesOrder) {
  const auto t = remove_stopwords({"the", "server", "is", "down"});
  EXPECT_EQ(t, (std::vector<std::string>{"server", "down"}));
}

// --------------------------------------------------------------- stemmer

TEST(Stemmer, CollapsesMorphologicalVariants) {
  EXPECT_EQ(stem("crashes"), stem("crashed"));
  EXPECT_EQ(stem("crashes"), stem("crashing"));
  EXPECT_EQ(stem("hangs"), stem("hanging"));
}

TEST(Stemmer, DiedMatchesDies) {
  EXPECT_EQ(stem("died"), stem("dies"));
}

TEST(Stemmer, LeavesIdentifiersAlone) {
  EXPECT_EQ(stem("va_list"), "va_list");
  EXPECT_EQ(stem("1.3.0"), "1.3.0");
  EXPECT_EQ(stem("tar.gz"), "tar.gz");
}

TEST(Stemmer, LeavesShortTokensAlone) {
  EXPECT_EQ(stem("is"), "is");
  EXPECT_EQ(stem("bug"), "bug");
}

TEST(Stemmer, UndoublesConsonants) {
  EXPECT_EQ(stem("stopped"), "stop");
  EXPECT_EQ(stem("stopping"), "stop");
}

TEST(Stemmer, DerivationalSuffixes) {
  EXPECT_EQ(stem("initialization"), stem("initialize"));
}

TEST(Stemmer, StemAllMapsEveryToken) {
  const auto t = stem_all({"crashes", "running"});
  EXPECT_EQ(t.size(), 2u);
  EXPECT_EQ(t[0], stem("crashes"));
}

// ------------------------------------------ differential: text vs <cctype>

// The tokenizer and stemmer as they were before they moved to ASCII range
// tests and a reused buffer, kept verbatim as the reference the current
// ones must equal byte for byte.
namespace reference {

bool is_word_char(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) || c == '_';
}
bool is_joiner(char c) { return c == '.' || c == '-'; }

std::vector<std::string> tokenize(std::string_view input,
                                  const TokenizerOptions& options) {
  std::vector<std::string> tokens;
  std::size_t i = 0;
  while (i < input.size()) {
    if (!is_word_char(input[i])) {
      ++i;
      continue;
    }
    const std::size_t start = i;
    while (i < input.size()) {
      if (is_word_char(input[i])) {
        ++i;
      } else if (is_joiner(input[i]) && i + 1 < input.size() &&
                 is_word_char(input[i + 1])) {
        i += 2;  // joiner plus the character that legitimized it
      } else {
        break;
      }
    }
    std::string tok(input.substr(start, i - start));
    if (options.lowercase) {
      for (char& c : tok) c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
    }
    if (!options.keep_numbers) {
      bool all_digit_or_punct = true;
      for (char c : tok) {
        if (std::isalpha(static_cast<unsigned char>(c))) {
          all_digit_or_punct = false;
          break;
        }
      }
      if (all_digit_or_punct) continue;
    }
    if (tok.size() >= options.min_length) tokens.push_back(std::move(tok));
  }
  return tokens;
}

bool plain_alpha(std::string_view t) {
  for (char c : t) {
    if (!std::isalpha(static_cast<unsigned char>(c))) return false;
  }
  return true;
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

bool ends(std::string_view t, std::string_view suffix) {
  return t.size() >= suffix.size() &&
         t.substr(t.size() - suffix.size()) == suffix;
}

std::string stem(std::string_view token) {
  if (token.size() < 4 || !plain_alpha(token)) return std::string(token);
  std::string t(token);

  if (ends(t, "sses")) {
    t.resize(t.size() - 2);
  } else if (ends(t, "ies")) {
    t.resize(t.size() - 2);
  } else if (ends(t, "s") && !ends(t, "ss") && !ends(t, "us")) {
    t.resize(t.size() - 1);
  }

  auto strip_if_vowel_stem = [&](std::string_view suffix) {
    if (!ends(t, suffix)) return false;
    const std::string_view stem_part(t.data(), t.size() - suffix.size());
    if (stem_part.size() < 2 || !has_vowel(stem_part)) return false;
    t.resize(stem_part.size());
    return true;
  };
  if (strip_if_vowel_stem("ing") || strip_if_vowel_stem("ed")) {
    if (t.size() >= 3 && t[t.size() - 1] == t[t.size() - 2] &&
        !is_vowel(t.back()) && t.back() != 'l' && t.back() != 's' &&
        t.back() != 'z') {
      t.resize(t.size() - 1);
    }
    if (ends(t, "at") || ends(t, "bl") || ends(t, "iz")) t += 'e';
  }

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
    if (ends(t, r.from) && t.size() - r.from.size() >= 2) {
      t.resize(t.size() - r.from.size());
      t += r.to;
      break;
    }
  }

  if (t.size() >= 5 && t.back() == 'e' && !is_vowel(t[t.size() - 2])) {
    t.resize(t.size() - 1);
  }
  return t;
}

}  // namespace reference

/// A random word: a stem of letters (either case, sometimes a digit, '_' or
/// a byte >= 0x80) plus, often, one of the suffixes the stemmer rewrites.
std::string random_word(util::Rng& rng) {
  static constexpr std::string_view kSuffixes[] = {
      "s",       "ss",      "sses",    "ies",     "us",     "ing",
      "ed",      "ated",    "bling",   "izing",   "pped",   "lled",
      "ization", "ational", "fulness", "ousness", "iveness", "tional",
      "biliti",  "ation",   "alism",   "aliti",   "iviti",  "ment",
      "e",       "ee",      "INGS",    "Ed"};
  static constexpr std::string_view kLetters =
      "abcdefghijklmnopqrstuvwxyzaeiouAEIOUBCDXYZ";
  std::string w;
  const std::size_t len = 1 + rng.below(7);
  for (std::size_t i = 0; i < len; ++i) {
    const std::uint64_t pick = rng.below(40);
    if (pick == 0) {
      w += static_cast<char>('0' + rng.below(10));
    } else if (pick == 1) {
      w += '_';
    } else if (pick == 2) {
      w += static_cast<char>(0x80 + rng.below(128));
    } else {
      w += kLetters[rng.below(kLetters.size())];
    }
  }
  if (rng.below(3) != 0) w += kSuffixes[rng.below(std::size(kSuffixes))];
  return w;
}

/// Random text: words, numbers and identifiers separated by spaces,
/// punctuation, '.'/'-' joiners (inside words and at their edges) and
/// bytes >= 0x80.
std::string random_text(util::Rng& rng) {
  static constexpr std::string_view kSeparators[] = {
      " ", "  ", "\n", ", ", ".", "-", " .", "- ", "..", "--", "!", "(", ")",
      "/", ":", "\t", "\xc3\xa9", "\xff", "\x80", "_", "'"};
  std::string text;
  const std::size_t words = rng.below(24);
  for (std::size_t i = 0; i < words; ++i) {
    if (rng.below(4) == 0) {
      text += kSeparators[rng.below(std::size(kSeparators))];
    }
    text += random_word(rng);
    const std::uint64_t join = rng.below(8);
    if (join == 0) {
      text += '.';  // "tar.gz", "2.0.36" or a trailing '.'
    } else if (join == 1) {
      text += '-';
    } else {
      text += kSeparators[rng.below(std::size(kSeparators))];
    }
  }
  return text;
}

TEST(TextDifferential, TokenizeMatchesReferenceForEveryOption) {
  util::Rng rng(20260621);
  for (int round = 0; round < 400; ++round) {
    const std::string text = random_text(rng);
    for (const bool lowercase : {true, false}) {
      for (const bool keep_numbers : {true, false}) {
        for (const std::size_t min_length : {0u, 1u, 2u, 3u, 5u}) {
          const TokenizerOptions opt{lowercase, keep_numbers, min_length};
          ASSERT_EQ(tokenize(text, opt), reference::tokenize(text, opt))
              << "input: " << text << " lowercase=" << lowercase
              << " keep_numbers=" << keep_numbers
              << " min_length=" << min_length;
        }
      }
    }
  }
}

TEST(TextDifferential, StemInPlaceMatchesStemAndReference) {
  util::Rng rng(4400);
  for (int round = 0; round < 20000; ++round) {
    const std::string word = random_word(rng);
    // Tokens as the pipeline stems them (lowercased) and as given.
    std::string lowered = word;
    for (char& c : lowered) {
      c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
    }
    for (const std::string& token : {word, lowered}) {
      std::string in_place = token;
      stem_in_place(in_place);
      ASSERT_EQ(in_place, stem(token)) << "token: " << token;
      ASSERT_EQ(in_place, reference::stem(token)) << "token: " << token;
    }
  }
}

TEST(TextDifferential, TokenizedStemsMatchReference) {
  util::Rng rng(99);
  for (int round = 0; round < 400; ++round) {
    const std::string text = random_text(rng);
    std::vector<std::string> expected;
    for (const auto& tok : reference::tokenize(text, {})) {
      expected.push_back(reference::stem(tok));
    }
    EXPECT_EQ(stem_all(tokenize(text)), expected) << "input: " << text;
  }
}

TEST(Tokenizer, ForEachTokenStopsWhenToldAndReusesScratch) {
  std::string scratch;
  std::vector<std::string> seen;
  for_each_token("Alpha beta GAMMA delta", {}, scratch,
                 [&](std::string& tok) {
                   seen.push_back(tok);
                   return tok != "beta";
                 });
  EXPECT_EQ(seen, (std::vector<std::string>{"alpha", "beta"}));
  EXPECT_EQ(scratch, "beta");
}

// ---------------------------------------------------------------- tf-idf

TEST(Vocabulary, AddAndLookup) {
  Vocabulary v;
  const auto id = v.add("crash");
  EXPECT_EQ(v.add("crash"), id);
  EXPECT_EQ(v.lookup("crash"), id);
  EXPECT_EQ(v.lookup("unseen"), Vocabulary::kUnknown);
  EXPECT_EQ(v.term(id), "crash");
}

TEST(TfIdf, VectorsAreUnitNorm) {
  TfIdfModel model;
  model.fit({{"a", "b", "c"}, {"a", "d"}});
  const auto vec = model.transform({"a", "b", "b"});
  double norm2 = 0.0;
  for (const auto& e : vec.entries) norm2 += double(e.weight) * e.weight;
  EXPECT_NEAR(norm2, 1.0, 1e-6);
}

TEST(TfIdf, SortedByTermId) {
  TfIdfModel model;
  model.fit({{"z", "y", "x", "w"}});
  const auto vec = model.transform({"w", "z", "x"});
  for (std::size_t i = 1; i < vec.entries.size(); ++i) {
    EXPECT_LT(vec.entries[i - 1].term, vec.entries[i].term);
  }
}

TEST(TfIdf, UnknownTermsDropped) {
  TfIdfModel model;
  model.fit({{"a"}});
  const auto vec = model.transform({"never", "seen"});
  EXPECT_TRUE(vec.entries.empty());
}

TEST(TfIdf, CosineIdenticalIsOne) {
  TfIdfModel model;
  model.fit({{"a", "b"}, {"c", "d"}});
  const auto v1 = model.transform({"a", "b"});
  const auto v2 = model.transform({"a", "b"});
  EXPECT_NEAR(cosine(v1, v2), 1.0, 1e-6);
}

TEST(TfIdf, CosineDisjointIsZero) {
  TfIdfModel model;
  model.fit({{"a", "b"}, {"c", "d"}});
  EXPECT_DOUBLE_EQ(cosine(model.transform({"a"}), model.transform({"c"})), 0.0);
}

TEST(TfIdf, RareTermsWeighMore) {
  TfIdfModel model;
  // "common" appears in every document, "rare" in one.
  model.fit({{"common", "rare"}, {"common"}, {"common"}, {"common"}});
  const auto vec = model.transform({"common", "rare"});
  ASSERT_EQ(vec.entries.size(), 2u);
  float common_w = 0, rare_w = 0;
  const auto& vocab = model.vocabulary();
  for (const auto& e : vec.entries) {
    if (e.term == vocab.lookup("common")) common_w = e.weight;
    if (e.term == vocab.lookup("rare")) rare_w = e.weight;
  }
  EXPECT_GT(rare_w, common_w);
}

// ---------------------------------------------------------------- minhash

TEST(MinHash, IdenticalDocsIdenticalSignatures) {
  const MinHasher h({});
  const std::vector<std::string> doc = {"a", "b", "c", "d", "e"};
  EXPECT_EQ(h.signature(doc), h.signature(doc));
}

TEST(MinHash, EstimateNearExactJaccard) {
  // Property test: over random document pairs, the MinHash estimate must
  // track exact Jaccard within the standard error ~1/sqrt(num_hashes).
  MinHashParams params;
  params.num_hashes = 128;
  params.band_size = 2;
  params.shingle_size = 1;  // token-level so exact_jaccard is comparable
  const MinHasher h(params);
  util::Rng rng(42);

  double total_err = 0.0;
  constexpr int kPairs = 30;
  for (int p = 0; p < kPairs; ++p) {
    std::vector<std::string> a, b;
    for (int i = 0; i < 60; ++i) {
      const auto tok = "tok" + std::to_string(rng.below(80));
      if (rng.chance(0.7)) a.push_back(tok);
      if (rng.chance(0.7)) b.push_back(tok);
    }
    if (a.empty() || b.empty()) continue;
    const double exact = exact_jaccard(a, b);
    const double est = MinHasher::estimate_jaccard(h.signature(a), h.signature(b));
    total_err += std::fabs(exact - est);
  }
  EXPECT_LT(total_err / kPairs, 0.12);
}

TEST(MinHash, LshFindsSimilarPair) {
  MinHashParams params;
  params.band_size = 2;
  const MinHasher h(params);
  std::vector<std::string> base;
  for (int i = 0; i < 30; ++i) base.push_back("w" + std::to_string(i));
  auto near_dup = base;
  near_dup[0] = "changed";
  std::vector<std::string> other;
  for (int i = 0; i < 30; ++i) other.push_back("x" + std::to_string(i));

  const std::vector<Signature> sigs = {h.signature(base), h.signature(near_dup),
                                       h.signature(other)};
  const auto pairs = lsh_candidates(sigs, params);
  bool found01 = false, found02 = false;
  for (const auto& [i, j] : pairs) {
    if (i == 0 && j == 1) found01 = true;
    if (i == 0 && j == 2) found02 = true;
  }
  EXPECT_TRUE(found01) << "near-duplicate pair missed";
  EXPECT_FALSE(found02) << "disjoint pair proposed";
}

TEST(MinHash, ShortDocumentsStillSign) {
  const MinHasher h({});
  const auto sig = h.signature({"one"});
  EXPECT_EQ(sig.size(), MinHashParams{}.num_hashes);
  // And identical short docs collide fully.
  EXPECT_EQ(MinHasher::estimate_jaccard(sig, h.signature({"one"})), 1.0);
}

TEST(ExactJaccard, KnownValues) {
  EXPECT_DOUBLE_EQ(exact_jaccard({"a", "b"}, {"a", "b"}), 1.0);
  EXPECT_DOUBLE_EQ(exact_jaccard({"a"}, {"b"}), 0.0);
  EXPECT_NEAR(exact_jaccard({"a", "b", "c"}, {"b", "c", "d"}), 0.5, 1e-9);
  EXPECT_DOUBLE_EQ(exact_jaccard({}, {}), 0.0);
}

}  // namespace
}  // namespace faultstudy::text
