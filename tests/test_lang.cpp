// Tests for the .stsyn language: lexer, parser, semantic errors, and the
// printer round-trip.
#include <gtest/gtest.h>

#include <utility>

#include "casestudies/coloring.hpp"
#include "casestudies/matching.hpp"
#include "casestudies/token_ring.hpp"
#include "casestudies/two_ring.hpp"
#include "explicitstate/semantics.hpp"
#include "explicitstate/verify.hpp"
#include "lang/parser.hpp"
#include "lang/printer.hpp"
#include "util/rng.hpp"

namespace {

using namespace stsyn;
using lang::ParseError;
using lang::parseProtocol;
using lang::Token;
using lang::TokenKind;
using lang::tokenize;

// ---------------------------------------------------------------------------
// Lexer.
// ---------------------------------------------------------------------------

TEST(Lexer, TokenizesOperatorsGreedily) {
  const auto tokens = tokenize("<= < <=> => == := .. -> != >=");
  std::vector<TokenKind> kinds;
  for (const Token& t : tokens) kinds.push_back(t.kind);
  EXPECT_EQ(kinds, (std::vector<TokenKind>{
                       TokenKind::LessEq, TokenKind::Less, TokenKind::Iff,
                       TokenKind::Implies, TokenKind::EqEq, TokenKind::Assign,
                       TokenKind::DotDot, TokenKind::Arrow, TokenKind::NotEq,
                       TokenKind::GreaterEq, TokenKind::EndOfInput}));
}

TEST(Lexer, KeywordsVsIdentifiers) {
  const auto tokens = tokenize("protocol proto var variable mod modx");
  EXPECT_EQ(tokens[0].kind, TokenKind::KwProtocol);
  EXPECT_EQ(tokens[1].kind, TokenKind::Identifier);
  EXPECT_EQ(tokens[2].kind, TokenKind::KwVar);
  EXPECT_EQ(tokens[3].kind, TokenKind::Identifier);
  EXPECT_EQ(tokens[4].kind, TokenKind::KwMod);
  EXPECT_EQ(tokens[5].kind, TokenKind::Identifier);
}

TEST(Lexer, CommentsAndPositions) {
  const auto tokens = tokenize("x # a comment\n  // another\n  y");
  ASSERT_EQ(tokens.size(), 3u);  // x, y, EOF
  EXPECT_EQ(tokens[0].text, "x");
  EXPECT_EQ(tokens[0].line, 1);
  EXPECT_EQ(tokens[1].text, "y");
  EXPECT_EQ(tokens[1].line, 3);
  EXPECT_EQ(tokens[1].column, 3);
}

TEST(Lexer, RejectsStrayCharacters) {
  EXPECT_THROW((void)tokenize("a @ b"), ParseError);
  EXPECT_THROW((void)tokenize("a | b"), ParseError);  // single pipe
}

/// Catches a ParseError and returns its (line, column).
template <typename Fn>
std::pair<int, int> errorPosition(Fn&& fn) {
  try {
    fn();
  } catch (const ParseError& e) {
    return {e.line, e.column};
  }
  ADD_FAILURE() << "expected ParseError";
  return {-1, -1};
}

TEST(Lexer, StrayCharacterPositionIsExact) {
  EXPECT_EQ(errorPosition([] { (void)tokenize("a @ b"); }),
            (std::pair<int, int>{1, 3}));
  // Tabs count as one column; the lexer reports character positions.
  EXPECT_EQ(errorPosition([] { (void)tokenize("ab\ncd $"); }),
            (std::pair<int, int>{2, 4}));
}

TEST(Lexer, PositionsSurviveCommentsAndBlankLines) {
  // '#' and '//' comments and blank lines advance the line counter
  // without emitting tokens; the error lands after them at the exact spot.
  EXPECT_EQ(errorPosition([] {
              (void)tokenize("# leading comment\n\n// another\n  x ? y");
            }),
            (std::pair<int, int>{4, 5}));
  // A comment on the same line as code: error column is pre-comment.
  EXPECT_EQ(errorPosition([] { (void)tokenize("x ?  # trailing\n"); }),
            (std::pair<int, int>{1, 3}));
}

TEST(Parser, MissingSemicolonPositionIsTheNextToken) {
  // The missing ';' after the var declaration is discovered at 'process'.
  EXPECT_EQ(errorPosition([] {
              (void)parseProtocol("protocol p;\nvar x : 0..1\nprocess");
            }),
            (std::pair<int, int>{3, 1}));
}

TEST(Parser, UnterminatedProcessBlockPointsAtEndOfInput) {
  EXPECT_EQ(errorPosition([] {
              (void)parseProtocol(
                  "protocol p;\nvar x : 0..1;\nprocess P {\n  reads x;\n");
            }),
            (std::pair<int, int>{5, 1}));
}

TEST(Parser, UndeclaredVariablePointsAtTheUse) {
  EXPECT_EQ(errorPosition([] {
              (void)parseProtocol(
                  "protocol p;\nvar x : 0..1;\ninvariant : x == ghost;\n");
            }),
            (std::pair<int, int>{3, 18}));
}

TEST(Parser, BadDomainBoundsPointAfterComments) {
  // '#' comment lines before the offending declaration shift the line; the
  // error points at the offending bound, not at the following token.
  EXPECT_EQ(errorPosition([] {
              (void)parseProtocol(
                  "protocol p;\n# domains must start at 0\nvar x : 1..2;\n");
            }),
            (std::pair<int, int>{3, 9}));
}

TEST(Parser, MissingExpressionPositionIsExact) {
  EXPECT_EQ(errorPosition([] {
              (void)parseProtocol("protocol p;\nvar x : 0..1;\ninvariant : ;");
            }),
            (std::pair<int, int>{3, 13}));
}

// ---------------------------------------------------------------------------
// Parser.
// ---------------------------------------------------------------------------

constexpr const char* kTokenRing = R"(
protocol tiny_ring;

var x0 : 0..2;
var x1 : 0..2;

process P0 {
  reads x0, x1;
  writes x0;
  action bump : x0 == x1 -> x0 := (x1 + 1) mod 3;
}

process P1 {
  reads x0, x1;
  writes x1;
  action chase : x1 != x0 -> x1 := x0;
}

invariant : x0 == x1 || (x1 + 1) mod 3 == x0;
)";

TEST(Parser, ParsesAWholeProtocol) {
  const protocol::Protocol p = parseProtocol(kTokenRing);
  EXPECT_EQ(p.name, "tiny_ring");
  ASSERT_EQ(p.varCount(), 2u);
  EXPECT_EQ(p.vars[0].domain, 3);
  ASSERT_EQ(p.processCount(), 2u);
  EXPECT_EQ(p.processes[0].actions.size(), 1u);
  EXPECT_EQ(p.processes[0].actions[0].label, "bump");
  EXPECT_EQ(p.processes[0].writes, (std::vector<protocol::VarId>{0}));

  // The parsed protocol is semantically usable.
  explicitstate::StateSpace space(p);
  EXPECT_EQ(space.size(), 9u);
  EXPECT_EQ(space.invariantSize(), 6u);
}

TEST(Parser, ActionLabelIsOptional) {
  const protocol::Protocol p = parseProtocol(R"(
protocol demo;
var x : 0..1;
process P { reads x; writes x; action : x == 0 -> x := 1; }
invariant : true;
)");
  EXPECT_EQ(p.processes[0].actions[0].label, "a0");
}

TEST(Parser, ParsesLocalPredicates) {
  const protocol::Protocol p = parseProtocol(R"(
protocol demo;
var x : 0..1;
var y : 0..1;
process P { reads x, y; writes x; local : x != y; }
process Q { reads x, y; writes y; local : x != y; }
invariant : x != y;
)");
  ASSERT_EQ(p.localPredicates.size(), 2u);
  const std::vector<int> good{0, 1};
  const std::vector<int> bad{1, 1};
  EXPECT_TRUE(protocol::evalBool(*p.localPredicates[0], good));
  EXPECT_FALSE(protocol::evalBool(*p.localPredicates[1], bad));
}

TEST(Parser, OperatorPrecedence) {
  const protocol::Protocol p = parseProtocol(R"(
protocol demo;
var x : 0..3;
process P { reads x; writes x; }
invariant : x + 1 * 2 == 2 || x == 3 && x != 0;
)");
  // Must parse as ((x + (1*2)) == 2) || ((x == 3) && (x != 0)).
  const std::vector<int> zero{0};
  const std::vector<int> three{3};
  const std::vector<int> one{1};
  EXPECT_TRUE(protocol::evalBool(*p.invariant, zero));
  EXPECT_TRUE(protocol::evalBool(*p.invariant, three));
  EXPECT_FALSE(protocol::evalBool(*p.invariant, one));
}

TEST(Parser, ImpliesIsRightAssociative) {
  const protocol::Protocol p = parseProtocol(R"(
protocol demo;
var x : 0..1;
process P { reads x; writes x; }
invariant : x == 0 => x == 1 => x == 1;
)");
  // a => (b => c): holds everywhere for this instance.
  const std::vector<int> zero{0};
  const std::vector<int> one{1};
  EXPECT_TRUE(protocol::evalBool(*p.invariant, zero));
  EXPECT_TRUE(protocol::evalBool(*p.invariant, one));
}

TEST(Parser, SemanticErrors) {
  EXPECT_THROW((void)parseProtocol("protocol p; invariant : y == 0;"),
               ParseError);  // undeclared variable
  EXPECT_THROW((void)parseProtocol("protocol p; var x : 1..2;"),
               ParseError);  // domain must start at 0
  EXPECT_THROW((void)parseProtocol(R"(
protocol p;
var x : 0..1;
process P { reads x; writes x; }
)"),
               ParseError);  // missing invariant
  // Read/write violations surface from protocol::validate.
  EXPECT_THROW((void)parseProtocol(R"(
protocol p;
var x : 0..1;
var y : 0..1;
process P { reads x; writes x; action : y == 0 -> x := 1; }
invariant : true;
)"),
               std::invalid_argument);
}

TEST(Parser, SyntaxErrorsCarryPositions) {
  try {
    (void)parseProtocol("protocol p;\nvar x : 0..1\nprocess");
    FAIL() << "expected ParseError";
  } catch (const ParseError& e) {
    EXPECT_EQ(e.line, 3);  // missing ';' discovered at 'process'
  }
}

// ---------------------------------------------------------------------------
// Printer round-trip.
// ---------------------------------------------------------------------------

TEST(Printer, RoundTripPreservesSemantics) {
  // The case studies are built in code, and some carry names outside the
  // identifier grammar (token-ring, two-ring): printing must still yield
  // text that parses back.
  std::vector<std::pair<const char*, protocol::Protocol>> inputs;
  inputs.emplace_back("parsed token ring", parseProtocol(kTokenRing));
  inputs.emplace_back("tokenRing(4,3)", casestudies::tokenRing(4, 3));
  inputs.emplace_back("matching(5)", casestudies::matching(5));
  inputs.emplace_back("coloring(5)", casestudies::coloring(5));
  inputs.emplace_back("twoRing()", casestudies::twoRing());
  inputs.emplace_back("matchingGoudaAcharyaAsPrinted(5)",
                      casestudies::matchingGoudaAcharyaAsPrinted(5));
  // Names that need more than a '-' -> '_' mapping: a keyword, a leading
  // digit, and no name at all.
  for (const char* name : {"process", "4ring", ""}) {
    protocol::Protocol p = parseProtocol(kTokenRing);
    p.name = name;
    inputs.emplace_back(name, std::move(p));
  }
  for (const auto& [label, p1] : inputs) {
    SCOPED_TRACE(label);
    const std::string printed = lang::printProtocol(p1);
    const protocol::Protocol p2 = parseProtocol(printed);
    // print -> parse -> print is a fixed point.
    EXPECT_EQ(lang::printProtocol(p2), printed);

    // Same shape...
    ASSERT_EQ(p1.varCount(), p2.varCount());
    ASSERT_EQ(p1.processCount(), p2.processCount());
    // ...and identical explicit semantics: same invariant set, same edges.
    explicitstate::StateSpace s1(p1);
    explicitstate::StateSpace s2(p2);
    const auto t1 = explicitstate::buildTransitions(s1);
    const auto t2 = explicitstate::buildTransitions(s2);
    ASSERT_EQ(s1.size(), s2.size());
    for (explicitstate::StateId s = 0; s < s1.size(); ++s) {
      EXPECT_EQ(s1.inInvariant(s), s2.inInvariant(s)) << "state " << s;
      EXPECT_EQ(t1.succ[s], t2.succ[s]) << "state " << s;
    }
  }
}

TEST(Printer, RoundTripWithLocalPredicates) {
  const char* src = R"(
protocol demo;
var x : 0..2;
var y : 0..2;
process P { reads x, y; writes x; local : x != y; action : x == y -> x := (y + 1) mod 3; }
process Q { reads x, y; writes y; local : y != x; }
invariant : x != y;
)";
  const protocol::Protocol p1 = parseProtocol(src);
  const protocol::Protocol p2 = parseProtocol(lang::printProtocol(p1));
  ASSERT_EQ(p2.localPredicates.size(), 2u);
  explicitstate::StateSpace s1(p1);
  explicitstate::StateSpace s2(p2);
  EXPECT_EQ(s1.invariantSize(), s2.invariantSize());
}

class ParserFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ParserFuzz, NeverCrashesOnGarbage) {
  // Random byte soup and random token salads must produce ParseError (or,
  // rarely, a valid protocol) — never a crash or a non-ParseError escape
  // from the lexer/parser layer. (Semantic errors surface as
  // std::invalid_argument from validate(); also acceptable.)
  util::Rng rng(GetParam() * 2654435761u + 17);
  const std::string alphabet =
      "abxyz01239 \t\n;:,{}()<>=!&|+-*%._#/"
      "protocol var process reads writes action local invariant true false "
      "mod";
  for (int doc = 0; doc < 40; ++doc) {
    std::string text;
    const std::size_t len = rng.below(200);
    for (std::size_t i = 0; i < len; ++i) {
      text += alphabet[rng.below(alphabet.size())];
    }
    try {
      (void)lang::parseProtocol(text);
    } catch (const lang::ParseError&) {
    } catch (const std::invalid_argument&) {
    }
  }
}

TEST_P(ParserFuzz, MutatedValidProtocolsFailCleanly) {
  // Start from a valid source and flip random characters: every mutant
  // either parses or throws a typed error with a position.
  util::Rng rng(GetParam() * 40503 + 3);
  std::string base = R"(
protocol demo;
var x : 0..2;
var y : 0..2;
process P { reads x, y; writes x; action : x == y -> x := (y + 1) mod 3; }
invariant : x != y;
)";
  for (int mutant = 0; mutant < 60; ++mutant) {
    std::string text = base;
    const std::size_t edits = 1 + rng.below(4);
    for (std::size_t e = 0; e < edits; ++e) {
      text[rng.below(text.size())] =
          static_cast<char>(32 + rng.below(95));
    }
    try {
      (void)lang::parseProtocol(text);
    } catch (const lang::ParseError& err) {
      EXPECT_GE(err.line, 1);
      EXPECT_GE(err.column, 1);
    } catch (const std::invalid_argument&) {
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ParserFuzz,
                         ::testing::Range<std::uint64_t>(0, 10));

}  // namespace
