// Unit tests for the NDlog lexer/parser: the paper's concrete syntax, error
// positions, materialize declarations, aggregates, negation, facts — and
// seeded mutation fuzz over every shipped program and over fact lines.
#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <random>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "core/protocols.hpp"
#include "ndlog/lint.hpp"
#include "ndlog/parser.hpp"

namespace fvn::ndlog {
namespace {

TEST(Lexer, TokenKinds) {
  auto tokens = tokenize("r1 path(@S,D) :- link(@S,D,C), C >= 2.5, X != \"abc\".");
  ASSERT_GT(tokens.size(), 5u);
  EXPECT_EQ(tokens[0].kind, TokenKind::Ident);
  EXPECT_EQ(tokens[0].text, "r1");
  EXPECT_EQ(tokens[1].kind, TokenKind::Ident);  // path
  EXPECT_EQ(tokens[2].kind, TokenKind::LParen);
  EXPECT_EQ(tokens[3].kind, TokenKind::At);
  EXPECT_EQ(tokens[4].kind, TokenKind::Variable);
}

TEST(Lexer, NumbersIntAndDouble) {
  auto tokens = tokenize("42 2.75");
  EXPECT_TRUE(tokens[0].number_is_int);
  EXPECT_EQ(tokens[0].int_value, 42);
  EXPECT_FALSE(tokens[1].number_is_int);
  EXPECT_DOUBLE_EQ(tokens[1].number, 2.75);
}

TEST(Lexer, CommentsSkipped) {
  auto tokens = tokenize("a // comment\n/* block\ncomment */ b");
  ASSERT_EQ(tokens.size(), 3u);  // a, b, End
  EXPECT_EQ(tokens[0].text, "a");
  EXPECT_EQ(tokens[1].text, "b");
}

TEST(Lexer, StringEscapes) {
  auto tokens = tokenize(R"("a\nb")");
  EXPECT_EQ(tokens[0].text, "a\nb");
}

TEST(Lexer, ErrorCarriesPosition) {
  try {
    tokenize("abc\n  #");
    FAIL() << "expected ParseError";
  } catch (const ParseError& e) {
    EXPECT_EQ(e.line(), 2);
    EXPECT_EQ(e.column(), 3);
  }
}

TEST(Parser, PaperRuleR2RoundTrips) {
  auto program = parse_program(
      "r2 path(@S,D,P,C) :- link(@S,Z,C1), path(@Z,D,P2,C2), C=C1+C2, "
      "P=f_concatPath(S,P2), f_inPath(P2,S)=false.");
  ASSERT_EQ(program.rules.size(), 1u);
  const Rule& r = program.rules[0];
  EXPECT_EQ(r.name, "r2");
  EXPECT_EQ(r.head.predicate, "path");
  EXPECT_EQ(r.head.loc_index, 0);
  EXPECT_EQ(r.body.size(), 5u);
  EXPECT_EQ(r.to_string(),
            "r2 path(@S,D,P,C) :- link(@S,Z,C1), path(@Z,D,P2,C2), C=(C1+C2), "
            "P=f_concatPath(S,P2), f_inPath(P2,S)=false.");
}

TEST(Parser, AggregateHead) {
  auto program = parse_program("r3 bestPathCost(@S,D,min<C>) :- path(@S,D,P,C).");
  const Rule& r = program.rules[0];
  ASSERT_TRUE(r.head.has_aggregate());
  const HeadArg& agg = r.head.args[2];
  EXPECT_TRUE(agg.is_agg());
  EXPECT_EQ(*agg.agg, AggKind::Min);
  EXPECT_EQ(agg.agg_var, "C");
}

TEST(Parser, AllAggregateKinds) {
  for (const char* src : {"a(@X,min<Y>) :- b(@X,Y).", "a(@X,max<Y>) :- b(@X,Y).",
                          "a(@X,count<Y>) :- b(@X,Y).", "a(@X,sum<Y>) :- b(@X,Y)."}) {
    EXPECT_NO_THROW(parse_program(src)) << src;
  }
}

TEST(Parser, NegatedAtom) {
  auto program = parse_program("a(@X) :- b(@X,Y), !c(@X,Y).");
  const auto* ba = std::get_if<BodyAtom>(&program.rules[0].body[1]);
  ASSERT_NE(ba, nullptr);
  EXPECT_TRUE(ba->negated);
}

TEST(Parser, MaterializeDeclaration) {
  auto program = parse_program("materialize(link, 120, 500, keys(1,2)).");
  ASSERT_EQ(program.materializations.size(), 1u);
  const Materialize& m = program.materializations[0];
  EXPECT_EQ(m.predicate, "link");
  ASSERT_TRUE(m.lifetime_seconds.has_value());
  EXPECT_DOUBLE_EQ(*m.lifetime_seconds, 120.0);
  ASSERT_TRUE(m.max_size.has_value());
  EXPECT_EQ(*m.max_size, 500u);
  EXPECT_EQ(m.key_fields, (std::vector<std::size_t>{1, 2}));
}

TEST(Parser, MaterializeInfinity) {
  auto program = parse_program("materialize(p, infinity, infinity, keys(1)).");
  EXPECT_FALSE(program.materializations[0].lifetime_seconds.has_value());
  EXPECT_FALSE(program.materializations[0].max_size.has_value());
}

TEST(Parser, FactParsing) {
  Tuple t = parse_fact("link(@n1,n2,3)");
  EXPECT_EQ(t.predicate(), "link");
  EXPECT_EQ(t.at(0).as_addr(), "n1");
  EXPECT_EQ(t.at(1).as_addr(), "n2");
  EXPECT_EQ(t.at(2).as_int(), 3);
}

TEST(Parser, FactWithVariableRejected) {
  EXPECT_THROW(parse_fact("link(@n1,X,3)"), ParseError);
}

// Deep nesting and long operator chains used to overflow the stack (in the
// recursive descent, or later when the term tree was destroyed): a facts
// line or program of this shape crashed `fvn_cli run` and `fvn_cli lint`.
TEST(Parser, DeeplyNestedTermsAreAParseErrorNotAStackOverflow) {
  const std::size_t n = 100000;
  std::string chain = "1";
  for (std::size_t i = 0; i < n; ++i) chain += "+1";
  EXPECT_THROW(parse_fact("link(@n0," + std::string(n, '[') + ")"), ParseError);
  EXPECT_THROW(parse_fact("link(@n0," + chain + ")"), ParseError);
  EXPECT_THROW(parse_program("r1 a(@X) :- b(@X), X = " + std::string(n, '(') + "1."),
               ParseError);
  EXPECT_THROW(parse_program("r1 a(@X,Y) :- b(@X), Y = " + chain + "."), ParseError);
  // Nesting and chains of ordinary size still parse.
  const Tuple nested =
      parse_fact("link(@n0," + std::string(100, '[') + std::string(100, ']') + ")");
  EXPECT_EQ(nested.at(1).as_list().size(), 1u);
  EXPECT_NO_THROW(parse_program("r1 a(@X,Y) :- b(@X,Z), Y = " +
                                chain.substr(0, 2 * 200 + 1) + " * Z - ((Z)) + [1,[2]]."));
}

TEST(Parser, GroundFactRuleInProgram) {
  auto program = parse_program("link(@n1,n2,1).");
  ASSERT_EQ(program.rules.size(), 1u);
  EXPECT_TRUE(program.rules[0].is_fact());
}

TEST(Parser, ArithmeticPrecedence) {
  auto program = parse_program("a(@X,Y) :- b(@X,Z), Y = Z + 2 * 3.");
  const auto* cmp = std::get_if<Comparison>(&program.rules[0].body[1]);
  ASSERT_NE(cmp, nullptr);
  // Renders as (Z+(2*3)): multiplication binds tighter.
  EXPECT_EQ(cmp->rhs->to_string(), "(Z+(2*3))");
}

TEST(Parser, ListLiteralConstantFolded) {
  auto program = parse_program("a(@X,Y) :- b(@X), Y = [1,2,3].");
  const auto* cmp = std::get_if<Comparison>(&program.rules[0].body[1]);
  ASSERT_NE(cmp, nullptr);
  EXPECT_EQ(cmp->rhs->kind, Term::Kind::Const);
  EXPECT_EQ(cmp->rhs->constant.as_list().size(), 3u);
}

TEST(Parser, ListLiteralWithVariablesBecomesFList) {
  auto program = parse_program("a(@X,Y) :- b(@X,Z), Y = [X,Z].");
  const auto* cmp = std::get_if<Comparison>(&program.rules[0].body[1]);
  EXPECT_EQ(cmp->rhs->kind, Term::Kind::Func);
  EXPECT_EQ(cmp->rhs->name, "f_list");
}

TEST(Parser, UnaryMinus) {
  auto program = parse_program("a(@X,Y) :- b(@X), Y = -5.");
  const auto* cmp = std::get_if<Comparison>(&program.rules[0].body[1]);
  EXPECT_EQ(cmp->rhs->constant.as_int(), -5);
}

TEST(Parser, BooleanLiterals) {
  auto program = parse_program("a(@X) :- b(@X,Y), Y = true, f_inPath(Y,X) = false.");
  EXPECT_EQ(program.rules[0].body.size(), 3u);
}

TEST(Parser, MissingPeriodIsError) {
  EXPECT_THROW(parse_program("a(@X) :- b(@X)"), ParseError);
}

TEST(Parser, DanglingCommaIsError) {
  EXPECT_THROW(parse_program("a(@X) :- b(@X), ."), ParseError);
}

TEST(Parser, ProgramToStringReparses) {
  const char* source = R"(
    materialize(link, infinity, infinity, keys(1,2)).
    r1 path(@S,D,P,C) :- link(@S,D,C), P=f_init(S,D).
    r3 bestPathCost(@S,D,min<C>) :- path(@S,D,P,C).
  )";
  auto program = parse_program(source);
  auto reparsed = parse_program(program.to_string());
  EXPECT_EQ(program.to_string(), reparsed.to_string());
}

// ---------------------------------------------------------------------------
// Every error path must carry a real source position (never line 0 / the
// end-of-input fallback), so diagnostics built from ParseError locate.
// ---------------------------------------------------------------------------

/// Expect a ParseError from parsing `source` and return its position.
std::pair<int, int> error_position(const std::string& source) {
  try {
    parse_program(source);
  } catch (const ParseError& e) {
    EXPECT_GT(e.line(), 0) << e.what();
    EXPECT_GT(e.column(), 0) << e.what();
    return {e.line(), e.column()};
  }
  ADD_FAILURE() << "expected ParseError from: " << source;
  return {0, 0};
}

TEST(ParserSpans, UnterminatedBlockCommentPointsAtOpening) {
  const auto [line, col] = error_position("a(@X) :- b(@X).\n  /* never closed");
  EXPECT_EQ(line, 2);
  EXPECT_EQ(col, 3);
}

TEST(ParserSpans, UnterminatedStringPointsAtOpeningQuote) {
  const auto [line, col] = error_position("f(@n1, \"oops).\n");
  EXPECT_EQ(line, 1);
  EXPECT_EQ(col, 8);
}

TEST(ParserSpans, BadIntegerLiteralPointsAtToken) {
  // Exceeds int64: from_chars reports out-of-range.
  const auto [line, col] =
      error_position("f(@n1,\n   99999999999999999999999).\n");
  EXPECT_EQ(line, 2);
  EXPECT_EQ(col, 4);
}

TEST(ParserSpans, NonConstantFactArgumentPointsAtAtom) {
  try {
    parse_fact("link(@n1,X,3)");
    FAIL() << "expected ParseError";
  } catch (const ParseError& e) {
    EXPECT_EQ(e.line(), 1);
    EXPECT_EQ(e.column(), 1);  // the atom, not the end of input
  }
}

// ---------------------------------------------------------------------------
// Program parser fuzz: seeded byte flips, truncations and token splices over
// every shipped examples/ndlog/*.ndlog, each run through parse_program and
// the `fvn_cli lint` passes. Each input must end in a Program (then
// diagnostics) or a ParseError — never another exception, and never a
// sanitizer report (check.sh runs the suite under ASan/UBSan).
// ---------------------------------------------------------------------------

/// Spliced in whole: the language's tokens plus inputs that stress the
/// lexer's number, string and comment paths.
const std::string_view kSpliceTokens[] = {
    ":-", ":=", "==", "!=", "<=", ">=", "@", ",", "(", ")", "[", "]", ".", "=",
    "<", ">", "+", "-", "*", "/", "%", "!", "_", "X", "n0", "min<", "max<",
    "count<", "sum<", "materialize(", "keys(", "infinity", "periodic(", "f_size(",
    "f_concat(", "f_init(", "f_member(", "f_nosuch(", "link(@S,D,C)", "r9 p(@S) :- ",
    "\"", "\"s\"", "/*", "*/", "//", "\n", "\\", "0.5", ".5", "-1",
    "99999999999999999999", "1e308", "1111111111111111111111111111111111111111111111"
    "111111111111111111111111111111111111111111111111111111111111111111111111111111"
    "111111111111111111111111111111111111111111111111111111111111111111111111111111"
    "111111111111111111111111111111111111111111111111111111111111111111111111111111"
    ".1111111111111111111111111111111111111111111111111111111111111111111111111111",
    "\xff", "\x80", std::string_view("\0", 1)};

std::string mutate(const std::string& text, std::mt19937_64& rng) {
  std::string out = text;
  const auto pick = [&rng](std::size_t n) {
    return n == 0 ? 0 : static_cast<std::size_t>(rng() % n);
  };
  const std::size_t edits = 1 + pick(4);
  for (std::size_t e = 0; e < edits; ++e) {
    switch (pick(3)) {
      case 0:  // byte flip
        if (!out.empty()) out[pick(out.size())] ^= static_cast<char>(1u << pick(8));
        break;
      case 1:  // truncation
        out.resize(pick(out.size() + 1));
        break;
      default: {  // token splice
        const std::string_view token = kSpliceTokens[pick(std::size(kSpliceTokens))];
        out.insert(pick(out.size() + 1), token);
        break;
      }
    }
  }
  return out;
}

TEST(NdlogFuzz, MutatedExampleProgramsParseOrFailCleanly) {
  const auto dir = std::filesystem::path(FVN_SOURCE_DIR) / "examples" / "ndlog";
  std::vector<std::filesystem::path> programs;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    if (entry.path().extension() == ".ndlog") programs.push_back(entry.path());
  }
  std::sort(programs.begin(), programs.end());  // directory order is unspecified
  ASSERT_FALSE(programs.empty());

  std::mt19937_64 rng(0x5eed2u);
  std::size_t parsed = 0;
  std::size_t rejected = 0;
  for (const auto& path : programs) {
    std::ifstream in(path);
    std::ostringstream text;
    text << in.rdbuf();
    for (int i = 0; i < 1000; ++i) {
      const std::string input = mutate(text.str(), rng);
      try {
        const Program program = parse_program(input, "fuzz.ndlog");
        DiagnosticSink sink;
        lint_program(program, sink);
        ++parsed;
      } catch (const ParseError& e) {
        EXPECT_GE(e.line(), 1);
        EXPECT_GE(e.column(), 1);
        ++rejected;
      } catch (const std::exception& e) {
        ADD_FAILURE() << path.filename() << " mutation " << i << ": " << e.what()
                      << "\ninput:\n"
                      << input;
      }
    }
  }
  // Both outcomes occur, so the mutations neither always break nor never
  // touch the grammar.
  EXPECT_GT(parsed, 0u);
  EXPECT_GT(rejected, 0u);
}

// ---------------------------------------------------------------------------
// Facts reader fuzz: the same mutations over single fact lines, run through
// parse_fact (what `fvn_cli`'s facts-file loader calls per line). Each line
// must end in a Tuple or a ParseError — never another exception or a
// sanitizer report.
// ---------------------------------------------------------------------------

TEST(FactsFuzz, MutatedFactLinesParseOrFailCleanly) {
  std::vector<std::string> seeds;
  for (const auto& fact : core::link_facts(core::ring_topology(4))) {
    std::string line = fact.to_string() + ".";
    seeds.push_back(line);
    line.insert(line.find('(') + 1, "@");  // the located form facts files use
    seeds.push_back(line);
  }
  seeds.insert(seeds.end(), {
                                "path(@n0,n2,[n0,n1,n2],2).",
                                "label(@n1,\"hello, world\",-3,2.5)",
                                "nested(@a,[[1,2],[\"x\",y]],true,false).",
                                "empty(@n0,[],\"\",-0.5)",
                            });
  for (const auto& line : seeds) ASSERT_NO_THROW(parse_fact(line)) << line;

  std::mt19937_64 rng(0xfac75u);
  std::size_t parsed = 0;
  std::size_t rejected = 0;
  for (int i = 0; i < 1000; ++i) {
    const std::string input = mutate(seeds[static_cast<std::size_t>(i) % seeds.size()], rng);
    try {
      const Tuple fact = parse_fact(input);
      EXPECT_FALSE(fact.predicate().empty()) << input;
      ++parsed;
    } catch (const ParseError& e) {
      EXPECT_GE(e.line(), 1);
      EXPECT_GE(e.column(), 1);
      ++rejected;
    } catch (const std::exception& e) {
      ADD_FAILURE() << "mutation " << i << ": " << e.what() << "\ninput: " << input;
    }
  }
  EXPECT_GT(parsed, 0u);
  EXPECT_GT(rejected, 0u);
}

}  // namespace
}  // namespace fvn::ndlog
