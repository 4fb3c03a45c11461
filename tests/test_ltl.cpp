// fvn::ltl unit tests: spec parsing and diagnostics, NNF rewriting, Büchi
// construction, LTL model checking over the NDlog transition system, the
// compiled runtime monitor, plus a seeded mutation fuzz of the spec parser.
#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <random>
#include <sstream>

#include "core/protocols.hpp"
#include "ltl/buchi.hpp"
#include "ltl/checker.hpp"
#include "ltl/formula.hpp"
#include "ltl/monitor.hpp"
#include "mc/ndlog_ts.hpp"
#include "ndlog/parser.hpp"
#include "obs/trace.hpp"

namespace fvn {
namespace {

using ndlog::Tuple;
using ndlog::Value;
using namespace fvn::ltl;

// ---------------------------------------------------------------------------
// Parser
// ---------------------------------------------------------------------------

TEST(LtlParser, SpecWithNamedAndUnnamedProperties) {
  const auto spec = parse_spec(
      "// comment\n"
      "reach: F bestPath(@n0, n2, _, _).\n"
      "G !path(@n0, n0, _, _).\n",
      "t.ltl");
  ASSERT_EQ(spec.properties.size(), 2u);
  EXPECT_EQ(spec.properties[0].name, "reach");
  EXPECT_EQ(spec.properties[0].formula->op, Op::Eventually);
  EXPECT_EQ(spec.properties[1].name, "p2");  // auto-named by 1-based index
  EXPECT_EQ(spec.properties[1].formula->op, Op::Always);
}

TEST(LtlParser, PrecedenceUnaryBindsTighterThanBinary) {
  // F binds to the atom only; && then joins the two temporal subformulas.
  const auto f = parse_formula("F p(a) && G q(b)");
  ASSERT_EQ(f->op, Op::And);
  EXPECT_EQ(f->lhs->op, Op::Eventually);
  EXPECT_EQ(f->rhs->op, Op::Always);
}

TEST(LtlParser, UntilIsRightAssociative) {
  const auto f = parse_formula("p(a) U q(b) U r(c)");
  ASSERT_EQ(f->op, Op::Until);
  EXPECT_EQ(f->lhs->op, Op::Atom);
  EXPECT_EQ(f->rhs->op, Op::Until);
}

TEST(LtlParser, PatternArgsConstantsAndWildcards) {
  const auto f = parse_formula("bestPath(@n0, n2, X, _)");
  ASSERT_EQ(f->op, Op::Atom);
  const Pattern& p = f->pattern;
  EXPECT_EQ(p.predicate, "bestPath");
  ASSERT_EQ(p.args.size(), 4u);
  EXPECT_FALSE(p.args[0].wildcard);  // @n0 with a concrete name is ground
  EXPECT_FALSE(p.args[1].wildcard);  // n2 constant
  EXPECT_TRUE(p.args[2].wildcard);   // upper-case variable
  EXPECT_TRUE(p.args[3].wildcard);   // _
}

TEST(LtlParser, PatternMatchingSemantics) {
  const auto f = parse_formula("link(n0, n1)");
  const Pattern& p = f->pattern;
  // Trailing arguments beyond the pattern are unconstrained.
  EXPECT_TRUE(p.matches(
      Tuple("link", {Value::addr("n0"), Value::addr("n1"), Value::integer(7)})));
  EXPECT_FALSE(p.matches(
      Tuple("link", {Value::addr("n0"), Value::addr("n9"), Value::integer(7)})));
  EXPECT_FALSE(p.matches(Tuple("hop", {Value::addr("n0"), Value::addr("n1")})));
  // Identifier constants match both Addr and Str spellings of the same text.
  EXPECT_TRUE(p.matches(Tuple("link", {Value::str("n0"), Value::str("n1")})));
}

TEST(LtlParser, CanonicalApIdentityMergesWildcardSpellings) {
  ApSet aps;
  to_nnf(parse_formula("p(X, _) || p(_, Y)"), aps);
  EXPECT_EQ(aps.aps.size(), 1u);  // both render as p(_,_)
}

TEST(LtlParser, OutOfRangeNumberIsAParseError) {
  // Regression for a LtlFuzz finding: integer and real literals beyond
  // int64/double range escaped the lexer as std::out_of_range.
  EXPECT_THROW(parse_spec("p: F q(99999999999999999999).\n"), ndlog::ParseError);
  EXPECT_THROW(parse_spec("p: F q(-99999999999999999999).\n"), ndlog::ParseError);
  EXPECT_THROW(parse_spec("p: F q(" + std::string(400, '7') + ".5).\n"),
               ndlog::ParseError);
  EXPECT_NO_THROW(parse_spec("p: F q(9223372036854775807).\n"));
}

TEST(LtlParser, ParseErrorsCarryPositions) {
  try {
    parse_spec("reach: F bestPath(@n0\n", "bad.ltl");
    FAIL() << "expected ParseError";
  } catch (const ndlog::ParseError& e) {
    EXPECT_GE(e.line(), 1);
    EXPECT_GE(e.column(), 1);
  }
  EXPECT_THROW(parse_spec("p: F .\n"), ndlog::ParseError);
  EXPECT_THROW(parse_spec("p: G q(a)\n"), ndlog::ParseError);  // missing dot
}

TEST(LtlParser, CheckSpecDiagnostics) {
  const auto program = core::path_vector_program();
  const auto catalog = ndlog::Catalog::from_program(program);
  const auto spec = parse_spec(
      "a: F nosuch(n0).\n"                    // LT0002 unknown predicate
      "b: G link(@n0, n1, 1, extra).\n"       // LT0003 arity overflow
      "c: X bestPath(@n0, n1, _, _).\n"       // LT0004 X stutter note
      "d: F G stable(nosuchrel).\n",          // LT0005 unknown stable target
      "diag.ltl");
  ndlog::DiagnosticSink sink;
  check_spec(spec, catalog, sink);
  auto has = [&](const char* code) {
    for (const auto& d : sink.diagnostics())
      if (d.code == code) return true;
    return false;
  };
  EXPECT_TRUE(has("LT0002"));
  EXPECT_TRUE(has("LT0003"));
  EXPECT_TRUE(has("LT0004"));
  EXPECT_TRUE(has("LT0005"));
  EXPECT_EQ(sink.count(ndlog::Severity::Error), 0u);  // warnings never block
}

/// "name: F (bestPath(@n0,n0,_,_) || ... )." over `distinct` destinations,
/// each disjunct written `copies` times.
std::string wide_spec(int distinct, int copies) {
  std::string disjuncts;
  for (int c = 0; c < copies; ++c) {
    for (int i = 0; i < distinct; ++i) {
      if (!disjuncts.empty()) disjuncts += " || ";
      disjuncts += "bestPath(@n0, n" + std::to_string(i) + ", _, _)";
    }
  }
  return "wide: F (" + disjuncts + ").\n";
}

TEST(LtlParser, CheckSpecRejectsMoreAtomsThanAValuationHolds) {
  const auto catalog = ndlog::Catalog::from_program(core::path_vector_program());
  const auto errors_for = [&](const std::string& text) {
    ndlog::DiagnosticSink sink;
    check_spec(parse_spec(text, "wide.ltl"), catalog, sink);
    std::vector<std::string> codes;
    for (const auto& d : sink.diagnostics()) {
      if (d.severity == ndlog::Severity::Error) codes.push_back(d.code);
    }
    return codes;
  };
  // 70 distinct atoms: an LT0006 error instead of a throw when lowered.
  EXPECT_EQ(errors_for(wide_spec(70, 1)), std::vector<std::string>{"LT0006"});
  // Atoms are counted after ApSet's dedup: 64 distinct atoms written twice
  // (128 occurrences) are within the limit and lower without throwing.
  EXPECT_TRUE(errors_for(wide_spec(64, 2)).empty());
  const Spec at_limit = parse_spec(wide_spec(64, 2));
  ApSet aps;
  EXPECT_NO_THROW(to_nnf(at_limit.properties.at(0).formula, aps));
  EXPECT_EQ(aps.aps.size(), ApSet::kMax);
  // One more distinct atom crosses it; intern keeps its guard.
  EXPECT_EQ(errors_for(wide_spec(65, 1)), std::vector<std::string>{"LT0006"});
  ApSet over;
  EXPECT_THROW(to_nnf(parse_spec(wide_spec(65, 1)).properties.at(0).formula, over),
               std::runtime_error);
}

// ---------------------------------------------------------------------------
// NNF + Büchi
// ---------------------------------------------------------------------------

TEST(LtlNnf, NegationPushesThroughTemporalOperators) {
  ApSet aps;
  // ¬(F p) = G ¬p = false R ¬p.
  const auto nnf = to_nnf(parse_formula("F p(a)"), aps, /*negated=*/true);
  ASSERT_EQ(nnf->kind, Nnf::Kind::Release);
  EXPECT_EQ(nnf->lhs->kind, Nnf::Kind::False);
  ASSERT_EQ(nnf->rhs->kind, Nnf::Kind::Lit);
  EXPECT_FALSE(nnf->rhs->positive);
}

TEST(LtlNnf, ImplicationRewrites) {
  ApSet aps;
  // p -> q  ==  ¬p ∨ q.
  const auto nnf = to_nnf(parse_formula("p(a) -> q(b)"), aps);
  ASSERT_EQ(nnf->kind, Nnf::Kind::Or);
  EXPECT_FALSE(nnf->lhs->positive);
  EXPECT_TRUE(nnf->rhs->positive);
}

TEST(LtlBuchi, EventuallyAutomatonShape) {
  ApSet aps;
  const auto nnf = to_nnf(parse_formula("F p(a)"), aps);
  const Buchi b = build_buchi(nnf, aps.aps.size());
  ASSERT_FALSE(b.states.empty());
  ASSERT_FALSE(b.initial.empty());
  bool any_accepting = false;
  for (const auto& s : b.states) any_accepting |= s.accepting;
  EXPECT_TRUE(any_accepting);
  // Some state must require p (the obligation is eventually discharged).
  bool requires_p = false;
  for (const auto& s : b.states) requires_p |= (s.must_true & 1) != 0;
  EXPECT_TRUE(requires_p);
  EXPECT_FALSE(b.to_dot(aps).empty());
}

TEST(LtlBuchi, AdmitsRespectsLiteralMasks) {
  ApSet aps;
  const auto nnf = to_nnf(parse_formula("G p(a)"), aps);
  const Buchi b = build_buchi(nnf, aps.aps.size());
  // G p: every (non-trivial) state requires p; valuation 0 must be rejected
  // somewhere on every path. The initial states all require p.
  for (std::size_t i : b.initial) {
    EXPECT_TRUE(b.states[i].admits(1));
    EXPECT_FALSE(b.states[i].admits(0));
  }
}

// ---------------------------------------------------------------------------
// Model checker over the NDlog transition system
// ---------------------------------------------------------------------------

std::vector<Tuple> line2_links() {
  return {Tuple("link", {Value::addr("n0"), Value::addr("n1"), Value::integer(1)}),
          Tuple("link", {Value::addr("n1"), Value::addr("n0"), Value::integer(1)})};
}

TEST(LtlChecker, LivenessHoldsOnReachable) {
  mc::NdlogTransitionSystem ts(core::reachable_program());
  const auto spec = parse_spec(
      "reach: F reachable(@n0, n1).\n"
      "converges: F G stable(reachable).\n");
  const auto result = check_ltl(ts, ts.initial(line2_links()), spec);
  ASSERT_EQ(result.properties.size(), 2u);
  EXPECT_TRUE(result.all_hold());
  EXPECT_TRUE(result.exhausted());
  for (const auto& p : result.properties) {
    EXPECT_GT(p.product_states, 0u);
    EXPECT_TRUE(p.stem.empty());
  }
}

TEST(LtlChecker, ViolationYieldsLassoWithSnapshots) {
  mc::NdlogTransitionSystem ts(core::reachable_program());
  const auto spec = parse_spec("bad: G !reachable(@n0, n1).\n");
  const auto result = check_ltl(ts, ts.initial(line2_links()), spec);
  ASSERT_EQ(result.properties.size(), 1u);
  const auto& p = result.properties[0];
  EXPECT_FALSE(p.holds);
  ASSERT_FALSE(p.stem.empty());
  ASSERT_FALSE(p.cycle.empty());
  // The lasso closes: the cycle ends back at the loop head.
  EXPECT_EQ(p.cycle.back().state, p.stem.back().state);
  // Snapshots are full states: the final stem state stores the offending
  // tuple at n0.
  const auto& last = p.stem.back().state;
  bool found = false;
  for (const auto& [node, tuples] : last.stored) {
    for (const auto& t : tuples) {
      if (t.predicate() == "reachable") found = true;
    }
  }
  EXPECT_TRUE(found);
  // Rendering includes per-node tables and marks the cycle.
  const std::string text = render_counterexample(p);
  EXPECT_NE(text.find("node n0"), std::string::npos);
  EXPECT_NE(text.find("cycle"), std::string::npos);
  EXPECT_NE(text.find("reachable(n0,n1)"), std::string::npos);
}

TEST(LtlChecker, CounterexampleExportsAsChromeTrace) {
  mc::NdlogTransitionSystem ts(core::reachable_program());
  const auto spec = parse_spec("bad: G !reachable(@n0, n1).\n");
  const auto result = check_ltl(ts, ts.initial(line2_links()), spec);
  obs::Trace trace;
  counterexample_to_trace(result.properties[0], trace);
  bool saw_ltl = false, saw_state = false;
  for (const auto& e : trace.events()) {
    if (e.cat == "ltl") saw_ltl = true;
    if (e.cat == "ltl-state") saw_state = true;
  }
  EXPECT_TRUE(saw_ltl);
  EXPECT_TRUE(saw_state);
}

TEST(LtlChecker, BudgetExhaustionIsReported) {
  mc::NdlogTransitionSystem ts(core::path_vector_program());
  const auto spec = parse_spec("conv: F G stable(bestPath).\n");
  CheckOptions options;
  options.max_product_states = 3;
  const auto result =
      check_ltl(ts, ts.initial(core::link_facts(core::line_topology(3))), spec);
  const auto bounded = check_ltl(
      ts, ts.initial(core::link_facts(core::line_topology(3))), spec, options);
  EXPECT_TRUE(result.exhausted());
  EXPECT_FALSE(bounded.exhausted());
  EXPECT_TRUE(bounded.all_hold());  // no violation found within the budget
}

TEST(LtlChecker, StableIsTrueInitiallyAndAfterQuiescence) {
  // On an empty-step system (no facts) stable() holds immediately: the
  // stutter self-loop keeps every relation unchanged forever.
  mc::NdlogTransitionSystem ts(core::reachable_program());
  const auto spec = parse_spec("s: G stable(reachable).\n");
  const auto result = check_ltl(ts, ts.initial({}), spec);
  EXPECT_TRUE(result.all_hold());
}

TEST(LtlChecker, GoldenCounterexampleIsStable) {
  // The rendered lasso for the smallest violated property is pinned byte for
  // byte: any change to the search order, state encoding, or renderer shows
  // up as a golden diff. One directed link => a deterministic 3-step stem.
  mc::NdlogTransitionSystem ts(core::reachable_program());
  const auto spec = parse_spec("never_reaches: G !reachable(@n0, n1).\n");
  const std::vector<Tuple> facts = {
      Tuple("link", {Value::addr("n0"), Value::addr("n1"), Value::integer(1)})};
  const auto result = check_ltl(ts, ts.initial(facts), spec);
  ASSERT_FALSE(result.all_hold());
  const std::string text = render_counterexample(result.properties[0]);

  const auto golden_path = std::filesystem::path(FVN_SOURCE_DIR) / "tests" /
                           "golden" / "ltl" / "reachable_never.txt";
  std::ifstream in(golden_path);
  ASSERT_TRUE(in.good()) << golden_path;
  std::ostringstream os;
  os << in.rdbuf();
  EXPECT_EQ(text, os.str());
}

// ---------------------------------------------------------------------------
// Runtime monitor
// ---------------------------------------------------------------------------

/// Feed one event at node n0 (TupleEvent is a view, so the tuple lives in
/// the caller's full expression).
void feed(MonitorSet& monitors, TupleEvent::Kind kind, const Tuple& tuple) {
  static const std::string node = "n0";
  monitors.on_event(TupleEvent{kind, node, tuple, 0.0});
}

Tuple p_a() { return Tuple("p", {Value::addr("a")}); }

TEST(LtlMonitor, SafetyViolationFiresMidTrace) {
  const auto spec = parse_spec("never: G !p(a).\n");
  MonitorSet monitors(spec);
  feed(monitors, TupleEvent::Kind::Install, Tuple("q", {Value::addr("x")}));
  EXPECT_TRUE(monitors.all_satisfied());
  feed(monitors, TupleEvent::Kind::Install, p_a());
  const auto verdicts = monitors.finish();
  ASSERT_EQ(verdicts.size(), 1u);
  EXPECT_FALSE(verdicts[0].satisfied);
  EXPECT_TRUE(verdicts[0].fired);
  EXPECT_EQ(verdicts[0].violation_event, 2u);  // 1-based ordinal
  EXPECT_NE(render_verdicts(verdicts).find("VIOLATED"), std::string::npos);
  EXPECT_NE(render_verdicts(verdicts).find("fired at event 2"), std::string::npos);
}

TEST(LtlMonitor, LivenessSatisfiedOnceWitnessed) {
  const auto spec = parse_spec("reach: F p(a).\n");
  MonitorSet monitors(spec);
  // Unsatisfied at end of an empty trace: the stutter extension never
  // produces p(a).
  EXPECT_FALSE(monitors.all_satisfied());
  feed(monitors, TupleEvent::Kind::Install, p_a());
  // Even after a retraction, F p was witnessed — still satisfied.
  feed(monitors, TupleEvent::Kind::Retract, p_a());
  const auto verdicts = monitors.finish();
  EXPECT_TRUE(verdicts[0].satisfied);
  EXPECT_FALSE(verdicts[0].fired);
}

TEST(LtlMonitor, PersistenceTracksFinalState) {
  // F G p(a): satisfied iff p(a) is stored at end of trace (stutter
  // extension holds it forever).
  const auto spec = parse_spec("hold: F G p(a).\n");
  {
    MonitorSet monitors(spec);
    feed(monitors, TupleEvent::Kind::Install, p_a());
    EXPECT_TRUE(monitors.all_satisfied());
  }
  {
    MonitorSet monitors(spec);
    feed(monitors, TupleEvent::Kind::Install, p_a());
    feed(monitors, TupleEvent::Kind::Retract, p_a());
    EXPECT_FALSE(monitors.all_satisfied());
  }
}

TEST(LtlMonitor, ExpiryCountsAsRemoval) {
  const auto spec = parse_spec("hold: F G p(a).\n");
  MonitorSet monitors(spec);
  feed(monitors, TupleEvent::Kind::Install, p_a());
  feed(monitors, TupleEvent::Kind::Expire, p_a());
  EXPECT_FALSE(monitors.all_satisfied());
}

TEST(LtlMonitor, StablePredicateOverEvents) {
  // F G stable(p): satisfied at end of any finite trace (stutter extension
  // stops changing p), but an event stream where p keeps changing only
  // becomes stable at the end.
  const auto spec = parse_spec("conv: F G stable(p).\n");
  MonitorSet monitors(spec);
  feed(monitors, TupleEvent::Kind::Install, p_a());
  feed(monitors, TupleEvent::Kind::Retract, p_a());
  EXPECT_TRUE(monitors.all_satisfied());
}

// ---------------------------------------------------------------------------
// Spec parser fuzz: seeded byte flips, truncations and token splices over
// every shipped spec. Each input must end in a Spec (then check_spec), an
// ndlog::ParseError, or diagnostics — never another exception, and never a
// sanitizer report (check.sh runs this label under ASan/UBSan and TSan).
// ---------------------------------------------------------------------------

/// Spliced in whole: the spec language's tokens plus inputs that stress the
/// lexer's number, string and comment paths.
const std::string_view kSpliceTokens[] = {
    "G", "F", "X", "U", "R", "!", "&&", "||", "->", "(", ")", "@", "_", ",",
    ".", ":", "-", "-1", "0.5", "stable(", "true", "false", "\"", "\"s\"",
    "/*", "*/", "//", "\n", "\\", "99999999999999999999",
    "1111111111111111111111111111111111111111111111111111111111111111111111111"
    "1111111111111111111111111111111111111111111111111111111111111111111111111"
    "1111111111111111111111111111111111111111111111111111111111111111111111111"
    "1111111111111111111111111111111111111111111111111111111111111111111111111"
    "1111111111111111111111111111111111111111111111111111111111111111111111111",
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

TEST(LtlFuzz, MutatedExampleSpecsParseOrFailCleanly) {
  const auto dir = std::filesystem::path(FVN_SOURCE_DIR) / "examples" / "ndlog";
  std::vector<std::filesystem::path> specs;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    if (entry.path().extension() == ".ltl") specs.push_back(entry.path());
  }
  std::sort(specs.begin(), specs.end());  // directory order is unspecified
  ASSERT_FALSE(specs.empty());

  std::mt19937_64 rng(0x5eed1u);
  std::size_t parsed = 0;
  std::size_t rejected = 0;
  for (const auto& path : specs) {
    std::string stem = path.stem().string();
    if (const auto cut = stem.find("_violated"); cut != std::string::npos) {
      stem.resize(cut);
    }
    std::ifstream ndlog_in(dir / (stem + ".ndlog"));
    std::ifstream spec_in(path);
    std::ostringstream program_text;
    std::ostringstream spec_text;
    program_text << ndlog_in.rdbuf();
    spec_text << spec_in.rdbuf();
    const auto catalog =
        ndlog::Catalog::from_program(ndlog::parse_program(program_text.str()));
    for (int i = 0; i < 1000; ++i) {
      const std::string input = mutate(spec_text.str(), rng);
      try {
        const Spec spec = parse_spec(input, "fuzz.ltl");
        ndlog::DiagnosticSink sink;
        check_spec(spec, catalog, sink);
        ++parsed;
      } catch (const ndlog::ParseError& e) {
        EXPECT_GE(e.line(), 1);
        EXPECT_GE(e.column(), 1);
        ++rejected;
      } catch (const std::exception& e) {
        ADD_FAILURE() << path.filename() << " mutation " << i << ": "
                      << e.what() << "\ninput:\n"
                      << input;
      }
    }
  }
  // Both outcomes occur, so the mutations neither always break nor never
  // touch the grammar.
  EXPECT_GT(parsed, 0u);
  EXPECT_GT(rejected, 0u);
}

}  // namespace
}  // namespace fvn
