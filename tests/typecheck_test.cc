#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "typecheck/ast.h"
#include "typecheck/checker.h"
#include "typecheck/interpreter.h"
#include "typecheck/programs.h"

namespace oblivdb::typecheck {
namespace {

constexpr Label L = Label::kLow;
constexpr Label H = Label::kHigh;

Environment SimpleEnv() {
  Environment env;
  env.variables = {{"n", L}, {"x", H}, {"y", H}, {"low", L}, {"c", H}};
  env.arrays = {{"A", H}, {"B", H}};
  return env;
}

// ---------------------------------------------------------------------------
// Label lattice.

TEST(LabelTest, JoinAndFlow) {
  EXPECT_EQ(JoinLabels(L, L), L);
  EXPECT_EQ(JoinLabels(L, H), H);
  EXPECT_EQ(JoinLabels(H, H), H);
  EXPECT_TRUE(FlowsTo(L, L));
  EXPECT_TRUE(FlowsTo(L, H));
  EXPECT_TRUE(FlowsTo(H, H));
  EXPECT_FALSE(FlowsTo(H, L));
}

// ---------------------------------------------------------------------------
// Expression / statement structural helpers.

TEST(ExprTest, StructuralEquality) {
  EXPECT_TRUE(ExprEquals(Add(Var("i"), Const(1)), Add(Var("i"), Const(1))));
  EXPECT_FALSE(ExprEquals(Add(Var("i"), Const(1)), Add(Var("i"), Const(2))));
  EXPECT_FALSE(ExprEquals(Add(Var("i"), Const(1)), Sub(Var("i"), Const(1))));
  EXPECT_FALSE(ExprEquals(Var("i"), Const(1)));
}

// ---------------------------------------------------------------------------
// Positive typing rules.

TEST(CheckerTest, ReadWriteWithPublicIndexTypes) {
  TypeChecker checker(SimpleEnv());
  const auto r = checker.Check(Seq({
      ArrayRead("x", "A", Const(3)),
      ArrayWrite("A", Const(3), Var("x")),
  }));
  EXPECT_TRUE(r.ok) << r.error;
}

TEST(CheckerTest, LoopOverPublicBoundTypes) {
  TypeChecker checker(SimpleEnv());
  const auto r = checker.Check(
      For("i", Var("n"), ArrayRead("x", "A", Var("i"))));
  EXPECT_TRUE(r.ok) << r.error;
  EXPECT_EQ(TraceToString(r.trace), "repeat(i in 1..n, R(A, i))");
}

TEST(CheckerTest, BalancedBranchesType) {
  TypeChecker checker(SimpleEnv());
  const auto r = checker.Check(
      If(Var("c"), ArrayWrite("A", Const(1), Var("x")),
         ArrayWrite("A", Const(1), Var("y"))));
  EXPECT_TRUE(r.ok) << r.error;
}

TEST(CheckerTest, LowToHighFlowAllowed) {
  TypeChecker checker(SimpleEnv());
  EXPECT_TRUE(checker.Check(Assign("x", Var("n"))).ok);
  EXPECT_TRUE(checker.Check(Assign("low", Var("n"))).ok);
  EXPECT_TRUE(checker.Check(Assign("x", Var("y"))).ok);
}

// ---------------------------------------------------------------------------
// Negative typing rules.

TEST(CheckerTest, RejectsHighIndexedRead) {
  TypeChecker checker(SimpleEnv());
  const auto r = checker.Check(ArrayRead("y", "B", Var("x")));
  EXPECT_FALSE(r.ok);
  EXPECT_NE(r.error.find("indexed by high-security"), std::string::npos);
}

TEST(CheckerTest, RejectsHighIndexedWrite) {
  TypeChecker checker(SimpleEnv());
  EXPECT_FALSE(checker.Check(ArrayWrite("B", Var("x"), Const(0))).ok);
}

TEST(CheckerTest, RejectsHighToLowAssignment) {
  TypeChecker checker(SimpleEnv());
  const auto r = checker.Check(Assign("low", Var("x")));
  EXPECT_FALSE(r.ok);
}

TEST(CheckerTest, RejectsUnbalancedBranches) {
  TypeChecker checker(SimpleEnv());
  const auto r =
      checker.Check(If(Var("c"), ArrayWrite("A", Const(1), Var("x")), Skip()));
  EXPECT_FALSE(r.ok);
  EXPECT_NE(r.error.find("different traces"), std::string::npos);
}

TEST(CheckerTest, RejectsBranchesWithDifferentIndices) {
  TypeChecker checker(SimpleEnv());
  const auto r = checker.Check(If(Var("c"),
                                  ArrayWrite("A", Const(1), Var("x")),
                                  ArrayWrite("A", Const(2), Var("x"))));
  EXPECT_FALSE(r.ok);
}

TEST(CheckerTest, RejectsSecretLoopBound) {
  TypeChecker checker(SimpleEnv());
  const auto r = checker.Check(For("i", Var("x"), Skip()));
  EXPECT_FALSE(r.ok);
  EXPECT_NE(r.error.find("loop bound"), std::string::npos);
}

TEST(CheckerTest, RejectsImplicitFlow) {
  TypeChecker checker(SimpleEnv());
  const auto r = checker.Check(
      If(Var("c"), Assign("low", Const(1)), Assign("low", Const(1))));
  EXPECT_FALSE(r.ok);
}

TEST(CheckerTest, RejectsUndeclaredNames) {
  TypeChecker checker(SimpleEnv());
  EXPECT_FALSE(checker.Check(Assign("nope", Const(1))).ok);
  EXPECT_FALSE(checker.Check(ArrayRead("x", "NOPE", Const(0))).ok);
  EXPECT_FALSE(checker.Check(Assign("x", Var("ghost"))).ok);
}

TEST(CheckerTest, LoopVariableIsScopedLow) {
  // The loop var may be used as an index inside, but referring to it after
  // the loop (if undeclared) fails.
  TypeChecker checker(SimpleEnv());
  EXPECT_TRUE(
      checker.Check(For("i", Var("n"), ArrayRead("x", "A", Var("i")))).ok);
  EXPECT_FALSE(checker.Check(Assign("x", Var("i"))).ok);
}

// ---------------------------------------------------------------------------
// The paper kernels type-check; the counterexamples do not.

TEST(ProgramsTest, RoutingNetworkTypes) {
  auto [program, env] = RoutingNetworkProgram();
  const auto r = TypeChecker(env).Check(program);
  EXPECT_TRUE(r.ok) << r.error;
}

TEST(ProgramsTest, FillDimensionsTypes) {
  auto [program, env] = FillDimensionsForwardProgram();
  EXPECT_TRUE(TypeChecker(env).Check(program).ok);
}

TEST(ProgramsTest, AlignIndexTypes) {
  auto [program, env] = AlignIndexProgram();
  EXPECT_TRUE(TypeChecker(env).Check(program).ok);
}

TEST(ProgramsTest, CounterexamplesRejected) {
  for (auto maker : {LeakyIndexProgram, LeakyBranchProgram,
                     SecretLoopBoundProgram, ImplicitFlowProgram}) {
    auto [program, env] = maker();
    EXPECT_FALSE(TypeChecker(env).Check(program).ok);
  }
}

// ---------------------------------------------------------------------------
// Interpreter semantics.

TEST(InterpreterTest, ArithmeticAndAssignment) {
  Interpreter interp({{"a", 7}, {"b", 3}, {"r", 0}}, {});
  interp.Run(Assign("r", Add(Mul(Var("a"), Var("b")), Const(1))));
  EXPECT_EQ(interp.GetVariable("r"), 22u);
}

TEST(InterpreterTest, DivisionByZeroIsTotal) {
  Interpreter interp({{"r", 0}}, {});
  interp.Run(Assign("r", Div(Const(5), Const(0))));
  EXPECT_EQ(interp.GetVariable("r"), 0u);
  interp.Run(Assign("r", Mod(Const(5), Const(0))));
  EXPECT_EQ(interp.GetVariable("r"), 0u);
}

TEST(InterpreterTest, LoopAndArrays) {
  // Sum A[1..4] into x.
  Interpreter interp({{"x", 0}, {"n", 4}},
                     {{"A", {0, 10, 20, 30, 40}}});
  interp.Run(Seq({
      Assign("x", Const(0)),
      For("i", Var("n"),
          Seq({ArrayRead("t", "A", Var("i")),
               Assign("x", Add(Var("x"), Var("t")))})),
  }));
  EXPECT_EQ(interp.GetVariable("x"), 100u);
  ASSERT_EQ(interp.trace().size(), 4u);
  EXPECT_EQ(interp.trace()[0], (ConcreteAccess{true, "A", 1}));
  EXPECT_EQ(interp.trace()[3], (ConcreteAccess{true, "A", 4}));
}

TEST(InterpreterTest, BranchesExecuteOneSide) {
  Interpreter interp({{"c", 1}, {"r", 0}}, {});
  interp.Run(If(Var("c"), Assign("r", Const(5)), Assign("r", Const(9))));
  EXPECT_EQ(interp.GetVariable("r"), 5u);
}

// ---------------------------------------------------------------------------
// End-to-end: a well-typed kernel, executed, is actually correct AND its
// concrete traces agree across secret inputs — the §6.1 claim in miniature.

std::vector<uint64_t> RunRoutingDsl(const std::vector<uint64_t>& values,
                                    const std::vector<uint64_t>& dests,
                                    uint64_t m, uint64_t k,
                                    std::vector<ConcreteAccess>* trace) {
  auto [program, env] = RoutingNetworkProgram();
  (void)env;
  std::vector<uint64_t> a(m + 1, 0), f(m + 1, 0);
  for (size_t i = 0; i < values.size(); ++i) {
    a[i + 1] = values[i];
    f[i + 1] = dests[i];
  }
  Interpreter interp({{"m", m}, {"k", k}}, {{"A", a}, {"F", f}});
  interp.Run(program);
  if (trace != nullptr) *trace = interp.trace();
  return interp.GetArray("A");
}

TEST(DslRoutingTest, MatchesFigure3AndTracesAgree) {
  // Destinations 1, 3, 4, 6, 8 (sorted), m = 8, k = 3.
  std::vector<ConcreteAccess> trace1, trace2;
  const auto a1 = RunRoutingDsl({101, 102, 103, 104, 105}, {1, 3, 4, 6, 8},
                                8, 3, &trace1);
  EXPECT_EQ(a1[1], 101u);
  EXPECT_EQ(a1[3], 102u);
  EXPECT_EQ(a1[4], 103u);
  EXPECT_EQ(a1[6], 104u);
  EXPECT_EQ(a1[8], 105u);

  // Different secret contents, same sizes -> identical concrete trace.
  const auto a2 =
      RunRoutingDsl({7, 8, 9, 10, 11}, {4, 5, 6, 7, 8}, 8, 3, &trace2);
  EXPECT_EQ(a2[4], 7u);
  EXPECT_EQ(a2[8], 11u);
  EXPECT_EQ(trace1, trace2);
}

TEST(DslFillDimensionsTest, ComputesRunningCounts) {
  auto [program, env] = FillDimensionsForwardProgram();
  (void)env;
  // Groups: j=5 (tids 1, 2, 2), j=9 (tid 1).  1-based arrays.
  Interpreter interp({{"n", 4}},
                     {{"J", {0, 5, 5, 5, 9}},
                      {"TID", {0, 1, 2, 2, 1}},
                      {"A1", {0, 0, 0, 0, 0}},
                      {"A2", {0, 0, 0, 0, 0}}});
  interp.Run(program);
  EXPECT_EQ(interp.GetArray("A1"), (std::vector<uint64_t>{0, 1, 1, 1, 1}));
  EXPECT_EQ(interp.GetArray("A2"), (std::vector<uint64_t>{0, 0, 1, 2, 0}));
}

TEST(DslAlignTest, ComputesInterleavingIndices) {
  auto [program, env] = AlignIndexProgram();
  (void)env;
  // One group, alpha1 = 2, alpha2 = 3, m = 6: ii = q/2 + (q%2)*3.
  Interpreter interp({{"m", 6}},
                     {{"J", {0, 4, 4, 4, 4, 4, 4}},
                      {"ALPHA1", {0, 2, 2, 2, 2, 2, 2}},
                      {"ALPHA2", {0, 3, 3, 3, 3, 3, 3}},
                      {"II", std::vector<uint64_t>(7, 0)}});
  interp.Run(program);
  EXPECT_EQ(interp.GetArray("II"),
            (std::vector<uint64_t>{0, 0, 3, 1, 4, 2, 5}));
}

}  // namespace
}  // namespace oblivdb::typecheck
