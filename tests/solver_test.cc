//===- tests/solver_test.cc - Entailment engine tests -----------*- C++ -*-===//

#include "support/rng.h"
#include "sym/solver.h"

#include <gtest/gtest.h>

namespace reflex {
namespace {

struct SolverTest : ::testing::Test {
  TermContext Ctx;
  Solver S{Ctx};

  Lit eq(TermRef A, TermRef B, bool Pos = true) {
    return Lit(Ctx.eq(A, B), Pos);
  }
  TermRef sym(const char *N, BaseType Ty = BaseType::Num) {
    return Ctx.stateSym(N, Ty);
  }
};

TEST_F(SolverTest, EmptyIsSat) { EXPECT_TRUE(S.maybeSat({})); }

TEST_F(SolverTest, LiteralConflict) {
  TermRef X = sym("x");
  EXPECT_FALSE(S.maybeSat({eq(X, Ctx.numLit(1)), eq(X, Ctx.numLit(2))}));
  EXPECT_TRUE(S.maybeSat({eq(X, Ctx.numLit(1)), eq(X, Ctx.numLit(1))}));
}

TEST_F(SolverTest, TransitiveEquality) {
  TermRef X = sym("x"), Y = sym("y"), Z = sym("z");
  // x = y, y = z, x != z is unsat.
  EXPECT_FALSE(S.maybeSat({eq(X, Y), eq(Y, Z), eq(X, Z, false)}));
  EXPECT_TRUE(S.maybeSat({eq(X, Y), eq(X, Z, false)}));
}

TEST_F(SolverTest, StringEqualities) {
  TermRef D = sym("d", BaseType::Str);
  EXPECT_FALSE(S.maybeSat(
      {eq(D, Ctx.strLit("a.com")), eq(D, Ctx.strLit("b.com"))}));
}

TEST_F(SolverTest, CongruenceOverArithmetic) {
  TermRef X = sym("x"), Y = sym("y");
  // x = y implies x+1 = y+1: asserting the sums differ is unsat.
  TermRef X1 = Ctx.add(X, Ctx.numLit(1));
  TermRef Y1 = Ctx.add(Y, Ctx.numLit(1));
  EXPECT_FALSE(S.maybeSat({eq(X, Y), eq(X1, Y1, false)}));
}

TEST_F(SolverTest, ComponentProjection) {
  // Equal components have equal config fields.
  TermRef FA = Ctx.freshSym("fa", BaseType::Str);
  TermRef FB = Ctx.freshSym("fb", BaseType::Str);
  TermRef A = Ctx.comp("Tab", CompIdent::FlexPre, 0, {FA});
  TermRef B = Ctx.comp("Tab", CompIdent::FlexPre, 1, {FB});
  EXPECT_FALSE(S.maybeSat({eq(A, B), eq(FA, Ctx.strLit("x")),
                           eq(FB, Ctx.strLit("y"))}));
  EXPECT_TRUE(S.maybeSat({eq(A, B), eq(FA, Ctx.strLit("x")),
                          eq(FB, Ctx.strLit("x"))}));
}

TEST_F(SolverTest, ComponentIdentityConflicts) {
  TermRef I0 = Ctx.comp("T", CompIdent::InitRigid, 0, {});
  TermRef I1 = Ctx.comp("T", CompIdent::InitRigid, 1, {});
  TermRef New = Ctx.comp("T", CompIdent::NewRigid, 2, {});
  TermRef Pre = Ctx.comp("T", CompIdent::FlexPre, 3, {});
  // Even via a variable chain the identity algebra bites: pre = i0 and
  // pre = i1 forces i0 = i1, which is impossible. (Direct eq() would fold
  // to false; route through a shared FlexPre so the solver must do it.)
  EXPECT_FALSE(S.maybeSat({eq(Pre, I0), eq(Pre, I1)}));
  EXPECT_FALSE(S.maybeSat({eq(Pre, New)}));
  EXPECT_TRUE(S.maybeSat({eq(Pre, I0)}));
}

TEST_F(SolverTest, BoolAtoms) {
  TermRef B = sym("b", BaseType::Bool);
  EXPECT_FALSE(S.maybeSat({Lit(B, true), Lit(B, false)}));
  EXPECT_FALSE(S.maybeSat({Lit(B, true), eq(B, Ctx.boolLit(false))}));
  EXPECT_FALSE(S.maybeSat({Lit(Ctx.falseTerm(), true)}));
  EXPECT_TRUE(S.maybeSat({Lit(Ctx.falseTerm(), false)}));
}

TEST_F(SolverTest, NumericBounds) {
  TermRef X = sym("x");
  Lit Lt3(Ctx.lt(X, Ctx.numLit(3)), true);
  Lit Gt5(Ctx.lt(Ctx.numLit(5), X), true);
  EXPECT_FALSE(S.maybeSat({Lt3, Gt5})) << "x < 3 and 5 < x";
  EXPECT_FALSE(S.maybeSat({Lt3, eq(X, Ctx.numLit(7))}));
  EXPECT_TRUE(S.maybeSat({Lt3, eq(X, Ctx.numLit(2))}));
  // x < x is unsat even without values.
  EXPECT_FALSE(S.maybeSat({Lit(Ctx.lt(X, X), true)}));
  // Negation: !(x <= 3) with x == 2 is unsat.
  EXPECT_FALSE(S.maybeSat(
      {Lit(Ctx.le(X, Ctx.numLit(3)), false), eq(X, Ctx.numLit(2))}));
}

TEST_F(SolverTest, ArithmeticEvaluation) {
  TermRef X = sym("x");
  TermRef Sum = Ctx.add(X, sym("y"));
  // x = 2, y = 3, x + y != 5 is unsat.
  EXPECT_FALSE(S.maybeSat({eq(X, Ctx.numLit(2)),
                           eq(sym("y"), Ctx.numLit(3)),
                           eq(Sum, Ctx.numLit(5), false)}));
}

TEST_F(SolverTest, Entailment) {
  TermRef X = sym("x"), Y = sym("y");
  std::vector<Lit> Assume{eq(X, Y), eq(Y, Ctx.numLit(4))};
  EXPECT_TRUE(S.entails(Assume, eq(X, Ctx.numLit(4))));
  EXPECT_FALSE(S.entails(Assume, eq(X, Ctx.numLit(5))));
  EXPECT_TRUE(S.entails(Assume, eq(X, Ctx.numLit(5), false)))
      << "entailment of a negative literal";
  EXPECT_TRUE(S.entailsAll(Assume, Assume));
}

TEST_F(SolverTest, EntailGoalLiterallyPresent) {
  TermRef B = sym("b", BaseType::Bool);
  EXPECT_TRUE(S.entails({Lit(B, true)}, Lit(B, true)));
  EXPECT_FALSE(S.entails({}, Lit(B, true)));
}

TEST_F(SolverTest, MemoIsSemanticallyInvisible) {
  TermRef X = sym("x");
  std::vector<Lit> L{eq(X, Ctx.numLit(1)), eq(X, Ctx.numLit(2))};
  EXPECT_FALSE(S.maybeSat(L));
  EXPECT_FALSE(S.maybeSat(L)) << "memoized answer identical";
  Solver NoMemo(Ctx);
  NoMemo.setMemoEnabled(false);
  EXPECT_FALSE(NoMemo.maybeSat(L));
  NoMemo.maybeSat(L);
  EXPECT_EQ(NoMemo.queriesSolved(), 2u) << "each call recomputed";
  EXPECT_EQ(S.queriesSolved(), 1u) << "memo hit";
}

TEST_F(SolverTest, MergeOrderParityAcrossDrainPolicies) {
  // Activity-driven pending-merge ordering must be verdict-invisible:
  // congruence closure is confluent, so the activity-ordered drain and
  // the from-scratch reference algorithm agree on every query. Random
  // literal sets over a small term algebra exercise congruence cascades
  // (shared subterms) and conflicts.
  Rng Rand(20260808);
  for (int Round = 0; Round < 200; ++Round) {
    TermContext C;
    Solver Act(C), Ref(C);
    Act.setMemoEnabled(false);
    Ref.setMemoEnabled(false);
    Ref.setIncrementalEnabled(false);
    TermRef V[4] = {C.stateSym("x", BaseType::Num),
                    C.stateSym("y", BaseType::Num),
                    C.stateSym("z", BaseType::Num),
                    C.stateSym("w", BaseType::Num)};
    auto Term = [&]() -> TermRef {
      TermRef T = V[Rand.below(4)];
      for (unsigned K = Rand.below(3); K; --K)
        T = Rand.below(2) ? C.add(T, V[Rand.below(4)])
                          : C.add(T, C.numLit(int64_t(Rand.below(3))));
      return T;
    };
    std::vector<Lit> Ls;
    for (unsigned I = 0, N = 3 + Rand.below(8); I < N; ++I)
      Ls.push_back(Lit(C.eq(Term(), Term()), Rand.below(4) != 0));
    SatResult RA = Act.checkLits(Ls);
    SatResult RR = Ref.checkLits(Ls);
    ASSERT_EQ(RA, RR) << "incremental vs reference disagree, round " << Round;
  }
}

// --- Soundness sweep against brute force ----------------------------------
// Every Proved verdict in the system rests on the solver's Unsat answers
// being sound. Generate random literal sets over three num variables and
// one bool variable, decide them by brute force over a small domain, and
// require: solver says Unsat => brute force finds no model. (The converse
// may fail — the engine is deliberately incomplete — but on this fragment
// we also count how often it detects genuine unsatisfiability.)

class SolverSoundness : public ::testing::TestWithParam<uint64_t> {};

TEST_P(SolverSoundness, UnsatIsNeverWrong) {
  Rng Rand(GetParam());
  unsigned TrulyUnsat = 0, Detected = 0;
  for (int Round = 0; Round < 400; ++Round) {
    TermContext Ctx;
    Solver S(Ctx);
    TermRef Vars[3] = {Ctx.stateSym("x", BaseType::Num),
                       Ctx.stateSym("y", BaseType::Num),
                       Ctx.stateSym("z", BaseType::Num)};
    TermRef B = Ctx.stateSym("b", BaseType::Bool);

    auto RandNumTerm = [&]() -> TermRef {
      switch (Rand.below(4)) {
      case 0:
      case 1:
        return Vars[Rand.below(3)];
      case 2:
        return Ctx.numLit(static_cast<int64_t>(Rand.below(3)));
      default:
        return Ctx.add(Vars[Rand.below(3)],
                       Ctx.numLit(static_cast<int64_t>(Rand.below(2))));
      }
    };

    std::vector<Lit> Lits;
    size_t N = 2 + Rand.below(5);
    for (size_t I = 0; I < N; ++I) {
      bool Pos = Rand.chance(2, 3);
      switch (Rand.below(4)) {
      case 0:
        Lits.emplace_back(Ctx.eq(RandNumTerm(), RandNumTerm()), Pos);
        break;
      case 1:
        Lits.emplace_back(Ctx.lt(RandNumTerm(), RandNumTerm()), Pos);
        break;
      case 2:
        Lits.emplace_back(Ctx.le(RandNumTerm(), RandNumTerm()), Pos);
        break;
      default:
        Lits.emplace_back(B, Pos);
        break;
      }
    }

    // Brute force over x, y, z in [0, 3] and b in {false, true}. (The
    // domain is larger than the literal constants, so satisfiable sets
    // have witnesses inside it on this fragment.)
    bool Model = false;
    for (int64_t X = 0; X <= 3 && !Model; ++X)
      for (int64_t Y = 0; Y <= 3 && !Model; ++Y)
        for (int64_t Z = 0; Z <= 3 && !Model; ++Z)
          for (int Bv = 0; Bv <= 1 && !Model; ++Bv) {
            auto EvalNum = [&](TermRef T, auto &&Self) -> int64_t {
              if (T->Kind == TermKind::NumLit)
                return T->IntVal;
              if (T->Kind == TermKind::SymVar) {
                const std::string &Name = Ctx.symbolStr(T->Str);
                return Name == "x" ? X : Name == "y" ? Y : Z;
              }
              int64_t L = Self(T->Ops[0], Self);
              int64_t R = Self(T->Ops[1], Self);
              return T->Kind == TermKind::Add ? L + R : L - R;
            };
            bool Ok = true;
            for (const Lit &L : Lits) {
              bool V;
              switch (L.Atom->Kind) {
              case TermKind::Eq:
                V = EvalNum(L.Atom->Ops[0], EvalNum) ==
                    EvalNum(L.Atom->Ops[1], EvalNum);
                break;
              case TermKind::Lt:
                V = EvalNum(L.Atom->Ops[0], EvalNum) <
                    EvalNum(L.Atom->Ops[1], EvalNum);
                break;
              case TermKind::Le:
                V = EvalNum(L.Atom->Ops[0], EvalNum) <=
                    EvalNum(L.Atom->Ops[1], EvalNum);
                break;
              case TermKind::BoolLit:
                // Builder simplification folds ground atoms (e.g. 2 < 1)
                // to boolean literals before the solver sees them.
                V = L.Atom->IntVal != 0;
                break;
              default:
                V = Bv != 0; // the bool variable
                break;
              }
              if (V != L.Pos) {
                Ok = false;
                break;
              }
            }
            Model |= Ok;
          }

    bool SolverUnsat = !S.maybeSat(Lits);
    if (SolverUnsat)
      ASSERT_FALSE(Model) << "solver claimed Unsat for a satisfiable set!";
    if (!Model) {
      ++TrulyUnsat;
      Detected += SolverUnsat;
    }
  }
  // Effectiveness sanity: the fragment's contradictions are mostly within
  // reach of congruence + bounds.
  if (TrulyUnsat > 20)
    EXPECT_GT(Detected * 10, TrulyUnsat * 5)
        << "detected only " << Detected << " of " << TrulyUnsat;
}

INSTANTIATE_TEST_SUITE_P(Seeds, SolverSoundness,
                         ::testing::Values(7u, 77u, 777u, 7777u));

// Property-style sweep: for all small integer pairs, the solver's verdict
// on {x == a, x == b} matches a == b.
class SolverEqSweep : public ::testing::TestWithParam<std::pair<int, int>> {};

TEST_P(SolverEqSweep, GroundEqualitiesDecided) {
  TermContext Ctx;
  Solver S(Ctx);
  auto [A, B] = GetParam();
  TermRef X = Ctx.stateSym("x", BaseType::Num);
  bool Sat = S.maybeSat({Lit(Ctx.eq(X, Ctx.numLit(A)), true),
                         Lit(Ctx.eq(X, Ctx.numLit(B)), true)});
  EXPECT_EQ(Sat, A == B);
}

INSTANTIATE_TEST_SUITE_P(
    Pairs, SolverEqSweep,
    ::testing::Values(std::pair{0, 0}, std::pair{0, 1}, std::pair{2, 2},
                      std::pair{-1, 1}, std::pair{5, -5},
                      std::pair{100, 100}));

} // namespace
} // namespace reflex
