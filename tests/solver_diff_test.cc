//===- tests/solver_diff_test.cc - Incremental solver differential --------===//
//
// Differential testing of the incremental assumption-based solver core
// against the from-scratch reference algorithm, at three levels:
//
//  1. seeded random literal sets, randomly partitioned into nested
//     assertion scopes plus a final assumption set: scoped incremental
//     checks must return the same SatResult as the reference solving the
//     flattened set — memo off (real solving), memo on (transparency),
//     and logging on (recording must not change answers);
//
//  2. whole-system verdict parity: every example kernel (plus pdrlock)
//     under every engine, verified at jobs 1 vs 4 and under an injected
//     first-attempt-crash fault plan — the full per-property verdict JSON
//     (status, reason, certificate bytes, engine) must be byte-identical
//     to the sequential reference;
//
//  3. the solver-level proof log: recorded reason trails replay through
//     the independent validator, tampered trails are rejected, and the
//     rendered log is deterministic across sessions.
//
//===----------------------------------------------------------------------===//

#include "kernels/kernels.h"
#include "service/scheduler.h"
#include "support/faultinject.h"
#include "support/rng.h"
#include "sym/solver.h"
#include "test_util.h"

#include <sstream>

namespace reflex {
namespace {

//===----------------------------------------------------------------------===//
// 1. Randomized scoped-vs-scratch differential
//===----------------------------------------------------------------------===//

class SolverDiff : public ::testing::TestWithParam<uint64_t> {};

TEST_P(SolverDiff, ScopedChecksMatchScratchReference) {
  Rng Rand(GetParam());
  unsigned Unsat = 0, Maybe = 0;
  for (int Round = 0; Round < 300; ++Round) {
    TermContext Ctx;
    TermRef Vars[4] = {Ctx.stateSym("x", BaseType::Num),
                       Ctx.stateSym("y", BaseType::Num),
                       Ctx.stateSym("z", BaseType::Num),
                       Ctx.stateSym("w", BaseType::Num)};
    TermRef B0 = Ctx.stateSym("b0", BaseType::Bool);
    TermRef B1 = Ctx.stateSym("b1", BaseType::Bool);

    auto RandNumTerm = [&]() -> TermRef {
      switch (Rand.below(4)) {
      case 0:
      case 1:
        return Vars[Rand.below(4)];
      case 2:
        return Ctx.numLit(static_cast<int64_t>(Rand.below(4)));
      default:
        return Ctx.add(Vars[Rand.below(4)],
                       Ctx.numLit(static_cast<int64_t>(Rand.below(3))));
      }
    };
    auto RandLit = [&]() -> Lit {
      bool Pos = Rand.chance(2, 3);
      switch (Rand.below(5)) {
      case 0:
        return Lit(Ctx.eq(RandNumTerm(), RandNumTerm()), Pos);
      case 1:
        return Lit(Ctx.lt(RandNumTerm(), RandNumTerm()), Pos);
      case 2:
        return Lit(Ctx.le(RandNumTerm(), RandNumTerm()), Pos);
      case 3:
        return Lit(B0, Pos);
      default:
        return Lit(B1, Pos);
      }
    };

    // Random nested scopes (0-3 scopes of 0-3 literals each) plus a
    // final assumption set (0-3 literals).
    std::vector<std::vector<Lit>> Scopes(Rand.below(4));
    for (std::vector<Lit> &Sc : Scopes)
      for (size_t I = Rand.below(4); I > 0; --I)
        Sc.push_back(RandLit());
    std::vector<Lit> Assume;
    for (size_t I = Rand.below(4); I > 0; --I)
      Assume.push_back(RandLit());

    std::vector<Lit> Flat;
    for (const std::vector<Lit> &Sc : Scopes)
      Flat.insert(Flat.end(), Sc.begin(), Sc.end());
    Flat.insert(Flat.end(), Assume.begin(), Assume.end());

    // Reference: the original algorithm over the flattened set.
    Solver Ref(Ctx);
    Ref.setMemoEnabled(false);
    Ref.setIncrementalEnabled(false);
    SatResult Want = Ref.checkLits(Flat);

    // Incremental, memo off: real scoped solving.
    Solver Inc(Ctx);
    Inc.setMemoEnabled(false);
    {
      std::vector<std::unique_ptr<Solver::Scope>> Open;
      for (const std::vector<Lit> &Sc : Scopes)
        Open.push_back(std::make_unique<Solver::Scope>(Inc, Sc));
      ASSERT_EQ(Inc.checkAssuming(Assume), Want)
          << "seed " << GetParam() << " round " << Round;
      // The same check after an unrelated sibling scope detour: pop must
      // fully rewind the congruence closure.
      if (!Scopes.empty()) {
        { Solver::Scope Detour(Inc, {RandLit()}); (void)Inc.check(); }
        ASSERT_EQ(Inc.checkAssuming(Assume), Want)
            << "after detour: seed " << GetParam() << " round " << Round;
      }
    }
    ASSERT_EQ(Inc.scopeDepth(), 0u);

    // Incremental, memo on + logging on: both must be invisible.
    Solver Memo(Ctx);
    Memo.setLogEnabled(true);
    {
      std::vector<std::unique_ptr<Solver::Scope>> Open;
      for (const std::vector<Lit> &Sc : Scopes)
        Open.push_back(std::make_unique<Solver::Scope>(Memo, Sc));
      ASSERT_EQ(Memo.checkAssuming(Assume), Want);
      ASSERT_EQ(Memo.checkAssuming(Assume), Want) << "memo hit changed it";
    }
    // Every recorded trail replays through the independent validator.
    for (const ReasonTrail &T : Memo.reasonTrails()) {
      std::string Why;
      EXPECT_TRUE(replayReasonTrail(Ctx, T, Why)) << Why;
    }

    (Want == SatResult::Unsat ? Unsat : Maybe) += 1;
  }
  // The generator must exercise both answers, or the diff is vacuous.
  EXPECT_GT(Unsat, 25u);
  EXPECT_GT(Maybe, 25u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, SolverDiff,
                         ::testing::Values(3u, 33u, 333u, 3333u));

//===----------------------------------------------------------------------===//
// 2. Whole-system verdict parity across execution configurations
//===----------------------------------------------------------------------===//

/// The full verdict content of a report: everything except work/timing
/// counters and attempt counts (retries legitimately vary under fault
/// injection; verdicts must not).
std::string verdictJson(const VerificationReport &R) {
  std::ostringstream OS;
  for (const PropertyResult &PR : R.Results)
    OS << PR.Name << "|" << verifyStatusName(PR.Status) << "|" << PR.Reason
       << "|" << PR.ServedBy << "|" << PR.CertChecked << "|" << PR.CertJson
       << "\n";
  return OS.str();
}

TEST(SolverParity, VerdictsIdenticalAcrossJobsSharingEnginesAndFaults) {
  std::vector<ProgramPtr> Programs;
  for (const kernels::KernelDef *K : kernels::all())
    Programs.push_back(kernels::load(*K));
  Programs.push_back(kernels::load(kernels::pdrlock()));

  // Every first attempt crashes; the retry must reproduce the verdict.
  FaultPlan FirstAttemptCrash;
  FirstAttemptCrash.addRule({"worker", "#0", FaultKind::Fail});

  for (EngineKind Eng :
       {EngineKind::Induction, EngineKind::Pdr, EngineKind::Portfolio}) {
    for (const ProgramPtr &P : Programs) {
      SchedulerOptions RefOpts;
      RefOpts.Jobs = 1;
      RefOpts.Verify.Engine = Eng;
      std::string Ref =
          verdictJson(verifyPrograms({P.get()}, RefOpts).Reports[0]);

      auto Check = [&](SchedulerOptions O, const char *What) {
        O.Verify.Engine = Eng;
        std::string Got = verdictJson(verifyPrograms({P.get()}, O).Reports[0]);
        EXPECT_EQ(Got, Ref) << P->Name << " engine " << unsigned(Eng)
                            << " config: " << What;
      };

      SchedulerOptions J4;
      J4.Jobs = 4;
      Check(J4, "jobs=4");

      SchedulerOptions Faulted;
      Faulted.Jobs = 4;
      Faulted.Retries = 1;
      Faulted.RetryBackoffMs = 0;
      Faulted.Faults = &FirstAttemptCrash;
      Check(Faulted, "jobs=4 first-attempt-crash");
    }
  }
}

//===----------------------------------------------------------------------===//
// 3. Reason trails: tampering is rejected, rendering is deterministic
//===----------------------------------------------------------------------===//

class TrailTamper : public ::testing::Test {
protected:
  void SetUp() override {
    X = Ctx.stateSym("x", BaseType::Num);
    Y = Ctx.stateSym("y", BaseType::Num);
    Solver S(Ctx);
    S.setLogEnabled(true);
    Solver::Scope Sc(S, {Lit(Ctx.eq(X, Y), true),
                         Lit(Ctx.eq(X, Ctx.numLit(1)), true)});
    ASSERT_EQ(S.checkAssuming({Lit(Ctx.eq(Y, Ctx.numLit(2)), true)}),
              SatResult::Unsat);
    ASSERT_FALSE(S.reasonTrails().empty());
    Trail = S.reasonTrails().back();
    std::string Why;
    ASSERT_TRUE(replayReasonTrail(Ctx, Trail, Why)) << Why;
  }

  TermContext Ctx;
  TermRef X = nullptr, Y = nullptr;
  ReasonTrail Trail;
};

TEST_F(TrailTamper, DroppedStepIsRejected) {
  ReasonTrail T = Trail;
  ASSERT_GT(T.Steps.size(), 1u);
  T.Steps.erase(T.Steps.begin());
  std::string Why;
  EXPECT_FALSE(replayReasonTrail(Ctx, T, Why));
  EXPECT_FALSE(Why.empty());
}

TEST_F(TrailTamper, ForeignPremiseIsRejected) {
  // Rewrite every input-literal premise to a literal the query never
  // asserted: the replayer must refuse the justification.
  ReasonTrail T = Trail;
  Lit Foreign(Ctx.eq(X, Ctx.numLit(77)), true);
  bool Rewrote = false;
  for (TrailStep &St : T.Steps)
    if (St.From.Atom) {
      St.From = Foreign;
      Rewrote = true;
    }
  ASSERT_TRUE(Rewrote);
  std::string Why;
  EXPECT_FALSE(replayReasonTrail(Ctx, T, Why));
}

TEST_F(TrailTamper, EmptiedTrailIsRejected) {
  ReasonTrail T = Trail;
  T.Steps.clear();
  std::string Why;
  EXPECT_FALSE(replayReasonTrail(Ctx, T, Why));
}

TEST_F(TrailTamper, RenderingIsDeterministicAcrossSessions) {
  // A second solver, different query history first: the trail for the
  // same query must render byte-identically.
  Solver S2(Ctx);
  S2.setLogEnabled(true);
  { Solver::Scope Warm(S2, {Lit(Ctx.lt(X, Ctx.numLit(9)), true)});
    (void)S2.check(); }
  Solver::Scope Sc(S2, {Lit(Ctx.eq(X, Y), true),
                        Lit(Ctx.eq(X, Ctx.numLit(1)), true)});
  ASSERT_EQ(S2.checkAssuming({Lit(Ctx.eq(Y, Ctx.numLit(2)), true)}),
            SatResult::Unsat);
  EXPECT_EQ(formatReasonTrail(Ctx, S2.reasonTrails().back()),
            formatReasonTrail(Ctx, Trail));
}

} // namespace
} // namespace reflex
