//===- tests/prover_test.cc - Trace-property prover tests -------*- C++ -*-===//
//
// Exercises each discharge mechanism of §5.1 in isolation on minimal
// kernels: local obligations, branch-condition invariants, nested
// induction, the component-origin and failed-lookup axioms — plus the
// prover's honest incompleteness (Unknown, never a false Proved).
//
//===----------------------------------------------------------------------===//

#include "test_util.h"

#include "kernels/kernels.h"
#include "support/timer.h"

namespace reflex {
namespace {

void expectProved(const std::string &Src, const std::string &Prop) {
  ProgramPtr P = mustLoad(Src);
  ASSERT_NE(P, nullptr);
  PropertyResult R = verifyOne(*P, Prop);
  EXPECT_EQ(R.Status, VerifyStatus::Proved) << Prop << ": " << R.Reason;
  EXPECT_TRUE(R.CertChecked);
}

void expectUnknown(const std::string &Src, const std::string &Prop) {
  ProgramPtr P = mustLoad(Src);
  ASSERT_NE(P, nullptr);
  PropertyResult R = verifyOne(*P, Prop);
  EXPECT_EQ(R.Status, VerifyStatus::Unknown) << Prop;
  EXPECT_FALSE(R.Reason.empty());
}

const char Pingpong[] = R"(
component A "a";
component B "b";
message Ping(num);
message Pong(num);
message Mark(num);
var seen: bool = false;
init {
  X <- spawn A();
  Y <- spawn B();
}
)";

TEST(Prover, EnsuresAndImmAfterLocal) {
  std::string Src = std::string(Pingpong) + R"(
handler A => Ping(n) {
  send(Y, Pong(n));
  send(Y, Mark(n));
}
property SameExchange: forall n.
  [Recv(A, Ping(n))] Ensures [Send(B, Mark(n))];
property Adjacent: forall n.
  [Recv(A, Ping(n))] ImmAfter [Send(B, Pong(n))];
property AdjacentPair: forall n.
  [Send(B, Pong(n))] ImmAfter [Send(B, Mark(n))];
)";
  expectProved(Src, "SameExchange");
  expectProved(Src, "Adjacent");
  expectProved(Src, "AdjacentPair");
}

TEST(Prover, ImmAfterFailsWhenNotAdjacent) {
  std::string Src = std::string(Pingpong) + R"(
handler A => Ping(n) {
  send(Y, Pong(n));
  send(Y, Pong(n + 1));
  send(Y, Mark(n));
}
property Adjacent: forall n.
  [Recv(A, Ping(n))] ImmAfter [Send(B, Mark(n))];
)";
  expectUnknown(Src, "Adjacent");
}

TEST(Prover, ImmAfterFailsWhenTriggerIsLast) {
  std::string Src = std::string(Pingpong) + R"(
handler A => Ping(n) {
  send(Y, Pong(n));
}
property PongThenMark: forall n.
  [Send(B, Pong(n))] ImmAfter [Send(B, Mark(n))];
)";
  expectUnknown(Src, "PongThenMark");
}

TEST(Prover, ImmBeforeLocal) {
  std::string Src = std::string(Pingpong) + R"(
handler A => Ping(n) {
  send(Y, Pong(n));
}
property RecvJustBefore: forall n.
  [Recv(A, Ping(n))] ImmBefore [Send(B, Pong(n))];
)";
  expectProved(Src, "RecvJustBefore");
}

TEST(Prover, EnablesViaLocalRecv) {
  std::string Src = std::string(Pingpong) + R"(
handler A => Ping(n) {
  send(Y, Pong(n));
}
property PingBeforePong: forall n.
  [Recv(A, Ping(n))] Enables [Send(B, Pong(n))];
)";
  expectProved(Src, "PingBeforePong");
}

TEST(Prover, EnablesViaGuardInvariant) {
  // The SSH authentication shape: a state pair guards the send.
  std::string Src = std::string(Pingpong) + R"(
var armed_by: num = 0;
handler B => Pong(n) {
  seen = true;
  armed_by = n;
}
handler A => Ping(n) {
  if (seen && n == armed_by) {
    send(Y, Mark(n));
  }
}
property ArmBeforeFire: forall n.
  [Recv(B, Pong(n))] Enables [Send(B, Mark(n))];
)";
  expectProved(Src, "ArmBeforeFire");
}

TEST(Prover, EnablesUnknownWithoutGuard) {
  // No branch condition ties the send to any history: honest Unknown
  // (and in fact the property is false).
  std::string Src = std::string(Pingpong) + R"(
handler A => Ping(n) {
  send(Y, Mark(n));
}
property ArmBeforeFire: forall n.
  [Recv(B, Pong(n))] Enables [Send(B, Mark(n))];
)";
  expectUnknown(Src, "ArmBeforeFire");
}

TEST(Prover, DisablesViaFlagInvariant) {
  // The car-doors shape: once the flag is up, the action is gone forever.
  std::string Src = std::string(Pingpong) + R"(
handler B => Pong(n) {
  seen = true;
}
handler A => Ping(n) {
  if (!seen) {
    send(Y, Mark(n));
  }
}
property PongKillsMark:
  [Recv(B, Pong(_))] Disables [Send(B, Mark(_))];
)";
  expectProved(Src, "PongKillsMark");
}

TEST(Prover, DisablesCounterChain) {
  // The nested-induction shape: the guard at the trigger does not survive
  // the stage-advancing handler, so the prover must strengthen through
  // the pre-state (the paper's second induction).
  std::string Src = std::string(Pingpong) + R"(
var stage: num = 0;
handler A => Ping(n) {
  if (stage == 0) {
    stage = 1;
    send(Y, Mark(1));
  } else {
    if (stage == 1) {
      stage = 2;
      send(Y, Mark(2));
    }
  }
}
property SecondOnlyOnce:
  [Send(B, Mark(2))] Disables [Send(B, Mark(2))];
property MarkOneFirst:
  [Send(B, Mark(1))] Enables [Send(B, Mark(2))];
)";
  expectProved(Src, "SecondOnlyOnce");
  expectProved(Src, "MarkOneFirst");
}

const char LookupKernel[] = R"(
component Registry "r";
component Worker "w" { name: str };
message Register(str);
message Notify(str);
init {
  R <- spawn Registry();
}
handler Registry => Register(n) {
  lookup Worker(name == n) as w {
    send(w, Notify(n));
  } else {
    fresh <- spawn Worker(n);
  }
}
)";

TEST(Prover, DisablesViaFailedLookup) {
  expectProved(std::string(LookupKernel) + R"(
property NoDuplicateWorkers: forall n.
  [Spawn(Worker(name = n))] Disables [Spawn(Worker(name = n))];
)",
               "NoDuplicateWorkers");
}

TEST(Prover, EnablesViaComponentOrigin) {
  expectProved(std::string(LookupKernel) + R"(
property NotifyRequiresSpawn: forall n.
  [Spawn(Worker(name = n))] Enables [Send(Worker(name = n), Notify(n))];
)",
               "NotifyRequiresSpawn");
}

TEST(Prover, OriginViaSender) {
  // The webserver shape: the *sender's* own existence witnesses its spawn.
  expectProved(std::string(LookupKernel) + R"(
message FromWorker(str);
handler Worker => FromWorker(s) {
  send(R, Register(sender.name));
}
property SenderWasSpawned: forall n.
  [Spawn(Worker(name = n))] Enables [Send(Registry, Register(n))];
)",
               "SenderWasSpawned");
}

TEST(Prover, BaseCaseInitViolations) {
  // Init itself emits the trigger with no enabling action: Unknown.
  std::string Src = R"(
component A "a";
message Ping(num);
message Pong(num);
init {
  X <- spawn A();
  send(X, Pong(1));
}
property NeedsPing: forall n.
  [Recv(A, Ping(n))] Enables [Send(A, Pong(n))];
)";
  expectUnknown(Src, "NeedsPing");
}

TEST(Prover, InitCanDischargeLocally) {
  std::string Src = R"(
component A "a";
message Ping(num);
message Pong(num);
init {
  X <- spawn A();
  send(X, Ping(1));
  send(X, Pong(1));
}
property PingThenPong: forall n.
  [Send(A, Ping(n))] Enables [Send(A, Pong(n))];
)";
  expectProved(Src, "PingThenPong");
}

TEST(Prover, FdescPatternVariables) {
  // File descriptors flow through patterns like any payload: the SSH
  // PTY-handoff shape.
  std::string Src = R"(
component Term "t";
component Conn "c";
message Pty(str, fdesc);
message Handoff(str, fdesc);
init {
  T <- spawn Term();
  C <- spawn Conn();
}
handler Term => Pty(u, fd) {
  send(C, Handoff(u, fd));
}
property ExactDescriptor: forall u, fd.
  [Recv(Term, Pty(u, fd))] Enables [Send(Conn, Handoff(u, fd))];
)";
  expectProved(Src, "ExactDescriptor");
}

TEST(Prover, DisablesBaseCaseInInit) {
  // Init emits the disabling action and then the trigger: Unknown (and
  // genuinely false).
  std::string Src = R"(
component A "a";
message Kill();
message Go();
init {
  X <- spawn A();
  send(X, Kill());
  send(X, Go());
}
property KillStopsGo:
  [Send(A, Kill())] Disables [Send(A, Go())];
)";
  expectUnknown(Src, "KillStopsGo");
  // The other order is fine.
  std::string Ok = R"(
component A "a";
message Kill();
message Go();
init {
  X <- spawn A();
  send(X, Go());
  send(X, Kill());
}
property KillStopsGo:
  [Send(A, Kill())] Disables [Send(A, Go())];
)";
  expectProved(Ok, "KillStopsGo");
}

TEST(Prover, UnhandledRecvCanBeATrigger) {
  // Recv actions exist for every (component type, message type), even
  // without a handler; a trigger matching such a Recv generates real
  // obligations.
  std::string Src = std::string(Pingpong) + R"(
property PongNeedsMark: forall n.
  [Send(B, Mark(n))] Enables [Recv(B, Pong(n))];
)";
  // No handler ever receives Pong from B... but the default handler's
  // Recv emission makes the trigger reachable, with no Mark ever sent
  // before it: Unknown.
  expectUnknown(Src, "PongNeedsMark");
}

TEST(Prover, LiteralPayloadsDiscriminate) {
  // Mark(1) vs Mark(2): literal patterns must not cross-match.
  std::string Src = std::string(Pingpong) + R"(
handler A => Ping(n) {
  send(Y, Mark(1));
}
property OnlyOne:
  [Send(B, Mark(2))] Disables [Send(B, Mark(2))];
)";
  // Vacuously true: Mark(2) is never sent; every case discharges as
  // no-trigger or structurally-impossible.
  expectProved(Src, "OnlyOne");
}

TEST(Prover, CertificateShape) {
  std::string Src = std::string(Pingpong) + R"(
handler B => Pong(n) {
  seen = true;
}
handler A => Ping(n) {
  if (seen) {
    send(Y, Mark(n));
  }
}
property PongBeforeMark:
  [Recv(B, Pong(_))] Enables [Send(B, Mark(_))];
)";
  ProgramPtr P = mustLoad(Src);
  PropertyResult R = verifyOne(*P, "PongBeforeMark");
  ASSERT_EQ(R.Status, VerifyStatus::Proved);
  // The certificate must contain an invariant-history step referencing a
  // recorded invariant with the {seen} guard.
  bool FoundInvariantStep = false;
  for (const ProofStep &S : R.Cert.Steps)
    if (S.Kind == Justify::InvariantHistory) {
      FoundInvariantStep = true;
      EXPECT_NE(R.Cert.findInvariant(S.InvariantId), nullptr);
    }
  EXPECT_TRUE(FoundInvariantStep);
  ASSERT_FALSE(R.Cert.Invariants.empty());
  EXPECT_FALSE(R.Cert.Invariants[0].Forbids);
  // And it exports as JSON mentioning the guard variable.
  VerifySession S(*P);
  PropertyResult R2 = S.verify(*P->findProperty("PongBeforeMark"));
  std::string Json = R2.Cert.toJson(S.termContext());
  EXPECT_NE(Json.find("\"seen\""), std::string::npos);
  EXPECT_NE(Json.find("invariant-history"), std::string::npos);
}

TEST(Prover, OptionsDoNotChangeVerdicts) {
  // All four optimization configurations agree on a mixed kernel.
  std::string Src = std::string(Pingpong) + R"(
handler B => Pong(n) {
  seen = true;
}
handler A => Ping(n) {
  if (seen) {
    send(Y, Mark(n));
  }
}
property PongBeforeMark:
  [Recv(B, Pong(_))] Enables [Send(B, Mark(_))];
property Impossible: forall n.
  [Recv(A, Ping(n))] ImmAfter [Send(B, Pong(n))];
)";
  ProgramPtr P = mustLoad(Src);
  for (bool Skip : {false, true})
    for (bool Simplify : {false, true})
      for (bool Cache : {false, true}) {
        VerifyOptions O;
        O.SyntacticSkip = Skip;
        O.Simplify = Simplify;
        O.CacheInvariants = Cache;
        VerificationReport Rep = verifyProgram(*P, O);
        EXPECT_EQ(Rep.Results[0].Status, VerifyStatus::Proved)
            << Skip << Simplify << Cache;
        EXPECT_EQ(Rep.Results[1].Status, VerifyStatus::Unknown)
            << Skip << Simplify << Cache;
      }
}

//===----------------------------------------------------------------------===//
// The PDR engine (verify/pdr.h) and the portfolio (verify/engine.h)
//===----------------------------------------------------------------------===//

TEST(Pdr, SeparatesFromInductionOnPdrlock) {
  // pdrlock's property needs a mutually inductive strengthening:
  // induction's hierarchical guard chasing cycles and gives up, PDR's
  // frames close the mutual dependency (kernels/pdrlock.cc).
  ProgramPtr P = kernels::load(kernels::pdrlock());
  ASSERT_NE(P, nullptr);

  VerifyOptions Ind;
  Ind.Engine = EngineKind::Induction;
  PropertyResult IndR = verifyOne(*P, "RogueNeedsBlessing", Ind);
  EXPECT_EQ(IndR.Status, VerifyStatus::Unknown) << IndR.Reason;
  EXPECT_EQ(IndR.ServedBy, "induction");

  VerifyOptions Pdr;
  Pdr.Engine = EngineKind::Pdr;
  PropertyResult PdrR = verifyOne(*P, "RogueNeedsBlessing", Pdr);
  EXPECT_EQ(PdrR.Status, VerifyStatus::Proved) << PdrR.Reason;
  EXPECT_TRUE(PdrR.CertChecked);
  EXPECT_EQ(PdrR.ServedBy, "pdr");
  EXPECT_EQ(PdrR.Cert.Engine, "pdr");
  // The discovered invariant is the two-clause conjunction
  // {!armed, !primed}.
  EXPECT_EQ(PdrR.Cert.InvClauses.size(), 2u);

  VerifyOptions Port;
  Port.Engine = EngineKind::Portfolio;
  PropertyResult PortR = verifyOne(*P, "RogueNeedsBlessing", Port);
  EXPECT_EQ(PortR.Status, VerifyStatus::Proved) << PortR.Reason;
  EXPECT_EQ(PortR.ServedBy, "pdr");
  EXPECT_EQ(PortR.CertJson, PdrR.CertJson)
      << "the portfolio must serve the PDR proof byte-identically";
}

TEST(Pdr, PortfolioMillisSpansBothEngines) {
  // On pdrlock induction gives up and PDR proves, so the portfolio runs
  // both legs; the served result's Millis must cover both, not only the
  // leg that produced the verdict.
  ProgramPtr P = kernels::load(kernels::pdrlock());
  ASSERT_NE(P, nullptr);
  const Property *Prop = P->findProperty("RogueNeedsBlessing");
  ASSERT_NE(Prop, nullptr);
  VerifyOptions Port;
  Port.Engine = EngineKind::Portfolio;
  VerifySession S(*P, Port);
  WallTimer Timer;
  PropertyResult R = S.verify(*Prop);
  double Wall = Timer.elapsedMillis();
  EXPECT_EQ(R.Status, VerifyStatus::Proved) << R.Reason;
  EXPECT_EQ(R.ServedBy, "pdr");
  EXPECT_GE(R.Millis, 0.9 * Wall)
      << "reported " << R.Millis << " ms of " << Wall << " ms wall time";
}

TEST(Pdr, AgreesWithInductionOnLocallyDischargeable) {
  // A property every engine discharges without frames: the obligation
  // scan (shared with induction) finds the trigger in the same path, so
  // PDR proves it with an empty clause set.
  std::string Src = std::string(Pingpong) + R"(
handler A => Ping(n) {
  send(Y, Pong(n));
}
property PingBeforePong: forall n.
  [Recv(A, Ping(n))] Enables [Send(B, Pong(n))];
)";
  ProgramPtr P = mustLoad(Src);
  ASSERT_NE(P, nullptr);
  VerifyOptions Pdr;
  Pdr.Engine = EngineKind::Pdr;
  PropertyResult R = verifyOne(*P, "PingBeforePong", Pdr);
  EXPECT_EQ(R.Status, VerifyStatus::Proved) << R.Reason;
  EXPECT_TRUE(R.CertChecked);
  EXPECT_TRUE(R.Cert.InvClauses.empty());
}

TEST(Pdr, HonestUnknownOnUnconditionalEmission) {
  // The emission has no state-pure pre-state to block (the handler sends
  // unconditionally), so PDR reports Unknown with a reason — never a
  // false Proved.
  std::string Src = std::string(Pingpong) + R"(
handler A => Ping(n) {
  send(Y, Mark(n));
}
property ArmBeforeFire: forall n.
  [Recv(B, Pong(n))] Enables [Send(B, Mark(n))];
)";
  ProgramPtr P = mustLoad(Src);
  ASSERT_NE(P, nullptr);
  VerifyOptions Pdr;
  Pdr.Engine = EngineKind::Pdr;
  PropertyResult R = verifyOne(*P, "ArmBeforeFire", Pdr);
  EXPECT_EQ(R.Status, VerifyStatus::Unknown);
  EXPECT_FALSE(R.Reason.empty());
}

// pdrlock with the bootstrap deadlock broken: Boot primes the interlock
// from any unarmed state, so the rogue emission is genuinely reachable
// and the property is false.
const char PdrBoot[] = R"(
component Driver "driver.py";
component Sink "sink.c";
message Boot();
message Commit();
message Bless(str);
message Fire(str);
message Blessed(str);
message Rogue(str);
var armed: bool = false;
var primed: bool = false;
init {
  D <- spawn Driver();
  S <- spawn Sink();
}
handler Driver => Boot() {
  if (!armed) {
    primed = true;
  }
}
handler Driver => Commit() {
  if (primed) {
    armed = true;
  }
}
handler Driver => Bless(u) {
  send(S, Blessed(u));
}
handler Driver => Fire(u) {
  if (armed) {
    send(S, Rogue(u));
  }
}
property RogueNeedsBlessing: forall u.
  [Send(Sink, Blessed(u))] Enables [Send(Sink, Rogue(u))];
)";

TEST(Pdr, RefutesWithConcreteConfirmedTrace) {
  // PDR's backward chase reaches the initial states; the abstract
  // counterexample is replayed by bounded concrete search, so Refuted
  // carries a real trace exactly like BMC's.
  ProgramPtr P = mustLoad(PdrBoot);
  ASSERT_NE(P, nullptr);
  VerifyOptions Pdr;
  Pdr.Engine = EngineKind::Pdr;
  PropertyResult R = verifyOne(*P, "RogueNeedsBlessing", Pdr);
  EXPECT_EQ(R.Status, VerifyStatus::Refuted) << R.Reason;
  EXPECT_FALSE(R.Counterexample.Actions.empty());
  EXPECT_FALSE(R.Reason.empty());

  // Induction alone cannot decide it...
  VerifyOptions Ind;
  Ind.Engine = EngineKind::Induction;
  PropertyResult IndR = verifyOne(*P, "RogueNeedsBlessing", Ind);
  EXPECT_EQ(IndR.Status, VerifyStatus::Unknown);

  // ...so the portfolio serves PDR's sound refutation.
  VerifyOptions Port;
  Port.Engine = EngineKind::Portfolio;
  PropertyResult PortR = verifyOne(*P, "RogueNeedsBlessing", Port);
  EXPECT_EQ(PortR.Status, VerifyStatus::Refuted);
  EXPECT_EQ(PortR.ServedBy, "pdr");
  EXPECT_EQ(PortR.Reason, R.Reason);
}

TEST(Pdr, PortfolioPrefersInductionWhenBothProve) {
  // Canonical selection: when induction proves, its certificate is
  // served and PDR never runs (verdicts must be functions of (program,
  // property, options)).
  std::string Src = std::string(Pingpong) + R"(
handler A => Ping(n) {
  send(Y, Pong(n));
}
property PingBeforePong: forall n.
  [Recv(A, Ping(n))] Enables [Send(B, Pong(n))];
)";
  ProgramPtr P = mustLoad(Src);
  ASSERT_NE(P, nullptr);
  VerifyOptions Port;
  Port.Engine = EngineKind::Portfolio;
  PropertyResult R = verifyOne(*P, "PingBeforePong", Port);
  EXPECT_EQ(R.Status, VerifyStatus::Proved) << R.Reason;
  EXPECT_EQ(R.ServedBy, "induction");
  VerifyOptions Ind;
  PropertyResult IndR = verifyOne(*P, "PingBeforePong", Ind);
  EXPECT_EQ(R.CertJson, IndR.CertJson);
}

TEST(Pdr, NonTracePropertiesFallBackToInduction) {
  // NI properties have no transition-relation formulation here; every
  // engine choice serves them through the induction path.
  ProgramPtr P = kernels::load(kernels::ssh2());
  ASSERT_NE(P, nullptr);
  for (EngineKind K : {EngineKind::Pdr, EngineKind::Portfolio}) {
    VerifyOptions O;
    O.Engine = K;
    VerificationReport Rep = verifyProgram(*P, O);
    for (const PropertyResult &R : Rep.Results) {
      const Property *Prop = P->findProperty(R.Name);
      if (Prop && !Prop->isTrace()) {
        EXPECT_EQ(R.ServedBy, "induction") << R.Name;
      }
    }
  }
}

} // namespace
} // namespace reflex
