//===- tests/certificate_test.cc - Certificates and checking ----*- C++ -*-===//
//
// The de Bruijn criterion in miniature: certificates are explicit, export
// to JSON, and — crucially — the independent checker rejects *tampered*
// certificates, which is what separates it from a rubber stamp.
//
//===----------------------------------------------------------------------===//

#include "test_util.h"

#include "gen/generator.h"
#include "kernels/kernels.h"
#include "verify/pdr.h"

#include <set>

namespace reflex {
namespace {

const char Kernel[] = R"(
component A "a";
component B "b";
message Ping(num);
message Mark(num);
var seen: bool = false;
init {
  X <- spawn A();
  Y <- spawn B();
}
handler B => Ping(n) { seen = true; }
handler A => Ping(n) {
  if (seen) {
    send(Y, Mark(n));
  }
}
property PingBeforeMark:
  [Recv(B, Ping(_))] Enables [Send(B, Mark(_))];
)";

struct CertTest : ::testing::Test {
  void SetUp() override {
    P = mustLoad(Kernel);
    ASSERT_NE(P, nullptr);
    Session = std::make_unique<VerifySession>(*P);
    R = Session->verify(*P->findProperty("PingBeforeMark"));
    ASSERT_EQ(R.Status, VerifyStatus::Proved);
    Opts.SyntacticSkip = true;
    Opts.CacheInvariants = true;
  }

  CheckOutcome check(const Certificate &Cert) {
    return checkCertificate(Session->termContext(), *P, Session->behAbs(),
                            *P->findProperty("PingBeforeMark"), Cert, Opts);
  }

  ProgramPtr P;
  std::unique_ptr<VerifySession> Session;
  PropertyResult R;
  ProverOptions Opts;
};

TEST_F(CertTest, GenuineCertificateAccepted) {
  CheckOutcome Out = check(R.Cert);
  EXPECT_TRUE(Out.Ok) << Out.Why;
}

TEST_F(CertTest, TamperedStepKindRejected) {
  Certificate Bad = R.Cert;
  ASSERT_FALSE(Bad.Steps.empty());
  // Claim a different justification for a real step.
  for (ProofStep &S : Bad.Steps)
    if (S.Kind == Justify::InvariantHistory) {
      S.Kind = Justify::LocalObligation;
      S.LocalIndex = 0;
      S.InvariantId = -1;
    }
  CheckOutcome Out = check(Bad);
  EXPECT_FALSE(Out.Ok);
}

TEST_F(CertTest, DroppedStepRejected) {
  Certificate Bad = R.Cert;
  ASSERT_FALSE(Bad.Steps.empty());
  Bad.Steps.pop_back();
  EXPECT_FALSE(check(Bad).Ok);
}

TEST_F(CertTest, TamperedInvariantGuardRejected) {
  Certificate Bad = R.Cert;
  ASSERT_FALSE(Bad.Invariants.empty());
  // Weaken the invariant guard to nothing.
  Bad.Invariants[0].Guard.clear();
  EXPECT_FALSE(check(Bad).Ok);
}

TEST_F(CertTest, ForeignCertificateRejected) {
  // A certificate for a different property does not check.
  Certificate Foreign = R.Cert;
  Foreign.PropertyName = "SomethingElse";
  EXPECT_FALSE(check(Foreign).Ok);
}

TEST(NICertTest, TamperedNICertificateRejected) {
  const char NIKernel[] = R"(
component Hi "h";
component Lo "l";
message Poke(str);
var secret: str = "";
init {
  H <- spawn Hi();
  L <- spawn Lo();
}
handler Hi => Poke(s) { secret = s; }
property NI: noninterference { high components: Hi; high vars: secret; };
)";
  ProgramPtr P = mustLoad(NIKernel);
  ASSERT_NE(P, nullptr);
  VerifySession Session(*P);
  PropertyResult R = Session.verify(*P->findProperty("NI"));
  ASSERT_EQ(R.Status, VerifyStatus::Proved);
  ASSERT_FALSE(R.Cert.NICases.empty());

  ProverOptions Opts;
  CheckOutcome Good = checkCertificate(Session.termContext(), *P,
                                       Session.behAbs(),
                                       *P->findProperty("NI"), R.Cert, Opts);
  EXPECT_TRUE(Good.Ok) << Good.Why;

  Certificate Bad = R.Cert;
  Bad.NICases[0].SenderHigh = !Bad.NICases[0].SenderHigh;
  EXPECT_FALSE(checkCertificate(Session.termContext(), *P, Session.behAbs(),
                                *P->findProperty("NI"), Bad, Opts)
                   .Ok);
  Certificate Dropped = R.Cert;
  Dropped.NICases.pop_back();
  EXPECT_FALSE(checkCertificate(Session.termContext(), *P, Session.behAbs(),
                                *P->findProperty("NI"), Dropped, Opts)
                   .Ok);
}

TEST_F(CertTest, JsonExportIsWellFormedish) {
  std::string Json = R.Cert.toJson(Session->termContext());
  // Spot checks: balanced-ish structure and the expected fields.
  EXPECT_EQ(Json.front(), '{');
  EXPECT_EQ(Json.back(), '}');
  EXPECT_NE(Json.find("\"property\":\"PingBeforeMark\""), std::string::npos);
  EXPECT_NE(Json.find("\"kind\":\"Enables\""), std::string::npos);
  EXPECT_NE(Json.find("\"steps\":"), std::string::npos);
  EXPECT_NE(Json.find("\"invariants\":"), std::string::npos);
  size_t Opens = std::count(Json.begin(), Json.end(), '{');
  size_t Closes = std::count(Json.begin(), Json.end(), '}');
  EXPECT_EQ(Opens, Closes);
}

TEST_F(CertTest, CheckerOptionsMustMatchProducer) {
  // Option toggles change the certificate's *shape* (e.g. steps for the
  // handlers a syntactic skip rules out); a checker configured
  // differently must reject rather than silently accept.
  ProverOptions Mismatched;
  Mismatched.SyntacticSkip = false;
  Mismatched.CacheInvariants = true;
  CheckOutcome Out =
      checkCertificate(Session->termContext(), *P, Session->behAbs(),
                       *P->findProperty("PingBeforeMark"), R.Cert,
                       Mismatched);
  EXPECT_FALSE(Out.Ok);
}

TEST_F(CertTest, CanonicalCheckedWithPdrEngineRejected) {
  // An induction certificate re-checked under the engine name "pdr" is
  // re-derived by PDR, whose canonical form carries "engine" and
  // "clauses" where induction's has neither — so it cannot match.
  const Property &Prop = *P->findProperty("PingBeforeMark");
  ASSERT_EQ(R.ServedBy, "induction");
  std::string Canonical = R.Cert.canonical(Session->termContext());
  RecheckOutcome Ok = checkCanonicalCertificate(
      Session->termContext(), *P, Session->behAbs(), Prop, Canonical,
      R.ServedBy, Opts);
  EXPECT_TRUE(Ok.Ok) << Ok.Why;
  RecheckOutcome Out = checkCanonicalCertificate(
      Session->termContext(), *P, Session->behAbs(), Prop, Canonical, "pdr",
      Opts);
  EXPECT_FALSE(Out.Ok);
  if (Out.RederivedProved) {
    EXPECT_EQ(Out.Rederived.Engine, "pdr");
  }
}

TEST_F(CertTest, VerifierDowngradesOnRejectedCertificate) {
  // End-to-end: VerifySession itself refuses to report Proved when the
  // checker is on and (hypothetically) the certificate were bad. We can't
  // inject a bad cert through the public API, so instead assert the flag
  // is set on the good path.
  EXPECT_TRUE(R.CertChecked);
}

//===----------------------------------------------------------------------===//
// PDR clausal certificates (verify/pdr.h): same de Bruijn discipline —
// the checker re-derives the frames proof and validates the clausal
// invariant, so tampered, truncated, and non-inductive clause sets are
// all rejected.
//===----------------------------------------------------------------------===//

struct PdrCertTest : ::testing::Test {
  void SetUp() override {
    P = kernels::load(kernels::pdrlock());
    ASSERT_NE(P, nullptr);
    Prop = P->findProperty("RogueNeedsBlessing");
    ASSERT_NE(Prop, nullptr);
    VerifyOptions VO;
    VO.Engine = EngineKind::Pdr;
    Session = std::make_unique<VerifySession>(*P, VO);
    R = Session->verify(*Prop);
    ASSERT_EQ(R.Status, VerifyStatus::Proved);
    Opts = proverOptions(VO);
  }

  CheckOutcome check(const Certificate &Cert) {
    return checkCertificate(Session->termContext(), *P, Session->behAbs(),
                            *Prop, Cert, Opts);
  }

  ProgramPtr P;
  const Property *Prop = nullptr;
  std::unique_ptr<VerifySession> Session;
  PropertyResult R;
  ProverOptions Opts;
};

TEST_F(PdrCertTest, GenuinePdrCertificateAccepted) {
  EXPECT_EQ(R.Cert.Engine, "pdr");
  ASSERT_FALSE(R.Cert.InvClauses.empty());
  CheckOutcome Out = check(R.Cert);
  EXPECT_TRUE(Out.Ok) << Out.Why;
}

TEST_F(PdrCertTest, TamperedClauseLiteralRejected) {
  Certificate Bad = R.Cert;
  ASSERT_FALSE(Bad.InvClauses.empty());
  ASSERT_FALSE(Bad.InvClauses[0].empty());
  Bad.InvClauses[0][0].Pos = !Bad.InvClauses[0][0].Pos;
  EXPECT_FALSE(check(Bad).Ok);
}

TEST_F(PdrCertTest, DroppedClauseRejected) {
  Certificate Bad = R.Cert;
  ASSERT_GT(Bad.InvClauses.size(), 1u);
  Bad.InvClauses.pop_back();
  EXPECT_FALSE(check(Bad).Ok);
}

TEST_F(PdrCertTest, ErasedEngineFieldRejected) {
  // Stripping the engine tag makes the checker re-derive by induction,
  // which cannot prove this property — the mismatch must reject.
  Certificate Bad = R.Cert;
  Bad.Engine.clear();
  EXPECT_FALSE(check(Bad).Ok);
}

TEST_F(PdrCertTest, NonInductiveClauseSetRejectedByInvariantCheck) {
  // {!armed} alone excludes the bad cube but is not consecutive (the
  // Commit transition re-establishes armed from a primed state); the
  // invariant validation must catch it independently of the step
  // comparison.
  Certificate Bad = R.Cert;
  std::vector<std::vector<Lit>> Clauses;
  for (const std::vector<Lit> &C : Bad.InvClauses) {
    ASSERT_EQ(C.size(), 1u);
    std::string S = Session->termContext().str(C[0].Atom);
    if (S == "armed")
      Clauses.push_back(C);
  }
  ASSERT_EQ(Clauses.size(), 1u);
  Bad.InvClauses = Clauses;
  Solver Solv(Session->termContext());
  std::string Why;
  EXPECT_FALSE(checkPdrInvariant(Session->termContext(), Solv, *P,
                                 Session->behAbs(), *Prop, Bad, Opts, Why));
  EXPECT_NE(Why.find("not preserved"), std::string::npos) << Why;
}

TEST_F(PdrCertTest, CanonicalRoundTripAccepted) {
  std::string Canonical = R.Cert.canonical(Session->termContext());
  EXPECT_NE(Canonical.find("\"engine\":\"pdr\""), std::string::npos);
  EXPECT_NE(Canonical.find("\"clauses\":"), std::string::npos);
  RecheckOutcome Out =
      checkCanonicalCertificate(Session->termContext(), *P,
                                Session->behAbs(), *Prop, Canonical,
                                R.ServedBy, Opts);
  EXPECT_TRUE(Out.Ok) << Out.Why;
  EXPECT_EQ(Out.Rederived.Engine, "pdr");
}

TEST_F(PdrCertTest, TruncatedCanonicalRejected) {
  std::string Canonical = R.Cert.canonical(Session->termContext());
  std::string Truncated = Canonical.substr(0, Canonical.size() / 2);
  RecheckOutcome Out =
      checkCanonicalCertificate(Session->termContext(), *P,
                                Session->behAbs(), *Prop, Truncated,
                                R.ServedBy, Opts);
  EXPECT_FALSE(Out.Ok);
}

TEST_F(PdrCertTest, CorruptedCanonicalClauseRejected) {
  std::string Canonical = R.Cert.canonical(Session->termContext());
  size_t At = Canonical.find("!armed");
  ASSERT_NE(At, std::string::npos);
  std::string Bad = Canonical;
  Bad.replace(At, 6, "!prime"); // still parses, different clause
  RecheckOutcome Out = checkCanonicalCertificate(
      Session->termContext(), *P, Session->behAbs(), *Prop, Bad, R.ServedBy,
      Opts);
  EXPECT_FALSE(Out.Ok);
}

TEST_F(PdrCertTest, CanonicalCheckedWithInductionEngineRejected) {
  // The engine comes from beside the certificate (an entry's served_by),
  // not from its bytes. Naming the wrong one re-derives with induction,
  // which cannot produce this canonical form.
  ASSERT_EQ(R.ServedBy, "pdr");
  std::string Canonical = R.Cert.canonical(Session->termContext());
  for (const char *Engine : {"induction", ""}) {
    RecheckOutcome Out =
        checkCanonicalCertificate(Session->termContext(), *P,
                                  Session->behAbs(), *Prop, Canonical,
                                  Engine, Opts);
    EXPECT_FALSE(Out.Ok) << "engine '" << Engine << "'";
  }
}

TEST_F(PdrCertTest, InductionCertificateStaysEngineFree) {
  // Back-compat: induction certificates must not grow engine/clause
  // fields — their canonical bytes are pinned by pre-portfolio caches.
  ProgramPtr Q = mustLoad(Kernel);
  ASSERT_NE(Q, nullptr);
  PropertyResult IndR = verifyOne(*Q, "PingBeforeMark");
  ASSERT_EQ(IndR.Status, VerifyStatus::Proved);
  EXPECT_TRUE(IndR.Cert.Engine.empty());
  EXPECT_TRUE(IndR.Cert.InvClauses.empty());
  EXPECT_EQ(IndR.CertJson.find("\"engine\""), std::string::npos);
  EXPECT_EQ(IndR.CertJson.find("\"clauses\""), std::string::npos);
}

//===----------------------------------------------------------------------===//
// Certificates record only what the search found: a handler the §6.4
// syntactic skip rules out has no step, and the checker decides the skip
// for itself — so a step forged at a skipped handler, or a handler's
// steps dropped as if it were skipped, is rejected.
//===----------------------------------------------------------------------===//

std::string whereOf(const HandlerSummary &S) {
  return S.CompType + "=>" + S.MsgName;
}

const HandlerSummary *findSummary(const BehAbs &Abs,
                                  const std::string &Where) {
  for (const HandlerSummary &S : Abs.Handlers)
    if (whereOf(S) == Where)
      return &S;
  return nullptr;
}

/// Fails the test on any step of \p Cert at a handler the skip rules out,
/// for the property pass and for every invariant's induction. Returns how
/// many (obligation, handler) cases the skip ruled out, so callers can
/// see the check is not vacuous.
size_t expectNoSkippedSteps(VerifySession &Session, const Program &P,
                            const TraceProperty &TP,
                            const Certificate &Cert) {
  const BehAbs &Abs = Session.behAbs();
  size_t Skipped = 0;
  for (const HandlerSummary &S : Abs.Handlers)
    Skipped += !summaryMayEmit(P, S, TP.trigger());
  for (const ProofStep &Step : Cert.Steps) {
    if (Step.Where == "init")
      continue;
    const HandlerSummary *S = findSummary(Abs, Step.Where);
    EXPECT_NE(S, nullptr) << Step.Where;
    if (S) {
      EXPECT_TRUE(summaryMayEmit(P, *S, TP.trigger()))
          << Cert.PropertyName << ": step at skipped " << Step.Where;
    }
  }
  for (const InvariantRecord &Inv : Cert.Invariants) {
    std::set<std::string> GuardVars;
    collectGuardVars(Inv.Guard, Session.termContext(), GuardVars);
    auto Skips = [&](const HandlerSummary &S) {
      return !summaryMayEmit(P, S, Inv.Action) &&
             !summaryMayAssign(P, S, GuardVars);
    };
    for (const HandlerSummary &S : Abs.Handlers)
      Skipped += Skips(S);
    for (const ProofStep &Step : Inv.Steps) {
      if (Step.Where == "init")
        continue;
      const HandlerSummary *S = findSummary(Abs, Step.Where);
      EXPECT_NE(S, nullptr) << Step.Where;
      if (S) {
        EXPECT_FALSE(Skips(*S)) << Cert.PropertyName << ": invariant "
                                << Inv.Id << " step at skipped "
                                << Step.Where;
      }
    }
  }
  return Skipped;
}

struct SkipCoverage {
  size_t Certificates = 0;
  size_t SkippedCases = 0;
};

/// Verifies every trace property of \p P under \p VO and checks each
/// certificate it proves.
void expectSkipFreeCertificates(const Program &P, const VerifyOptions &VO,
                                SkipCoverage &Cov) {
  VerifySession Session(P, VO);
  for (const Property &Prop : P.Properties) {
    if (!Prop.isTrace())
      continue;
    PropertyResult R = Session.verify(Prop);
    if (R.Status != VerifyStatus::Proved)
      continue;
    ++Cov.Certificates;
    Cov.SkippedCases +=
        expectNoSkippedSteps(Session, P, Prop.traceProp(), R.Cert);
    EXPECT_EQ(R.CertJson.find("syntactic-skip"), std::string::npos);
  }
}

std::vector<ProgramPtr> kernelsAndPdrlock() {
  std::vector<ProgramPtr> Out;
  for (const kernels::KernelDef *K : kernels::all())
    Out.push_back(kernels::load(*K));
  Out.push_back(kernels::load(kernels::pdrlock()));
  return Out;
}

TEST(SkipFreeCertTest, KernelCertificatesHaveNoStepAtASkippedHandler) {
  for (EngineKind E : {EngineKind::Induction, EngineKind::Pdr}) {
    SCOPED_TRACE(engineKindName(E));
    VerifyOptions VO;
    VO.Engine = E;
    SkipCoverage Cov;
    for (const ProgramPtr &P : kernelsAndPdrlock())
      expectSkipFreeCertificates(*P, VO, Cov);
    EXPECT_GT(Cov.Certificates, 0u);
    EXPECT_GT(Cov.SkippedCases, 0u);
  }
}

TEST(SkipFreeCertTest, CorpusCertificatesHaveNoStepAtASkippedHandler) {
  gen::GenConfig C;
  C.Seed = 42;
  C.Scale = 1;
  gen::GeneratedCorpus Corpus = gen::generateCorpus(C);
  ASSERT_FALSE(Corpus.Instances.empty());
  for (EngineKind E : {EngineKind::Induction, EngineKind::Pdr}) {
    SCOPED_TRACE(engineKindName(E));
    VerifyOptions VO = gen::corpusVerifyOptions();
    VO.Engine = E;
    SkipCoverage Cov;
    for (const gen::GeneratedInstance &I : Corpus.Instances)
      expectSkipFreeCertificates(*I.Program, VO, Cov);
    if (E == EngineKind::Induction) {
      EXPECT_GT(Cov.Certificates, 0u);
      EXPECT_GT(Cov.SkippedCases, 0u);
    }
  }
}

/// The index in \p Steps where a step at \p Where belongs: after init and
/// after every handler declared before it, as the engines enumerate them.
size_t insertionPoint(const BehAbs &Abs, const std::vector<ProofStep> &Steps,
                      const std::string &Where) {
  std::map<std::string, size_t> Order;
  for (size_t I = 0; I < Abs.Handlers.size(); ++I)
    Order[whereOf(Abs.Handlers[I])] = I + 1;
  size_t At = 0;
  while (At < Steps.size() && Order[Steps[At].Where] < Order[Where])
    ++At;
  return At;
}

/// A copy of \p Cert with a plausible step forged at the first handler the
/// skip rules out for \p TP; false if there is none.
bool forgeStepAtSkippedHandler(const BehAbs &Abs, const Program &P,
                               const TraceProperty &TP, Certificate &Cert) {
  for (const HandlerSummary &S : Abs.Handlers) {
    if (summaryMayEmit(P, S, TP.trigger()) || S.Paths.empty())
      continue;
    ProofStep Forged;
    Forged.Where = whereOf(S);
    Forged.PathIndex = 0;
    Forged.Kind = Justify::PathInfeasible;
    Cert.Steps.insert(
        Cert.Steps.begin() + insertionPoint(Abs, Cert.Steps, Forged.Where),
        Forged);
    return true;
  }
  return false;
}

/// A copy of \p Cert with every step of its first non-init handler
/// dropped, as if the skip had ruled that handler out.
bool claimSkipOverSteppedHandler(Certificate &Cert) {
  for (const ProofStep &Step : Cert.Steps) {
    if (Step.Where == "init")
      continue;
    std::string Where = Step.Where;
    std::erase_if(Cert.Steps,
                  [&](const ProofStep &X) { return X.Where == Where; });
    return true;
  }
  return false;
}

TEST_F(CertTest, ForgedStepAtSkippedHandlerRejected) {
  const Property &Prop = *P->findProperty("PingBeforeMark");
  Certificate Bad = R.Cert;
  ASSERT_TRUE(forgeStepAtSkippedHandler(Session->behAbs(), *P,
                                        Prop.traceProp(), Bad));
  EXPECT_FALSE(check(Bad).Ok);
  RecheckOutcome Out = checkCanonicalCertificate(
      Session->termContext(), *P, Session->behAbs(), Prop,
      Bad.canonical(Session->termContext()), R.ServedBy, Opts);
  EXPECT_FALSE(Out.Ok);
  EXPECT_TRUE(Out.RederivedProved) << "the property itself still proves";
}

TEST_F(CertTest, SkipClaimedOverSteppedHandlerRejected) {
  const Property &Prop = *P->findProperty("PingBeforeMark");
  Certificate Bad = R.Cert;
  ASSERT_TRUE(claimSkipOverSteppedHandler(Bad));
  EXPECT_FALSE(check(Bad).Ok);
  RecheckOutcome Out = checkCanonicalCertificate(
      Session->termContext(), *P, Session->behAbs(), Prop,
      Bad.canonical(Session->termContext()), R.ServedBy, Opts);
  EXPECT_FALSE(Out.Ok);
}

TEST_F(PdrCertTest, ForgedStepAtSkippedHandlerRejected) {
  Certificate Bad = R.Cert;
  ASSERT_TRUE(forgeStepAtSkippedHandler(Session->behAbs(), *P,
                                        Prop->traceProp(), Bad));
  EXPECT_FALSE(check(Bad).Ok);
  RecheckOutcome Out = checkCanonicalCertificate(
      Session->termContext(), *P, Session->behAbs(), *Prop,
      Bad.canonical(Session->termContext()), R.ServedBy, Opts);
  EXPECT_FALSE(Out.Ok);
  EXPECT_TRUE(Out.RederivedProved) << "the property itself still proves";
}

TEST_F(PdrCertTest, SkipClaimedOverSteppedHandlerRejected) {
  Certificate Bad = R.Cert;
  ASSERT_TRUE(claimSkipOverSteppedHandler(Bad));
  EXPECT_FALSE(check(Bad).Ok);
  RecheckOutcome Out = checkCanonicalCertificate(
      Session->termContext(), *P, Session->behAbs(), *Prop,
      Bad.canonical(Session->termContext()), R.ServedBy, Opts);
  EXPECT_FALSE(Out.Ok);
}

} // namespace
} // namespace reflex
