//===- verify/verifier.cc - Verification facade -----------------*- C++ -*-===//

#include "verify/verifier.h"

#include "support/json.h"
#include "support/timer.h"
#include "verify/pdr.h"

namespace reflex {

const char *verifyStatusName(VerifyStatus S) {
  switch (S) {
  case VerifyStatus::Proved:
    return "Proved";
  case VerifyStatus::Refuted:
    return "Refuted";
  case VerifyStatus::Unknown:
    return "Unknown";
  case VerifyStatus::Timeout:
    return "Timeout";
  case VerifyStatus::ResourceExhausted:
    return "ResourceExhausted";
  case VerifyStatus::Aborted:
    return "Aborted";
  }
  return "?";
}

bool isBudgetStatus(VerifyStatus S) {
  return S == VerifyStatus::Timeout || S == VerifyStatus::ResourceExhausted ||
         S == VerifyStatus::Aborted;
}

namespace {

VerifyStatus statusForOutcome(BudgetOutcome O) {
  switch (O) {
  case BudgetOutcome::Timeout:
    return VerifyStatus::Timeout;
  case BudgetOutcome::ResourceExhausted:
    return VerifyStatus::ResourceExhausted;
  case BudgetOutcome::Aborted:
    return VerifyStatus::Aborted;
  case BudgetOutcome::Ok:
    break;
  }
  return VerifyStatus::Unknown;
}

void armDeadline(Deadline &D, const VerifyOptions &Opts) {
  D.setWallMillis(Opts.TimeoutMillis);
  D.setStepBudget(Opts.StepBudget);
  if (Opts.Cancel)
    D.setCancelFlag(Opts.Cancel);
}

} // namespace

bool VerificationReport::allProved() const {
  for (const PropertyResult &R : Results)
    if (R.Status != VerifyStatus::Proved)
      return false;
  return !Results.empty();
}

unsigned VerificationReport::provedCount() const {
  unsigned N = 0;
  for (const PropertyResult &R : Results)
    if (R.Status == VerifyStatus::Proved)
      ++N;
  return N;
}

const PropertyResult *
VerificationReport::find(const std::string &Name) const {
  for (const PropertyResult &R : Results)
    if (R.Name == Name)
      return &R;
  return nullptr;
}

std::string VerificationReport::toJson() const {
  JsonWriter W;
  W.beginObject();
  W.field("program", ProgramName);
  W.key("properties");
  W.beginArray();
  for (const PropertyResult &R : Results) {
    W.beginObject();
    W.field("name", R.Name);
    W.field("status", verifyStatusName(R.Status));
    W.key("millis");
    W.value(R.Millis);
    if (R.Status == VerifyStatus::Proved) {
      W.field("cert_checked", R.CertChecked);
      // Audit trail for proof-cache hits: whether the checker re-validated
      // the entry ("none" when certificate checking is off).
      if (R.CacheHit)
        W.field("recheck", R.CertChecked ? "full" : "none");
    } else {
      W.field("reason", R.Reason);
    }
    // Footprint-relative hits: served from an entry stored for an edited
    // version of the program (verify/footprint.h).
    if (R.FootprintHit)
      W.field("footprint_relative", true);
    if (R.Attempts > 1)
      W.field("attempts", static_cast<int64_t>(R.Attempts));
    if (!R.ServedBy.empty())
      W.field("engine", R.ServedBy);
    W.endObject();
  }
  W.endArray();
  W.key("total_millis");
  W.value(TotalMillis);
  W.field("terms", static_cast<int64_t>(TermCount));
  W.field("solver_queries", static_cast<int64_t>(SolverQueries));
  W.field("solver_memo_hits", static_cast<int64_t>(SolverMemoHits));
  W.field("solver_assumption_checks",
          static_cast<int64_t>(SolverAssumptionChecks));
  W.field("solver_trail_undos", static_cast<int64_t>(SolverTrailUndos));
  if (SolverReasonLogBytes)
    W.field("solver_reason_log_bytes",
            static_cast<int64_t>(SolverReasonLogBytes));
  if (ProofCacheHits || ProofCacheMisses) {
    W.field("proof_cache_hits", static_cast<int64_t>(ProofCacheHits));
    W.field("proof_cache_misses", static_cast<int64_t>(ProofCacheMisses));
  }
  if (FootprintHits)
    W.field("footprint_hits", static_cast<int64_t>(FootprintHits));
  if (PathHits || PathFallbacks) {
    W.field("path_hits", static_cast<int64_t>(PathHits));
    W.field("path_fallbacks", static_cast<int64_t>(PathFallbacks));
  }
  W.endObject();
  return W.take();
}

FrozenAbstraction::FrozenAbstraction(const Program &P,
                                     const VerifyOptions &Opts)
    : P(P), Opts(Opts) {
  Ctx.setSimplify(Opts.Simplify);
  // The abstraction build gets its own budget token with the session's
  // limits; the summaries degrade to Incomplete on expiry, and the
  // latched outcome short-circuits every later verify() call.
  Deadline BuildD;
  armDeadline(BuildD, Opts);
  SymExecLimits Limits = Opts.Limits;
  Limits.Budget = BuildD.active() ? &BuildD : nullptr;
  Abs = buildBehAbs(Ctx, P, Limits);
  Outcome = BuildD.outcome();
  if (Outcome != BudgetOutcome::Ok)
    Reason = "behavioral abstraction build abandoned: " + BuildD.describe();
  // Widen the frozen base with the terms every property proof touches, so
  // they are shared (and shared-cache-eligible) rather than re-created in
  // each worker's overlay: the boolean literals and the pattern-variable
  // symbols of the trace properties. Invariant records bind pattern
  // symbols and abstraction terms, so this makes them base-pure.
  Ctx.boolLit(true);
  Ctx.boolLit(false);
  for (const Property &Prop : P.Properties) {
    if (!Prop.isTrace())
      continue;
    const TraceProperty &TP = Prop.traceProp();
    std::map<std::string, BaseType> VarTypes;
    collectPatVarTypes(P, TP.A, VarTypes);
    collectPatVarTypes(P, TP.B, VarTypes);
    for (const auto &[Name, Ty] : VarTypes)
      Ctx.patSym(Name, Ty);
  }
  // From here on the context is immutable; sessions allocate in overlays.
  Ctx.freeze();
}

std::shared_ptr<const FrozenAbstraction>
FrozenAbstraction::build(const Program &P, const VerifyOptions &Opts) {
  return std::shared_ptr<const FrozenAbstraction>(
      new FrozenAbstraction(P, Opts));
}

struct VerifySession::Impl {
  Impl(std::shared_ptr<const FrozenAbstraction> FrozenIn,
       SharedVerifyCaches *Shared)
      : Frozen(std::move(FrozenIn)), P(Frozen->program()),
        Opts(Frozen->options()), Ctx(&Frozen->context()), Solv(Ctx),
        Abs(Frozen->behAbs()), BuildOutcome(Frozen->buildOutcome()),
        BuildReason(Frozen->buildReason()) {
    Solv.setMemoEnabled(Opts.CacheInvariants);
    if (Shared) {
      Solv.setSharedMemo(&Shared->SolverMemo);
      Cache.Shared = &Shared->Invariants;
    }
  }

  std::shared_ptr<const FrozenAbstraction> Frozen;
  const Program &P;
  VerifyOptions Opts;
  TermContext Ctx; ///< this session's overlay over the frozen base
  Solver Solv;
  const BehAbs &Abs;
  InvariantCache Cache;
  BudgetOutcome BuildOutcome = BudgetOutcome::Ok;
  std::string BuildReason;
};

VerifySession::VerifySession(const Program &P, const VerifyOptions &Opts)
    : I(std::make_unique<Impl>(FrozenAbstraction::build(P, Opts), nullptr)) {}

VerifySession::VerifySession(std::shared_ptr<const FrozenAbstraction> Abs,
                             SharedVerifyCaches *Shared)
    : I(std::make_unique<Impl>(std::move(Abs), Shared)) {}

VerifySession::~VerifySession() = default;

TermContext &VerifySession::termContext() { return I->Ctx; }
const BehAbs &VerifySession::behAbs() const { return I->Abs; }
const Program &VerifySession::program() const { return I->P; }
const VerifyOptions &VerifySession::options() const { return I->Opts; }
uint64_t VerifySession::solverQueries() const { return I->Solv.queriesSolved(); }
uint64_t VerifySession::invariantCacheHits() const { return I->Cache.Hits; }
const SolverStats &VerifySession::solverStats() const {
  return I->Solv.stats();
}

ProverOptions proverOptions(const VerifyOptions &Opts) {
  ProverOptions POpts;
  POpts.SyntacticSkip = Opts.SyntacticSkip;
  POpts.CacheInvariants = Opts.CacheInvariants;
  return POpts;
}

PropertyResult VerifySession::verify(const Property &Prop) {
  Deadline D;
  armDeadline(D, I->Opts);
  return verify(Prop, D);
}

PropertyResult VerifySession::verify(const Property &Prop, Deadline &D) {
  EngineKind Eng = I->Opts.Engine;
  // NI has a single prover (§5.2); the engine selection concerns trace
  // properties only.
  if (!Prop.isTrace())
    Eng = EngineKind::Induction;
  if (Eng == EngineKind::Portfolio)
    return verifyPortfolio(Prop, D);
  return verifyOne(Prop, D, Eng);
}

PropertyResult VerifySession::verifyOne(const Property &Prop, Deadline &D,
                                        EngineKind Eng) {
  PropertyResult R;
  R.Name = Prop.Name;
  R.ServedBy = servingEngineName(Eng);
  WallTimer Timer;

  // A budget that ran out while the abstraction was being built ends
  // every attempt before it starts: there is nothing sound to prove
  // against, and the outcome is already known.
  if (I->BuildOutcome != BudgetOutcome::Ok) {
    R.Status = statusForOutcome(I->BuildOutcome);
    R.Reason = I->BuildReason;
    R.Millis = Timer.elapsedMillis();
    return R;
  }

  ProverOptions POpts = proverOptions(I->Opts);
  if (D.active()) {
    POpts.Budget = &D;
    I->Solv.setDeadline(&D);
  }

  bool Proved = false;
  bool Refuted = false;
  std::string Reason;
  Certificate Cert;
  if (Prop.isTrace() && Eng == EngineKind::Pdr) {
    POpts.Footprint = &R.Footprint;
    PdrOutcome Out = provePdrProperty(I->Ctx, I->Solv, I->P, I->Abs, Prop,
                                      POpts);
    Proved = Out.Proved;
    Refuted = Out.Refuted;
    Reason = std::move(Out.Reason);
    Cert = std::move(Out.Cert);
    if (Refuted)
      R.Counterexample = std::move(Out.Counterexample);
  } else if (Prop.isTrace()) {
    POpts.Footprint = &R.Footprint;
    TraceProofOutcome Out = proveTraceProperty(I->Ctx, I->Solv, I->P, I->Abs,
                                               Prop, POpts, I->Cache);
    Proved = Out.Proved;
    Reason = std::move(Out.Reason);
    Cert = std::move(Out.Cert);
  } else {
    NIProofOutcome Out = proveNonInterference(I->Ctx, I->Solv, I->P, I->Abs,
                                              Prop, POpts.Budget);
    Proved = Out.Proved;
    Reason = std::move(Out.Reason);
    Cert = std::move(Out.Cert);
    // NI processes every handler summary, and its label analysis scans
    // every handler body (spawn reachability); only the conservative
    // all-handlers footprint is sound.
    R.Footprint.Collected = true;
    R.Footprint.AllHandlers = true;
  }
  I->Solv.setDeadline(nullptr);
  // The checker re-derivation below runs unbudgeted: a Proved outcome
  // means the derivation completed within budget, so re-running it
  // terminates, and budgeting it would turn near-edge expiries into
  // spurious "certificate rejected" verdicts.
  POpts.Budget = nullptr;

  if (Proved) {
    R.Status = VerifyStatus::Proved;
    R.Cert = std::move(Cert);
    if (I->Opts.CheckCertificates) {
      CheckOutcome Chk =
          checkCertificate(I->Ctx, I->P, I->Abs, Prop, R.Cert, POpts);
      R.CertChecked = Chk.Ok;
      if (!Chk.Ok) {
        // A certificate the checker rejects is not a proof.
        R.Status = VerifyStatus::Unknown;
        R.Reason = "certificate rejected: " + Chk.Why;
      } else {
        // Adopt the checker's validated solver log: the audit JSON then
        // matches a proof-cache re-admission byte for byte (both sides
        // render the same deterministic re-derivation).
        R.Cert.SolverLog = std::move(Chk.SolverLog);
      }
    }
    if (R.Status == VerifyStatus::Proved) {
      // Export now, while this session's term context is alive: the JSON
      // is the form that may outlive the session (scheduler merges,
      // incremental verdict reuse, proof-cache entries). The audit JSON
      // carries the footprint ("*" = all handlers; otherwise the
      // path-granular "key@id1,id2" encoding of verify/footprint.h).
      if (R.Footprint.Collected)
        R.Cert.Footprint =
            R.Footprint.AllHandlers
                ? std::vector<std::string>{"*"}
                : encodeFootprintHandlers(R.Footprint.Handlers);
      R.CertJson = R.Cert.toJson(I->Ctx);
    }
  } else if (Refuted) {
    // PDR's refutations are believed only after a concrete replay
    // (verify/pdr.h), so this is as sound as a BMC Refuted — and carries
    // the same all-handlers footprint, already set by the engine.
    R.Status = VerifyStatus::Refuted;
    R.Reason = std::move(Reason);
  } else if (D.expiredNow()) {
    // Not a verdict: the budget ended the attempt. No certificate, no
    // BMC refutation search (it would burn time the caller said we do
    // not have). The reason mentions only the configured limit, so
    // reports compare equal across worker counts. Budget statuses are
    // never reused, so they carry no footprint.
    R.Status = statusForOutcome(D.outcome());
    R.Reason = "verification budget exhausted: " + D.describe();
    R.Footprint = ProofFootprint();
  } else {
    R.Status = VerifyStatus::Unknown;
    R.Reason = std::move(Reason);
    if (I->Opts.BmcDepthOnUnknown > 0 && Prop.isTrace()) {
      BmcOptions BOpts = I->Opts.Bmc;
      BOpts.MaxDepth = I->Opts.BmcDepthOnUnknown;
      BmcResult B = bmcSearch(I->P, Prop, BOpts);
      if (B.Violated) {
        R.Status = VerifyStatus::Refuted;
        R.Reason = B.Explanation;
        R.Counterexample = std::move(B.Counterexample);
      }
      // Refuted or not, the BMC searched the concrete semantics of the
      // whole program: the verdict now depends on every handler.
      R.Footprint.Collected = true;
      R.Footprint.AllHandlers = true;
      R.Footprint.Handlers.clear();
    }
  }
  R.Millis = Timer.elapsedMillis();
  return R;
}

PropertyResult VerifySession::verifyPortfolio(const Property &Prop,
                                              Deadline &D) {
  // The engines run in turn in this session, under the caller's one
  // budget, and selection follows the canonical priority rule of
  // verify/engine.h, so the verdict is a function of (program, property,
  // options) only. The served result's Millis spans both legs.
  WallTimer Timer;
  PropertyResult R = verifyOne(Prop, D, EngineKind::Induction);
  // Induction's Proved wins by priority; a budget status ends the attempt
  // (not a verdict, for portfolio exactly as for a single engine).
  if (R.Status != VerifyStatus::Proved && !isBudgetStatus(R.Status)) {
    PropertyResult PdrR = verifyOne(Prop, D, EngineKind::Pdr);
    // PDR serves a sound verdict or a budget status; otherwise
    // induction's result (with its BMC fallback already applied) stands
    // as the more actionable diagnostic.
    if (PdrR.Status == VerifyStatus::Proved ||
        PdrR.Status == VerifyStatus::Refuted || isBudgetStatus(PdrR.Status))
      R = std::move(PdrR);
  }
  R.Millis = Timer.elapsedMillis();
  return R;
}

VerificationReport VerifySession::verifyAll() {
  VerificationReport Report;
  Report.ProgramName = I->P.Name;
  WallTimer Timer;
  for (const Property &Prop : I->P.Properties)
    Report.Results.push_back(verify(Prop));
  Report.TotalMillis = Timer.elapsedMillis();
  Report.TermCount = I->Ctx.termCount();
  Report.SolverQueries = I->Solv.queriesSolved();
  Report.InvariantCacheHits = I->Cache.Hits;
  const SolverStats &SS = I->Solv.stats();
  Report.SolverMemoHits = SS.MemoHits + SS.SharedMemoHits;
  Report.SolverAssumptionChecks = SS.AssumptionChecks;
  Report.SolverTrailUndos = SS.TrailUndos;
  Report.SolverReasonLogBytes = SS.ReasonLogBytes;
  return Report;
}

VerificationReport verifyProgram(const Program &P,
                                 const VerifyOptions &Opts) {
  VerifySession Session(P, Opts);
  return Session.verifyAll();
}

} // namespace reflex
