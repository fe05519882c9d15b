//===- verify/checker.cc - Independent certificate checking -----*- C++ -*-===//

#include "verify/checker.h"

#include "verify/pdr.h"

#include <sstream>

namespace reflex {

namespace {

bool litsEqual(const std::vector<Lit> &A, const std::vector<Lit> &B) {
  if (A.size() != B.size())
    return false;
  for (size_t I = 0; I < A.size(); ++I)
    if (!(A[I] == B[I]))
      return false;
  return true;
}

bool stepsEqual(const std::vector<ProofStep> &A,
                const std::vector<ProofStep> &B, std::string &Why) {
  if (A.size() != B.size()) {
    Why = "step count differs (" + std::to_string(A.size()) + " vs " +
          std::to_string(B.size()) + ")";
    return false;
  }
  for (size_t I = 0; I < A.size(); ++I) {
    const ProofStep &X = A[I];
    const ProofStep &Y = B[I];
    if (X.Where != Y.Where || X.PathIndex != Y.PathIndex ||
        X.EmitIndex != Y.EmitIndex || X.Kind != Y.Kind ||
        X.LocalIndex != Y.LocalIndex || X.InvariantId != Y.InvariantId ||
        X.Binding != Y.Binding) {
      Why = "step " + std::to_string(I) + " differs at " + X.Where;
      return false;
    }
  }
  return true;
}

bool certsEqual(const Certificate &A, const Certificate &B,
                std::string &Why) {
  if (A.PropertyName != B.PropertyName || A.Kind != B.Kind ||
      A.Engine != B.Engine) {
    Why = "certificate header differs";
    return false;
  }
  if (!stepsEqual(A.Steps, B.Steps, Why))
    return false;
  if (A.Invariants.size() != B.Invariants.size()) {
    Why = "invariant count differs";
    return false;
  }
  for (size_t I = 0; I < A.Invariants.size(); ++I) {
    const InvariantRecord &X = A.Invariants[I];
    const InvariantRecord &Y = B.Invariants[I];
    if (X.Id != Y.Id || X.Forbids != Y.Forbids ||
        !litsEqual(X.Guard, Y.Guard) || X.Action.str() != Y.Action.str()) {
      Why = "invariant " + std::to_string(X.Id) + " differs";
      return false;
    }
    if (!stepsEqual(X.Steps, Y.Steps, Why))
      return false;
  }
  if (A.InvClauses.size() != B.InvClauses.size()) {
    Why = "invariant clause count differs";
    return false;
  }
  for (size_t I = 0; I < A.InvClauses.size(); ++I)
    if (!litsEqual(A.InvClauses[I], B.InvClauses[I])) {
      Why = "invariant clause " + std::to_string(I) + " differs";
      return false;
    }
  if (A.NICases.size() != B.NICases.size()) {
    Why = "NI case count differs";
    return false;
  }
  for (size_t I = 0; I < A.NICases.size(); ++I) {
    const NICaseRecord &X = A.NICases[I];
    const NICaseRecord &Y = B.NICases[I];
    if (X.Where != Y.Where || X.PathIndex != Y.PathIndex ||
        X.SenderHigh != Y.SenderHigh || !litsEqual(X.LabelLits, Y.LabelLits)) {
      Why = "NI case " + std::to_string(I) + " differs at " + X.Where;
      return false;
    }
  }
  return true;
}

/// Line cap for the exported solver log: enough to audit real kernels
/// without bloating certificate JSON for synthetic stress programs. Every
/// trail is replayed regardless of the cap; only the rendering is capped.
constexpr size_t MaxSolverLogLines = 64;

/// Replays every reason trail the re-derivation's solver recorded through
/// the independent trail validator (sym/solver.h's replayReasonTrail —
/// its own union-find, no shared code with either solver core), then
/// renders them into \p Redone's audit log. A single trail that fails
/// replay rejects the certificate: an Unsat the solver cannot justify
/// means the solver (or the undo trail behind it) is broken, and no
/// verdict derived from it is trustworthy.
bool validateSolverLog(const TermContext &Ctx, const Solver &FreshSolv,
                       Certificate &Redone, std::string &Why) {
  const std::vector<ReasonTrail> &Trails = FreshSolv.reasonTrails();
  uint64_t Hash = 1469598103934665603ULL;
  Redone.SolverLog.clear();
  for (size_t I = 0; I < Trails.size(); ++I) {
    std::string ReplayWhy;
    if (!replayReasonTrail(Ctx, Trails[I], ReplayWhy)) {
      Why = "solver reason trail " + std::to_string(I) +
            " failed independent replay: " + ReplayWhy;
      return false;
    }
    std::string Line = formatReasonTrail(Ctx, Trails[I]);
    for (unsigned char C : Line) {
      Hash ^= C;
      Hash *= 1099511628211ULL;
    }
    if (Redone.SolverLog.size() < MaxSolverLogLines)
      Redone.SolverLog.push_back(std::move(Line));
  }
  std::ostringstream OS;
  OS << "replayed " << Trails.size() << " unsat trails; fnv1a=" << std::hex
     << Hash;
  Redone.SolverLog.push_back(OS.str());
  return true;
}

/// Re-derives a certificate for \p Prop with the engine named by
/// \p Engine ("" / "induction" for the paper's prover, "pdr" for the
/// reachability engine). False with \p Why when the engine is unknown or
/// the re-derivation does not prove the property.
bool rederive(TermContext &Ctx, Solver &FreshSolv, const Program &P,
              const BehAbs &Abs, const Property &Prop,
              const ProverOptions &Opts, const std::string &Engine,
              Certificate &Redone, std::string &Why) {
  if (!Prop.isTrace()) {
    NIProofOutcome Redo = proveNonInterference(Ctx, FreshSolv, P, Abs, Prop);
    if (!Redo.Proved) {
      Why = "re-derivation failed: " + Redo.Reason;
      return false;
    }
    Redone = std::move(Redo.Cert);
    return true;
  }
  if (Engine == "pdr") {
    PdrOutcome Redo = provePdrProperty(Ctx, FreshSolv, P, Abs, Prop, Opts);
    if (!Redo.Proved) {
      Why = "re-derivation failed: " + Redo.Reason;
      return false;
    }
    Redone = std::move(Redo.Cert);
    return true;
  }
  if (!Engine.empty() && Engine != "induction") {
    Why = "unknown certificate engine '" + Engine + "'";
    return false;
  }
  // Fresh invariant cache: ids and proofs re-derived from scratch.
  InvariantCache FreshCache;
  TraceProofOutcome Redo =
      proveTraceProperty(Ctx, FreshSolv, P, Abs, Prop, Opts, FreshCache);
  if (!Redo.Proved) {
    Why = "re-derivation failed: " + Redo.Reason;
    return false;
  }
  Redone = std::move(Redo.Cert);
  return true;
}

} // namespace

CheckOutcome checkCertificate(TermContext &Ctx, const Program &P,
                              const BehAbs &Abs, const Property &Prop,
                              const Certificate &Cert,
                              const ProverOptions &Opts) {
  CheckOutcome Out;

  // Fresh solver: every query in the re-derivation is recomputed, with
  // reason-trail logging on so each Unsat answer justifies itself.
  Solver FreshSolv(Ctx);
  FreshSolv.setLogEnabled(true);

  Certificate Redone;
  if (!rederive(Ctx, FreshSolv, P, Abs, Prop, Opts, Cert.Engine, Redone,
                Out.Why))
    return Out;
  if (!validateSolverLog(Ctx, FreshSolv, Redone, Out.Why))
    return Out;
  if (!certsEqual(Cert, Redone, Out.Why))
    return Out;
  // PDR certificates additionally get their clausal invariant re-proved
  // obligation by obligation: a tampered clause set that somehow survived
  // the structural comparison still fails the solver here.
  if (Cert.Engine == "pdr" &&
      !checkPdrInvariant(Ctx, FreshSolv, P, Abs, Prop, Cert, Opts, Out.Why))
    return Out;
  Out.SolverLog = std::move(Redone.SolverLog);
  Out.Ok = true;
  return Out;
}

RecheckOutcome checkCanonicalCertificate(TermContext &Ctx, const Program &P,
                                         const BehAbs &Abs,
                                         const Property &Prop,
                                         const std::string &Canonical,
                                         const std::string &Engine,
                                         const ProverOptions &Opts) {
  RecheckOutcome Out;

  // Fresh solver and invariant cache: the cached certificate gets the same
  // from-scratch re-derivation checkCertificate performs, reason trails
  // included.
  Solver FreshSolv(Ctx);
  FreshSolv.setLogEnabled(true);
  if (!rederive(Ctx, FreshSolv, P, Abs, Prop, Opts, Engine, Out.Rederived,
                Out.Why))
    return Out;
  if (!validateSolverLog(Ctx, FreshSolv, Out.Rederived, Out.Why))
    return Out;
  Out.RederivedProved = true;
  if (Out.Rederived.canonical(Ctx) != Canonical) {
    Out.Why = "cached certificate differs from re-derivation";
    return Out;
  }
  Out.Ok = true;
  return Out;
}

} // namespace reflex
