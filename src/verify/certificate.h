//===- verify/certificate.h - Proof certificates ----------------*- C++ -*-===//
//
// Part of the Reflex/C++ reproduction of "Automating Formal Proofs for
// Reactive Systems" (PLDI 2014).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Explicit proof objects. In the paper the proof search emits Coq proof
/// terms re-checked by Coq's kernel (the de Bruijn criterion: a large
/// untrusted search, a small trusted checker). The C++ substitution keeps
/// that architecture in miniature: the prover records, for every case of
/// the induction over BehAbs that it symbolically evaluated, *which*
/// justification discharges it (a local emission, a failed-lookup fact,
/// an auxiliary invariant, ...), and the independent checker
/// (verify/checker.h) re-enumerates all obligations and re-validates every
/// claimed justification using only the solver and the handler summaries.
/// A certificate records only what the search found: a handler the §6.4
/// syntactic skip rules out (summaryMayEmit/summaryMayAssign in
/// verify/prover.h) has no step, because the checker recomputes the skip
/// set from the handler bodies rather than trusting the certificate for
/// it. The prover's search heuristics are thereby outside the trusted
/// base.
///
//===----------------------------------------------------------------------===//

#ifndef REFLEX_VERIFY_CERTIFICATE_H
#define REFLEX_VERIFY_CERTIFICATE_H

#include "prop/property.h"
#include "verify/symstate.h"

#include <map>
#include <string>
#include <vector>

namespace reflex {

/// How one proof obligation was discharged.
enum class Justify : uint8_t {
  /// The assumption set (path condition + match condition) is
  /// contradictory: the case cannot arise.
  PathInfeasible,
  /// An earlier/later emission in the same path satisfies the obligation
  /// (at LocalIndex).
  LocalObligation,
  /// A component found by lookup witnesses a prior Spawn action matching
  /// the obligation (the component-origin axiom: every live component was
  /// spawned, and spawns are trace actions).
  CompOrigin,
  /// Auxiliary invariant #InvariantId supplies the history fact.
  InvariantHistory,
  /// A failed-lookup fact refutes any prior matching Spawn (Disables).
  NoCompHistory,
  /// Invariant step: the guard is preserved, so the inductive hypothesis
  /// applies to the prefix trace.
  GuardPreserved,
  /// Disables: every earlier in-path emission was refuted as a match.
  NoPriorLocal,
  /// PDR only: the obligation's pre-state cube is excluded by the
  /// certificate's clausal invariant (Certificate::InvClauses) — the
  /// trigger occurrence is unreachable.
  FrameBlocked,
};

const char *justifyName(Justify J);

/// One discharged obligation. Cases of skipped handlers have none.
struct ProofStep {
  /// "init" or "CompType=>MsgName".
  std::string Where;
  int PathIndex = -1;
  /// Index of the trigger emission within the path (-1 for whole-path
  /// records such as invariant step cases).
  int EmitIndex = -1;
  Justify Kind = Justify::PathInfeasible;
  /// Emission index of a local justification (LocalObligation).
  int LocalIndex = -1;
  /// Id of the auxiliary invariant (InvariantHistory).
  int InvariantId = -1;
  /// The trigger binding σ (pattern variable -> term).
  SymBinding Binding;
};

/// An auxiliary invariant of the form
///   Guard(state, vars) ⇒ [∃ / ∄] action matching Action(vars) in trace
/// together with its own inductive proof (base + one step per path of
/// every handler that can emit Action or assign a guard variable).
struct InvariantRecord {
  int Id = 0;
  /// false: guard requires history (∃); true: guard forbids history (∄).
  bool Forbids = false;
  /// Literals over canonical state symbols and pattern-variable symbols.
  std::vector<Lit> Guard;
  ActionPattern Action;
  std::map<std::string, BaseType> VarTypes;
  std::vector<ProofStep> Steps;
};

/// A non-interference case record (one per handler path and sender-label
/// case); the checker re-derives the label split and re-validates the
/// support/label checks.
struct NICaseRecord {
  std::string Where;
  int PathIndex = -1;
  /// true: the sender was (assumed) high in this case.
  bool SenderHigh = false;
  /// Literals added by the label case split.
  std::vector<Lit> LabelLits;
  /// Free-form description of the checks that passed (documentation; not
  /// consumed by the checker).
  std::string Note;
};

/// A complete proof certificate for one property.
struct Certificate {
  std::string ProgramName;
  std::string PropertyName;
  /// Trace op name, or "noninterference".
  std::string Kind;
  std::vector<ProofStep> Steps;
  std::vector<InvariantRecord> Invariants;
  std::vector<NICaseRecord> NICases;
  /// The proof footprint (verify/footprint.h): sorted handler keys the
  /// search consulted, filled in by the verification session for audit
  /// export. Empty when not recorded (or when the footprint is
  /// all-handlers, which the audit JSON spells "*"). Audit-only: the
  /// canonical form omits it (the checker re-derives proofs without
  /// footprints, and footprints are bookkeeping, not proof content).
  std::vector<std::string> Footprint;
  /// Solver-level proof log (docs/SOLVER.md): rendered reason trails for
  /// the Unsat answers of the checker's re-derivation, each one replayed
  /// by the independent trail validator before it lands here, capped at a
  /// fixed line budget and closed with a count + aggregate-hash summary
  /// line. Audit-only like Footprint: filled by the checker (the live
  /// prover runs with logging off), exported by toJson, omitted from the
  /// canonical form, and ignored by certsEqual — the trails justify the
  /// solver's answers, they are not proof content.
  std::vector<std::string> SolverLog;
  /// The proof engine that produced this certificate: "pdr" for PDR
  /// clausal certificates, empty for the induction prover (the default is
  /// omitted from every serialization, keeping induction certificates
  /// byte-identical to pre-portfolio builds).
  std::string Engine;
  /// PDR only: the final inductive frame as clauses over the canonical
  /// state symbols (each clause a disjunction of literals; the negation of
  /// a blocked cube). The checker re-proves that the conjunction is
  /// initial, consecutive, and excludes every FrameBlocked obligation.
  std::vector<std::vector<Lit>> InvClauses;

  const InvariantRecord *findInvariant(int Id) const;

  /// JSON export for auditing.
  std::string toJson(const TermContext &Ctx) const;

  /// Canonical serialization: a deterministic JSON rendering of exactly
  /// the fields the checker compares (verify/checker.cc's certsEqual) —
  /// no program name, no free-form notes. Two certificates produced by
  /// the deterministic prover for the same (program, property, options)
  /// have identical canonical forms, which is what the persistent proof
  /// cache stores and what checkCanonicalCertificate compares against a
  /// fresh re-derivation.
  std::string canonical(const TermContext &Ctx) const;
};

} // namespace reflex

#endif // REFLEX_VERIFY_CERTIFICATE_H
