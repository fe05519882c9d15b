//===- verify/checker.h - Independent certificate checking ------*- C++ -*-===//
//
// Part of the Reflex/C++ reproduction of "Automating Formal Proofs for
// Reactive Systems" (PLDI 2014).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Re-validation of proof certificates, standing in for Coq's kernel
/// re-checking the tactic-produced proof term. The checker re-runs the
/// (deterministic) proof derivation with a *fresh* solver instance — every
/// entailment and satisfiability query is recomputed from scratch, with an
/// empty memo table — and then requires the re-derived certificate to be
/// structurally identical to the stored one (same cases, same
/// justifications, same invariants). The re-derivation decides the §6.4
/// syntactic skip for every handler afresh (summaryMayEmit and
/// summaryMayAssign over the handler bodies); certificates carry no step
/// for a skipped handler, so a step forged at a skipped handler, or a
/// handler's steps dropped as if it were skipped, fails the comparison.
/// The prover's search-order heuristics and caches are thereby outside
/// the trusted base; what remains trusted is the shared semantics core:
/// symbolic execution, pattern matching, the skip predicates, and the
/// entailment engine (documented in DESIGN.md).
///
//===----------------------------------------------------------------------===//

#ifndef REFLEX_VERIFY_CHECKER_H
#define REFLEX_VERIFY_CHECKER_H

#include "verify/ni.h"
#include "verify/prover.h"

namespace reflex {

struct CheckOutcome {
  bool Ok = false;
  std::string Why;
  /// The re-derivation's validated solver log (Certificate::SolverLog):
  /// every Unsat reason trail replayed by the independent validator, then
  /// rendered. Valid when Ok; callers copy it into the certificate they
  /// export so audit JSON is identical whether a verdict is served cold
  /// or re-admitted from the proof cache.
  std::vector<std::string> SolverLog;
};

/// Re-validates \p Cert for property \p Prop of \p P (abstracted by
/// \p Abs). \p Opts must match the options the certificate was produced
/// with (they change the certificate's shape: with SyntacticSkip off,
/// every handler's paths carry steps).
CheckOutcome checkCertificate(TermContext &Ctx, const Program &P,
                              const BehAbs &Abs, const Property &Prop,
                              const Certificate &Cert,
                              const ProverOptions &Opts);

/// Outcome of re-validating a *serialized* certificate (a cached one: the
/// originating session is gone, so only its canonical rendering survives).
struct RecheckOutcome {
  bool Ok = false;
  std::string Why;
  /// The freshly re-derived certificate (valid when the re-derivation
  /// proved the property, whether or not it matched the cached form). Its
  /// terms live in the TermContext passed to checkCanonicalCertificate.
  Certificate Rederived;
  bool RederivedProved = false;
};

/// The persistent proof cache's trust anchor: re-derives the proof of
/// \p Prop from scratch (fresh solver, fresh invariant cache — exactly
/// like checkCertificate) and accepts iff the re-derivation's canonical
/// serialization equals \p Canonical (Certificate::canonical). Because
/// structural certificate equality coincides with canonical-form equality,
/// this is checkCertificate lifted to certificates that crossed a process
/// boundary; a corrupt or tampered cache entry fails the comparison and
/// the caller must fall back to full re-verification.
///
/// \p Engine names the engine to re-derive with ("pdr"; "" or
/// "induction" for the paper's prover), as recorded beside the
/// certificate (ProofCacheEntry::ServedBy, the journal's served_by). It
/// is no less trusted than the certificate's own "engine" field, and it
/// cannot weaken the check: the byte comparison still decides. A wrong
/// engine re-derives a different canonical form (induction's omits
/// "engine" and "clauses", PDR's carries them), so the certificate is
/// rejected.
RecheckOutcome checkCanonicalCertificate(TermContext &Ctx, const Program &P,
                                         const BehAbs &Abs,
                                         const Property &Prop,
                                         const std::string &Canonical,
                                         const std::string &Engine,
                                         const ProverOptions &Opts);

} // namespace reflex

#endif // REFLEX_VERIFY_CHECKER_H
