//===- verify/verifier.h - Verification facade ------------------*- C++ -*-===//
//
// Part of the Reflex/C++ reproduction of "Automating Formal Proofs for
// Reactive Systems" (PLDI 2014).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The one-stop verification entry point: builds the behavioral
/// abstraction once, then proves each property of the program fully
/// automatically (trace properties via verify/prover.h, non-interference
/// via verify/ni.h), re-checks every certificate with the independent
/// checker, and optionally runs the bounded model checker on properties
/// the prover could not establish, to distinguish "false" from "beyond
/// the automation" (paper §6.3).
///
//===----------------------------------------------------------------------===//

#ifndef REFLEX_VERIFY_VERIFIER_H
#define REFLEX_VERIFY_VERIFIER_H

#include "support/deadline.h"
#include "verify/bmc.h"
#include "verify/checker.h"
#include "verify/engine.h"
#include "verify/ni.h"
#include "verify/prover.h"

#include <memory>

namespace reflex {

/// Options for a verification run. The three optimization toggles
/// correspond to §6.4's reported speedups and feed the ablation bench.
struct VerifyOptions {
  /// Prover optimizations.
  bool SyntacticSkip = true;
  bool CacheInvariants = true;
  /// Term-level simplification ("domain-specific reduction strategies").
  bool Simplify = true;
  /// Re-check every certificate with the independent checker.
  bool CheckCertificates = true;
  /// Which proof engine serves trace properties (verify/engine.h):
  /// induction (default), pdr, or portfolio (both in turn; canonical
  /// priority selection keeps verdicts deterministic). Part of the
  /// proof-cache options fingerprint: entries from different engines
  /// never shadow each other.
  EngineKind Engine = EngineKind::Induction;
  /// When the prover answers Unknown, search for a concrete
  /// counterexample up to this depth (0 disables).
  size_t BmcDepthOnUnknown = 0;
  /// Resource limits for that counterexample search. MaxDepth is ignored
  /// here — BmcDepthOnUnknown governs the depth; the state cap and the
  /// per-message payload cap trade breadth for depth (a wide message
  /// alphabet can exhaust MaxStates before a shallow bound completes, so
  /// callers with large alphabets shrink MaxPayloadsPerMessage instead of
  /// raising MaxStates).
  BmcOptions Bmc;
  SymExecLimits Limits;
  /// Per-property budgets (0 = unlimited) and an optional external cancel
  /// flag, polled cooperatively by the prover's hot loops. Budgets never
  /// change what a *completed* proof looks like (polling takes no
  /// decisions), so they are deliberately not part of the proof-cache
  /// options fingerprint.
  uint64_t TimeoutMillis = 0;
  uint64_t StepBudget = 0;
  std::shared_ptr<CancelFlag> Cancel;
};

/// Proved/Refuted/Unknown are the verdicts of the paper's automation.
/// Timeout, ResourceExhausted, and Aborted are *non-verdicts*: the budget
/// or the caller ended the attempt first. They carry no certificate, are
/// never cached or reused, and the scheduler may retry them.
enum class VerifyStatus : uint8_t {
  Proved,
  Refuted,
  Unknown,
  Timeout,
  ResourceExhausted,
  Aborted,
};

const char *verifyStatusName(VerifyStatus S);

/// True for the transient budget/cancellation statuses.
bool isBudgetStatus(VerifyStatus S);

struct PropertyResult {
  std::string Name;
  VerifyStatus Status = VerifyStatus::Unknown;
  /// Unknown: the failing obligation; Refuted: the violation explanation.
  std::string Reason;
  double Millis = 0;
  /// Proved only. Carries TermRefs into the originating session's term
  /// context — valid only while that session is alive. Consumers that
  /// outlive the session (the scheduler's merged reports, the incremental
  /// verifier's verdict store, the proof cache) use CertJson instead.
  Certificate Cert;
  /// Proved only: the certificate's audit JSON (Certificate::toJson),
  /// exported while the originating session was alive, so it survives the
  /// session. Empty otherwise.
  std::string CertJson;
  bool CertChecked = false;
  /// True when the verdict was served by the persistent proof cache (and,
  /// for Proved, re-validated by the independent checker).
  bool CacheHit = false;
  /// Always false. Kept so existing readers of the field still compile:
  /// every Proved cache hit is re-checked in full (CertChecked), there is
  /// no lighter re-check mode any more.
  bool FastRecheck = false;
  /// Cache hits only: the entry was stored for a *different* version of
  /// the program and validated footprint-relatively (the edit was
  /// disjoint from the proof's footprint, see verify/footprint.h).
  bool FootprintHit = false;
  /// Of the FootprintHit results, those only the path-granular reuse rule
  /// could serve: some footprint key's rendered summary changed, but only
  /// on paths the proof never entered (FootprintGranularity::Path).
  bool PathHit = false;
  /// The entry was a footprint-relative candidate (stored for an edited
  /// program version) but the path-granular check fell back and this
  /// result was re-verified from scratch.
  bool PathFallback = false;
  /// The proof footprint (verify/footprint.h): the handlers this verdict
  /// depends on. Collected for trace properties; AllHandlers for NI and
  /// BMC-assisted verdicts; not Collected for budget statuses.
  ProofFootprint Footprint;
  /// How many attempts the scheduler made (retries + 1); 1 outside the
  /// fault-tolerant scheduler.
  unsigned Attempts = 1;
  /// The engine that produced this verdict ("induction" or "pdr" —
  /// portfolio serves through one of its members, see verify/engine.h).
  /// Restored verbatim on proof-cache hits so reports compare
  /// byte-identical across cache states.
  std::string ServedBy;
  Trace Counterexample;    // Refuted only
};

struct VerificationReport {
  std::string ProgramName;
  std::vector<PropertyResult> Results;
  double TotalMillis = 0;
  /// Work metrics for the ablation bench.
  size_t TermCount = 0;
  uint64_t SolverQueries = 0;
  uint64_t InvariantCacheHits = 0;
  /// Incremental solver core counters (sym/solver.h SolverStats), summed
  /// across the sessions that produced this report: memo hits, scoped
  /// checks answered under an asserted assumption stack, undo-trail
  /// entries reversed by pop(), and bytes of recorded reason trails (zero
  /// unless solver-level proof logging ran).
  uint64_t SolverMemoHits = 0;
  uint64_t SolverAssumptionChecks = 0;
  uint64_t SolverTrailUndos = 0;
  uint64_t SolverReasonLogBytes = 0;
  /// Persistent proof-cache traffic (zero when no cache is attached).
  uint64_t ProofCacheHits = 0;
  uint64_t ProofCacheMisses = 0;
  /// Of the hits, how many were served footprint-relatively: the entry
  /// was stored for an edited-since version of the program and revalidated
  /// against the current handler fingerprints (verify/footprint.h).
  uint64_t FootprintHits = 0;
  /// Of the footprint-relative reuses, how many only the *path-granular*
  /// tier could serve (the handler-level rule would have re-verified:
  /// some footprint key's summary changed, but only on paths the proof
  /// never entered)…
  uint64_t PathHits = 0;
  /// …and how many reuse checks against a changed program fell back to
  /// re-verification (footprint intersected the edit, path data missing —
  /// v2 cache entries — or a structural path change).
  uint64_t PathFallbacks = 0;

  bool allProved() const;
  unsigned provedCount() const;
  const PropertyResult *find(const std::string &Name) const;

  /// JSON summary (statuses, reasons, timings — certificates are exported
  /// separately via Certificate::toJson, which needs the term context).
  std::string toJson() const;
};

/// Phase 1 of the two-phase parallel pipeline (docs/PERF.md): everything
/// about a program that is property-independent — the term context with
/// the symbolically executed handler summaries (BehAbs) plus pre-interned
/// property pattern symbols — built once, then frozen. Frozen means the
/// TermContext aborts on any further allocation, so the abstraction can be
/// shared read-only across worker threads without locks; each worker lays
/// its own overlay TermContext on top for property-local terms (Phase 2).
class FrozenAbstraction {
public:
  /// Builds and freezes the abstraction. \p P must be validated and
  /// outlive the result. Respects the budget in \p Opts: on expiry the
  /// outcome is latched (buildOutcome()) and sessions over this
  /// abstraction short-circuit, exactly like a private session whose
  /// build ran out of budget.
  static std::shared_ptr<const FrozenAbstraction>
  build(const Program &P, const VerifyOptions &Opts = {});

  const Program &program() const { return P; }
  const VerifyOptions &options() const { return Opts; }
  const TermContext &context() const { return Ctx; }
  const BehAbs &behAbs() const { return Abs; }
  BudgetOutcome buildOutcome() const { return Outcome; }
  const std::string &buildReason() const { return Reason; }

private:
  FrozenAbstraction(const Program &P, const VerifyOptions &Opts);

  const Program &P;
  VerifyOptions Opts;
  TermContext Ctx;
  BehAbs Abs;
  BudgetOutcome Outcome = BudgetOutcome::Ok;
  std::string Reason;
};

/// A verification session: one abstraction, many properties. Keeps the
/// term context, solver memo, and invariant cache alive across properties
/// (the cut-point caching of §6.4).
class VerifySession {
public:
  /// \p P must be validated and outlive the session. Builds a private
  /// abstraction (equivalent to a single-use FrozenAbstraction).
  VerifySession(const Program &P, const VerifyOptions &Opts = {});

  /// A session over a shared frozen abstraction: property-local terms go
  /// to a private overlay context; options come from the abstraction.
  explicit VerifySession(std::shared_ptr<const FrozenAbstraction> Abs);
  ~VerifySession();

  /// Verifies a single property under the budget configured in the
  /// session's options (a fresh Deadline per call).
  PropertyResult verify(const Property &Prop);

  /// Verifies a single property under an explicit, caller-owned budget
  /// token (the scheduler's fault plan injects per-job budgets this way).
  PropertyResult verify(const Property &Prop, Deadline &D);

  /// Verifies every property of the program.
  VerificationReport verifyAll();

  TermContext &termContext();
  const BehAbs &behAbs() const;

  // Accessors for layers that drive sessions from outside (the parallel
  // scheduler and the proof cache in src/service): the verified program,
  // the options the session was built with, and the session's work
  // counters for deterministic report merging.
  const Program &program() const;
  const VerifyOptions &options() const;
  uint64_t solverQueries() const;
  uint64_t invariantCacheHits() const;
  /// The full incremental-core counter set (sym/solver.h SolverStats):
  /// memo hits, scoped assumption checks, undo-trail reversals,
  /// reason-log bytes.
  const SolverStats &solverStats() const;

private:
  /// One engine, no dispatch: the shared tail of every verify() call.
  PropertyResult verifyOne(const Property &Prop, Deadline &D, EngineKind Eng);
  /// The portfolio: induction, then PDR if needed (see verify/engine.h
  /// for the selection rule).
  PropertyResult verifyPortfolio(const Property &Prop, Deadline &D);

  struct Impl;
  std::unique_ptr<Impl> I;
};

/// The ProverOptions subset of a VerifyOptions (the mapping
/// VerifySession::verify applies; exposed so cache re-validation uses
/// exactly the options the certificate was produced with).
ProverOptions proverOptions(const VerifyOptions &Opts);

/// Convenience: parse + validate happen elsewhere; this verifies all
/// properties of an already-validated program in a fresh session.
VerificationReport verifyProgram(const Program &P,
                                 const VerifyOptions &Opts = {});

} // namespace reflex

#endif // REFLEX_VERIFY_VERIFIER_H
