//===- verify/incremental.h - Incremental re-verification -------*- C++ -*-===//
//
// Part of the Reflex/C++ reproduction of "Automating Formal Proofs for
// Reactive Systems" (PLDI 2014).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Incremental re-verification — the paper's stated future work ("Future
/// work can explore incremental verification in order to further reduce
/// the time required for re-verification", §6.4).
///
/// The model matches the paper's edit-verify workflow: the user edits the
/// kernel or its properties and re-runs the automation. This verifier
/// fingerprints the program per handler (verify/footprint.h) and each
/// property's text, and records the *proof footprint* — the set of
/// handlers the proof search consulted — with every verdict:
///
///  * unchanged code + unchanged property -> the previous verdict is
///    reused (sound: verification depends on nothing else);
///  * changed/new property over unchanged code -> only that property is
///    re-verified, sharing one session (abstraction, solver memo,
///    invariant cache) with the others;
///  * changed handler bodies -> a verdict survives when the edit is
///    provably irrelevant to its proof: every handler's *interface*
///    (messages sent, component types spawned, state variables assigned)
///    is preserved, and for every handler in the verdict's footprint the
///    rendered summary is unchanged on everything the proof consulted —
///    the whole summary, or, at path granularity, every path's emit
///    structure plus the full content of just the paths the proof
///    entered — see footprintReusable and the soundness argument in
///    verify/footprint.h. Anything else (declaration changes, interface
///    changes, footprint overlap, a structural path change, a verdict
///    without a collected footprint) re-verifies from scratch.
///
/// Reused results carry their status, original timing, and — for proved
/// properties — their certificate JSON (PropertyResult::CertJson, exported
/// while the originating session was alive). Only the *live* certificate
/// (PropertyResult::Cert, whose terms reference the originating session's
/// term context) is dropped, since that session dies between calls.
///
/// An optional persistent ProofCache (service/proofcache.h) backs the
/// in-memory verdict store: verdicts survive process restarts and — since
/// the cache key covers only declarations, with per-handler validation at
/// lookup — unrelated handler edits. Every proved verdict served from
/// disk is first re-validated by the independent certificate checker.
///
/// The audit mode (setAuditReuse, the CLI's --audit-footprints) re-proves
/// every verdict that was served without a fresh verification this call —
/// in-memory reuse and cache hits alike — in a fresh session and requires
/// status, reason, and certificate JSON to agree byte-for-byte. It turns
/// the footprint soundness argument into a dynamically checked claim.
///
//===----------------------------------------------------------------------===//

#ifndef REFLEX_VERIFY_INCREMENTAL_H
#define REFLEX_VERIFY_INCREMENTAL_H

#include "verify/footprint.h"
#include "verify/verifier.h"

#include <map>
#include <memory>
#include <string>
#include <vector>

namespace reflex {

class ProofCache;
struct SchedulerOptions;

class IncrementalVerifier {
public:
  /// \p Cache, when non-null, must outlive the verifier; it persists
  /// verdicts across processes (keyed by declaration fingerprint +
  /// property text + options, validated per handler at lookup — see
  /// service/proofcache.h).
  explicit IncrementalVerifier(const VerifyOptions &Opts = {},
                               ProofCache *Cache = nullptr);
  ~IncrementalVerifier();

  /// Routes every (re)verification through the parallel scheduler
  /// (service/scheduler.h) instead of a private sequential session: the
  /// properties needing verification after an edit are submitted as one
  /// verifyPropertySubset batch, so they share a single frozen
  /// abstraction — when \p S carries a SchedulerOptions::Share, the one
  /// the session owner kept warm from previous calls. \p S.Verify and
  /// \p S.Cache are overwritten with this verifier's options and cache
  /// (the determinism contract keys verdicts on them). Verdicts are
  /// byte-identical to the sequential path for any worker count.
  void setScheduler(const SchedulerOptions &S);

  /// Audit mode: after serving, re-prove every reused verdict from
  /// scratch and record mismatches in Outcome (Audited / AuditFailures /
  /// AuditErrors). Expensive by design — it exists to *check* the
  /// incremental machinery, not to be fast.
  void setAuditReuse(bool On) { AuditReuse = On; }

  /// Footprint reuse granularity (default: path-granular). Off reproduces
  /// the handler-level rule — any rendered-summary change to a footprint
  /// key re-verifies — and exists for baseline measurement
  /// (bench_incremental's edit_one_branch gate).
  void setPathGranularity(bool On) {
    Granularity = On ? FootprintGranularity::Path : FootprintGranularity::Handler;
  }

  struct Outcome {
    VerificationReport Report;
    /// Results served from the previous version's verdicts (in-memory).
    unsigned Reused = 0;
    /// Of the Reused, how many survived a handler edit *this call* via
    /// footprint disjointness (zero when the code did not change).
    unsigned FootprintReused = 0;
    /// Properties verified in this call (including those answered by the
    /// persistent cache).
    unsigned Reverified = 0;
    /// Of the Reverified, how many were served by the persistent proof
    /// cache (proved ones re-validated by the checker).
    unsigned CacheHits = 0;
    /// Audit mode only: verdicts re-proved from scratch, and how many of
    /// those disagreed with what was served (always zero unless the
    /// incremental machinery is broken).
    unsigned Audited = 0;
    unsigned AuditFailures = 0;
    std::vector<std::string> AuditErrors;
  };

  /// Verifies \p P, reusing verdicts from the previous call where sound.
  Outcome verify(const Program &P);

  /// Primes the verdict store as if verify(\p P) had just returned
  /// \p Verdicts (keyed by property text, live certificates already
  /// stripped). Used by daemon crash recovery to rebuild a session's
  /// warm state from the journal — after each verdict has been
  /// re-validated by the certificate checker; this verifier trusts its
  /// caller exactly as far as it trusts its own previous call.
  void seedVerdicts(const Program &P,
                    std::map<std::string, PropertyResult> Verdicts);

private:
  VerifyOptions Opts;
  ProofCache *Cache;
  /// When set, verification runs as scheduler batches (see setScheduler).
  std::unique_ptr<SchedulerOptions> Sched;
  bool AuditReuse = false;
  FootprintGranularity Granularity = FootprintGranularity::Path;
  bool HaveLast = false;
  ProgramFingerprints LastFp;
  /// Rendered path fingerprints of the program LastFp describes, computed
  /// from its built abstraction whenever the program changes. The "old"
  /// side of every path-granular reuse decision; empty when the last
  /// build ran out of budget (reuse then conservatively falls back).
  PathFingerprints LastPathFp;
  /// Property text -> last verdict (live certificate stripped; the
  /// certificate JSON is retained). Each verdict carries its footprint,
  /// which is what decides survival across handler edits.
  std::map<std::string, PropertyResult> Verdicts;
};

/// The code fingerprint: the printed program with the property section
/// removed. Two programs with equal fingerprints have identical kernels.
/// (The incremental verifier itself uses the finer ProgramFingerprints;
/// this whole-kernel digest remains for callers that only need "did any
/// code change at all".)
std::string codeFingerprint(const Program &P);

} // namespace reflex

#endif // REFLEX_VERIFY_INCREMENTAL_H
