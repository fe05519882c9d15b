//===- verify/prover.h - Automatic trace-property proofs --------*- C++ -*-===//
//
// Part of the Reflex/C++ reproduction of "Automating Formal Proofs for
// Reactive Systems" (PLDI 2014).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The pushbutton prover for trace properties, implementing the tactic
/// strategy of §5.1 as a symbolic verifier:
///
///  1. Induct over BehAbs: a base case for init and one case per
///     (component type, message type) exchange.
///  2. In each case, consider every path through the handler (loop-free,
///     so finitely many) and every emission that can match the property's
///     *trigger* pattern.
///  3. Discharge the obligation locally (an adjacent/earlier/later
///     emission in the same path), or through the component-set axioms
///     (lookup successes witness prior spawns; lookup failures refute
///     them), or by synthesizing a guard invariant from the branch
///     conditions and proving it with a second induction over BehAbs.
///
/// The prover is deliberately incomplete (paper §5.3): it returns Proved
/// with a certificate, or Unknown with the failing obligation — never a
/// claim of falsity (refutation is the bounded model checker's job).
///
//===----------------------------------------------------------------------===//

#ifndef REFLEX_VERIFY_PROVER_H
#define REFLEX_VERIFY_PROVER_H

#include "ast/program.h"
#include "support/deadline.h"
#include "sym/solver.h"
#include "verify/behabs.h"
#include "verify/certificate.h"
#include "verify/footprint.h"
#include "verify/invariant.h"

#include <optional>

namespace reflex {

/// Prover options mirror the §6.4 optimizations so the ablation bench can
/// toggle them:
///  * SyntacticSkip — skip symbolic evaluation of handlers that a cheap
///    syntactic check shows cannot affect the obligation (a skipped
///    handler records no step; the checker decides the skip again);
///  * CacheInvariants — reuse auxiliary-invariant proofs across
///    obligations and properties ("saving subproofs at key cut points").
/// (The third optimization, domain-specific term reduction, is toggled on
/// the TermContext.)
struct ProverOptions {
  bool SyntacticSkip = true;
  bool CacheInvariants = true;
  /// Optional cooperative budget, polled at path-enumeration loop heads
  /// (the solver polls it independently via Solver::setDeadline). Owned
  /// by the caller; null means unlimited. Deliberately not part of any
  /// fingerprint: polling never alters a completed derivation.
  Deadline *Budget = nullptr;
  /// Optional out-param: the proof footprint (verify/footprint.h) — every
  /// handler summary the search symbolically processed, transitively
  /// through adopted invariant-cache entries. Recording never takes a
  /// decision, so collection cannot change a derivation; like Budget it
  /// is not part of any fingerprint.
  ProofFootprint *Footprint = nullptr;
};

/// The §6.4 syntactic skip, shared by the induction prover and PDR so
/// `--engine` changes which proof is found, never which obligations
/// exist. Can the body of \p S possibly emit an action matching \p Pat?
/// Conservative: "true" means "maybe".
bool summaryMayEmit(const Program &P, const HandlerSummary &S,
                    const ActionPattern &Pat);

/// Can the body of \p S assign any of \p Vars? (An invariant step skips
/// a handler that neither emits its action nor assigns its guard.)
bool summaryMayAssign(const Program &P, const HandlerSummary &S,
                      const std::set<std::string> &Vars);

/// A cross-worker tier for the invariant-proof cache (§6.4, "saving
/// subproofs at key cut points" — shared between the workers of the
/// verification service rather than within one session). Keys are the
/// rendered GuardInvariant::cacheKey strings, which are context-
/// independent; values follow InvariantCache semantics (nullopt = the
/// attempt failed).
///
/// Published records are guard-stripped: guard literals usually reference
/// overlay-allocated eq-nodes that die with the publishing worker's
/// session, while a record's Steps bind only frozen-base terms (enforced
/// at publish time). The adopting worker grafts its own candidate's guard
/// back in — safe because the key renders the guard, so equal keys mean
/// semantically identical guards.
class SharedInvariantCache {
public:
  /// One published attempt: the record (nullopt = the attempt failed) and
  /// the handler footprint its proof consulted, carried so adopters can
  /// fold the entry's dependencies into their own footprint.
  struct Entry {
    std::optional<InvariantRecord> Rec;
    std::set<std::string> Footprint;
  };

  std::optional<Entry> lookup(const std::string &Key) const {
    const Bucket &B = shard(Key);
    std::shared_lock<std::shared_mutex> Lock(B.Mu);
    auto It = B.Map.find(Key);
    if (It == B.Map.end())
      return std::nullopt;
    return It->second;
  }

  void publish(const std::string &Key,
               const std::optional<InvariantRecord> &Rec,
               const std::set<std::string> &Footprint) {
    Bucket &B = shard(Key);
    std::unique_lock<std::shared_mutex> Lock(B.Mu);
    B.Map.emplace(Key, Entry{Rec, Footprint});
  }

private:
  struct Bucket {
    mutable std::shared_mutex Mu;
    std::map<std::string, Entry> Map;
  };
  static constexpr size_t NumShards = 8;
  size_t shardIndex(const std::string &Key) const {
    return std::hash<std::string>()(Key) % NumShards;
  }
  Bucket &shard(const std::string &Key) { return Shards[shardIndex(Key)]; }
  const Bucket &shard(const std::string &Key) const {
    return Shards[shardIndex(Key)];
  }
  std::array<Bucket, NumShards> Shards;
};

/// Cross-property cache of invariant proofs. Entries are std::nullopt for
/// invariants that were attempted and failed. When Shared is set (the
/// parallel service, over a frozen abstraction), misses consult the
/// cross-worker tier and shareable outcomes are published to it.
struct InvariantCache {
  std::map<std::string, std::optional<InvariantRecord>> Map;
  /// Parallel to Map: the handler footprint each attempt consulted
  /// (successes *and* failures — an adopted failure steers the search, so
  /// its dependencies propagate to the adopting proof's footprint).
  std::map<std::string, std::set<std::string>> Footprints;
  SharedInvariantCache *Shared = nullptr;
  uint64_t Hits = 0;
};

/// Outcome of a trace-property proof attempt.
struct TraceProofOutcome {
  bool Proved = false;
  Certificate Cert;
  /// On failure: the obligation the automation could not discharge.
  std::string Reason;
};

/// Attempts to prove \p Prop (which must be a trace property) for the
/// program abstracted by \p Abs. Deterministic: identical inputs yield an
/// identical certificate, which is what the certificate checker exploits.
TraceProofOutcome proveTraceProperty(TermContext &Ctx, Solver &Solv,
                                     const Program &P, const BehAbs &Abs,
                                     const Property &Prop,
                                     const ProverOptions &Opts,
                                     InvariantCache &Cache);

} // namespace reflex

#endif // REFLEX_VERIFY_PROVER_H
