//===- sym/solver.h - Incremental entailment engine -------------*- C++ -*-===//
//
// Part of the Reflex/C++ reproduction of "Automating Formal Proofs for
// Reactive Systems" (PLDI 2014).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The constraint engine behind the prover — the C++ analog of the
/// rewriting/contradiction-finding that the paper's Ltac tactics perform on
/// branch conditions ("adding branch conditions to the context is
/// essential here, as it prunes unfeasible paths", §5.1). It decides
/// conjunctions of literals over the term language:
///
///  * congruence closure over equalities (with component-field projection:
///    merging two component terms merges their config fields),
///  * distinctness from literals and from the component identity algebra,
///  * light integer bound propagation for `<`/`<=` and constant folding of
///    `+`/`-`.
///
/// The engine is *sound for Unsat*: a query returns Unsat only when the
/// literal set is genuinely contradictory; Maybe means "could not refute".
/// Entailment (entails) asks whether assumptions plus the negated goal are
/// Unsat, so a Maybe never lets a false obligation through — it produces
/// an Unknown verdict in the prover, mirroring the paper's explicitly
/// incomplete automation (§5.3).
///
/// Since PR 8 the solver is *incremental in the CaDiCaL
/// solve-under-assumptions style* (docs/SOLVER.md): callers push scopes,
/// assert the shared prefix of an obligation family once, and answer each
/// goal with a scoped check. The congruence closure lives across queries
/// behind an undo trail (union-by-rank, no path compression, every
/// mutation journaled and reversed on pop), merges propagate through a
/// pending queue with watched-term signature indexing instead of a
/// fixpoint re-scan, and every Unsat can record a reason trail — the
/// merge/value steps that closed the contradiction — which the checker
/// replays independently (replayReasonTrail) and exports into the
/// certificate's solver log. A from-scratch reference solver
/// (setIncrementalEnabled(false)) is retained for differential testing.
///
//===----------------------------------------------------------------------===//

#ifndef REFLEX_SYM_SOLVER_H
#define REFLEX_SYM_SOLVER_H

#include "support/deadline.h"
#include "sym/term.h"

#include <array>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <string>
#include <unordered_map>
#include <vector>

namespace reflex {

enum class SatResult : uint8_t { Unsat, Maybe };

//===----------------------------------------------------------------------===//
// Reason trails
//===----------------------------------------------------------------------===//

/// One step of a solver reason trail. A trail justifies an Unsat answer as
/// a sequence of class merges and value derivations ending in a conflict,
/// in the spirit of DRAT/LRAT solver proof logging: the solver that found
/// the contradiction is untrusted, and a small independent replayer
/// (replayReasonTrail) re-checks every step against the query's literal
/// set before the certificate is accepted.
struct TrailStep {
  enum Kind : uint8_t {
    // Class merges (A ~ B), each with its premise.
    MergeInput, ///< justified by input literal From (Eq, or bool atom)
    MergeCongr, ///< A, B identical operators over pairwise-equal classes
    MergeProj,  ///< A = CA->Ops[Idx], B = CB->Ops[Idx] for merged comps
    // Value derivations for the class of A.
    ValueLit,   ///< A's class contains the numeric literal Val
    ValueFold,  ///< A is Add/Sub over classes valued per earlier steps
    // Terminal conflicts.
    ConfMergeLits,   ///< preceding merge joined distinct literals A, B
    ConfMergeComps,  ///< preceding merge joined incompatible comps A, B
    ConfBoolLit,     ///< From asserts a bool literal with wrong polarity
    ConfDiseq,       ///< From is a diseq whose sides share a class
    ConfDiseqVal,    ///< From is a diseq whose sides have equal values
    ConfOrderSelf,   ///< From is a strict order with both sides one class
    ConfOrderGround, ///< From is an order violated by derived values
    ConfBounds,      ///< From (lower) and From2 (upper) cross on a class
    ConfBoundLit,    ///< From bounds a class whose literal Val violates it
    ConfArith,       ///< A folds to Val but its class is valued otherwise
  };

  Kind K;
  Lit From{};           ///< input-literal premise (Atom null when unused)
  Lit From2{};          ///< second premise (ConfBounds)
  TermRef A = nullptr;  ///< merged lhs / valued term / conflict witness
  TermRef B = nullptr;  ///< merged rhs / second conflict witness
  TermRef CA = nullptr; ///< projection: the two comp terms
  TermRef CB = nullptr;
  int Idx = -1;         ///< projection field index
  int64_t Val = 0;      ///< derived value
};

/// A recorded Unsat: the exact literal set of the query plus the trail
/// that refutes it.
struct ReasonTrail {
  std::vector<Lit> Query;
  std::vector<TrailStep> Steps;
};

/// Independently re-validates \p T: replays every merge and value step
/// against T.Query through a minimal union-find (separate from the solver
/// core) and confirms the terminal conflict. Returns false with \p WhyOut
/// set when any premise or the conflict fails to check. This is the
/// checker-side trust anchor for incremental Unsat answers.
bool replayReasonTrail(const TermContext &Ctx, const ReasonTrail &T,
                       std::string &WhyOut);

/// Renders \p T as one deterministic, human-auditable line for the
/// certificate solver log.
std::string formatReasonTrail(const TermContext &Ctx, const ReasonTrail &T);

//===----------------------------------------------------------------------===//
// Shared memo tier
//===----------------------------------------------------------------------===//

/// A cross-worker tier for the solver memo, sharded to keep lock traffic
/// off the hot path. Workers verifying properties of the same frozen
/// abstraction publish solved queries here and consult it after a private
/// memo miss. Only queries whose atoms all live in the frozen base context
/// are eligible (their ids — and hence the memo key — mean the same thing
/// in every worker's overlay); overlay-local queries stay private.
/// Assumption-scoped results are additionally excluded: only scope-0
/// checkLits results are published or looked up here (the scoped fast
/// path's latched conflicts and stack bookkeeping are worker-local).
///
/// Sharing is semantically transparent: a hit returns exactly the result
/// solve() would have computed, because the solver is deterministic over a
/// fixed term context and expired-budget queries answer Maybe *before*
/// reaching the memo (so tainted results are never published).
class SharedSolverMemo {
public:
  std::optional<SatResult> lookup(uint64_t Key) const {
    const Bucket &B = shard(Key);
    std::shared_lock<std::shared_mutex> Lock(B.Mu);
    auto It = B.Map.find(Key);
    if (It == B.Map.end())
      return std::nullopt;
    return It->second;
  }

  void publish(uint64_t Key, SatResult R) {
    Bucket &B = shard(Key);
    std::unique_lock<std::shared_mutex> Lock(B.Mu);
    B.Map.emplace(Key, R);
  }

  /// Total published entries (test hook for the scope-0-only publication
  /// contract).
  size_t size() const {
    size_t N = 0;
    for (const Bucket &B : Shards) {
      std::shared_lock<std::shared_mutex> Lock(B.Mu);
      N += B.Map.size();
    }
    return N;
  }

private:
  struct Bucket {
    mutable std::shared_mutex Mu;
    std::unordered_map<uint64_t, SatResult> Map;
  };
  static constexpr size_t NumShards = 16;
  Bucket &shard(uint64_t Key) { return Shards[(Key >> 4) % NumShards]; }
  const Bucket &shard(uint64_t Key) const {
    return Shards[(Key >> 4) % NumShards];
  }
  std::array<Bucket, NumShards> Shards;
};

//===----------------------------------------------------------------------===//
// Solver
//===----------------------------------------------------------------------===//

/// Work counters. QueriesSolved is the classic proxy (memo-miss solves);
/// the rest expose where the incremental core actually spends and saves
/// work, surfaced through the verification report, scheduler stats, the
/// daemon `stats` verb, and `--json`.
struct SolverStats {
  uint64_t QueriesSolved = 0;    ///< memo-miss solves (scratch or scoped)
  uint64_t MemoHits = 0;         ///< private memo hits
  uint64_t SharedMemoHits = 0;   ///< cross-worker memo hits
  uint64_t AssumptionChecks = 0; ///< scoped checks (stack + assumptions)
  uint64_t AssumptionHits = 0;   ///< scoped checks answered by the memo
  uint64_t Pushes = 0;           ///< scopes opened
  uint64_t TrailUndos = 0;       ///< undo-trail entries reversed by pop()
  uint64_t ReasonLogBytes = 0;   ///< bytes of recorded reason trails
};

class IncrementalCore;

/// Decision procedures plus a memo table. One Solver instance is shared
/// across a verification run; the memo is keyed by the sorted ids of the
/// full asserted literal set (stack scopes + assumptions), which is valid
/// because terms are hash-consed in a single context — a scoped check and
/// a from-scratch checkLits over the same set share one memo entry, so
/// incrementality is semantically invisible.
class Solver {
public:
  explicit Solver(TermContext &Ctx);
  ~Solver();

  /// Enables/disables the query memo. The memo is part of the "saving
  /// subproofs at key cut points" optimization (§6.4) and is switched off
  /// together with the invariant-proof cache in the ablation bench.
  void setMemoEnabled(bool On) { MemoEnabled = On; }

  /// Attaches (or detaches, with nullptr) a cross-worker memo tier. Only
  /// meaningful when Ctx is an overlay over a frozen base shared with the
  /// other workers; scope-0 queries over base-only atoms are looked
  /// up/published there. No effect while the private memo is disabled.
  void setSharedMemo(SharedSolverMemo *M) { Shared = M; }

  /// Installs (or clears, with nullptr) a cooperative budget token.
  /// Every query polls it exactly once; once expired, queries answer
  /// Maybe — "could not refute" — without solving and without touching
  /// the memo (an expiry-Maybe must not poison results for later
  /// properties that share this solver). Maybe is always sound here, so
  /// an expired solver can only make the prover fail, never certify a
  /// false proof.
  void setDeadline(Deadline *D) { Budget = D; }

  /// Selects the persistent incremental core (default) or the
  /// from-scratch reference solver for every query. The reference path
  /// re-solves the full literal set per check and records no reason
  /// trails; it exists so differential tests and the bench can pin the
  /// incremental core against the original algorithm.
  void setIncrementalEnabled(bool On);

  /// Enables reason-trail recording: every Unsat solved by the
  /// incremental core records the merge/value steps that closed the
  /// contradiction, retrievable via reasonTrails(). Off by default (the
  /// checker turns it on; the bench measures its overhead).
  void setLogEnabled(bool On);

  //===--------------------------------------------------------------------===
  // Scoped assertion stack
  //===--------------------------------------------------------------------===

  /// Opens an assertion scope. Every assume() until the matching pop()
  /// belongs to it; pop() rewinds the congruence closure through the undo
  /// trail to the state at push().
  void push();
  void pop();
  size_t scopeDepth() const;

  /// Asserts \p L in the current scope. Contradictions latch: once the
  /// stack is inconsistent every check answers Unsat until the offending
  /// scope pops. Must not be called at scope depth 0 (the base context of
  /// a verification run stays empty so checkLits keeps its meaning).
  void assume(Lit L);
  void assume(const std::vector<Lit> &Ls);

  /// Is the asserted stack plus \p Assumptions contradictory? One budget
  /// poll, memoized on the full literal set.
  SatResult checkAssuming(const std::vector<Lit> &Assumptions);

  /// Is the asserted stack itself contradictory?
  SatResult check() { return checkAssuming({}); }

  /// Does the asserted stack entail \p Goal? (Sound: true only when
  /// stack ∧ ¬Goal is provably Unsat.)
  bool entailsUnder(Lit Goal);

  /// Entailment of a conjunction of literals under the asserted stack.
  bool entailsAllUnder(const std::vector<Lit> &Goals);

  /// Satisfiability shorthand: true unless stack + \p Assumptions is
  /// provably Unsat.
  bool maybeSatUnder(const std::vector<Lit> &Assumptions) {
    return checkAssuming(Assumptions) == SatResult::Maybe;
  }

  /// RAII scope: push() on construction (optionally asserting a literal
  /// set) and pop() on destruction, so obligation loops with early
  /// returns stay balanced.
  class Scope {
  public:
    explicit Scope(Solver &S) : S(S) { S.push(); }
    Scope(Solver &S, const std::vector<Lit> &Ls) : S(S) {
      S.push();
      S.assume(Ls);
    }
    ~Scope() { S.pop(); }
    Scope(const Scope &) = delete;
    Scope &operator=(const Scope &) = delete;

  private:
    Solver &S;
  };

  /// Temporarily rewinds the assertion stack to depth 0 and restores it
  /// on destruction — the escape hatch for re-entrant proving (nested
  /// invariant synthesis) that must run in a clean base context.
  class Suspended {
  public:
    explicit Suspended(Solver &S);
    ~Suspended();
    Suspended(const Suspended &) = delete;
    Suspended &operator=(const Suspended &) = delete;

  private:
    Solver &S;
    std::vector<std::vector<Lit>> Saved;
  };

  //===--------------------------------------------------------------------===
  // Scope-0 queries (the original API)
  //===--------------------------------------------------------------------===

  /// Is the conjunction of \p Lits contradictory? Ignores the assertion
  /// stack (callers use it at depth 0; at depth > 0 it falls back to the
  /// reference solver so the answer still covers exactly \p Lits).
  SatResult checkLits(const std::vector<Lit> &Lits);

  /// Does the conjunction of \p Assume entail \p Goal? (Sound: true only
  /// when Assume ∧ ¬Goal is provably Unsat.)
  bool entails(const std::vector<Lit> &Assume, Lit Goal);

  /// Entailment of a conjunction of literals.
  bool entailsAll(const std::vector<Lit> &Assume,
                  const std::vector<Lit> &Goals);

  /// Satisfiability shorthand: true unless provably Unsat.
  bool maybeSat(const std::vector<Lit> &Lits) {
    return checkLits(Lits) == SatResult::Maybe;
  }

  //===--------------------------------------------------------------------===
  // Introspection
  //===--------------------------------------------------------------------===

  /// Number of evaluations that missed the memo (a work proxy for the
  /// ablation bench).
  uint64_t queriesSolved() const { return Stats.QueriesSolved; }

  const SolverStats &stats() const;

  /// Reason trails recorded while setLogEnabled(true), in solve order
  /// (one per distinct Unsat query).
  const std::vector<ReasonTrail> &reasonTrails() const { return Trails; }

private:
  friend class IncrementalCore;

  SatResult solveReference(const std::vector<Lit> &Lits);
  SatResult answer(const std::vector<Lit> &Assumptions, bool Scoped);
  uint64_t keyFor(const std::vector<Lit> &Assumptions, bool &BasePure,
                  std::vector<Lit> *FullOut) const;

  TermContext &Ctx;
  std::unique_ptr<IncrementalCore> Core;
  std::unordered_map<uint64_t, SatResult> Memo;
  bool MemoEnabled = true;
  bool Incremental = true;
  bool LogEnabled = false;
  SharedSolverMemo *Shared = nullptr;
  Deadline *Budget = nullptr;
  mutable SolverStats Stats;
  std::vector<ReasonTrail> Trails;

  // Wrapper-side mirror of the assertion stack: the flat asserted-literal
  // list, scope boundaries into it, and a multiset of asserted atoms for
  // the entails fast path and memo-key building. Kept in both modes so
  // the reference path and Suspended see the same stack.
  std::vector<Lit> StackLits;
  std::vector<size_t> ScopeMarks;
  std::unordered_map<uint64_t, uint32_t> StackCount;
};

} // namespace reflex

#endif // REFLEX_SYM_SOLVER_H
