//===- verify/prover.cc - Automatic trace-property proofs -------*- C++ -*-===//

#include "verify/prover.h"

#include <algorithm>
#include <cassert>
#include <sstream>

namespace reflex {

bool summaryMayEmit(const Program &P, const HandlerSummary &S,
                    const ActionPattern &Pat) {
  switch (Pat.Kind) {
  case ActionPattern::Recv:
    return S.CompType == Pat.Comp.TypeName && S.MsgName == Pat.Msg.MsgName;
  case ActionPattern::Send: {
    if (S.IsDefault)
      return false;
    const Handler *H = P.findHandler(S.CompType, S.MsgName);
    assert(H && "summary without handler");
    return cmdSendsMessage(*H->Body, Pat.Msg.MsgName);
  }
  case ActionPattern::Spawn: {
    if (S.IsDefault)
      return false;
    const Handler *H = P.findHandler(S.CompType, S.MsgName);
    assert(H && "summary without handler");
    return cmdSpawnsType(*H->Body, Pat.Comp.TypeName);
  }
  }
  return true;
}

/// Can the body of \p S assign any of \p Vars?
bool summaryMayAssign(const Program &P, const HandlerSummary &S,
                      const std::set<std::string> &Vars) {
  if (S.IsDefault || Vars.empty())
    return false;
  const Handler *H = P.findHandler(S.CompType, S.MsgName);
  assert(H && "summary without handler");
  std::set<std::string> Assigned;
  collectAssignedVars(*H->Body, Assigned);
  for (const std::string &V : Vars)
    if (Assigned.count(V))
      return true;
  return false;
}

namespace {

std::string whereOf(const HandlerSummary &S) {
  return S.CompType + "=>" + S.MsgName;
}

class Engine {
public:
  Engine(TermContext &Ctx, Solver &Solv, const Program &P, const BehAbs &Abs,
         const TraceProperty &TP, const ProverOptions &Opts,
         InvariantCache &Cache, Certificate &Cert)
      : Ctx(Ctx), Solv(Solv), P(P), Abs(Abs), TP(TP), Opts(Opts),
        Cache(Cache), Cert(Cert) {
    collectPatVarTypes(P, TP.A, VarTypes);
    collectPatVarTypes(P, TP.B, VarTypes);
    FPFrames.emplace_back(); // the property-level footprint frame
  }

  bool run(std::string &WhyOut) {
    // Base case: the init trace.
    for (size_t I = 0; I < Abs.Init.Paths.size(); ++I)
      if (!processPath("init", static_cast<int>(I), Abs.Init.Paths[I],
                       /*IsInit=*/true))
        return fail(WhyOut);

    // Inductive cases: one per (component type, message type). A skipped
    // case records no step; the checker decides the skip for itself.
    for (const HandlerSummary &S : Abs.Handlers) {
      if (Opts.SyntacticSkip && !summaryMayEmit(P, S, TP.trigger()))
        continue;
      // Symbolically processed: this case's outcome reads the handler's
      // summary, so the handler joins the footprint — path-granularly:
      // the obligation scan observes every path's *emits* (to decide
      // entered/not-entered) but reads a path's condition, updates, and
      // facts only where some emit structurally matched the trigger.
      // (Skipped summaries are deliberately absent — the skip decision
      // factors through the interface fingerprint, see
      // verify/footprint.h.)
      TopEnteredSet = &TopEntered[whereOf(S)];
      for (size_t I = 0; I < S.Paths.size(); ++I)
        if (!processPath(whereOf(S), static_cast<int>(I), S.Paths[I],
                         /*IsInit=*/false)) {
          TopEnteredSet = nullptr;
          return fail(WhyOut);
        }
      TopEnteredSet = nullptr;
    }
    return true;
  }

  /// The property-level footprint: every handler consulted by run(),
  /// including inside failed invariant attempts and transitively through
  /// adopted cache entries. Valid after run() returns (either way — an
  /// Unknown's footprint covers the consulted prefix, which is all a
  /// re-run would consult again). Handlers walked by an invariant
  /// induction (directly or through an adopted cache entry) are AllPaths;
  /// handlers only scanned by the property's own obligation pass carry
  /// the entered path-id set.
  void exportFootprint(ProofFootprint &FP) {
    FP.Collected = FPComplete;
    FP.AllHandlers = false;
    FP.Handlers.clear();
    for (const std::string &Key : FPFrames.front())
      FP.Handlers[Key].AllPaths = true;
    for (const auto &[Key, Entered] : TopEntered) {
      HandlerFootprint &HF = FP.Handlers[Key];
      if (HF.AllPaths)
        continue; // an invariant induction already claimed every path
      HF.Entered.insert(Entered.begin(), Entered.end());
    }
  }

private:
  bool fail(std::string &WhyOut) {
    WhyOut = Why;
    return false;
  }

  /// Budget poll at a loop head. Expiry fails the current obligation with
  /// a deterministic reason; most detections actually happen inside the
  /// solver (which answers Maybe once expired), this is a backstop for
  /// paths that take no queries.
  bool budgetExpired() {
    if (Opts.Budget && Opts.Budget->expired()) {
      Why = "verification budget exhausted";
      return true;
    }
    return false;
  }

  /// Checks every potential trigger occurrence on one path. The path
  /// condition is asserted once for the whole obligation family; each
  /// trigger occurrence adds its match condition in a nested scope, so
  /// the solver re-derives only the emission-specific consequences.
  bool processPath(const std::string &Where, int PathIdx, const SymPath &Path,
                   bool IsInit) {
    if (budgetExpired())
      return false;
    const ActionPattern &Trigger = TP.trigger();
    Solver::Scope PathScope(Solv, Path.Cond);
    for (size_t K = 0; K < Path.Emits.size(); ++K) {
      SymBinding Sigma;
      auto MC = matchSymAction(Ctx, Path.Emits[K], Trigger, Sigma);
      if (!MC)
        continue;
      // A structural trigger match makes the path *entered*: from here on
      // the proof reads the path's condition and content, not just its
      // emits. Recorded before the feasibility query on purpose — the
      // query's answer already depends on Path.Cond.
      if (TopEnteredSet)
        TopEnteredSet->insert(Path.PathId);
      if (!Solv.maybeSatUnder(*MC))
        continue; // trigger occurrence cannot arise on this path
      // synthesizeGuard and preStateGuard still want the flat literal
      // vector; the solver itself works from the asserted stack.
      std::vector<Lit> Assume = Path.Cond;
      Assume.insert(Assume.end(), MC->begin(), MC->end());
      Solver::Scope EmitScope(Solv, *MC);
      if (!discharge(Where, PathIdx, Path, K, Assume, Sigma, IsInit))
        return false;
    }
    return true;
  }

  /// Attempts to match emission \p J against \p Pat under the (fixed)
  /// binding \p Sigma; returns the match condition if structurally
  /// possible.
  std::optional<std::vector<Lit>> matchUnder(const SymAction &A,
                                             const ActionPattern &Pat,
                                             const SymBinding &Sigma) {
    SymBinding B = Sigma;
    return matchSymAction(Ctx, A, Pat, B);
  }

  bool discharge(const std::string &Where, int PathIdx, const SymPath &Path,
                 size_t K, const std::vector<Lit> &Assume,
                 const SymBinding &Sigma, bool IsInit) {
    ProofStep Step;
    Step.Where = Where;
    Step.PathIndex = PathIdx;
    Step.EmitIndex = static_cast<int>(K);
    Step.Binding = Sigma;
    const ActionPattern &Obl = TP.obligation();

    switch (TP.Op) {
    case TraceOp::ImmBefore: {
      // The action immediately before the trigger must match A.
      if (K == 0)
        return obligationFailed(Step, "trigger is the first trace action; "
                                      "nothing precedes it");
      auto MC = matchUnder(Path.Emits[K - 1], Obl, Sigma);
      if (MC && Solv.entailsAllUnder(*MC)) {
        Step.Kind = Justify::LocalObligation;
        Step.LocalIndex = static_cast<int>(K - 1);
        Cert.Steps.push_back(std::move(Step));
        return true;
      }
      return obligationFailed(Step, "immediately-preceding action does not "
                                    "provably match " +
                                        Obl.str());
    }

    case TraceOp::ImmAfter: {
      if (K + 1 >= Path.Emits.size())
        return obligationFailed(
            Step, "trigger is the handler's last action; the next trace "
                  "action is a future Select, which cannot match " +
                      Obl.str());
      auto MC = matchUnder(Path.Emits[K + 1], Obl, Sigma);
      if (MC && Solv.entailsAllUnder(*MC)) {
        Step.Kind = Justify::LocalObligation;
        Step.LocalIndex = static_cast<int>(K + 1);
        Cert.Steps.push_back(std::move(Step));
        return true;
      }
      return obligationFailed(Step, "immediately-following action does not "
                                    "provably match " +
                                        Obl.str());
    }

    case TraceOp::Ensures: {
      for (size_t J = K + 1; J < Path.Emits.size(); ++J) {
        auto MC = matchUnder(Path.Emits[J], Obl, Sigma);
        if (MC && Solv.entailsAllUnder(*MC)) {
          Step.Kind = Justify::LocalObligation;
          Step.LocalIndex = static_cast<int>(J);
          Cert.Steps.push_back(std::move(Step));
          return true;
        }
      }
      return obligationFailed(Step,
                              "no later action in the same handler provably "
                              "matches " +
                                  Obl.str() +
                                  " (the automation only discharges Ensures "
                                  "within one exchange)");
    }

    case TraceOp::Enables: {
      // (1) Local: an earlier emission in the same path.
      for (size_t J = 0; J < K; ++J) {
        auto MC = matchUnder(Path.Emits[J], Obl, Sigma);
        if (MC && Solv.entailsAllUnder(*MC)) {
          Step.Kind = Justify::LocalObligation;
          Step.LocalIndex = static_cast<int>(J);
          Cert.Steps.push_back(std::move(Step));
          return true;
        }
      }
      // (2) Component origin: a component found by lookup was spawned at
      // some strictly earlier point, and that Spawn is a trace action.
      if (Obl.Kind == ActionPattern::Spawn) {
        for (size_t F = 0; F < Path.FoundComps.size(); ++F) {
          SymAction Pseudo;
          Pseudo.Kind = SymAction::Spawn;
          Pseudo.Comp = Path.FoundComps[F];
          auto MC = matchUnder(Pseudo, Obl, Sigma);
          if (MC && Solv.entailsAllUnder(*MC)) {
            Step.Kind = Justify::CompOrigin;
            Step.LocalIndex = static_cast<int>(F);
            Cert.Steps.push_back(std::move(Step));
            return true;
          }
        }
      }
      if (IsInit)
        return obligationFailed(Step, "no earlier init action provably "
                                      "matches " +
                                          Obl.str());
      // (3) Guard invariant: the branch conditions force the history.
      GuardInvariant Inv = synthesizeGuard(Ctx, Assume, Sigma, Obl, VarTypes,
                                           /*Forbids=*/false);
      if (std::optional<int> Id = proveInvariantWithFallback(Inv)) {
        Step.Kind = Justify::InvariantHistory;
        Step.InvariantId = *Id;
        Cert.Steps.push_back(std::move(Step));
        return true;
      }
      return obligationFailed(Step,
                              "could not establish history invariant: " +
                                  guardStr(Inv) + " => exists " + Obl.str());
    }

    case TraceOp::Disables: {
      // (1) No earlier emission in the same path may match.
      for (size_t J = 0; J < K; ++J) {
        auto MC = matchUnder(Path.Emits[J], Obl, Sigma);
        if (!MC)
          continue;
        if (Solv.maybeSatUnder(*MC))
          return obligationFailed(
              Step, "an earlier action in the same handler may match the "
                    "disabling pattern " +
                        Obl.str());
      }
      if (IsInit) {
        Step.Kind = Justify::NoPriorLocal;
        Cert.Steps.push_back(std::move(Step));
        return true;
      }
      // (2) Failed-lookup fact: a prior Spawn matching A would have left a
      // matching component alive, contradicting the lookup failure.
      if (Obl.Kind == ActionPattern::Spawn &&
          noCompFactCovers(Path, Sigma, Obl)) {
        Step.Kind = Justify::NoCompHistory;
        Cert.Steps.push_back(std::move(Step));
        return true;
      }
      // (3) Guard invariant: the branch conditions refute the history.
      GuardInvariant Inv = synthesizeGuard(Ctx, Assume, Sigma, Obl, VarTypes,
                                           /*Forbids=*/true);
      if (std::optional<int> Id = proveInvariantWithFallback(Inv)) {
        Step.Kind = Justify::InvariantHistory;
        Step.InvariantId = *Id;
        Cert.Steps.push_back(std::move(Step));
        return true;
      }
      return obligationFailed(Step,
                              "could not establish exclusion invariant: " +
                                  guardStr(Inv) + " => never " + Obl.str());
    }
    }
    return false;
  }

  /// Does some failed-lookup fact on \p Path refute any prior spawn
  /// matching \p Obl under \p Sigma? True when every constraint of the
  /// fact is provably forced by the pattern: any component matching the
  /// pattern would satisfy the failed lookup's predicate, so it cannot
  /// exist — hence it was never spawned (components are immortal and
  /// configs immutable). Queries run under the asserted obligation stack.
  bool noCompFactCovers(const SymPath &Path, const SymBinding &Sigma,
                        const ActionPattern &Obl) {
    for (const NoCompFact &Fact : Path.NoComp) {
      if (Fact.TypeName != Obl.Comp.TypeName)
        continue;
      bool Covered = true;
      for (const auto &[Index, Required] : Fact.Constraints) {
        const CompFieldPattern *FP = nullptr;
        for (const CompFieldPattern &F : Obl.Comp.Fields)
          if (F.FieldIndex == Index)
            FP = &F;
        if (!FP) {
          Covered = false;
          break;
        }
        TermRef PatSide = nullptr;
        switch (FP->Pat.Kind) {
        case PatTerm::Lit:
          PatSide = Ctx.lit(FP->Pat.LitVal);
          break;
        case PatTerm::Var: {
          auto It = Sigma.find(FP->Pat.VarName);
          if (It != Sigma.end())
            PatSide = It->second;
          break;
        }
        case PatTerm::Wild:
          break;
        }
        if (!PatSide ||
            !Solv.entailsUnder(Lit(Ctx.eq(PatSide, Required), true))) {
          Covered = false;
          break;
        }
      }
      if (Covered)
        return true;
    }
    return false;
  }

  std::string guardStr(const GuardInvariant &Inv) {
    std::ostringstream OS;
    OS << "{";
    for (size_t I = 0; I < Inv.Guard.size(); ++I) {
      if (I != 0)
        OS << " && ";
      OS << (Inv.Guard[I].Pos ? "" : "!") << Ctx.str(Inv.Guard[I].Atom);
    }
    OS << "}";
    return OS.str();
  }

  bool obligationFailed(const ProofStep &Step, const std::string &Detail) {
    std::ostringstream OS;
    OS << "unproved obligation at " << Step.Where << " path "
       << Step.PathIndex << " emit " << Step.EmitIndex << ": " << Detail;
    Why = OS.str();
    return false;
  }

  //===--------------------------------------------------------------------===
  // The second induction: proving guard invariants
  //===--------------------------------------------------------------------===

  /// Tries the fully synthesized guard first, then each single-literal
  /// weakening. The full guard carries the most information (needed when
  /// several conditions jointly pin the history, like the SSH
  /// authentication pair), but it can also drag in literals that force an
  /// unnecessarily deep induction; a single preserved literal (e.g.
  /// "stage 0 done") is often the natural invariant.
  std::optional<int> proveInvariantWithFallback(const GuardInvariant &Inv) {
    if (std::optional<int> Id = proveInvariant(Inv))
      return Id;
    if (Inv.Guard.size() <= 1)
      return std::nullopt;
    for (const Lit &L : Inv.Guard) {
      GuardInvariant Single = Inv;
      Single.Guard = {L};
      if (std::optional<int> Id = proveInvariant(Single))
        return Id;
    }
    return std::nullopt;
  }

  std::optional<int> proveInvariant(const GuardInvariant &Inv,
                                    unsigned Depth = 0) {
    std::string Key = Inv.cacheKey(Ctx);

    // Already used by this certificate? Its footprint was recorded when
    // the attempt completed; fold it into the current frame so cached
    // sub-attempts still propagate their dependencies upward.
    auto LocalIt = LocalInvariants.find(Key);
    if (LocalIt != LocalInvariants.end()) {
      mergeLocalFootprint(Key);
      return LocalIt->second;
    }

    // Depth cap and cycle guard for nested strengthening (the paper's
    // automation performs one nested induction; we allow a little more).
    if (Depth > 3 || InFlight.count(Key))
      return std::nullopt;

    // Cross-property cache.
    if (Opts.CacheInvariants) {
      auto It = Cache.Map.find(Key);
      if (It != Cache.Map.end()) {
        ++Cache.Hits;
        // Transitive footprint: the adopted attempt consulted handlers
        // this proof never touched itself; they become this proof's
        // dependencies too (for failures as much as successes — an
        // adopted failure steers the search).
        auto FpIt = Cache.Footprints.find(Key);
        if (FpIt != Cache.Footprints.end()) {
          FPFrames.back().insert(FpIt->second.begin(), FpIt->second.end());
          LocalFootprints[Key] = FpIt->second;
        } else {
          FPComplete = false; // entry predates footprint recording
        }
        return adoptRecord(Key, It->second);
      }
      // Cross-worker tier. Entries are published guard-stripped (see
      // SharedInvariantCache); graft this candidate's own guard back in —
      // the key's rendering pins the guard, so equal keys mean equal
      // guards.
      if (Cache.Shared) {
        if (std::optional<SharedInvariantCache::Entry> SharedHit =
                Cache.Shared->lookup(Key)) {
          std::optional<InvariantRecord> Entry = std::move(SharedHit->Rec);
          if (Entry) {
            Entry->Guard = Inv.Guard;
            Entry->Action = Inv.Action;
            Entry->VarTypes = Inv.VarTypes;
          }
          ++Cache.Hits;
          Cache.Map.emplace(Key, Entry);
          Cache.Footprints.emplace(Key, SharedHit->Footprint);
          FPFrames.back().insert(SharedHit->Footprint.begin(),
                                 SharedHit->Footprint.end());
          LocalFootprints[Key] = std::move(SharedHit->Footprint);
          return adoptRecord(Key, Entry);
        }
      }
    }

    InvariantRecord Rec;
    Rec.Forbids = Inv.Forbids;
    Rec.Guard = Inv.Guard;
    Rec.Action = Inv.Action;
    Rec.VarTypes = Inv.VarTypes;
    // The attempt is transactional: a failed proof may have adopted
    // sub-invariants into the certificate along the way; roll those back
    // so certificates only record what the final proof uses (and so the
    // checker's cold-cache re-derivation numbers records identically).
    // The attempt's *footprint* is not rolled back: consulted is
    // consulted, and a re-run would consult the same handlers again.
    size_t CertSnapshot = Cert.Invariants.size();
    InFlight.insert(Key);
    FPFrames.emplace_back();
    bool Ok = proveInvariantSteps(Inv, Rec, Depth);
    std::set<std::string> Mine = std::move(FPFrames.back());
    FPFrames.pop_back();
    FPFrames.back().insert(Mine.begin(), Mine.end());
    LocalFootprints[Key] = Mine;
    InFlight.erase(Key);
    if (!Ok && Cert.Invariants.size() > CertSnapshot) {
      Cert.Invariants.resize(CertSnapshot);
      for (auto It = LocalInvariants.begin(); It != LocalInvariants.end();) {
        if (It->second && *It->second > static_cast<int>(CertSnapshot))
          It = LocalInvariants.erase(It);
        else
          ++It;
      }
    }
    std::optional<InvariantRecord> Entry =
        Ok ? std::optional<InvariantRecord>(Rec) : std::nullopt;
    // Records whose proof references nested sub-invariants carry ids
    // local to *this* certificate; caching them across certificates would
    // dangle. Only self-contained records (and failures) are shared.
    bool SelfContained = true;
    for (const ProofStep &S : Rec.Steps)
      SelfContained &= S.InvariantId < 0;
    if (Opts.CacheInvariants && (!Ok || SelfContained)) {
      Cache.Map.emplace(Key, Entry);
      Cache.Footprints.emplace(Key, Mine);
      // Cross-worker tier. Three extra gates beyond the private cache:
      //  * never publish under an expired budget — a budget-starved
      //    failure is this worker's accident, not a fact about the
      //    program, and adopting it elsewhere would break determinism;
      //  * successful records must bind only frozen-base terms, or their
      //    TermRefs would dangle once this worker's overlay dies;
      //  * guards are stripped (adopters graft their own; the key pins
      //    the guard's meaning);
      //  * failures are published only from top-level attempts — a
      //    depth-capped nested failure must not shadow another worker's
      //    full-strength attempt.
      if (Cache.Shared && (Ok || Depth == 0) &&
          !(Opts.Budget && Opts.Budget->expiredNow())) {
        bool BasePure = true;
        if (Ok)
          for (const ProofStep &S : Rec.Steps)
            for (const auto &[Var, T] : S.Binding)
              BasePure &= Ctx.inFrozenBase(T);
        if (BasePure) {
          std::optional<InvariantRecord> Pub = Entry;
          if (Pub)
            Pub->Guard.clear();
          Cache.Shared->publish(Key, Pub, Mine);
        }
      }
    }
    return adoptRecord(Key, Entry);
  }

  /// The strengthened pre-state guard for a path that breaks invariant
  /// \p Inv: the path's own guard-safe branch conditions plus the
  /// invariant-guard literals this path does not disturb. Proving the
  /// invariant with *this* guard at the pre-state either re-establishes
  /// the history fact or shows the combination unreachable (e.g. "stage 1
  /// done but stage 0 not started" is vacuously impossible).
  std::vector<Lit> preStateGuard(const SymPath &Path,
                                 const GuardInvariant &Inv) {
    std::unordered_map<TermRef, TermRef> Subst;
    for (const auto &[Var, Term] : Path.Updates) {
      const StateVarDecl *V = P.findStateVar(Var);
      assert(V && Term);
      Subst.emplace(Ctx.stateSym(Var, V->Type), Term);
    }
    std::vector<Lit> Out;
    for (const Lit &L : Path.Cond)
      if (isGuardTerm(L.Atom) && L.Atom->Kind != TermKind::BoolLit)
        Out.push_back(L);
    for (const Lit &G : Inv.Guard)
      if (Ctx.substitute(G.Atom, Subst) == G.Atom)
        Out.push_back(G);
    // Order by *render*, not term Id: hash-consed Ids record first
    // allocation, so an edit elsewhere in the program can reorder Ids of
    // terms this proof shares with the edited code — which would reorder
    // the guard and break byte-identical footprint reuse. Renders are a
    // function of the terms alone.
    sortLitsByRender(Ctx, Out);
    Out.erase(std::unique(Out.begin(), Out.end()), Out.end());
    return Out;
  }

  /// Copies a (possibly cached) record into this certificate under a fresh
  /// local id. Records failures as nullopt so repeated attempts are free.
  std::optional<int> adoptRecord(const std::string &Key,
                                 const std::optional<InvariantRecord> &Rec) {
    if (!Rec) {
      LocalInvariants.emplace(Key, std::nullopt);
      return std::nullopt;
    }
    InvariantRecord Copy = *Rec;
    Copy.Id = static_cast<int>(Cert.Invariants.size()) + 1;
    Cert.Invariants.push_back(std::move(Copy));
    int Id = Cert.Invariants.back().Id;
    LocalInvariants.emplace(Key, Id);
    return Id;
  }

  bool proveInvariantSteps(const GuardInvariant &Inv, InvariantRecord &Rec,
                           unsigned Depth) {
    if (Opts.Budget && Opts.Budget->expired())
      return false;
    // Invariant proving is re-entrant (discharge calls it while an
    // obligation's scopes are open, and it recurses through nested
    // strengthening); rewind to the base context so each path below
    // asserts exactly its own hypothesis.
    Solver::Suspended Clean(Solv);
    SymBinding PatB = patSymBinding(Ctx, Inv);
    std::set<std::string> GuardVars;
    collectGuardVars(Inv.Guard, Ctx, GuardVars);

    // Base case: init.
    for (size_t I = 0; I < Abs.Init.Paths.size(); ++I) {
      const SymPath &Path = Abs.Init.Paths[I];
      Solver::Scope PathScope(
          Solv, assumeWithGuard(Path, Inv, /*IsInit=*/true));
      ProofStep Step;
      Step.Where = "init";
      Step.PathIndex = static_cast<int>(I);
      if (Solv.check() == SatResult::Unsat) {
        Step.Kind = Justify::PathInfeasible;
        Rec.Steps.push_back(std::move(Step));
        continue;
      }
      if (Inv.Forbids) {
        if (!refuteAllEmissions(Path, PatB, Inv.Action))
          return false;
        Step.Kind = Justify::NoPriorLocal;
        Rec.Steps.push_back(std::move(Step));
        continue;
      }
      bool Found = false;
      for (size_t J = 0; J < Path.Emits.size() && !Found; ++J) {
        SymBinding B = PatB;
        auto MC = matchSymAction(Ctx, Path.Emits[J], Inv.Action, B);
        if (MC && Solv.entailsAllUnder(*MC)) {
          Step.Kind = Justify::LocalObligation;
          Step.LocalIndex = static_cast<int>(J);
          Found = true;
        }
      }
      if (!Found)
        return false;
      Rec.Steps.push_back(std::move(Step));
    }

    // Inductive step: every exchange preserves the invariant.
    for (const HandlerSummary &S : Abs.Handlers) {
      if (Opts.SyntacticSkip && !summaryMayEmit(P, S, Inv.Action) &&
          !summaryMayAssign(P, S, GuardVars))
        continue;
      noteHandler(whereOf(S));
      for (size_t I = 0; I < S.Paths.size(); ++I) {
        const SymPath &Path = S.Paths[I];
        Solver::Scope PathScope(
            Solv, assumeWithGuard(Path, Inv, /*IsInit=*/false));
        ProofStep Step;
        Step.Where = whereOf(S);
        Step.PathIndex = static_cast<int>(I);
        if (Solv.check() == SatResult::Unsat) {
          Step.Kind = Justify::PathInfeasible;
          Rec.Steps.push_back(std::move(Step));
          continue;
        }
        if (Inv.Forbids) {
          // No emission of this path may match, and the prefix trace must
          // be clean: either the guard already held (inductive
          // hypothesis), or the path's own pre-state branch conditions
          // re-establish the exclusion through a deeper induction.
          if (!refuteAllEmissions(Path, PatB, Inv.Action))
            return false;
          if (Solv.entailsAllUnder(Inv.Guard)) {
            Step.Kind = Justify::GuardPreserved;
            Rec.Steps.push_back(std::move(Step));
            continue;
          }
          GuardInvariant Sub;
          Sub.Forbids = true;
          Sub.Guard = preStateGuard(Path, Inv);
          Sub.Action = Inv.Action;
          Sub.VarTypes = Inv.VarTypes;
          if (std::optional<int> Id = proveInvariant(Sub, Depth + 1)) {
            Step.Kind = Justify::InvariantHistory;
            Step.InvariantId = *Id;
            Rec.Steps.push_back(std::move(Step));
            continue;
          }
          return false;
        }
        // Require-history: either this path emits the action, or the guard
        // already held (inductive hypothesis).
        bool Done = false;
        for (size_t J = 0; J < Path.Emits.size() && !Done; ++J) {
          SymBinding B = PatB;
          auto MC = matchSymAction(Ctx, Path.Emits[J], Inv.Action, B);
          if (MC && Solv.entailsAllUnder(*MC)) {
            Step.Kind = Justify::LocalObligation;
            Step.LocalIndex = static_cast<int>(J);
            Done = true;
          }
        }
        if (!Done && Solv.entailsAllUnder(Inv.Guard)) {
          Step.Kind = Justify::GuardPreserved;
          Done = true;
        }
        if (!Done) {
          // Strengthen: the pre-state's branch conditions may imply the
          // history fact on their own.
          GuardInvariant Sub;
          Sub.Forbids = false;
          Sub.Guard = preStateGuard(Path, Inv);
          Sub.Action = Inv.Action;
          Sub.VarTypes = Inv.VarTypes;
          if (std::optional<int> Id = proveInvariant(Sub, Depth + 1)) {
            Step.Kind = Justify::InvariantHistory;
            Step.InvariantId = *Id;
            Done = true;
          }
        }
        if (!Done)
          return false;
        Rec.Steps.push_back(std::move(Step));
      }
    }
    return true;
  }

  /// Path condition plus the guard evaluated over the path's *post* state
  /// (for init paths, Updates carries every state variable's final term,
  /// so the same substitution covers the base case).
  std::vector<Lit> assumeWithGuard(const SymPath &Path,
                                   const GuardInvariant &Inv,
                                   bool /*IsInit*/) {
    std::unordered_map<TermRef, TermRef> Subst;
    for (const auto &[Var, Term] : Path.Updates) {
      const StateVarDecl *V = P.findStateVar(Var);
      assert(V && Term);
      Subst.emplace(Ctx.stateSym(Var, V->Type), Term);
    }
    std::vector<Lit> Assume = Path.Cond;
    for (const Lit &G : Inv.Guard)
      Assume.emplace_back(Ctx.substitute(G.Atom, Subst), G.Pos);
    return Assume;
  }

  /// For Forbids invariants: no emission of \p Path may match the action
  /// under the asserted path hypothesis.
  bool refuteAllEmissions(const SymPath &Path, const SymBinding &PatB,
                          const ActionPattern &Act) {
    for (const SymAction &E : Path.Emits) {
      SymBinding B = PatB;
      auto MC = matchSymAction(Ctx, E, Act, B);
      if (!MC)
        continue;
      if (Solv.maybeSatUnder(*MC))
        return false;
    }
    return true;
  }

  /// Footprint recording (verify/footprint.h): the current frame is the
  /// innermost in-flight proof (the property itself, or a nested
  /// invariant attempt). Frames merge into their parent on pop, so every
  /// consulted handler ultimately reaches the property-level frame.
  void noteHandler(const std::string &Where) { FPFrames.back().insert(Where); }

  void mergeLocalFootprint(const std::string &Key) {
    auto It = LocalFootprints.find(Key);
    if (It != LocalFootprints.end())
      FPFrames.back().insert(It->second.begin(), It->second.end());
  }

  TermContext &Ctx;
  Solver &Solv;
  const Program &P;
  const BehAbs &Abs;
  const TraceProperty &TP;
  ProverOptions Opts;
  InvariantCache &Cache;
  Certificate &Cert;
  std::string Why;
  std::map<std::string, BaseType> VarTypes;
  std::map<std::string, std::optional<int>> LocalInvariants;
  std::set<std::string> InFlight;
  /// Footprint frame stack: [0] is the property-level frame; one frame is
  /// pushed per in-flight invariant attempt. Frame entries carry AllPaths
  /// semantics (invariant inductions walk every path of a processed
  /// handler); the top-level obligation scan records path-granular entry
  /// in TopEntered instead.
  std::vector<std::set<std::string>> FPFrames;
  /// Handler key -> path ids the top-level obligation scan entered. A key
  /// with an empty set was processed (emits observed) but no path's emits
  /// structurally matched the trigger.
  std::map<std::string, std::set<std::string>> TopEntered;
  /// Points into TopEntered for the summary run() is currently scanning;
  /// null during init paths and invariant inductions.
  std::set<std::string> *TopEnteredSet = nullptr;
  /// Key -> footprint of the completed attempt (or adopted entry), for
  /// LocalInvariants hits.
  std::map<std::string, std::set<std::string>> LocalFootprints;
  /// Cleared when an adopted private-cache entry carries no footprint
  /// (cannot happen for entries recorded by this engine; defensive).
  bool FPComplete = true;
};

} // namespace

TraceProofOutcome proveTraceProperty(TermContext &Ctx, Solver &Solv,
                                     const Program &P, const BehAbs &Abs,
                                     const Property &Prop,
                                     const ProverOptions &Opts,
                                     InvariantCache &Cache) {
  assert(Prop.isTrace() && "not a trace property");
  TraceProofOutcome Out;
  Out.Cert.ProgramName = P.Name;
  Out.Cert.PropertyName = Prop.Name;
  Out.Cert.Kind = traceOpName(Prop.traceProp().Op);

  if (Abs.incomplete()) {
    Out.Reason = "behavioral abstraction incomplete (symbolic execution "
                 "limits exceeded)";
    // Which handler blew the limits is a function of every handler body;
    // only an all-handlers footprint is sound for this outcome.
    if (Opts.Footprint) {
      Opts.Footprint->Collected = true;
      Opts.Footprint->AllHandlers = true;
    }
    return Out;
  }

  Engine E(Ctx, Solv, P, Abs, Prop.traceProp(), Opts, Cache, Out.Cert);
  Out.Proved = E.run(Out.Reason);
  if (Opts.Footprint)
    E.exportFootprint(*Opts.Footprint);
  return Out;
}

} // namespace reflex
