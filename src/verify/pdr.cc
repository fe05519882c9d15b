//===- verify/pdr.cc - Property-directed reachability -----------*- C++ -*-===//

#include "verify/pdr.h"

#include <algorithm>
#include <cassert>
#include <sstream>

namespace reflex {

namespace {

std::string whereOf(const HandlerSummary &S) {
  return S.CompType + "=>" + S.MsgName;
}

/// True if \p T mentions only canonical state symbols and literals: the
/// fragment PDR frames speak. Stricter than isGuardTerm — pattern symbols
/// are trigger-bound, not state, so they cannot appear in a frame clause.
bool isStateTerm(TermRef T) {
  switch (T->Kind) {
  case TermKind::SymVar:
    return T->Tag == SymTag::State;
  case TermKind::Comp:
    return false;
  default:
    for (TermRef Op : T->Ops)
      if (!isStateTerm(Op))
        return false;
    return true;
  }
}

/// A conjunction of literals over the canonical state symbols, kept in a
/// canonical rendering order. Frames, bad cubes, and predecessor cubes are
/// all Cubes. Ordering by *rendered string* — never by TermNode::Id —
/// keeps every derived artifact independent of overlay allocation order,
/// which is what makes PDR certificates byte-identical across sessions,
/// worker counts, and cache states.
struct Cube {
  std::vector<Lit> Lits;
  std::vector<std::string> Strs; ///< rendered literals, sorted; parallel
  std::string Key;               ///< Strs joined — the frame-map key
};

class Pdr {
public:
  Pdr(TermContext &Ctx, Solver &Solv, const Program &P, const BehAbs &Abs,
      const TraceProperty &TP, const ProverOptions &Opts)
      : Ctx(Ctx), Solv(Solv), P(P), Abs(Abs), TP(TP), Opts(Opts) {
    for (const HandlerSummary &S : Abs.Handlers) {
      std::string W = whereOf(S);
      for (const SymPath &Path : S.Paths)
        Trans.push_back(Transition{&S, &Path, W});
    }
  }

  //===------------------------------------------------------------------===//
  // Phase 1: obligation scan (shared with the checker)
  //===------------------------------------------------------------------===//

  /// One obligation the local discharges could not close: its recorded
  /// step (Justify::FrameBlocked) and the pre-state cube whose
  /// unreachability closes it.
  struct FrameObl {
    size_t StepIndex = 0;
    Cube C;
  };

  std::vector<ProofStep> Steps;
  std::vector<FrameObl> FrameObls;

  /// Enumerates every proof obligation exactly like the induction engine
  /// (init paths, then handlers in declaration order, emissions in path
  /// order) and discharges each locally — same-path emissions, the
  /// component-origin axiom, failed-lookup facts. Obligations that would
  /// send the induction engine into invariant synthesis become
  /// FrameBlocked steps with a bad cube instead. Returns false (with
  /// \p Why) when an obligation admits no local discharge *and* no cube:
  /// init obligations (there is no pre-state to block) and obligations
  /// whose assumption set has no state-pure part.
  bool scanObligations(std::string &Why) {
    for (size_t I = 0; I < Abs.Init.Paths.size(); ++I)
      if (!scanPath("init", static_cast<int>(I), Abs.Init.Paths[I],
                    /*IsInit=*/true, Why))
        return false;
    for (const HandlerSummary &S : Abs.Handlers) {
      if (Opts.SyntacticSkip && !summaryMayEmit(P, S, TP.trigger()))
        continue;
      for (size_t I = 0; I < S.Paths.size(); ++I)
        if (!scanPath(whereOf(S), static_cast<int>(I), S.Paths[I],
                      /*IsInit=*/false, Why))
          return false;
    }
    return true;
  }

  //===------------------------------------------------------------------===//
  // Phase 2: frames (the prover side)
  //===------------------------------------------------------------------===//

  enum class BlockOutcome { Proved, Cex, GiveUp };

  /// Blocks every scanned bad cube at increasing levels until two adjacent
  /// frames coincide (Proved; the fixpoint frame's clauses are exported
  /// into \p Clauses) or a level-0 obligation intersects the initial
  /// states (Cex; \p CexDepth is the abstract counterexample's length and
  /// \p CexWhere the obligation it violates) or a cap/budget ends the
  /// attempt (GiveUp with \p Why).
  BlockOutcome runFrames(std::vector<std::vector<Lit>> &Clauses,
                         size_t &CexDepth, std::string &CexWhere,
                         std::string &Why) {
    Frames.assign(2, {});
    for (size_t K = 1; K <= MaxLevel; ++K) {
      if (Frames.size() <= K + 1)
        Frames.resize(K + 2);
      for (const FrameObl &B : FrameObls) {
        BlockOutcome O = blockCube(B.C, K, CexDepth, Why);
        if (O == BlockOutcome::Cex) {
          CexWhere = Steps[B.StepIndex].Where;
          return O;
        }
        if (O == BlockOutcome::GiveUp)
          return O;
      }
      int Fix = propagate();
      if (Fix >= 0) {
        for (const auto &[Key, C] : Frames[Fix]) {
          (void)Key;
          std::vector<Lit> Clause;
          Clause.reserve(C.Lits.size());
          for (const Lit &L : C.Lits)
            Clause.emplace_back(L.Atom, !L.Pos);
          Clauses.push_back(std::move(Clause));
        }
        return BlockOutcome::Proved;
      }
    }
    Why = "frame limit reached (" + std::to_string(MaxLevel) +
          ") without an inductive fixpoint";
    return BlockOutcome::GiveUp;
  }

  //===------------------------------------------------------------------===//
  // Phase 3: invariant validation (the checker side)
  //===------------------------------------------------------------------===//

  /// Validates a clausal invariant (given as clauses — disjunctions of
  /// literals over state symbols) against the transition relation: it must
  /// be initial, consecutive, and exclude every scanned bad cube. Each
  /// check is a solver obligation; the first failure is reported.
  bool validateInvariant(const std::vector<std::vector<Lit>> &ClauseLits,
                         std::string &Why) {
    std::vector<Cube> Blocked;
    Blocked.reserve(ClauseLits.size());
    for (const std::vector<Lit> &Clause : ClauseLits) {
      std::vector<Lit> CubeLits;
      CubeLits.reserve(Clause.size());
      for (const Lit &L : Clause)
        CubeLits.emplace_back(L.Atom, !L.Pos);
      Cube C = makeCubeExact(CubeLits);
      if (C.Lits.empty()) {
        Why = "invariant clause " + std::to_string(Blocked.size()) +
              " is empty or not over state symbols";
        return false;
      }
      Blocked.push_back(std::move(C));
    }
    std::vector<const Cube *> All;
    All.reserve(Blocked.size());
    for (const Cube &C : Blocked)
      All.push_back(&C);

    // Initial: no init path may end inside a blocked cube.
    for (size_t I = 0; I < Blocked.size(); ++I)
      if (initIntersects(Blocked[I])) {
        Why = "invariant clause " + std::to_string(I) +
              " does not hold after init";
        return false;
      }
    // Consecutive: no transition may leave the invariant region.
    for (size_t I = 0; I < Blocked.size(); ++I)
      for (const Transition &T : Trans) {
        std::vector<Lit> Conj = T.Path->Cond;
        appendPostImage(Conj, Blocked[I], *T.Path);
        if (clausesExclude(Conj, All))
          continue;
        Why = "invariant clause " + std::to_string(I) +
              " is not preserved by " + T.Where;
        return false;
      }
    // Property-implying: every frame-blocked obligation's cube excluded.
    for (const FrameObl &B : FrameObls)
      if (!clausesExclude(B.C.Lits, All)) {
        Why = "invariant does not exclude the obligation at " +
              Steps[B.StepIndex].Where;
        return false;
      }
    return true;
  }

private:
  struct Transition {
    const HandlerSummary *S;
    const SymPath *Path;
    std::string Where;
  };

  //===------------------------------------------------------------------===//
  // Cubes
  //===------------------------------------------------------------------===//

  std::string litStr(const Lit &L) const {
    return (L.Pos ? "" : "!") + Ctx.str(L.Atom);
  }

  /// Builds a cube from exactly \p Lits (no projection; rejects non-state
  /// literals by dropping them — callers that need exactness check sizes).
  Cube makeCubeExact(const std::vector<Lit> &Lits) {
    std::vector<Lit> Keep;
    for (const Lit &L : Lits)
      if (isStateTerm(L.Atom) && L.Atom->Kind != TermKind::BoolLit)
        Keep.push_back(L);
    return canonicalize(std::move(Keep));
  }

  /// The state-pure projection of an assumption set: the literals every
  /// concrete pre-state satisfying the assumptions must satisfy on its
  /// own. Over-approximates the pre-state region, so blocking the cube
  /// soundly blocks the obligation.
  Cube project(const std::vector<Lit> &Assume) {
    return makeCubeExact(Assume);
  }

  Cube canonicalize(std::vector<Lit> Lits) {
    Cube C;
    std::vector<std::pair<std::string, Lit>> Tagged;
    Tagged.reserve(Lits.size());
    for (const Lit &L : Lits)
      Tagged.emplace_back(litStr(L), L);
    std::sort(Tagged.begin(), Tagged.end(),
              [](const auto &A, const auto &B) { return A.first < B.first; });
    for (const auto &[S, L] : Tagged) {
      if (!C.Strs.empty() && C.Strs.back() == S)
        continue;
      C.Strs.push_back(S);
      C.Lits.push_back(L);
      if (C.Key.size() > 1)
        C.Key += " & ";
      C.Key += S;
    }
    return C;
  }

  /// Appends the post-image of \p C through \p Path: each literal with the
  /// canonical state symbols replaced by the path's update terms.
  void appendPostImage(std::vector<Lit> &Out, const Cube &C,
                       const SymPath &Path) {
    std::unordered_map<TermRef, TermRef> Subst;
    for (const auto &[Var, Term] : Path.Updates) {
      const StateVarDecl *V = P.findStateVar(Var);
      assert(V && Term);
      Subst.emplace(Ctx.stateSym(Var, V->Type), Term);
    }
    for (const Lit &L : C.Lits)
      Out.emplace_back(Ctx.substitute(L.Atom, Subst), L.Pos);
  }

  /// Does some init path end inside \p C?
  bool initIntersects(const Cube &C) {
    for (const SymPath &Q : Abs.Init.Paths) {
      std::vector<Lit> Conj = Q.Cond;
      appendPostImage(Conj, C, Q);
      if (Solv.maybeSat(Conj))
        return true;
    }
    return false;
  }

  //===------------------------------------------------------------------===//
  // Frame clauses in queries
  //===------------------------------------------------------------------===//

  /// The solver handles conjunctions of literals only, so frame clauses
  /// (disjunctions) enter by case split: a query is excluded by the
  /// clause set iff every branch — one negated cube literal per clause —
  /// is Unsat. A branch budget bounds the split; overflow answers "not
  /// excluded", which only ever costs completeness, never soundness.
  bool clausesExclude(const std::vector<Lit> &Conj,
                      const std::vector<const Cube *> &Clauses) {
    // The transition conjunction is asserted once; the branch descent
    // below pushes one negated clause literal per scope, so the solver
    // keeps the shared prefix's congruence closure across all branches
    // of the case split instead of re-solving it from scratch.
    Solver::Scope Root(Solv, Conj);
    size_t Budget = MaxClauseBranches;
    return branchExcludes(Clauses, 0, Budget);
  }

  bool branchExcludes(const std::vector<const Cube *> &Clauses, size_t Idx,
                      size_t &Budget) {
    if (Solv.check() == SatResult::Unsat)
      return true;
    if (Idx == Clauses.size())
      return false;
    // Clause = ¬(cube) = disjunction of the cube literals' negations.
    for (const Lit &L : Clauses[Idx]->Lits) {
      if (Budget == 0)
        return false;
      --Budget;
      Solver::Scope Branch(Solv);
      Solv.assume(Lit(L.Atom, !L.Pos));
      if (!branchExcludes(Clauses, Idx + 1, Budget))
        return false;
    }
    return true;
  }

  std::vector<const Cube *> frameClauses(size_t J) const {
    std::vector<const Cube *> Out;
    Out.reserve(Frames[J].size());
    for (const auto &[Key, C] : Frames[J]) {
      (void)Key;
      Out.push_back(&C);
    }
    return Out;
  }

  /// Is \p C unreachable in one step from frame \p J (no transition, from
  /// a state satisfying F_J's clauses, lands in C)? On failure \p Failed
  /// names the first offending transition, in declaration order.
  bool consecutionBlocked(const Cube &C, size_t J, const Transition *&Failed) {
    std::vector<const Cube *> Clauses = frameClauses(J);
    for (const Transition &T : Trans) {
      std::vector<Lit> Conj = T.Path->Cond;
      appendPostImage(Conj, C, *T.Path);
      if (clausesExclude(Conj, Clauses))
        continue;
      Failed = &T;
      return false;
    }
    return true;
  }

  //===------------------------------------------------------------------===//
  // Blocking
  //===------------------------------------------------------------------===//

  /// Is \p C already subsumed by a clause of frame \p Level (a blocked
  /// cube that is a subset of C blocks every state of C)?
  bool subsumedAt(const Cube &C, size_t Level) const {
    for (const auto &[Key, D] : Frames[Level]) {
      (void)Key;
      if (D.Strs.size() <= C.Strs.size() &&
          std::includes(C.Strs.begin(), C.Strs.end(), D.Strs.begin(),
                        D.Strs.end()))
        return true;
    }
    return false;
  }

  void addBlocked(const Cube &C, size_t Level) {
    for (size_t J = 0; J <= Level && J < Frames.size(); ++J)
      Frames[J].emplace(C.Key, C);
  }

  /// Inductive generalization: drop literals (in canonical order) while
  /// the smaller cube remains excluded from init and, for Level >= 1,
  /// unreachable from frame Level-1. Smaller cubes are stronger clauses
  /// and make frames converge.
  Cube generalize(Cube C, size_t Level) {
    for (size_t I = 0; I < C.Lits.size() && C.Lits.size() > 1;) {
      std::vector<Lit> Smaller;
      for (size_t J = 0; J < C.Lits.size(); ++J)
        if (J != I)
          Smaller.push_back(C.Lits[J]);
      Cube Cand = canonicalize(std::move(Smaller));
      bool Ok = !initIntersects(Cand);
      if (Ok && Level >= 1) {
        const Transition *F = nullptr;
        Ok = consecutionBlocked(Cand, Level - 1, F);
      }
      if (Ok)
        C = std::move(Cand);
      else
        ++I;
    }
    return C;
  }

  struct Obl {
    Cube C;
    size_t Level;
  };

  BlockOutcome blockCube(const Cube &Bad, size_t Level, size_t &CexDepth,
                         std::string &Why) {
    std::vector<Obl> Stack;
    Stack.push_back(Obl{Bad, Level});
    while (!Stack.empty()) {
      if (Opts.Budget && Opts.Budget->expired()) {
        Why = "verification budget exhausted";
        return BlockOutcome::GiveUp;
      }
      if (++ObligationsSpent > MaxObligations) {
        Why = "proof-obligation limit reached (" +
              std::to_string(MaxObligations) + ")";
        return BlockOutcome::GiveUp;
      }
      Obl &O = Stack.back();
      if (subsumedAt(O.C, O.Level)) {
        Stack.pop_back();
        continue;
      }
      if (O.Level == 0) {
        if (initIntersects(O.C)) {
          CexDepth = Stack.size();
          return BlockOutcome::Cex;
        }
        addBlocked(generalize(O.C, 0), 0);
        Stack.pop_back();
        continue;
      }
      const Transition *Failed = nullptr;
      if (consecutionBlocked(O.C, O.Level - 1, Failed)) {
        addBlocked(generalize(O.C, O.Level), O.Level);
        Stack.pop_back();
        continue;
      }
      // Counterexample to induction: over-approximate the predecessor of
      // O.C through the offending transition and block it one level down.
      std::vector<Lit> PredLits = Failed->Path->Cond;
      appendPostImage(PredLits, O.C, *Failed->Path);
      Cube Pred = project(PredLits);
      if (Pred.Lits.empty()) {
        Why = "predecessor of an obligation cube through " + Failed->Where +
              " has no state-pure constraints to block";
        return BlockOutcome::GiveUp;
      }
      size_t NextLevel = O.Level - 1;
      Stack.push_back(Obl{std::move(Pred), NextLevel});
    }
    return BlockOutcome::Proved;
  }

  /// Pushes clauses forward (a clause unreachable-in-one-step from frame J
  /// also holds at J+1) and reports the first level whose clause set
  /// equals the next level's: that frame is inductive.
  int propagate() {
    for (size_t J = 0; J + 1 < Frames.size(); ++J) {
      std::vector<std::pair<std::string, const Cube *>> Pending;
      for (const auto &[Key, C] : Frames[J])
        if (!Frames[J + 1].count(Key))
          Pending.emplace_back(Key, &C);
      for (const auto &[Key, C] : Pending) {
        const Transition *F = nullptr;
        if (consecutionBlocked(*C, J, F))
          Frames[J + 1].emplace(Key, *C);
      }
      if (J >= 1 && !Frames[J].empty() &&
          Frames[J].size() == Frames[J + 1].size())
        return static_cast<int>(J);
    }
    return -1;
  }

  //===------------------------------------------------------------------===//
  // Obligation scan internals (mirrors verify/prover.cc's discharge)
  //===------------------------------------------------------------------===//

  std::optional<std::vector<Lit>> matchUnder(const SymAction &A,
                                             const ActionPattern &Pat,
                                             const SymBinding &Sigma) {
    SymBinding B = Sigma;
    return matchSymAction(Ctx, A, Pat, B);
  }

  bool scanPath(const std::string &Where, int PathIdx, const SymPath &Path,
                bool IsInit, std::string &Why) {
    if (Opts.Budget && Opts.Budget->expired()) {
      Why = "verification budget exhausted";
      return false;
    }
    const ActionPattern &Trigger = TP.trigger();
    Solver::Scope PathScope(Solv, Path.Cond);
    for (size_t K = 0; K < Path.Emits.size(); ++K) {
      SymBinding Sigma;
      auto MC = matchSymAction(Ctx, Path.Emits[K], Trigger, Sigma);
      if (!MC)
        continue;
      if (!Solv.maybeSatUnder(*MC))
        continue;
      // frameObligation still projects the flat pre-state literal set;
      // the solver works from the asserted stack.
      std::vector<Lit> Assume = Path.Cond;
      Assume.insert(Assume.end(), MC->begin(), MC->end());
      Solver::Scope EmitScope(Solv, *MC);
      if (!dischargeLocal(Where, PathIdx, Path, K, Assume, Sigma, IsInit,
                          Why))
        return false;
    }
    return true;
  }

  bool frameObligation(ProofStep Step, const std::vector<Lit> &Assume,
                       bool IsInit, const std::string &Detail,
                       std::string &Why) {
    if (IsInit)
      return obligationFailed(Step, Detail, Why);
    Cube C = project(Assume);
    if (C.Lits.empty())
      return obligationFailed(
          Step,
          Detail + "; and the pre-state has no state-pure constraints "
                   "for reachability blocking",
          Why);
    Step.Kind = Justify::FrameBlocked;
    Steps.push_back(std::move(Step));
    FrameObls.push_back(FrameObl{Steps.size() - 1, std::move(C)});
    return true;
  }

  bool dischargeLocal(const std::string &Where, int PathIdx,
                      const SymPath &Path, size_t K,
                      const std::vector<Lit> &Assume, const SymBinding &Sigma,
                      bool IsInit, std::string &Why) {
    ProofStep Step;
    Step.Where = Where;
    Step.PathIndex = PathIdx;
    Step.EmitIndex = static_cast<int>(K);
    Step.Binding = Sigma;
    const ActionPattern &Obl = TP.obligation();

    switch (TP.Op) {
    case TraceOp::ImmBefore: {
      if (K > 0) {
        auto MC = matchUnder(Path.Emits[K - 1], Obl, Sigma);
        if (MC && Solv.entailsAllUnder(*MC)) {
          Step.Kind = Justify::LocalObligation;
          Step.LocalIndex = static_cast<int>(K - 1);
          Steps.push_back(std::move(Step));
          return true;
        }
      }
      return frameObligation(std::move(Step), Assume, IsInit,
                             "immediately-preceding action does not "
                             "provably match " +
                                 Obl.str(),
                             Why);
    }

    case TraceOp::ImmAfter: {
      if (K + 1 < Path.Emits.size()) {
        auto MC = matchUnder(Path.Emits[K + 1], Obl, Sigma);
        if (MC && Solv.entailsAllUnder(*MC)) {
          Step.Kind = Justify::LocalObligation;
          Step.LocalIndex = static_cast<int>(K + 1);
          Steps.push_back(std::move(Step));
          return true;
        }
      }
      return frameObligation(std::move(Step), Assume, IsInit,
                             "immediately-following action does not "
                             "provably match " +
                                 Obl.str(),
                             Why);
    }

    case TraceOp::Ensures: {
      for (size_t J = K + 1; J < Path.Emits.size(); ++J) {
        auto MC = matchUnder(Path.Emits[J], Obl, Sigma);
        if (MC && Solv.entailsAllUnder(*MC)) {
          Step.Kind = Justify::LocalObligation;
          Step.LocalIndex = static_cast<int>(J);
          Steps.push_back(std::move(Step));
          return true;
        }
      }
      return frameObligation(std::move(Step), Assume, IsInit,
                             "no later action in the same handler provably "
                             "matches " +
                                 Obl.str(),
                             Why);
    }

    case TraceOp::Enables: {
      for (size_t J = 0; J < K; ++J) {
        auto MC = matchUnder(Path.Emits[J], Obl, Sigma);
        if (MC && Solv.entailsAllUnder(*MC)) {
          Step.Kind = Justify::LocalObligation;
          Step.LocalIndex = static_cast<int>(J);
          Steps.push_back(std::move(Step));
          return true;
        }
      }
      if (Obl.Kind == ActionPattern::Spawn) {
        for (size_t F = 0; F < Path.FoundComps.size(); ++F) {
          SymAction Pseudo;
          Pseudo.Kind = SymAction::Spawn;
          Pseudo.Comp = Path.FoundComps[F];
          auto MC = matchUnder(Pseudo, Obl, Sigma);
          if (MC && Solv.entailsAllUnder(*MC)) {
            Step.Kind = Justify::CompOrigin;
            Step.LocalIndex = static_cast<int>(F);
            Steps.push_back(std::move(Step));
            return true;
          }
        }
      }
      return frameObligation(std::move(Step), Assume, IsInit,
                             "no earlier action provably matches " +
                                 Obl.str(),
                             Why);
    }

    case TraceOp::Disables: {
      for (size_t J = 0; J < K; ++J) {
        auto MC = matchUnder(Path.Emits[J], Obl, Sigma);
        if (!MC)
          continue;
        if (Solv.maybeSatUnder(*MC))
          return frameObligation(
              std::move(Step), Assume, IsInit,
              "an earlier action in the same handler may match the "
              "disabling pattern " +
                  Obl.str(),
              Why);
      }
      if (IsInit) {
        Step.Kind = Justify::NoPriorLocal;
        Steps.push_back(std::move(Step));
        return true;
      }
      if (Obl.Kind == ActionPattern::Spawn &&
          noCompFactCovers(Path, Sigma, Obl)) {
        Step.Kind = Justify::NoCompHistory;
        Steps.push_back(std::move(Step));
        return true;
      }
      return frameObligation(std::move(Step), Assume, IsInit,
                             "no local fact refutes a prior " + Obl.str(),
                             Why);
    }
    }
    return false;
  }

  /// Mirror of the induction prover's failed-lookup axiom.
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

  bool obligationFailed(const ProofStep &Step, const std::string &Detail,
                        std::string &Why) {
    std::ostringstream OS;
    OS << "unproved obligation at " << Step.Where << " path "
       << Step.PathIndex << " emit " << Step.EmitIndex << ": " << Detail;
    Why = OS.str();
    return false;
  }

  TermContext &Ctx;
  Solver &Solv;
  const Program &P;
  const BehAbs &Abs;
  const TraceProperty &TP;
  const ProverOptions &Opts;

  std::vector<Transition> Trans;
  /// Frames[i]: clauses (as the cubes they block) known to hold at every
  /// state reachable in at most i exchanges; Frames[i] ⊇ Frames[i+1].
  /// std::map keyed by the cube's canonical rendering — deterministic
  /// iteration, allocation-order-independent.
  std::vector<std::map<std::string, Cube>> Frames;
  size_t ObligationsSpent = 0;

  static constexpr size_t MaxLevel = 24;
  static constexpr size_t MaxObligations = 4096;
  static constexpr size_t MaxClauseBranches = 4096;
};

/// Are two proof-step sequences structurally identical? (The PDR analogue
/// of the checker's stepsEqual; kept local to avoid exporting it.)
bool pdrStepsEqual(const std::vector<ProofStep> &A,
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

} // namespace

PdrOutcome provePdrProperty(TermContext &Ctx, Solver &Solv, const Program &P,
                            const BehAbs &Abs, const Property &Prop,
                            const ProverOptions &Opts) {
  assert(Prop.isTrace() && "not a trace property");
  PdrOutcome Out;
  Out.Cert.ProgramName = P.Name;
  Out.Cert.PropertyName = Prop.Name;
  Out.Cert.Kind = traceOpName(Prop.traceProp().Op);
  Out.Cert.Engine = "pdr";

  // PDR's transition relation reads every handler summary, so its verdicts
  // always depend on every handler (like NI and BMC).
  if (Opts.Footprint) {
    Opts.Footprint->Collected = true;
    Opts.Footprint->AllHandlers = true;
  }

  if (Abs.incomplete()) {
    Out.Reason = "behavioral abstraction incomplete (symbolic execution "
                 "limits exceeded)";
    return Out;
  }

  Pdr Engine(Ctx, Solv, P, Abs, Prop.traceProp(), Opts);
  if (!Engine.scanObligations(Out.Reason))
    return Out;
  Out.Cert.Steps = Engine.Steps;

  if (Engine.FrameObls.empty()) {
    // Every obligation closed locally; the empty clause set (invariant
    // "true") is trivially initial and consecutive.
    Out.Proved = true;
    return Out;
  }

  size_t CexDepth = 0;
  std::string CexWhere;
  std::vector<std::vector<Lit>> Clauses;
  switch (Engine.runFrames(Clauses, CexDepth, CexWhere, Out.Reason)) {
  case Pdr::BlockOutcome::Proved:
    Out.Cert.InvClauses = std::move(Clauses);
    Out.Proved = true;
    return Out;
  case Pdr::BlockOutcome::GiveUp:
    return Out;
  case Pdr::BlockOutcome::Cex:
    break;
  }

  // An abstract counterexample: a chain of cubes from the initial states
  // into a bad obligation's pre-state. The abstraction over-approximates
  // (state-pure projections drop payload constraints), so the chain is
  // only believed after the concrete bounded model checker reproduces a
  // violating trace at the corresponding depth.
  BmcOptions BOpts;
  BOpts.MaxDepth = CexDepth + 1;
  BmcResult B = bmcSearch(P, Prop, BOpts);
  if (B.Violated) {
    Out.Refuted = true;
    Out.Reason = B.Explanation;
    Out.Counterexample = std::move(B.Counterexample);
    return Out;
  }
  Out.Reason = "abstract counterexample of length " +
               std::to_string(CexDepth) + " into the obligation at " +
               CexWhere +
               " was not confirmed by bounded concrete search (the "
               "reachability abstraction over-approximates)";
  return Out;
}

bool checkPdrInvariant(TermContext &Ctx, Solver &Solv, const Program &P,
                       const BehAbs &Abs, const Property &Prop,
                       const Certificate &Cert, const ProverOptions &Opts,
                       std::string &Why) {
  if (!Prop.isTrace()) {
    Why = "PDR certificates cover trace properties only";
    return false;
  }
  if (Abs.incomplete()) {
    Why = "behavioral abstraction incomplete";
    return false;
  }
  Pdr Engine(Ctx, Solv, P, Abs, Prop.traceProp(), Opts);
  if (!Engine.scanObligations(Why)) {
    Why = "obligation re-enumeration failed: " + Why;
    return false;
  }
  if (!pdrStepsEqual(Cert.Steps, Engine.Steps, Why))
    return false;
  if (Engine.FrameObls.empty())
    return true; // no frame obligations: any clause set (incl. none) works
  if (Cert.InvClauses.empty()) {
    Why = "certificate carries no invariant clauses but has frame-blocked "
          "obligations";
    return false;
  }
  return Engine.validateInvariant(Cert.InvClauses, Why);
}

} // namespace reflex
