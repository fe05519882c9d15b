//===- sym/solver.cc - Incremental entailment engine ----------------------===//
//
// Three cooperating pieces live here:
//
//  1. The *reference solver* (solveReference + ReferenceClosure): the
//     original from-scratch decision procedure, kept verbatim as the
//     differential baseline. Every query re-builds congruence closure,
//     re-runs the congruence fixpoint scan, and re-derives bounds.
//
//  2. The *incremental core* (IncrementalCore): a persistent congruence
//     closure behind a scoped undo trail. Asserting a literal registers
//     its subterms in a watched-term signature index, merges propagate
//     through a pending queue (only terms watching a merged class are
//     re-signed), and pop() rewinds every mutation. Checks run only the
//     cheap per-query phases (diseq scan + numeric reasoning) on top of
//     the maintained closure.
//
//  3. The *reason-trail machinery*: when logging is on, every merge
//     carries its premise, Unsat answers snapshot the step sequence, and
//     replayReasonTrail() re-validates a snapshot against the query with
//     an independent minimal union-find (the checker-side trust anchor).
//
// The two solvers must agree on verdicts. Congruence closure is
// confluent, so the merge order (eager per-assert vs one fixpoint scan)
// cannot change which terms end up equated; literal/component clash
// detection depends only on class contents; and the numeric phase is run
// identically in both paths over deterministic iteration orders.
//
//===----------------------------------------------------------------------===//

#include "sym/solver.h"

#include <algorithm>
#include <cassert>
#include <map>
#include <set>
#include <unordered_set>

namespace reflex {

namespace {

//===----------------------------------------------------------------------===//
// Shared component-identity algebra
//===----------------------------------------------------------------------===//

int rigidity(CompIdent I) {
  switch (I) {
  case CompIdent::InitRigid:
  case CompIdent::NewRigid:
    return 2;
  case CompIdent::FlexPre:
    return 1;
  case CompIdent::FlexAny:
    return 0;
  }
  return 0;
}

TermRef moreRigid(TermRef X, TermRef Y) {
  if (!X)
    return Y;
  if (!Y)
    return X;
  return rigidity(Y->Ident) > rigidity(X->Ident) ? Y : X;
}

/// Can two component terms denote the same instance?
bool compatibleComps(TermRef A, TermRef B) {
  if (A->Str != B->Str)
    return false; // different component types
  if (A->Ident == CompIdent::FlexAny || B->Ident == CompIdent::FlexAny)
    return true;
  bool ARigid = A->Ident != CompIdent::FlexPre;
  bool BRigid = B->Ident != CompIdent::FlexPre;
  if (ARigid && BRigid)
    return A->Ident == B->Ident && A->IntVal == B->IntVal;
  // One side is FlexPre: compatible unless the other is NewRigid (new
  // components are distinct from all pre-existing ones).
  return A->Ident != CompIdent::NewRigid && B->Ident != CompIdent::NewRigid;
}

/// Normalizes an order literal to Lhs < Rhs (Strict) or Lhs <= Rhs.
struct NormOrder {
  TermRef Lhs;
  TermRef Rhs;
  bool Strict;
};

std::optional<NormOrder> normOrder(const Lit &L) {
  TermRef A = L.Atom;
  if (A->Kind == TermKind::Lt)
    return L.Pos ? NormOrder{A->Ops[0], A->Ops[1], true}
                 : NormOrder{A->Ops[1], A->Ops[0], false};
  if (A->Kind == TermKind::Le)
    return L.Pos ? NormOrder{A->Ops[0], A->Ops[1], false}
                 : NormOrder{A->Ops[1], A->Ops[0], true};
  return std::nullopt;
}

uint64_t litKey(const Lit &L) {
  return (static_cast<uint64_t>(L.Atom->Id) << 1) | (L.Pos ? 1 : 0);
}

//===----------------------------------------------------------------------===//
// Reference solver (the original from-scratch algorithm)
//===----------------------------------------------------------------------===//

/// Union-find over term refs with per-class facts: the literal member (if
/// any) and a component member (if any).
class ReferenceClosure {
public:
  TermRef find(TermRef T) {
    auto It = Parent.find(T);
    if (It == Parent.end())
      return T;
    TermRef Root = find(It->second);
    It->second = Root;
    return Root;
  }

  /// Requests a merge; returns false on a detected conflict.
  bool merge(TermRef A, TermRef B) {
    Pending.emplace_back(A, B);
    return drain();
  }

  bool sameClass(TermRef A, TermRef B) { return find(A) == find(B); }

  /// The literal (if any) equated with \p T's class. A literal that never
  /// took part in a merge is its own class.
  TermRef literalOf(TermRef T) {
    TermRef R = find(T);
    if (R->isLiteral())
      return R;
    auto It = ClassLit.find(R);
    return It == ClassLit.end() ? nullptr : It->second;
  }

  /// Runs congruence closure over \p Terms until fixpoint. Returns false
  /// on conflict.
  bool congruence(const std::vector<TermRef> &Terms) {
    bool Changed = true;
    while (Changed) {
      Changed = false;
      // Signature: (Kind, rep of each operand) -> first term seen.
      std::map<std::vector<uintptr_t>, TermRef> Sigs;
      for (TermRef T : Terms) {
        if (T->Ops.empty() || T->Kind == TermKind::Comp)
          continue;
        std::vector<uintptr_t> Sig;
        Sig.push_back(static_cast<uintptr_t>(T->Kind));
        for (TermRef Op : T->Ops)
          Sig.push_back(reinterpret_cast<uintptr_t>(find(Op)));
        auto [It, Inserted] = Sigs.emplace(std::move(Sig), T);
        if (!Inserted && !sameClass(It->second, T)) {
          if (!merge(It->second, T))
            return false;
          Changed = true;
        }
      }
    }
    return true;
  }

private:
  /// Processes queued merges, propagating component-field equalities.
  bool drain() {
    while (!Pending.empty()) {
      auto [A, B] = Pending.back();
      Pending.pop_back();
      TermRef RA = find(A), RB = find(B);
      if (RA == RB)
        continue;

      TermRef LitA = ClassLit.count(RA) ? ClassLit[RA] : nullptr;
      TermRef LitB = ClassLit.count(RB) ? ClassLit[RB] : nullptr;
      if (RA->isLiteral())
        LitA = RA;
      if (RB->isLiteral())
        LitB = RB;
      if (A->isLiteral())
        LitA = A;
      if (B->isLiteral())
        LitB = B;
      if (LitA && LitB && LitA != LitB)
        return false; // two distinct literals equated

      // Each side's component representative: the most rigid of the class
      // member recorded so far and the merge argument itself. Keeping the
      // most rigid one is what makes a later merge against a *different*
      // rigid component conflict (a flexible member is compatible with
      // several rigid ones, but those are not compatible with each other).
      TermRef CompA = ClassComp.count(RA) ? ClassComp[RA] : nullptr;
      TermRef CompB = ClassComp.count(RB) ? ClassComp[RB] : nullptr;
      if (A->Kind == TermKind::Comp)
        CompA = moreRigid(CompA, A);
      if (B->Kind == TermKind::Comp)
        CompB = moreRigid(CompB, B);
      if (CompA && CompB && CompA != CompB) {
        if (!compatibleComps(CompA, CompB))
          return false;
        // Projection: equal components have equal config fields.
        assert(CompA->Ops.size() == CompB->Ops.size());
        for (size_t I = 0; I < CompA->Ops.size(); ++I)
          Pending.emplace_back(CompA->Ops[I], CompB->Ops[I]);
      }

      Parent[RA] = RB;
      if (LitA || LitB)
        ClassLit[RB] = LitA ? LitA : LitB;
      if (CompA || CompB)
        ClassComp[RB] = moreRigid(CompA, CompB);
    }
    return true;
  }

  std::unordered_map<TermRef, TermRef> Parent;
  std::unordered_map<TermRef, TermRef> ClassLit;
  std::unordered_map<TermRef, TermRef> ClassComp;
  std::vector<std::pair<TermRef, TermRef>> Pending;
};

void collectSubterms(TermRef T, std::set<TermRef> &Out) {
  if (!Out.insert(T).second)
    return;
  for (TermRef Op : T->Ops)
    collectSubterms(Op, Out);
}

struct RefOrderFact {
  TermRef Lhs;
  TermRef Rhs;
  bool Strict; // Lhs < Rhs vs Lhs <= Rhs
};

} // namespace

SatResult Solver::solveReference(const std::vector<Lit> &Lits) {
  ReferenceClosure UF;
  std::vector<std::pair<TermRef, TermRef>> Diseqs;
  std::vector<RefOrderFact> Orders;
  std::set<TermRef> SubtermSet;

  for (const Lit &L : Lits) {
    TermRef A = L.Atom;
    collectSubterms(A, SubtermSet);
    switch (A->Kind) {
    case TermKind::Eq:
      if (L.Pos) {
        if (!UF.merge(A->Ops[0], A->Ops[1]))
          return SatResult::Unsat;
      } else {
        Diseqs.emplace_back(A->Ops[0], A->Ops[1]);
      }
      break;
    case TermKind::Lt:
      if (L.Pos)
        Orders.push_back({A->Ops[0], A->Ops[1], /*Strict=*/true});
      else
        Orders.push_back({A->Ops[1], A->Ops[0], /*Strict=*/false});
      break;
    case TermKind::Le:
      if (L.Pos)
        Orders.push_back({A->Ops[0], A->Ops[1], /*Strict=*/false});
      else
        Orders.push_back({A->Ops[1], A->Ops[0], /*Strict=*/true});
      break;
    case TermKind::BoolLit:
      if ((A->IntVal != 0) != L.Pos)
        return SatResult::Unsat;
      break;
    default:
      // Any other bool-typed term is a propositional atom: assert its
      // truth value via an equality with the bool literal.
      if (!UF.merge(A, Ctx.boolLit(L.Pos)))
        return SatResult::Unsat;
      break;
    }
  }

  std::vector<TermRef> Subterms(SubtermSet.begin(), SubtermSet.end());
  if (!UF.congruence(Subterms))
    return SatResult::Unsat;

  for (const auto &[A, B] : Diseqs)
    if (UF.sameClass(A, B))
      return SatResult::Unsat;

  // --- Numeric reasoning -------------------------------------------------
  // Known constant per class (from literal members and Add/Sub folding).
  std::unordered_map<TermRef, int64_t> Known;
  auto knownOf = [&](TermRef T) -> std::optional<int64_t> {
    if (T->Kind == TermKind::NumLit)
      return T->IntVal;
    TermRef R = UF.find(T);
    if (TermRef L = UF.literalOf(R); L && L->Kind == TermKind::NumLit)
      return L->IntVal;
    auto It = Known.find(R);
    if (It != Known.end())
      return It->second;
    return std::nullopt;
  };

  // Fold Add/Sub with known operands; a few rounds suffice for the loop-free
  // handler terms this engine sees.
  for (int Round = 0; Round < 8; ++Round) {
    bool Changed = false;
    for (TermRef T : Subterms) {
      if (T->Kind != TermKind::Add && T->Kind != TermKind::Sub)
        continue;
      auto A = knownOf(T->Ops[0]);
      auto B = knownOf(T->Ops[1]);
      if (!A || !B)
        continue;
      int64_t V = T->Kind == TermKind::Add ? *A + *B : *A - *B;
      TermRef R = UF.find(T);
      auto Existing = knownOf(T);
      if (Existing) {
        if (*Existing != V)
          return SatResult::Unsat;
        continue;
      }
      Known[R] = V;
      Changed = true;
    }
    if (!Changed)
      break;
  }

  // Bounds from ordering facts with one known side; plus direct conflicts.
  std::unordered_map<TermRef, int64_t> Lo, Hi;
  for (const RefOrderFact &O : Orders) {
    auto VL = knownOf(O.Lhs);
    auto VR = knownOf(O.Rhs);
    if (VL && VR) {
      if (O.Strict ? !(*VL < *VR) : !(*VL <= *VR))
        return SatResult::Unsat;
      continue;
    }
    TermRef RL = UF.find(O.Lhs);
    TermRef RR = UF.find(O.Rhs);
    if (RL == RR) {
      if (O.Strict)
        return SatResult::Unsat; // x < x
      continue;
    }
    if (VR) {
      int64_t Bound = O.Strict ? *VR - 1 : *VR;
      auto It = Hi.find(RL);
      Hi[RL] = It == Hi.end() ? Bound : std::min(It->second, Bound);
    }
    if (VL) {
      int64_t Bound = O.Strict ? *VL + 1 : *VL;
      auto It = Lo.find(RR);
      Lo[RR] = It == Lo.end() ? Bound : std::max(It->second, Bound);
    }
  }
  for (const auto &[R, L] : Lo) {
    auto It = Hi.find(R);
    if (It != Hi.end() && L > It->second)
      return SatResult::Unsat;
    if (TermRef LitT = UF.literalOf(R);
        LitT && LitT->Kind == TermKind::NumLit && LitT->IntVal < L)
      return SatResult::Unsat;
  }
  for (const auto &[R, HiV] : Hi)
    if (TermRef LitT = UF.literalOf(R);
        LitT && LitT->Kind == TermKind::NumLit && LitT->IntVal > HiV)
      return SatResult::Unsat;

  // Re-check disequalities now that arithmetic has resolved values: e.g.
  // x = 2 /\ y = 3 /\ x + y != 5.
  for (const auto &[A, B] : Diseqs) {
    auto VA = knownOf(A);
    auto VB = knownOf(B);
    if (VA && VB && *VA == *VB)
      return SatResult::Unsat;
  }

  return SatResult::Maybe;
}

//===----------------------------------------------------------------------===//
// Incremental core
//===----------------------------------------------------------------------===//

/// Persistent congruence closure with a scoped undo trail.
///
/// State is dense-indexed by TermNode::Id (hash-consed ids are dense per
/// context; an overlay continues past its frozen base). The union-find
/// uses union-by-rank and *no path compression* so a union is undone by
/// resetting one parent pointer; per-class facts (literal member,
/// component member), the signature index, the use-lists, and the
/// diseq/order fact lists journal every mutation onto the trail.
class IncrementalCore {
  static constexpr uint32_t Unreg = 0xffffffffu;

  using SigKey = std::vector<uint32_t>;
  struct SigKeyHash {
    size_t operator()(const SigKey &K) const {
      uint64_t H = 1469598103934665603ULL;
      for (uint32_t V : K) {
        H ^= V;
        H *= 1099511628211ULL;
      }
      return static_cast<size_t>(H);
    }
  };

  struct DiseqFact {
    TermRef A, B;
    Lit From;
  };
  struct OrderFact {
    TermRef Lhs, Rhs;
    bool Strict;
    Lit From;
  };

  /// One pending merge with its trail premise.
  struct PendMerge {
    TermRef A, B;
    TrailStep::Kind Why; // MergeInput / MergeCongr / MergeProj
    Lit From{};
    TermRef CA = nullptr, CB = nullptr;
    int Idx = -1;
  };

  struct UndoOp {
    enum K : uint8_t {
      Union,     // X=child, Y=parent, Flag=rank bumped, L/C=old facts of Y
      SigSet,    // Key had value L (nullptr = absent)
      CurSigSet, // term X had sig Key (Flag = had one)
      UseAdd,    // Uses[X] grew by one
      DiseqAdd,
      OrderAdd,
      Register, // last RegList entry becomes unregistered
    } Kind;
    uint32_t X = 0, Y = 0;
    uint8_t Flag = 0;
    TermRef L = nullptr, C = nullptr;
    SigKey Key;
  };

public:
  explicit IncrementalCore(TermContext &Ctx) : Ctx(Ctx) {}

  void setLogging(bool On) { Logging = On; }

  size_t depth() const { return TrailMarks.size(); }
  bool latched() const { return ConflictDepth >= 0; }

  void pushScope() {
    TrailMarks.push_back(Trail.size());
    StepMarks.push_back(LogSteps.size());
  }

  /// Rewinds to the previous scope mark; returns the number of undo
  /// entries reversed.
  uint64_t popScope() {
    assert(!TrailMarks.empty());
    size_t Mark = TrailMarks.back();
    TrailMarks.pop_back();
    uint64_t N = 0;
    while (Trail.size() > Mark) {
      applyUndo(Trail.back());
      Trail.pop_back();
      ++N;
    }
    UndoCount += N;
    LogSteps.resize(StepMarks.back());
    StepMarks.pop_back();
    if (ConflictDepth >= 0 &&
        ConflictDepth > static_cast<int>(TrailMarks.size()))
      ConflictDepth = -1;
    return N;
  }

  void assume(const Lit &L) {
    if (latched())
      return; // inconsistent already; the conflict owns this scope
    TermRef A = L.Atom;
    registerTerm(A);
    switch (A->Kind) {
    case TermKind::Eq:
      if (L.Pos) {
        Pending.push_back({A->Ops[0], A->Ops[1], TrailStep::MergeInput, L});
      } else {
        Diseqs.push_back({A->Ops[0], A->Ops[1], L});
        Trail.push_back(UndoOp{UndoOp::DiseqAdd});
      }
      break;
    case TermKind::Lt:
    case TermKind::Le: {
      NormOrder O = *normOrder(L);
      Orders.push_back({O.Lhs, O.Rhs, O.Strict, L});
      Trail.push_back(UndoOp{UndoOp::OrderAdd});
      break;
    }
    case TermKind::BoolLit:
      if ((A->IntVal != 0) != L.Pos) {
        if (Logging) {
          TrailStep S{};
          S.K = TrailStep::ConfBoolLit;
          S.From = L;
          LogSteps.push_back(S);
        }
        latch();
        return;
      }
      break;
    default: {
      TermRef BL = Ctx.boolLit(L.Pos);
      registerTerm(BL);
      Pending.push_back({A, BL, TrailStep::MergeInput, L});
      break;
    }
    }
    drainPending();
  }

  /// Decides stack + \p Assumptions. \p TrailOut, when non-null, receives
  /// the step sequence on Unsat.
  SatResult check(const std::vector<Lit> &Assumptions, ReasonTrail *TrailOut) {
    bool Opened = false;
    if (!latched()) {
      pushScope();
      Opened = true;
      for (const Lit &L : Assumptions)
        assume(L);
    }
    SatResult R;
    if (latched()) {
      R = SatResult::Unsat;
      if (TrailOut)
        TrailOut->Steps = LogSteps;
    } else {
      R = numericPhase(TrailOut);
    }
    if (Opened)
      popScope();
    return R;
  }

  uint64_t undoCount() const { return UndoCount; }

private:
  //===--------------------------------------------------------------------===
  // Registration and the watched-term signature index
  //===--------------------------------------------------------------------===

  void ensureId(uint32_t Id) {
    if (Id < Parent.size())
      return;
    size_t N = Id + 1;
    Parent.resize(N, Unreg);
    Rk.resize(N, 0);
    Node.resize(N, nullptr);
    CLit.resize(N, nullptr);
    CComp.resize(N, nullptr);
    Uses.resize(N);
  }

  bool sigBearing(TermRef T) const {
    return !T->Ops.empty() && T->Kind != TermKind::Comp;
  }

  SigKey sigOf(TermRef T) {
    SigKey K;
    K.reserve(T->Ops.size() + 1);
    K.push_back(static_cast<uint32_t>(T->Kind));
    for (TermRef Op : T->Ops)
      K.push_back(findRoot(Op->Id));
    return K;
  }

  void registerTerm(TermRef T) {
    uint32_t Id = T->Id;
    ensureId(Id);
    if (Parent[Id] != Unreg)
      return;
    for (TermRef Op : T->Ops)
      registerTerm(Op);
    Parent[Id] = Id;
    Rk[Id] = 0;
    Node[Id] = T;
    CLit[Id] = nullptr;
    CComp[Id] = nullptr;
    RegList.push_back(T);
    Trail.push_back(UndoOp{UndoOp::Register});
    if (!sigBearing(T))
      return;
    SigKey K = sigOf(T);
    setCurSig(Id, K);
    probeSig(T, K);
    for (TermRef Op : T->Ops) {
      uint32_t R = findRoot(Op->Id);
      Uses[R].push_back(T);
      UndoOp U{UndoOp::UseAdd};
      U.X = R;
      Trail.push_back(U);
    }
  }

  /// Installs T under \p K in the signature table, or queues a congruence
  /// merge with the incumbent.
  void probeSig(TermRef T, const SigKey &K) {
    auto It = Sigs.find(K);
    if (It == Sigs.end()) {
      UndoOp U{UndoOp::SigSet};
      U.Key = K;
      U.L = nullptr;
      Trail.push_back(std::move(U));
      Sigs.emplace(K, T);
    } else if (findRoot(It->second->Id) != findRoot(T->Id)) {
      Pending.push_back({It->second, T, TrailStep::MergeCongr});
    }
  }

  void setCurSig(uint32_t Id, const SigKey &K) {
    UndoOp U{UndoOp::CurSigSet};
    U.X = Id;
    auto It = CurSig.find(Id);
    if (It != CurSig.end()) {
      U.Flag = 1;
      U.Key = It->second;
    }
    Trail.push_back(std::move(U));
    CurSig[Id] = K;
  }

  //===--------------------------------------------------------------------===
  // Union-find + merge propagation
  //===--------------------------------------------------------------------===

  uint32_t findRoot(uint32_t I) const {
    while (Parent[I] != I)
      I = Parent[I];
    return I;
  }

  TermRef literalOfRoot(uint32_t R) const {
    TermRef T = Node[R];
    return T->isLiteral() ? T : CLit[R];
  }

  void latch() {
    ConflictDepth = static_cast<int>(TrailMarks.size());
    Pending.clear();
  }

  void logMerge(const PendMerge &M) {
    if (!Logging)
      return;
    TrailStep S{};
    S.K = M.Why;
    S.From = M.From;
    S.A = M.A;
    S.B = M.B;
    S.CA = M.CA;
    S.CB = M.CB;
    S.Idx = M.Idx;
    LogSteps.push_back(S);
  }

  void logConflict(TrailStep::Kind K, TermRef A, TermRef B) {
    if (!Logging)
      return;
    TrailStep S{};
    S.K = K;
    S.A = A;
    S.B = B;
    LogSteps.push_back(S);
  }

  /// Class activity of a pending merge: the combined watcher count of
  /// its two classes. Every watch landing on a class (a journaled UseAdd)
  /// bumps it, so busy classes score high and collapse early — the
  /// resign cascade then moves each watcher once instead of re-signing
  /// it across several partial merges of quiet classes.
  uint64_t mergeActivity(const PendMerge &M) const {
    return Uses[findRoot(M.A->Id)].size() + Uses[findRoot(M.B->Id)].size();
  }

  void drainPending() {
    while (!Pending.empty()) {
      size_t Best = Pending.size() - 1;
      if (Pending.size() > 1) {
        // Highest activity first; ties break on the smaller (min, max)
        // term-serial pair, then queue position. Activity is a pure
        // function of the journaled closure state — never of popped
        // history — so the merge order (and with it trails and
        // certificates) stays a deterministic function of the asserted
        // stack. Congruence closure is confluent, so any order reaches
        // the same closure and the same verdict.
        Best = 0;
        uint64_t BestAct = mergeActivity(Pending[0]);
        auto serialKey = [](const PendMerge &M) {
          return std::make_pair(std::min(M.A->Id, M.B->Id),
                                std::max(M.A->Id, M.B->Id));
        };
        auto BestKey = serialKey(Pending[0]);
        for (size_t I = 1; I < Pending.size(); ++I) {
          uint64_t Act = mergeActivity(Pending[I]);
          if (Act < BestAct)
            continue;
          auto Key = serialKey(Pending[I]);
          if (Act > BestAct || Key < BestKey) {
            Best = I;
            BestAct = Act;
            BestKey = Key;
          }
        }
      }
      PendMerge M = Pending[Best];
      if (Best + 1 != Pending.size())
        Pending[Best] = std::move(Pending.back());
      Pending.pop_back();
      if (!applyMerge(M))
        return; // latched; queue cleared
    }
  }

  bool applyMerge(const PendMerge &M) {
    uint32_t Ra = findRoot(M.A->Id), Rb = findRoot(M.B->Id);
    if (Ra == Rb)
      return true;
    TermRef RootA = Node[Ra], RootB = Node[Rb];

    TermRef LitA = CLit[Ra], LitB = CLit[Rb];
    if (RootA->isLiteral())
      LitA = RootA;
    if (RootB->isLiteral())
      LitB = RootB;
    if (M.A->isLiteral())
      LitA = M.A;
    if (M.B->isLiteral())
      LitB = M.B;

    logMerge(M);
    if (LitA && LitB && LitA != LitB) {
      logConflict(TrailStep::ConfMergeLits, LitA, LitB);
      latch();
      return false;
    }

    TermRef CompA = CComp[Ra], CompB = CComp[Rb];
    if (M.A->Kind == TermKind::Comp)
      CompA = moreRigid(CompA, M.A);
    if (M.B->Kind == TermKind::Comp)
      CompB = moreRigid(CompB, M.B);
    if (CompA && CompB && CompA != CompB) {
      if (!compatibleComps(CompA, CompB)) {
        logConflict(TrailStep::ConfMergeComps, CompA, CompB);
        latch();
        return false;
      }
      // Projection: equal components have equal config fields.
      assert(CompA->Ops.size() == CompB->Ops.size());
      for (size_t I = 0; I < CompA->Ops.size(); ++I)
        Pending.push_back({CompA->Ops[I], CompB->Ops[I], TrailStep::MergeProj,
                           Lit(), CompA, CompB, static_cast<int>(I)});
    }

    // Union by rank; the lower-rank root becomes the child.
    uint32_t C = Ra, P = Rb;
    bool Bump = false;
    if (Rk[Ra] > Rk[Rb]) {
      C = Rb;
      P = Ra;
    } else if (Rk[Ra] == Rk[Rb]) {
      Bump = true;
    }
    UndoOp U{UndoOp::Union};
    U.X = C;
    U.Y = P;
    U.Flag = Bump ? 1 : 0;
    U.L = CLit[P];
    U.C = CComp[P];
    Trail.push_back(std::move(U));
    Parent[C] = P;
    if (Bump)
      ++Rk[P];
    if (LitA || LitB)
      CLit[P] = LitA ? LitA : LitB;
    if (CompA || CompB)
      CComp[P] = moreRigid(CompA, CompB);

    resign(C, P);
    return true;
  }

  /// Re-signs every term watching the just-dethroned root \p C: removes
  /// its old signature entry, installs the new one (queueing congruence
  /// merges on collision), and moves the watch to \p P.
  void resign(uint32_t C, uint32_t P) {
    // Snapshot the length: new watches land on other roots, never on C.
    size_t N = Uses[C].size();
    for (size_t I = 0; I < N; ++I) {
      TermRef T = Uses[C][I];
      SigKey Old = CurSig[T->Id];
      SigKey New = sigOf(T);
      if (New == Old)
        continue; // duplicate watch entry already re-signed
      auto It = Sigs.find(Old);
      if (It != Sigs.end() && It->second == T) {
        UndoOp U{UndoOp::SigSet};
        U.Key = Old;
        U.L = T;
        Trail.push_back(std::move(U));
        Sigs.erase(It);
      }
      setCurSig(T->Id, New);
      probeSig(T, New);
      Uses[P].push_back(T);
      UndoOp U{UndoOp::UseAdd};
      U.X = P;
      Trail.push_back(U);
    }
  }

  void applyUndo(const UndoOp &U) {
    switch (U.Kind) {
    case UndoOp::Union:
      Parent[U.X] = U.X;
      if (U.Flag)
        --Rk[U.Y];
      CLit[U.Y] = U.L;
      CComp[U.Y] = U.C;
      break;
    case UndoOp::SigSet:
      if (U.L)
        Sigs[U.Key] = U.L;
      else
        Sigs.erase(U.Key);
      break;
    case UndoOp::CurSigSet:
      if (U.Flag)
        CurSig[U.X] = U.Key;
      else
        CurSig.erase(U.X);
      break;
    case UndoOp::UseAdd:
      Uses[U.X].pop_back();
      break;
    case UndoOp::DiseqAdd:
      Diseqs.pop_back();
      break;
    case UndoOp::OrderAdd:
      Orders.pop_back();
      break;
    case UndoOp::Register: {
      TermRef T = RegList.back();
      RegList.pop_back();
      Parent[T->Id] = Unreg;
      Node[T->Id] = nullptr;
      break;
    }
    }
  }

  //===--------------------------------------------------------------------===
  // Per-check phases: diseq scan + numeric reasoning
  //===--------------------------------------------------------------------===

  /// Mirrors the reference solver's post-closure phases over the
  /// maintained closure. Read-only on persistent state; value/conflict
  /// steps (for the reason trail) accumulate in a local buffer so Maybe
  /// answers cost no allocation in the log.
  SatResult numericPhase(ReasonTrail *TrailOut) {
    std::vector<TrailStep> Local;
    bool Log = TrailOut != nullptr;
    auto emit = [&](TrailStep S) {
      if (Log)
        Local.push_back(S);
    };
    auto conflict = [&](TrailStep S) {
      if (TrailOut) {
        TrailOut->Steps = LogSteps;
        TrailOut->Steps.insert(TrailOut->Steps.end(), Local.begin(),
                               Local.end());
        TrailOut->Steps.push_back(S);
      }
      return SatResult::Unsat;
    };

    for (const DiseqFact &D : Diseqs)
      if (findRoot(D.A->Id) == findRoot(D.B->Id)) {
        TrailStep S{};
        S.K = TrailStep::ConfDiseq;
        S.From = D.From;
        return conflict(S);
      }

    // Known constant per class (root id -> value), from literal members
    // and Add/Sub folding. Value derivations are logged so the replayer
    // can rebuild the same map.
    std::unordered_map<uint32_t, int64_t> Known;
    std::unordered_set<uint32_t> LitEmitted;
    auto knownOf = [&](TermRef T) -> std::optional<int64_t> {
      if (T->Kind == TermKind::NumLit)
        return T->IntVal;
      uint32_t R = findRoot(T->Id);
      if (TermRef L = literalOfRoot(R); L && L->Kind == TermKind::NumLit) {
        if (Log && LitEmitted.insert(R).second) {
          TrailStep S{};
          S.K = TrailStep::ValueLit;
          S.A = T;
          S.Val = L->IntVal;
          emit(S);
        }
        return L->IntVal;
      }
      auto It = Known.find(R);
      if (It != Known.end())
        return It->second;
      return std::nullopt;
    };

    // Fold Add/Sub with known operands, iterating in registration order
    // (deterministic: registration follows the assert sequence).
    for (int Round = 0; Round < 8; ++Round) {
      bool Changed = false;
      for (TermRef T : RegList) {
        if (T->Kind != TermKind::Add && T->Kind != TermKind::Sub)
          continue;
        auto A = knownOf(T->Ops[0]);
        auto B = knownOf(T->Ops[1]);
        if (!A || !B)
          continue;
        int64_t V = T->Kind == TermKind::Add ? *A + *B : *A - *B;
        uint32_t R = findRoot(T->Id);
        auto Existing = knownOf(T);
        if (Existing) {
          if (*Existing != V) {
            TrailStep S{};
            S.K = TrailStep::ConfArith;
            S.A = T;
            S.Val = V;
            return conflict(S);
          }
          continue;
        }
        Known[R] = V;
        TrailStep S{};
        S.K = TrailStep::ValueFold;
        S.A = T;
        S.Val = V;
        emit(S);
        Changed = true;
      }
      if (!Changed)
        break;
    }

    // Bounds from ordering facts with one known side; plus direct
    // conflicts. Keyed by root id in ordered maps so the first conflict
    // found — and hence the logged trail — is deterministic.
    struct BoundEnt {
      int64_t V;
      Lit From;
      TermRef Side; // the unvalued side whose class carries the bound
    };
    std::map<uint32_t, BoundEnt> Lo, Hi;
    for (const OrderFact &O : Orders) {
      auto VL = knownOf(O.Lhs);
      auto VR = knownOf(O.Rhs);
      if (VL && VR) {
        if (O.Strict ? !(*VL < *VR) : !(*VL <= *VR)) {
          TrailStep S{};
          S.K = TrailStep::ConfOrderGround;
          S.From = O.From;
          return conflict(S);
        }
        continue;
      }
      uint32_t RL = findRoot(O.Lhs->Id);
      uint32_t RR = findRoot(O.Rhs->Id);
      if (RL == RR) {
        if (O.Strict) {
          TrailStep S{};
          S.K = TrailStep::ConfOrderSelf;
          S.From = O.From;
          return conflict(S); // x < x
        }
        continue;
      }
      if (VR) {
        int64_t Bound = O.Strict ? *VR - 1 : *VR;
        auto It = Hi.find(RL);
        if (It == Hi.end() || Bound < It->second.V)
          Hi[RL] = {Bound, O.From, O.Lhs};
      }
      if (VL) {
        int64_t Bound = O.Strict ? *VL + 1 : *VL;
        auto It = Lo.find(RR);
        if (It == Lo.end() || Bound > It->second.V)
          Lo[RR] = {Bound, O.From, O.Rhs};
      }
    }
    for (const auto &[R, LoE] : Lo) {
      auto It = Hi.find(R);
      if (It != Hi.end() && LoE.V > It->second.V) {
        TrailStep S{};
        S.K = TrailStep::ConfBounds;
        S.From = LoE.From;
        S.From2 = It->second.From;
        return conflict(S);
      }
      if (TermRef LitT = literalOfRoot(R);
          LitT && LitT->Kind == TermKind::NumLit && LitT->IntVal < LoE.V) {
        TrailStep S{};
        S.K = TrailStep::ConfBoundLit;
        S.From = LoE.From;
        S.A = LoE.Side;
        return conflict(S);
      }
    }
    for (const auto &[R, HiE] : Hi)
      if (TermRef LitT = literalOfRoot(R);
          LitT && LitT->Kind == TermKind::NumLit && LitT->IntVal > HiE.V) {
        TrailStep S{};
        S.K = TrailStep::ConfBoundLit;
        S.From = HiE.From;
        S.A = HiE.Side;
        return conflict(S);
      }

    // Re-check disequalities now that arithmetic has resolved values.
    for (const DiseqFact &D : Diseqs) {
      auto VA = knownOf(D.A);
      auto VB = knownOf(D.B);
      if (VA && VB && *VA == *VB) {
        TrailStep S{};
        S.K = TrailStep::ConfDiseqVal;
        S.From = D.From;
        return conflict(S);
      }
    }

    return SatResult::Maybe;
  }

  TermContext &Ctx;
  bool Logging = false;

  std::vector<uint32_t> Parent; // Unreg = not registered
  std::vector<uint8_t> Rk;
  std::vector<TermRef> Node;
  std::vector<TermRef> CLit;
  std::vector<TermRef> CComp;
  std::vector<std::vector<TermRef>> Uses;
  std::unordered_map<SigKey, TermRef, SigKeyHash> Sigs;
  std::unordered_map<uint32_t, SigKey> CurSig;
  std::vector<DiseqFact> Diseqs;
  std::vector<OrderFact> Orders;
  std::vector<TermRef> RegList;
  std::vector<PendMerge> Pending;

  std::vector<UndoOp> Trail;
  std::vector<size_t> TrailMarks;
  std::vector<TrailStep> LogSteps;
  std::vector<size_t> StepMarks;
  int ConflictDepth = -1;
  uint64_t UndoCount = 0;
};

//===----------------------------------------------------------------------===//
// Solver wrapper
//===----------------------------------------------------------------------===//

Solver::Solver(TermContext &Ctx)
    : Ctx(Ctx), Core(std::make_unique<IncrementalCore>(Ctx)) {}

Solver::~Solver() = default;

const SolverStats &Solver::stats() const {
  Stats.TrailUndos = Core->undoCount();
  return Stats;
}

void Solver::setIncrementalEnabled(bool On) {
  assert(ScopeMarks.empty() && "mode toggles only at scope depth 0");
  Incremental = On;
}

void Solver::setLogEnabled(bool On) {
  assert(ScopeMarks.empty() && "logging toggles only at scope depth 0");
  LogEnabled = On;
  Core->setLogging(On);
}

size_t Solver::scopeDepth() const { return ScopeMarks.size(); }

void Solver::push() {
  ScopeMarks.push_back(StackLits.size());
  ++Stats.Pushes;
  if (Incremental)
    Core->pushScope();
}

void Solver::pop() {
  assert(!ScopeMarks.empty() && "pop without matching push");
  size_t Mark = ScopeMarks.back();
  ScopeMarks.pop_back();
  for (size_t I = StackLits.size(); I-- > Mark;) {
    auto It = StackCount.find(litKey(StackLits[I]));
    if (It != StackCount.end() && --It->second == 0)
      StackCount.erase(It);
  }
  StackLits.resize(Mark);
  if (Incremental)
    Core->popScope();
}

void Solver::assume(Lit L) {
  assert(!ScopeMarks.empty() && "assume requires an open scope");
  StackLits.push_back(L);
  ++StackCount[litKey(L)];
  if (Incremental)
    Core->assume(L);
}

void Solver::assume(const std::vector<Lit> &Ls) {
  for (const Lit &L : Ls)
    assume(L);
}

Solver::Suspended::Suspended(Solver &S) : S(S) {
  while (S.scopeDepth() > 0) {
    size_t Mark = S.ScopeMarks.back();
    Saved.emplace_back(S.StackLits.begin() + Mark, S.StackLits.end());
    S.pop();
  }
  std::reverse(Saved.begin(), Saved.end()); // outermost first
}

Solver::Suspended::~Suspended() {
  for (const std::vector<Lit> &Scope : Saved) {
    S.push();
    for (const Lit &L : Scope)
      S.assume(L);
  }
}

/// The single query funnel: budget poll, memo on the exact asserted set,
/// then the incremental core or the reference solver.
SatResult Solver::answer(const std::vector<Lit> &Assumptions, bool Scoped) {
  // Budget poll: one step per query. Expired queries answer Maybe (sound)
  // and bypass the memo entirely — see setDeadline.
  if (Budget && Budget->expired())
    return SatResult::Maybe;
  if (Scoped)
    ++Stats.AssumptionChecks;

  // Memo on the exact literal set (order-insensitive). Terms are
  // hash-consed so ids identify atoms.
  std::vector<uint64_t> Key;
  Key.reserve((Scoped ? StackLits.size() : 0) + Assumptions.size());
  if (Scoped)
    for (const Lit &L : StackLits)
      Key.push_back(litKey(L));
  for (const Lit &L : Assumptions)
    Key.push_back(litKey(L));
  std::sort(Key.begin(), Key.end());
  Key.erase(std::unique(Key.begin(), Key.end()), Key.end());
  uint64_t H = 1469598103934665603ULL;
  for (uint64_t K : Key) {
    H ^= K;
    H *= 1099511628211ULL;
  }
  // The memo hash could in principle collide; include the size in the key
  // and accept the (astronomically small) risk for the prover. The
  // independent certificate checker uses its own Solver instance, so a
  // collision would have to strike twice identically to certify a false
  // proof.
  H = H * 31 + Key.size();
  if (MemoEnabled) {
    auto It = Memo.find(H);
    if (It != Memo.end()) {
      ++Stats.MemoHits;
      if (Scoped)
        ++Stats.AssumptionHits;
      return It->second;
    }
  }
  SatResult R;
  ReasonTrail T;
  bool WantLog = LogEnabled && Incremental;
  if (Incremental && (Scoped || ScopeMarks.empty())) {
    R = Core->check(Assumptions, WantLog ? &T : nullptr);
  } else {
    WantLog = false;
    if (Scoped) {
      std::vector<Lit> Full = StackLits;
      Full.insert(Full.end(), Assumptions.begin(), Assumptions.end());
      R = solveReference(Full);
    } else {
      R = solveReference(Assumptions);
    }
  }
  ++Stats.QueriesSolved;
  if (WantLog && R == SatResult::Unsat) {
    if (Scoped) {
      T.Query = StackLits;
      T.Query.insert(T.Query.end(), Assumptions.begin(), Assumptions.end());
    } else {
      T.Query = Assumptions;
    }
    Stats.ReasonLogBytes += T.Steps.size() * sizeof(TrailStep) +
                            T.Query.size() * sizeof(Lit);
    Trails.push_back(std::move(T));
  }
  if (MemoEnabled)
    Memo.emplace(H, R);
  return R;
}

SatResult Solver::checkLits(const std::vector<Lit> &Lits) {
  return answer(Lits, /*Scoped=*/false);
}

SatResult Solver::checkAssuming(const std::vector<Lit> &Assumptions) {
  return answer(Assumptions, /*Scoped=*/true);
}

bool Solver::entails(const std::vector<Lit> &Assume, Lit Goal) {
  // Fast path: the goal is literally among the assumptions.
  for (const Lit &L : Assume)
    if (L == Goal)
      return true;
  if (Goal.Atom->Kind == TermKind::BoolLit)
    return (Goal.Atom->IntVal != 0) == Goal.Pos ||
           checkLits(Assume) == SatResult::Unsat;
  std::vector<Lit> WithNeg = Assume;
  WithNeg.push_back(Goal.negated());
  return checkLits(WithNeg) == SatResult::Unsat;
}

bool Solver::entailsAll(const std::vector<Lit> &Assume,
                        const std::vector<Lit> &Goals) {
  for (const Lit &G : Goals)
    if (!entails(Assume, G))
      return false;
  return true;
}

bool Solver::entailsUnder(Lit Goal) {
  // Fast path: the goal is literally among the asserted stack.
  if (StackCount.count(litKey(Goal)))
    return true;
  if (Goal.Atom->Kind == TermKind::BoolLit)
    return (Goal.Atom->IntVal != 0) == Goal.Pos ||
           check() == SatResult::Unsat;
  return checkAssuming({Goal.negated()}) == SatResult::Unsat;
}

bool Solver::entailsAllUnder(const std::vector<Lit> &Goals) {
  for (const Lit &G : Goals)
    if (!entailsUnder(G))
      return false;
  return true;
}

//===----------------------------------------------------------------------===//
// Reason-trail replay (the checker-side trust anchor)
//===----------------------------------------------------------------------===//

namespace {

/// A minimal union-find with class-literal/component tracking, independent
/// of both solver implementations. The replayer never propagates on its
/// own — every congruence/projection consequence must appear as an
/// explicit, premise-checked step in the trail.
class ReplayClosure {
public:
  TermRef find(TermRef T) {
    auto It = Parent.find(T);
    if (It == Parent.end())
      return T;
    TermRef Root = find(It->second);
    It->second = Root;
    return Root;
  }

  TermRef literalOf(TermRef T) {
    TermRef R = find(T);
    if (R->isLiteral())
      return R;
    auto It = CLit.find(R);
    return It == CLit.end() ? nullptr : It->second;
  }

  /// Applies the merge A ~ B. Returns 0 on success, 1 on a distinct-
  /// literal clash, 2 on an incompatible-component clash; the clashing
  /// pair comes back in \p WA / \p WB.
  int merge(TermRef A, TermRef B, TermRef &WA, TermRef &WB) {
    TermRef RA = find(A), RB = find(B);
    if (RA == RB)
      return 0;
    TermRef LitA = CLit.count(RA) ? CLit[RA] : nullptr;
    TermRef LitB = CLit.count(RB) ? CLit[RB] : nullptr;
    if (RA->isLiteral())
      LitA = RA;
    if (RB->isLiteral())
      LitB = RB;
    if (A->isLiteral())
      LitA = A;
    if (B->isLiteral())
      LitB = B;
    if (LitA && LitB && LitA != LitB) {
      WA = LitA;
      WB = LitB;
      return 1;
    }
    TermRef CompA = CComp.count(RA) ? CComp[RA] : nullptr;
    TermRef CompB = CComp.count(RB) ? CComp[RB] : nullptr;
    if (A->Kind == TermKind::Comp)
      CompA = moreRigid(CompA, A);
    if (B->Kind == TermKind::Comp)
      CompB = moreRigid(CompB, B);
    if (CompA && CompB && CompA != CompB && !compatibleComps(CompA, CompB)) {
      WA = CompA;
      WB = CompB;
      return 2;
    }
    Parent[RA] = RB;
    if (LitA || LitB)
      CLit[RB] = LitA ? LitA : LitB;
    if (CompA || CompB)
      CComp[RB] = moreRigid(CompA, CompB);
    return 0;
  }

private:
  std::unordered_map<TermRef, TermRef> Parent;
  std::unordered_map<TermRef, TermRef> CLit;
  std::unordered_map<TermRef, TermRef> CComp;
};

bool samePair(TermRef A, TermRef B, TermRef X, TermRef Y) {
  return (A == X && B == Y) || (A == Y && B == X);
}

} // namespace

bool replayReasonTrail(const TermContext &Ctx, const ReasonTrail &T,
                       std::string &WhyOut) {
  (void)Ctx;
  std::unordered_set<uint64_t> Query;
  for (const Lit &L : T.Query)
    Query.insert(litKey(L));
  auto inQuery = [&](const Lit &L) { return L.Atom && Query.count(litKey(L)); };

  ReplayClosure UF;
  std::unordered_map<TermRef, int64_t> Vals; // class root -> derived value
  auto valueOf = [&](TermRef X) -> std::optional<int64_t> {
    if (!X)
      return std::nullopt;
    if (X->Kind == TermKind::NumLit)
      return X->IntVal;
    auto It = Vals.find(UF.find(X));
    if (It == Vals.end())
      return std::nullopt;
    return It->second;
  };

  int PendingClash = 0;
  TermRef ClashA = nullptr, ClashB = nullptr;
  auto fail = [&](size_t I, const char *W) {
    WhyOut = "trail step " + std::to_string(I) + ": " + W;
    return false;
  };

  for (size_t I = 0; I < T.Steps.size(); ++I) {
    const TrailStep &S = T.Steps[I];
    bool Last = I + 1 == T.Steps.size();

    if (PendingClash) {
      // The preceding merge clashed; the only legal continuation is the
      // matching terminal conflict.
      if (PendingClash == 1 && S.K == TrailStep::ConfMergeLits &&
          samePair(S.A, S.B, ClashA, ClashB))
        return Last ? true : fail(I, "steps after terminal conflict");
      if (PendingClash == 2 && S.K == TrailStep::ConfMergeComps &&
          samePair(S.A, S.B, ClashA, ClashB))
        return Last ? true : fail(I, "steps after terminal conflict");
      return fail(I, "merge clash not confirmed by matching conflict");
    }

    switch (S.K) {
    case TrailStep::MergeInput: {
      if (!inQuery(S.From))
        return fail(I, "premise literal not in query");
      TermRef A = S.From.Atom;
      if (A->Kind == TermKind::Eq && S.From.Pos) {
        if (S.A != A->Ops[0] || S.B != A->Ops[1])
          return fail(I, "merge does not match equality literal");
      } else if (A->Kind != TermKind::Eq && A->Kind != TermKind::Lt &&
                 A->Kind != TermKind::Le && A->Kind != TermKind::BoolLit) {
        // Bool-atom assertion: atom = boolLit(polarity).
        if (S.A != A || !S.B || S.B->Kind != TermKind::BoolLit ||
            (S.B->IntVal != 0) != S.From.Pos)
          return fail(I, "merge does not match atom assertion");
      } else {
        return fail(I, "literal kind cannot justify a merge");
      }
      PendingClash = UF.merge(S.A, S.B, ClashA, ClashB);
      break;
    }
    case TrailStep::MergeCongr: {
      if (!S.A || !S.B || S.A->Ops.empty() || S.A->Kind == TermKind::Comp ||
          S.A->Kind != S.B->Kind || S.A->Ops.size() != S.B->Ops.size())
        return fail(I, "malformed congruence step");
      for (size_t J = 0; J < S.A->Ops.size(); ++J)
        if (UF.find(S.A->Ops[J]) != UF.find(S.B->Ops[J]))
          return fail(I, "congruence operands not in one class");
      PendingClash = UF.merge(S.A, S.B, ClashA, ClashB);
      break;
    }
    case TrailStep::MergeProj: {
      if (!S.CA || !S.CB || S.CA->Kind != TermKind::Comp ||
          S.CB->Kind != TermKind::Comp)
        return fail(I, "malformed projection step");
      if (UF.find(S.CA) != UF.find(S.CB))
        return fail(I, "projected components not in one class");
      if (S.Idx < 0 || static_cast<size_t>(S.Idx) >= S.CA->Ops.size() ||
          S.CA->Ops.size() != S.CB->Ops.size())
        return fail(I, "projection index out of range");
      if (S.A != S.CA->Ops[S.Idx] || S.B != S.CB->Ops[S.Idx])
        return fail(I, "projection does not match component fields");
      PendingClash = UF.merge(S.A, S.B, ClashA, ClashB);
      break;
    }
    case TrailStep::ValueLit: {
      if (!S.A)
        return fail(I, "malformed value step");
      TermRef L = UF.literalOf(S.A);
      if (!L || L->Kind != TermKind::NumLit || L->IntVal != S.Val)
        return fail(I, "class has no numeric literal of claimed value");
      Vals[UF.find(S.A)] = S.Val;
      break;
    }
    case TrailStep::ValueFold: {
      if (!S.A ||
          (S.A->Kind != TermKind::Add && S.A->Kind != TermKind::Sub))
        return fail(I, "malformed fold step");
      auto VA = valueOf(S.A->Ops[0]);
      auto VB = valueOf(S.A->Ops[1]);
      if (!VA || !VB)
        return fail(I, "fold operands not valued");
      int64_t V = S.A->Kind == TermKind::Add ? *VA + *VB : *VA - *VB;
      if (V != S.Val)
        return fail(I, "fold value mismatch");
      TermRef R = UF.find(S.A);
      auto It = Vals.find(R);
      if (It != Vals.end() && It->second != V)
        return fail(I, "fold contradicts earlier value");
      Vals[R] = V;
      break;
    }
    case TrailStep::ConfBoolLit:
      if (!inQuery(S.From) || S.From.Atom->Kind != TermKind::BoolLit ||
          (S.From.Atom->IntVal != 0) == S.From.Pos)
        return fail(I, "bool-literal conflict does not hold");
      return Last ? true : fail(I, "steps after terminal conflict");
    case TrailStep::ConfDiseq:
      if (!inQuery(S.From) || S.From.Atom->Kind != TermKind::Eq ||
          S.From.Pos ||
          UF.find(S.From.Atom->Ops[0]) != UF.find(S.From.Atom->Ops[1]))
        return fail(I, "disequality conflict does not hold");
      return Last ? true : fail(I, "steps after terminal conflict");
    case TrailStep::ConfDiseqVal: {
      if (!inQuery(S.From) || S.From.Atom->Kind != TermKind::Eq || S.From.Pos)
        return fail(I, "malformed valued-disequality conflict");
      auto VA = valueOf(S.From.Atom->Ops[0]);
      auto VB = valueOf(S.From.Atom->Ops[1]);
      if (!VA || !VB || *VA != *VB)
        return fail(I, "valued-disequality conflict does not hold");
      return Last ? true : fail(I, "steps after terminal conflict");
    }
    case TrailStep::ConfOrderSelf: {
      if (!inQuery(S.From))
        return fail(I, "premise literal not in query");
      auto O = normOrder(S.From);
      if (!O || !O->Strict || UF.find(O->Lhs) != UF.find(O->Rhs))
        return fail(I, "strict self-order conflict does not hold");
      return Last ? true : fail(I, "steps after terminal conflict");
    }
    case TrailStep::ConfOrderGround: {
      if (!inQuery(S.From))
        return fail(I, "premise literal not in query");
      auto O = normOrder(S.From);
      if (!O)
        return fail(I, "not an order literal");
      auto VL = valueOf(O->Lhs);
      auto VR = valueOf(O->Rhs);
      if (!VL || !VR || (O->Strict ? *VL < *VR : *VL <= *VR))
        return fail(I, "ground order conflict does not hold");
      return Last ? true : fail(I, "steps after terminal conflict");
    }
    case TrailStep::ConfBounds: {
      if (!inQuery(S.From) || !inQuery(S.From2))
        return fail(I, "premise literal not in query");
      auto OL = normOrder(S.From);  // lower fact: Lhs valued
      auto OH = normOrder(S.From2); // upper fact: Rhs valued
      if (!OL || !OH)
        return fail(I, "not order literals");
      auto VL = valueOf(OL->Lhs);
      auto VH = valueOf(OH->Rhs);
      if (!VL || !VH)
        return fail(I, "bound sides not valued");
      if (UF.find(OL->Rhs) != UF.find(OH->Lhs))
        return fail(I, "bounds do not constrain one class");
      int64_t LoB = OL->Strict ? *VL + 1 : *VL;
      int64_t HiB = OH->Strict ? *VH - 1 : *VH;
      if (LoB <= HiB)
        return fail(I, "bounds do not cross");
      return Last ? true : fail(I, "steps after terminal conflict");
    }
    case TrailStep::ConfBoundLit: {
      if (!inQuery(S.From) || !S.A)
        return fail(I, "malformed bound-literal conflict");
      auto O = normOrder(S.From);
      if (!O)
        return fail(I, "not an order literal");
      TermRef L = UF.literalOf(S.A);
      if (!L || L->Kind != TermKind::NumLit)
        return fail(I, "bounded class has no numeric literal");
      if (S.A == O->Rhs) {
        auto V = valueOf(O->Lhs);
        if (!V || L->IntVal >= (O->Strict ? *V + 1 : *V))
          return fail(I, "lower bound conflict does not hold");
      } else if (S.A == O->Lhs) {
        auto V = valueOf(O->Rhs);
        if (!V || L->IntVal <= (O->Strict ? *V - 1 : *V))
          return fail(I, "upper bound conflict does not hold");
      } else {
        return fail(I, "bounded term not a side of the order literal");
      }
      return Last ? true : fail(I, "steps after terminal conflict");
    }
    case TrailStep::ConfArith: {
      if (!S.A ||
          (S.A->Kind != TermKind::Add && S.A->Kind != TermKind::Sub))
        return fail(I, "malformed arithmetic conflict");
      auto VA = valueOf(S.A->Ops[0]);
      auto VB = valueOf(S.A->Ops[1]);
      auto Existing = valueOf(S.A);
      if (!VA || !VB || !Existing)
        return fail(I, "arithmetic conflict operands not valued");
      int64_t V = S.A->Kind == TermKind::Add ? *VA + *VB : *VA - *VB;
      if (V != S.Val || V == *Existing)
        return fail(I, "arithmetic conflict does not hold");
      return Last ? true : fail(I, "steps after terminal conflict");
    }
    case TrailStep::ConfMergeLits:
    case TrailStep::ConfMergeComps:
      return fail(I, "merge conflict without a clashing merge");
    }
  }
  if (PendingClash)
    return fail(T.Steps.size(), "clashing merge left unconfirmed");
  return fail(T.Steps.size(), "trail ends without a conflict");
}

std::string formatReasonTrail(const TermContext &Ctx, const ReasonTrail &T) {
  auto lit = [&](const Lit &L) {
    if (!L.Atom)
      return std::string("?");
    return (L.Pos ? "" : "!") + Ctx.str(L.Atom);
  };
  std::string Out = "unsat[";
  for (size_t I = 0; I < T.Query.size(); ++I) {
    if (I)
      Out += " & ";
    Out += lit(T.Query[I]);
  }
  Out += "] :: ";
  for (size_t I = 0; I < T.Steps.size(); ++I) {
    const TrailStep &S = T.Steps[I];
    if (I)
      Out += "; ";
    switch (S.K) {
    case TrailStep::MergeInput:
      Out += "m:in(" + Ctx.str(S.A) + "=" + Ctx.str(S.B) + " @" +
             lit(S.From) + ")";
      break;
    case TrailStep::MergeCongr:
      Out += "m:cg(" + Ctx.str(S.A) + "=" + Ctx.str(S.B) + ")";
      break;
    case TrailStep::MergeProj:
      Out += "m:pj(" + Ctx.str(S.A) + "=" + Ctx.str(S.B) + " #" +
             std::to_string(S.Idx) + ")";
      break;
    case TrailStep::ValueLit:
      Out += "v:lit(" + Ctx.str(S.A) + "=" + std::to_string(S.Val) + ")";
      break;
    case TrailStep::ValueFold:
      Out += "v:fold(" + Ctx.str(S.A) + "=" + std::to_string(S.Val) + ")";
      break;
    case TrailStep::ConfMergeLits:
      Out += "conf:lits(" + Ctx.str(S.A) + "," + Ctx.str(S.B) + ")";
      break;
    case TrailStep::ConfMergeComps:
      Out += "conf:comps(" + Ctx.str(S.A) + "," + Ctx.str(S.B) + ")";
      break;
    case TrailStep::ConfBoolLit:
      Out += "conf:bool(@" + lit(S.From) + ")";
      break;
    case TrailStep::ConfDiseq:
      Out += "conf:diseq(@" + lit(S.From) + ")";
      break;
    case TrailStep::ConfDiseqVal:
      Out += "conf:diseqval(@" + lit(S.From) + ")";
      break;
    case TrailStep::ConfOrderSelf:
      Out += "conf:self(@" + lit(S.From) + ")";
      break;
    case TrailStep::ConfOrderGround:
      Out += "conf:ground(@" + lit(S.From) + ")";
      break;
    case TrailStep::ConfBounds:
      Out += "conf:bounds(@" + lit(S.From) + ",@" + lit(S.From2) + ")";
      break;
    case TrailStep::ConfBoundLit:
      Out += "conf:boundlit(@" + lit(S.From) + "," + Ctx.str(S.A) + ")";
      break;
    case TrailStep::ConfArith:
      Out += "conf:arith(" + Ctx.str(S.A) + "=" + std::to_string(S.Val) +
             ")";
      break;
    }
  }
  return Out;
}

} // namespace reflex
