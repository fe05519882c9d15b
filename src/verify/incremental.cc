//===- verify/incremental.cc - Incremental re-verification ------*- C++ -*-===//

#include "verify/incremental.h"

#include "ast/printer.h"
#include "service/proofcache.h"
#include "service/scheduler.h"
#include "support/timer.h"

#include <memory>
#include <set>
#include <sstream>

namespace reflex {

IncrementalVerifier::IncrementalVerifier(const VerifyOptions &Opts,
                                         ProofCache *Cache)
    : Opts(Opts), Cache(Cache) {}

IncrementalVerifier::~IncrementalVerifier() = default;

void IncrementalVerifier::setScheduler(const SchedulerOptions &S) {
  Sched = std::make_unique<SchedulerOptions>(S);
}

std::string codeFingerprint(const Program &P) {
  // Render everything except properties. printProgram emits properties
  // last, but re-rendering a stripped structural copy avoids depending on
  // that: print section by section.
  std::string Out = printProgram(P);
  size_t Pos = Out.find("\nproperty ");
  if (Pos != std::string::npos)
    Out.resize(Pos);
  return Out;
}

void IncrementalVerifier::seedVerdicts(
    const Program &P, std::map<std::string, PropertyResult> Seeds) {
  LastFp = ProgramFingerprints::compute(P);
  // The seeded verdicts' footprints name path ids of *this* program, so
  // the old side of the next edit's path comparison is this program's
  // rendered abstraction.
  std::shared_ptr<const FrozenAbstraction> Abs =
      FrozenAbstraction::build(P, Opts);
  LastPathFp.clear();
  if (Abs->buildOutcome() == BudgetOutcome::Ok)
    LastPathFp = computePathFingerprints(Abs->context(), Abs->behAbs());
  HaveLast = true;
  Verdicts = std::move(Seeds);
}

IncrementalVerifier::Outcome IncrementalVerifier::verify(const Program &P) {
  Outcome Out;
  Out.Report.ProgramName = P.Name;
  WallTimer Timer;

  ProgramFingerprints Fp = ProgramFingerprints::compute(P);
  // Property keys whose verdicts survived a handler edit *this call*.
  std::set<std::string> RetainedByFootprint;

  // The current program's frozen abstraction, built at most once per call
  // and reused everywhere it is needed: the rendered path fingerprints,
  // the sequential pass-2 session, and — in scheduler mode with a
  // persistent share — the share's phase-1 slot.
  std::shared_ptr<const FrozenAbstraction> Abs;
  auto AbsFor = [&]() -> const FrozenAbstraction & {
    if (!Abs) {
      VerifyOptions BuildOpts = Opts;
      if (Sched && Sched->Cancel)
        BuildOpts.Cancel = nullptr; // the scheduler strips it too (its
                                    // token rides per-job Deadlines)
      Abs = FrozenAbstraction::build(P, BuildOpts);
    }
    return *Abs;
  };
  auto PathFpsFor = [&]() -> PathFingerprints {
    const FrozenAbstraction &A = AbsFor();
    if (A.buildOutcome() != BudgetOutcome::Ok)
      return {}; // no per-path identity for a truncated build: reuse
                 // against it conservatively falls back
    return computePathFingerprints(A.context(), A.behAbs());
  };

  bool ProgramChanged = !HaveLast;
  bool PathFpCurrent = false;
  if (HaveLast) {
    if (Fp.DeclFp != LastFp.DeclFp) {
      // Declarations changed (components, messages, state variables,
      // init): everything a proof consulted may mean something else now.
      Verdicts.clear();
      ProgramChanged = true;
    } else {
      FingerprintDelta D = fingerprintDelta(LastFp.Handlers, Fp.Handlers);
      if (!D.empty()) {
        ProgramChanged = true;
        // Handler bodies changed: keep exactly the verdicts whose proofs
        // provably did not look at the edit — comparing the old and new
        // rendered summaries path by path (see verify/footprint.h).
        PathFingerprints NewPathFp = PathFpsFor();
        for (auto It = Verdicts.begin(); It != Verdicts.end();) {
          if (footprintReusable(It->second.Footprint, D, LastPathFp,
                                NewPathFp, Granularity)) {
            if (Granularity == FootprintGranularity::Path &&
                !footprintReusable(It->second.Footprint, D, LastPathFp,
                                   NewPathFp, FootprintGranularity::Handler))
              It->second.PathHit = true;
            It->second.FootprintHit = true;
            RetainedByFootprint.insert(It->first);
            ++It;
          } else {
            ++Out.Report.PathFallbacks;
            It = Verdicts.erase(It);
          }
        }
        LastPathFp = std::move(NewPathFp);
        PathFpCurrent = true;
      }
    }
  }
  // Keep LastPathFp pinned to the program LastFp describes: the next
  // edit's reuse decision compares against it as the "old" side.
  if (ProgramChanged && !PathFpCurrent)
    LastPathFp = PathFpsFor();
  LastFp = std::move(Fp);
  HaveLast = true;

  // Pass 1, in declaration order: serve what survives, collect what must
  // be (re)verified.
  std::vector<PropertyResult> Results(P.Properties.size());
  std::vector<size_t> NeedIdx;
  // Audit mode: every property served without a fresh verification.
  std::vector<const Property *> ToAudit;
  for (size_t I = 0; I < P.Properties.size(); ++I) {
    const Property &Prop = P.Properties[I];
    std::string Key = Prop.str();
    auto It = Verdicts.find(Key);
    if (It != Verdicts.end()) {
      ++Out.Reused;
      if (RetainedByFootprint.count(Key))
        ++Out.FootprintReused;
      if (It->second.FootprintHit)
        ++Out.Report.FootprintHits;
      if (It->second.PathHit)
        ++Out.Report.PathHits;
      if (AuditReuse)
        ToAudit.push_back(&Prop);
      Results[I] = It->second;
      continue;
    }
    NeedIdx.push_back(I);
  }

  // Pass 2: verify the needed properties — either through the parallel
  // scheduler as one batch sharing a frozen abstraction (setScheduler;
  // this is the daemon's `edit` path), or on one private sequential
  // session. Both are verdict-identical.
  if (!NeedIdx.empty()) {
    if (Sched) {
      // Seed the persistent share's phase-1 slot with the abstraction
      // already built for the path fingerprints, so the batch's workers
      // do not rebuild it. Budget-failed builds stay out of the slot,
      // exactly as the scheduler's own get-or-build keeps them out.
      if (Sched->Share && Abs && Abs->buildOutcome() == BudgetOutcome::Ok) {
        std::lock_guard<std::mutex> Lock(Sched->Share->Mu);
        if (!Sched->Share->Abs)
          Sched->Share->Abs = Abs;
      }
      SchedulerOptions S = *Sched;
      S.Verify = Opts;
      S.Cache = Cache;
      BatchOutcome B = verifyPropertySubset(P, NeedIdx, S);
      for (size_t J = 0; J < NeedIdx.size(); ++J)
        Results[NeedIdx[J]] = std::move(B.Reports[0].Results[J]);
    } else {
      // The session reuses the abstraction the path fingerprints were
      // computed from (verdict-identical to a private build: the builder
      // is deterministic).
      AbsFor();
      VerifySession Session(Abs);
      for (size_t I : NeedIdx)
        Results[I] = verifyPropertyCached(Session, P.Properties[I], Cache,
                                          &LastFp, nullptr, &LastPathFp);
    }
    for (size_t I : NeedIdx) {
      PropertyResult &R = Results[I];
      ++Out.Reverified;
      if (R.CacheHit) {
        ++Out.CacheHits;
        if (AuditReuse)
          ToAudit.push_back(&P.Properties[I]);
      }
      if (R.FootprintHit)
        ++Out.Report.FootprintHits;
      if (R.PathHit)
        ++Out.Report.PathHits;
      if (R.PathFallback)
        ++Out.Report.PathFallbacks;
      // Strip only what cannot outlive the session: the live certificate
      // (its terms reference the session's term context) and the
      // counterexample trace. The certificate JSON is retained, so reused
      // proved verdicts still carry their proof in exportable form.
      R.Cert = Certificate();
      R.Counterexample = Trace();
      // Budget statuses are circumstances, not verdicts: a later edit
      // cycle may well have the time the last one lacked, so never reuse
      // them.
      if (!isBudgetStatus(R.Status))
        Verdicts[P.Properties[I].str()] = R;
    }
  }
  for (PropertyResult &R : Results)
    Out.Report.Results.push_back(std::move(R));

  if (!ToAudit.empty()) {
    // Re-prove every served verdict in a fresh session (no cache, no
    // reuse) and require byte-identical results. Verdicts are
    // deterministic functions of (program, property, options), so any
    // disagreement means a reuse decision was unsound.
    VerifySession Fresh(P, Opts);
    for (const Property *Prop : ToAudit) {
      PropertyResult Ref = Fresh.verify(*Prop);
      const PropertyResult *Served = Out.Report.find(Prop->Name);
      ++Out.Audited;
      std::ostringstream Err;
      if (!Served)
        Err << "served result vanished from the report";
      else if (Served->Status != Ref.Status)
        Err << "status mismatch: served " << verifyStatusName(Served->Status)
            << ", fresh " << verifyStatusName(Ref.Status);
      else if (Served->Reason != Ref.Reason)
        Err << "reason mismatch: served '" << Served->Reason << "', fresh '"
            << Ref.Reason << "'";
      else if (Served->Status == VerifyStatus::Proved &&
               Served->CertJson != Ref.CertJson)
        Err << "certificate mismatch (served and fresh audit JSON differ)";
      std::string Msg = Err.str();
      if (!Msg.empty()) {
        ++Out.AuditFailures;
        Out.AuditErrors.push_back(Prop->Name + ": " + Msg);
      }
    }
  }

  Out.Report.TotalMillis = Timer.elapsedMillis();
  return Out;
}

} // namespace reflex
