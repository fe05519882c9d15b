//===- service/scheduler.cc - Parallel verification scheduling ------------===//

#include "service/scheduler.h"

#include "service/threadpool.h"
#include "support/timer.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <map>
#include <memory>
#include <stdexcept>
#include <thread>

namespace reflex {

bool BatchOutcome::allProved() const {
  for (const VerificationReport &R : Reports)
    if (!R.allProved())
      return false;
  return !Reports.empty();
}

unsigned BatchOutcome::provedCount() const {
  unsigned N = 0;
  for (const VerificationReport &R : Reports)
    N += R.provedCount();
  return N;
}

unsigned BatchOutcome::propertyCount() const {
  unsigned N = 0;
  for (const VerificationReport &R : Reports)
    N += unsigned(R.Results.size());
  return N;
}

namespace {

/// One schedulable unit: a property of a program. Slot is the result
/// position within the program's report (for a full batch it equals the
/// declaration index; for a subset batch it is the position within the
/// requested index list). DupOf points at the byte-identical job whose
/// result this slot copies (SIZE_MAX: dispatch normally).
struct Job {
  size_t ProgIdx;
  size_t Slot;
  size_t PropIdx;
  size_t DupOf = SIZE_MAX;
};

/// Work counters a worker's session contributes to a program's report.
struct WorkCounters {
  size_t TermCount = 0;
  uint64_t SolverQueries = 0;
  uint64_t InvariantCacheHits = 0;
  uint64_t SolverMemoHits = 0;
  uint64_t SolverAssumptionChecks = 0;
  uint64_t SolverTrailUndos = 0;
  uint64_t SolverReasonLogBytes = 0;
};

/// Per-program shared state under SchedulerOptions::SharedCaches: the
/// phase-1 frozen abstraction (built once by whichever worker gets there
/// first, then shared read-only) and the phase-2 cross-worker cache
/// tiers. Heap-allocated per program because the members are immovable.
struct ProgramShare {
  std::mutex Mu; ///< guards Abs (get-or-build); caches lock internally
  std::shared_ptr<const FrozenAbstraction> Abs;
  SharedVerifyCaches Caches;
};

/// The shared core behind verifyPrograms and verifyPropertySubset:
/// verifies, for each program, exactly the properties whose declaration
/// indices appear in its PropIdx list, slotting results in list order.
BatchOutcome runBatch(const std::vector<const Program *> &Programs,
                      const std::vector<std::vector<size_t>> &PropIdx,
                      const SchedulerOptions &Opts) {
  BatchOutcome Out;
  WallTimer Timer;

  ProofCache::Stats Before;
  if (Opts.Cache)
    Before = Opts.Cache->stats();

  // The batch cancellation token overrides any Verify-level flag: one
  // token covers every job of the batch (and, reusably, every batch a
  // caller arms with it). It is delivered through an explicit per-job
  // Deadline rather than VerifyOptions — options get baked into frozen
  // abstractions, which a persistent VerifyShare carries into *later*
  // batches, and a stale client's fired token must never abort them.
  // Cancellation is deliberately not part of the cache options
  // fingerprint: it changes when an attempt ends, never what a
  // completed proof looks like.
  VerifyOptions VOpts = Opts.Verify;
  if (Opts.Cancel)
    VOpts.Cancel = nullptr;
  auto BatchCancelled = [&Opts] {
    return Opts.Cancel && Opts.Cancel->cancelled();
  };

  // Jobs in request order; per-program fingerprints computed once (they
  // render the whole kernel). The cache keys lookups off them, and the
  // dedup pass below uses them as program identity.
  std::vector<Job> Jobs;
  std::vector<ProgramFingerprints> Fps(Programs.size());
  for (size_t PI = 0; PI < Programs.size(); ++PI) {
    Fps[PI] = ProgramFingerprints::compute(*Programs[PI]);
    size_t Slot = 0;
    for (size_t I : PropIdx[PI])
      if (I < Programs[PI]->Properties.size())
        Jobs.push_back({PI, Slot++, I});
  }

  // Dedup identical jobs before dispatch: same declarations, same handler
  // bodies, same property text -> same verdict (the determinism
  // contract), so dispatch the first and copy its slot into the others
  // after the barrier. \x1f separates the components unambiguously (it
  // cannot appear in rendered programs). Deliberately *not* refined by
  // path-granular footprints: slot copying requires byte-identical
  // programs, which HandlersFp already pins (identical printed bodies =>
  // identical rendered paths); footprint-relative equivalence across
  // *different* programs is the proof cache's job, where it is validated
  // per entry rather than assumed per job.
  {
    std::map<std::string, size_t> FirstJob;
    for (size_t J = 0; J < Jobs.size(); ++J) {
      const Job &Jb = Jobs[J];
      std::string IdKey = Fps[Jb.ProgIdx].DeclFp + '\x1f' +
                          Fps[Jb.ProgIdx].HandlersFp + '\x1f' +
                          Programs[Jb.ProgIdx]->Properties[Jb.PropIdx].str();
      auto [It, Fresh] = FirstJob.emplace(std::move(IdKey), J);
      if (!Fresh) {
        Jobs[J].DupOf = It->second;
        ++Out.DedupedJobs;
      }
    }
  }

  // Result slots: each is written by exactly one worker; the pool's
  // wait() barrier publishes them to this thread.
  std::vector<std::vector<PropertyResult>> Slots(Programs.size());
  for (const Job &Jb : Jobs)
    if (Jb.Slot >= Slots[Jb.ProgIdx].size())
      Slots[Jb.ProgIdx].resize(Jb.Slot + 1);

  std::atomic<size_t> NextJob{0};
  std::mutex CountersMu;
  std::vector<WorkCounters> Counters(Programs.size());

  unsigned Workers = Opts.Jobs ? Opts.Jobs : ThreadPool::defaultWorkerCount();
  // Never spawn more workers than jobs: an idle worker would still build
  // nothing, but the clamp keeps session counts (and TSan schedules) tidy.
  if (size_t(Workers) > Jobs.size() && !Jobs.empty())
    Workers = unsigned(Jobs.size());
  if (Workers == 0)
    Workers = 1;
  // Workers is the *logical* concurrency cap; the pool never runs more
  // OS threads than the machine has cores. Oversubscribed CPU-bound
  // workers add context-switch and cache-eviction overhead without
  // adding concurrency — on a single-core host it turns "--jobs 4" into
  // a measurable slowdown. Verdicts are thread-count independent (the
  // determinism contract above), so the clamp is unobservable outside
  // timing.
  unsigned Threads = std::min(Workers, ThreadPool::defaultWorkerCount());
  if (Threads == 0)
    Threads = 1;

  // Phase-1 slots: one shared frozen abstraction (plus cross-worker cache
  // tiers) per program, built on first demand. A single-program batch
  // handed a persistent VerifyShare uses — and warms — that instead, so
  // the abstraction and the cache tiers survive into the owner's next
  // batch (the daemon's session warm path).
  std::vector<std::unique_ptr<ProgramShare>> Shares;
  VerifyShare *Persist =
      (Opts.SharedCaches && Programs.size() == 1) ? Opts.Share : nullptr;
  if (Opts.SharedCaches && !Persist) {
    Shares.reserve(Programs.size());
    for (size_t PI = 0; PI < Programs.size(); ++PI)
      Shares.push_back(std::make_unique<ProgramShare>());
  }

  // Builds a session for one program. Shared mode: get-or-build the
  // program's FrozenAbstraction under its mutex and lay a private overlay
  // session over it; a build whose budget expired is *not* left in the
  // shared slot, so a retry rebuilds from scratch — matching the old
  // fresh-session-per-retry semantics. The cross-worker cache tiers are
  // attached when more than one thread actually runs (on a single thread
  // the private tiers already see every entry first; the shared tiers
  // would only add locking and publish copies) — or always, for a
  // persistent share, whose whole point is carrying entries across
  // batches after this batch's private sessions are gone.
  auto MakeSession = [&](size_t ProgIdx) -> std::unique_ptr<VerifySession> {
    const Program &P = *Programs[ProgIdx];
    if (!Opts.SharedCaches)
      return std::make_unique<VerifySession>(P, VOpts);
    std::mutex &ShMu = Persist ? Persist->Mu : Shares[ProgIdx]->Mu;
    std::shared_ptr<const FrozenAbstraction> &ShAbs =
        Persist ? Persist->Abs : Shares[ProgIdx]->Abs;
    SharedVerifyCaches &ShCaches =
        Persist ? Persist->Caches : Shares[ProgIdx]->Caches;
    std::shared_ptr<const FrozenAbstraction> Abs;
    {
      std::lock_guard<std::mutex> Lock(ShMu);
      if (!ShAbs) {
        ShAbs = FrozenAbstraction::build(P, VOpts);
        if (ShAbs->buildOutcome() != BudgetOutcome::Ok)
          Abs = std::move(ShAbs); // keep the failed build out of the slot
      }
      if (!Abs)
        Abs = ShAbs;
    }
    return std::make_unique<VerifySession>(
        std::move(Abs), (Persist || Threads > 1) ? &ShCaches : nullptr);
  };

  // One job, with isolation and retries: every attempt runs inside a
  // catch-all (the library is exception-free by convention, but workers
  // are the last line of defense — and the fault plan injects throws
  // here on purpose). A crash or a transient budget failure poisons at
  // most this worker's session for the program, which is rebuilt fresh
  // for the retry; the returned result is a pure function of
  // (program, property, options, fault plan), never of interleaving.
  auto RunJob =
      [&](std::map<size_t, std::unique_ptr<VerifySession>> &Sessions,
          const Job &Jb) -> PropertyResult {
    const Program &P = *Programs[Jb.ProgIdx];
    const Property &Prop = P.Properties[Jb.PropIdx];
    const std::string JobTag = P.Name + "/" + Prop.Name;
    const unsigned MaxAttempts = Opts.Retries + 1;
    std::string CrashWhat;
    for (unsigned A = 0;; ++A) {
      if (A && Opts.RetryBackoffMs) {
        uint64_t Ms = std::min<uint64_t>(
            uint64_t(Opts.RetryBackoffMs) << (A - 1), 250);
        std::this_thread::sleep_for(std::chrono::milliseconds(Ms));
      }
      bool Crashed = false;
      PropertyResult R;
      try {
        if (Opts.Faults && Opts.Faults->decide("worker", JobTag + "#" +
                                                             std::to_string(
                                                                 A)) !=
                               FaultKind::None)
          throw std::runtime_error("injected worker fault");
        // Lazy session: a warm cache hit (Unknown, unchecked Proved, or a
        // Proved one already in the re-check memo) is served without ever
        // building one.
        auto SessionFor = [&]() -> VerifySession & {
          std::unique_ptr<VerifySession> &Session = Sessions[Jb.ProgIdx];
          if (!Session)
            Session = MakeSession(Jb.ProgIdx);
          return *Session;
        };
        bool FaultBudget =
            Opts.Faults &&
            Opts.Faults->decide("budget", JobTag) != FaultKind::None;
        if (FaultBudget || Opts.Cancel) {
          // An explicit per-attempt budget: the injected one-step fault
          // budget, or the batch's limits with the cancellation token
          // attached (the token never rides in VerifyOptions — see the
          // VOpts note above).
          Deadline D;
          if (FaultBudget)
            D.setStepBudget(1);
          else {
            D.setWallMillis(VOpts.TimeoutMillis);
            D.setStepBudget(VOpts.StepBudget);
          }
          if (Opts.Cancel)
            D.setCancelFlag(Opts.Cancel);
          R = verifyPropertyCached(P, VOpts, SessionFor, Prop, Opts.Cache,
                                   &Fps[Jb.ProgIdx], &D);
        } else {
          R = verifyPropertyCached(P, VOpts, SessionFor, Prop, Opts.Cache,
                                   &Fps[Jb.ProgIdx]);
        }
      } catch (const std::exception &E) {
        Crashed = true;
        CrashWhat = E.what();
      } catch (...) {
        Crashed = true;
        CrashWhat = "unknown exception";
      }
      if (Crashed) {
        // The session may have been mid-mutation; never reuse it.
        Sessions[Jb.ProgIdx].reset();
        if (A + 1 < MaxAttempts)
          continue;
        PropertyResult F;
        F.Name = Prop.Name;
        F.Status = VerifyStatus::Aborted;
        F.Reason = "worker crashed: " + CrashWhat + " (" +
                   std::to_string(MaxAttempts) +
                   (MaxAttempts == 1 ? " attempt)" : " attempts)");
        F.Attempts = MaxAttempts;
        return F;
      }
      R.Attempts = A + 1;
      bool Transient = R.Status == VerifyStatus::Timeout ||
                       R.Status == VerifyStatus::ResourceExhausted;
      if (Transient && A + 1 < MaxAttempts) {
        Sessions[Jb.ProgIdx].reset(); // retry on a fresh session
        continue;
      }
      return R;
    }
  };

  auto WorkerBody = [&] {
    // Per-worker sessions: the overlay TermContext and the private memo
    // tiers are not thread-safe and are never shared across workers (the
    // frozen base and the sharded cache tiers underneath them are).
    std::map<size_t, std::unique_ptr<VerifySession>> Sessions;
    for (;;) {
      size_t J = NextJob.fetch_add(1, std::memory_order_relaxed);
      if (J >= Jobs.size())
        break;
      const Job &Jb = Jobs[J];
      if (Jb.DupOf != SIZE_MAX)
        continue; // slot filled from the canonical job after the barrier
      if (BatchCancelled()) {
        // The cancellation beat this job to dispatch: abort it in place,
        // with the same status and reason a Deadline-detected abort
        // mid-proof produces, so reports do not depend on which side of
        // the dispatch the token fired (verifier.cc's budget wording).
        PropertyResult R;
        R.Name = Programs[Jb.ProgIdx]->Properties[Jb.PropIdx].Name;
        R.Status = VerifyStatus::Aborted;
        R.Reason = "verification budget exhausted: cancelled by caller";
        Slots[Jb.ProgIdx][Jb.Slot] = std::move(R);
        continue;
      }
      Slots[Jb.ProgIdx][Jb.Slot] = RunJob(Sessions, Jb);
    }
    // Contribute this worker's session counters before exiting. A slot
    // may be null — the session was never built (every job served warm
    // from the proof cache) or was discarded after a crashed attempt.
    std::lock_guard<std::mutex> Lock(CountersMu);
    for (const auto &[ProgIdx, Session] : Sessions) {
      if (!Session)
        continue;
      WorkCounters &C = Counters[ProgIdx];
      C.TermCount += Session->termContext().termCount();
      C.SolverQueries += Session->solverQueries();
      C.InvariantCacheHits += Session->invariantCacheHits();
      const SolverStats &SS = Session->solverStats();
      C.SolverMemoHits += SS.MemoHits + SS.SharedMemoHits;
      C.SolverAssumptionChecks += SS.AssumptionChecks;
      C.SolverTrailUndos += SS.TrailUndos;
      C.SolverReasonLogBytes += SS.ReasonLogBytes;
    }
  };

  if (Threads == 1) {
    // Degenerate case: run inline; no pool, no synchronization.
    WorkerBody();
  } else {
    // The calling thread is one of the workers: a pool of Threads-1 plus
    // this thread. Blocking in wait() while the pool computes would
    // waste a core's worth of work on machines where cores are scarce.
    ThreadPool Pool(Threads - 1);
    for (unsigned I = 0; I + 1 < Threads; ++I)
      Pool.post(WorkerBody);
    WorkerBody();
    Pool.wait();
  }

  // Fill deduplicated slots from their canonical jobs (the pool's wait()
  // barrier above published every canonical result). The copy includes
  // the live certificate's TermRefs — same lifetime caveat as any slot:
  // consumers that outlive the producing session use CertJson.
  for (const Job &Jb : Jobs)
    if (Jb.DupOf != SIZE_MAX) {
      const Job &Src = Jobs[Jb.DupOf];
      Slots[Jb.ProgIdx][Jb.Slot] = Slots[Src.ProgIdx][Src.Slot];
    }

  // Deterministic merge: input order, declaration order, counters summed.
  Out.Reports.resize(Programs.size());
  for (size_t PI = 0; PI < Programs.size(); ++PI) {
    VerificationReport &R = Out.Reports[PI];
    R.ProgramName = Programs[PI]->Name;
    R.Results = std::move(Slots[PI]);
    for (const PropertyResult &PR : R.Results) {
      R.TotalMillis += PR.Millis;
      if (Opts.Cache) {
        if (PR.CacheHit)
          ++R.ProofCacheHits;
        else
          ++R.ProofCacheMisses;
        if (PR.FootprintHit)
          ++R.FootprintHits;
        if (PR.PathHit)
          ++R.PathHits;
        if (PR.PathFallback)
          ++R.PathFallbacks;
      }
    }
    R.TermCount = Counters[PI].TermCount;
    R.SolverQueries = Counters[PI].SolverQueries;
    R.InvariantCacheHits = Counters[PI].InvariantCacheHits;
    R.SolverMemoHits = Counters[PI].SolverMemoHits;
    R.SolverAssumptionChecks = Counters[PI].SolverAssumptionChecks;
    R.SolverTrailUndos = Counters[PI].SolverTrailUndos;
    R.SolverReasonLogBytes = Counters[PI].SolverReasonLogBytes;
  }

  if (Opts.Cache) {
    ProofCache::Stats After = Opts.Cache->stats();
    Out.CacheStats.Hits = After.Hits - Before.Hits;
    Out.CacheStats.Misses = After.Misses - Before.Misses;
    Out.CacheStats.Stores = After.Stores - Before.Stores;
    Out.CacheStats.Rejected = After.Rejected - Before.Rejected;
    Out.CacheStats.Quarantined = After.Quarantined - Before.Quarantined;
    Out.CacheStats.FootprintHits = After.FootprintHits - Before.FootprintHits;
    Out.CacheStats.PathHits = After.PathHits - Before.PathHits;
    Out.CacheStats.PathFallbacks = After.PathFallbacks - Before.PathFallbacks;
    Out.CacheStats.DecodeMillis = After.DecodeMillis - Before.DecodeMillis;
    Out.CacheStats.RecheckMillis = After.RecheckMillis - Before.RecheckMillis;
    Out.CacheStats.SweptTmp = After.SweptTmp; // counted at open, not per batch
  }
  Out.TotalMillis = Timer.elapsedMillis();
  return Out;
}

} // namespace

BatchOutcome verifyPrograms(const std::vector<const Program *> &Programs,
                            const SchedulerOptions &Opts) {
  std::vector<std::vector<size_t>> Idx(Programs.size());
  for (size_t PI = 0; PI < Programs.size(); ++PI)
    for (size_t I = 0; I < Programs[PI]->Properties.size(); ++I)
      Idx[PI].push_back(I);
  return runBatch(Programs, Idx, Opts);
}

BatchOutcome verifyPropertySubset(const Program &P,
                                  const std::vector<size_t> &PropIdx,
                                  const SchedulerOptions &Opts) {
  return runBatch({&P}, {PropIdx}, Opts);
}

VerificationReport verifyParallel(const Program &P,
                                  const SchedulerOptions &Opts) {
  BatchOutcome Out = verifyPrograms({&P}, Opts);
  VerificationReport R = std::move(Out.Reports.front());
  // For a single program the batch wall clock *is* the program's wall
  // clock; report it the way verifyAll does.
  R.TotalMillis = Out.TotalMillis;
  return R;
}

} // namespace reflex
