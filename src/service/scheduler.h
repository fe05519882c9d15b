//===- service/scheduler.h - Parallel verification scheduling ---*- C++ -*-===//
//
// Part of the Reflex/C++ reproduction of "Automating Formal Proofs for
// Reactive Systems" (PLDI 2014).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Schedules a batch of (program, property) verification jobs across a
/// thread pool, in two phases (docs/PERF.md). Phase 1, once per program:
/// build a FrozenAbstraction — the term context plus symbolically
/// executed handler summaries, frozen immutable — and share it read-only
/// across workers via shared_ptr. Phase 2, per property in parallel:
/// each worker's VerifySession lays a private overlay TermContext over
/// the frozen base; property-local terms, the solver memo and the §6.4
/// invariant cache are single-threaded state and stay private to the
/// session. Properties are handed out from a global work list (dynamic
/// load balancing — NI properties dominate runtimes, so static
/// partitioning would straggle).
///
/// Identical jobs are deduplicated before dispatch: two (program,
/// property) pairs whose program fingerprints (declarations + every
/// handler body, verify/footprint.h) and property text coincide are
/// provably the same verification (verdicts are functions of (program,
/// property, options) only), so only the first is dispatched and the
/// duplicate's declaration-order slot receives a copy of its result.
/// Batches that verify the same kernel under many names — CI matrices,
/// the bench's repeated programs — pay for each distinct proof once.
///
/// Determinism: per-property statuses, reasons, and certificates are
/// functions of (program, property, options) only — the prover is
/// deterministic and every cache is semantically transparent: a hit
/// returns exactly what the worker would have computed. So any worker
/// count produces the same verdict list. Reports are merged with results
/// in declaration order and aggregate work counters summed across every
/// session that served the program.
///
/// Fault tolerance: every job runs inside a catch-all; a worker that
/// throws (or a job that exhausts its budget) is retried on a fresh
/// private session with capped exponential backoff, up to
/// SchedulerOptions::Retries extra attempts, after which the job reports
/// its failure diagnostics in its declaration-order slot. One bad job
/// costs one verdict, never the batch. Injected faults (FaultPlan
/// decisions, which are pure functions of (seed, site, key)) preserve the
/// worker-count determinism above; genuinely *timing*-dependent failures
/// (a real wall-clock deadline under load) by nature may not.
///
//===----------------------------------------------------------------------===//

#ifndef REFLEX_SERVICE_SCHEDULER_H
#define REFLEX_SERVICE_SCHEDULER_H

#include "service/proofcache.h"
#include "verify/verifier.h"

#include <memory>
#include <mutex>
#include <vector>

namespace reflex {

/// A persistent per-program share, owned by a caller that verifies the
/// same program across many batches (the daemon's open sessions, the
/// incremental verifier's edit loop): the phase-1 FrozenAbstraction,
/// built by the first batch that needs it and reused by every later
/// batch handed the same share. This is what lets an `edit` request's
/// re-verified dependents — and every identical-program request after
/// it — skip abstraction construction entirely. Contract: a share serves
/// exactly one (program, VerifyOptions) pair; after an edit the owner
/// must replace it with a fresh instance. The scheduler also uses one
/// share per program for the slots of a single batch. Verdicts are
/// byte-identical with or without a share.
struct VerifyShare {
  std::mutex Mu; ///< guards Abs (get-or-build)
  std::shared_ptr<const FrozenAbstraction> Abs;

  bool warm() const { return Abs != nullptr; }
};

struct SchedulerOptions {
  /// Logical workers. 0 means hardware concurrency; 1 degenerates to the
  /// sequential order (one worker pulls jobs in declaration order with
  /// one session per program, i.e. verifyAll semantics). The scheduler
  /// never runs more OS threads than the machine has cores —
  /// oversubscription only adds context-switch overhead for CPU-bound
  /// proving, and verdicts are worker-count independent anyway.
  unsigned Jobs = 1;
  VerifyOptions Verify;
  /// Optional persistent proof cache, shared by all workers (thread-safe).
  ProofCache *Cache = nullptr;
  /// Transient-failure retries per job: a worker exception (anything the
  /// job throws, including session construction) or a
  /// Timeout/ResourceExhausted result is retried up to this many extra
  /// times, each on a fresh private session, with capped exponential
  /// backoff. Aborted is *not* retried — it means the caller cancelled.
  /// A job that exhausts its attempts reports its last failure in place;
  /// the batch always completes.
  unsigned Retries = 0;
  /// Backoff base: retry k sleeps min(RetryBackoffMs << (k-1), 250) ms
  /// first. 0 disables sleeping (tests).
  unsigned RetryBackoffMs = 5;
  /// Optional fault plan, consulted per attempt at site "worker" (key
  /// "program/property#attempt"; any non-None decision makes the worker
  /// throw) and per job at site "budget" (key "program/property"; any
  /// non-None decision runs the job under a one-step budget, which
  /// exhausts deterministically). Cache IO faults are separate: attach
  /// the same plan to the cache via ProofCache::setFaultPlan.
  const FaultPlan *Faults = nullptr;
  /// Reusable batch cancellation token. When set, every job's budget
  /// polls it (in addition to Verify's own budgets — the token replaces
  /// Verify.Cancel for the batch), and jobs the cancellation beats to
  /// dispatch are aborted in place without running. Cancelled jobs
  /// report VerifyStatus::Aborted; Aborted is never retried and never
  /// cached, so a cancelled batch cannot poison later identical batches
  /// (tests assert byte-identical reruns). The token is reusable in the
  /// sense that one flag can cover many batches (a daemon client's whole
  /// connection); once fired it stays fired.
  std::shared_ptr<CancelFlag> Cancel;
  /// Optional persistent share (see VerifyShare) for single-program
  /// batches. Ignored when the batch has more than one program. The
  /// share must outlive the call and belong to this exact (program,
  /// Verify) pair.
  VerifyShare *Share = nullptr;
};

/// The merged outcome of a batch run.
struct BatchOutcome {
  /// One report per input program, in input order; results in property
  /// declaration order. Each report's TotalMillis is the summed
  /// per-property time (the sequential-equivalent cost); wall clock for
  /// the whole batch is TotalMillis below.
  std::vector<VerificationReport> Reports;
  /// Batch wall-clock, including per-worker abstraction builds.
  double TotalMillis = 0;
  /// Proof-cache traffic during this batch (zeros when no cache).
  ProofCache::Stats CacheStats;
  /// Jobs not dispatched because they were byte-identical to an earlier
  /// job in the batch (same program fingerprints, same property text);
  /// their slots carry copies of the canonical job's result.
  uint64_t DedupedJobs = 0;

  bool allProved() const;
  unsigned provedCount() const;
  unsigned propertyCount() const;
};

/// Verifies every property of every program in \p Programs on
/// \p Opts.Jobs workers. Programs must be validated and outlive the call.
BatchOutcome verifyPrograms(const std::vector<const Program *> &Programs,
                            const SchedulerOptions &Opts);

/// Single-program convenience (the CLI's `verify --jobs N`).
VerificationReport verifyParallel(const Program &P,
                                  const SchedulerOptions &Opts);

/// Session-scoped batch: verifies only the properties of \p P whose
/// declaration indices appear in \p PropIdx, in that order (results come
/// back in the same order). This is the incremental verifier's dependent
/// re-verification path — after an edit, the footprint-overlapping
/// properties are re-proved as one batch sharing a single frozen
/// abstraction (via SchedulerOptions::Share, one a session owner kept
/// warm). Out-of-range indices are ignored. The returned BatchOutcome
/// has exactly one report.
BatchOutcome verifyPropertySubset(const Program &P,
                                  const std::vector<size_t> &PropIdx,
                                  const SchedulerOptions &Opts);

} // namespace reflex

#endif // REFLEX_SERVICE_SCHEDULER_H
