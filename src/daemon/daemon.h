//===- daemon/daemon.h - reflexd, the verification daemon ------*- C++ -*-===//
//
// Part of the Reflex/C++ reproduction of "Automating Formal Proofs for
// Reactive Systems" (PLDI 2014).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// reflexd — a persistent verification daemon. The paper's workflow is
/// edit → re-verify → edit; paying a cold process (parse, abstraction
/// build, cache open) for every iteration wastes exactly the state that
/// makes re-verification cheap. The daemon keeps it alive across
/// requests: one shared persistent ProofCache, and per-program
/// *sessions* holding the parsed program, the warm frozen abstraction
/// (service/scheduler.h VerifyShare), and the incremental verifier's
/// verdict store with proof footprints (verify/incremental.h).
///
/// Transport: Unix-domain stream socket, newline-delimited JSON frames
/// (daemon/protocol.h). One thread per client; requests on one
/// connection run in order, connections run concurrently, and all of
/// them share the scheduler's determinism contract — verdicts are
/// functions of (program, property, options), so concurrent clients get
/// byte-identical results to one-shot CLI runs.
///
/// An `edit` request re-fingerprints the session's program, reuses
/// every verdict whose proof footprint is disjoint from the edit, and
/// re-verifies only the dependents — *through the scheduler*, as one
/// batch sharing the session's frozen abstraction
/// (IncrementalVerifier::setScheduler; this resolves the roadmap item
/// about wiring the incremental verifier through the frozen-abstraction
/// path).
///
/// Robustness: a client that disconnects mid-request fires that
/// request's CancelFlag (SchedulerOptions::Cancel) — the batch's jobs
/// abort cooperatively, and because Aborted results are never cached,
/// the abandoned request cannot poison any later one. A per-request wall
/// deadline (--request-timeout-ms) rides the same token. Sessions are
/// LRU-bounded (--max-sessions).
///
//===----------------------------------------------------------------------===//

#ifndef REFLEX_DAEMON_DAEMON_H
#define REFLEX_DAEMON_DAEMON_H

#include "daemon/journal.h"
#include "daemon/protocol.h"
#include "service/proofcache.h"
#include "service/scheduler.h"
#include "support/result.h"
#include "support/socket.h"
#include "verify/incremental.h"

#include <array>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <vector>

namespace reflex {

struct DaemonOptions {
  /// Where to listen (AF_UNIX; ~107-byte path limit). Required.
  std::string SocketPath;
  /// Default scheduler workers per request (0 = all cores); a request's
  /// options.jobs overrides per request.
  unsigned Jobs = 0;
  /// Optional persistent proof cache shared by every request and session.
  std::string CacheDir;
  /// Open-session LRU bound: opening one beyond this evicts the least
  /// recently used session.
  unsigned MaxSessions = 8;
  /// Per-request wall deadline in ms (0 = none): an overrunning request
  /// is cancelled exactly like a vanished client.
  uint64_t RequestTimeoutMs = 0;
  /// Footprint-aware cache compaction (ProofCache::gc): after a
  /// close-session and at shutdown, drop cache entries whose recorded
  /// program identity matches nothing this daemon run has seen.
  bool AutoGc = false;
  /// Durable verdict journal (daemon/journal.h; requires CacheDir — it
  /// lives at `<cache-dir>/verdicts.journal`): session verdicts are
  /// journaled fsync-first, and start() replays them, re-validating every
  /// Proved verdict through the certificate checker before re-admission.
  bool Journal = true;
  /// Connection cap (0 = unlimited). A client accepted beyond the cap is
  /// answered with one structured overloaded frame and disconnected; no
  /// handler thread is spawned for it.
  unsigned MaxClients = 0;
  /// Admission gate on the verifying verbs (0 = unlimited): at most this
  /// many verify/open-session/edit requests run concurrently; the rest
  /// get the structured overloaded frame without being admitted.
  unsigned MaxInFlight = 0;
  /// Per-client IO progress timeout in ms (0 = none; see
  /// UnixSocket::setIoTimeoutMs): bounds slow-loris senders and stalled
  /// readers without ever disconnecting a merely idle client.
  uint64_t IoTimeoutMs = 0;
  /// Retry-after hint carried in overloaded responses.
  uint64_t RetryAfterMs = 100;
  /// Shutdown drain grace in ms (0 = wait indefinitely): in-flight
  /// requests still running after this long are cancelled through their
  /// CancelFlags (they answer with Aborted statuses, which are never
  /// cached) so SIGTERM always terminates.
  uint64_t DrainCancelMs = 0;
  /// Chaos harness hook: a fault plan attached to every accepted client
  /// socket (sites "sock.read"/"sock.write"). Must outlive the daemon.
  const FaultPlan *SockFaults = nullptr;
};

/// The daemon. start() binds the socket; serve() (or serveInBackground())
/// runs the accept loop until a shutdown request or stop().
class ReflexDaemon {
public:
  static Result<std::unique_ptr<ReflexDaemon>> start(const DaemonOptions &O);
  ~ReflexDaemon();

  ReflexDaemon(const ReflexDaemon &) = delete;
  ReflexDaemon &operator=(const ReflexDaemon &) = delete;

  const std::string &socketPath() const { return Opts.SocketPath; }

  /// Verifying requests admitted and not yet finished (the slots
  /// MaxInFlight caps).
  unsigned inFlightVerifies() const {
    return InFlightVerifies.load(std::memory_order_acquire);
  }

  /// Runs the accept loop on the calling thread until shutdown: accepts
  /// clients, spawns one handler thread each, and on shutdown drains
  /// in-flight requests, disconnects idle clients, joins every handler,
  /// and (with AutoGc) compacts the proof cache.
  void serve();

  /// serve() on an internal thread; returns immediately. The destructor
  /// (or stop() + the destructor) joins it.
  void serveInBackground();

  /// Requests shutdown from any thread: no new clients are accepted and
  /// serve() returns once in-flight requests drain. Idempotent.
  void stop();

private:
  explicit ReflexDaemon(DaemonOptions O) : Opts(std::move(O)) {}

  /// One open session: the parsed program, the warm share, and the
  /// incremental verifier's verdict store. Ops on one session serialize
  /// on Mu; the map lock (SessionsMu) is never held across verification.
  struct Session {
    std::mutex Mu;
    std::string Source;
    ProgramPtr Prog;
    /// Request options fixed at open-session (a session is one
    /// (program-lineage, options) pair; change options by reopening).
    unsigned Jobs = 0;
    unsigned Retries = 0;
    bool UseProofCache = true;
    VerifyOptions Verify;
    /// Warm frozen abstraction; replaced wholesale when an edit changes
    /// the program (the old abstraction references the old program).
    std::unique_ptr<VerifyShare> Share;
    std::unique_ptr<IncrementalVerifier> Inc;
    uint64_t LastUsed = 0;
  };

  void handleClient(std::shared_ptr<UnixSocket> Sock);
  std::string handleRequest(const std::string &Frame, UnixSocket &Sock);

  std::string doVerify(const DaemonRequest &R,
                       const std::shared_ptr<CancelFlag> &Cancel);
  std::string doOpenSession(const DaemonRequest &R,
                            const std::shared_ptr<CancelFlag> &Cancel);
  std::string doEdit(const DaemonRequest &R,
                     const std::shared_ptr<CancelFlag> &Cancel);
  std::string doCloseSession(const DaemonRequest &R);
  std::string doStats();
  std::string doCacheGc();
  std::string doShutdown();

  /// Rebuilds sessions from the journal replay at start(): re-decodes
  /// each snapshot frame, cross-checks the program identity, re-validates
  /// every Proved verdict through the certificate checker, and seeds the
  /// survivors into a fresh IncrementalVerifier — so the first request
  /// after a crash is served from warm state, never from trust.
  void recoverFromJournal(const JournalReplay &Replay);
  /// Journals \p Name's current state: one session snapshot (the complete
  /// re-decodable open-session frame) and one record per journalable
  /// verdict of \p Rep (Proved with a canonical certificate on file, or
  /// Unknown). Append failures are counted, never fatal.
  void journalSessionState(const std::string &Name, const Session &Sess,
                           const DaemonRequest &R,
                           const VerificationReport &Rep);

  /// Loads a request's program from inline text or path; records its
  /// declaration identity for cache GC liveness.
  Result<ProgramPtr> loadRequestProgram(const DaemonRequest &R,
                                        std::string *SourceOut = nullptr);
  SchedulerOptions schedulerOptionsFor(const DaemonRequest &R) const;
  void noteProgramSeen(const Program &P);
  /// Accumulates per-engine verdict counts from a finished report.
  void noteEnginesServed(const VerificationReport &Rep);
  ProofCache::GcOutcome runGc();
  void recordVerb(const std::string &Verb, double Millis, bool Ok);
  /// Renders a GC outcome as the protocol's gc-result fields.
  static void writeGcOutcome(JsonWriter &W, const ProofCache::GcOutcome &G);

  DaemonOptions Opts;
  UnixListener Listener;
  std::unique_ptr<ProofCache> Cache;
  std::unique_ptr<VerdictJournal> Journal;

  std::atomic<bool> Stopping{false};
  std::thread ServeThread; ///< serveInBackground only

  std::mutex ClientsMu;
  std::vector<std::thread> ClientThreads;
  std::vector<std::weak_ptr<UnixSocket>> ClientSocks;
  /// Live (not yet exited) client connections, against MaxClients.
  std::atomic<unsigned> LiveClients{0};
  /// Concurrently verifying requests, against MaxInFlight.
  std::atomic<unsigned> InFlightVerifies{0};
  std::atomic<uint64_t> ShedConnections{0};
  std::atomic<uint64_t> ShedRequests{0};
  uint64_t ClientSeq = 0; ///< accept-order tag for per-socket fault plans

  /// In-flight request drain: shutdown waits for this to reach zero
  /// before disconnecting idle clients. ActiveCancels holds the in-flight
  /// requests' cancellation tokens so a bounded drain (DrainCancelMs) can
  /// fire them.
  std::mutex ActiveMu;
  std::condition_variable ActiveCv;
  unsigned ActiveRequests = 0;
  std::vector<std::weak_ptr<CancelFlag>> ActiveCancels;

  std::mutex SessionsMu;
  std::map<std::string, std::shared_ptr<Session>> Sessions;
  std::atomic<uint64_t> UseTick{0};

  /// Metrics + GC liveness, one lock: per-verb counts and log-scale
  /// latency histograms (<1, <10, <100, <1000, >=1000 ms), error count,
  /// incremental-reuse totals, and every program identity seen this run.
  std::mutex StatsMu;
  std::chrono::steady_clock::time_point StartedAt;
  uint64_t RequestsServed = 0;
  uint64_t RequestErrors = 0;
  uint64_t TotalReused = 0;
  uint64_t TotalFootprintReused = 0;
  uint64_t TotalReverified = 0;
  /// Path-granular footprint reuse (verifier.h report counters): reuses
  /// only the path tier could serve, and reuse checks that fell back.
  uint64_t TotalPathHits = 0;
  uint64_t TotalPathFallbacks = 0;
  std::map<std::string, uint64_t> VerbCounts;
  std::map<std::string, std::array<uint64_t, 5>> VerbLatency;
  /// Verdicts served per engine ("induction"/"pdr"), across every verify,
  /// open-session, and edit report this run — the portfolio's win tally.
  std::map<std::string, uint64_t> EngineServed;
  /// Incremental solver-core work totals (verifier.h report counters),
  /// accumulated from every report the daemon produces; reported by the
  /// stats verb's "solver" object.
  uint64_t TotalSolverQueries = 0;
  uint64_t TotalSolverMemoHits = 0;
  uint64_t TotalSolverAssumptionChecks = 0;
  uint64_t TotalSolverTrailUndos = 0;
  uint64_t TotalSolverReasonLogBytes = 0;
  std::set<std::string> KnownDeclIds;
  /// Journal accounting (under StatsMu; reported by the stats verb).
  uint64_t JournalSessionsRecovered = 0;
  uint64_t JournalVerdictsRecovered = 0;
  /// Journaled verdicts replay *refused* to re-admit: checker rejection,
  /// missing property, identity mismatch, undecodable frame. Each costs a
  /// re-verification on demand, never a wrong verdict.
  uint64_t JournalVerdictsRejected = 0;
  uint64_t JournalSessionsRejected = 0;
  uint64_t JournalRecordsDiscarded = 0;
  uint64_t JournalBytesTruncated = 0;
  uint64_t JournalAppendErrors = 0;
  double JournalRecoveryMillis = 0;
};

} // namespace reflex

#endif // REFLEX_DAEMON_DAEMON_H
