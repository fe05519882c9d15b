//===- daemon/daemon.cc - reflexd, the verification daemon ----------------===//

#include "daemon/daemon.h"

#include "reflex/reflex.h"
#include "support/timer.h"

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <sstream>

#include <sys/socket.h>

namespace reflex {

namespace {

using SteadyClock = std::chrono::steady_clock;

double millisSince(SteadyClock::time_point T0) {
  return std::chrono::duration<double, std::milli>(SteadyClock::now() - T0)
      .count();
}

/// Watches one in-flight request from a side thread: fires \p Cancel the
/// moment the client's socket reports the peer gone, or once the
/// per-request deadline passes. The verification batch polls the flag
/// cooperatively (SchedulerOptions::Cancel), so an abandoned request
/// stops consuming workers within a poll interval instead of running to
/// completion for nobody.
class RequestWatch {
public:
  RequestWatch(const UnixSocket &Sock, std::shared_ptr<CancelFlag> Cancel,
               uint64_t TimeoutMs)
      : T([this, &Sock, Cancel = std::move(Cancel), TimeoutMs] {
          SteadyClock::time_point Start = SteadyClock::now();
          std::unique_lock<std::mutex> Lock(Mu);
          while (!Done) {
            if (Sock.peerClosed() ||
                (TimeoutMs && millisSince(Start) > double(TimeoutMs))) {
              Cancel->cancel();
              return;
            }
            // Interruptible poll: the destructor must not be stuck behind
            // a sleep — the watcher's teardown is on every request's
            // response latency path.
            Cv.wait_for(Lock, std::chrono::milliseconds(10));
          }
        }) {}

  ~RequestWatch() {
    {
      std::lock_guard<std::mutex> Lock(Mu);
      Done = true;
    }
    Cv.notify_all();
    T.join();
  }

private:
  std::mutex Mu;
  std::condition_variable Cv;
  bool Done = false;
  std::thread T;
};

size_t latencyBucket(double Millis) {
  if (Millis < 1)
    return 0;
  if (Millis < 10)
    return 1;
  if (Millis < 100)
    return 2;
  if (Millis < 1000)
    return 3;
  return 4;
}

} // namespace

Result<std::unique_ptr<ReflexDaemon>>
ReflexDaemon::start(const DaemonOptions &O) {
  if (O.SocketPath.empty())
    return Error("reflexd needs a socket path (--socket)");
  auto D = std::unique_ptr<ReflexDaemon>(new ReflexDaemon(O));
  if (!O.CacheDir.empty()) {
    Result<std::unique_ptr<ProofCache>> C = ProofCache::open(O.CacheDir);
    if (!C.ok())
      return Error(C.error());
    D->Cache = C.take();
  }
  if (D->Cache && O.Journal) {
    // Replay + recover *before* binding the socket: the socket file is
    // the readiness signal clients (and the supervisor's smoke checks)
    // wait on, and it must not appear until recovered sessions are
    // re-validated and seeded — a client must never race recovery.
    JournalReplay Replay;
    Result<std::unique_ptr<VerdictJournal>> J = VerdictJournal::open(
        (std::filesystem::path(O.CacheDir) / "verdicts.journal").string(),
        &Replay);
    if (!J.ok())
      return Error(J.error());
    D->Journal = J.take();
    D->recoverFromJournal(Replay);
  }
  Result<UnixListener> L = UnixListener::bindAt(O.SocketPath);
  if (!L.ok())
    return Error(L.error());
  D->Listener = L.take();
  D->StartedAt = SteadyClock::now();
  return D;
}

void ReflexDaemon::recoverFromJournal(const JournalReplay &Replay) {
  WallTimer Timer;
  uint64_t SessionsIn = 0, SessionsBad = 0, VerdictsIn = 0, VerdictsBad = 0;

  for (const JournalSession &JS : Replay.Sessions) {
    // 1. The snapshot frame is untrusted input; put it through the same
    // decoder a live client's frame takes.
    Result<DaemonRequest> Req = decodeDaemonRequest(JS.OpenFrame);
    if (!Req.ok() || Req->Verb != "open-session" || Req->Session != JS.Name ||
        Req->ProgramText.empty()) {
      ++SessionsBad;
      VerdictsBad += JS.Verdicts.size();
      continue;
    }
    Result<ProgramPtr> P = loadProgram(Req->ProgramText, "<journal>");
    if (!P.ok()) {
      ++SessionsBad;
      VerdictsBad += JS.Verdicts.size();
      continue;
    }
    // 2. Integrity cross-check: the snapshot's recorded program identity
    // must match what its own source re-derives to.
    ProgramFingerprints Fps = ProgramFingerprints::compute(**P);
    if (ProofCache::declId(Fps.DeclFp) != JS.DeclSha256) {
      ++SessionsBad;
      VerdictsBad += JS.Verdicts.size();
      continue;
    }
    noteProgramSeen(**P);

    auto Sess = std::make_shared<Session>();
    Sess->Source = Req->ProgramText;
    Sess->Prog = P.take();
    Sess->Jobs = Req->Jobs;
    Sess->Retries = Req->Retries;
    Sess->SharedCaches = Req->SharedCaches;
    Sess->UseProofCache = Req->UseProofCache;
    Sess->Verify = Req->Verify;
    Sess->Share = std::make_unique<VerifyShare>();
    Sess->Inc = std::make_unique<IncrementalVerifier>(
        Req->Verify, Req->UseProofCache ? Cache.get() : nullptr);
    Sess->LastUsed = ++UseTick;

    // 3. Re-validate each verdict before re-admission. Unknown verdicts
    // carry no trust (reusing one is the proof cache's existing policy);
    // Proved verdicts go through the certificate checker's from-scratch
    // re-derivation — a record that passed its checksum but carries a
    // tampered certificate dies here, not in a client's hands. The
    // lazily-built session is shared across the verdicts so recovery
    // costs one abstraction build per session, not per property.
    std::unique_ptr<VerifySession> VS;
    ProverOptions RecheckOpts = proverOptions(Sess->Verify);
    std::map<std::string, PropertyResult> Seeds;
    for (const auto &[Text, V] : JS.Verdicts) {
      const Property *Prop = nullptr;
      for (const Property &Cand : Sess->Prog->Properties)
        if (Cand.str() == Text) {
          Prop = &Cand;
          break;
        }
      if (!Prop || (V.Status != VerifyStatus::Proved &&
                    V.Status != VerifyStatus::Unknown)) {
        ++VerdictsBad;
        continue;
      }
      PropertyResult R;
      R.Name = Prop->Name;
      R.Status = V.Status;
      R.Reason = V.Reason;
      R.Millis = V.Millis;
      R.ServedBy = V.ServedBy;
      R.Footprint.Collected = V.FootprintCollected;
      R.Footprint.AllHandlers = V.FootprintAll;
      // Journaled footprints use the wire encoding ("key" = all paths,
      // "key@ids" = entered paths); pre-path-granularity records decode
      // conservatively as AllPaths.
      R.Footprint.Handlers = decodeFootprintHandlers(V.Footprint);
      if (V.Status == VerifyStatus::Proved) {
        if (V.CanonicalCert.empty()) {
          ++VerdictsBad;
          continue;
        }
        // The full-recheck memo (keyed exactly like the proof cache's,
        // and serving only a byte-identical certificate) deduplicates
        // across sessions recovering the same program, and conversely
        // pre-warms later cache hits on this key.
        std::string MemoKey;
        if (Cache)
          MemoKey = ProofCache::keyFor(Fps.DeclFp, *Prop, Sess->Verify) +
                    ":" + Fps.HandlersFp + ":" + V.ServedBy;
        if (!MemoKey.empty() &&
            Cache->fullRecheckMemoized(MemoKey, V.CanonicalCert)) {
          R.CertJson = V.CertJson;
        } else {
          if (!VS)
            VS = std::make_unique<VerifySession>(*Sess->Prog, Sess->Verify);
          RecheckOutcome Chk =
              checkCanonicalCertificate(VS->termContext(), *Sess->Prog,
                                        VS->behAbs(), *Prop,
                                        V.CanonicalCert, V.ServedBy,
                                        RecheckOpts);
          if (!Chk.Ok) {
            ++VerdictsBad;
            continue;
          }
          // The rederived certificate knows nothing of footprints (the
          // canonical form omits them); restore the journaled footprint
          // so the audit JSON is byte-identical to the original.
          if (V.FootprintCollected)
            Chk.Rederived.Footprint =
                V.FootprintAll ? std::vector<std::string>{"*"} : V.Footprint;
          R.CertJson = Chk.Rederived.toJson(VS->termContext());
          if (!MemoKey.empty())
            Cache->noteFullRecheckOk(MemoKey, V.CanonicalCert);
        }
        R.CertChecked = true;
      }
      ++VerdictsIn;
      Seeds[Text] = std::move(R);
    }
    Sess->Inc->seedVerdicts(*Sess->Prog, std::move(Seeds));

    std::lock_guard<std::mutex> Lock(SessionsMu);
    Sessions[JS.Name] = std::move(Sess);
    ++SessionsIn;
  }

  // Replay order is oldest-first; apply the same LRU bound open-session
  // enforces so recovery cannot resurrect more sessions than a live
  // daemon would hold.
  {
    std::lock_guard<std::mutex> Lock(SessionsMu);
    while (Opts.MaxSessions > 0 && Sessions.size() > Opts.MaxSessions) {
      auto Oldest = Sessions.begin();
      for (auto It = Sessions.begin(); It != Sessions.end(); ++It)
        if (It->second->LastUsed < Oldest->second->LastUsed)
          Oldest = It;
      Sessions.erase(Oldest);
      --SessionsIn;
    }
  }

  std::lock_guard<std::mutex> Lock(StatsMu);
  JournalSessionsRecovered = SessionsIn;
  JournalSessionsRejected = SessionsBad;
  JournalVerdictsRecovered = VerdictsIn;
  JournalVerdictsRejected = VerdictsBad;
  JournalRecordsDiscarded = Replay.RecordsDiscarded;
  JournalBytesTruncated = Replay.BytesTruncated;
  JournalRecoveryMillis = Timer.elapsedMillis();
}

void ReflexDaemon::journalSessionState(const std::string &Name,
                                       const Session &Sess,
                                       const DaemonRequest &R,
                                       const VerificationReport &Rep) {
  if (!Journal)
    return;
  DaemonRequest Canon = R;
  Canon.Session = Name;
  ProgramFingerprints Fps = ProgramFingerprints::compute(*Sess.Prog);
  uint64_t Errors = 0;
  if (!Journal
           ->appendSession(Name, encodeOpenSessionFrame(Canon, Sess.Source),
                           ProofCache::declId(Fps.DeclFp))
           .ok())
    ++Errors;
  // Results arrive in property declaration order (the incremental
  // verifier's contract); pair them up to recover each property's text —
  // the reuse key recovery seeds under.
  size_t N = std::min(Rep.Results.size(), Sess.Prog->Properties.size());
  for (size_t I = 0; I < N; ++I) {
    const PropertyResult &PR = Rep.Results[I];
    const Property &Prop = Sess.Prog->Properties[I];
    if (PR.Status != VerifyStatus::Proved &&
        PR.Status != VerifyStatus::Unknown)
      continue; // budget statuses and Refuted are never journaled
    JournalVerdict V;
    V.PropertyText = Prop.str();
    V.PropertyName = PR.Name;
    V.Status = PR.Status;
    V.Reason = PR.Reason;
    V.Millis = PR.Millis;
    V.CertJson = PR.CertJson;
    V.ServedBy = PR.ServedBy;
    V.FootprintCollected = PR.Footprint.Collected;
    V.FootprintAll = PR.Footprint.AllHandlers;
    V.Footprint = encodeFootprintHandlers(PR.Footprint.Handlers);
    if (PR.Status == VerifyStatus::Proved) {
      // The canonical certificate (the checker's comparison target at
      // recovery) lives in the proof cache entry this verdict stored
      // into; the live certificate died with its worker session. Without
      // it the verdict cannot be re-validated, so it is not journaled —
      // a crash then costs that property one re-verification.
      if (!Cache || !Sess.UseProofCache)
        continue;
      std::optional<ProofCacheEntry> E =
          Cache->lookup(ProofCache::keyFor(Fps.DeclFp, Prop, Sess.Verify));
      if (!E || E->CanonicalCert.empty())
        continue;
      V.CanonicalCert = E->CanonicalCert;
    }
    if (!Journal->appendVerdict(Name, V).ok())
      ++Errors;
  }
  if (Errors) {
    std::lock_guard<std::mutex> Lock(StatsMu);
    JournalAppendErrors += Errors;
  }
}

ReflexDaemon::~ReflexDaemon() {
  stop();
  if (ServeThread.joinable())
    ServeThread.join();
  // serve() already joined the client threads on an orderly shutdown;
  // this covers a daemon destroyed without serve() ever running.
  std::lock_guard<std::mutex> Lock(ClientsMu);
  for (std::thread &T : ClientThreads)
    if (T.joinable())
      T.join();
}

void ReflexDaemon::stop() {
  Stopping.store(true, std::memory_order_relaxed);
  Listener.interrupt();
}

void ReflexDaemon::serveInBackground() {
  ServeThread = std::thread([this] { serve(); });
}

void ReflexDaemon::serve() {
  while (!Stopping.load(std::memory_order_relaxed)) {
    Result<UnixSocket> Client = Listener.accept();
    if (!Client.ok())
      break; // interrupted (stop/shutdown) or the listener died
    auto Sock = std::make_shared<UnixSocket>(Client.take());
    if (Opts.IoTimeoutMs)
      Sock->setIoTimeoutMs(Opts.IoTimeoutMs);
    if (Opts.SockFaults)
      Sock->setFaultPlan(Opts.SockFaults,
                         "srv#" + std::to_string(ClientSeq));
    ++ClientSeq;
    if (Opts.MaxClients &&
        LiveClients.load(std::memory_order_relaxed) >= Opts.MaxClients) {
      // Shed at the door: one structured frame, no handler thread. The
      // connection was never admitted, so the client can always retry.
      ShedConnections.fetch_add(1, std::memory_order_relaxed);
      (void)Sock->sendAll(encodeDaemonOverloaded(Opts.RetryAfterMs) + "\n");
      continue;
    }
    LiveClients.fetch_add(1, std::memory_order_relaxed);
    std::lock_guard<std::mutex> Lock(ClientsMu);
    ClientSocks.push_back(Sock);
    ClientThreads.emplace_back([this, Sock = std::move(Sock)] {
      handleClient(Sock);
      LiveClients.fetch_sub(1, std::memory_order_relaxed);
    });
  }

  // Drain: every request already being processed runs to completion (its
  // verdicts are real and cacheable); only then are idle connections shut
  // down so their handler threads unblock from readLine and exit. With a
  // drain grace configured, requests still running past it are cancelled
  // through their CancelFlags — they answer with Aborted statuses (never
  // cached), and shutdown always terminates.
  {
    std::unique_lock<std::mutex> Lock(ActiveMu);
    if (Opts.DrainCancelMs &&
        !ActiveCv.wait_for(Lock,
                           std::chrono::milliseconds(Opts.DrainCancelMs),
                           [this] { return ActiveRequests == 0; })) {
      for (std::weak_ptr<CancelFlag> &W : ActiveCancels)
        if (std::shared_ptr<CancelFlag> C = W.lock())
          C->cancel();
    }
    ActiveCv.wait(Lock, [this] { return ActiveRequests == 0; });
  }
  std::vector<std::thread> Threads;
  {
    std::lock_guard<std::mutex> Lock(ClientsMu);
    for (std::weak_ptr<UnixSocket> &W : ClientSocks)
      if (std::shared_ptr<UnixSocket> S = W.lock())
        ::shutdown(S->fd(), SHUT_RDWR);
    Threads.swap(ClientThreads);
    ClientSocks.clear();
  }
  for (std::thread &T : Threads)
    T.join();

  if (Opts.AutoGc && Cache)
    runGc(); // the entries' stores already fsynced; this only compacts
  Listener.close();
}

void ReflexDaemon::handleClient(std::shared_ptr<UnixSocket> Sock) {
  std::string Frame;
  for (;;) {
    Result<bool> Got = Sock->readLine(Frame, DaemonMaxFrameBytes);
    if (!Got.ok()) {
      // Truncated or oversized frame: the stream cannot be resynchronized,
      // so answer (best effort) and drop the connection.
      (void)Sock->sendAll(encodeDaemonError(Got.error()) + "\n");
      return;
    }
    if (!*Got)
      return; // clean EOF: client is done
    if (Frame.empty())
      continue; // tolerate blank keep-alive lines

    std::string Response;
    {
      std::lock_guard<std::mutex> Lock(ActiveMu);
      ++ActiveRequests;
    }
    // Everything a request can throw becomes a structured error frame —
    // one bad request must never take the daemon down.
    try {
      Response = handleRequest(Frame, *Sock);
    } catch (const std::exception &E) {
      Response = encodeDaemonError(std::string("internal error: ") + E.what());
    } catch (...) {
      Response = encodeDaemonError("internal error");
    }
    // The request stays "active" until its response is on the wire:
    // serve()'s shutdown drain waits on this count, so responses —
    // including the shutdown verb's own acknowledgment — are sent before
    // any connection is torn down.
    bool Sent = Sock->sendAll(Response + "\n").ok();
    {
      std::lock_guard<std::mutex> Lock(ActiveMu);
      --ActiveRequests;
      ActiveCv.notify_all();
    }
    if (!Sent)
      return; // client vanished mid-response
    if (Stopping.load(std::memory_order_relaxed))
      return; // shutdown verb on this connection (or a concurrent stop)
  }
}

std::string ReflexDaemon::handleRequest(const std::string &Frame,
                                        UnixSocket &Sock) {
  WallTimer Timer;
  Result<DaemonRequest> Req = decodeDaemonRequest(Frame);
  if (!Req.ok()) {
    recordVerb("invalid", Timer.elapsedMillis(), false);
    return encodeDaemonError(Req.error());
  }

  std::string Response;
  if (Req->Verb == "ping") {
    JsonWriter W;
    W.beginObject();
    W.field("ok", true);
    W.field("verb", "ping");
    W.endObject();
    Response = W.take();
  } else if (Req->Verb == "verify" || Req->Verb == "open-session" ||
             Req->Verb == "edit") {
    // Admission gate: the verifying verbs are the expensive ones, so the
    // in-flight cap applies to them alone. A rejected request was never
    // admitted — nothing was verified, nothing cached — so the client's
    // retry is always safe.
    unsigned Before = InFlightVerifies.fetch_add(1, std::memory_order_acq_rel);
    if (Opts.MaxInFlight && Before >= Opts.MaxInFlight) {
      InFlightVerifies.fetch_sub(1, std::memory_order_acq_rel);
      ShedRequests.fetch_add(1, std::memory_order_relaxed);
      recordVerb(Req->Verb, Timer.elapsedMillis(), false);
      return encodeDaemonOverloaded(Opts.RetryAfterMs);
    }
    // Exception-safe slot release: a request that throws must not consume
    // its admission slot forever (handleClient turns the throw into a
    // structured error and keeps serving).
    struct SlotGuard {
      std::atomic<unsigned> &C;
      ~SlotGuard() { C.fetch_sub(1, std::memory_order_acq_rel); }
    } Slot{InFlightVerifies};
    // Arm a cancellation token watched against client disconnect and the
    // per-request deadline, and registered for the shutdown drain's
    // bounded-grace cancellation.
    auto Cancel = std::make_shared<CancelFlag>();
    {
      std::lock_guard<std::mutex> Lock(ActiveMu);
      ActiveCancels.erase(
          std::remove_if(ActiveCancels.begin(), ActiveCancels.end(),
                         [](const std::weak_ptr<CancelFlag> &W) {
                           return W.expired();
                         }),
          ActiveCancels.end());
      ActiveCancels.push_back(Cancel);
    }
    RequestWatch Watch(Sock, Cancel, Opts.RequestTimeoutMs);
    if (Req->Verb == "verify")
      Response = doVerify(*Req, Cancel);
    else if (Req->Verb == "open-session")
      Response = doOpenSession(*Req, Cancel);
    else
      Response = doEdit(*Req, Cancel);
  } else if (Req->Verb == "close-session") {
    Response = doCloseSession(*Req);
  } else if (Req->Verb == "stats") {
    Response = doStats();
  } else if (Req->Verb == "cache-gc") {
    Response = doCacheGc();
  } else if (Req->Verb == "shutdown") {
    Response = doShutdown();
  } else {
    recordVerb("invalid", Timer.elapsedMillis(), false);
    return encodeDaemonError("unknown verb '" + Req->Verb + "'");
  }

  bool Ok = Response.rfind("{\"ok\":true", 0) == 0;
  recordVerb(Req->Verb, Timer.elapsedMillis(), Ok);
  return Response;
}

Result<ProgramPtr> ReflexDaemon::loadRequestProgram(const DaemonRequest &R,
                                                    std::string *SourceOut) {
  std::string Source = R.ProgramText;
  std::string Origin = "<request>";
  if (Source.empty() && !R.ProgramPath.empty()) {
    std::ifstream In(R.ProgramPath);
    if (!In)
      return Error("cannot open '" + R.ProgramPath + "'");
    std::ostringstream SS;
    SS << In.rdbuf();
    Source = SS.str();
    Origin = R.ProgramPath;
  }
  if (Source.empty())
    return Error("request needs a 'program' (inline source) or 'path'");
  Result<ProgramPtr> P = loadProgram(Source, Origin);
  if (!P.ok())
    return Error(P.error());
  noteProgramSeen(**P);
  if (SourceOut)
    *SourceOut = std::move(Source);
  return P;
}

SchedulerOptions
ReflexDaemon::schedulerOptionsFor(const DaemonRequest &R) const {
  SchedulerOptions S;
  S.Jobs = R.Jobs ? R.Jobs : Opts.Jobs;
  S.Retries = R.Retries;
  S.SharedCaches = R.SharedCaches;
  S.Verify = R.Verify;
  if (R.UseProofCache)
    S.Cache = Cache.get();
  return S;
}

void ReflexDaemon::noteProgramSeen(const Program &P) {
  std::string Id =
      ProofCache::declId(ProgramFingerprints::compute(P).DeclFp);
  std::lock_guard<std::mutex> Lock(StatsMu);
  KnownDeclIds.insert(std::move(Id));
}

void ReflexDaemon::noteEnginesServed(const VerificationReport &Rep) {
  std::lock_guard<std::mutex> Lock(StatsMu);
  for (const PropertyResult &R : Rep.Results)
    if (!R.ServedBy.empty())
      ++EngineServed[R.ServedBy];
  TotalSolverQueries += Rep.SolverQueries;
  TotalSolverMemoHits += Rep.SolverMemoHits;
  TotalSolverAssumptionChecks += Rep.SolverAssumptionChecks;
  TotalSolverTrailUndos += Rep.SolverTrailUndos;
  TotalSolverReasonLogBytes += Rep.SolverReasonLogBytes;
}

void ReflexDaemon::writeGcOutcome(JsonWriter &W,
                                  const ProofCache::GcOutcome &G) {
  W.field("scanned", int64_t(G.Scanned));
  W.field("dropped", int64_t(G.Dropped));
  W.field("kept", int64_t(G.Kept));
  if (G.ManifestLive)
    W.field("manifest_live", int64_t(G.ManifestLive));
  W.field("quarantine_kept", int64_t(G.QuarantineKept));
  W.field("quarantine_evicted", int64_t(G.QuarantineEvicted));
}

ProofCache::GcOutcome ReflexDaemon::runGc() {
  std::set<std::string> Live;
  {
    std::lock_guard<std::mutex> Lock(StatsMu);
    Live = KnownDeclIds;
  }
  return Cache->gc(Live);
}

void ReflexDaemon::recordVerb(const std::string &Verb, double Millis,
                              bool Ok) {
  std::lock_guard<std::mutex> Lock(StatsMu);
  ++RequestsServed;
  if (!Ok)
    ++RequestErrors;
  ++VerbCounts[Verb];
  ++VerbLatency[Verb][latencyBucket(Millis)];
}

std::string ReflexDaemon::doVerify(const DaemonRequest &R,
                                   const std::shared_ptr<CancelFlag> &Cancel) {
  Result<ProgramPtr> P = loadRequestProgram(R);
  if (!P.ok())
    return encodeDaemonError(P.error());
  SchedulerOptions S = schedulerOptionsFor(R);
  S.Cancel = Cancel;
  BatchOutcome B = verifyPrograms({P->get()}, S);
  noteEnginesServed(B.Reports[0]);

  JsonWriter W;
  W.beginObject();
  W.field("ok", true);
  W.field("verb", "verify");
  writeReportResults(W, B.Reports[0]);
  W.endObject();
  return W.take();
}

std::string
ReflexDaemon::doOpenSession(const DaemonRequest &R,
                            const std::shared_ptr<CancelFlag> &Cancel) {
  if (R.Session.empty())
    return encodeDaemonError("open-session needs a 'session' name");

  auto Sess = std::make_shared<Session>();
  Result<ProgramPtr> P = loadRequestProgram(R, &Sess->Source);
  if (!P.ok())
    return encodeDaemonError(P.error());
  Sess->Prog = P.take();
  Sess->Jobs = R.Jobs;
  Sess->Retries = R.Retries;
  Sess->SharedCaches = R.SharedCaches;
  Sess->UseProofCache = R.UseProofCache;
  Sess->Verify = R.Verify;
  Sess->Share = std::make_unique<VerifyShare>();
  Sess->Inc = std::make_unique<IncrementalVerifier>(
      R.Verify, R.UseProofCache ? Cache.get() : nullptr);
  Sess->LastUsed = ++UseTick;

  // Publish the session first (replacing any same-named predecessor),
  // then verify outside the map lock so concurrent clients in *other*
  // sessions are never stalled behind this one's initial proving.
  {
    std::lock_guard<std::mutex> Lock(SessionsMu);
    Sessions[R.Session] = Sess;
    while (Sessions.size() > Opts.MaxSessions && Opts.MaxSessions > 0) {
      auto Oldest = Sessions.end();
      for (auto It = Sessions.begin(); It != Sessions.end(); ++It)
        if (It->first != R.Session &&
            (Oldest == Sessions.end() ||
             It->second->LastUsed < Oldest->second->LastUsed))
          Oldest = It;
      if (Oldest == Sessions.end())
        break;
      // Dropping the map's reference is enough: an op still running in
      // the evicted session holds its own shared_ptr and completes.
      Sessions.erase(Oldest);
    }
  }

  std::lock_guard<std::mutex> Lock(Sess->Mu);
  DaemonRequest Base = R;
  SchedulerOptions S = schedulerOptionsFor(Base);
  S.Cancel = Cancel;
  S.Share = Sess->Share.get();
  Sess->Inc->setScheduler(S);
  IncrementalVerifier::Outcome Out = Sess->Inc->verify(*Sess->Prog);
  {
    std::lock_guard<std::mutex> StatsLock(StatsMu);
    TotalReused += Out.Reused;
    TotalFootprintReused += Out.FootprintReused;
    TotalReverified += Out.Reverified;
    TotalPathHits += Out.Report.PathHits;
    TotalPathFallbacks += Out.Report.PathFallbacks;
  }
  noteEnginesServed(Out.Report);
  // Durability point: the session and its verdicts are journaled (each
  // record fsynced) before the response leaves the daemon, so any verdict
  // a client has seen survives a crash.
  journalSessionState(R.Session, *Sess, Base, Out.Report);

  JsonWriter W;
  W.beginObject();
  W.field("ok", true);
  W.field("verb", "open-session");
  W.field("session", R.Session);
  writeReportResults(W, Out.Report);
  W.field("reused", int64_t(Out.Reused));
  W.field("footprint_reused", int64_t(Out.FootprintReused));
  W.field("reverified", int64_t(Out.Reverified));
  W.field("cache_hits", int64_t(Out.CacheHits));
  W.endObject();
  return W.take();
}

std::string ReflexDaemon::doEdit(const DaemonRequest &R,
                                 const std::shared_ptr<CancelFlag> &Cancel) {
  if (R.Session.empty())
    return encodeDaemonError("edit needs a 'session' name");
  std::shared_ptr<Session> Sess;
  {
    std::lock_guard<std::mutex> Lock(SessionsMu);
    auto It = Sessions.find(R.Session);
    if (It == Sessions.end())
      return encodeDaemonError("no open session named '" + R.Session +
                               "' (opened sessions are bounded by "
                               "--max-sessions and may have been evicted)");
    Sess = It->second;
  }

  std::lock_guard<std::mutex> Lock(Sess->Mu);
  Sess->LastUsed = ++UseTick;
  bool SourceChanged = false;
  if (!R.ProgramText.empty() || !R.ProgramPath.empty()) {
    std::string Source;
    DaemonRequest Load = R;
    Result<ProgramPtr> P = loadRequestProgram(Load, &Source);
    if (!P.ok())
      return encodeDaemonError(P.error());
    SourceChanged = Source != Sess->Source;
    if (SourceChanged) {
      // The program changed: the warm frozen abstraction and both shared
      // cache tiers reference the old program's terms, so replace the
      // share before the old Program dies. The incremental verifier's
      // verdict store survives — it holds only strings and footprints,
      // and the footprint comparison against the new fingerprints is
      // exactly what decides which verdicts live on.
      Sess->Share = std::make_unique<VerifyShare>();
      Sess->Prog = P.take();
      Sess->Source = std::move(Source);
    }
  }

  DaemonRequest Base;
  Base.Jobs = Sess->Jobs;
  Base.Retries = Sess->Retries;
  Base.SharedCaches = Sess->SharedCaches;
  Base.UseProofCache = Sess->UseProofCache;
  Base.Verify = Sess->Verify;
  SchedulerOptions S = schedulerOptionsFor(Base);
  S.Cancel = Cancel;
  S.Share = Sess->Share.get();
  Sess->Inc->setScheduler(S);
  IncrementalVerifier::Outcome Out = Sess->Inc->verify(*Sess->Prog);
  {
    std::lock_guard<std::mutex> StatsLock(StatsMu);
    TotalReused += Out.Reused;
    TotalFootprintReused += Out.FootprintReused;
    TotalReverified += Out.Reverified;
    TotalPathHits += Out.Report.PathHits;
    TotalPathFallbacks += Out.Report.PathFallbacks;
  }
  noteEnginesServed(Out.Report);
  // Re-journal the session wholesale: a snapshot record replaces the
  // previous lineage at replay, so post-edit verdicts — including the
  // footprint-reused ones — are what a restart recovers. An edit that
  // changed nothing and re-verified nothing is exactly the state the
  // journal already holds, so the watch-mode tick (the warm re-verify
  // hot path) pays no fsyncs.
  if (SourceChanged || Out.Reverified > 0)
    journalSessionState(R.Session, *Sess, Base, Out.Report);

  JsonWriter W;
  W.beginObject();
  W.field("ok", true);
  W.field("verb", "edit");
  W.field("session", R.Session);
  writeReportResults(W, Out.Report);
  W.field("reused", int64_t(Out.Reused));
  W.field("footprint_reused", int64_t(Out.FootprintReused));
  W.field("reverified", int64_t(Out.Reverified));
  W.field("cache_hits", int64_t(Out.CacheHits));
  W.endObject();
  return W.take();
}

std::string ReflexDaemon::doCloseSession(const DaemonRequest &R) {
  if (R.Session.empty())
    return encodeDaemonError("close-session needs a 'session' name");
  bool Existed = false;
  {
    std::lock_guard<std::mutex> Lock(SessionsMu);
    Existed = Sessions.erase(R.Session) != 0;
  }
  if (Existed && Journal && !Journal->appendClose(R.Session).ok()) {
    std::lock_guard<std::mutex> Lock(StatsMu);
    ++JournalAppendErrors;
  }
  JsonWriter W;
  W.beginObject();
  W.field("ok", true);
  W.field("verb", "close-session");
  W.field("session", R.Session);
  W.field("closed", Existed);
  if (Opts.AutoGc && Cache) {
    ProofCache::GcOutcome G = runGc();
    W.key("gc");
    W.beginObject();
    writeGcOutcome(W, G);
    W.endObject();
  }
  W.endObject();
  return W.take();
}

std::string ReflexDaemon::doStats() {
  size_t LiveSessions = 0;
  {
    std::lock_guard<std::mutex> Lock(SessionsMu);
    LiveSessions = Sessions.size();
  }

  JsonWriter W;
  W.beginObject();
  W.field("ok", true);
  W.field("verb", "stats");
  {
    std::lock_guard<std::mutex> Lock(StatsMu);
    W.key("uptime_ms");
    W.value(millisSince(StartedAt));
    W.field("requests", int64_t(RequestsServed));
    W.field("errors", int64_t(RequestErrors));
    W.field("sessions", int64_t(LiveSessions));
    W.field("known_programs", int64_t(KnownDeclIds.size()));
    W.field("reused", int64_t(TotalReused));
    W.field("footprint_reused", int64_t(TotalFootprintReused));
    W.field("path_hits", int64_t(TotalPathHits));
    W.field("path_fallbacks", int64_t(TotalPathFallbacks));
    W.field("reverified", int64_t(TotalReverified));
    W.key("shed");
    W.beginObject();
    W.field("connections",
            int64_t(ShedConnections.load(std::memory_order_relaxed)));
    W.field("requests",
            int64_t(ShedRequests.load(std::memory_order_relaxed)));
    W.endObject();
    if (Journal) {
      W.key("journal");
      W.beginObject();
      W.field("path", Journal->path());
      W.field("size_bytes", int64_t(Journal->sizeBytes()));
      W.field("sessions_recovered", int64_t(JournalSessionsRecovered));
      W.field("sessions_rejected", int64_t(JournalSessionsRejected));
      W.field("verdicts_recovered", int64_t(JournalVerdictsRecovered));
      W.field("verdicts_rejected", int64_t(JournalVerdictsRejected));
      W.field("records_discarded", int64_t(JournalRecordsDiscarded));
      W.field("bytes_truncated", int64_t(JournalBytesTruncated));
      W.field("append_errors", int64_t(JournalAppendErrors));
      W.key("recovery_millis");
      W.value(JournalRecoveryMillis);
      W.endObject();
    }
    W.key("engines");
    W.beginObject();
    for (const auto &[Engine, Count] : EngineServed)
      W.field(Engine, int64_t(Count));
    W.endObject();
    W.key("solver");
    W.beginObject();
    W.field("queries", int64_t(TotalSolverQueries));
    W.field("memo_hits", int64_t(TotalSolverMemoHits));
    W.field("assumption_checks", int64_t(TotalSolverAssumptionChecks));
    W.field("trail_undos", int64_t(TotalSolverTrailUndos));
    W.field("reason_log_bytes", int64_t(TotalSolverReasonLogBytes));
    W.endObject();
    W.key("verbs");
    W.beginObject();
    for (const auto &[Verb, Count] : VerbCounts) {
      W.key(Verb);
      W.beginObject();
      W.field("count", int64_t(Count));
      // Log-scale latency histogram; bucket upper bounds in ms, the last
      // one open-ended.
      W.key("latency_ms");
      W.beginObject();
      static const char *Buckets[5] = {"<1", "<10", "<100", "<1000",
                                       ">=1000"};
      const std::array<uint64_t, 5> &H = VerbLatency[Verb];
      for (size_t I = 0; I < 5; ++I)
        W.field(Buckets[I], int64_t(H[I]));
      W.endObject();
      W.endObject();
    }
    W.endObject();
  }
  if (Cache) {
    ProofCache::Stats CS = Cache->stats();
    W.key("proof_cache");
    W.beginObject();
    W.field("dir", Cache->directory());
    W.field("hits", int64_t(CS.Hits));
    W.field("misses", int64_t(CS.Misses));
    W.field("stores", int64_t(CS.Stores));
    W.field("footprint_hits", int64_t(CS.FootprintHits));
    W.field("path_hits", int64_t(CS.PathHits));
    W.field("path_fallbacks", int64_t(CS.PathFallbacks));
    W.field("rejected", int64_t(CS.Rejected));
    W.field("quarantined", int64_t(CS.Quarantined));
    W.field("gc_runs", int64_t(CS.GcRuns));
    W.field("gc_dropped", int64_t(CS.GcDropped));
    W.field("manifest_corrupt", int64_t(CS.ManifestCorrupt));
    W.key("decode_millis");
    W.value(CS.DecodeMillis);
    W.key("recheck_millis");
    W.value(CS.RecheckMillis);
    W.endObject();
  }
  W.endObject();
  return W.take();
}

std::string ReflexDaemon::doCacheGc() {
  if (!Cache)
    return encodeDaemonError("no proof cache attached (--cache-dir)");
  ProofCache::GcOutcome G = runGc();
  JsonWriter W;
  W.beginObject();
  W.field("ok", true);
  W.field("verb", "cache-gc");
  writeGcOutcome(W, G);
  W.endObject();
  return W.take();
}

std::string ReflexDaemon::doShutdown() {
  stop();
  JsonWriter W;
  W.beginObject();
  W.field("ok", true);
  W.field("verb", "shutdown");
  W.endObject();
  return W.take();
}

} // namespace reflex
