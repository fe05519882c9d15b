//===- perfbench/reflex_bench.cc - End-to-end benchmark -------------------===//
//
// One closed-loop benchmark over Reflex's four user paths, driven through
// the library's public entry points on a seeded generated corpus
// (gen::generateCorpus). One client, one request in flight, at most two
// verification workers:
//
//   corpus_batch        one verifyPrograms call over the scale-6 corpus
//                       per request (jobs=1, no cache) — the CI batch;
//   oneshot_cached      per request: a fresh ProofCache::open on a cache
//                       the set-up populated, loadProgram of one corpus
//                       source, verifyParallel at jobs=1 — the
//                       fresh-process warm-cache path;
//   daemon_edit         one reflexd `edit` frame per request (in-process
//                       daemon over a real socket, cache + journal,
//                       jobs=2) inserting or removing a no-op
//                       self-assignment at the top of one handler;
//   portfolio_verdicts  one portfolio-engine verdict per request on the
//                       scale-1 corpus, one VerifySession per program.
//
// Every verdict is compared with the generator's construction-time
// ground truth; a mismatch, an error, a budget status, or a structured
// daemon error counts as a failed op. Timings are taken here, around the
// library calls — never from the library's self-reported millis.
//
// --trace 1 records spans (name, start, end, parent, request id) around
// the workload's calls, alternating tracing on and off per request to
// measure its overhead, then runs a layer sweep that times each layer's
// public calls. The per-layer metrics are reduced from those spans; the
// spans themselves are written to .bench_out/ when the run ends.
//
// The last line of stdout is one JSON object: correct, attempted,
// failed, metrics. Set-up failures exit 1 with a one-line reason.
// See perfbench/README.md for the workloads and metric definitions.
//
//===----------------------------------------------------------------------===//

#include "ast/cmd.h"
#include "daemon/client.h"
#include "daemon/daemon.h"
#include "daemon/journal.h"
#include "daemon/protocol.h"
#include "gen/generator.h"
#include "reflex/reflex.h"
#include "service/proofcache.h"
#include "service/scheduler.h"
#include "support/json.h"
#include "verify/incremental.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <ctime>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <numeric>
#include <random>
#include <set>
#include <string>
#include <vector>

#include <sys/resource.h>
#include <unistd.h>

using namespace reflex;
namespace fs = std::filesystem;

namespace {

//===----------------------------------------------------------------------===//
// Clocks, statistics, failure reporting
//===----------------------------------------------------------------------===//

using Clock = std::chrono::steady_clock;
const Clock::time_point Epoch = Clock::now();

double nowMs() {
  return std::chrono::duration<double, std::milli>(Clock::now() - Epoch)
      .count();
}

double cpuMs() {
  timespec Ts;
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &Ts);
  return double(Ts.tv_sec) * 1e3 + double(Ts.tv_nsec) / 1e6;
}

/// Linear interpolation between order statistics (Q in [0, 1]).
double quantile(std::vector<double> V, double Q) {
  if (V.empty())
    return 0;
  std::sort(V.begin(), V.end());
  double Pos = Q * double(V.size() - 1);
  size_t Lo = size_t(Pos);
  size_t Hi = std::min(Lo + 1, V.size() - 1);
  return V[Lo] + (V[Hi] - V[Lo]) * (Pos - double(Lo));
}

double median(const std::vector<double> &V) { return quantile(V, 0.5); }

[[noreturn]] void die(const std::string &Why);

/// Failed-op accounting. Each failure is counted; the first few are
/// described on stderr so a red run names its cause.
struct Tally {
  uint64_t Attempted = 0;
  uint64_t Failed = 0;
  unsigned Described = 0;

  void fail(const std::string &Why) {
    ++Failed;
    if (Described++ < 8)
      std::fprintf(stderr, "failed op: %s\n", Why.c_str());
  }
};

//===----------------------------------------------------------------------===//
// Tracing: in-memory spans around the calls into each layer
//===----------------------------------------------------------------------===//

struct SpanRec {
  std::string Name;
  double Start = 0, End = 0;
  int Parent = -1;
  uint64_t Req = 0;
};

struct Tracer {
  /// Request ids from here on belong to the layer sweep (one per pass);
  /// below it they number the workload's own requests.
  static constexpr uint64_t SweepBase = 1000000;

  bool On = false;
  uint64_t Req = 0;
  int Cur = -1;
  std::vector<SpanRec> Spans;

  /// Durations of every layer-sweep span named \p Name.
  std::vector<double> durations(const std::string &Name) const {
    std::vector<double> Out;
    for (const SpanRec &S : Spans)
      if (S.Req >= SweepBase && S.Name == Name)
        Out.push_back(S.End - S.Start);
    return Out;
  }
  /// Per-pass totals of layer-sweep spans named \p Name.
  std::vector<double> perPass(const std::string &Name) const {
    std::map<uint64_t, double> ByReq;
    for (const SpanRec &S : Spans)
      if (S.Req >= SweepBase && S.Name == Name)
        ByReq[S.Req] += S.End - S.Start;
    std::vector<double> Out;
    for (const auto &[R, Ms] : ByReq)
      Out.push_back(Ms);
    return Out;
  }
};

Tracer Tracing;

/// Times one call; records a span when tracing is on. Spans nest by
/// construction order (single-threaded: every span is opened on the
/// benchmark's own thread).
class Span {
public:
  explicit Span(const char *Name) : Start(nowMs()) {
    if (!Tracing.On)
      return;
    Idx = int(Tracing.Spans.size());
    Tracing.Spans.push_back({Name, Start, Start, Tracing.Cur, Tracing.Req});
    Tracing.Cur = Idx;
  }
  ~Span() { end(); }
  Span(const Span &) = delete;
  Span &operator=(const Span &) = delete;

  /// Closes the span (idempotent) and returns its duration in ms.
  double end() {
    if (Done)
      return Ms;
    Done = true;
    Ms = nowMs() - Start;
    if (Idx >= 0) {
      Tracing.Spans[Idx].End = Start + Ms;
      Tracing.Cur = Tracing.Spans[Idx].Parent;
    }
    return Ms;
  }

private:
  double Start;
  double Ms = 0;
  int Idx = -1;
  bool Done = false;
};

/// Writes every span plus a per-name summary (count, total, self time =
/// duration minus the part covered by direct children).
void writeTrace(const std::string &Path) {
  std::vector<double> ChildMs(Tracing.Spans.size(), 0);
  for (const SpanRec &S : Tracing.Spans)
    if (S.Parent >= 0)
      ChildMs[S.Parent] += S.End - S.Start;
  struct Agg {
    uint64_t Count = 0;
    double Total = 0, Self = 0;
  };
  std::map<std::string, Agg> ByName;
  for (size_t I = 0; I < Tracing.Spans.size(); ++I) {
    const SpanRec &S = Tracing.Spans[I];
    Agg &A = ByName[S.Name];
    ++A.Count;
    A.Total += S.End - S.Start;
    A.Self += S.End - S.Start - ChildMs[I];
  }
  JsonWriter W;
  W.beginObject();
  W.key("summary");
  W.beginObject();
  for (const auto &[Name, A] : ByName) {
    W.key(Name);
    W.beginObject();
    W.field("count", int64_t(A.Count));
    W.key("total_ms");
    W.value(A.Total);
    W.key("self_ms");
    W.value(A.Self);
    W.endObject();
  }
  W.endObject();
  W.key("spans");
  W.beginArray();
  for (const SpanRec &S : Tracing.Spans) {
    W.beginObject();
    W.field("name", S.Name);
    W.key("start_ms");
    W.value(S.Start);
    W.key("end_ms");
    W.value(S.End);
    W.field("parent", int64_t(S.Parent));
    W.field("req", int64_t(S.Req));
    W.endObject();
  }
  W.endArray();
  W.endObject();
  std::error_code EC;
  fs::create_directories(fs::path(Path).parent_path(), EC);
  std::ofstream Out(Path);
  Out << W.str() << "\n";
  if (!Out)
    std::fprintf(stderr, "warning: cannot write trace to %s\n", Path.c_str());
}

//===----------------------------------------------------------------------===//
// Hermetic scratch directory
//===----------------------------------------------------------------------===//

/// This run's private directory: cache, journal, and daemon socket live
/// here, so no earlier run's state is ever read. The path is relative to
/// the working directory and short, because AF_UNIX socket paths are
/// limited to about 107 bytes. Removed at exit, on every exit path.
std::string RunDir;

void removeRunDir() {
  if (RunDir.empty())
    return;
  std::error_code EC;
  fs::remove_all(RunDir, EC);
  RunDir.clear();
}

[[noreturn]] void die(const std::string &Why) {
  std::fprintf(stderr, "reflex_bench: %s\n", Why.c_str());
  removeRunDir();
  std::exit(1);
}

/// A fresh, empty subdirectory of the run directory.
std::string freshDir(const std::string &Name) {
  std::string D = RunDir + "/" + Name;
  std::error_code EC;
  fs::remove_all(D, EC);
  if (!fs::create_directories(D, EC))
    die("cannot create " + D + ": " + EC.message());
  return D;
}

double dirBytes(const std::string &Dir) {
  double Bytes = 0;
  std::error_code EC;
  for (const auto &E : fs::recursive_directory_iterator(Dir, EC))
    if (E.is_regular_file(EC))
      Bytes += double(E.file_size(EC));
  return Bytes;
}

double fileBytes(const std::string &Path) {
  std::error_code EC;
  uintmax_t N = fs::file_size(Path, EC);
  return EC ? 0 : double(N);
}

//===----------------------------------------------------------------------===//
// Corpus, ground truth, and the edit stream
//===----------------------------------------------------------------------===//

/// What a run's inputs are made from. The corpus content is pinned by
/// CorpusSeed (default 42, the repo's yardstick corpus): generated
/// corpora of different seeds differ up to 2x in verification cost, so
/// letting --seed pick the corpus would make runs of one commit
/// incomparable. --seed (Seed) picks the request stream instead: the
/// order programs, properties, and edited handlers are visited in.
struct Inputs {
  uint64_t CorpusSeed = 42;
  uint64_t Seed = 42;
};

/// A seeded permutation of 0..N-1.
std::vector<size_t> permutation(size_t N, uint64_t Seed) {
  std::vector<size_t> P(N);
  std::iota(P.begin(), P.end(), size_t(0));
  std::mt19937_64 Rng(Seed);
  std::shuffle(P.begin(), P.end(), Rng);
  return P;
}

gen::GeneratedCorpus corpus(uint64_t Seed, unsigned Scale) {
  gen::GenConfig C;
  C.Seed = Seed;
  C.Scale = Scale;
  gen::GeneratedCorpus Corpus = gen::generateCorpus(C);
  if (Corpus.Instances.empty())
    die("generated corpus is empty");
  return Corpus;
}

std::vector<const Program *> programsOf(const gen::GeneratedCorpus &C) {
  std::vector<const Program *> Out;
  for (const gen::GeneratedInstance &I : C.Instances)
    Out.push_back(I.Program.get());
  return Out;
}

const char *expectedStatusName(gen::ExpectKind K) {
  switch (K) {
  case gen::ExpectKind::Proved:
    return verifyStatusName(VerifyStatus::Proved);
  case gen::ExpectKind::Refuted:
    return verifyStatusName(VerifyStatus::Refuted);
  case gen::ExpectKind::Unknown:
    return verifyStatusName(VerifyStatus::Unknown);
  }
  return "?";
}

/// Compares one returned verdict (by status name) with ground truth; a
/// mismatch (budget statuses included) fails the op.
void checkVerdict(const gen::GeneratedInstance &Inst, const std::string &Prop,
                  const std::string &Status, Tally &T) {
  const gen::ExpectedVerdict *E = Inst.findExpected(Prop);
  if (!E)
    T.fail(Inst.Name + "/" + Prop + ": no ground truth for this property");
  else if (Status != expectedStatusName(E->Expect))
    T.fail(Inst.Name + "/" + Prop + ": got " + Status + ", expected " +
           expectedStatusName(E->Expect));
}

/// Checks a whole report: one result per property, each matching truth.
void checkReport(const gen::GeneratedInstance &Inst,
                 const VerificationReport &R, Tally &T) {
  if (R.Results.size() != Inst.Expected.size()) {
    T.fail(Inst.Name + ": " + std::to_string(R.Results.size()) +
           " results for " + std::to_string(Inst.Expected.size()) +
           " properties");
    return;
  }
  for (const PropertyResult &PR : R.Results)
    checkVerdict(Inst, PR.Name, verifyStatusName(PR.Status), T);
}

/// Inserts \p Stmt at the start of the \p I-th handler's body (0-based,
/// source order).
std::string insertAtHandler(const std::string &Src, size_t I,
                            const std::string &Stmt) {
  size_t Pos = 0;
  for (size_t N = 0;; ++N) {
    Pos = Src.find("\nhandler ", Pos);
    if (Pos == std::string::npos)
      return {};
    size_t Brace = Src.find('{', Pos);
    if (Brace == std::string::npos)
      return {};
    if (N == I)
      return Src.substr(0, Brace + 1) + "\n  " + Stmt + Src.substr(Brace + 1);
    Pos = Brace;
  }
}

/// A no-op self-assignment of a variable \p H already assigns, so the
/// edit keeps the handler's interface. Empty when it assigns nothing.
std::string nopFor(const Handler &H) {
  std::set<std::string> Assigned;
  collectAssignedVars(*H.Body, Assigned);
  if (Assigned.empty())
    return {};
  const std::string &V = *Assigned.begin();
  return V + " = " + V + ";";
}

/// One program's edit stream: the pristine source and one variant per
/// editable handler. Edits alternate insert (pristine -> variant i) and
/// remove (variant i -> pristine), walking i round-robin, so every
/// request is a real source change and the reachable sources stay the
/// finite set whose verdicts the set-up confirmed.
struct EditStream {
  const gen::GeneratedInstance *Inst = nullptr;
  std::vector<std::string> Sources; ///< variant sources
  std::vector<ProgramPtr> Programs; ///< parsed variants

  /// Edit number \p C of the stream: its source and parsed program.
  std::pair<const std::string *, const Program *> edit(uint64_t C) const {
    if (C % 2 == 1)
      return {&Inst->Source, Inst->Program.get()};
    size_t V = size_t(C / 2) % Sources.size();
    return {&Sources[V], Programs[V].get()};
  }
};

/// Builds every program's edit stream — programs in a \p Seed-permuted
/// order, each walking its handlers in a \p Seed-permuted order — and
/// confirms, once per variant and untimed, that a from-scratch
/// verification of the edited program still meets the pristine program's
/// ground truth.
std::vector<EditStream> editStreams(const gen::GeneratedCorpus &C,
                                    uint64_t Seed) {
  std::vector<EditStream> Streams;
  std::vector<const Program *> Variants;
  std::vector<const gen::GeneratedInstance *> Owners;
  for (size_t I : permutation(C.Instances.size(), Seed)) {
    const gen::GeneratedInstance &Inst = C.Instances[I];
    EditStream S;
    S.Inst = &Inst;
    for (size_t H : permutation(Inst.Program->Handlers.size(), Seed + I)) {
      std::string Nop = nopFor(Inst.Program->Handlers[H]);
      if (Nop.empty())
        continue;
      std::string Src = insertAtHandler(Inst.Source, H, Nop);
      Result<ProgramPtr> P = loadProgram(Src, Inst.Name);
      if (!P.ok())
        die("edited " + Inst.Name + " does not load: " + P.error());
      S.Sources.push_back(std::move(Src));
      S.Programs.push_back(P.take());
      Variants.push_back(S.Programs.back().get());
      Owners.push_back(&Inst);
    }
    if (S.Sources.empty())
      die(Inst.Name + " has no editable handler");
    Streams.push_back(std::move(S));
  }
  // One variant per batch: a batch keeps every program's abstraction
  // alive until it returns, which would dominate the run's peak RSS.
  SchedulerOptions O;
  O.Jobs = 2;
  O.Verify = gen::corpusVerifyOptions();
  Tally Check;
  for (size_t I = 0; I < Variants.size(); ++I)
    checkReport(*Owners[I], verifyParallel(*Variants[I], O), Check);
  if (Check.Failed)
    die("an edited program's verdicts differ from ground truth");
  return Streams;
}

//===----------------------------------------------------------------------===//
// The in-process daemon and its client
//===----------------------------------------------------------------------===//

std::string openSessionFrame(const std::string &Session,
                             const std::string &Source) {
  DaemonRequest R;
  R.Verb = "open-session";
  R.Session = Session;
  R.Jobs = 2;
  R.Verify = gen::corpusVerifyOptions();
  return encodeOpenSessionFrame(R, Source);
}

std::string editFrame(const std::string &Session, const std::string &Source) {
  JsonWriter W;
  W.beginObject();
  W.field("verb", "edit");
  W.field("session", Session);
  W.field("program", Source);
  W.endObject();
  return W.take();
}

/// Checks one daemon response frame against ground truth; returns the
/// number of verdicts it carried.
size_t checkDaemonFrame(const gen::GeneratedInstance &Inst,
                        const Result<std::string> &Raw, Tally &T) {
  if (!Raw.ok()) {
    T.fail(Inst.Name + ": daemon transport: " + Raw.error());
    return 0;
  }
  Result<JsonValue> Resp = parseJson(*Raw);
  if (!Resp.ok()) {
    T.fail(Inst.Name + ": daemon frame does not parse: " + Resp.error());
    return 0;
  }
  if (!Resp->getBool("ok")) {
    T.fail(Inst.Name + ": daemon error: " + Resp->getString("error"));
    return 0;
  }
  const JsonValue *Results = Resp->get("results");
  if (!Results || !Results->isArray() ||
      Results->items().size() != Inst.Expected.size()) {
    T.fail(Inst.Name + ": daemon results do not cover every property");
    return 0;
  }
  for (const JsonValue &R : Results->items())
    checkVerdict(Inst, R.getString("name"), R.getString("status"), T);
  return Results->items().size();
}

/// reflexd in this process over a real socket, with a cache and journal
/// in \p Dir, one open session per corpus program.
struct DaemonRig {
  std::unique_ptr<ReflexDaemon> Daemon;
  std::unique_ptr<DaemonClient> Client;
  std::string CacheDir;

  void start(const std::string &Dir, const gen::GeneratedCorpus &C) {
    DaemonOptions O;
    O.SocketPath = Dir + "/d.sock";
    O.CacheDir = Dir + "/cache";
    O.Jobs = 2;
    O.Journal = true;
    O.MaxSessions = unsigned(C.Instances.size());
    CacheDir = O.CacheDir;
    Result<std::unique_ptr<ReflexDaemon>> D = ReflexDaemon::start(O);
    if (!D.ok())
      die("daemon start: " + D.error());
    Daemon = D.take();
    Daemon->serveInBackground();
    Result<DaemonClient> Cl = DaemonClient::connect(O.SocketPath);
    if (!Cl.ok())
      die("daemon connect: " + Cl.error());
    Client = std::make_unique<DaemonClient>(Cl.take());
    for (const gen::GeneratedInstance &Inst : C.Instances) {
      Tally Open;
      checkDaemonFrame(
          Inst, Client->callRaw(openSessionFrame(Inst.Name, Inst.Source)),
          Open);
      if (Open.Failed)
        die("open-session " + Inst.Name + " failed its ground-truth check");
    }
  }

  std::string journalPath() const { return CacheDir + "/verdicts.journal"; }

  void stop() {
    if (!Daemon)
      return;
    if (Client)
      (void)Client->callRaw("{\"verb\":\"shutdown\"}");
    Daemon->stop();
    Daemon.reset(); // joins the serving thread
    Client.reset();
  }
  ~DaemonRig() { stop(); }
};

//===----------------------------------------------------------------------===//
// Workloads
//===----------------------------------------------------------------------===//

/// What one request returned: its verdicts, and the wall time of its
/// calls into the library (the benchmark's own checks excluded).
struct Served {
  size_t Verdicts = 0;
  double Ms = 0;
};

/// A closed-loop workload: set-up, then one request at a time.
class Workload {
public:
  virtual ~Workload() = default;
  /// Builds the workload's state from scratch (timed; repeated).
  virtual void setup() = 0;
  /// Releases what setup() built, so the next setup() starts cold.
  virtual void teardown() {}
  /// Serves request \p K. Failures go to \p T.
  virtual Served request(uint64_t K, Tally &T) = 0;
  /// Requests per full cycle over the inputs (tracing alternates within
  /// it so traced and untraced requests see the same mix).
  virtual uint64_t period() const { return 1; }
};

class CorpusBatch : public Workload {
public:
  explicit CorpusBatch(const Inputs &In) : In(In) {}
  void setup() override {
    Corpus = corpus(In.CorpusSeed, 6);
    Order = permutation(Corpus.Instances.size(), In.Seed);
    Programs.clear();
    for (size_t I : Order)
      Programs.push_back(Corpus.Instances[I].Program.get());
  }
  Served request(uint64_t, Tally &T) override {
    // One worker: on a 4-vCPU VM whose host steals CPU time, a second
    // worker's wall time follows the host (interleaved 20-s runs spread
    // 0.26 on the median latency at jobs=2 against 0.03 at jobs=1). The
    // layer sweep still measures the jobs=2 speedup.
    SchedulerOptions O;
    O.Jobs = 1;
    O.Verify = gen::corpusVerifyOptions();
    Span S("service.scheduler.batch");
    BatchOutcome B = verifyPrograms(Programs, O);
    Served Out{0, S.end()};
    for (size_t I = 0; I < Order.size(); ++I) {
      checkReport(Corpus.Instances[Order[I]], B.Reports[I], T);
      Out.Verdicts += B.Reports[I].Results.size();
    }
    return Out;
  }

private:
  Inputs In;
  gen::GeneratedCorpus Corpus;
  std::vector<size_t> Order; ///< batch position -> corpus instance
  std::vector<const Program *> Programs;
};

class OneshotCached : public Workload {
public:
  explicit OneshotCached(const Inputs &In) : In(In) {}
  void setup() override {
    Corpus = corpus(In.CorpusSeed, 6);
    Order = permutation(Corpus.Instances.size(), In.Seed);
    Dir = freshDir("oneshot-cache-" + std::to_string(Setups++));
    Result<std::unique_ptr<ProofCache>> C = ProofCache::open(Dir);
    if (!C.ok())
      die("cache open: " + C.error());
    SchedulerOptions O;
    O.Jobs = 1; // one worker, as in CorpusBatch
    O.Verify = gen::corpusVerifyOptions();
    O.Cache = C->get();
    BatchOutcome B = verifyPrograms(programsOf(Corpus), O);
    Tally Check;
    for (size_t I = 0; I < Corpus.Instances.size(); ++I)
      checkReport(Corpus.Instances[I], B.Reports[I], Check);
    if (Check.Failed)
      die("cache population failed its ground-truth check");
  }
  void teardown() override {
    std::error_code EC;
    fs::remove_all(Dir, EC);
  }
  Served request(uint64_t K, Tally &T) override {
    const gen::GeneratedInstance &Inst =
        Corpus.Instances[Order[K % Order.size()]];
    const double T0 = nowMs();
    std::unique_ptr<ProofCache> Cache;
    {
      Span S("service.proofcache.open");
      Result<std::unique_ptr<ProofCache>> C = ProofCache::open(Dir);
      if (!C.ok()) {
        T.fail("cache open: " + C.error());
        return {0, nowMs() - T0};
      }
      Cache = C.take();
    }
    ProgramPtr P;
    {
      Span S("parser.load");
      Result<ProgramPtr> L = loadProgram(Inst.Source, Inst.Name);
      if (!L.ok()) {
        T.fail(Inst.Name + ": " + L.error());
        return {0, nowMs() - T0};
      }
      P = L.take();
    }
    SchedulerOptions O;
    O.Jobs = 1;
    O.Verify = gen::corpusVerifyOptions();
    O.Cache = Cache.get();
    VerificationReport R;
    {
      Span S("service.scheduler.verify");
      R = verifyParallel(*P, O);
    }
    const double Ms = nowMs() - T0;
    checkReport(Inst, R, T);
    // Fresh-process fidelity: each Proved verdict must be a cache hit
    // whose certificate was re-checked in full, not the fast path.
    for (const PropertyResult &PR : R.Results)
      if (PR.Status == VerifyStatus::Proved &&
          (!PR.CacheHit || !PR.CertChecked || PR.FastRecheck))
        T.fail(Inst.Name + "/" + PR.Name +
               ": Proved verdict not served by a full cache re-check");
    return {R.Results.size(), Ms};
  }
  uint64_t period() const override { return Order.size(); }

private:
  Inputs In;
  gen::GeneratedCorpus Corpus;
  std::vector<size_t> Order;
  std::string Dir;
  unsigned Setups = 0;
};

class DaemonEdit : public Workload {
public:
  explicit DaemonEdit(const Inputs &In) {
    // Untimed: the variants and their from-scratch confirmation.
    Corpus = corpus(In.CorpusSeed, 6);
    Streams = editStreams(Corpus, In.Seed);
    Edits.assign(Streams.size(), 0);
  }
  void setup() override {
    Dir = freshDir("daemon-" + std::to_string(Setups++));
    Rig.start(Dir, Corpus);
  }
  void teardown() override {
    Rig.stop();
    std::error_code EC;
    fs::remove_all(Dir, EC);
    Edits.assign(Streams.size(), 0);
  }
  Served request(uint64_t K, Tally &T) override {
    size_t I = K % Streams.size();
    const gen::GeneratedInstance &Inst = *Streams[I].Inst;
    std::string Frame =
        editFrame(Inst.Name, *Streams[I].edit(Edits[I]++).first);
    Span S("daemon.roundtrip");
    Result<std::string> Raw = Rig.Client->callRaw(Frame);
    double Ms = S.end();
    return {checkDaemonFrame(Inst, Raw, T), Ms};
  }
  uint64_t period() const override { return Streams.size(); }

private:
  gen::GeneratedCorpus Corpus;
  std::vector<EditStream> Streams;
  std::vector<uint64_t> Edits; ///< edits sent per session
  std::string Dir;
  DaemonRig Rig;
  unsigned Setups = 0;
};

class PortfolioVerdicts : public Workload {
public:
  explicit PortfolioVerdicts(const Inputs &In) : In(In) {}
  void setup() override {
    Sessions.clear();
    Items.clear();
    Corpus = corpus(In.CorpusSeed, 1);
    VerifyOptions VO = gen::corpusVerifyOptions();
    VO.Engine = EngineKind::Portfolio;
    std::vector<std::pair<size_t, size_t>> All;
    for (size_t I = 0; I < Corpus.Instances.size(); ++I) {
      const gen::GeneratedInstance &Inst = Corpus.Instances[I];
      Sessions.push_back(std::make_unique<VerifySession>(*Inst.Program, VO));
      for (size_t J = 0; J < Inst.Program->Properties.size(); ++J)
        All.push_back({I, J});
    }
    for (size_t X : permutation(All.size(), In.Seed))
      Items.push_back(All[X]);
  }
  Served request(uint64_t K, Tally &T) override {
    auto [I, J] = Items[K % Items.size()];
    const gen::GeneratedInstance &Inst = Corpus.Instances[I];
    const Property &Prop = Inst.Program->Properties[J];
    Span S("verify.portfolio.verdict");
    PropertyResult R = Sessions[I]->verify(Prop);
    double Ms = S.end();
    checkVerdict(Inst, Prop.Name, verifyStatusName(R.Status), T);
    return {1, Ms};
  }
  uint64_t period() const override { return Items.size(); }

private:
  Inputs In;
  gen::GeneratedCorpus Corpus;
  std::vector<std::unique_ptr<VerifySession>> Sessions;
  std::vector<std::pair<size_t, size_t>> Items; ///< (program, property)
};

//===----------------------------------------------------------------------===//
// Layer sweep (traced runs): each layer's public calls, timed from here
//===----------------------------------------------------------------------===//

struct Metric {
  std::string Name;
  double Value;
  std::string Unit;
};

class LayerSweep {
public:
  LayerSweep(const Inputs &In, Tally &T) : T(T) {
    C6 = corpus(In.CorpusSeed, 6);
    C1 = corpus(In.CorpusSeed, 1);
    Programs = programsOf(C6);
    VO = gen::corpusVerifyOptions();
    Streams = editStreams(C6, In.Seed);
    IncEdits.assign(Streams.size(), 0);
    DaemonEdits.assign(Streams.size(), 0);

    // The warm cache the proof-cache probes read.
    CacheDir = freshDir("sweep-cache");
    {
      Result<std::unique_ptr<ProofCache>> C = ProofCache::open(CacheDir);
      if (!C.ok())
        die("cache open: " + C.error());
      SchedulerOptions O;
      O.Jobs = 2;
      O.Verify = VO;
      O.Cache = C->get();
      verifyPrograms(Programs, O);
    }
    for (const auto &E : fs::directory_iterator(CacheDir))
      if (E.is_regular_file() && E.path().extension() == ".json") {
        Keys.push_back(E.path().stem().string());
        EntryBytes += double(E.file_size());
      }
    std::sort(Keys.begin(), Keys.end());
    DiskMb = dirBytes(CacheDir) / (1024.0 * 1024.0);
    Result<std::unique_ptr<ProofCache>> S =
        ProofCache::open(freshDir("sweep-store"));
    if (!S.ok())
      die("cache open: " + S.error());
    StoreCache = S.take();

    // Portfolio sessions, as the portfolio_verdicts workload builds them.
    VerifyOptions PO = VO;
    PO.Engine = EngineKind::Portfolio;
    for (const gen::GeneratedInstance &Inst : C1.Instances)
      PortSessions.push_back(
          std::make_unique<VerifySession>(*Inst.Program, PO));

    // The in-process incremental verifiers (the daemon's options, their
    // own cache) and the daemon, both opened on every pristine program.
    Result<std::unique_ptr<ProofCache>> IC =
        ProofCache::open(freshDir("sweep-inc"));
    if (!IC.ok())
      die("cache open: " + IC.error());
    IncCache = IC.take();
    for (const EditStream &S : Streams) {
      Inc.push_back(std::make_unique<IncrementalVerifier>(VO, IncCache.get()));
      Shares.emplace_back();
      incVerify(Inc.size() - 1, *S.Inst->Program);
    }
    Rig.start(freshDir("sweep-daemon"), C6);

    Result<std::unique_ptr<VerdictJournal>> J = VerdictJournal::open(
        freshDir("sweep-journal") + "/j.journal", &Replay);
    if (!J.ok())
      die("journal open: " + J.error());
    Journal = J.take();
  }

  void pass() {
    ++Passes;
    Tracing.Req = Tracer::SweepBase + Passes;
    parser();
    abstraction();
    proverCheckerBmc();
    pdrPortfolio();
    scheduler();
    proofCache();
    incrementalAndDaemon();
    journal();
  }

  std::vector<Metric> metrics() const {
    std::vector<Metric> M;
    auto Add = [&](const char *Name, double V, const char *Unit) {
      M.push_back({Name, V, Unit});
    };
    Add("parser.load_ms", median(Tracing.durations("parser.load")), "ms");
    Add("parser.kb_per_s", median(KbPerS), "KB/s");
    Add("verify.abs.build_ms", median(Tracing.perPass("verify.abs.build")),
        "ms");
    Add("verify.abs.terms", AbsTerms, "count");
    double ProverMs = median(Tracing.perPass("verify.prover"));
    double CheckerMs = median(Tracing.perPass("verify.checker"));
    Add("verify.prover.ms", ProverMs, "ms");
    Add("verify.prover.proved", double(Proved), "count");
    Add("sym.solver.queries", double(Queries), "count");
    Add("sym.solver.memo_hit_ratio",
        MemoHits + Queries ? double(MemoHits) / double(MemoHits + Queries)
                           : 0,
        "ratio");
    Add("sym.solver.assumption_checks", double(AssumptionChecks), "count");
    Add("sym.solver.trail_undos", double(TrailUndos), "count");
    Add("verify.checker.ms", CheckerMs, "ms");
    Add("verify.checker.to_prover_ratio",
        ProverMs > 0 ? CheckerMs / ProverMs : 0, "ratio");
    Add("verify.bmc.ms", median(Tracing.perPass("verify.bmc")), "ms");
    Add("verify.bmc.calls", double(BmcCalls), "count");
    Add("verify.pdr.ms", median(Tracing.perPass("verify.pdr")), "ms");
    Add("verify.pdr.proved", double(PdrProved), "count");
    Add("verify.portfolio.measured_ms",
        median(Tracing.durations("verify.portfolio")), "ms");
    Add("verify.portfolio.reported_ms", median(PortReportedMs), "ms");
    double J2 = median(Tracing.durations("service.scheduler.jobs2"));
    double J1 = median(Tracing.durations("service.scheduler.jobs1"));
    Add("service.scheduler.wall_ms", J2, "ms");
    Add("service.scheduler.busy_ms", median(SchedBusyMs), "ms");
    Add("service.scheduler.speedup_vs_jobs1", J2 > 0 ? J1 / J2 : 0, "x");
    Add("service.scheduler.deduped", double(Deduped), "count");
    Add("service.proofcache.open_ms",
        median(Tracing.durations("service.proofcache.open")), "ms");
    Add("service.proofcache.entries", double(Keys.size()), "count");
    Add("service.proofcache.entry_kb",
        Keys.empty() ? 0 : EntryBytes / 1024.0 / double(Keys.size()), "KB");
    Add("service.proofcache.disk_mb", DiskMb, "MB");
    Add("service.proofcache.lookup_ms",
        median(Tracing.durations("service.proofcache.lookup")), "ms");
    Add("service.proofcache.store_ms",
        median(Tracing.durations("service.proofcache.store")), "ms");
    Add("service.proofcache.hit_ratio",
        CacheHits + CacheMisses
            ? double(CacheHits) / double(CacheHits + CacheMisses)
            : 0,
        "ratio");
    Add("service.proofcache.rejected", double(CacheRejected), "count");
    double IncMs = median(Tracing.durations("verify.incremental.verify"));
    double RtMs = median(Tracing.durations("daemon.roundtrip"));
    Add("verify.incremental.verify_ms", IncMs, "ms");
    Add("verify.incremental.reverified",
        double(IncReverified) / double(edits(IncEdits)), "count");
    Add("verify.incremental.reused_ratio",
        IncReused + IncReverified
            ? double(IncReused) / double(IncReused + IncReverified)
            : 0,
        "ratio");
    Add("verify.incremental.path_hits", double(IncPathHits), "count");
    Add("verify.incremental.path_fallbacks", double(IncPathFallbacks),
        "count");
    Add("daemon.roundtrip_ms", RtMs, "ms");
    Add("daemon.overhead_ms", RtMs - IncMs, "ms");
    Add("daemon.journal.append_ms",
        median(Tracing.durations("daemon.journal.append")), "ms");
    Add("daemon.journal.bytes_per_edit",
        JournalGrowth / double(edits(DaemonEdits)), "B");
    Add("daemon.frame_kb", FrameBytes / 1024.0 / double(edits(DaemonEdits)),
        "KB");
    return M;
  }

  unsigned passes() const { return Passes; }

private:
  static uint64_t edits(const std::vector<uint64_t> &PerSession) {
    uint64_t N = 0;
    for (uint64_t E : PerSession)
      N += E;
    return std::max<uint64_t>(N, 1);
  }

  void parser() {
    double Bytes = 0, Ms = 0;
    for (const gen::GeneratedInstance &Inst : C6.Instances) {
      Span S("parser.load");
      Result<ProgramPtr> P = loadProgram(Inst.Source, Inst.Name);
      Ms += S.end();
      if (!P.ok())
        T.fail(Inst.Name + ": " + P.error());
      Bytes += double(Inst.Source.size());
    }
    KbPerS.push_back(Ms > 0 ? Bytes / 1024.0 / (Ms / 1e3) : 0);
  }

  void abstraction() {
    double Terms = 0;
    for (const Program *P : Programs) {
      std::shared_ptr<const FrozenAbstraction> A;
      {
        Span S("verify.abs.build");
        A = FrozenAbstraction::build(*P, VO);
      }
      Terms += double(A->context().termCount());
    }
    AbsTerms = Terms;
  }

  /// Proof search alone (certificate checks off, no BMC), then the
  /// independent checker on every Proved certificate, then BMC on every
  /// trace property the prover left open.
  void proverCheckerBmc() {
    VerifyOptions PO = VO;
    PO.CheckCertificates = false;
    PO.BmcDepthOnUnknown = 0;
    BmcOptions BO = VO.Bmc;
    BO.MaxDepth = VO.BmcDepthOnUnknown;
    uint64_t Prv = 0, Q = 0, MH = 0, AC = 0, TU = 0, Bmc = 0;
    for (const gen::GeneratedInstance &Inst : C6.Instances) {
      const Program &P = *Inst.Program;
      VerifySession Sess(P, PO);
      VerificationReport R;
      {
        Span S("verify.prover");
        R = Sess.verifyAll();
      }
      Prv += R.provedCount();
      Q += R.SolverQueries;
      MH += R.SolverMemoHits;
      AC += R.SolverAssumptionChecks;
      TU += R.SolverTrailUndos;
      for (size_t I = 0; I < R.Results.size() && I < P.Properties.size();
           ++I) {
        const PropertyResult &PR = R.Results[I];
        const Property &Prop = P.Properties[I];
        const gen::ExpectedVerdict *E = Inst.findExpected(PR.Name);
        bool WantProved = E && E->Expect == gen::ExpectKind::Proved;
        if ((PR.Status == VerifyStatus::Proved) != WantProved)
          T.fail(Inst.Name + "/" + PR.Name + ": prover status " +
                 verifyStatusName(PR.Status) + " disagrees with truth");
        if (PR.Status == VerifyStatus::Proved) {
          Span S("verify.checker");
          CheckOutcome C = checkCertificate(Sess.termContext(), P,
                                            Sess.behAbs(), Prop, PR.Cert,
                                            proverOptions(VO));
          S.end();
          if (!C.Ok)
            T.fail(Inst.Name + "/" + PR.Name + ": certificate rejected: " +
                   C.Why);
        } else if (Prop.isTrace()) {
          ++Bmc;
          Span S("verify.bmc");
          BmcResult B = bmcSearch(P, Prop, BO);
          S.end();
          bool WantRefuted = E && E->Expect == gen::ExpectKind::Refuted;
          if (B.Violated != WantRefuted)
            T.fail(Inst.Name + "/" + PR.Name + ": BMC disagrees with truth");
        }
      }
    }
    Proved = Prv;
    Queries = Q;
    MemoHits = MH;
    AssumptionChecks = AC;
    TrailUndos = TU;
    BmcCalls = Bmc;
  }

  /// Standalone PDR on a fixed slice of the scale-1 corpus — each
  /// program's first trace property, fresh session per pass (PDR is
  /// incomplete on history obligations, so only contradictions with
  /// truth fail) — then a rotating slice of portfolio verdicts through
  /// persistent sessions.
  void pdrPortfolio() {
    VerifyOptions PO = VO;
    PO.Engine = EngineKind::Pdr;
    uint64_t Prv = 0;
    for (const gen::GeneratedInstance &Inst : C1.Instances) {
      const auto &Props = Inst.Program->Properties;
      auto It = std::find_if(Props.begin(), Props.end(),
                             [](const Property &P) { return P.isTrace(); });
      if (It == Props.end())
        continue;
      VerifySession Sess(*Inst.Program, PO);
      PropertyResult PR;
      {
        Span S("verify.pdr");
        PR = Sess.verify(*It);
      }
      Prv += PR.Status == VerifyStatus::Proved;
      const gen::ExpectedVerdict *E = Inst.findExpected(PR.Name);
      if ((PR.Status == VerifyStatus::Proved &&
           (!E || E->Expect != gen::ExpectKind::Proved)) ||
          (PR.Status == VerifyStatus::Refuted &&
           (!E || E->Expect != gen::ExpectKind::Refuted)) ||
          isBudgetStatus(PR.Status))
        T.fail(Inst.Name + "/" + PR.Name + ": PDR " +
               verifyStatusName(PR.Status) + " contradicts truth");
    }
    PdrProved = Prv;
    // One property per program per pass, rotating.
    for (size_t I = 0; I < C1.Instances.size(); ++I) {
      const gen::GeneratedInstance &Inst = C1.Instances[I];
      const auto &Props = Inst.Program->Properties;
      const Property &Prop = Props[(Passes - 1) % Props.size()];
      PropertyResult R;
      {
        Span S("verify.portfolio");
        R = PortSessions[I]->verify(Prop);
      }
      PortReportedMs.push_back(R.Millis);
      checkVerdict(Inst, Prop.Name, verifyStatusName(R.Status), T);
    }
  }

  void scheduler() {
    SchedulerOptions O;
    O.Jobs = 2;
    O.Verify = VO;
    BatchOutcome B;
    double Cpu0 = cpuMs();
    {
      Span S("service.scheduler.jobs2");
      B = verifyPrograms(Programs, O);
    }
    SchedBusyMs.push_back(cpuMs() - Cpu0);
    Deduped = B.DedupedJobs;
    for (size_t I = 0; I < C6.Instances.size(); ++I)
      checkReport(C6.Instances[I], B.Reports[I], T);
    O.Jobs = 1;
    Span S("service.scheduler.jobs1");
    verifyPrograms(Programs, O);
  }

  void proofCache() {
    std::unique_ptr<ProofCache> Cache;
    {
      Span S("service.proofcache.open");
      Result<std::unique_ptr<ProofCache>> C = ProofCache::open(CacheDir);
      if (!C.ok()) {
        T.fail("cache open: " + C.error());
        return;
      }
      Cache = C.take();
    }
    // Every entry looked up; every fifth stored again (fsynced writes).
    for (size_t I = 0; I < Keys.size(); ++I) {
      std::optional<ProofCacheEntry> E;
      {
        Span S("service.proofcache.lookup");
        E = Cache->lookup(Keys[I]);
      }
      if (!E) {
        T.fail("cache entry " + Keys[I] + " did not decode");
        continue;
      }
      if (I % 5 != 0)
        continue;
      Span S("service.proofcache.store");
      Result<void> R = StoreCache->store(Keys[I], *E, "program", "property");
      S.end();
      if (!R.ok())
        T.fail("cache store: " + R.error());
      if (JournalVerdicts.size() < 16)
        JournalVerdicts.push_back(*E);
    }
    // One-shot serving through this instance: hit ratio and rejections.
    SchedulerOptions O;
    O.Jobs = 1;
    O.Verify = VO;
    O.Cache = Cache.get();
    uint64_t Hits = 0, Misses = 0;
    for (const gen::GeneratedInstance &Inst : C6.Instances) {
      VerificationReport R;
      {
        Span S("service.proofcache.serve");
        R = verifyParallel(*Inst.Program, O);
      }
      checkReport(Inst, R, T);
      Hits += R.ProofCacheHits;
      Misses += R.ProofCacheMisses;
    }
    CacheHits = Hits;
    CacheMisses = Misses;
    CacheRejected = Cache->stats().Rejected;
  }

  /// Verifies stream \p I's program \p P in its incremental verifier,
  /// on a fresh share (a share serves exactly one program version).
  void incVerify(size_t I, const Program &P) {
    Shares[I] = std::make_unique<VerifyShare>();
    SchedulerOptions S;
    S.Jobs = 2;
    S.Share = Shares[I].get();
    Inc[I]->setScheduler(S);
    {
      Span Sp("verify.incremental.verify");
      LastInc = Inc[I]->verify(P);
    }
    checkReport(*Streams[I].Inst, LastInc.Report, T);
  }

  /// The same edit stream through an in-process IncrementalVerifier and
  /// through the daemon's `edit` verb, one edit per program per pass.
  void incrementalAndDaemon() {
    uint64_t Reused = 0, Rev = 0, PH = 0, PF = 0;
    for (size_t I = 0; I < Streams.size(); ++I) {
      incVerify(I, *Streams[I].edit(IncEdits[I]++).second);
      Reused += LastInc.Reused;
      Rev += LastInc.Reverified;
      PH += LastInc.Report.PathHits;
      PF += LastInc.Report.PathFallbacks;
    }
    IncReused += Reused;
    IncReverified += Rev;
    IncPathHits = PH;
    IncPathFallbacks = PF;

    for (size_t I = 0; I < Streams.size(); ++I) {
      const gen::GeneratedInstance &Inst = *Streams[I].Inst;
      std::string Frame =
          editFrame(Inst.Name, *Streams[I].edit(DaemonEdits[I]++).first);
      double Before = fileBytes(Rig.journalPath());
      Result<std::string> Raw = [&] {
        Span S("daemon.roundtrip");
        return Rig.Client->callRaw(Frame);
      }();
      JournalGrowth += fileBytes(Rig.journalPath()) - Before;
      if (Raw.ok())
        FrameBytes += double(Raw->size());
      checkDaemonFrame(Inst, Raw, T);
    }
  }

  void journal() {
    for (const ProofCacheEntry &E : JournalVerdicts) {
      JournalVerdict V;
      V.PropertyText = E.DeclSha256;
      V.PropertyName = "property";
      V.Status = E.Status;
      V.Reason = E.Reason;
      V.CanonicalCert = E.CanonicalCert;
      V.CertJson = E.CertJson;
      V.ServedBy = E.ServedBy;
      V.FootprintCollected = E.FootprintCollected;
      V.FootprintAll = E.FootprintAll;
      V.Footprint = E.Footprint;
      Span S("daemon.journal.append");
      Result<void> R = Journal->appendVerdict("s", V);
      S.end();
      if (!R.ok())
        T.fail("journal append: " + R.error());
    }
  }

  Tally &T;
  gen::GeneratedCorpus C6, C1;
  std::vector<const Program *> Programs;
  VerifyOptions VO;
  std::vector<EditStream> Streams;
  std::vector<uint64_t> IncEdits, DaemonEdits; ///< edits sent per program
  unsigned Passes = 0;

  std::vector<double> KbPerS, SchedBusyMs, PortReportedMs;
  double AbsTerms = 0;
  uint64_t Proved = 0, Queries = 0, MemoHits = 0, AssumptionChecks = 0,
           TrailUndos = 0, BmcCalls = 0, PdrProved = 0, Deduped = 0;

  std::string CacheDir;
  std::vector<std::string> Keys;
  double EntryBytes = 0, DiskMb = 0;
  std::unique_ptr<ProofCache> StoreCache;
  uint64_t CacheHits = 0, CacheMisses = 0, CacheRejected = 0;

  std::vector<std::unique_ptr<VerifySession>> PortSessions;

  std::unique_ptr<ProofCache> IncCache;
  std::vector<std::unique_ptr<IncrementalVerifier>> Inc;
  std::vector<std::unique_ptr<VerifyShare>> Shares;
  IncrementalVerifier::Outcome LastInc;
  uint64_t IncReused = 0, IncReverified = 0, IncPathHits = 0,
           IncPathFallbacks = 0;

  DaemonRig Rig;
  double JournalGrowth = 0, FrameBytes = 0;

  JournalReplay Replay;
  std::unique_ptr<VerdictJournal> Journal;
  std::vector<ProofCacheEntry> JournalVerdicts;
};

//===----------------------------------------------------------------------===//
// Command line and the closed loop
//===----------------------------------------------------------------------===//

struct Args {
  std::string Workload;
  Inputs In;
  double Seconds = 10;
  bool Traced = false;
  /// Quick mode: a few requests and one sweep pass, all checks on.
  bool Quick = false;
};

Args parseArgs(int Argc, char **Argv) {
  Args A;
  for (int I = 1; I < Argc; ++I) {
    std::string F = Argv[I];
    auto Val = [&]() -> std::string {
      if (I + 1 >= Argc)
        die("flag " + F + " needs a value");
      return Argv[++I];
    };
    if (F == "--workload")
      A.Workload = Val();
    else if (F == "--seed")
      A.In.Seed = std::strtoull(Val().c_str(), nullptr, 10);
    else if (F == "--corpus-seed")
      A.In.CorpusSeed = std::strtoull(Val().c_str(), nullptr, 10);
    else if (F == "--seconds")
      A.Seconds = std::atof(Val().c_str());
    else if (F == "--trace")
      A.Traced = Val() == "1";
    else if (F == "--quick")
      A.Quick = true;
    else
      die("unknown flag " + F);
  }
  if (A.Seconds <= 0)
    die("--seconds must be positive");
  return A;
}

std::unique_ptr<Workload> makeWorkload(const Args &A) {
  if (A.Workload == "corpus_batch")
    return std::make_unique<CorpusBatch>(A.In);
  if (A.Workload == "oneshot_cached")
    return std::make_unique<OneshotCached>(A.In);
  if (A.Workload == "daemon_edit")
    return std::make_unique<DaemonEdit>(A.In);
  if (A.Workload == "portfolio_verdicts")
    return std::make_unique<PortfolioVerdicts>(A.In);
  die("unknown workload '" + A.Workload + "' (corpus_batch, oneshot_cached, "
      "daemon_edit, portfolio_verdicts)");
}

double peakRssMb() {
  rusage U;
  getrusage(RUSAGE_SELF, &U);
  return double(U.ru_maxrss) / 1024.0; // ru_maxrss is in KiB on Linux
}

void printResult(bool Correct, const Tally &T, const std::vector<Metric> &M) {
  JsonWriter W;
  W.beginObject();
  W.field("correct", Correct);
  W.field("attempted", int64_t(T.Attempted));
  W.field("failed", int64_t(T.Failed));
  W.key("metrics");
  W.beginObject();
  for (const Metric &X : M) {
    char Num[64];
    std::snprintf(Num, sizeof(Num), "%.17g", X.Value);
    W.key(X.Name);
    W.beginObject();
    W.key("value");
    W.rawValue(Num); // every digit (the default rendering rounds)
    W.field("unit", X.Unit);
    W.endObject();
  }
  W.endObject();
  W.endObject();
  std::printf("%s\n", W.str().c_str());
  std::fflush(stdout);
}

} // namespace

int main(int Argc, char **Argv) {
  Args A = parseArgs(Argc, Argv);
  RunDir = ".bench_tmp/" + std::to_string(::getpid());
  {
    std::error_code EC;
    fs::remove_all(RunDir, EC);
    if (!fs::create_directories(RunDir, EC))
      die("cannot create " + RunDir + ": " + EC.message());
  }

  std::unique_ptr<Workload> W = makeWorkload(A);

  // Set up from scratch at least seven times and for at least three
  // seconds; report the median.
  std::vector<double> SetupS;
  for (double Total = 0;
       SetupS.size() < (A.Quick ? 1u : 7u) ||
       (!A.Quick && Total < 3.0 && SetupS.size() < 300);) {
    if (!SetupS.empty())
      W->teardown();
    double T0 = nowMs();
    W->setup();
    SetupS.push_back((nowMs() - T0) / 1e3);
    Total += SetupS.back();
  }

  // Untimed warm-up: at least one input cycle (at most 16 requests) and
  // at least one second.
  Tally Run;
  const uint64_t P = W->period();
  uint64_t K = 0;
  for (const double WarmStart = nowMs();
       K < 1 || (!A.Quick && (K < std::min<uint64_t>(P, 16) ||
                              nowMs() - WarmStart < 1e3));
       ++K) {
    W->request(K, Run);
    ++Run.Attempted;
  }

  // The closed loop, in whole windows. A window is the smallest whole
  // number of input cycles that holds at least 20 requests, so every
  // window serves the same inputs (the seed changes only their order).
  // The loop stops at the first window boundary after --seconds (half
  // of it in traced runs, which then run the layer sweep). Throughput
  // and latency quantiles are taken per window and reported as the
  // median over windows: a slow spell of the host that covers fewer
  // than half of the windows does not move them. They count only the
  // time spent in library calls, not the benchmark's ground-truth
  // checks. Traced runs alternate tracing per request; for an even
  // input cycle the phase flips every cycle, so traced and untraced
  // requests see the same inputs.
  const uint64_t QuickRequests = 3;
  const uint64_t Window = A.Quick ? QuickRequests : P * ((20 + P - 1) / P);
  std::vector<double> WinLat, WinP50, WinP90, WinRate, LatOn, LatOff;
  size_t Verdicts = 0, WinVerdicts = 0;
  double WinMs = 0;
  const double Start = nowMs();
  const double Budget = A.Seconds * 1e3;
  const double LoopBudget = A.Traced ? Budget / 2 : Budget;
  for (uint64_t N = 0;; ++N, ++K) {
    if (N % Window == 0 && N > 0) {
      WinP50.push_back(quantile(WinLat, 0.5));
      WinP90.push_back(quantile(WinLat, 0.9));
      WinRate.push_back(double(WinVerdicts) / (WinMs / 1e3));
      WinLat.clear();
      WinVerdicts = 0;
      WinMs = 0;
      if (A.Quick || nowMs() - Start >= LoopBudget)
        break;
    }
    bool On = A.Traced && (P % 2 ? N % 2 : (N + N / P) % 2);
    Tracing.On = On;
    Tracing.Req = K;
    Served Sv = W->request(K, Run);
    ++Run.Attempted;
    Verdicts += Sv.Verdicts;
    WinVerdicts += Sv.Verdicts;
    WinMs += Sv.Ms;
    WinLat.push_back(Sv.Ms);
    (On ? LatOn : LatOff).push_back(Sv.Ms);
  }
  const double Elapsed = nowMs() - Start;
  Tracing.On = false;

  std::vector<Metric> M;
  if (!A.Traced) {
    M.push_back({"props_per_s", median(WinRate), "1/s"});
    M.push_back({"latency_p50_ms", median(WinP50), "ms"});
    M.push_back({"latency_p90_ms", median(WinP90), "ms"});
    M.push_back({"setup_s", median(SetupS), "s"});
    M.push_back({"peak_rss_mb", peakRssMb(), "MB"});
  } else {
    W->teardown();
    W.reset();
    LayerSweep Sweep(A.In, Run);
    Tracing.On = true;
    double SweepStart = nowMs();
    do
      Sweep.pass();
    while (!A.Quick &&
           (Sweep.passes() < 3 || nowMs() - SweepStart < Budget / 2));
    Tracing.On = false;
    M = Sweep.metrics();
    double Off = median(LatOff), OnMs = median(LatOn);
    M.push_back({"trace.overhead_pct",
                 Off > 0 && OnMs > 0 ? (OnMs - Off) / Off * 100 : 0, "%"});
    M.push_back({"trace.sweep_passes", double(Sweep.passes()), "count"});
    writeTrace(".bench_out/trace-" + A.Workload + "-seed" +
               std::to_string(A.In.Seed) + ".json");
  }
  std::fprintf(stderr,
               "%s seed %llu corpus-seed %llu: %llu requests (%zu verdicts) "
               "in %.1f s, %llu failed\n",
               A.Workload.c_str(), (unsigned long long)A.In.Seed,
               (unsigned long long)A.In.CorpusSeed,
               (unsigned long long)Run.Attempted, Verdicts, Elapsed / 1e3,
               (unsigned long long)Run.Failed);
  W.reset();
  removeRunDir();
  printResult(Run.Failed == 0, Run, M);
  return 0;
}
