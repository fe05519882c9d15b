//===- tests/daemon_test.cc - reflexd end-to-end tests --------------------===//
//
// The daemon subsystem under test end to end: an in-process ReflexDaemon
// serving a real AF_UNIX socket, talked to through DaemonClient (and raw
// sockets, for the malformed-stream cases). The central claim is
// byte-parity: every verdict the daemon returns — status, reason,
// certificate JSON — is identical to what a one-shot scheduler run (and
// therefore the CLI) produces for the same program and options, including
// verdicts served from a session's footprint reuse after edits and
// verdicts computed by concurrent clients.
//
//===----------------------------------------------------------------------===//

#include "ast/cmd.h"
#include "daemon/client.h"
#include "daemon/daemon.h"
#include "kernels/kernels.h"
#include "kernels/synthetic.h"
#include "service/scheduler.h"
#include "support/socket.h"
#include "test_util.h"

#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>
#include <thread>

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

namespace reflex {
namespace {

namespace fs = std::filesystem;

/// AF_UNIX socket paths live in sun_path (~107 bytes), so gtest's deep
/// TempDir is unusable here; short unique /tmp paths instead.
std::string sockPath(const char *Tag) {
  static std::atomic<unsigned> Counter{0};
  std::string P = "/tmp/rfxd-" + std::to_string(::getpid()) + "-" + Tag +
                  "-" + std::to_string(Counter++) + ".sock";
  ::unlink(P.c_str());
  return P;
}

DaemonOptions daemonOptions(const char *Tag) {
  DaemonOptions O;
  O.SocketPath = sockPath(Tag);
  return O;
}

/// A daemon serving in the background for one test; stops and joins on
/// destruction.
struct TestDaemon {
  std::unique_ptr<ReflexDaemon> D;

  explicit TestDaemon(DaemonOptions O) {
    Result<std::unique_ptr<ReflexDaemon>> R = ReflexDaemon::start(O);
    EXPECT_TRUE(R.ok()) << (R.ok() ? "" : R.error());
    if (!R.ok())
      return;
    D = R.take();
    D->serveInBackground();
  }
  ~TestDaemon() {
    if (D)
      D->stop();
  }
};

DaemonClient mustConnect(const std::string &Socket) {
  Result<DaemonClient> C = DaemonClient::connect(Socket);
  EXPECT_TRUE(C.ok()) << (C.ok() ? "" : C.error());
  return C.take();
}

/// One round-trip that must parse; "ok" is the caller's to check.
JsonValue mustCall(DaemonClient &C, const std::string &Frame) {
  Result<JsonValue> R = C.call(Frame);
  EXPECT_TRUE(R.ok()) << (R.ok() ? "" : R.error());
  return R.ok() ? R.take() : JsonValue();
}

/// Builds a request frame. \p OptionsJson, when non-empty, is spliced as
/// the "options" object verbatim.
std::string frame(const std::string &Verb, const std::string &Session = "",
                  const std::string &Program = "",
                  const std::string &OptionsJson = "") {
  JsonWriter W;
  W.beginObject();
  W.field("verb", Verb);
  if (!Session.empty())
    W.field("session", Session);
  if (!Program.empty())
    W.field("program", Program);
  if (!OptionsJson.empty()) {
    W.key("options");
    W.rawValue(OptionsJson);
  }
  W.endObject();
  return W.take();
}

/// Canonical re-serialization, for comparing documents that went through
/// a parse (certificates spliced into responses vs. CertJson strings).
void canonInto(const JsonValue &V, JsonWriter &W) {
  if (V.isObject()) {
    W.beginObject();
    for (const auto &[K, E] : V.entries()) {
      W.key(K);
      canonInto(E, W);
    }
    W.endObject();
  } else if (V.isArray()) {
    W.beginArray();
    for (const JsonValue &E : V.items())
      canonInto(E, W);
    W.endArray();
  } else if (V.isString()) {
    W.value(V.stringValue());
  } else if (V.isBool()) {
    W.value(V.boolValue());
  } else if (V.isNumber()) {
    W.value(V.numberValue());
  } else {
    W.nullValue();
  }
}

std::string canon(const JsonValue &V) {
  JsonWriter W;
  canonInto(V, W);
  return W.take();
}

std::string canon(const std::string &Json) {
  Result<JsonValue> V = parseJson(Json);
  EXPECT_TRUE(V.ok()) << (V.ok() ? "" : V.error());
  return V.ok() ? canon(*V) : std::string();
}

/// The byte-parity assertion: the daemon response's results array equals
/// \p Want property for property — status, reason, certificate JSON.
void expectResultsMatch(const JsonValue &Resp, const VerificationReport &Want,
                        const std::string &What) {
  const JsonValue *Results = Resp.get("results");
  ASSERT_NE(Results, nullptr) << What;
  ASSERT_TRUE(Results->isArray()) << What;
  ASSERT_EQ(Results->items().size(), Want.Results.size()) << What;
  for (size_t I = 0; I < Want.Results.size(); ++I) {
    const JsonValue &Got = Results->items()[I];
    const PropertyResult &W = Want.Results[I];
    EXPECT_EQ(Got.getString("name"), W.Name) << What;
    EXPECT_EQ(Got.getString("status"), verifyStatusName(W.Status))
        << What << ": " << W.Name;
    if (W.Status != VerifyStatus::Proved) {
      EXPECT_EQ(Got.getString("reason"), W.Reason) << What << ": " << W.Name;
    } else if (!W.CertJson.empty()) {
      const JsonValue *Cert = Got.get("cert");
      ASSERT_NE(Cert, nullptr) << What << ": " << W.Name;
      EXPECT_EQ(canon(*Cert), canon(W.CertJson)) << What << ": " << W.Name;
    }
  }
  EXPECT_EQ(int64_t(Resp.getNumber("proved")), int64_t(Want.provedCount()))
      << What;
}

/// From bench_incremental: insert \p Stmt at the start of the I-th
/// handler's body.
std::string mutateHandler(const std::string &Src, size_t I,
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

/// An interface-preserving no-op edit: a self-assignment of a variable
/// the handler already assigns.
std::string nopFor(const Handler &H) {
  std::set<std::string> Assigned;
  collectAssignedVars(*H.Body, Assigned);
  if (Assigned.empty())
    return {};
  const std::string &V = *Assigned.begin();
  return V + " = " + V + ";";
}

/// The last interface-preservingly editable handler's edited source, or
/// "" when the kernel has none.
std::string editedVariant(const std::string &Src, const Program &P) {
  size_t EditIdx = SIZE_MAX;
  std::string Nop;
  for (size_t I = 0; I < P.Handlers.size(); ++I) {
    std::string N = nopFor(P.Handlers[I]);
    if (!N.empty()) {
      EditIdx = I;
      Nop = N;
    }
  }
  return EditIdx == SIZE_MAX ? std::string() : mutateHandler(Src, EditIdx, Nop);
}

VerificationReport freshReport(const Program &P) {
  SchedulerOptions S;
  S.Jobs = 0; // the daemon's default: all cores
  return verifyPrograms({&P}, S).Reports[0];
}

struct CliResult {
  int ExitCode = -1;
  std::string Output;
};

CliResult runCli(const std::string &ArgsAfterBinary) {
  std::string Cmd =
      std::string(REFLEX_CLI_PATH) + " " + ArgsAfterBinary + " 2>&1";
  FILE *Pipe = popen(Cmd.c_str(), "r");
  EXPECT_NE(Pipe, nullptr);
  CliResult R;
  std::array<char, 4096> Buf;
  size_t N;
  while ((N = fread(Buf.data(), 1, Buf.size(), Pipe)) > 0)
    R.Output.append(Buf.data(), N);
  int Status = pclose(Pipe);
  R.ExitCode = WIFEXITED(Status) ? WEXITSTATUS(Status) : -1;
  return R;
}

std::string writeTemp(const std::string &Content, const std::string &Name) {
  std::string Path = std::string(::testing::TempDir()) + Name;
  std::ofstream Out(Path);
  Out << Content;
  return Path;
}

std::string slurp(const std::string &Path) {
  std::ifstream In(Path);
  std::ostringstream SS;
  SS << In.rdbuf();
  return SS.str();
}

//===----------------------------------------------------------------------===//
// Byte-parity: verify
//===----------------------------------------------------------------------===//

TEST(Daemon, VerifyMatchesOneShotForEveryKernel) {
  TestDaemon TD(daemonOptions("verify"));
  ASSERT_NE(TD.D, nullptr);
  DaemonClient C = mustConnect(TD.D->socketPath());

  for (const kernels::KernelDef *K : kernels::all()) {
    ProgramPtr P = kernels::load(*K);
    VerificationReport Want = freshReport(*P);
    JsonValue Resp = mustCall(C, frame("verify", "", K->Source));
    ASSERT_TRUE(Resp.getBool("ok")) << K->Name << ": "
                                    << Resp.getString("error");
    expectResultsMatch(Resp, Want, K->Name);
  }
}

TEST(Daemon, VerifyMatchesCliJsonAndCerts) {
  const kernels::KernelDef &K = kernels::ssh();
  std::string Src = writeTemp(K.Source, "daemon_cli_parity.rfx");
  std::string JsonOut = writeTemp("", "daemon_cli_parity.json");
  std::string CertsOut = writeTemp("", "daemon_cli_parity.certs");
  CliResult R = runCli("verify " + Src + " --json " + JsonOut + " --certs " +
                       CertsOut);
  ASSERT_EQ(R.ExitCode, 0) << R.Output;

  TestDaemon TD(daemonOptions("cli"));
  ASSERT_NE(TD.D, nullptr);
  DaemonClient C = mustConnect(TD.D->socketPath());
  JsonValue Resp = mustCall(C, frame("verify", "", K.Source));
  ASSERT_TRUE(Resp.getBool("ok")) << Resp.getString("error");

  Result<JsonValue> CliDoc = parseJson(slurp(JsonOut));
  ASSERT_TRUE(CliDoc.ok()) << (CliDoc.ok() ? "" : CliDoc.error());
  const JsonValue *CliProps = CliDoc->get("properties");
  const JsonValue *Results = Resp.get("results");
  ASSERT_NE(CliProps, nullptr);
  ASSERT_NE(Results, nullptr);
  ASSERT_EQ(Results->items().size(), CliProps->items().size());
  for (size_t I = 0; I < Results->items().size(); ++I) {
    const JsonValue &Got = Results->items()[I];
    const JsonValue &Want = CliProps->items()[I];
    EXPECT_EQ(Got.getString("name"), Want.getString("name"));
    EXPECT_EQ(Got.getString("status"), Want.getString("status"));
    if (Want.get("reason")) {
      EXPECT_EQ(Got.getString("reason"), Want.getString("reason"));
    }
  }

  // The CLI's --certs file is the array of exported certificates in
  // report order; the daemon splices the same documents into results[].
  Result<JsonValue> CliCerts = parseJson(slurp(CertsOut));
  ASSERT_TRUE(CliCerts.ok()) << (CliCerts.ok() ? "" : CliCerts.error());
  std::vector<const JsonValue *> DaemonCerts;
  for (const JsonValue &Got : Results->items())
    if (const JsonValue *Cert = Got.get("cert"))
      DaemonCerts.push_back(Cert);
  ASSERT_EQ(DaemonCerts.size(), CliCerts->items().size());
  for (size_t I = 0; I < DaemonCerts.size(); ++I)
    EXPECT_EQ(canon(*DaemonCerts[I]), canon(CliCerts->items()[I]));
}

//===----------------------------------------------------------------------===//
// Sessions: open, edit, reuse, close
//===----------------------------------------------------------------------===//

TEST(Daemon, SessionEditReusesFootprintsAndStaysByteIdentical) {
  const kernels::KernelDef &K = kernels::ssh();
  ProgramPtr P1 = kernels::load(K);
  std::string SrcOne = editedVariant(K.Source, *P1);
  ASSERT_FALSE(SrcOne.empty());
  ProgramPtr POne = mustLoad(SrcOne);

  VerificationReport Want1 = freshReport(*P1);
  VerificationReport WantOne = freshReport(*POne);

  TestDaemon TD(daemonOptions("sess"));
  ASSERT_NE(TD.D, nullptr);
  DaemonClient C = mustConnect(TD.D->socketPath());

  JsonValue Open = mustCall(C, frame("open-session", "s1", K.Source));
  ASSERT_TRUE(Open.getBool("ok")) << Open.getString("error");
  expectResultsMatch(Open, Want1, "open-session");
  EXPECT_EQ(int64_t(Open.getNumber("reverified")),
            int64_t(P1->Properties.size()));

  // Edit one handler interface-preservingly: footprint-disjoint verdicts
  // are served from the session, the dependents re-verify through the
  // scheduler — and the merged report is byte-identical to scratch.
  JsonValue Edit = mustCall(C, frame("edit", "s1", SrcOne));
  ASSERT_TRUE(Edit.getBool("ok")) << Edit.getString("error");
  expectResultsMatch(Edit, WantOne, "edit");
  EXPECT_GT(Edit.getNumber("reused"), 0) << "no footprint reuse at all";
  EXPECT_EQ(int64_t(Edit.getNumber("reused") + Edit.getNumber("reverified")),
            int64_t(POne->Properties.size()));
  EXPECT_EQ(Edit.getNumber("footprint_reused"), Edit.getNumber("reused"));

  // Re-sending the same source is a no-op edit: everything is reused.
  JsonValue Again = mustCall(C, frame("edit", "s1", SrcOne));
  ASSERT_TRUE(Again.getBool("ok")) << Again.getString("error");
  expectResultsMatch(Again, WantOne, "no-op edit");
  EXPECT_EQ(int64_t(Again.getNumber("reused")),
            int64_t(POne->Properties.size()));
  EXPECT_EQ(Again.getNumber("reverified"), 0);

  JsonValue Close = mustCall(C, frame("close-session", "s1"));
  EXPECT_TRUE(Close.getBool("ok"));
  EXPECT_TRUE(Close.getBool("closed"));
  JsonValue Gone = mustCall(C, frame("edit", "s1", SrcOne));
  EXPECT_FALSE(Gone.getBool("ok"));
  EXPECT_NE(Gone.getString("error").find("no open session"),
            std::string::npos);
}

TEST(Daemon, LruEvictionBoundsSessions) {
  DaemonOptions O = daemonOptions("lru");
  O.MaxSessions = 1;
  TestDaemon TD(O);
  ASSERT_NE(TD.D, nullptr);
  DaemonClient C = mustConnect(TD.D->socketPath());

  const std::string SrcA = kernels::ssh2().Source;
  const std::string SrcB = kernels::car().Source;
  ASSERT_TRUE(mustCall(C, frame("open-session", "a", SrcA)).getBool("ok"));
  ASSERT_TRUE(mustCall(C, frame("open-session", "b", SrcB)).getBool("ok"));

  // Opening b evicted a (the LRU bound is 1).
  JsonValue EditA = mustCall(C, frame("edit", "a", SrcA));
  EXPECT_FALSE(EditA.getBool("ok"));
  EXPECT_NE(EditA.getString("error").find("no open session"),
            std::string::npos);
  JsonValue EditB = mustCall(C, frame("edit", "b"));
  EXPECT_TRUE(EditB.getBool("ok")) << EditB.getString("error");
}

//===----------------------------------------------------------------------===//
// Concurrency
//===----------------------------------------------------------------------===//

TEST(Daemon, ConcurrentClientsOnIndependentSessionsMatchSoloRuns) {
  struct Work {
    const kernels::KernelDef *K;
    std::string SrcOne;
    VerificationReport Want1, WantOne;
  };
  std::vector<Work> Jobs;
  for (const kernels::KernelDef *K : {&kernels::ssh2(), &kernels::car()}) {
    Work Wk;
    Wk.K = K;
    ProgramPtr P1 = kernels::load(*K);
    Wk.SrcOne = editedVariant(K->Source, *P1);
    ASSERT_FALSE(Wk.SrcOne.empty()) << K->Name;
    ProgramPtr POne = mustLoad(Wk.SrcOne);
    Wk.Want1 = freshReport(*P1);
    Wk.WantOne = freshReport(*POne);
    Jobs.push_back(std::move(Wk));
  }

  TestDaemon TD(daemonOptions("conc"));
  ASSERT_NE(TD.D, nullptr);

  std::vector<std::thread> Threads;
  std::vector<std::string> Failures;
  std::mutex FailMu;
  for (size_t T = 0; T < Jobs.size(); ++T) {
    Threads.emplace_back([&, T] {
      const Work &Wk = Jobs[T];
      std::string Name = "c" + std::to_string(T);
      auto Fail = [&](const std::string &Msg) {
        std::lock_guard<std::mutex> Lock(FailMu);
        Failures.push_back(Wk.K->Name + ": " + Msg);
      };
      Result<DaemonClient> C = DaemonClient::connect(TD.D->socketPath());
      if (!C.ok())
        return Fail(C.error());
      for (unsigned Round = 0; Round < 2; ++Round) {
        Result<JsonValue> Open =
            C->call(frame("open-session", Name, Wk.K->Source));
        if (!Open.ok() || !Open->getBool("ok"))
          return Fail("open failed");
        expectResultsMatch(*Open, Wk.Want1, Wk.K->Name + " concurrent open");
        Result<JsonValue> Edit = C->call(frame("edit", Name, Wk.SrcOne));
        if (!Edit.ok() || !Edit->getBool("ok"))
          return Fail("edit failed");
        expectResultsMatch(*Edit, Wk.WantOne, Wk.K->Name + " concurrent edit");
      }
      (void)C->call(frame("close-session", Name));
    });
  }
  for (std::thread &T : Threads)
    T.join();
  for (const std::string &F : Failures)
    ADD_FAILURE() << F;
}

TEST(Daemon, VanishedClientDoesNotPoisonLaterRequests) {
  std::string Src = kernels::syntheticChainKernel(10);
  ProgramPtr P = mustLoad(Src);
  VerificationReport Want = freshReport(*P);

  TestDaemon TD(daemonOptions("gone"));
  ASSERT_NE(TD.D, nullptr);

  // A client that fires a verify and disconnects without reading: the
  // RequestWatch cancels the batch; Aborted results are never cached or
  // published, so nothing later can observe the abandonment.
  {
    Result<DaemonClient> C = DaemonClient::connect(TD.D->socketPath());
    ASSERT_TRUE(C.ok()) << C.error();
    ASSERT_TRUE(C->socket().sendAll(frame("verify", "", Src) + "\n").ok());
    // Destructor closes the socket with the request in flight.
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(30));

  DaemonClient C = mustConnect(TD.D->socketPath());
  JsonValue Resp = mustCall(C, frame("verify", "", Src));
  ASSERT_TRUE(Resp.getBool("ok")) << Resp.getString("error");
  expectResultsMatch(Resp, Want, "verify after vanished client");
}

//===----------------------------------------------------------------------===//
// Protocol robustness
//===----------------------------------------------------------------------===//

TEST(Daemon, MalformedRequestsGetStructuredErrorsAndTheDaemonSurvives) {
  TestDaemon TD(daemonOptions("robust"));
  ASSERT_NE(TD.D, nullptr);
  DaemonClient C = mustConnect(TD.D->socketPath());

  struct Case {
    const char *Frame;
    const char *ErrNeedle;
  };
  const Case Cases[] = {
      {"{nonsense", "malformed request frame"},
      {"42", "must be a JSON object"},
      {"{}", "missing its 'verb'"},
      {"{\"verb\":\"frobnicate\"}", "unknown verb"},
      {"{\"verb\":17}", "needs a string"},
      {"{\"verb\":\"verify\"}", "needs a 'program'"},
      {"{\"verb\":\"verify\",\"program\":\"program x;\",\"options\":7}",
       "'options' must be an object"},
      {"{\"verb\":\"verify\",\"program\":\"p\",\"options\":{\"jobs\":\"x\"}}",
       "non-negative integer"},
      {"{\"verb\":\"verify\",\"program\":\"p\",\"options\":"
       "{\"no_skip\":\"yes\"}}",
       "needs a boolean"},
      {"{\"verb\":\"verify\",\"program\":\"not a reflex program\"}", ""},
      {"{\"verb\":\"open-session\",\"program\":\"program x;\"}",
       "needs a 'session' name"},
      {"{\"verb\":\"cache-gc\"}", "no proof cache attached"},
  };
  for (const Case &K : Cases) {
    JsonValue Resp = mustCall(C, K.Frame);
    EXPECT_FALSE(Resp.getBool("ok")) << K.Frame;
    EXPECT_NE(Resp.getString("error").find(K.ErrNeedle), std::string::npos)
        << K.Frame << " -> " << Resp.getString("error");
    // The connection survives a structured error.
    JsonValue Ping = mustCall(C, frame("ping"));
    EXPECT_TRUE(Ping.getBool("ok")) << "connection died after: " << K.Frame;
  }
}

TEST(Daemon, OversizedFrameIsRejectedWithoutCrashing) {
  TestDaemon TD(daemonOptions("big"));
  ASSERT_NE(TD.D, nullptr);
  DaemonClient C = mustConnect(TD.D->socketPath());

  std::string Huge(DaemonMaxFrameBytes + 1024, 'x');
  Result<std::string> Resp = C.callRaw(Huge);
  // The daemon answers (best effort) with a structured error and drops
  // the unresynchronizable connection; a short read is also acceptable
  // if the drop wins the race.
  if (Resp.ok()) {
    EXPECT_NE(Resp->find("frame too large"), std::string::npos) << *Resp;
  }

  DaemonClient C2 = mustConnect(TD.D->socketPath());
  EXPECT_TRUE(mustCall(C2, frame("ping")).getBool("ok"));
}

TEST(Daemon, TruncatedFrameDoesNotKillTheDaemon) {
  TestDaemon TD(daemonOptions("trunc"));
  ASSERT_NE(TD.D, nullptr);
  {
    Result<DaemonClient> C = DaemonClient::connect(TD.D->socketPath());
    ASSERT_TRUE(C.ok()) << C.error();
    // Half a frame, no newline, then close.
    ASSERT_TRUE(C->socket().sendAll("{\"verb\":\"ver").ok());
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  DaemonClient C2 = mustConnect(TD.D->socketPath());
  EXPECT_TRUE(mustCall(C2, frame("ping")).getBool("ok"));
}

//===----------------------------------------------------------------------===//
// Metrics, GC, shutdown
//===----------------------------------------------------------------------===//

TEST(Daemon, StatsReportCountsHistogramsAndCacheCounters) {
  std::string CacheDir =
      std::string(::testing::TempDir()) + "daemon_stats_cache";
  fs::remove_all(CacheDir);
  DaemonOptions O = daemonOptions("stats");
  O.CacheDir = CacheDir;
  TestDaemon TD(O);
  ASSERT_NE(TD.D, nullptr);
  DaemonClient C = mustConnect(TD.D->socketPath());

  const std::string Src = kernels::ssh2().Source;
  ASSERT_TRUE(mustCall(C, frame("verify", "", Src)).getBool("ok"));
  ASSERT_TRUE(mustCall(C, frame("verify", "", Src)).getBool("ok"));
  (void)mustCall(C, "{\"verb\":\"frobnicate\"}"); // one recorded error

  JsonValue S = mustCall(C, frame("stats"));
  ASSERT_TRUE(S.getBool("ok"));
  EXPECT_GE(S.getNumber("requests"), 3.0);
  EXPECT_GE(S.getNumber("errors"), 1.0);
  EXPECT_EQ(S.getNumber("sessions"), 0.0);
  EXPECT_GE(S.getNumber("known_programs"), 1.0);
  EXPECT_GE(S.getNumber("uptime_ms"), 0.0);

  const JsonValue *Verbs = S.get("verbs");
  ASSERT_NE(Verbs, nullptr);
  const JsonValue *V = Verbs->get("verify");
  ASSERT_NE(V, nullptr);
  EXPECT_EQ(V->getNumber("count"), 2.0);
  const JsonValue *Lat = V->get("latency_ms");
  ASSERT_NE(Lat, nullptr);
  double Total = 0;
  for (const char *B : {"<1", "<10", "<100", "<1000", ">=1000"}) {
    ASSERT_NE(Lat->get(B), nullptr);
    Total += Lat->getNumber(B);
  }
  EXPECT_EQ(Total, 2.0) << "histogram buckets must sum to the verb count";

  // Second verify hit the proof cache the first one filled.
  const JsonValue *PC = S.get("proof_cache");
  ASSERT_NE(PC, nullptr);
  EXPECT_GE(PC->getNumber("stores"), 1.0);
  EXPECT_GE(PC->getNumber("hits"), 1.0);
}

TEST(Daemon, CacheGcDropsDeadProgramsAndKeepsWarmHitsAlive) {
  std::string CacheDir = std::string(::testing::TempDir()) + "daemon_gc_cache";
  fs::remove_all(CacheDir);

  // Seed the cache with a program the daemon will never see: its entries
  // are dead from the daemon's perspective and must be collected.
  {
    Result<std::unique_ptr<ProofCache>> Cache = ProofCache::open(CacheDir);
    ASSERT_TRUE(Cache.ok()) << Cache.error();
    ProgramPtr Dead = kernels::load(kernels::webserver());
    SchedulerOptions S;
    S.Cache = Cache->get();
    verifyPrograms({Dead.get()}, S);
    ASSERT_GT(Cache->get()->stats().Stores, 0u);
  }
  auto CountEntries = [&] {
    size_t N = 0;
    for (const auto &E : fs::directory_iterator(CacheDir))
      if (E.is_regular_file() && E.path().extension() == ".json")
        ++N;
    return N;
  };
  size_t SeedEntries = CountEntries();
  ASSERT_GT(SeedEntries, 0u);

  DaemonOptions O = daemonOptions("gc");
  O.CacheDir = CacheDir;
  TestDaemon TD(O);
  ASSERT_NE(TD.D, nullptr);
  DaemonClient C = mustConnect(TD.D->socketPath());

  const std::string Live = kernels::ssh2().Source;
  JsonValue First = mustCall(C, frame("verify", "", Live));
  ASSERT_TRUE(First.getBool("ok"));
  size_t LiveEntries = CountEntries() - SeedEntries;
  ASSERT_GT(LiveEntries, 0u);

  JsonValue Gc = mustCall(C, frame("cache-gc"));
  ASSERT_TRUE(Gc.getBool("ok")) << Gc.getString("error");
  EXPECT_EQ(size_t(Gc.getNumber("scanned")), SeedEntries + LiveEntries);
  EXPECT_EQ(size_t(Gc.getNumber("dropped")), SeedEntries);
  EXPECT_EQ(size_t(Gc.getNumber("kept")), LiveEntries);
  EXPECT_EQ(CountEntries(), LiveEntries) << "the cache directory must shrink";

  // The surviving entries still serve warm hits, byte-identically.
  ProgramPtr P = mustLoad(Live);
  VerificationReport Want = freshReport(*P);
  JsonValue Warm = mustCall(C, frame("verify", "", Live));
  ASSERT_TRUE(Warm.getBool("ok"));
  expectResultsMatch(Warm, Want, "post-GC warm verify");
  EXPECT_GT(Warm.getNumber("proof_cache_hits"), 0.0)
      << "GC must not evict live entries";
}

//===----------------------------------------------------------------------===//
// Proof engines over the wire (docs/ENGINES.md)
//===----------------------------------------------------------------------===//

TEST(Daemon, EngineOptionMatchesOneShotByteForByte) {
  TestDaemon TD(daemonOptions("engine"));
  ASSERT_NE(TD.D, nullptr);
  DaemonClient C = mustConnect(TD.D->socketPath());

  const kernels::KernelDef &K = kernels::pdrlock();
  ProgramPtr P = kernels::load(K);
  for (EngineKind Kind : {EngineKind::Pdr, EngineKind::Portfolio}) {
    SchedulerOptions S;
    S.Jobs = 0;
    S.Verify.Engine = Kind;
    VerificationReport Want = verifyPrograms({P.get()}, S).Reports[0];
    JsonValue Resp =
        mustCall(C, frame("verify", "", K.Source,
                          std::string("{\"engine\":\"") +
                              engineKindName(Kind) + "\"}"));
    ASSERT_TRUE(Resp.getBool("ok")) << Resp.getString("error");
    expectResultsMatch(Resp, Want, engineKindName(Kind));
    // The wire result names the engine that actually served each verdict.
    const JsonValue *Results = Resp.get("results");
    ASSERT_NE(Results, nullptr);
    for (size_t I = 0; I < Want.Results.size(); ++I)
      EXPECT_EQ(Results->items()[I].getString("engine"),
                Want.Results[I].ServedBy)
          << Want.Results[I].Name;
  }
}

TEST(Daemon, BadEngineOptionIsAStructuredError) {
  TestDaemon TD(daemonOptions("engine-bad"));
  ASSERT_NE(TD.D, nullptr);
  DaemonClient C = mustConnect(TD.D->socketPath());
  JsonValue Resp = mustCall(C, frame("verify", "", kernels::ssh2().Source,
                                     "{\"engine\":\"zzz\"}"));
  EXPECT_FALSE(Resp.getBool("ok"));
  EXPECT_NE(Resp.getString("error").find(
                "must be induction, pdr, or portfolio"),
            std::string::npos)
      << Resp.getString("error");
}

TEST(Daemon, RetiredNoShareOptionDecodesAndAnswersByteForByte) {
  // Clients once sent "no_share" to give every worker a private
  // abstraction. Every worker now shares the program's frozen
  // abstraction; the key decodes as an ignored unknown option, and the
  // request is answered exactly as one without it.
  const kernels::KernelDef &K = kernels::ssh();
  std::string Old = frame("verify", "", K.Source, "{\"no_share\":true}");
  std::string New = frame("verify", "", K.Source, "{}");
  Result<DaemonRequest> OldReq = decodeDaemonRequest(Old);
  Result<DaemonRequest> NewReq = decodeDaemonRequest(New);
  ASSERT_TRUE(OldReq.ok()) << OldReq.error();
  ASSERT_TRUE(NewReq.ok()) << NewReq.error();
  EXPECT_EQ(encodeOpenSessionFrame(*OldReq, K.Source),
            encodeOpenSessionFrame(*NewReq, K.Source));

  TestDaemon TD(daemonOptions("noshare"));
  ASSERT_NE(TD.D, nullptr);
  DaemonClient C = mustConnect(TD.D->socketPath());
  JsonValue OldResp = mustCall(C, Old);
  JsonValue NewResp = mustCall(C, New);
  ASSERT_TRUE(OldResp.getBool("ok")) << OldResp.getString("error");
  ASSERT_TRUE(NewResp.getBool("ok")) << NewResp.getString("error");
  ProgramPtr P = kernels::load(K);
  expectResultsMatch(OldResp, freshReport(*P), "no_share request");
  // Every result field but the wall clock, byte for byte.
  auto Stable = [](const JsonValue &Resp) {
    std::string Out;
    if (const JsonValue *Results = Resp.get("results"))
      for (const JsonValue &R : Results->items()) {
        Out += R.getString("name") + "|" + R.getString("status") + "|" +
               R.getString("reason") + "|" + R.getString("engine") + "|" +
               std::to_string(R.getBool("cert_checked")) + "|" +
               std::to_string(R.getBool("cache_hit")) + "|";
        if (const JsonValue *Cert = R.get("cert"))
          Out += canon(*Cert);
        Out += "\n";
      }
    return Out;
  };
  EXPECT_FALSE(Stable(NewResp).empty());
  EXPECT_EQ(Stable(OldResp), Stable(NewResp));
}

TEST(Daemon, StatsCountVerdictsServedPerEngine) {
  TestDaemon TD(daemonOptions("engine-stats"));
  ASSERT_NE(TD.D, nullptr);
  DaemonClient C = mustConnect(TD.D->socketPath());

  ASSERT_TRUE(
      mustCall(C, frame("verify", "", kernels::ssh2().Source)).getBool("ok"));
  ASSERT_TRUE(mustCall(C, frame("verify", "", kernels::pdrlock().Source,
                                "{\"engine\":\"pdr\"}"))
                  .getBool("ok"));

  JsonValue S = mustCall(C, frame("stats"));
  ASSERT_TRUE(S.getBool("ok"));
  const JsonValue *Engines = S.get("engines");
  ASSERT_NE(Engines, nullptr);
  EXPECT_GE(Engines->getNumber("induction"), 1.0)
      << "ssh2's verdicts are served by induction";
  EXPECT_GE(Engines->getNumber("pdr"), 1.0)
      << "pdrlock under --engine=pdr is served by PDR";
}

TEST(Daemon, GcManifestKeepsWarmEntriesAcrossDaemonRestarts) {
  std::string CacheDir =
      std::string(::testing::TempDir()) + "daemon_gc_manifest";
  fs::remove_all(CacheDir);
  auto CountEntries = [&] {
    size_t N = 0;
    for (const auto &E : fs::directory_iterator(CacheDir))
      if (E.is_regular_file() && E.path().extension() == ".json")
        ++N;
    return N;
  };

  size_t FirstLifeEntries = 0;
  {
    // Daemon #1 verifies ssh2 and gcs: the manifest stamps it live.
    DaemonOptions O = daemonOptions("gc-manifest-1");
    O.CacheDir = CacheDir;
    TestDaemon TD(O);
    ASSERT_NE(TD.D, nullptr);
    DaemonClient C = mustConnect(TD.D->socketPath());
    ASSERT_TRUE(mustCall(C, frame("verify", "", kernels::ssh2().Source))
                    .getBool("ok"));
    JsonValue Gc = mustCall(C, frame("cache-gc"));
    ASSERT_TRUE(Gc.getBool("ok"));
    EXPECT_EQ(Gc.getNumber("dropped"), 0.0);
    FirstLifeEntries = CountEntries();
    ASSERT_GT(FirstLifeEntries, 0u);
  }

  {
    // Daemon #2 never sees ssh2, yet its gc keeps the entries: the
    // manifest remembers they were live moments ago. The response
    // reports the widening.
    DaemonOptions O = daemonOptions("gc-manifest-2");
    O.CacheDir = CacheDir;
    TestDaemon TD(O);
    ASSERT_NE(TD.D, nullptr);
    DaemonClient C = mustConnect(TD.D->socketPath());
    ASSERT_TRUE(mustCall(C, frame("verify", "", kernels::car().Source))
                    .getBool("ok"));
    JsonValue Gc = mustCall(C, frame("cache-gc"));
    ASSERT_TRUE(Gc.getBool("ok"));
    EXPECT_EQ(Gc.getNumber("dropped"), 0.0)
        << "a restart must not cold-start the warm proof capital";
    EXPECT_GE(Gc.getNumber("manifest_live"), 1.0);
    EXPECT_GE(size_t(Gc.getNumber("kept")), FirstLifeEntries);
  }
}

TEST(Daemon, ShutdownVerbDrainsAndStopsServing) {
  TestDaemon TD(daemonOptions("down"));
  ASSERT_NE(TD.D, nullptr);
  std::string Socket = TD.D->socketPath();
  DaemonClient C = mustConnect(Socket);
  JsonValue Resp = mustCall(C, frame("shutdown"));
  EXPECT_TRUE(Resp.getBool("ok"));
  EXPECT_EQ(Resp.getString("verb"), "shutdown");

  // serve() unlinks the socket on the way out; connects must start
  // failing shortly after the acknowledgment.
  bool Refused = false;
  for (int I = 0; I < 200 && !Refused; ++I) {
    Refused = !DaemonClient::connect(Socket).ok();
    if (!Refused)
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  EXPECT_TRUE(Refused) << "daemon still accepting after shutdown";
}

} // namespace
} // namespace reflex
