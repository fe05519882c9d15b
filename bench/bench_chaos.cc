//===- bench/bench_chaos.cc - Crash recovery and overload shedding --------===//
//
// The crash-safety tentpole, measured and gated: a daemon that is killed
// with SIGKILL mid-service must come back cheaper than starting cold,
// and an overloaded daemon must shed load structurally without dropping
// anything it accepted.
//
// Protocol, phase 1 (recovery): a real `reflex daemon` process (fork +
// exec, journal on) warms a session on the chain kernel; SIGKILL; the
// journal tail is then deliberately torn, as if the kill had caught an
// append mid-write. A fresh daemon process on the same cache dir replays
// the journal (re-validating every Proved certificate) before it binds
// its socket — the measured socket-ready time therefore brackets
// recovery. The warm arm is the recovered session's `edit` round-trip
// with unchanged source; the cold arm is a full one-shot `reflex verify`
// of the same file. Paired, alternating order; the metric is the median
// of paired ratios.
//
// Protocol, phase 2 (shedding): an in-process daemon with a single
// admission slot; one client occupies it with a long verify while
// impatient clients hammer the socket. Raw clients must see the
// structured `overloaded` frame; retrying clients must eventually
// succeed; the occupant's accepted request must complete. Accepted and
// dropped are counted exactly.
//
// Gates (exit non-zero):
//  * always: recovered verdicts are byte-level consistent with a
//    from-scratch run (proved count, full reuse: reused == properties,
//    reverified == 0); the journal recovered the session and truncated
//    the torn tail; at least one request was shed; zero accepted
//    requests were dropped.
//  * outside --smoke: post-crash warm re-verify >= 2x over cold.
//
// Flags:
//   --stages N  chain-kernel size (default 12)
//   --smoke     two repetitions, no speedup gate (CI under sanitizers)
//   --out FILE  JSON output path (default BENCH_chaos.json)
//
//===----------------------------------------------------------------------===//

#include "daemon/client.h"
#include "daemon/daemon.h"
#include "kernels/synthetic.h"
#include "reflex/reflex.h"
#include "service/scheduler.h"
#include "support/json.h"
#include "support/timer.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdarg>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

using namespace reflex;

namespace {

bool GatesOk = true;

void fail(const char *Fmt, ...) {
  va_list Ap;
  va_start(Ap, Fmt);
  std::fprintf(stderr, "FAIL: ");
  std::vfprintf(stderr, Fmt, Ap);
  std::fprintf(stderr, "\n");
  va_end(Ap);
  GatesOk = false;
}

ProgramPtr mustLoad(const std::string &Src, const char *What) {
  Result<ProgramPtr> P = loadProgram(Src, What);
  if (!P.ok()) {
    std::fprintf(stderr, "FAIL: cannot load %s: %s\n", What, P.error().c_str());
    std::exit(1);
  }
  return P.take();
}

double median(std::vector<double> V) {
  std::sort(V.begin(), V.end());
  return V[V.size() / 2];
}

std::string frame(const std::string &Verb, const std::string &Session = "",
                  const std::string &Program = "") {
  JsonWriter W;
  W.beginObject();
  W.field("verb", Verb);
  if (!Session.empty())
    W.field("session", Session);
  if (!Program.empty())
    W.field("program", Program);
  W.endObject();
  return W.take();
}

pid_t spawnDaemon(const std::string &Socket, const std::string &CacheDir) {
  pid_t Pid = ::fork();
  if (Pid == 0) {
    std::string Bin = REFLEX_CLI_PATH;
    std::string A0 = "daemon", A1 = "--socket", A3 = "--cache-dir";
    std::string Sock = Socket, Dir = CacheDir;
    char *Argv[] = {Bin.data(), A0.data(), A1.data(),  Sock.data(),
                    A3.data(),  Dir.data(), nullptr};
    (void)::freopen("/dev/null", "w", stdout);
    ::execv(Bin.c_str(), Argv);
    _exit(127);
  }
  return Pid;
}

bool waitForDaemon(const std::string &Socket, int BudgetMs) {
  for (int Waited = 0; Waited < BudgetMs; Waited += 20) {
    if (DaemonClient::connect(Socket).ok())
      return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  return false;
}

} // namespace

int main(int Argc, char **Argv) {
  unsigned Stages = 12;
  bool Smoke = false;
  std::string OutPath = "BENCH_chaos.json";
  for (int I = 1; I < Argc; ++I) {
    if (!std::strcmp(Argv[I], "--stages") && I + 1 < Argc)
      Stages = unsigned(std::stoul(Argv[++I]));
    else if (!std::strcmp(Argv[I], "--smoke"))
      Smoke = true;
    else if (!std::strcmp(Argv[I], "--out") && I + 1 < Argc)
      OutPath = Argv[++I];
    else {
      std::fprintf(stderr,
                   "usage: bench_chaos [--stages N] [--smoke] [--out FILE]\n");
      return 2;
    }
  }
  const unsigned Reps = Smoke ? 2 : 10;

  std::string Src = kernels::syntheticChainKernel(Stages);
  ProgramPtr P = mustLoad(Src, "chain");
  size_t Props = P->Properties.size();
  SchedulerOptions SOpts;
  SOpts.Jobs = 0;
  unsigned WantProved = verifyPrograms({P.get()}, SOpts).provedCount();

  std::string Dir = "/tmp/rfx-bench-chaos-" + std::to_string(::getpid());
  std::filesystem::create_directories(Dir + "/cache");
  std::string File = Dir + "/chain.rfx";
  std::ofstream(File) << Src;
  std::string Socket = Dir + "/d.sock";
  std::string CacheDir = Dir + "/cache";

  //===------------------------------------------------------------------===//
  // Phase 1: kill -9, torn journal, recovery
  //===------------------------------------------------------------------===//

  pid_t Pid = spawnDaemon(Socket, CacheDir);
  if (Pid <= 0 || !waitForDaemon(Socket, 60000)) {
    std::fprintf(stderr, "FAIL: daemon never came up\n");
    return 1;
  }
  {
    Result<DaemonClient> C = DaemonClient::connect(Socket);
    Result<JsonValue> R = C.ok()
                              ? C->call(frame("open-session", "bench", Src))
                              : Result<JsonValue>(Error(C.error()));
    if (!R.ok() || !R->getBool("ok") ||
        unsigned(R->getNumber("proved")) != WantProved) {
      std::fprintf(stderr, "FAIL: warm-up open-session diverged\n");
      return 1;
    }
  }

  ::kill(Pid, SIGKILL);
  int Status = 0;
  ::waitpid(Pid, &Status, 0);
  {
    // The kill that also caught an append mid-write.
    std::ofstream Tail(CacheDir + "/verdicts.journal",
                       std::ios::binary | std::ios::app);
    Tail << "RJ1 deadbeef {\"type\":\"torn";
  }

  WallTimer RecoverTimer;
  pid_t Pid2 = spawnDaemon(Socket, CacheDir);
  if (Pid2 <= 0 || !waitForDaemon(Socket, 120000)) {
    std::fprintf(stderr, "FAIL: daemon never recovered after kill -9\n");
    return 1;
  }
  // The socket appears only after replay + certificate re-validation:
  // socket-ready time brackets recovery (plus process startup).
  double RecoveryMs = RecoverTimer.elapsedMillis();

  double SessionsRecovered = 0, VerdictsRecovered = 0, BytesTruncated = 0,
         ReplayMs = 0;
  {
    Result<DaemonClient> C = DaemonClient::connect(Socket);
    Result<JsonValue> S = C.ok() ? C->call(frame("stats"))
                                 : Result<JsonValue>(Error(C.error()));
    const JsonValue *J = S.ok() ? S->get("journal") : nullptr;
    if (!J) {
      fail("restarted daemon reports no journal stats");
    } else {
      SessionsRecovered = J->getNumber("sessions_recovered");
      VerdictsRecovered = J->getNumber("verdicts_recovered");
      BytesTruncated = J->getNumber("bytes_truncated");
      ReplayMs = J->getNumber("recovery_millis");
      if (SessionsRecovered < 1)
        fail("journal recovered no sessions after kill -9");
      if (BytesTruncated <= 0)
        fail("the torn journal tail was not truncated");
    }
  }

  Result<DaemonClient> Warm = DaemonClient::connect(Socket);
  if (!Warm.ok()) {
    std::fprintf(stderr, "FAIL: %s\n", Warm.error().c_str());
    return 1;
  }
  auto WarmReverify = [&] {
    std::string F = frame("edit", "bench", Src);
    WallTimer T;
    Result<std::string> Raw = Warm->callRaw(F);
    double Ms = T.elapsedMillis();
    Result<JsonValue> Resp =
        Raw.ok() ? parseJson(*Raw) : Result<JsonValue>(Error(Raw.error()));
    if (!Resp.ok() || !Resp->getBool("ok") ||
        unsigned(Resp->getNumber("proved")) != WantProved)
      fail("post-crash re-verify diverged from the from-scratch run");
    else if (size_t(Resp->getNumber("reused")) != Props ||
             Resp->getNumber("reverified") != 0)
      fail("post-crash re-verify did not reuse every recovered verdict "
           "(reused %.0f, reverified %.0f)",
           Resp->getNumber("reused"), Resp->getNumber("reverified"));
    return Ms;
  };
  auto ColdRun = [&] {
    std::string Cmd =
        std::string(REFLEX_CLI_PATH) + " verify " + File + " > /dev/null 2>&1";
    WallTimer T;
    int Rc = std::system(Cmd.c_str());
    if (Rc != 0)
      fail("cold CLI run exited %d", Rc);
    return T.elapsedMillis();
  };

  ColdRun();      // untimed warm-ups: page cache,
  WarmReverify(); // recovered session verdict store

  std::vector<double> ColdMsS, WarmMsS, Ratios;
  for (unsigned R = 0; R < Reps; ++R) {
    double ColdMs = 0, WarmMs = 0;
    if (R % 2 == 0) {
      ColdMs = ColdRun();
      WarmMs = WarmReverify();
    } else {
      WarmMs = WarmReverify();
      ColdMs = ColdRun();
    }
    ColdMsS.push_back(ColdMs);
    WarmMsS.push_back(WarmMs);
    Ratios.push_back(WarmMs > 0 ? ColdMs / WarmMs : 0);
  }

  // Graceful drain: SIGTERM must exit 0 — the same contract the
  // supervisor uses to tell a deliberate stop from a crash.
  ::kill(Pid2, SIGTERM);
  ::waitpid(Pid2, &Status, 0);
  if (!WIFEXITED(Status) || WEXITSTATUS(Status) != 0)
    fail("SIGTERM drain did not exit 0");

  //===------------------------------------------------------------------===//
  // Phase 2: overload shedding
  //===------------------------------------------------------------------===//

  uint64_t ShedSeen = 0, AcceptedOk = 0, AcceptedDropped = 0, RetriedOk = 0;
  {
    DaemonOptions DOpts;
    DOpts.SocketPath = Dir + "/shed.sock";
    DOpts.MaxInFlight = 1;
    DOpts.RetryAfterMs = 25;
    // One worker, so the occupant below holds the slot for its whole
    // sequential verification time whatever the core count.
    DOpts.Jobs = 1;
    Result<std::unique_ptr<ReflexDaemon>> D = ReflexDaemon::start(DOpts);
    if (!D.ok()) {
      std::fprintf(stderr, "FAIL: %s\n", D.error().c_str());
      return 1;
    }
    (*D)->serveInBackground();

    // Occupy the single slot with a long verify whose response we will
    // collect at the end — if the daemon drops it, that is a dropped
    // accepted request and the gate fails. 160 chain stages take ~0.75 s
    // on one core of a 4-vCPU x86-64 VM, well past the 150 ms settle
    // below (80 stages on four workers finished inside it there, and
    // nothing was shed).
    std::string Slow = kernels::syntheticChainKernel(
        std::max(160u, Stages * 8));
    Result<DaemonClient> Occupant = DaemonClient::connect((*D)->socketPath());
    if (!Occupant.ok()) {
      std::fprintf(stderr, "FAIL: %s\n", Occupant.error().c_str());
      return 1;
    }
    if (!Occupant->socket().sendAll(frame("verify", "", Slow) + "\n").ok())
      fail("occupant send failed");
    std::this_thread::sleep_for(std::chrono::milliseconds(150));

    // Impatient raw clients: each must be answered with the structured
    // overloaded frame, not a hang, not a cut connection.
    for (int I = 0; I < 4; ++I) {
      Result<DaemonClient> C = DaemonClient::connect((*D)->socketPath());
      if (!C.ok())
        continue;
      Result<JsonValue> R = C->call(frame("verify", "", Src));
      if (R.ok() && !R->getBool("ok") && R->getBool("overloaded") &&
          R->getNumber("retry_after_ms") == 25)
        ++ShedSeen;
      else if (R.ok() && R->getBool("ok"))
        ++AcceptedOk; // slot freed mid-hammer: legitimately served
    }
    if (ShedSeen == 0)
      fail("no request was shed with the structured overloaded error");

    // Patient clients ride the slot out on the retry schedule.
    std::vector<std::thread> Patient;
    std::atomic<uint64_t> PatientOk{0};
    for (int I = 0; I < 3; ++I)
      Patient.emplace_back([&, I] {
        DaemonRetryOptions RO;
        RO.MaxAttempts = 200;
        RO.BaseBackoffMs = 25;
        RO.BackoffCapMs = 200;
        RO.Seed = uint64_t(I) + 1; // distinct seeds: no retry stampede
        Result<JsonValue> R = DaemonClient::callWithRetry(
            (*D)->socketPath(), frame("verify", "", Src), RO);
        if (R.ok() && R->getBool("ok") &&
            unsigned(R->getNumber("proved")) == WantProved)
          PatientOk.fetch_add(1);
      });
    for (std::thread &T : Patient)
      T.join();
    RetriedOk = PatientOk.load();
    if (RetriedOk != 3)
      fail("only %llu of 3 retrying clients succeeded",
           (unsigned long long)RetriedOk);

    // The occupant's accepted request: completed, never dropped.
    std::string RawSlow;
    Result<bool> Got = Occupant->socket().readLine(RawSlow, 256u << 20);
    Result<JsonValue> SlowResp = (Got.ok() && *Got)
                                     ? parseJson(RawSlow)
                                     : Result<JsonValue>(Error("dropped"));
    if (SlowResp.ok() && SlowResp->getBool("ok"))
      ++AcceptedOk;
    else
      ++AcceptedDropped;
    if (AcceptedDropped > 0)
      fail("an accepted request was dropped under overload");

    (*D)->stop();
  }

  std::filesystem::remove_all(Dir);

  auto Round2 = [](double X) { return std::round(X * 100) / 100; };
  double ColdMs = median(ColdMsS), WarmMs = median(WarmMsS);
  double Speedup = Round2(median(Ratios));
  std::printf("=== crash recovery and shedding (%zu properties) ===\n", Props);
  std::printf("%-36s %10.2f ms\n", "cold one-shot CLI", ColdMs);
  std::printf("%-36s %10.2f ms   %.2fx\n", "post-crash warm re-verify", WarmMs,
              Speedup);
  std::printf("%-36s %10.2f ms (replay %.2f ms)\n",
              "restart-to-socket-ready", RecoveryMs, ReplayMs);
  std::printf("%-36s %llu shed / %llu retried-ok / %llu dropped\n",
              "overload", (unsigned long long)ShedSeen,
              (unsigned long long)RetriedOk,
              (unsigned long long)AcceptedDropped);

  JsonWriter W;
  W.beginObject();
  W.field("bench", "chaos");
  W.field("smoke", Smoke);
  W.field("reps", int64_t(Reps));
  W.field("chain_stages", int64_t(Stages));
  W.field("properties", int64_t(Props));
  W.key("cold_start_verify_ms");
  W.value(ColdMs);
  W.key("post_crash_warm_reverify_ms");
  W.value(WarmMs);
  W.key("crash_recovery_speedup");
  W.value(Speedup);
  W.key("restart_to_ready_ms");
  W.value(Round2(RecoveryMs));
  W.key("journal_replay_ms");
  W.value(Round2(ReplayMs));
  W.field("sessions_recovered", int64_t(SessionsRecovered));
  W.field("verdicts_recovered", int64_t(VerdictsRecovered));
  W.field("journal_bytes_truncated", int64_t(BytesTruncated));
  W.field("shed_requests", int64_t(ShedSeen));
  W.field("retried_ok", int64_t(RetriedOk));
  W.field("accepted_ok", int64_t(AcceptedOk));
  W.field("accepted_dropped", int64_t(AcceptedDropped));
  W.field("gates_ok", GatesOk);
  W.endObject();
  std::ofstream Out(OutPath);
  Out << W.take() << "\n";
  std::printf("\nwrote %s\n", OutPath.c_str());

  if (!GatesOk) {
    std::fprintf(stderr, "FAIL: chaos gates failed\n");
    return 1;
  }
  if (!Smoke && Speedup < 2.0) {
    std::fprintf(stderr,
                 "FAIL: post-crash warm re-verify %.2fx below the 2x gate\n",
                 Speedup);
    return 1;
  }
  return 0;
}
