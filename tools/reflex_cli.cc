//===- tools/reflex_cli.cc - The reflex command-line driver -----*- C++ -*-===//
//
// Part of the Reflex/C++ reproduction of "Automating Formal Proofs for
// Reactive Systems" (PLDI 2014).
//
// The user-facing entry point (the role the paper's Python frontend +
// coqc pipeline played): point it at a .rfx file and it verifies,
// refutes, runs, or pretty-prints the kernel.
//
//   reflex verify  <file.rfx> [options]   prove every property
//   reflex bmc     <file.rfx> --property P [--depth N]
//                                         search for a counterexample
//   reflex run     <file.rfx> [--steps N --seed S]
//                                         fuzz the kernel with random
//                                         component traffic, under the
//                                         runtime monitor
//   reflex print   <file.rfx>             parse, validate, pretty-print
//   reflex info    <file.rfx>             inventory + abstraction stats
//   reflex gen     --seed N --scale S     emit a seeded corpus of kernels
//                  [--out DIR] [--check]  with known-verdict properties,
//                                         and/or cross-check it with the
//                                         differential oracle
//
//===----------------------------------------------------------------------===//

#include "daemon/client.h"
#include "daemon/daemon.h"
#include "daemon/supervisor.h"
#include "gen/generator.h"
#include "gen/oracle.h"
#include "kernels/synthetic.h"
#include "reflex/reflex.h"
#include "service/scheduler.h"
#include "support/strings.h"
#include "support/timer.h"

#include <iostream>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

using namespace reflex;

namespace {

int usage() {
  std::fprintf(
      stderr,
      "usage: reflex <command> <file.rfx> [options]\n"
      "\n"
      "commands:\n"
      "  verify   prove every property of the program fully automatically\n"
      "           options: --no-skip --no-simplify --no-cache --no-check\n"
      "                    --engine induction|pdr|portfolio (which proof\n"
      "                    engine serves trace properties; portfolio runs\n"
      "                    induction, then PDR if induction cannot prove\n"
      "                    the property, see docs/ENGINES.md)\n"
      "                    --bmc-depth N (refute Unknowns)  --certs FILE\n"
      "                    --json FILE (machine-readable report)\n"
      "                    --jobs N (parallel verification; 0 = all cores)\n"
      "                    --cache-dir PATH (persistent proof cache;\n"
      "                    cached proofs are re-checked by the certificate\n"
      "                    checker before reuse)\n"
      "                    --audit-footprints (re-prove every verdict that\n"
      "                    was served from a cache or footprint instead of\n"
      "                    a fresh proof search; any disagreement aborts\n"
      "                    with exit code 4)\n"
      "                    --timeout-ms N / --step-budget N (per-property\n"
      "                    budgets; exhausted properties report Timeout /\n"
      "                    ResourceExhausted, exit code 3)\n"
      "                    --retries N (retry crashed or budget-exhausted\n"
      "                    jobs on a fresh session)\n"
      "                    --fault-seed S (deterministic fault injection\n"
      "                    into cache IO and workers, for drills)\n"
      "           exit codes: 0 all proved, 1 refuted or unknown,\n"
      "                       2 usage/IO error, 3 budget exhausted only,\n"
      "                       4 footprint audit mismatch\n"
      "  bmc      bounded search for a counterexample trace\n"
      "           options: --property NAME (required) --depth N\n"
      "  run      drive the kernel with random component traffic\n"
      "           options: --steps N --seed S --quiet\n"
      "  print    parse + validate + pretty-print\n"
      "  info     program inventory and behavioral-abstraction statistics\n"
      "  cache-gc drop proof-cache entries for every program except this\n"
      "           one (footprint-aware compaction)\n"
      "           options: --cache-dir PATH (required)\n"
      "  daemon   run reflexd, the persistent verification daemon (no\n"
      "           file argument; see docs/DAEMON.md)\n"
      "           options: --socket PATH (required) --jobs N\n"
      "                    --cache-dir PATH --max-sessions N\n"
      "                    --request-timeout-ms N --auto-gc\n"
      "                    --no-journal (skip the durable verdict journal\n"
      "                    even when --cache-dir is set)\n"
      "                    --max-clients N / --max-inflight N (overload\n"
      "                    shedding; shed work gets a structured\n"
      "                    'overloaded' error with a retry hint)\n"
      "                    --retry-after-ms N (the hint, default 100)\n"
      "                    --io-timeout-ms N (per-frame socket progress\n"
      "                    timeout; slow clients are disconnected)\n"
      "                    --drain-cancel-ms N (grace before in-flight\n"
      "                    work is cancelled during SIGTERM drain)\n"
      "                    --supervise (run the serving process as a\n"
      "                    restarted child; see docs/ROBUSTNESS.md)\n"
      "                    --max-restarts N --restart-window-ms N\n"
      "                    (crash-loop detector for --supervise)\n"
      "  gen      emit a seeded, fully deterministic corpus of kernels\n"
      "           whose properties have construction-time known verdicts\n"
      "           (no file argument; see docs/CORPUS.md)\n"
      "           options: --seed N (default 1) --scale S (default 3)\n"
      "                    --out DIR (write <name>.rfx files plus a\n"
      "                    manifest.json with expected verdicts and\n"
      "                    source hashes)\n"
      "                    --check (run the differential oracle: verdicts\n"
      "                    vs ground truth, counterexamples vs concrete\n"
      "                    semantics, interpreter traces vs abstraction,\n"
      "                    parity across engines/jobs/sharing/cache)\n"
      "                    --jobs N (parallel oracle arms, default 4)\n"
      "           at least one of --out/--check is required\n"
      "           exit codes: 0 ok, 1 oracle mismatch, 2 usage/IO error\n"
      "  client   send newline-delimited JSON frames to a running daemon\n"
      "           (no file argument)\n"
      "           options: --socket PATH (required)\n"
      "                    --frame JSON (one request; default: read\n"
      "                    frames from stdin, one per line)\n"
      "           exit codes: 0 every response ok, 1 a response carried\n"
      "                       an error, 2 usage/connect failure\n");
  return 2;
}

Result<std::string> readFile(const std::string &Path) {
  std::ifstream In(Path);
  if (!In)
    return Error("cannot open '" + Path + "'");
  std::stringstream SS;
  SS << In.rdbuf();
  return SS.str();
}

struct Args {
  std::string Command;
  std::string File;
  std::map<std::string, std::string> Options; // --key [value]
};

bool takesValue(const std::string &Key) {
  return Key == "--bmc-depth" || Key == "--certs" || Key == "--property" ||
         Key == "--depth" || Key == "--steps" || Key == "--seed" ||
         Key == "--json" || Key == "--jobs" || Key == "--cache-dir" ||
         Key == "--timeout-ms" || Key == "--step-budget" ||
         Key == "--retries" || Key == "--fault-seed" || Key == "--socket" ||
         Key == "--max-sessions" || Key == "--request-timeout-ms" ||
         Key == "--frame" || Key == "--engine" || Key == "--max-clients" ||
         Key == "--max-inflight" || Key == "--io-timeout-ms" ||
         Key == "--retry-after-ms" || Key == "--drain-cancel-ms" ||
         Key == "--max-restarts" || Key == "--restart-window-ms" ||
         Key == "--scale" || Key == "--out";
}

/// The flags each command reads (whether a flag takes a value is
/// takesValue's call). A flag outside its command's list is rejected, so
/// a typo never silently runs another configuration.
const std::map<std::string, std::vector<std::string>> CommandFlags = {
    {"verify",
     {"--no-skip", "--no-simplify", "--no-cache", "--no-check", "--engine",
      "--bmc-depth", "--certs", "--json", "--jobs", "--cache-dir",
      "--audit-footprints", "--timeout-ms", "--step-budget",
      "--retries", "--fault-seed"}},
    {"bmc", {"--property", "--depth"}},
    {"run", {"--steps", "--seed", "--quiet"}},
    {"print", {}},
    {"info", {}},
    {"cache-gc", {"--cache-dir"}},
    {"daemon",
     {"--socket", "--jobs", "--cache-dir", "--max-sessions",
      "--request-timeout-ms", "--auto-gc", "--no-journal", "--max-clients",
      "--max-inflight", "--retry-after-ms", "--io-timeout-ms",
      "--drain-cancel-ms", "--supervise", "--max-restarts",
      "--restart-window-ms"}},
    {"gen", {"--seed", "--scale", "--out", "--check", "--jobs"}},
    {"client", {"--socket", "--frame"}},
};

/// A flag in \p A that its command does not read, if any. Unknown
/// commands are main's to report.
std::optional<std::string> unknownFlag(const Args &A) {
  auto It = CommandFlags.find(A.Command);
  if (It == CommandFlags.end())
    return std::nullopt;
  const std::vector<std::string> &Known = It->second;
  for (const auto &Opt : A.Options)
    if (std::find(Known.begin(), Known.end(), Opt.first) == Known.end())
      return Opt.first;
  return std::nullopt;
}

/// daemon/client/gen take no .rfx file — everything is options.
bool fileLess(const std::string &Command) {
  return Command == "daemon" || Command == "client" || Command == "gen";
}

Result<Args> parseArgs(int Argc, char **Argv) {
  if (Argc < 2)
    return Error("missing command or file");
  Args A;
  A.Command = Argv[1];
  int OptStart = 3;
  if (fileLess(A.Command)) {
    OptStart = 2;
  } else {
    if (Argc < 3)
      return Error("missing command or file");
    A.File = Argv[2];
  }
  for (int I = OptStart; I < Argc; ++I) {
    std::string Key = Argv[I];
    if (!startsWith(Key, "--"))
      return Error("unexpected argument '" + Key + "'");
    if (takesValue(Key)) {
      if (I + 1 >= Argc)
        return Error("option '" + Key + "' needs a value");
      A.Options[Key] = Argv[++I];
    } else {
      A.Options[Key] = "";
    }
  }
  return A;
}

size_t numOption(const Args &A, const std::string &Key, size_t Default) {
  auto It = A.Options.find(Key);
  if (It == A.Options.end())
    return Default;
  errno = 0;
  char *End = nullptr;
  unsigned long V = std::strtoul(It->second.c_str(), &End, 10);
  if (End == It->second.c_str() || *End != '\0' || errno == ERANGE) {
    std::fprintf(stderr, "error: option '%s' needs a number, got '%s'\n",
                 Key.c_str(), It->second.c_str());
    std::exit(2);
  }
  return V;
}

int cmdVerify(const Args &A, const Program &P) {
  SchedulerOptions SOpts;
  VerifyOptions &Opts = SOpts.Verify;
  Opts.SyntacticSkip = !A.Options.count("--no-skip");
  Opts.Simplify = !A.Options.count("--no-simplify");
  Opts.CacheInvariants = !A.Options.count("--no-cache");
  Opts.CheckCertificates = !A.Options.count("--no-check");
  Opts.BmcDepthOnUnknown = numOption(A, "--bmc-depth", 0);
  Opts.TimeoutMillis = numOption(A, "--timeout-ms", 0);
  Opts.StepBudget = numOption(A, "--step-budget", 0);
  if (auto It = A.Options.find("--engine"); It != A.Options.end()) {
    std::optional<EngineKind> K = parseEngineKind(It->second);
    if (!K) {
      std::fprintf(stderr,
                   "error: option '--engine' must be induction, pdr, or "
                   "portfolio, got '%s'\n",
                   It->second.c_str());
      return 2;
    }
    Opts.Engine = *K;
  }
  SOpts.Jobs = unsigned(numOption(A, "--jobs", 1));
  SOpts.Retries = unsigned(numOption(A, "--retries", 0));

  // --fault-seed arms a deterministic failure drill: ~3% of fault-plan
  // decisions (cache IO operations, worker attempts) misbehave, chosen
  // purely by (seed, site, key). Same seed, same faults, any --jobs.
  FaultPlan Plan;
  if (A.Options.count("--fault-seed")) {
    Plan = FaultPlan(numOption(A, "--fault-seed", 0), /*Permille=*/30);
    SOpts.Faults = &Plan;
  }

  std::unique_ptr<ProofCache> Cache;
  if (auto It = A.Options.find("--cache-dir"); It != A.Options.end()) {
    Result<std::unique_ptr<ProofCache>> Opened = ProofCache::open(It->second);
    if (!Opened.ok()) {
      std::fprintf(stderr, "error: %s\n", Opened.error().c_str());
      return 2;
    }
    Cache = Opened.take();
    if (SOpts.Faults)
      Cache->setFaultPlan(SOpts.Faults);
    SOpts.Cache = Cache.get();
  }

  BatchOutcome Batch = verifyPrograms({&P}, SOpts);
  VerificationReport &Report = Batch.Reports[0];

  std::string CertJson = "[";
  for (size_t I = 0; I < Report.Results.size(); ++I) {
    const PropertyResult &R = Report.Results[I];
    std::printf("%-36s %-8s %8.2f ms%s%s\n", R.Name.c_str(),
                verifyStatusName(R.Status), R.Millis,
                R.Status == VerifyStatus::Proved
                    ? (R.CertChecked ? "  [cert checked]" : "")
                    : "",
                R.CacheHit ? (R.FootprintHit ? "  [cached, footprint]"
                                             : "  [cached]")
                           : "");
    if (R.Status != VerifyStatus::Proved)
      std::printf("    %s\n", R.Reason.c_str());
    if (R.Status == VerifyStatus::Refuted)
      std::printf("    counterexample:\n%s",
                  R.Counterexample.str().c_str());
    if (R.Status == VerifyStatus::Proved) {
      // CertJson was exported while the verifying session was alive (the
      // scheduler's sessions are gone by now).
      if (CertJson.size() > 1)
        CertJson += ",";
      CertJson += R.CertJson;
    }
  }
  CertJson += "]";

  if (auto It = A.Options.find("--certs"); It != A.Options.end()) {
    std::ofstream Out(It->second);
    Out << CertJson << "\n";
    std::printf("certificates written to %s\n", It->second.c_str());
  }
  if (auto It = A.Options.find("--json"); It != A.Options.end()) {
    std::ofstream Out(It->second);
    Out << Report.toJson() << "\n";
    std::printf("report written to %s\n", It->second.c_str());
  }

  if (Cache) {
    std::printf("\nproof cache: %llu hit%s, %llu miss%s (%s)\n",
                (unsigned long long)Report.ProofCacheHits,
                Report.ProofCacheHits == 1 ? "" : "s",
                (unsigned long long)Report.ProofCacheMisses,
                Report.ProofCacheMisses == 1 ? "" : "es",
                Cache->directory().c_str());
    if (Batch.CacheStats.FootprintHits)
      std::printf("  footprint-relative hits: %llu (served despite edits "
                  "outside the proof's footprint)\n",
                  (unsigned long long)Batch.CacheStats.FootprintHits);
    if (Batch.CacheStats.PathHits || Batch.CacheStats.PathFallbacks)
      std::printf("  path-granular: %llu hit%s only the per-statement rule "
                  "could serve, %llu fallback%s fully re-verified\n",
                  (unsigned long long)Batch.CacheStats.PathHits,
                  Batch.CacheStats.PathHits == 1 ? "" : "s",
                  (unsigned long long)Batch.CacheStats.PathFallbacks,
                  Batch.CacheStats.PathFallbacks == 1 ? "" : "s");
    if (Batch.CacheStats.DecodeMillis || Batch.CacheStats.RecheckMillis)
      std::printf("  decode %.2f ms, re-check %.2f ms\n",
                  Batch.CacheStats.DecodeMillis,
                  Batch.CacheStats.RecheckMillis);
    ProofCache::Stats CS = Cache->stats();
    if (CS.Quarantined || CS.SweptTmp)
      std::printf("proof cache hygiene: %llu entr%s quarantined, %llu "
                  "orphaned tmp file%s swept\n",
                  (unsigned long long)CS.Quarantined,
                  CS.Quarantined == 1 ? "y" : "ies",
                  (unsigned long long)CS.SweptTmp,
                  CS.SweptTmp == 1 ? "" : "s");
  }
  if (Batch.DedupedJobs)
    std::printf("deduplicated %llu identical job%s before dispatch\n",
                (unsigned long long)Batch.DedupedJobs,
                Batch.DedupedJobs == 1 ? "" : "s");
  std::printf("\n%u/%zu properties proved in %.2f ms\n",
              Report.provedCount(), Report.Results.size(),
              Report.TotalMillis);

  // --audit-footprints: distrust every verdict that was served without a
  // fresh proof search this run (a cache hit, footprint-relative or not)
  // and re-prove it from scratch. Verdicts are deterministic functions of
  // (program, property, options), so any disagreement means a reuse
  // decision was unsound — abort loudly rather than report it.
  if (A.Options.count("--audit-footprints")) {
    unsigned Audited = 0, PathAudited = 0, Mismatches = 0;
    std::unique_ptr<VerifySession> Fresh;
    for (const PropertyResult &R : Report.Results) {
      if (!R.CacheHit)
        continue;
      const Property *Prop = P.findProperty(R.Name);
      if (!Prop)
        continue;
      if (!Fresh)
        Fresh = std::make_unique<VerifySession>(P, Opts);
      PropertyResult Ref = Fresh->verify(*Prop);
      ++Audited;
      if (R.PathHit)
        ++PathAudited;
      std::string Why;
      if (Ref.Status != R.Status)
        Why = std::string("status: served ") + verifyStatusName(R.Status) +
              ", fresh " + verifyStatusName(Ref.Status);
      else if (Ref.Reason != R.Reason)
        Why = "reason: served '" + R.Reason + "', fresh '" + Ref.Reason + "'";
      else if (R.Status == VerifyStatus::Proved && Ref.CertJson != R.CertJson)
        Why = "certificate JSON differs";
      if (!Why.empty()) {
        ++Mismatches;
        std::fprintf(stderr, "audit FAILURE for %s: %s\n", R.Name.c_str(),
                     Why.c_str());
      }
    }
    std::printf("footprint audit: %u reused verdict%s re-proved "
                "(%u served path-granularly), %u mismatch%s\n",
                Audited, Audited == 1 ? "" : "s", PathAudited, Mismatches,
                Mismatches == 1 ? "" : "es");
    if (Mismatches)
      return 4;
  }

  // Exit codes: 0 all proved; 1 a definitive non-proof (Refuted, or an
  // Unknown the automation could not discharge); 3 when the *only*
  // failures are budget/cancellation statuses — the caller can retry
  // with a bigger budget, nothing was disproved.
  if (Report.allProved())
    return 0;
  bool OnlyBudget = true;
  for (const PropertyResult &R : Report.Results)
    if (R.Status != VerifyStatus::Proved && !isBudgetStatus(R.Status))
      OnlyBudget = false;
  return OnlyBudget ? 3 : 1;
}

int cmdBmc(const Args &A, const Program &P) {
  auto It = A.Options.find("--property");
  if (It == A.Options.end()) {
    std::fprintf(stderr, "bmc requires --property NAME\n");
    return 2;
  }
  const Property *Prop = P.findProperty(It->second);
  if (!Prop) {
    std::fprintf(stderr, "no property named '%s'\n", It->second.c_str());
    return 2;
  }
  BmcOptions Opts;
  Opts.MaxDepth = numOption(A, "--depth", 4);
  WallTimer Timer;
  BmcResult R = bmcSearch(P, *Prop, Opts);
  std::printf("explored %zu states in %.2f ms\n", R.StatesExplored,
              Timer.elapsedMillis());
  if (!R.Violated) {
    std::printf("no violation within %zu exchanges\n", Opts.MaxDepth);
    return 0;
  }
  std::printf("VIOLATION: %s\n%s", R.Explanation.c_str(),
              R.Counterexample.str().c_str());
  return 1;
}

/// A fuzzing script: every component fires a few random messages with
/// payloads from the harvested domains.
class FuzzScript : public ComponentScript {
public:
  FuzzScript(const Program &P, uint64_t Seed, unsigned Burst)
      : P(P), Rand(Seed), Burst(Burst) {}

  void onStart() override { fire(); }
  void onMessage(const Message &) override {
    if (Rand.chance(1, 2))
      fire();
  }

private:
  void fire() {
    for (unsigned I = 0; I < Burst; ++I) {
      const MessageDecl &MD =
          P.Messages[Rand.below(P.Messages.size())];
      Message M;
      M.Name = MD.Name;
      for (BaseType Ty : MD.Payload) {
        std::vector<Value> Dom = harvestDomain(P, Ty);
        if (Dom.empty())
          Dom.push_back(Value::num(0));
        M.Args.push_back(Dom[Rand.below(Dom.size())]);
      }
      sendToKernel(std::move(M));
    }
  }

  const Program &P;
  Rng Rand;
  unsigned Burst;
};

int cmdRun(const Args &A, const Program &P) {
  size_t Steps = numOption(A, "--steps", 200);
  uint64_t Seed = numOption(A, "--seed", 1);
  bool Quiet = A.Options.count("--quiet") != 0;

  Runtime Rt(
      P,
      [&](const ComponentInstance &) -> std::unique_ptr<ComponentScript> {
        return std::make_unique<FuzzScript>(P, Seed++, 3);
      },
      CallRegistry(), Seed);
  Rt.enableMonitor();
  Rt.start();
  size_t Done = Rt.run(Steps);
  if (!Quiet)
    std::printf("%s", Rt.trace().str().c_str());
  std::printf("serviced %zu exchanges, %zu trace actions, %zu components\n",
              Done, Rt.trace().Actions.size(),
              Rt.trace().Components.size());
  if (Rt.lastViolation()) {
    std::printf("MONITOR VIOLATION: %s\n",
                Rt.lastViolation()->Explanation.c_str());
    return 1;
  }
  std::printf("runtime monitor: all declared trace properties held\n");
  return 0;
}

int cmdCacheGc(const Args &A, const Program &P) {
  auto It = A.Options.find("--cache-dir");
  if (It == A.Options.end()) {
    std::fprintf(stderr, "cache-gc requires --cache-dir PATH\n");
    return 2;
  }
  Result<std::unique_ptr<ProofCache>> Cache = ProofCache::open(It->second);
  if (!Cache.ok()) {
    std::fprintf(stderr, "error: %s\n", Cache.error().c_str());
    return 2;
  }
  // Footprint-aware compaction: this program's declaration identity is
  // the only live one; entries for any other program are dropped.
  // Surviving entries keep serving warm hits unchanged.
  std::string Live =
      ProofCache::declId(ProgramFingerprints::compute(P).DeclFp);
  ProofCache::GcOutcome G = (*Cache)->gc({Live});
  std::printf("proof cache gc (%s):\n", It->second.c_str());
  std::printf("  scanned %llu entr%s, dropped %llu, kept %llu\n",
              (unsigned long long)G.Scanned, G.Scanned == 1 ? "y" : "ies",
              (unsigned long long)G.Dropped, (unsigned long long)G.Kept);
  std::printf("  quarantine: kept %llu, evicted %llu\n",
              (unsigned long long)G.QuarantineKept,
              (unsigned long long)G.QuarantineEvicted);
  return 0;
}

// Set by the SIGTERM/SIGINT handler and read by a watcher thread that
// turns the flag into a stop() call (stop() takes locks, which a
// handler must never do). A lock-free atomic is both async-signal-safe
// and race-free against the watcher; sig_atomic_t alone is only the
// former.
std::atomic<int> DrainSignal{0};
static_assert(std::atomic<int>::is_always_lock_free);

void noteDrainSignal(int Sig) {
  DrainSignal.store(Sig, std::memory_order_relaxed);
}

int runDaemon(const Args &A) {
  DaemonOptions O;
  O.SocketPath = A.Options.find("--socket")->second;
  O.Jobs = unsigned(numOption(A, "--jobs", 0));
  O.MaxSessions = unsigned(numOption(A, "--max-sessions", 8));
  O.RequestTimeoutMs = numOption(A, "--request-timeout-ms", 0);
  O.AutoGc = A.Options.count("--auto-gc") != 0;
  if (auto C = A.Options.find("--cache-dir"); C != A.Options.end())
    O.CacheDir = C->second;
  O.Journal = A.Options.count("--no-journal") == 0;
  O.MaxClients = unsigned(numOption(A, "--max-clients", 0));
  O.MaxInFlight = unsigned(numOption(A, "--max-inflight", 0));
  O.IoTimeoutMs = numOption(A, "--io-timeout-ms", 0);
  O.RetryAfterMs = numOption(A, "--retry-after-ms", 100);
  O.DrainCancelMs = numOption(A, "--drain-cancel-ms", 0);

  Result<std::unique_ptr<ReflexDaemon>> D = ReflexDaemon::start(O);
  if (!D.ok()) {
    std::fprintf(stderr, "error: %s\n", D.error().c_str());
    return 2;
  }

  // Graceful drain: SIGTERM/SIGINT stop the accept loop; serve() then
  // finishes (or, past the --drain-cancel-ms grace, cancels) in-flight
  // work, flushes the journal via the daemon teardown, and we exit 0 —
  // which a supervisor treats as a deliberate stop, not a crash.
  DrainSignal.store(0, std::memory_order_relaxed);
  struct sigaction SA {};
  SA.sa_handler = noteDrainSignal;
  sigemptyset(&SA.sa_mask);
  struct sigaction OldTerm {}, OldInt {};
  ::sigaction(SIGTERM, &SA, &OldTerm);
  ::sigaction(SIGINT, &SA, &OldInt);
  std::atomic<bool> Done{false};
  std::thread Watcher([&] {
    while (!Done.load(std::memory_order_relaxed)) {
      if (DrainSignal.load(std::memory_order_relaxed)) {
        (*D)->stop();
        return;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
    }
  });

  std::printf("reflexd listening on %s\n", O.SocketPath.c_str());
  std::fflush(stdout);
  (*D)->serve();
  Done.store(true, std::memory_order_relaxed);
  Watcher.join();
  ::sigaction(SIGTERM, &OldTerm, nullptr);
  ::sigaction(SIGINT, &OldInt, nullptr);
  D->reset(); // full teardown (journal flush, socket unlink) before the
              // shutdown message, so watchers of stdout see a done deal
  std::printf("reflexd shut down\n");
  std::fflush(stdout);
  return 0;
}

int cmdDaemon(const Args &A) {
  if (A.Options.find("--socket") == A.Options.end()) {
    std::fprintf(stderr, "daemon requires --socket PATH\n");
    return 2;
  }
  if (A.Options.count("--supervise")) {
    SupervisorOptions SO;
    SO.MaxRestarts = unsigned(numOption(A, "--max-restarts", 5));
    SO.RestartWindowMs = numOption(A, "--restart-window-ms", 30000);
    return runSupervised(SO, [&A] { return runDaemon(A); });
  }
  return runDaemon(A);
}

int cmdClient(const Args &A) {
  auto It = A.Options.find("--socket");
  if (It == A.Options.end()) {
    std::fprintf(stderr, "client requires --socket PATH\n");
    return 2;
  }
  Result<DaemonClient> C = DaemonClient::connect(It->second);
  if (!C.ok()) {
    std::fprintf(stderr, "error: %s\n", C.error().c_str());
    return 2;
  }
  bool AllOk = true;
  auto RoundTrip = [&](const std::string &Frame) -> bool {
    Result<std::string> Resp = C->callRaw(Frame);
    if (!Resp.ok()) {
      std::fprintf(stderr, "error: %s\n", Resp.error().c_str());
      return false;
    }
    std::printf("%s\n", Resp->c_str());
    Result<JsonValue> Doc = parseJson(*Resp);
    AllOk = AllOk && Doc.ok() && Doc->getBool("ok", false);
    return true;
  };
  if (auto F = A.Options.find("--frame"); F != A.Options.end()) {
    if (!RoundTrip(F->second))
      return 2;
  } else {
    std::string Line;
    while (std::getline(std::cin, Line)) {
      if (Line.empty())
        continue;
      if (!RoundTrip(Line))
        return 2;
    }
  }
  return AllOk ? 0 : 1;
}

int cmdInfo(const Args &, const Program &P) {
  std::printf("program: %s\n", P.Name.empty() ? "<unnamed>" : P.Name.c_str());
  std::printf("  component types: %zu\n", P.Components.size());
  std::printf("  message types:   %zu\n", P.Messages.size());
  std::printf("  state variables: %zu\n", P.StateVars.size());
  std::printf("  handlers:        %zu (of %zu possible exchange cases)\n",
              P.Handlers.size(), P.Components.size() * P.Messages.size());
  std::printf("  properties:      %zu\n", P.Properties.size());

  TermContext Ctx;
  BehAbs Abs = buildBehAbs(Ctx, P);
  size_t Paths = 0, Emits = 0;
  for (const HandlerSummary &S : Abs.Handlers) {
    Paths += S.Paths.size();
    for (const SymPath &Path : S.Paths)
      Emits += Path.Emits.size();
  }
  std::printf("behavioral abstraction:\n");
  std::printf("  init paths:      %zu\n", Abs.Init.Paths.size());
  std::printf("  handler paths:   %zu across %zu cases\n", Paths,
              Abs.Handlers.size());
  std::printf("  emitted actions: %zu symbolic\n", Emits);
  std::printf("  terms allocated: %zu\n", Ctx.termCount());
  return 0;
}

int cmdGen(const Args &A) {
  gen::GenConfig C;
  C.Seed = numOption(A, "--seed", 1);
  C.Scale = unsigned(numOption(A, "--scale", 3));
  const bool Check = A.Options.count("--check") != 0;
  auto OutIt = A.Options.find("--out");
  if (!Check && OutIt == A.Options.end()) {
    std::fprintf(stderr,
                 "error: gen needs --out DIR and/or --check (a corpus "
                 "with nowhere to go and nothing to verify is a no-op)\n");
    return 2;
  }

  gen::GeneratedCorpus Corpus = gen::generateCorpus(C);
  std::printf("generated %zu kernels, %zu properties, %zu handlers "
              "(seed %llu, scale %u)\n",
              Corpus.Instances.size(), Corpus.totalProperties(),
              Corpus.totalHandlers(), (unsigned long long)C.Seed, C.Scale);

  if (OutIt != A.Options.end()) {
    std::filesystem::path Dir(OutIt->second);
    std::error_code EC;
    std::filesystem::create_directories(Dir, EC);
    if (EC) {
      std::fprintf(stderr, "error: cannot create '%s': %s\n",
                   Dir.string().c_str(), EC.message().c_str());
      return 2;
    }
    for (const gen::GeneratedInstance &Inst : Corpus.Instances) {
      std::ofstream Out(Dir / (Inst.Name + ".rfx"));
      if (!Out) {
        std::fprintf(stderr, "error: cannot write '%s'\n",
                     (Dir / (Inst.Name + ".rfx")).string().c_str());
        return 2;
      }
      Out << Inst.Source;
    }
    std::ofstream Manifest(Dir / "manifest.json");
    if (!Manifest) {
      std::fprintf(stderr, "error: cannot write '%s'\n",
                   (Dir / "manifest.json").string().c_str());
      return 2;
    }
    Manifest << gen::corpusManifest(Corpus) << "\n";
    std::printf("wrote %zu .rfx files + manifest.json to %s\n",
                Corpus.Instances.size(), Dir.string().c_str());
  }

  if (Check) {
    gen::OracleOptions OOpts;
    OOpts.Jobs = unsigned(numOption(A, "--jobs", 4));
    WallTimer Timer;
    gen::OracleReport R = gen::runOracle(Corpus, OOpts);
    std::printf("oracle: %zu properties cross-checked in %.2f ms\n"
                "  proved with checked certificates: %zu\n"
                "  refuted with confirmed counterexamples: %zu\n"
                "  unknown (NI split policies) confirmed: %zu\n"
                "  interpreter traces replayed: %zu (%zu exchanges)\n"
                "  parity arms compared: %zu\n",
                R.Properties, Timer.elapsedMillis(), R.ProvedCertChecked,
                R.RefutedConfirmed, R.UnknownConfirmed, R.InterpTraces,
                R.InterpExchanges, R.ParityArms);
    if (!R.clean()) {
      std::fprintf(stderr, "oracle found %zu mismatch%s:\n%s",
                   R.Mismatches.size(),
                   R.Mismatches.size() == 1 ? "" : "es",
                   gen::describeMismatches(R).c_str());
      return 1;
    }
    std::printf("  mismatches: 0\n");
  }
  return 0;
}

} // namespace

int main(int Argc, char **Argv) {
  Result<Args> A = parseArgs(Argc, Argv);
  if (!A.ok()) {
    std::fprintf(stderr, "error: %s\n", A.error().c_str());
    return usage();
  }
  if (std::optional<std::string> Bad = unknownFlag(*A)) {
    std::fprintf(stderr, "error: unknown option '%s' for '%s'\n",
                 Bad->c_str(), A->Command.c_str());
    return 2;
  }

  // File-less commands dispatch before any program is loaded.
  if (A->Command == "daemon")
    return cmdDaemon(*A);
  if (A->Command == "client")
    return cmdClient(*A);
  if (A->Command == "gen")
    return cmdGen(*A);

  Result<std::string> Source = readFile(A->File);
  if (!Source.ok()) {
    std::fprintf(stderr, "error: %s\n", Source.error().c_str());
    return 2;
  }
  Result<ProgramPtr> P = loadProgram(*Source, A->File);
  if (!P.ok()) {
    std::fprintf(stderr, "%s", P.error().c_str());
    return 1;
  }

  if (A->Command == "verify")
    return cmdVerify(*A, **P);
  if (A->Command == "bmc")
    return cmdBmc(*A, **P);
  if (A->Command == "run")
    return cmdRun(*A, **P);
  if (A->Command == "print") {
    std::printf("%s", printProgram(**P).c_str());
    return 0;
  }
  if (A->Command == "info")
    return cmdInfo(*A, **P);
  if (A->Command == "cache-gc")
    return cmdCacheGc(*A, **P);
  std::fprintf(stderr, "unknown command '%s'\n", A->Command.c_str());
  return usage();
}
