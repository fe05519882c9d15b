//===- bench/bench_solver.cc - Incremental solver core bench --------------===//
//
// The solver-core bench: pins the incremental assumption-based core
// (sym/solver.h) against the from-scratch reference algorithm on the
// query mix the prover actually issues — a shared path-condition prefix
// probed by many small assumption sets. The workload is the symbolic
// path conditions of the two scaling kernel families (branch-nest depth
// for long conditions, fleet width for many handlers): for every handler
// path, each of its condition literals is probed positively (consistent)
// and negated (contradictory), plus every literal of the handler's other
// paths.
//
//  * scratch      — per probe, the reference solver re-solves the full
//                   literal set (path condition + probe) from scratch;
//  * incremental  — the path condition is asserted once (push/assume),
//                   then each probe is a checkAssuming against the
//                   persistent congruence closure;
//  * logged       — the incremental arm with reason-trail recording on,
//                   to price the proof-logging overhead.
//
// Both timed arms run with the memo disabled — the bench prices the
// solving itself, not the cache in front of it. Arms alternate per
// repetition and the headline speedup is the median of paired adjacent
// ratios (the bench_parallel convention, so container jitter cancels).
//
// Correctness gates (exit non-zero on failure):
//  * per-query parity: every incremental arm's SatResult sequence
//    (plain and logged) equals the reference arm's;
//  * every reason trail recorded by the logged arm survives the
//    independent replayer (replayReasonTrail);
//  * outside --smoke, incremental speedup >= 2x.
//
// Flags:
//   --depth N   branch-kernel nesting depth (default 6: 64 paths)
//   --lanes N   fleet-kernel width (default 8)
//   --smoke     one repetition, no speedup gate (CI races/sanitizers)
//   --out FILE  JSON output path (default BENCH_solver.json)
//
//===----------------------------------------------------------------------===//

#include "kernels/synthetic.h"
#include "reflex/reflex.h"
#include "support/json.h"
#include "support/timer.h"
#include "sym/solver.h"
#include "verify/behabs.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

using namespace reflex;

namespace {

/// One family: a path condition plus the probe sets checked under it.
struct QueryFamily {
  std::vector<Lit> Cond;
  std::vector<Lit> Probes;
};

/// Builds the workload for one program: symbolically executes it and
/// turns every handler path into a query family (see file header).
void collectFamilies(TermContext &Ctx, const Program &P,
                     std::vector<QueryFamily> &Out) {
  BehAbs Abs = buildBehAbs(Ctx, P);
  for (const HandlerSummary &H : Abs.Handlers) {
    for (size_t I = 0; I < H.Paths.size(); ++I) {
      const SymPath &Path = H.Paths[I];
      if (Path.Cond.empty())
        continue;
      QueryFamily F;
      F.Cond = Path.Cond;
      for (const Lit &L : Path.Cond) {
        F.Probes.push_back(L);
        F.Probes.push_back(Lit(L.Atom, !L.Pos));
      }
      for (size_t J = 0; J < H.Paths.size(); ++J) {
        if (J == I)
          continue;
        for (const Lit &L : H.Paths[J].Cond)
          F.Probes.push_back(L);
      }
      Out.push_back(std::move(F));
    }
  }
}

/// Runs every family through the reference solver (full literal set per
/// probe, from scratch). Appends one SatResult per query to \p Results.
double runScratch(TermContext &Ctx, const std::vector<QueryFamily> &Fams,
                  std::vector<SatResult> *Results) {
  Solver S(Ctx);
  S.setMemoEnabled(false);
  S.setIncrementalEnabled(false);
  WallTimer T;
  for (const QueryFamily &F : Fams) {
    for (const Lit &Probe : F.Probes) {
      std::vector<Lit> Full = F.Cond;
      Full.push_back(Probe);
      SatResult R = S.checkLits(Full);
      if (Results)
        Results->push_back(R);
    }
  }
  return T.elapsedMillis();
}

/// Runs every family through the incremental core: the condition is
/// asserted once per family, each probe is one checkAssuming.
double runIncremental(TermContext &Ctx, const std::vector<QueryFamily> &Fams,
                      bool Log, std::vector<SatResult> *Results,
                      SolverStats *StatsOut,
                      std::vector<ReasonTrail> *TrailsOut) {
  Solver S(Ctx);
  S.setMemoEnabled(false);
  S.setLogEnabled(Log);
  WallTimer T;
  for (const QueryFamily &F : Fams) {
    Solver::Scope Sc(S, F.Cond);
    for (const Lit &Probe : F.Probes) {
      SatResult R = S.checkAssuming({Probe});
      if (Results)
        Results->push_back(R);
    }
  }
  double Ms = T.elapsedMillis();
  if (StatsOut)
    *StatsOut = S.stats();
  if (TrailsOut)
    *TrailsOut = S.reasonTrails();
  return Ms;
}

double median(std::vector<double> V) {
  std::sort(V.begin(), V.end());
  return V.empty() ? 0 : V[V.size() / 2];
}

double Round2(double X) { return std::round(X * 100) / 100; }

} // namespace

int main(int Argc, char **Argv) {
  unsigned Depth = 6, Lanes = 8;
  bool Smoke = false;
  std::string OutPath = "BENCH_solver.json";
  for (int I = 1; I < Argc; ++I) {
    if (!std::strcmp(Argv[I], "--depth") && I + 1 < Argc)
      Depth = unsigned(std::stoul(Argv[++I]));
    else if (!std::strcmp(Argv[I], "--lanes") && I + 1 < Argc)
      Lanes = unsigned(std::stoul(Argv[++I]));
    else if (!std::strcmp(Argv[I], "--smoke"))
      Smoke = true;
    else if (!std::strcmp(Argv[I], "--out") && I + 1 < Argc)
      OutPath = Argv[++I];
    else {
      std::fprintf(stderr, "usage: bench_solver [--depth N] [--lanes N] "
                           "[--smoke] [--out FILE]\n");
      return 2;
    }
  }
  const unsigned Reps = Smoke ? 1 : 7;

  // One term context for the whole bench: families from both kernel
  // families share it, as the prover's queries share a session context.
  TermContext Ctx;
  std::vector<QueryFamily> Fams;
  size_t QueryCount = 0;
  for (const std::string &Src : {kernels::syntheticBranchKernel(Depth),
                                 kernels::syntheticFleetKernel(Lanes)}) {
    Result<ProgramPtr> P = loadProgram(Src, "bench_solver");
    if (!P.ok()) {
      std::fprintf(stderr, "bench_solver: kernel failed to load: %s\n",
                   P.error().c_str());
      return 1;
    }
    collectFamilies(Ctx, **P, Fams);
  }
  for (const QueryFamily &F : Fams)
    QueryCount += F.Probes.size();
  std::printf("=== Solver core: %zu families, %zu queries "
              "(branch depth %u, fleet lanes %u) ===\n\n",
              Fams.size(), QueryCount, Depth, Lanes);

  // Parity gate (untimed): identical SatResult sequences, and every
  // recorded reason trail replays through the independent validator.
  std::vector<SatResult> Ref, Inc, IncLogged;
  runScratch(Ctx, Fams, &Ref);
  runIncremental(Ctx, Fams, /*Log=*/false, &Inc, nullptr, nullptr);
  std::vector<ReasonTrail> Trails;
  runIncremental(Ctx, Fams, /*Log=*/true, &IncLogged, nullptr, &Trails);
  if (Ref != Inc || Ref != IncLogged) {
    size_t At = 0;
    while (At < Ref.size() && Ref[At] == Inc[At] && Ref[At] == IncLogged[At])
      ++At;
    std::fprintf(stderr,
                 "FAIL: incremental/reference verdict mismatch at query "
                 "%zu of %zu\n",
                 At, Ref.size());
    return 1;
  }
  size_t UnsatCount = 0;
  for (SatResult R : Ref)
    UnsatCount += R == SatResult::Unsat;
  for (size_t I = 0; I < Trails.size(); ++I) {
    std::string Why;
    if (!replayReasonTrail(Ctx, Trails[I], Why)) {
      std::fprintf(stderr, "FAIL: reason trail %zu failed replay: %s\n", I,
                   Why.c_str());
      return 1;
    }
  }
  std::printf("parity: %zu queries agree across 3 arms (%zu unsat); %zu "
              "reason trails replayed\n",
              Ref.size(), UnsatCount, Trails.size());

  // Timed arms, alternating per repetition; paired adjacent ratios.
  std::vector<double> ScratchMsS, IncMsS, LoggedMsS, Ratios;
  SolverStats LastStats;
  for (unsigned R = 0; R < Reps; ++R) {
    double SMs, IMs;
    if (R % 2 == 0) {
      SMs = runScratch(Ctx, Fams, nullptr);
      IMs = runIncremental(Ctx, Fams, false, nullptr, nullptr, nullptr);
    } else {
      IMs = runIncremental(Ctx, Fams, false, nullptr, nullptr, nullptr);
      SMs = runScratch(Ctx, Fams, nullptr);
    }
    double LMs = runIncremental(Ctx, Fams, true, nullptr, &LastStats, nullptr);
    ScratchMsS.push_back(SMs);
    IncMsS.push_back(IMs);
    LoggedMsS.push_back(LMs);
    Ratios.push_back(SMs / std::max(IMs, 1e-6));
  }
  double ScratchMs = median(ScratchMsS), IncMs = median(IncMsS);
  double LoggedMs = median(LoggedMsS);
  double Speedup = Round2(median(Ratios));
  double QpsScratch = QueryCount / std::max(ScratchMs, 1e-6) * 1e3;
  double QpsInc = QueryCount / std::max(IncMs, 1e-6) * 1e3;
  double LogOverheadPct =
      Round2((LoggedMs - IncMs) / std::max(IncMs, 1e-6) * 100);

  std::printf("\nscratch:      %8.2f ms  (%.0f queries/s)\n", ScratchMs,
              QpsScratch);
  std::printf("incremental:  %8.2f ms  (%.0f queries/s)  speedup %.2fx\n",
              IncMs, QpsInc, Speedup);
  std::printf("with logging: %8.2f ms  (overhead %.2f%%, %llu trail "
              "bytes)\n",
              LoggedMs, LogOverheadPct,
              (unsigned long long)LastStats.ReasonLogBytes);

  JsonWriter W;
  W.beginObject();
  W.field("bench", "solver");
  W.field("branch_depth", int64_t(Depth));
  W.field("fleet_lanes", int64_t(Lanes));
  W.field("families", int64_t(Fams.size()));
  W.field("queries", int64_t(QueryCount));
  W.field("unsat_queries", int64_t(UnsatCount));
  W.field("trails_replayed", int64_t(Trails.size()));
  W.key("scratch_ms");
  W.value(Round2(ScratchMs));
  W.key("incremental_ms");
  W.value(Round2(IncMs));
  W.key("logged_ms");
  W.value(Round2(LoggedMs));
  W.key("queries_per_sec_scratch");
  W.value(Round2(QpsScratch));
  W.key("queries_per_sec_incremental");
  W.value(Round2(QpsInc));
  W.key("speedup");
  W.value(Speedup);
  W.key("reason_log_overhead_pct");
  W.value(LogOverheadPct);
  W.field("smoke", Smoke);
  W.endObject();
  std::ofstream Out(OutPath);
  Out << W.take() << "\n";
  std::printf("\nwrote %s\n", OutPath.c_str());

  if (!Smoke && Speedup < 2.0) {
    std::fprintf(stderr, "FAIL: incremental speedup %.2fx < 2x gate\n",
                 Speedup);
    return 1;
  }
  return 0;
}
