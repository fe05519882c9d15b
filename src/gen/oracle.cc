//===- gen/oracle.cc - Differential corpus oracle ---------------*- C++ -*-===//
//
// Part of the Reflex/C++ reproduction of "Automating Formal Proofs for
// Reactive Systems" (PLDI 2014).
//
//===----------------------------------------------------------------------===//

#include "gen/oracle.h"

#include "service/scheduler.h"
#include "verify/absreplay.h"

#include <filesystem>
#include <sstream>

#include <unistd.h>

namespace reflex {
namespace gen {

namespace {

ExpectKind toExpectKind(VerifyStatus S) {
  switch (S) {
  case VerifyStatus::Proved:
    return ExpectKind::Proved;
  case VerifyStatus::Refuted:
    return ExpectKind::Refuted;
  default:
    return ExpectKind::Unknown;
  }
}

std::vector<const Program *> corpusPrograms(const GeneratedCorpus &Corpus) {
  std::vector<const Program *> Ps;
  Ps.reserve(Corpus.Instances.size());
  for (const GeneratedInstance &Inst : Corpus.Instances)
    Ps.push_back(Inst.Program.get());
  return Ps;
}

/// How strictly a parity arm is compared against the baseline:
///  * FullKey — status AND reason byte-identical (the determinism
///    contract: same options, so same verdict bytes);
///  * StatusKey — statuses identical (the portfolio consults two
///    engines, so refutation reasons may legitimately come from a
///    different member);
///  * NoContradiction — a *definite* verdict (Proved/Refuted) must match
///    the baseline status; Unknown is tolerated. This is the soundness
///    cross-check for standalone PDR, which is incomplete on the guard
///    history obligations these templates rest on (see docs/CORPUS.md)
///    but must never contradict the induction engine.
enum class ParityMode : uint8_t { FullKey, StatusKey, NoContradiction };

struct VerdictRow {
  std::string Status;
  std::string Reason;
};

std::vector<VerdictRow> verdictRows(const BatchOutcome &Out) {
  std::vector<VerdictRow> V;
  for (const VerificationReport &R : Out.Reports)
    for (const PropertyResult &PR : R.Results)
      V.push_back({verifyStatusName(PR.Status), PR.Reason});
  return V;
}

void compareArm(const GeneratedCorpus &Corpus,
                const std::vector<VerdictRow> &Base, const BatchOutcome &Out,
                ParityMode Mode, const std::string &ArmName,
                OracleReport &Rep) {
  std::vector<VerdictRow> Got = verdictRows(Out);
  if (Got.size() != Base.size()) {
    Rep.Mismatches.push_back({"", "", "parity",
                              ArmName + ": result count " +
                                  std::to_string(Got.size()) + " vs " +
                                  std::to_string(Base.size())});
    return;
  }
  size_t Flat = 0;
  for (size_t I = 0; I < Corpus.Instances.size(); ++I)
    for (const ExpectedVerdict &E : Corpus.Instances[I].Expected) {
      const VerdictRow &B = Base[Flat];
      const VerdictRow &G = Got[Flat];
      ++Flat;
      bool Bad = false;
      switch (Mode) {
      case ParityMode::FullKey:
        Bad = G.Status != B.Status || G.Reason != B.Reason;
        break;
      case ParityMode::StatusKey:
        Bad = G.Status != B.Status;
        break;
      case ParityMode::NoContradiction:
        Bad = (G.Status == "Proved" || G.Status == "Refuted") &&
              G.Status != B.Status;
        break;
      }
      if (Bad)
        Rep.Mismatches.push_back(
            {Corpus.Instances[I].Name, E.Property, "parity",
             ArmName + ": " + G.Status +
                 (Mode == ParityMode::FullKey && G.Reason != B.Reason
                      ? "|" + G.Reason
                      : "") +
                 " != baseline " + B.Status});
    }
}

} // namespace

OracleReport runOracle(const GeneratedCorpus &Corpus,
                       const OracleOptions &Opts) {
  OracleReport Rep;
  Rep.Instances = Corpus.Instances.size();
  Rep.Properties = Corpus.totalProperties();

  std::vector<const Program *> Programs = corpusPrograms(Corpus);

  // --- Arm 1+2: baseline verdicts vs construction ground truth ----------
  SchedulerOptions Seq;
  Seq.Jobs = 1;
  Seq.Verify = corpusVerifyOptions();
  BatchOutcome Baseline = verifyPrograms(Programs, Seq);

  for (size_t I = 0; I < Corpus.Instances.size(); ++I) {
    const GeneratedInstance &Inst = Corpus.Instances[I];
    const VerificationReport &R = Baseline.Reports[I];
    if (R.Results.size() != Inst.Expected.size()) {
      Rep.Mismatches.push_back(
          {Inst.Name, "", "manifest",
           "report has " + std::to_string(R.Results.size()) +
               " results, manifest expects " +
               std::to_string(Inst.Expected.size())});
      continue;
    }
    for (size_t J = 0; J < R.Results.size(); ++J) {
      const PropertyResult &PR = R.Results[J];
      const ExpectedVerdict &E = Inst.Expected[J];
      if (PR.Name != E.Property) {
        Rep.Mismatches.push_back({Inst.Name, E.Property, "manifest",
                                  "result order: got " + PR.Name});
        continue;
      }
      if (toExpectKind(PR.Status) != E.Expect) {
        Rep.Mismatches.push_back(
            {Inst.Name, PR.Name, "verdict",
             std::string("expected ") + expectKindName(E.Expect) + " (" +
                 E.Why + "), got " + verifyStatusName(PR.Status) +
                 (PR.Reason.empty() ? "" : ": " + PR.Reason)});
        continue;
      }
      switch (E.Expect) {
      case ExpectKind::Proved:
        if (!PR.CertChecked)
          Rep.Mismatches.push_back(
              {Inst.Name, PR.Name, "certificate",
               "proved without a checker-validated certificate"});
        else
          ++Rep.ProvedCertChecked;
        break;
      case ExpectKind::Refuted: {
        const Property *Prop = Inst.Program->findProperty(PR.Name);
        if (PR.Counterexample.Actions.empty()) {
          Rep.Mismatches.push_back({Inst.Name, PR.Name, "counterexample",
                                    "refuted without a counterexample "
                                    "trace"});
          break;
        }
        if (!Prop || !Prop->isTrace()) {
          Rep.Mismatches.push_back({Inst.Name, PR.Name, "manifest",
                                    "refuted property is not a trace "
                                    "property"});
          break;
        }
        auto V = checkTraceProperty(PR.Counterexample, Prop->traceProp());
        if (!V) {
          Rep.Mismatches.push_back(
              {Inst.Name, PR.Name, "counterexample",
               "counterexample does not violate the property under the "
               "concrete reference semantics"});
          break;
        }
        // The CE must be a real trace of the program: replay it through
        // the behavioral abstraction.
        TermContext Ctx;
        BehAbs Abs = buildBehAbs(Ctx, *Inst.Program);
        ReplayResult RR =
            replayTrace(Ctx, *Inst.Program, Abs, PR.Counterexample);
        if (!RR.Included) {
          Rep.Mismatches.push_back({Inst.Name, PR.Name, "replay",
                                    "counterexample not included in the "
                                    "abstraction: " +
                                        RR.Why});
          break;
        }
        ++Rep.RefutedConfirmed;
        break;
      }
      case ExpectKind::Unknown:
        ++Rep.UnknownConfirmed;
        break;
      }
    }
  }

  // --- Arm 3: interpreter traces vs abstraction vs proved verdicts ------
  for (size_t I = 0; I < Corpus.Instances.size(); ++I) {
    const GeneratedInstance &Inst = Corpus.Instances[I];
    const Program &P = *Inst.Program;
    TermContext Ctx;
    BehAbs Abs = buildBehAbs(Ctx, P);
    for (unsigned Run = 0; Run < Opts.InterpRuns; ++Run) {
      const uint64_t Seed = Opts.InterpSeed + 7919 * Run + I;
      Runtime Rt(P, corpusScripts(P, Seed), CallRegistry{}, Seed);
      Rt.start();
      Rt.run(Opts.InterpSteps);
      const Trace &Tr = Rt.trace();
      ++Rep.InterpTraces;
      Rep.InterpExchanges += Tr.Actions.size();
      ReplayResult RR = replayTrace(Ctx, P, Abs, Tr);
      if (!RR.Included) {
        Rep.Mismatches.push_back(
            {Inst.Name, "", "replay",
             "interpreter trace (seed " + std::to_string(Seed) +
                 ") not included in the abstraction: " + RR.Why});
        continue;
      }
      // Every property the prover certified must hold on the concrete
      // trace; on bug instances the refuted property may legitimately
      // fire, so only expected-Proved properties are checked.
      for (size_t J = 0; J < Inst.Expected.size(); ++J) {
        const ExpectedVerdict &E = Inst.Expected[J];
        if (E.Expect != ExpectKind::Proved)
          continue;
        const Property *Prop = P.findProperty(E.Property);
        if (!Prop || !Prop->isTrace())
          continue; // NI has no single-trace semantics.
        auto V = checkTraceProperty(Tr, Prop->traceProp());
        if (V)
          Rep.Mismatches.push_back(
              {Inst.Name, E.Property, "trace-property",
               "proved property violated on interpreter trace (seed " +
                   std::to_string(Seed) + "): " + V->Explanation});
      }
    }
  }

  // --- Arm 4: cross-config parity ---------------------------------------
  const std::vector<VerdictRow> Base = verdictRows(Baseline);

  if (Opts.CrossSchedulers) {
    {
      SchedulerOptions Par = Seq;
      Par.Jobs = Opts.Jobs;
      compareArm(Corpus, Base, verifyPrograms(Programs, Par),
                 ParityMode::FullKey, "parallel", Rep);
      ++Rep.ParityArms;
    }
    // Cache-state parity: populate a throwaway persistent cache, then a
    // warm batch must reproduce the baseline byte-for-byte with every
    // verdict served from disk.
    std::filesystem::path CacheDir =
        Opts.CacheDir.empty()
            ? std::filesystem::temp_directory_path() /
                  ("reflex-gen-oracle-" + std::to_string(::getpid()))
            : std::filesystem::path(Opts.CacheDir);
    Result<std::unique_ptr<ProofCache>> Cache =
        ProofCache::open(CacheDir.string());
    if (!Cache.ok()) {
      Rep.Mismatches.push_back(
          {"", "", "cache", "cannot open parity cache: " + Cache.error()});
    } else {
      SchedulerOptions Cached = Seq;
      Cached.Jobs = Opts.Jobs;
      Cached.Cache = Cache->get();
      compareArm(Corpus, Base, verifyPrograms(Programs, Cached),
                 ParityMode::FullKey, "cache-cold", Rep);
      ++Rep.ParityArms;
      BatchOutcome Warm = verifyPrograms(Programs, Cached);
      compareArm(Corpus, Base, Warm, ParityMode::FullKey, "cache-warm", Rep);
      ++Rep.ParityArms;
      // Refuted verdicts are never persisted (no certificate to check on
      // reload), so the warm floor is every cacheable — i.e. non-Refuted —
      // property.
      size_t Cacheable = 0;
      for (const GeneratedInstance &Inst : Corpus.Instances)
        for (const ExpectedVerdict &E : Inst.Expected)
          if (E.Expect != ExpectKind::Refuted)
            ++Cacheable;
      if (Warm.CacheStats.Hits + Warm.CacheStats.FootprintHits < Cacheable)
        Rep.Mismatches.push_back(
            {"", "", "cache",
             "warm parity batch served only " +
                 std::to_string(Warm.CacheStats.Hits +
                                Warm.CacheStats.FootprintHits) +
                 "/" + std::to_string(Cacheable) +
                 " cacheable verdicts from the cache"});
    }
    if (Opts.CacheDir.empty()) {
      std::error_code EC;
      std::filesystem::remove_all(CacheDir, EC);
    }
  }

  if (Opts.CrossEngines) {
    {
      // Standalone PDR is incomplete on these history obligations (its
      // frames track state reachability, not event precedence), so it
      // may answer Unknown — but a definite PDR verdict contradicting
      // the induction baseline is a soundness bug in one of them.
      SchedulerOptions Pdr = Seq;
      Pdr.Verify.Engine = EngineKind::Pdr;
      compareArm(Corpus, Base, verifyPrograms(Programs, Pdr),
                 ParityMode::NoContradiction, "engine-pdr", Rep);
      ++Rep.ParityArms;
    }
    {
      // The portfolio runs induction first, so it must land every verdict
      // the baseline does (reasons may come from PDR when it serves).
      SchedulerOptions Pf = Seq;
      Pf.Jobs = Opts.Jobs;
      Pf.Verify.Engine = EngineKind::Portfolio;
      compareArm(Corpus, Base, verifyPrograms(Programs, Pf),
                 ParityMode::StatusKey, "engine-portfolio", Rep);
      ++Rep.ParityArms;
    }
  }

  return Rep;
}

std::string describeMismatches(const OracleReport &R, size_t Max) {
  std::ostringstream OS;
  const size_t N = std::min(Max, R.Mismatches.size());
  for (size_t I = 0; I < N; ++I) {
    const OracleMismatch &M = R.Mismatches[I];
    OS << "[" << M.Kind << "] " << M.Instance;
    if (!M.Property.empty())
      OS << "/" << M.Property;
    OS << ": " << M.Detail << "\n";
  }
  if (R.Mismatches.size() > N)
    OS << "... and " << (R.Mismatches.size() - N) << " more\n";
  return OS.str();
}

} // namespace gen
} // namespace reflex
