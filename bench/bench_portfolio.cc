//===- bench/bench_portfolio.cc - Engine portfolio bench ------------------===//
//
// The proof-engine portfolio bench (docs/ENGINES.md): the seven paper
// kernels plus the pdrlock demo kernel verified under each engine —
// induction, PDR, and the portfolio — with per-engine timings and
// proved counts, written to BENCH_portfolio.json.
//
// Correctness gates (exit non-zero on failure):
//  * separation: pdrlock's RogueNeedsBlessing is Unknown under induction
//    but Proved under PDR with a checker-accepted clausal certificate —
//    the portfolio's reason to exist;
//  * the portfolio serves that property through PDR, and its verdicts
//    over the whole suite are byte-identical (statuses, reasons,
//    certificates, serving engines) across one worker and many;
//  * every engine's verdicts are themselves jobs-count independent.
//
// Flags:
//   --jobs N    parallel worker count for the parity check (default 4;
//               0 = cores)
//   --smoke     one repetition (the ctest gate uses this)
//   --out FILE  JSON output path (default BENCH_portfolio.json)
//
//===----------------------------------------------------------------------===//

#include "kernels/kernels.h"
#include "service/scheduler.h"
#include "service/threadpool.h"
#include "support/json.h"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

using namespace reflex;

namespace {

struct Suite {
  std::vector<ProgramPtr> Owned;
  std::vector<const Program *> Programs;
};

Suite loadSuite() {
  Suite S;
  for (const kernels::KernelDef *K : kernels::all()) {
    S.Owned.push_back(kernels::load(*K));
    S.Programs.push_back(S.Owned.back().get());
  }
  // The engine-separating demo kernel rides along (not part of the
  // paper's 41-property evaluation set).
  S.Owned.push_back(kernels::load(kernels::pdrlock()));
  S.Programs.push_back(S.Owned.back().get());
  return S;
}

/// Everything a verdict is made of, flattened in deterministic order:
/// status, reason, serving engine, and the certificate bytes.
std::vector<std::string> verdicts(const BatchOutcome &Out) {
  std::vector<std::string> V;
  for (const VerificationReport &R : Out.Reports)
    for (const PropertyResult &PR : R.Results)
      V.push_back(PR.Name + "|" + verifyStatusName(PR.Status) + "|" +
                  PR.Reason + "|" + PR.ServedBy + "|" + PR.CertJson);
  return V;
}

double medianMs(unsigned Runs, const std::vector<const Program *> &Programs,
                const SchedulerOptions &Opts, BatchOutcome *Last) {
  std::vector<double> Ms;
  Ms.reserve(Runs);
  for (unsigned I = 0; I < Runs; ++I) {
    BatchOutcome Out = verifyPrograms(Programs, Opts);
    Ms.push_back(Out.TotalMillis);
    if (Last)
      *Last = std::move(Out);
  }
  std::sort(Ms.begin(), Ms.end());
  return Ms[Ms.size() / 2];
}

} // namespace

int main(int Argc, char **Argv) {
  unsigned Jobs = 4;
  bool Smoke = false;
  std::string OutPath = "BENCH_portfolio.json";
  for (int I = 1; I < Argc; ++I) {
    if (!std::strcmp(Argv[I], "--jobs") && I + 1 < Argc)
      Jobs = unsigned(std::stoul(Argv[++I]));
    else if (!std::strcmp(Argv[I], "--smoke"))
      Smoke = true;
    else if (!std::strcmp(Argv[I], "--out") && I + 1 < Argc)
      OutPath = Argv[++I];
    else {
      std::fprintf(stderr, "usage: bench_portfolio [--jobs N] [--smoke] "
                           "[--out FILE]\n");
      return 2;
    }
  }
  if (Jobs == 0)
    Jobs = ThreadPool::defaultWorkerCount();
  const unsigned Runs = Smoke ? 1 : 5;

  Suite S = loadSuite();
  std::printf("=== Engine portfolio: %zu kernels (incl. pdrlock) ===\n\n",
              S.Programs.size());

  bool Ok = true;

  // --- Gate 1: the engines separate on pdrlock -------------------------
  const Program *Pdrlock = S.Programs.back();
  unsigned SeparatedProps = 0;
  bool PdrCertChecked = false;
  {
    VerifyOptions Ind;
    Ind.Engine = EngineKind::Induction;
    VerificationReport IndR = verifyProgram(*Pdrlock, Ind);
    VerifyOptions Pdr;
    Pdr.Engine = EngineKind::Pdr;
    VerificationReport PdrR = verifyProgram(*Pdrlock, Pdr);
    for (size_t I = 0; I < IndR.Results.size(); ++I) {
      const PropertyResult &A = IndR.Results[I];
      const PropertyResult &B = PdrR.Results[I];
      if (A.Status == VerifyStatus::Unknown &&
          B.Status == VerifyStatus::Proved) {
        ++SeparatedProps;
        PdrCertChecked = PdrCertChecked || B.CertChecked;
        std::printf("separated: %-28s induction=%s pdr=%s%s\n",
                    A.Name.c_str(), verifyStatusName(A.Status),
                    verifyStatusName(B.Status),
                    B.CertChecked ? " [cert checked]" : "");
      }
    }
  }
  if (SeparatedProps == 0 || !PdrCertChecked) {
    std::fprintf(stderr, "FAIL: no property is Unknown under induction but "
                         "Proved (cert-checked) under PDR\n");
    Ok = false;
  }

  // --- Gate 2: the portfolio serves it through PDR ---------------------
  {
    VerifyOptions Port;
    Port.Engine = EngineKind::Portfolio;
    VerificationReport R = verifyProgram(*Pdrlock, Port);
    const PropertyResult *PR = R.find("RogueNeedsBlessing");
    if (!PR || PR->Status != VerifyStatus::Proved || PR->ServedBy != "pdr") {
      std::fprintf(stderr, "FAIL: portfolio did not serve "
                           "RogueNeedsBlessing through PDR\n");
      Ok = false;
    }
  }

  // --- Timings + Gate 3: jobs-1-vs-N byte parity per engine ------------
  struct EngineRow {
    const char *Name;
    EngineKind Kind;
    double SeqMs = 0;
    double ParMs = 0;
    unsigned Proved = 0;
    unsigned Properties = 0;
  };
  std::vector<EngineRow> Rows = {
      {"induction", EngineKind::Induction},
      {"pdr", EngineKind::Pdr},
      {"portfolio", EngineKind::Portfolio},
  };
  for (EngineRow &Row : Rows) {
    SchedulerOptions Seq;
    Seq.Jobs = 1;
    Seq.Verify.Engine = Row.Kind;
    SchedulerOptions Par = Seq;
    Par.Jobs = Jobs;
    BatchOutcome SeqOut, ParOut;
    Row.SeqMs = medianMs(Runs, S.Programs, Seq, &SeqOut);
    Row.ParMs = medianMs(Runs, S.Programs, Par, &ParOut);
    Row.Proved = SeqOut.provedCount();
    Row.Properties = ParOut.propertyCount();
    if (verdicts(SeqOut) != verdicts(ParOut)) {
      std::fprintf(stderr,
                   "FAIL: %s verdicts differ between 1 and %u workers\n",
                   Row.Name, Jobs);
      Ok = false;
    }
    std::printf("%-12s %3u/%3u proved   seq %8.2f ms   %u workers %8.2f "
                "ms\n",
                Row.Name, Row.Proved, Row.Properties, Row.SeqMs, Jobs,
                Row.ParMs);
  }

  JsonWriter W;
  W.beginObject();
  W.field("bench", "portfolio");
  W.field("jobs", int64_t(Jobs));
  W.field("smoke", Smoke);
  W.field("separated_properties", int64_t(SeparatedProps));
  W.key("engines");
  W.beginArray();
  for (const EngineRow &Row : Rows) {
    W.beginObject();
    W.field("engine", Row.Name);
    W.field("proved", int64_t(Row.Proved));
    W.field("properties", int64_t(Row.Properties));
    W.key("seq_ms");
    W.value(Row.SeqMs);
    W.key("par_ms");
    W.value(Row.ParMs);
    W.endObject();
  }
  W.endArray();
  W.field("deterministic", Ok);
  W.endObject();
  std::ofstream OutF(OutPath, std::ios::trunc);
  OutF << W.take() << "\n";
  std::printf("\nwrote %s\n", OutPath.c_str());

  if (!Ok) {
    std::fprintf(stderr, "\nFAIL: portfolio gates failed\n");
    return 1;
  }
  std::printf("portfolio gates passed\n");
  return 0;
}
