//===- tests/footprint_stmt_test.cc - Statement-level footprints -*- C++ -*-===//
//
// The soundness gate behind path-granular proof footprints: exhaustive
// *per-statement* mutations of every example kernel (every statement of
// every handler, not just one edit per handler), across proof engines,
// always requiring the incremental verdict set to be byte-identical —
// status, reason, certificate JSON — to a from-scratch verification of
// the mutated program, with audit mode re-proving every reused verdict
// inside the verifier. Plus: the per-leaf branch kernel whose edits
// genuinely need the per-path rule (PathHits), and the v2 -> v3 cache
// entry migration contract (stale entries are plain misses — never
// quarantined, never served).
//
//===----------------------------------------------------------------------===//

#include "kernels/kernels.h"
#include "kernels/synthetic.h"
#include "service/proofcache.h"
#include "test_util.h"
#include "verify/incremental.h"

#include <filesystem>
#include <fstream>
#include <sstream>

#include <unistd.h>

namespace reflex {
namespace {

namespace fs = std::filesystem;

/// Positions of every statement terminator `;` inside handler bodies of
/// \p Src, in source order.
std::vector<size_t> statementPositions(const std::string &Src) {
  std::vector<size_t> Out;
  size_t Pos = 0;
  while ((Pos = Src.find("handler ", Pos)) != std::string::npos) {
    size_t Open = Src.find('{', Pos);
    if (Open == std::string::npos)
      break;
    int Depth = 0;
    size_t I = Open;
    for (; I < Src.size(); ++I) {
      if (Src[I] == '#') { // Reflex line comment
        I = Src.find('\n', I);
        if (I == std::string::npos)
          break;
      } else if (Src[I] == '"') {
        I = Src.find('"', I + 1);
        if (I == std::string::npos)
          break;
      } else if (Src[I] == '{') {
        ++Depth;
      } else if (Src[I] == '}') {
        if (--Depth == 0)
          break;
      } else if (Src[I] == ';' && Depth > 0) {
        Out.push_back(I);
      }
    }
    Pos = I;
  }
  return Out;
}

/// The mutated source: a no-op self-assignment of \p Var inserted right
/// after the statement ending at \p SemiPos.
std::string mutateAtStatement(const std::string &Src, size_t SemiPos,
                              const std::string &Var) {
  std::string Out = Src;
  Out.insert(SemiPos + 1, "\n  " + Var + " = " + Var + ";");
  return Out;
}

/// One audited incremental step P1 -> P2 under \p Opts: verdicts must be
/// byte-identical to a fresh verification of P2, and the verifier's own
/// audit must find no mismatch. \p What labels failures.
void expectStatementAuditClean(const Program &P1, const Program &P2,
                               const VerifyOptions &Opts,
                               const std::string &What) {
  IncrementalVerifier IV(Opts);
  IV.setAuditReuse(true);
  IV.verify(P1);
  auto Out = IV.verify(P2);
  EXPECT_EQ(Out.AuditFailures, 0u) << What;
  for (const std::string &Err : Out.AuditErrors)
    ADD_FAILURE() << What << ": " << Err;

  VerificationReport Fresh = verifyProgram(P2, Opts);
  ASSERT_EQ(Out.Report.Results.size(), Fresh.Results.size()) << What;
  for (size_t I = 0; I < Fresh.Results.size(); ++I) {
    const PropertyResult &Got = Out.Report.Results[I];
    const PropertyResult &Want = Fresh.Results[I];
    EXPECT_EQ(Got.Status, Want.Status) << What << " " << Want.Name;
    EXPECT_EQ(Got.Reason, Want.Reason) << What << " " << Want.Name;
    EXPECT_EQ(Got.CertJson, Want.CertJson) << What << " " << Want.Name;
  }
}

TEST(FootprintStmt, PerStatementMutationAuditEveryKernel) {
  // Every statement of every handler of every example kernel, mutated in
  // turn. The inserted no-op self-assignment lands *inside whatever
  // branch arm the statement occupies*, so the sweep covers every
  // symbolic path: edits to paths a proof entered must re-verify, edits
  // confined to paths it never entered must reuse — and either way the
  // final verdict set equals a from-scratch run byte for byte.
  for (const kernels::KernelDef *K : kernels::all()) {
    ProgramPtr P1 = kernels::load(*K);
    if (P1->StateVars.empty())
      continue; // the no-op statement needs a variable to re-assign
    const std::string Var = P1->StateVars.front().Name;
    std::vector<size_t> Stmts = statementPositions(K->Source);
    ASSERT_FALSE(Stmts.empty()) << K->Name;
    for (size_t S = 0; S < Stmts.size(); ++S) {
      std::string Src2 = mutateAtStatement(K->Source, Stmts[S], Var);
      ProgramPtr P2 = mustLoad(Src2);
      ASSERT_NE(P2, nullptr) << K->Name << " stmt " << S;
      expectStatementAuditClean(
          *P1, *P2, VerifyOptions{},
          std::string(K->Name) + " stmt " + std::to_string(S));
    }
  }
}

TEST(FootprintStmt, PerStatementMutationAuditAcrossEngines) {
  // The per-path reuse rule must be engine-agnostic: PDR and portfolio
  // verdicts reuse (or re-verify) under exactly the same footprint
  // discipline as induction, and their certificates survive the
  // byte-identity bar too. Swept on the branch-heaviest paper kernel.
  const kernels::KernelDef &K = kernels::ssh();
  ProgramPtr P1 = kernels::load(K);
  const std::string Var = P1->StateVars.front().Name;
  std::vector<size_t> Stmts = statementPositions(K.Source);
  ASSERT_FALSE(Stmts.empty());
  for (EngineKind Eng :
       {EngineKind::Induction, EngineKind::Pdr, EngineKind::Portfolio}) {
    VerifyOptions Opts;
    Opts.Engine = Eng;
    for (size_t S = 0; S < Stmts.size(); ++S) {
      std::string Src2 = mutateAtStatement(K.Source, Stmts[S], Var);
      ProgramPtr P2 = mustLoad(Src2);
      ASSERT_NE(P2, nullptr) << engineKindName(Eng) << " stmt " << S;
      expectStatementAuditClean(*P1, *P2, Opts,
                                std::string(engineKindName(Eng)) + " stmt " +
                                    std::to_string(S));
    }
  }
}

TEST(FootprintStmt, BranchLeafEditNeedsExactlyThePathRule) {
  // The per-leaf branch kernel is the workload the per-path rule exists
  // for: each Gated_L proof enters exactly leaf L of the probe handler,
  // so editing one leaf's stamped literal must re-verify exactly that
  // leaf's property — every other Gated proof survives only through the
  // per-path rule (the handler's whole-summary fingerprint DID change),
  // which is what Report.PathHits counts.
  const unsigned Depth = 3, Leaves = 1u << Depth;
  std::string Src1 = kernels::syntheticBranchKernel(Depth, true);
  ProgramPtr P1 = mustLoad(Src1);
  ASSERT_NE(P1, nullptr);

  const unsigned EditLeaf = Leaves / 2;
  std::string Needle = "scratch = " + std::to_string(EditLeaf) + ";";
  size_t Pos = Src1.find(Needle);
  ASSERT_NE(Pos, std::string::npos);
  std::string Src2 = Src1;
  Src2.replace(Pos, Needle.size(),
               "scratch = " + std::to_string(9000 + EditLeaf) + ";");
  ProgramPtr P2 = mustLoad(Src2);
  ASSERT_NE(P2, nullptr);

  IncrementalVerifier IV;
  IV.setAuditReuse(true);
  IV.verify(*P1);
  auto Out = IV.verify(*P2);
  EXPECT_EQ(Out.Reverified, 1u) << "exactly the edited leaf's property";
  EXPECT_EQ(Out.Reused, unsigned(P2->Properties.size()) - 1);
  EXPECT_EQ(Out.Report.PathHits, uint64_t(Leaves - 1))
      << "every surviving Gated proof needed the per-path rule";
  EXPECT_EQ(Out.AuditFailures, 0u);
  for (const std::string &Err : Out.AuditErrors)
    ADD_FAILURE() << Err;

  VerificationReport Fresh = verifyProgram(*P2);
  ASSERT_EQ(Out.Report.Results.size(), Fresh.Results.size());
  for (size_t I = 0; I < Fresh.Results.size(); ++I) {
    EXPECT_EQ(Out.Report.Results[I].Status, Fresh.Results[I].Status)
        << Fresh.Results[I].Name;
    EXPECT_EQ(Out.Report.Results[I].CertJson, Fresh.Results[I].CertJson)
        << Fresh.Results[I].Name;
  }

  // Handler-granular baseline on the same edit: the probe handler's
  // summary changed, so every proof that consulted it re-verifies.
  IncrementalVerifier Handler;
  Handler.setPathGranularity(false);
  Handler.verify(*P1);
  auto Base = Handler.verify(*P2);
  EXPECT_GT(Base.Reverified, Out.Reverified)
      << "the per-path rule must beat the handler-level rule here";
  EXPECT_EQ(Base.Report.PathHits, 0u);
}

//===----------------------------------------------------------------------===//
// Cache entry migration: v2 -> v3
//===----------------------------------------------------------------------===//

class TempDir {
public:
  explicit TempDir(const std::string &Tag)
      : Path(fs::temp_directory_path() /
             ("reflex-" + Tag + "-" + std::to_string(::getpid()))) {
    fs::remove_all(Path);
  }
  ~TempDir() {
    std::error_code EC;
    fs::remove_all(Path, EC);
  }
  std::string str() const { return Path.string(); }

private:
  fs::path Path;
};

std::string readAll(const std::string &Path) {
  std::ifstream In(Path, std::ios::binary);
  std::stringstream SS;
  SS << In.rdbuf();
  return SS.str();
}

void writeAll(const std::string &Path, const std::string &Data) {
  std::ofstream Out(Path, std::ios::trunc | std::ios::binary);
  Out << Data;
}

/// The version field a current binary writes into every entry.
std::string currentVersionField() {
  return "\"version\":" + std::to_string(ProofCache::EntryVersion);
}

/// Rewrites a freshly stored current entry into the shape a v2 binary
/// wrote: version 2, no "path_fps" field. Aborts the test on unexpected
/// shape.
std::string downgradeToV2(const std::string &Entry) {
  std::string Out = Entry;
  size_t V = Out.find(currentVersionField());
  EXPECT_NE(V, std::string::npos);
  if (V == std::string::npos)
    return Out;
  Out.replace(V, currentVersionField().size(), "\"version\":2");
  size_t PF = Out.find(",\"path_fps\":");
  if (PF != std::string::npos) {
    // Drop the whole field: scan the value with a bracket depth counter
    // (fingerprints and path ids contain no brackets, so no string
    // escapes to worry about).
    size_t I = Out.find(':', PF) + 1;
    int Depth = 0;
    do {
      if (Out[I] == '[' || Out[I] == '{')
        ++Depth;
      else if (Out[I] == ']' || Out[I] == '}')
        --Depth;
      ++I;
    } while (Depth > 0 && I < Out.size());
    Out.erase(PF, I - PF);
  }
  return Out;
}

TEST(FootprintStmt, CacheV2EntryMigratesAsPlainMiss) {
  // A v2-shaped entry (older binary, handler-granular era) under a
  // current binary: a *stale* entry, not a damaged one. Contract: plain
  // miss — never quarantined, never counted rejected, and above all never
  // served — then overwritten in place by the re-verification's current
  // entry, which serves normally from then on.
  TempDir Dir("cache-v2-migration");
  ProgramPtr P = mustLoad(std::string(kernels::ssh().Source));
  ASSERT_NE(P, nullptr);
  ProgramFingerprints FP = ProgramFingerprints::compute(*P);
  const Property &Prop = P->Properties.front();
  std::string Key = ProofCache::keyFor(FP.DeclFp, Prop, VerifyOptions{});
  std::string EntryPath = Dir.str() + "/" + Key + ".json";

  {
    Result<std::unique_ptr<ProofCache>> C = ProofCache::open(Dir.str());
    ASSERT_TRUE(C.ok()) << C.error();
    std::unique_ptr<ProofCache> Cache = C.take();
    {
      VerifySession S(*P);
      PropertyResult R = verifyPropertyCached(S, Prop, Cache.get(), &FP);
      ASSERT_EQ(R.Status, VerifyStatus::Proved);
    }
    std::string Entry = readAll(EntryPath);
    ASSERT_NE(Entry.find(currentVersionField()), std::string::npos);
    writeAll(EntryPath, downgradeToV2(Entry));
  }

  // Fresh cache handle, as after a binary upgrade.
  Result<std::unique_ptr<ProofCache>> C = ProofCache::open(Dir.str());
  ASSERT_TRUE(C.ok()) << C.error();
  std::unique_ptr<ProofCache> Cache = C.take();
  {
    VerifySession S(*P);
    PropertyResult R = verifyPropertyCached(S, Prop, Cache.get(), &FP);
    EXPECT_EQ(R.Status, VerifyStatus::Proved);
    EXPECT_FALSE(R.CacheHit) << "a stale entry must never be served";
    EXPECT_TRUE(R.CertChecked);
  }
  EXPECT_EQ(Cache->stats().Quarantined, 0u)
      << "stale is not damage: nothing to preserve as evidence";
  EXPECT_EQ(Cache->stats().Rejected, 0u);
  EXPECT_FALSE(
      fs::exists(fs::path(Dir.str()) / "quarantine" / (Key + ".json")));
  EXPECT_NE(readAll(EntryPath).find(currentVersionField()), std::string::npos)
      << "re-verification overwrites the stale entry in place";

  // The migrated entry serves normally.
  VerifySession S(*P);
  PropertyResult R = verifyPropertyCached(S, Prop, Cache.get(), &FP);
  EXPECT_TRUE(R.CacheHit);
  EXPECT_TRUE(R.CertChecked);
}

} // namespace
} // namespace reflex
