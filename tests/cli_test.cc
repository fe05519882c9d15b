//===- tests/cli_test.cc - CLI driver integration ---------------*- C++ -*-===//
//
// End-to-end tests of the `reflex` command-line driver: write a .rfx file,
// invoke the binary, check exit codes and output. The binary path is baked
// in by CMake.
//
//===----------------------------------------------------------------------===//

#include <gtest/gtest.h>

#include <array>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>

namespace {

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

const char GoodKernel[] = R"(
program demo;
component Admin "admin.py";
component Door "door.c";
message Grant(str);
message Scan(str);
message Unlock(str);
var granted: str = "";
var armed: bool = false;
init {
  A <- spawn Admin();
  D <- spawn Door();
}
handler Admin => Grant(b) { granted = b; armed = true; }
handler Door => Scan(b) {
  if (armed && b == granted) { send(D, Unlock(b)); }
}
property UnlockNeedsGrant: forall b.
  [Recv(Admin, Grant(b))] Enables [Send(Door, Unlock(b))];
)";

std::string writeTemp(const std::string &Content, const char *Name) {
  std::string Path = std::string(::testing::TempDir()) + Name;
  std::ofstream Out(Path);
  Out << Content;
  return Path;
}

TEST(Cli, VerifyProvedKernelExitsZero) {
  std::string Path = writeTemp(GoodKernel, "good.rfx");
  CliResult R = runCli("verify " + Path);
  EXPECT_EQ(R.ExitCode, 0) << R.Output;
  EXPECT_NE(R.Output.find("Proved"), std::string::npos);
  EXPECT_NE(R.Output.find("cert checked"), std::string::npos);
  EXPECT_NE(R.Output.find("1/1 properties proved"), std::string::npos);
}

TEST(Cli, VerifyBrokenKernelExitsNonZero) {
  std::string Broken(GoodKernel);
  size_t Pos = Broken.find("if (armed && b == granted) { ");
  ASSERT_NE(Pos, std::string::npos);
  Broken.replace(Pos, std::string("if (armed && b == granted) { ").size(),
                 "if (true) { ");
  std::string Path = writeTemp(Broken, "broken.rfx");
  CliResult R = runCli("verify " + Path + " --bmc-depth 2");
  EXPECT_EQ(R.ExitCode, 1) << R.Output;
  EXPECT_NE(R.Output.find("Refuted"), std::string::npos) << R.Output;
  EXPECT_NE(R.Output.find("counterexample"), std::string::npos);
}

TEST(Cli, BmcFindsViolation) {
  std::string Broken(GoodKernel);
  size_t Pos = Broken.find("if (armed && b == granted) { ");
  Broken.replace(Pos, std::string("if (armed && b == granted) { ").size(),
                 "if (true) { ");
  std::string Path = writeTemp(Broken, "broken2.rfx");
  CliResult R =
      runCli("bmc " + Path + " --property UnlockNeedsGrant --depth 2");
  EXPECT_EQ(R.ExitCode, 1);
  EXPECT_NE(R.Output.find("VIOLATION"), std::string::npos) << R.Output;
}

TEST(Cli, RunUnderMonitorIsClean) {
  std::string Path = writeTemp(GoodKernel, "run.rfx");
  CliResult R = runCli("run " + Path + " --steps 50 --quiet --seed 9");
  EXPECT_EQ(R.ExitCode, 0) << R.Output;
  EXPECT_NE(R.Output.find("all declared trace properties held"),
            std::string::npos);
}

TEST(Cli, PrintRoundTrips) {
  std::string Path = writeTemp(GoodKernel, "print.rfx");
  CliResult R = runCli("print " + Path);
  ASSERT_EQ(R.ExitCode, 0);
  // The printed output is itself loadable.
  std::string Path2 = writeTemp(R.Output, "printed.rfx");
  CliResult R2 = runCli("verify " + Path2);
  EXPECT_EQ(R2.ExitCode, 0) << R2.Output;
}

TEST(Cli, JsonReportAndCertsWritten) {
  std::string Path = writeTemp(GoodKernel, "json.rfx");
  std::string Json = std::string(::testing::TempDir()) + "report.json";
  std::string Certs = std::string(::testing::TempDir()) + "certs.json";
  CliResult R =
      runCli("verify " + Path + " --json " + Json + " --certs " + Certs);
  EXPECT_EQ(R.ExitCode, 0) << R.Output;
  std::ifstream JIn(Json);
  std::stringstream JS;
  JS << JIn.rdbuf();
  EXPECT_NE(JS.str().find("\"status\":\"Proved\""), std::string::npos);
  EXPECT_NE(JS.str().find("\"cert_checked\":true"), std::string::npos);
  std::ifstream CIn(Certs);
  std::stringstream CS;
  CS << CIn.rdbuf();
  EXPECT_NE(CS.str().find("\"property\":\"UnlockNeedsGrant\""),
            std::string::npos);
}

TEST(Cli, ParallelJobsAndProofCache) {
  std::string Path = writeTemp(GoodKernel, "jobs.rfx");
  std::string CacheDir = std::string(::testing::TempDir()) + "proofcache";
  std::filesystem::remove_all(CacheDir); // a stale dir would warm the cache

  // Parallel verification with a cold cache: everything misses.
  CliResult Cold =
      runCli("verify " + Path + " --jobs 4 --cache-dir " + CacheDir);
  EXPECT_EQ(Cold.ExitCode, 0) << Cold.Output;
  EXPECT_NE(Cold.Output.find("1/1 properties proved"), std::string::npos);
  EXPECT_NE(Cold.Output.find("proof cache: 0 hits, 1 miss"),
            std::string::npos)
      << Cold.Output;

  // Second run: the verdict comes from the cache, checker re-validated.
  CliResult Warm =
      runCli("verify " + Path + " --jobs 4 --cache-dir " + CacheDir);
  EXPECT_EQ(Warm.ExitCode, 0) << Warm.Output;
  EXPECT_NE(Warm.Output.find("[cached]"), std::string::npos) << Warm.Output;
  EXPECT_NE(Warm.Output.find("cert checked"), std::string::npos);
  EXPECT_NE(Warm.Output.find("proof cache: 1 hit, 0 misses"),
            std::string::npos)
      << Warm.Output;

  // --jobs must not change verdicts: sequential output agrees.
  CliResult Seq = runCli("verify " + Path + " --jobs 1");
  EXPECT_EQ(Seq.ExitCode, 0) << Seq.Output;
  EXPECT_NE(Seq.Output.find("1/1 properties proved"), std::string::npos);

  // An unusable cache directory is a hard error, not silent degradation.
  CliResult Bad = runCli("verify " + Path + " --cache-dir /proc/nope");
  EXPECT_EQ(Bad.ExitCode, 2) << Bad.Output;
}

TEST(Cli, AuditFootprintsReProvesCachedVerdicts) {
  std::string Path = writeTemp(GoodKernel, "audit.rfx");
  std::string CacheDir = std::string(::testing::TempDir()) + "auditcache";
  std::filesystem::remove_all(CacheDir);

  CliResult Cold = runCli("verify " + Path + " --cache-dir " + CacheDir);
  ASSERT_EQ(Cold.ExitCode, 0) << Cold.Output;

  // The warm run serves the verdict from the cache; the audit re-proves
  // it from scratch and must find byte-identical results.
  CliResult Warm = runCli("verify " + Path + " --cache-dir " + CacheDir +
                          " --audit-footprints");
  EXPECT_EQ(Warm.ExitCode, 0) << Warm.Output;
  EXPECT_NE(Warm.Output.find("[cached]"), std::string::npos) << Warm.Output;
  EXPECT_NE(Warm.Output.find(
                "footprint audit: 1 reused verdict re-proved "
                "(0 served path-granularly), 0 mismatches"),
            std::string::npos)
      << Warm.Output;

  // Without reuse there is nothing to audit; the flag is still accepted.
  CliResult NoCache = runCli("verify " + Path + " --audit-footprints");
  EXPECT_EQ(NoCache.ExitCode, 0) << NoCache.Output;
  EXPECT_NE(NoCache.Output.find("0 reused verdicts re-proved"),
            std::string::npos)
      << NoCache.Output;
}

TEST(Cli, InfoReportsInventory) {
  std::string Path = writeTemp(GoodKernel, "info.rfx");
  CliResult R = runCli("info " + Path);
  EXPECT_EQ(R.ExitCode, 0);
  EXPECT_NE(R.Output.find("component types: 2"), std::string::npos);
  EXPECT_NE(R.Output.find("behavioral abstraction"), std::string::npos);
}

TEST(Cli, BadUsage) {
  EXPECT_EQ(runCli("").ExitCode, 2);
  EXPECT_EQ(runCli("frobnicate /nonexistent.rfx").ExitCode, 2);
  std::string Path = writeTemp(GoodKernel, "usage.rfx");
  EXPECT_EQ(runCli("bmc " + Path).ExitCode, 2) << "missing --property";
  EXPECT_EQ(runCli("verify /does/not/exist.rfx").ExitCode, 2);
  CliResult BadNum = runCli("verify " + Path + " --jobs abc");
  EXPECT_EQ(BadNum.ExitCode, 2) << "non-numeric --jobs must not abort";
  EXPECT_NE(BadNum.Output.find("needs a number"), std::string::npos);
}

TEST(Cli, UnknownFlagsAreRejected) {
  // A typo, or a flag that no longer exists, must not silently run
  // another configuration: one error line, exit 2.
  std::string Path = writeTemp(GoodKernel, "unknownflags.rfx");
  for (const char *Flag : {"--no-chek", "--fast-cache"}) {
    CliResult Bad = runCli("verify " + Path + " " + Flag);
    EXPECT_EQ(Bad.ExitCode, 2) << Flag << "\n" << Bad.Output;
    EXPECT_EQ(Bad.Output, "error: unknown option '" + std::string(Flag) +
                              "' for 'verify'\n");
  }
  // Flags are checked per command: --quiet belongs to run, not verify.
  EXPECT_EQ(runCli("verify " + Path + " --quiet").ExitCode, 2);
  EXPECT_EQ(runCli("run " + Path + " --steps 5 --quiet").ExitCode, 0);
}

TEST(Cli, BudgetFlagsRejectNonNumericValues) {
  std::string Path = writeTemp(GoodKernel, "budgetflags.rfx");
  for (const char *Flag :
       {"--timeout-ms", "--step-budget", "--retries", "--fault-seed"}) {
    CliResult Bad = runCli("verify " + Path + " " + Flag + " abc");
    EXPECT_EQ(Bad.ExitCode, 2) << Flag << "\n" << Bad.Output;
    EXPECT_NE(Bad.Output.find("needs a number"), std::string::npos)
        << Flag << "\n" << Bad.Output;
  }
}

TEST(Cli, BudgetExhaustionGetsItsOwnExitCode) {
  std::string Path = writeTemp(GoodKernel, "budget.rfx");

  // A one-step budget cannot prove anything — but that is not a
  // refutation, so the exit code is 3, not 1.
  CliResult Exhausted = runCli("verify " + Path + " --step-budget 1");
  EXPECT_EQ(Exhausted.ExitCode, 3) << Exhausted.Output;
  EXPECT_NE(Exhausted.Output.find("ResourceExhausted"), std::string::npos)
      << Exhausted.Output;
  EXPECT_NE(Exhausted.Output.find("step budget"), std::string::npos)
      << Exhausted.Output;

  // Generous budgets (and retries) change nothing about a proving run.
  CliResult Fine = runCli("verify " + Path +
                          " --timeout-ms 60000 --step-budget 100000000"
                          " --retries 2");
  EXPECT_EQ(Fine.ExitCode, 0) << Fine.Output;
  EXPECT_NE(Fine.Output.find("1/1 properties proved"), std::string::npos);
}

TEST(Cli, FaultSeedRunsToCompletion) {
  std::string Path = writeTemp(GoodKernel, "faultseed.rfx");
  std::string CacheDir = std::string(::testing::TempDir()) + "faultcache";
  std::filesystem::remove_all(CacheDir);
  // Whatever the injected faults do, the run must produce a complete
  // report — never a crash, never a silent partial batch.
  CliResult R = runCli("verify " + Path + " --fault-seed 7 --retries 3" +
                       " --cache-dir " + CacheDir + " --jobs 2");
  EXPECT_NE(R.ExitCode, 2) << R.Output;
  EXPECT_NE(R.Output.find("properties proved"), std::string::npos)
      << R.Output;
  // Same seed, same outcome: fault decisions are deterministic.
  std::filesystem::remove_all(CacheDir);
  CliResult R2 = runCli("verify " + Path + " --fault-seed 7 --retries 3" +
                        " --cache-dir " + CacheDir + " --jobs 2");
  EXPECT_EQ(R.ExitCode, R2.ExitCode);
}

TEST(Cli, SyntaxErrorsRenderDiagnostics) {
  std::string Path = writeTemp("component ;;;", "bad.rfx");
  CliResult R = runCli("verify " + Path);
  EXPECT_EQ(R.ExitCode, 1);
  EXPECT_NE(R.Output.find("error:"), std::string::npos);
}

} // namespace
