//===- tests/kernels_test.cc - Benchmark integration tests ------*- C++ -*-===//
//
// The headline result as a test: all 41 properties of the seven benchmark
// kernels prove fully automatically with checked certificates (paper
// Figure 6, §6.2), and the property inventory matches the paper row for
// row.
//
//===----------------------------------------------------------------------===//

#include "kernels/kernels.h"
#include "test_util.h"

namespace reflex {
namespace kernels {

// Prints a KernelProofs parameter by name rather than by address, so the
// listed test names are the same on every build.
void PrintTo(const KernelDef *K, std::ostream *OS) { *OS << K->Name; }

} // namespace kernels

namespace {

TEST(Kernels, FortyOnePropertiesTotal) {
  EXPECT_EQ(kernels::totalProperties(), 41u) << "Figure 6 has 41 rows";
  // Per-kernel counts as in the paper.
  std::map<std::string, size_t> Expected{
      {"car", 8},  {"browser", 6}, {"browser2", 7}, {"browser3", 7},
      {"ssh", 5},  {"ssh2", 2},    {"webserver", 6}};
  for (const kernels::KernelDef *K : kernels::all())
    EXPECT_EQ(K->Rows.size(), Expected[K->Name]) << K->Name;
}

TEST(Kernels, EveryRowNamesARealProperty) {
  for (const kernels::KernelDef *K : kernels::all()) {
    ProgramPtr P = kernels::load(*K);
    for (const kernels::PropertyRow &Row : K->Rows) {
      EXPECT_NE(P->findProperty(Row.PropertyName), nullptr)
          << K->Name << "/" << Row.PropertyName;
      EXPECT_GT(Row.PaperSeconds, 0) << "paper time missing";
    }
    // And conversely: every property of the kernel is a Figure 6 row.
    EXPECT_EQ(P->Properties.size(), K->Rows.size()) << K->Name;
  }
}

// The headline: each kernel proves all its properties, pushbutton.
class KernelProofs : public ::testing::TestWithParam<const kernels::KernelDef *> {};

TEST_P(KernelProofs, AllPropertiesProvedWithCheckedCertificates) {
  const kernels::KernelDef *K = GetParam();
  ProgramPtr P = kernels::load(*K);
  VerificationReport R = verifyProgram(*P);
  EXPECT_TRUE(R.allProved());
  for (const PropertyResult &Res : R.Results) {
    EXPECT_EQ(Res.Status, VerifyStatus::Proved)
        << K->Name << "/" << Res.Name << ": " << Res.Reason;
    EXPECT_TRUE(Res.CertChecked) << K->Name << "/" << Res.Name;
    EXPECT_FALSE(Res.Cert.Steps.empty() && Res.Cert.NICases.empty())
        << "certificates are non-trivial";
  }
}

TEST_P(KernelProofs, SimulationRunsCleanUnderMonitor) {
  const kernels::KernelDef *K = GetParam();
  ProgramPtr P = kernels::load(*K);
  Runtime Rt(*P, K->MakeScripts(), K->MakeCalls(), /*Seed=*/1);
  Rt.enableMonitor();
  Rt.start();
  size_t Steps = Rt.run(1000);
  EXPECT_GT(Steps, 0u) << "the scripts must actually drive the kernel";
  EXPECT_FALSE(Rt.lastViolation().has_value())
      << Rt.lastViolation()->Explanation;
}

INSTANTIATE_TEST_SUITE_P(
    AllKernels, KernelProofs, ::testing::ValuesIn(kernels::all()),
    [](const ::testing::TestParamInfo<const kernels::KernelDef *> &Info) {
      return Info.param->Name;
    });

TEST(Kernels, SshSessionEstablishesTerminal) {
  const kernels::KernelDef &K = kernels::ssh();
  ProgramPtr P = kernels::load(K);
  Runtime Rt(*P, K.MakeScripts(), K.MakeCalls(), 42);
  Rt.start();
  Rt.run(100);
  bool TermFd = false;
  unsigned Attempts = 0;
  for (const Action &A : Rt.trace().Actions) {
    TermFd |= A.Kind == Action::Send && A.Msg.Name == "TermFd";
    Attempts += A.Kind == Action::Send && A.Msg.Name == "CheckAuth";
  }
  EXPECT_TRUE(TermFd) << "the scripted session must log in";
  EXPECT_LE(Attempts, 3u) << "the verified limit";
}

TEST(Kernels, BrowserRefusesDuplicateTabAndCrossDomainSocket) {
  const kernels::KernelDef &K = kernels::browser();
  ProgramPtr P = kernels::load(K);
  Runtime Rt(*P, K.MakeScripts(), K.MakeCalls(), 42);
  Rt.start();
  Rt.run(1000);
  unsigned Tabs = 0, Created = 0, SocketReqs = 0, SocketGrants = 0;
  for (const ComponentInstance &C : Rt.trace().Components)
    Tabs += C.TypeName == "Tab";
  for (const Action &A : Rt.trace().Actions) {
    Created += A.Kind == Action::Recv && A.Msg.Name == "CreateTab";
    SocketReqs += A.Kind == Action::Recv && A.Msg.Name == "OpenSocket";
    SocketGrants += A.Kind == Action::Send && A.Msg.Name == "SocketOpen";
  }
  EXPECT_EQ(Created, 3u);
  EXPECT_EQ(Tabs, 2u) << "duplicate id refused";
  EXPECT_EQ(SocketReqs, 4u) << "each tab tries own + cross domain";
  EXPECT_EQ(SocketGrants, 2u) << "only own-domain sockets granted";
}

TEST(Kernels, BrowserNavigationIsSameOrigin) {
  const kernels::KernelDef &K = kernels::browser2();
  ProgramPtr P = kernels::load(K);
  Runtime Rt(*P, K.MakeScripts(), K.MakeCalls(), 42);
  Rt.start();
  Rt.run(1000);
  unsigned NavReqs = 0, Loads = 0;
  for (const Action &A : Rt.trace().Actions) {
    NavReqs += A.Kind == Action::Recv && A.Msg.Name == "Navigate";
    Loads += A.Kind == Action::Send && A.Msg.Name == "LoadUrl";
  }
  EXPECT_EQ(NavReqs, 4u) << "each tab tries own + cross domain";
  EXPECT_EQ(Loads, 2u) << "cross-domain navigations dropped";
}

TEST(Kernels, Ssh2CounterLimitsAttempts) {
  const kernels::KernelDef &K = kernels::ssh2();
  ProgramPtr P = kernels::load(K);
  Runtime Rt(*P, K.MakeScripts(), K.MakeCalls(), 7);
  Rt.start();
  Rt.run(100);
  unsigned Approved = 0, Requested = 0;
  for (const Action &A : Rt.trace().Actions) {
    Requested += A.Kind == Action::Send && A.Msg.Name == "CountReq";
    Approved += A.Kind == Action::Recv && A.Msg.Name == "Approved";
  }
  EXPECT_EQ(Requested, 4u);
  EXPECT_EQ(Approved, 3u) << "counter component enforces the limit";
}

} // namespace
} // namespace reflex
