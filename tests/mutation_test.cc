//===- tests/mutation_test.cc - §6.3: bug injection -------------*- C++ -*-===//
//
// The automation-catches-bugs story as a test: guard removals, wrong
// recipients, and dropped flag updates in the benchmark kernels must flip
// the affected property from Proved to not-Proved — the prover must never
// certify a mutant — and the BMC must produce a genuine counterexample
// for the false trace properties.
//
//===----------------------------------------------------------------------===//

#include "kernels/kernels.h"
#include "test_util.h"

namespace reflex {
namespace {

struct Mutation {
  const char *Kernel;
  const char *Find;
  const char *Replace;
  const char *Property;
  size_t BmcDepth; // 0: NI property, no single-trace counterexample
};

// Prints a parameter by kernel and property rather than as raw bytes (its
// string pointers), so the listed test names are the same on every build.
void PrintTo(const Mutation &M, std::ostream *OS) {
  *OS << M.Kernel << "/" << M.Property;
}

class MutationTest : public ::testing::TestWithParam<Mutation> {};

TEST_P(MutationTest, MutantRejectedAndRefuted) {
  const Mutation &M = GetParam();
  const kernels::KernelDef *K = nullptr;
  for (const kernels::KernelDef *Cand : kernels::all())
    if (Cand->Name == M.Kernel)
      K = Cand;
  ASSERT_NE(K, nullptr);

  std::string Source = K->Source;
  size_t Pos = Source.find(M.Find);
  ASSERT_NE(Pos, std::string::npos) << "mutation pattern not found";
  Source.replace(Pos, std::string(M.Find).size(), M.Replace);

  ProgramPtr P = mustLoad(Source);
  ASSERT_NE(P, nullptr);

  // The healthy kernel proves the property...
  ProgramPtr Healthy = kernels::load(*K);
  EXPECT_EQ(verifyOne(*Healthy, M.Property).Status, VerifyStatus::Proved);

  // ...the mutant must not — under any proof engine. PDR and the
  // portfolio search a different invariant space than induction, so each
  // gets its own chance to wrongly certify the bug.
  PropertyResult R = verifyOne(*P, M.Property);
  EXPECT_NE(R.Status, VerifyStatus::Proved) << "prover certified a bug!";
  for (EngineKind Kind :
       {EngineKind::Pdr, EngineKind::Portfolio}) {
    VerifyOptions O;
    O.Engine = Kind;
    PropertyResult ER = verifyOne(*P, M.Property, O);
    EXPECT_NE(ER.Status, VerifyStatus::Proved)
        << engineKindName(Kind) << " certified a bug!";
  }
  // The portfolio is never weaker than induction: the healthy kernel
  // stays proved. (PDR alone may honestly return Unknown here — that
  // one-sidedness is exactly why the portfolio exists.)
  VerifyOptions Port;
  Port.Engine = EngineKind::Portfolio;
  EXPECT_EQ(verifyOne(*Healthy, M.Property, Port).Status,
            VerifyStatus::Proved);

  if (M.BmcDepth > 0) {
    BmcOptions Opts;
    Opts.MaxDepth = M.BmcDepth + 1;
    BmcResult B = bmcSearch(*P, *P->findProperty(M.Property), Opts);
    ASSERT_TRUE(B.Violated) << "no counterexample at depth " << M.BmcDepth;
    // The counterexample genuinely violates the reference semantics.
    EXPECT_TRUE(checkTraceProperty(B.Counterexample,
                                   P->findProperty(M.Property)->traceProp())
                    .has_value());
  }
}

INSTANTIATE_TEST_SUITE_P(
    InjectedBugs, MutationTest,
    ::testing::Values(
        Mutation{"ssh",
                 "if (auth_ok && user == auth_user) {\n    send(T, "
                 "CreatePty(user));\n  }",
                 "send(T, CreatePty(user));", "AuthBeforeTerm", 1},
        Mutation{"ssh", "attempts = 1;", "attempts = 0;",
                 "FirstAttemptDisablesItself", 2},
        Mutation{"car", "crashed = true;", "nop;", "NoLockAfterCrash", 2},
        Mutation{"car",
                 "send(A, Deploy());\n  send(D, DoorsMsg(\"unlock\"));",
                 "send(D, DoorsMsg(\"unlock\"));\n  send(A, Deploy());",
                 "AirbagsImmediatelyAfterCrash", 1},
        Mutation{"browser",
                 "lookup CookieProc(domain == sender.domain) as cp {\n    "
                 "send(cp, CookieSet(sender.domain, k, v));",
                 "lookup CookieProc() as cp {\n    send(cp, "
                 "CookieSet(sender.domain, k, v));",
                 "CookiesStayInDomain", 3},
        Mutation{"browser",
                 "lookup Tab(domain == sender.domain) as t {\n    send(t, "
                 "DeliverCookie(k, v));",
                 "lookup Tab() as t {\n    send(t, DeliverCookie(k, v));",
                 "DomainNonInterference", 0},
        Mutation{"webserver",
                 "handler Listener => Connect(user, pass) {\n  send(ACL, "
                 "CheckCred(user, pass));\n}",
                 "handler Listener => Connect(user, pass) {\n  nc <- spawn "
                 "Client(user);\n  send(ACL, CheckCred(user, pass));\n}",
                 "ClientOnlySpawnedOnLogin", 1},
        Mutation{"browser3", "high vars: focus;", "high vars: ;",
                 "DomainNonInterference", 0}),
    [](const ::testing::TestParamInfo<Mutation> &Info) {
      return std::string(Info.param.Kernel) + "_" +
             std::to_string(Info.index);
    });

} // namespace
} // namespace reflex
