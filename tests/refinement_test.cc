//===- tests/refinement_test.cc - Property-based refinement -----*- C++ -*-===//
//
// The dynamic counterpart of Figure 1's once-and-for-all theorem, checked
// property-based-style across all kernels and many random schedules:
//
//  (1) every trace the interpreter produces is included in the
//      behavioral abstraction (interp ⊑ BehAbs), and
//  (2) every trace satisfies every *proved* trace property (the
//      end-to-end guarantee: prover verdicts transfer to real runs).
//
// Scheduling is the nondeterminism being swept: each seed yields a
// different interleaving of component requests.
//
//===----------------------------------------------------------------------===//

#include "kernels/kernels.h"
#include "test_util.h"
#include "verify/absreplay.h"

namespace reflex {
namespace kernels {

// Prints the kernel of a Refinement parameter by name rather than by
// address, so the listed test names are the same on every build.
void PrintTo(const KernelDef *K, std::ostream *OS) { *OS << K->Name; }

} // namespace kernels

namespace {

using RefinementParam = std::tuple<const kernels::KernelDef *, uint64_t>;

class Refinement : public ::testing::TestWithParam<RefinementParam> {};

TEST_P(Refinement, TraceIncludedInBehAbsAndSatisfiesProvedProperties) {
  const auto &[K, Seed] = GetParam();
  ProgramPtr P = kernels::load(*K);

  Runtime Rt(*P, K->MakeScripts(), K->MakeCalls(), Seed);
  Rt.start();
  Rt.run(2000);
  const Trace &Tr = Rt.trace();
  ASSERT_FALSE(Tr.Actions.empty());

  // (1) Inclusion in the abstraction.
  TermContext Ctx;
  BehAbs Abs = buildBehAbs(Ctx, *P);
  ReplayResult Replay = replayTrace(Ctx, *P, Abs, Tr);
  EXPECT_TRUE(Replay.Included) << K->Name << " seed " << Seed << ": "
                               << Replay.Why;

  // (2) Every proved trace property holds on the concrete trace.
  VerifySession Session(*P);
  for (const Property &Prop : P->Properties) {
    if (!Prop.isTrace())
      continue;
    PropertyResult R = Session.verify(Prop);
    ASSERT_EQ(R.Status, VerifyStatus::Proved) << Prop.Name;
    auto V = checkTraceProperty(Tr, Prop.traceProp());
    EXPECT_FALSE(V.has_value())
        << K->Name << " seed " << Seed << " property " << Prop.Name << ": "
        << (V ? V->Explanation : "");
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllKernelsManySeeds, Refinement,
    ::testing::Combine(::testing::ValuesIn(kernels::all()),
                       ::testing::Values(1u, 7u, 42u, 1234u, 987654321u)),
    [](const ::testing::TestParamInfo<RefinementParam> &Info) {
      return std::get<0>(Info.param)->Name + "_seed" +
             std::to_string(std::get<1>(Info.param));
    });

// Prefix-closure: every prefix ending at an exchange boundary is itself a
// reachable trace and must satisfy the proved properties too (BehAbs is a
// predicate on all reachable states, not just quiescent ones).
TEST(RefinementPrefixes, SshPrefixesSatisfyProperties) {
  const kernels::KernelDef &K = kernels::ssh();
  ProgramPtr P = kernels::load(K);
  Runtime Rt(*P, K.MakeScripts(), K.MakeCalls(), 5);
  Rt.enableMonitor(); // the monitor checks after every exchange
  Rt.start();
  Rt.run(2000);
  EXPECT_FALSE(Rt.lastViolation().has_value())
      << Rt.lastViolation()->Explanation;
}

} // namespace
} // namespace reflex
