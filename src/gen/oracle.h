//===- gen/oracle.h - Differential corpus oracle ----------------*- C++ -*-===//
//
// Part of the Reflex/C++ reproduction of "Automating Formal Proofs for
// Reactive Systems" (PLDI 2014).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The differential harness over a generated corpus, cross-checking every
/// independent semantic layer the repo has against the generator's
/// construction arguments — COGENT-style: any disagreement is a bug in
/// the generator or in an engine, and the report says which layer saw it.
///
/// Per instance, four arms:
///
///  1. verdicts — verify the corpus (sequential, fresh session) and
///     compare every property's status against the expected verdict;
///     Proved results must carry checker-validated certificates, Refuted
///     results a concrete counterexample trace.
///  2. counterexamples — each Refuted counterexample must actually
///     violate the property under the concrete reference semantics
///     (prop/check.h) AND replay into the program's behavioral
///     abstraction (the CE is a real trace, not a prover artifact).
///  3. interpreter — seeded runtime drives (gen::corpusScripts) produce
///     concrete traces; every trace must replay into the abstraction,
///     and every property the prover certified must hold on it (the
///     end-to-end refinement guarantee on machine-made programs).
///  4. parity — the whole corpus re-verified across engines × jobs ×
///     sharing × cache states; statuses and reasons must be
///     byte-identical across jobs/sharing/cache (the determinism
///     contract), statuses identical under the portfolio (induction runs
///     first in it, so every baseline verdict must land), and
///     standalone PDR must never *contradict* the baseline (it may
///     answer Unknown on these history obligations — see docs/CORPUS.md
///     — but a definite disagreeing verdict is a soundness bug).
///
/// Shared by `reflex gen --check`, tests/corpus_diff_test.cc, and the
/// zero-mismatch gate of bench/bench_corpus.
///
//===----------------------------------------------------------------------===//

#ifndef REFLEX_GEN_ORACLE_H
#define REFLEX_GEN_ORACLE_H

#include "gen/generator.h"

#include <cstddef>
#include <string>
#include <vector>

namespace reflex {
namespace gen {

struct OracleOptions {
  /// Worker count of the parallel parity arms.
  unsigned Jobs = 4;
  /// Seeded interpreter runs per instance (0 disables arm 3).
  unsigned InterpRuns = 2;
  /// Max exchanges per interpreter run.
  size_t InterpSteps = 400;
  /// Base seed for the interpreter drivers.
  uint64_t InterpSeed = 0x5EEDF00D;
  /// Arm 4: re-verify under PDR and the portfolio (status parity).
  bool CrossEngines = true;
  /// Arm 4: re-verify across jobs/sharing/cache-state (byte parity).
  bool CrossSchedulers = true;
  /// Directory for the cache-state parity arm's throwaway proof cache;
  /// empty picks a fresh directory under the system temp dir. Removed
  /// afterwards.
  std::string CacheDir;
};

struct OracleMismatch {
  std::string Instance;
  std::string Property; ///< Empty for instance-level failures.
  /// Which arm disagreed: "verdict", "certificate", "counterexample",
  /// "replay", "trace-property", "parity", "manifest", "cache".
  std::string Kind;
  std::string Detail;
};

struct OracleReport {
  size_t Instances = 0;
  size_t Properties = 0;
  /// Expected-Proved properties confirmed with a checked certificate.
  size_t ProvedCertChecked = 0;
  /// Expected-Refuted properties confirmed by a violating counterexample.
  size_t RefutedConfirmed = 0;
  /// Expected-Unknown (NI split policies) confirmed.
  size_t UnknownConfirmed = 0;
  /// Interpreter exchanges replayed through the abstraction (arm 3).
  size_t InterpExchanges = 0;
  size_t InterpTraces = 0;
  /// Parity configurations compared against the baseline (arm 4).
  size_t ParityArms = 0;
  std::vector<OracleMismatch> Mismatches;

  bool clean() const { return Mismatches.empty(); }
};

/// Runs all four arms over \p Corpus. Deterministic for a fixed
/// (corpus, options) pair.
OracleReport runOracle(const GeneratedCorpus &Corpus,
                       const OracleOptions &Opts = {});

/// Renders the first \p Max mismatches, one per line (for gate failures).
std::string describeMismatches(const OracleReport &R, size_t Max = 12);

} // namespace gen
} // namespace reflex

#endif // REFLEX_GEN_ORACLE_H
