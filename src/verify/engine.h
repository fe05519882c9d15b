//===- verify/engine.h - Proof-engine selection -----------------*- C++ -*-===//
//
// Part of the Reflex/C++ reproduction of "Automating Formal Proofs for
// Reactive Systems" (PLDI 2014).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The proof-engine abstraction behind `--engine`. The service is a
/// multi-backend prover: the paper's pushbutton induction tactic
/// (verify/prover.h) and a property-directed-reachability engine
/// (verify/pdr.h) both take the same frozen behavioral abstraction and
/// produce certificates validated by the same independent checker.
///
/// Portfolio mode runs both engines per property, in sequence, in one
/// session and under one budget. The verdict is a deterministic,
/// byte-identical function of (program, property, options) — the ROADMAP
/// design decision every cache, parity test, and the daemon lean on —
/// because selection follows a canonical *priority* rule:
///
///   1. induction runs first; if it returns a sound verdict (Proved), or
///      the budget ends the attempt, that result is served and PDR never
///      runs;
///   2. otherwise PDR runs once; if it returns a sound verdict (Proved or
///      a concretely confirmed Refuted) or a budget status, it is served;
///   3. otherwise induction's result is served (its failing obligation is
///      the more actionable diagnostic).
///
/// The served result's Millis covers both legs. Engine choice joins the
/// proof-cache options fingerprint, so entries produced by different
/// engines never shadow each other.
///
//===----------------------------------------------------------------------===//

#ifndef REFLEX_VERIFY_ENGINE_H
#define REFLEX_VERIFY_ENGINE_H

#include <optional>
#include <string>

namespace reflex {

/// Which proof engine(s) a verification run uses for trace properties.
/// Non-interference properties always take the §5.2 NI prover regardless
/// of the selection (neither backend replaces it).
enum class EngineKind : uint8_t {
  /// The paper's induction over BehAbs with guard->history invariant
  /// synthesis (verify/prover.h). The default.
  Induction,
  /// Property-directed reachability over the same abstraction
  /// (verify/pdr.h).
  Pdr,
  /// Both in turn; the first sound verdict in canonical priority order
  /// wins.
  Portfolio,
};

/// "induction", "pdr", "portfolio".
const char *engineKindName(EngineKind K);

/// Inverse of engineKindName; nullopt for anything else. The empty string
/// parses as Induction (wire formats omit the default).
std::optional<EngineKind> parseEngineKind(const std::string &Name);

/// The string PropertyResult::ServedBy records for a verdict produced by
/// \p K as a single engine (portfolio itself never serves a verdict; one
/// of its two member engines does).
const char *servingEngineName(EngineKind K);

} // namespace reflex

#endif // REFLEX_VERIFY_ENGINE_H
