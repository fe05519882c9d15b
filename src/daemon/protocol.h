//===- daemon/protocol.h - reflexd wire protocol ----------------*- C++ -*-===//
//
// Part of the Reflex/C++ reproduction of "Automating Formal Proofs for
// Reactive Systems" (PLDI 2014).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The reflexd wire protocol (docs/DAEMON.md): newline-delimited JSON
/// over a Unix-domain stream socket. One request frame, one response
/// frame, in order; a client may pipeline. Every request is an object
/// with a "verb" plus verb-specific fields; every response is an object
/// with "ok" (true/false) — errors are structured frames, never closed
/// connections, except for an oversized frame (the stream cannot be
/// resynchronized past it).
///
/// Requests:
///
///   {"verb":"verify", "program":SOURCE | "path":FILE, "options":{...}}
///   {"verb":"open-session","session":NAME,"program":...,"options":{...}}
///   {"verb":"edit","session":NAME,"program":SOURCE}
///   {"verb":"close-session","session":NAME}
///   {"verb":"stats"} {"verb":"cache-gc"} {"verb":"ping"}
///   {"verb":"shutdown"}
///
/// The "options" object mirrors the `reflex verify` flags one-to-one
/// (same keys modulo `--` and `-`→`_`): jobs, retries, bmc_depth,
/// timeout_ms, step_budget, no_skip, no_simplify, no_cache, no_check,
/// engine, plus no_proof_cache (skip the daemon's persistent cache for
/// this request/session). Unknown option keys are ignored, so journals
/// and clients from older daemons, which also sent keys of since-retired
/// flags, still recover and decode. Because the mapping is shared with
/// the CLI's semantics, daemon verdicts are byte-identical to one-shot
/// `reflex verify` runs — the determinism contract (verdict =
/// f(program, property, options)) holds across the wire.
/// bmc_states / bmc_payloads carry the counterexample-search resource
/// limits (VerifyOptions::Bmc), defaulting to BmcOptions' own defaults;
/// wide-alphabet clients (the generated corpus) shrink bmc_payloads so
/// a shallow bound completes under the state cap.
///
//===----------------------------------------------------------------------===//

#ifndef REFLEX_DAEMON_PROTOCOL_H
#define REFLEX_DAEMON_PROTOCOL_H

#include "support/json.h"
#include "support/result.h"
#include "verify/verifier.h"

#include <string>

namespace reflex {

/// Hard cap on one frame's size, both directions. Programs are a few KB;
/// 8 MiB leaves room for certificate-heavy responses while bounding what
/// a hostile peer can make the daemon buffer.
constexpr size_t DaemonMaxFrameBytes = 8u << 20;

/// One decoded request frame.
struct DaemonRequest {
  std::string Verb;
  std::string Session;     ///< session verbs only
  std::string ProgramText; ///< inline source ("program")
  std::string ProgramPath; ///< or a file the daemon reads ("path")
  /// Scheduler knobs (option keys jobs/retries). Jobs 0 means "the
  /// daemon's --jobs default".
  unsigned Jobs = 0;
  unsigned Retries = 0;
  /// Consult the daemon's persistent proof cache (off via no_proof_cache).
  bool UseProofCache = true;
  /// Per-property verification options, mapped exactly as the CLI maps
  /// its flags (see cmdVerify in tools/reflex_cli.cc).
  VerifyOptions Verify;
};

/// Parses one request frame. Errors on malformed JSON, a non-object
/// document, a missing/empty verb, or wrongly-typed fields; unknown
/// verbs are *not* rejected here (the daemon answers those with a
/// structured error naming the verb).
Result<DaemonRequest> decodeDaemonRequest(const std::string &Frame);

/// Serializes one property verdict as the protocol's result object:
/// name, status, reason (non-proved), millis, cert/cache provenance
/// flags, and — for proved properties — the certificate JSON embedded
/// verbatim under "cert" (it is already JSON; re-escaping it as a string
/// would force clients to double-parse).
void writePropertyResult(JsonWriter &W, const PropertyResult &R);

/// Serializes a report's verdicts ("results" array) plus the aggregate
/// counters shared by verify/open-session/edit responses.
void writeReportResults(JsonWriter &W, const VerificationReport &Rep);

/// A complete error response frame: {"ok":false,"error":MSG}.
std::string encodeDaemonError(const std::string &Msg);

/// The overload-shedding response: {"ok":false, "error":...,
/// "overloaded":true, "retry_after_ms":N}. Clients distinguish it from a
/// hard failure by the "overloaded" flag and back off (with jitter) at
/// least the hinted interval before retrying — the request was never
/// admitted, so retrying is always safe.
std::string encodeDaemonOverloaded(uint64_t RetryAfterMs);

/// Renders \p R back into a complete open-session request frame with the
/// program source inlined (\p Source) and every option spelled out with
/// the exact keys decodeDaemonRequest reads. The round trip
/// decode(encode(R)) reproduces R; the daemon journals this frame so
/// crash recovery re-opens sessions under byte-identical options.
std::string encodeOpenSessionFrame(const DaemonRequest &R,
                                   const std::string &Source);

} // namespace reflex

#endif // REFLEX_DAEMON_PROTOCOL_H
