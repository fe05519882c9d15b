//===- daemon/protocol.cc - reflexd wire protocol ---------------*- C++ -*-===//

#include "daemon/protocol.h"

#include <cmath>

namespace reflex {

namespace {

/// Reads an optional non-negative integer option; errors on junk (a
/// string, a negative, a fraction) rather than guessing.
Result<uint64_t> numField(const JsonValue &Obj, std::string_view Key,
                          uint64_t Default) {
  const JsonValue *V = Obj.get(Key);
  if (!V)
    return Default;
  if (!V->isNumber() || V->numberValue() < 0 ||
      V->numberValue() != std::floor(V->numberValue()))
    return Error("option '" + std::string(Key) +
                 "' needs a non-negative integer");
  return uint64_t(V->numberValue());
}

Result<bool> boolField(const JsonValue &Obj, std::string_view Key,
                       bool Default) {
  const JsonValue *V = Obj.get(Key);
  if (!V)
    return Default;
  if (!V->isBool())
    return Error("option '" + std::string(Key) + "' needs a boolean");
  return V->boolValue();
}

Result<std::string> strField(const JsonValue &Obj, std::string_view Key) {
  const JsonValue *V = Obj.get(Key);
  if (!V)
    return std::string();
  if (!V->isString())
    return Error("field '" + std::string(Key) + "' needs a string");
  return V->stringValue();
}

} // namespace

Result<DaemonRequest> decodeDaemonRequest(const std::string &Frame) {
  Result<JsonValue> Doc = parseJson(Frame);
  if (!Doc.ok())
    return Error("malformed request frame: " + Doc.error());
  if (!Doc->isObject())
    return Error("request frame must be a JSON object");

  DaemonRequest R;
  Result<std::string> Verb = strField(*Doc, "verb");
  if (!Verb.ok())
    return Error(Verb.error());
  R.Verb = *Verb;
  if (R.Verb.empty())
    return Error("request frame is missing its 'verb'");

  Result<std::string> Session = strField(*Doc, "session");
  if (!Session.ok())
    return Error(Session.error());
  R.Session = *Session;
  Result<std::string> Prog = strField(*Doc, "program");
  if (!Prog.ok())
    return Error(Prog.error());
  R.ProgramText = *Prog;
  Result<std::string> Path = strField(*Doc, "path");
  if (!Path.ok())
    return Error(Path.error());
  R.ProgramPath = *Path;

  const JsonValue *Opts = Doc->get("options");
  if (!Opts)
    return R;
  if (!Opts->isObject())
    return Error("'options' must be an object");

  // The exact flag→VerifyOptions mapping cmdVerify uses; keeping them in
  // lockstep is what makes daemon verdicts byte-identical to the CLI.
  auto Num = [&](std::string_view K, uint64_t Def) {
    return numField(*Opts, K, Def);
  };
  auto Flag = [&](std::string_view K) { return boolField(*Opts, K, false); };
#define REFLEX_NUM(Dest, Key, Def)                                           \
  do {                                                                       \
    Result<uint64_t> V = Num(Key, Def);                                      \
    if (!V.ok())                                                             \
      return Error(V.error());                                               \
    Dest = *V;                                                               \
  } while (0)
#define REFLEX_FLAG(Dest, Key, Invert)                                       \
  do {                                                                       \
    Result<bool> V = Flag(Key);                                              \
    if (!V.ok())                                                             \
      return Error(V.error());                                               \
    Dest = Invert ? !*V : *V;                                                \
  } while (0)
  uint64_t Tmp = 0;
  REFLEX_NUM(Tmp, "jobs", 0);
  R.Jobs = unsigned(Tmp);
  REFLEX_NUM(Tmp, "retries", 0);
  R.Retries = unsigned(Tmp);
  REFLEX_NUM(Tmp, "bmc_depth", 0);
  R.Verify.BmcDepthOnUnknown = size_t(Tmp);
  REFLEX_NUM(Tmp, "bmc_states", BmcOptions().MaxStates);
  R.Verify.Bmc.MaxStates = size_t(Tmp);
  REFLEX_NUM(Tmp, "bmc_payloads", BmcOptions().MaxPayloadsPerMessage);
  R.Verify.Bmc.MaxPayloadsPerMessage = size_t(Tmp);
  REFLEX_NUM(R.Verify.TimeoutMillis, "timeout_ms", 0);
  REFLEX_NUM(R.Verify.StepBudget, "step_budget", 0);
  REFLEX_FLAG(R.Verify.SyntacticSkip, "no_skip", true);
  REFLEX_FLAG(R.Verify.Simplify, "no_simplify", true);
  REFLEX_FLAG(R.Verify.CacheInvariants, "no_cache", true);
  REFLEX_FLAG(R.Verify.CheckCertificates, "no_check", true);
  REFLEX_FLAG(R.SharedCaches, "no_share", true);
  REFLEX_FLAG(R.UseProofCache, "no_proof_cache", true);
#undef REFLEX_NUM
#undef REFLEX_FLAG
  Result<std::string> Engine = strField(*Opts, "engine");
  if (!Engine.ok())
    return Error(Engine.error());
  if (std::optional<EngineKind> K = parseEngineKind(*Engine))
    R.Verify.Engine = *K;
  else
    return Error("option 'engine' must be induction, pdr, or portfolio");
  return R;
}

void writePropertyResult(JsonWriter &W, const PropertyResult &R) {
  W.beginObject();
  W.field("name", R.Name);
  W.field("status", verifyStatusName(R.Status));
  if (R.Status != VerifyStatus::Proved)
    W.field("reason", R.Reason);
  W.key("millis");
  W.value(R.Millis);
  if (R.Status == VerifyStatus::Proved) {
    W.field("cert_checked", R.CertChecked);
    if (!R.CertJson.empty()) {
      // The exported certificate is itself JSON; splice it in verbatim so
      // clients read response.results[i].cert as a document, not as an
      // escaped string to parse a second time.
      W.key("cert");
      W.rawValue(R.CertJson);
    }
  }
  if (R.CacheHit)
    W.field("cache_hit", true);
  if (R.FootprintHit)
    W.field("footprint_hit", true);
  if (R.Attempts > 1)
    W.field("attempts", int64_t(R.Attempts));
  if (!R.ServedBy.empty())
    W.field("engine", R.ServedBy);
  W.endObject();
}

void writeReportResults(JsonWriter &W, const VerificationReport &Rep) {
  W.field("program", Rep.ProgramName);
  W.key("results");
  W.beginArray();
  for (const PropertyResult &R : Rep.Results)
    writePropertyResult(W, R);
  W.endArray();
  W.field("proved", int64_t(Rep.provedCount()));
  W.field("properties", int64_t(Rep.Results.size()));
  W.key("total_millis");
  W.value(Rep.TotalMillis);
  if (Rep.ProofCacheHits || Rep.ProofCacheMisses) {
    W.field("proof_cache_hits", int64_t(Rep.ProofCacheHits));
    W.field("proof_cache_misses", int64_t(Rep.ProofCacheMisses));
  }
  if (Rep.FootprintHits)
    W.field("footprint_hits", int64_t(Rep.FootprintHits));
  if (Rep.PathHits || Rep.PathFallbacks) {
    W.field("path_hits", int64_t(Rep.PathHits));
    W.field("path_fallbacks", int64_t(Rep.PathFallbacks));
  }
}

std::string encodeDaemonError(const std::string &Msg) {
  JsonWriter W;
  W.beginObject();
  W.field("ok", false);
  W.field("error", Msg);
  W.endObject();
  return W.take();
}

std::string encodeDaemonOverloaded(uint64_t RetryAfterMs) {
  JsonWriter W;
  W.beginObject();
  W.field("ok", false);
  W.field("error", "daemon overloaded; retry after backoff");
  W.field("overloaded", true);
  W.field("retry_after_ms", int64_t(RetryAfterMs));
  W.endObject();
  return W.take();
}

std::string encodeOpenSessionFrame(const DaemonRequest &R,
                                   const std::string &Source) {
  JsonWriter W;
  W.beginObject();
  W.field("verb", "open-session");
  W.field("session", R.Session);
  W.field("program", Source);
  W.key("options");
  W.beginObject();
  // Every key decodeDaemonRequest reads, spelled explicitly — absent-key
  // defaults never enter the round trip, so a default that later changes
  // cannot silently re-interpret an old journal.
  W.field("jobs", int64_t(R.Jobs));
  W.field("retries", int64_t(R.Retries));
  W.field("bmc_depth", int64_t(R.Verify.BmcDepthOnUnknown));
  W.field("bmc_states", int64_t(R.Verify.Bmc.MaxStates));
  W.field("bmc_payloads", int64_t(R.Verify.Bmc.MaxPayloadsPerMessage));
  W.field("timeout_ms", int64_t(R.Verify.TimeoutMillis));
  W.field("step_budget", int64_t(R.Verify.StepBudget));
  W.field("no_skip", !R.Verify.SyntacticSkip);
  W.field("no_simplify", !R.Verify.Simplify);
  W.field("no_cache", !R.Verify.CacheInvariants);
  W.field("no_check", !R.Verify.CheckCertificates);
  W.field("no_share", !R.SharedCaches);
  W.field("no_proof_cache", !R.UseProofCache);
  W.field("engine", engineKindName(R.Verify.Engine));
  W.endObject();
  W.endObject();
  return W.take();
}

} // namespace reflex
