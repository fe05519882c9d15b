//===- tests/chaos_test.cc - Crash-safety and overload chaos tests --------===//
//
// The crash-safe daemon under deliberate abuse: torn and tampered
// journals, kill -9 mid-batch, overload shedding, slow-loris clients,
// seeded socket faults, supervised restarts, and the proof cache's
// manifest/quarantine bounds. The invariant everything here defends is
// the determinism contract: whatever the failure, every verdict a
// client actually receives is byte-identical to a cold one-shot run —
// recovery may cost time, never correctness.
//
//===----------------------------------------------------------------------===//

#include "daemon/client.h"
#include "daemon/daemon.h"
#include "daemon/journal.h"
#include "daemon/protocol.h"
#include "daemon/supervisor.h"
#include "kernels/kernels.h"
#include "kernels/synthetic.h"
#include "service/proofcache.h"
#include "service/scheduler.h"
#include "support/faultinject.h"
#include "support/socket.h"
#include "verify/engine.h"
#include "verify/footprint.h"
#include "test_util.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <thread>
#include <vector>

#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

namespace reflex {
namespace {

namespace fs = std::filesystem;

/// AF_UNIX paths must fit sun_path (~107 bytes): short /tmp names.
std::string sockPath(const char *Tag) {
  static std::atomic<unsigned> Counter{0};
  std::string P = "/tmp/rfxc-" + std::to_string(::getpid()) + "-" + Tag +
                  "-" + std::to_string(Counter++) + ".sock";
  ::unlink(P.c_str());
  return P;
}

std::string tempDir(const std::string &Name) {
  std::string P = std::string(::testing::TempDir()) + Name;
  fs::remove_all(P);
  fs::create_directories(P);
  return P;
}

std::string slurp(const std::string &Path) {
  std::ifstream In(Path, std::ios::binary);
  std::ostringstream SS;
  SS << In.rdbuf();
  return SS.str();
}

void spit(const std::string &Path, const std::string &Bytes) {
  std::ofstream Out(Path, std::ios::binary | std::ios::trunc);
  Out << Bytes;
}

struct TestDaemon {
  std::unique_ptr<ReflexDaemon> D;

  explicit TestDaemon(DaemonOptions O) {
    Result<std::unique_ptr<ReflexDaemon>> R = ReflexDaemon::start(O);
    EXPECT_TRUE(R.ok()) << (R.ok() ? "" : R.error());
    if (!R.ok())
      return;
    D = R.take();
    D->serveInBackground();
  }
  ~TestDaemon() {
    if (D)
      D->stop();
  }
};

DaemonClient mustConnect(const std::string &Socket) {
  Result<DaemonClient> C = DaemonClient::connect(Socket);
  EXPECT_TRUE(C.ok()) << (C.ok() ? "" : C.error());
  return C.take();
}

JsonValue mustCall(DaemonClient &C, const std::string &Frame) {
  Result<JsonValue> R = C.call(Frame);
  EXPECT_TRUE(R.ok()) << (R.ok() ? "" : R.error());
  return R.ok() ? R.take() : JsonValue();
}

std::string frame(const std::string &Verb, const std::string &Session = "",
                  const std::string &Program = "",
                  const std::string &OptionsJson = "") {
  JsonWriter W;
  W.beginObject();
  W.field("verb", Verb);
  if (!Session.empty())
    W.field("session", Session);
  if (!Program.empty())
    W.field("program", Program);
  if (!OptionsJson.empty()) {
    W.key("options");
    W.rawValue(OptionsJson);
  }
  W.endObject();
  return W.take();
}

void canonInto(const JsonValue &V, JsonWriter &W) {
  if (V.isObject()) {
    W.beginObject();
    for (const auto &[K, E] : V.entries()) {
      W.key(K);
      canonInto(E, W);
    }
    W.endObject();
  } else if (V.isArray()) {
    W.beginArray();
    for (const JsonValue &E : V.items())
      canonInto(E, W);
    W.endArray();
  } else if (V.isString()) {
    W.value(V.stringValue());
  } else if (V.isBool()) {
    W.value(V.boolValue());
  } else if (V.isNumber()) {
    W.value(V.numberValue());
  } else {
    W.nullValue();
  }
}

std::string canon(const JsonValue &V) {
  JsonWriter W;
  canonInto(V, W);
  return W.take();
}

std::string canon(const std::string &Json) {
  Result<JsonValue> V = parseJson(Json);
  EXPECT_TRUE(V.ok()) << (V.ok() ? "" : V.error());
  return V.ok() ? canon(*V) : std::string();
}

/// Byte-parity: the response's results equal \p Want property for
/// property — status, reason, certificate JSON.
void expectResultsMatch(const JsonValue &Resp, const VerificationReport &Want,
                        const std::string &What) {
  const JsonValue *Results = Resp.get("results");
  ASSERT_NE(Results, nullptr) << What;
  ASSERT_TRUE(Results->isArray()) << What;
  ASSERT_EQ(Results->items().size(), Want.Results.size()) << What;
  for (size_t I = 0; I < Want.Results.size(); ++I) {
    const JsonValue &Got = Results->items()[I];
    const PropertyResult &W = Want.Results[I];
    EXPECT_EQ(Got.getString("name"), W.Name) << What;
    EXPECT_EQ(Got.getString("status"), verifyStatusName(W.Status))
        << What << ": " << W.Name;
    if (W.Status != VerifyStatus::Proved) {
      EXPECT_EQ(Got.getString("reason"), W.Reason) << What << ": " << W.Name;
    } else if (!W.CertJson.empty()) {
      const JsonValue *Cert = Got.get("cert");
      ASSERT_NE(Cert, nullptr) << What << ": " << W.Name;
      EXPECT_EQ(canon(*Cert), canon(W.CertJson)) << What << ": " << W.Name;
    }
  }
  EXPECT_EQ(int64_t(Resp.getNumber("proved")), int64_t(Want.provedCount()))
      << What;
}

VerificationReport freshReport(const Program &P, EngineKind Engine =
                                                     EngineKind::Induction) {
  SchedulerOptions S;
  S.Jobs = 0;
  S.Verify.Engine = Engine;
  return verifyPrograms({&P}, S).Reports[0];
}

//===----------------------------------------------------------------------===//
// Journal: round trip, torn tails, checksums
//===----------------------------------------------------------------------===//

JournalVerdict sampleVerdict(const std::string &Text, VerifyStatus St) {
  JournalVerdict V;
  V.PropertyText = Text;
  V.PropertyName = "p";
  V.Status = St;
  V.Millis = 1.5;
  V.ServedBy = "induction";
  if (St == VerifyStatus::Proved) {
    V.CanonicalCert = "{\"engine\":\"induction\",\"inv\":\"x\"}";
    V.CertJson = "{\"cert\":1}";
  } else {
    V.Reason = "gave up";
  }
  V.FootprintCollected = true;
  V.Footprint = {"h1", "h2"};
  return V;
}

TEST(Chaos, JournalRoundTripReplaysSessionsVerdictsAndCloses) {
  std::string Dir = tempDir("chaos_journal_rt");
  std::string Path = Dir + "/verdicts.journal";
  {
    JournalReplay R0;
    Result<std::unique_ptr<VerdictJournal>> J =
        VerdictJournal::open(Path, &R0);
    ASSERT_TRUE(J.ok()) << J.error();
    EXPECT_EQ(R0.RecordsReplayed, 0u);
    ASSERT_TRUE((*J)->appendSession("s1", frame("open-session", "s1", "src1"),
                                    "decl1")
                    .ok());
    ASSERT_TRUE(
        (*J)->appendVerdict("s1", sampleVerdict("[p1]", VerifyStatus::Proved))
            .ok());
    ASSERT_TRUE(
        (*J)->appendVerdict("s1", sampleVerdict("[p2]", VerifyStatus::Unknown))
            .ok());
    ASSERT_TRUE((*J)->appendSession("s2", frame("open-session", "s2", "src2"),
                                    "decl2")
                    .ok());
    ASSERT_TRUE((*J)->appendClose("s2").ok());
    EXPECT_GT((*J)->sizeBytes(), 0u);
  }

  JournalReplay R;
  Result<std::unique_ptr<VerdictJournal>> J = VerdictJournal::open(Path, &R);
  ASSERT_TRUE(J.ok()) << J.error();
  EXPECT_EQ(R.RecordsReplayed, 5u);
  EXPECT_EQ(R.RecordsDiscarded, 0u);
  EXPECT_EQ(R.BytesTruncated, 0u);
  // s2 was closed; only s1 and its two verdicts survive.
  ASSERT_EQ(R.Sessions.size(), 1u);
  const JournalSession &S = R.Sessions[0];
  EXPECT_EQ(S.Name, "s1");
  EXPECT_EQ(S.DeclSha256, "decl1");
  ASSERT_EQ(S.Verdicts.size(), 2u);
  const JournalVerdict &V1 = S.Verdicts.at("[p1]");
  EXPECT_EQ(V1.Status, VerifyStatus::Proved);
  EXPECT_EQ(V1.CanonicalCert, "{\"engine\":\"induction\",\"inv\":\"x\"}");
  EXPECT_EQ(V1.CertJson, "{\"cert\":1}");
  EXPECT_EQ(V1.ServedBy, "induction");
  EXPECT_TRUE(V1.FootprintCollected);
  EXPECT_EQ(V1.Footprint, (std::vector<std::string>{"h1", "h2"}));
  EXPECT_EQ(S.Verdicts.at("[p2]").Status, VerifyStatus::Unknown);
  EXPECT_EQ(S.Verdicts.at("[p2]").Reason, "gave up");
}

TEST(Chaos, JournalTornTailIsTruncatedAndTheNextOpenIsClean) {
  std::string Dir = tempDir("chaos_journal_tear");
  std::string Path = Dir + "/verdicts.journal";
  {
    JournalReplay R0;
    Result<std::unique_ptr<VerdictJournal>> J =
        VerdictJournal::open(Path, &R0);
    ASSERT_TRUE(J.ok()) << J.error();
    ASSERT_TRUE((*J)->appendSession("s1", frame("open-session", "s1", "x"),
                                    "d1")
                    .ok());
  }
  // A crash mid-append: half a record, no trailing newline.
  std::string Bytes = slurp(Path);
  std::string Half =
      VerdictJournal::encodeRecord("{\"type\":\"session\",\"sess");
  spit(Path, Bytes + Half.substr(0, Half.size() / 2));

  JournalReplay R;
  {
    Result<std::unique_ptr<VerdictJournal>> J = VerdictJournal::open(Path, &R);
    ASSERT_TRUE(J.ok()) << J.error();
  }
  EXPECT_EQ(R.RecordsReplayed, 1u);
  EXPECT_EQ(R.RecordsDiscarded, 1u);
  EXPECT_GT(R.BytesTruncated, 0u);
  ASSERT_EQ(R.Sessions.size(), 1u);
  EXPECT_EQ(R.Sessions[0].Name, "s1");

  // open() compacted the tear off the file: a second replay is clean.
  JournalReplay R2;
  Result<std::unique_ptr<VerdictJournal>> J2 = VerdictJournal::open(Path, &R2);
  ASSERT_TRUE(J2.ok()) << J2.error();
  EXPECT_EQ(R2.RecordsReplayed, 1u);
  EXPECT_EQ(R2.RecordsDiscarded, 0u);
  EXPECT_EQ(R2.BytesTruncated, 0u);
}

TEST(Chaos, JournalChecksumMismatchCutsEverythingFromTheDamage) {
  std::string Dir = tempDir("chaos_journal_sum");
  std::string Path = Dir + "/verdicts.journal";
  {
    JournalReplay R0;
    Result<std::unique_ptr<VerdictJournal>> J =
        VerdictJournal::open(Path, &R0);
    ASSERT_TRUE(J.ok()) << J.error();
    ASSERT_TRUE((*J)->appendSession("s1", frame("open-session", "s1", "x"),
                                    "d1")
                    .ok());
    ASSERT_TRUE((*J)->appendSession("s2", frame("open-session", "s2", "y"),
                                    "d2")
                    .ok());
  }
  // Flip one payload byte of the first record: its checksum no longer
  // matches, so it AND everything after it (now of uncertain framing)
  // is discarded. A journal never serves silently-corrupted bytes.
  std::string Bytes = slurp(Path);
  size_t P = Bytes.find("\"session\":\"s1\"");
  ASSERT_NE(P, std::string::npos);
  Bytes[P + 12] = '9'; // s1 -> s9 without touching the recorded sha
  spit(Path, Bytes);

  JournalReplay R;
  Result<std::unique_ptr<VerdictJournal>> J = VerdictJournal::open(Path, &R);
  ASSERT_TRUE(J.ok()) << J.error();
  EXPECT_EQ(R.RecordsReplayed, 0u);
  EXPECT_EQ(R.RecordsDiscarded, 2u);
  EXPECT_TRUE(R.Sessions.empty());
}

//===----------------------------------------------------------------------===//
// Daemon recovery: restart, tamper, close
//===----------------------------------------------------------------------===//

TEST(Chaos, RestartedDaemonRecoversSessionsByteIdentically) {
  std::string CacheDir = tempDir("chaos_recover");
  const kernels::KernelDef &K = kernels::ssh2();
  ProgramPtr P = kernels::load(K);
  VerificationReport Want = freshReport(*P);

  {
    DaemonOptions O;
    O.SocketPath = sockPath("rec1");
    O.CacheDir = CacheDir;
    TestDaemon TD(O);
    ASSERT_NE(TD.D, nullptr);
    DaemonClient C = mustConnect(TD.D->socketPath());
    JsonValue Open = mustCall(C, frame("open-session", "warm", K.Source));
    ASSERT_TRUE(Open.getBool("ok")) << Open.getString("error");
  } // daemon dies without close-session: the journal keeps the session

  DaemonOptions O;
  O.SocketPath = sockPath("rec2");
  O.CacheDir = CacheDir;
  TestDaemon TD(O);
  ASSERT_NE(TD.D, nullptr);
  DaemonClient C = mustConnect(TD.D->socketPath());

  JsonValue S = mustCall(C, frame("stats"));
  const JsonValue *J = S.get("journal");
  ASSERT_NE(J, nullptr);
  EXPECT_EQ(J->getNumber("sessions_recovered"), 1.0);
  EXPECT_GE(J->getNumber("verdicts_recovered"), 1.0);
  EXPECT_EQ(J->getNumber("verdicts_rejected"), 0.0);
  EXPECT_GE(J->getNumber("recovery_millis"), 0.0);

  // The recovered session answers an edit without ever being re-opened,
  // serving every verdict from the journal-seeded state — byte-identical
  // to a cold one-shot run.
  JsonValue Edit = mustCall(C, frame("edit", "warm", K.Source));
  ASSERT_TRUE(Edit.getBool("ok")) << Edit.getString("error");
  EXPECT_EQ(int64_t(Edit.getNumber("reused")),
            int64_t(P->Properties.size()));
  EXPECT_EQ(Edit.getNumber("reverified"), 0.0);
  expectResultsMatch(Edit, Want, "post-restart edit");
}

TEST(Chaos, TamperedJournalCertificateIsReverifiedNeverServed) {
  std::string CacheDir = tempDir("chaos_tamper");
  const kernels::KernelDef &K = kernels::ssh2();
  ProgramPtr P = kernels::load(K);
  VerificationReport Want = freshReport(*P);

  {
    DaemonOptions O;
    O.SocketPath = sockPath("tam1");
    O.CacheDir = CacheDir;
    TestDaemon TD(O);
    ASSERT_NE(TD.D, nullptr);
    DaemonClient C = mustConnect(TD.D->socketPath());
    ASSERT_TRUE(mustCall(C, frame("open-session", "warm", K.Source))
                    .getBool("ok"));
  }

  // Tamper with a journaled certificate but keep the record's checksum
  // valid (an attacker with file access, or a very unlucky disk, can do
  // exactly this): replay must reject it through the certificate
  // checker, not serve it.
  std::string Path = CacheDir + "/verdicts.journal";
  std::string Bytes = slurp(Path);
  std::istringstream In(Bytes);
  std::string Line, Rebuilt;
  bool Tampered = false;
  while (std::getline(In, Line)) {
    size_t Sp2 = Line.find(' ', Line.find(' ') + 1);
    ASSERT_NE(Sp2, std::string::npos);
    std::string Payload = Line.substr(Sp2 + 1);
    if (!Tampered && Payload.find("\"type\":\"verdict\"") !=
                         std::string::npos) {
      size_t CPos = Payload.find("\"canonical_cert\":\"");
      if (CPos != std::string::npos) {
        // Swap a digit inside the certificate body for another digit:
        // the JSON stays well-formed, the proof becomes a lie. The
        // certificate is an escaped JSON string, so the scan must treat
        // \" as content and stop only at the unescaped closing quote.
        for (size_t I = CPos + 18;
             I < Payload.size() &&
             !(Payload[I] == '"' && Payload[I - 1] != '\\');
             ++I)
          if (Payload[I] >= '0' && Payload[I] <= '8') {
            ++Payload[I];
            Tampered = true;
            break;
          }
      }
    }
    Rebuilt += VerdictJournal::encodeRecord(Payload) + "\n";
  }
  ASSERT_TRUE(Tampered) << "no journaled certificate found to tamper with";
  spit(Path, Rebuilt);

  DaemonOptions O;
  O.SocketPath = sockPath("tam2");
  O.CacheDir = CacheDir;
  TestDaemon TD(O);
  ASSERT_NE(TD.D, nullptr);
  DaemonClient C = mustConnect(TD.D->socketPath());

  JsonValue S = mustCall(C, frame("stats"));
  const JsonValue *J = S.get("journal");
  ASSERT_NE(J, nullptr);
  EXPECT_GE(J->getNumber("verdicts_rejected"), 1.0)
      << "the tampered certificate must die at the checker";

  // The rejected verdict is simply re-verified; the client still gets
  // byte-identical results.
  JsonValue Edit = mustCall(C, frame("edit", "warm", K.Source));
  ASSERT_TRUE(Edit.getBool("ok")) << Edit.getString("error");
  EXPECT_GE(Edit.getNumber("reverified"), 1.0);
  expectResultsMatch(Edit, Want, "post-tamper edit");
}

TEST(Chaos, JournalFromOlderDaemonWithFastCacheOptionStillRecovers) {
  // Daemons once journaled a `fast_cache` option in each session's
  // open-session frame. The option is gone; the decoder ignores unknown
  // option keys, so such a journal still recovers, and every Proved
  // verdict comes back re-checked by the certificate checker.
  std::string CacheDir = tempDir("chaos_oldopts");
  const kernels::KernelDef &K = kernels::ssh2();
  ProgramPtr P = kernels::load(K);
  VerificationReport Want = freshReport(*P);

  {
    DaemonOptions O;
    O.SocketPath = sockPath("old1");
    O.CacheDir = CacheDir;
    TestDaemon TD(O);
    ASSERT_NE(TD.D, nullptr);
    DaemonClient C = mustConnect(TD.D->socketPath());
    ASSERT_TRUE(mustCall(C, frame("open-session", "warm", K.Source))
                    .getBool("ok"));
  }

  // Rewrite the session record as an older daemon wrote it: the same
  // open-session frame plus "fast_cache": true, under a valid checksum.
  std::string Path = CacheDir + "/verdicts.journal";
  std::istringstream In(slurp(Path));
  std::string Line, Rebuilt;
  bool Rewritten = false;
  while (std::getline(In, Line)) {
    size_t Sp2 = Line.find(' ', Line.find(' ') + 1);
    ASSERT_NE(Sp2, std::string::npos);
    std::string Payload = Line.substr(Sp2 + 1);
    Result<JsonValue> Doc = parseJson(Payload);
    ASSERT_TRUE(Doc.ok());
    if (Doc->getString("type") == "session") {
      std::string Frame = Doc->getString("frame");
      size_t At = Frame.find("\"no_check\":");
      ASSERT_NE(At, std::string::npos) << Frame;
      Frame.insert(At, "\"fast_cache\":true,");
      JsonWriter W;
      W.beginObject();
      W.field("type", "session");
      W.field("session", Doc->getString("session"));
      W.field("frame", Frame);
      W.field("decl_sha256", Doc->getString("decl_sha256"));
      W.endObject();
      Payload = W.take();
      Rewritten = true;
    }
    Rebuilt += VerdictJournal::encodeRecord(Payload) + "\n";
  }
  ASSERT_TRUE(Rewritten) << "no journaled session found";
  spit(Path, Rebuilt);

  DaemonOptions O;
  O.SocketPath = sockPath("old2");
  O.CacheDir = CacheDir;
  TestDaemon TD(O);
  ASSERT_NE(TD.D, nullptr);
  DaemonClient C = mustConnect(TD.D->socketPath());
  JsonValue S = mustCall(C, frame("stats"));
  const JsonValue *J = S.get("journal");
  ASSERT_NE(J, nullptr);
  EXPECT_EQ(J->getNumber("sessions_recovered"), 1.0);
  EXPECT_EQ(J->getNumber("verdicts_rejected"), 0.0);

  JsonValue Edit = mustCall(C, frame("edit", "warm", K.Source));
  ASSERT_TRUE(Edit.getBool("ok")) << Edit.getString("error");
  EXPECT_EQ(Edit.getNumber("reverified"), 0.0);
  expectResultsMatch(Edit, Want, "old-journal edit");
  const JsonValue *Results = Edit.get("results");
  ASSERT_NE(Results, nullptr);
  for (const JsonValue &R : Results->items()) {
    EXPECT_EQ(R.get("fast_recheck"), nullptr);
    if (R.getString("status") == "Proved") {
      EXPECT_TRUE(R.getBool("cert_checked")) << R.getString("name");
    }
  }
}

TEST(Chaos, JournalWithSkipStepCertificatesIsReverifiedNotLost) {
  // Daemons once journaled certificates that carried a step for every
  // syntactically skipped handler. Certificates now record only what the
  // search found, so no re-derivation matches such a record: recovery
  // must reject each one through the checker (never serve it), keep the
  // session and every other verdict, and the next edit must re-verify
  // the rejected properties byte-identically to a cold run.
  std::string CacheDir = tempDir("chaos_skipsteps");
  const kernels::KernelDef &K = kernels::ssh2();
  ProgramPtr P = kernels::load(K);
  ASSERT_FALSE(P->Handlers.empty());
  VerificationReport Want = freshReport(*P);

  {
    DaemonOptions O;
    O.SocketPath = sockPath("skp1");
    O.CacheDir = CacheDir;
    TestDaemon TD(O);
    ASSERT_NE(TD.D, nullptr);
    DaemonClient C = mustConnect(TD.D->socketPath());
    ASSERT_TRUE(mustCall(C, frame("open-session", "warm", K.Source))
                    .getBool("ok"));
  }

  // Rewrite every Proved record into the older form: each steps array of
  // both certificate renderings (escaped JSON strings inside the record)
  // gains a skip step, under a valid checksum.
  const Handler &H = P->Handlers.front();
  const std::string Skip = "{\\\"where\\\":\\\"" + H.CompType + "=>" +
                           H.MsgName +
                           "\\\",\\\"path\\\":-1,\\\"justify\\\":"
                           "\\\"syntactic-skip\\\"}";
  const std::string StepsKey = "\\\"steps\\\":[";
  std::string Path = CacheDir + "/verdicts.journal";
  std::istringstream In(slurp(Path));
  std::string Line, Rebuilt;
  size_t Verdicts = 0, Rewritten = 0;
  while (std::getline(In, Line)) {
    size_t Sp2 = Line.find(' ', Line.find(' ') + 1);
    ASSERT_NE(Sp2, std::string::npos);
    std::string Payload = Line.substr(Sp2 + 1);
    Result<JsonValue> Doc = parseJson(Payload);
    ASSERT_TRUE(Doc.ok());
    if (Doc->getString("type") == "verdict") {
      ++Verdicts;
      if (Doc->getString("status") == "Proved") {
        size_t Inserted = 0;
        for (size_t At = Payload.find(StepsKey); At != std::string::npos;
             At = Payload.find(StepsKey, At + 1)) {
          size_t End = At + StepsKey.size();
          Payload.insert(End, Payload[End] == ']' ? Skip : Skip + ",");
          ++Inserted;
        }
        ASSERT_GE(Inserted, 2u) << "both renderings carry steps";
        ASSERT_TRUE(parseJson(Payload).ok());
        ++Rewritten;
      }
    }
    Rebuilt += VerdictJournal::encodeRecord(Payload) + "\n";
  }
  ASSERT_GT(Rewritten, 0u) << "no journaled Proved verdict found";
  spit(Path, Rebuilt);

  DaemonOptions O;
  O.SocketPath = sockPath("skp2");
  O.CacheDir = CacheDir;
  TestDaemon TD(O);
  ASSERT_NE(TD.D, nullptr);
  DaemonClient C = mustConnect(TD.D->socketPath());
  JsonValue S = mustCall(C, frame("stats"));
  const JsonValue *J = S.get("journal");
  ASSERT_NE(J, nullptr);
  EXPECT_EQ(J->getNumber("sessions_recovered"), 1.0);
  EXPECT_EQ(size_t(J->getNumber("verdicts_rejected")), Rewritten)
      << "every old-form certificate dies at the checker";
  EXPECT_EQ(size_t(J->getNumber("verdicts_recovered")), Verdicts - Rewritten)
      << "the other verdicts are kept";

  JsonValue Edit = mustCall(C, frame("edit", "warm", K.Source));
  ASSERT_TRUE(Edit.getBool("ok")) << Edit.getString("error");
  EXPECT_EQ(size_t(Edit.getNumber("reverified")), Rewritten);
  expectResultsMatch(Edit, Want, "skip-step journal edit");
  const JsonValue *Results = Edit.get("results");
  ASSERT_NE(Results, nullptr);
  for (const JsonValue &R : Results->items())
    if (R.getString("status") == "Proved") {
      EXPECT_TRUE(R.getBool("cert_checked")) << R.getString("name");
    }
}

TEST(Chaos, ClosedSessionsAreNotResurrectedByRecovery) {
  std::string CacheDir = tempDir("chaos_closed");
  const kernels::KernelDef &K = kernels::car();
  {
    DaemonOptions O;
    O.SocketPath = sockPath("cls1");
    O.CacheDir = CacheDir;
    TestDaemon TD(O);
    ASSERT_NE(TD.D, nullptr);
    DaemonClient C = mustConnect(TD.D->socketPath());
    ASSERT_TRUE(mustCall(C, frame("open-session", "gone", K.Source))
                    .getBool("ok"));
    ASSERT_TRUE(mustCall(C, frame("close-session", "gone")).getBool("ok"));
  }

  DaemonOptions O;
  O.SocketPath = sockPath("cls2");
  O.CacheDir = CacheDir;
  TestDaemon TD(O);
  ASSERT_NE(TD.D, nullptr);
  DaemonClient C = mustConnect(TD.D->socketPath());
  JsonValue S = mustCall(C, frame("stats"));
  const JsonValue *J = S.get("journal");
  ASSERT_NE(J, nullptr);
  EXPECT_EQ(J->getNumber("sessions_recovered"), 0.0);
  JsonValue Edit = mustCall(C, frame("edit", "gone", K.Source));
  EXPECT_FALSE(Edit.getBool("ok"));
}

//===----------------------------------------------------------------------===//
// kill -9 mid-batch: the flagship chaos gate
//===----------------------------------------------------------------------===//

pid_t spawnDaemon(const std::vector<std::string> &Args) {
  pid_t Pid = ::fork();
  if (Pid == 0) {
    std::vector<char *> Argv;
    static std::string Bin = REFLEX_CLI_PATH;
    Argv.push_back(Bin.data());
    std::vector<std::string> Copy = Args; // stable storage in the child
    for (std::string &A : Copy)
      Argv.push_back(A.data());
    Argv.push_back(nullptr);
    (void)::freopen("/dev/null", "w", stdout);
    ::execv(Bin.c_str(), Argv.data());
    _exit(127);
  }
  return Pid;
}

bool waitForDaemon(const std::string &Socket, int BudgetMs) {
  for (int Waited = 0; Waited < BudgetMs; Waited += 20) {
    if (DaemonClient::connect(Socket).ok())
      return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  return false;
}

TEST(Chaos, KillNineMidBatchThenRecoveryIsByteIdenticalForAllKernels) {
  std::string CacheDir = tempDir("chaos_kill9");
  std::string Socket = sockPath("k9");
  const std::vector<std::string> Args = {"daemon",        "--socket",
                                         Socket,          "--cache-dir",
                                         CacheDir,        "--max-sessions",
                                         "32"};

  struct Work {
    std::string Name;
    std::string Source;
    std::string Options;
    size_t Properties = 0;
    VerificationReport Want;
  };
  std::vector<Work> Batch;
  for (const kernels::KernelDef *K : kernels::all()) {
    Work W;
    W.Name = std::string("k-") + K->Name;
    W.Source = K->Source;
    ProgramPtr P = kernels::load(*K);
    W.Properties = P->Properties.size();
    W.Want = freshReport(*P);
    Batch.push_back(std::move(W));
  }
  for (EngineKind E : {EngineKind::Pdr, EngineKind::Portfolio}) {
    Work W;
    W.Name = std::string("eng-") + engineKindName(E);
    W.Source = kernels::pdrlock().Source;
    W.Options = std::string("{\"engine\":\"") + engineKindName(E) + "\"}";
    ProgramPtr P = kernels::load(kernels::pdrlock());
    W.Properties = P->Properties.size();
    W.Want = freshReport(*P, E);
    Batch.push_back(std::move(W));
  }

  pid_t Pid = spawnDaemon(Args);
  ASSERT_GT(Pid, 0);
  ASSERT_TRUE(waitForDaemon(Socket, 30000)) << "daemon never came up";
  for (const Work &W : Batch) {
    DaemonClient C = mustConnect(Socket);
    JsonValue Open =
        mustCall(C, frame("open-session", W.Name, W.Source, W.Options));
    ASSERT_TRUE(Open.getBool("ok")) << W.Name << ": "
                                    << Open.getString("error");
    expectResultsMatch(Open, W.Want, W.Name + " before the kill");
  }

  // kill -9: no drain, no flush beyond what each append already fsync'd.
  ASSERT_EQ(::kill(Pid, SIGKILL), 0);
  int Status = 0;
  ASSERT_EQ(::waitpid(Pid, &Status, 0), Pid);
  ASSERT_TRUE(WIFSIGNALED(Status));

  // Salt the wound: a torn tail on the journal, as if the kill had also
  // caught an append mid-write.
  {
    std::ofstream Tail(CacheDir + "/verdicts.journal",
                       std::ios::binary | std::ios::app);
    Tail << "RJ1 deadbeef {\"type\":\"torn";
  }

  pid_t Pid2 = spawnDaemon(Args);
  ASSERT_GT(Pid2, 0);
  // The socket only appears after replay + re-validation: readiness
  // implies recovery is complete.
  ASSERT_TRUE(waitForDaemon(Socket, 60000)) << "daemon never recovered";

  {
    DaemonClient C = mustConnect(Socket);
    JsonValue S = mustCall(C, frame("stats"));
    const JsonValue *J = S.get("journal");
    ASSERT_NE(J, nullptr);
    EXPECT_EQ(size_t(J->getNumber("sessions_recovered")), Batch.size());
    EXPECT_GT(J->getNumber("bytes_truncated"), 0.0)
        << "the torn tail must be detected and cut";
  }

  for (const Work &W : Batch) {
    DaemonClient C = mustConnect(Socket);
    JsonValue Edit = mustCall(C, frame("edit", W.Name, W.Source, W.Options));
    ASSERT_TRUE(Edit.getBool("ok")) << W.Name << ": "
                                    << Edit.getString("error");
    EXPECT_GE(Edit.getNumber("reused"), 1.0)
        << W.Name << ": recovery must seed at least one verdict";
    EXPECT_EQ(size_t(Edit.getNumber("reused") +
                     Edit.getNumber("reverified")),
              W.Properties)
        << W.Name;
    expectResultsMatch(Edit, W.Want, W.Name + " after kill -9");
  }

  // SIGTERM drains and exits 0 — the supervisor's "deliberate stop".
  ASSERT_EQ(::kill(Pid2, SIGTERM), 0);
  ASSERT_EQ(::waitpid(Pid2, &Status, 0), Pid2);
  ASSERT_TRUE(WIFEXITED(Status));
  EXPECT_EQ(WEXITSTATUS(Status), 0);
}

//===----------------------------------------------------------------------===//
// Overload shedding
//===----------------------------------------------------------------------===//

TEST(Chaos, InFlightCapShedsStructurallyAndRetryingClientsSucceed) {
  DaemonOptions O;
  O.SocketPath = sockPath("shed");
  O.MaxInFlight = 1;
  O.RetryAfterMs = 42;
  TestDaemon TD(O);
  ASSERT_NE(TD.D, nullptr);
  const std::string Socket = TD.D->socketPath();

  // Occupy the single slot with a deliberately long verify whose response
  // we do not read yet, and wait until the daemon has admitted it. It runs
  // on one worker, so its length does not shrink with the core count: a
  // 200-stage chain at jobs 1 takes about 0.7 s on a 4-core x86-64 host,
  // while the shed request below follows admission within milliseconds.
  std::string Slow = kernels::syntheticChainKernel(200);
  Result<DaemonClient> A = DaemonClient::connect(Socket);
  ASSERT_TRUE(A.ok()) << A.error();
  ASSERT_TRUE(
      A->socket()
          .sendAll(frame("verify", "", Slow, R"({"jobs":1})") + "\n")
          .ok());
  auto Admitted = std::chrono::steady_clock::now() + std::chrono::seconds(60);
  while (TD.D->inFlightVerifies() == 0) {
    ASSERT_LT(std::chrono::steady_clock::now(), Admitted)
        << "the slow verify was never admitted";
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }

  // A second verify is shed with the structured overload error...
  DaemonClient B = mustConnect(Socket);
  JsonValue Shed = mustCall(B, frame("verify", "", kernels::ssh2().Source));
  EXPECT_FALSE(Shed.getBool("ok"));
  EXPECT_TRUE(Shed.getBool("overloaded"));
  EXPECT_EQ(Shed.getNumber("retry_after_ms"), 42.0);
  // ...but cheap verbs are never shed: the gate admits work, not pings.
  EXPECT_TRUE(mustCall(B, frame("ping")).getBool("ok"));

  // A retrying client waits the slot out and succeeds.
  DaemonRetryOptions RO;
  RO.MaxAttempts = 60;
  RO.BaseBackoffMs = 100;
  RO.BackoffCapMs = 400;
  RO.Seed = 7;
  unsigned Attempts = 0;
  Result<JsonValue> R = DaemonClient::callWithRetry(
      Socket, frame("verify", "", kernels::ssh2().Source), RO, &Attempts);
  ASSERT_TRUE(R.ok()) << R.error();
  EXPECT_TRUE(R->getBool("ok")) << R->getString("error");
  EXPECT_GE(Attempts, 1u);

  // The accepted slow request was never dropped: its full response is
  // still there to read.
  std::string FrameA;
  // Only requests are frame-capped; a 399-property response is larger.
  Result<bool> Got = A->socket().readLine(FrameA, 256u << 20);
  ASSERT_TRUE(Got.ok()) << Got.error();
  ASSERT_TRUE(*Got);
  Result<JsonValue> RespA = parseJson(FrameA);
  ASSERT_TRUE(RespA.ok());
  EXPECT_TRUE(RespA->getBool("ok")) << RespA->getString("error");

  JsonValue S = mustCall(B, frame("stats"));
  const JsonValue *ShedStats = S.get("shed");
  ASSERT_NE(ShedStats, nullptr);
  EXPECT_GE(ShedStats->getNumber("requests"), 1.0);
}

TEST(Chaos, ConnectionCapShedsAtAcceptWithAStructuredFrame) {
  DaemonOptions O;
  O.SocketPath = sockPath("conncap");
  O.MaxClients = 1;
  O.RetryAfterMs = 17;
  TestDaemon TD(O);
  ASSERT_NE(TD.D, nullptr);
  const std::string Socket = TD.D->socketPath();

  DaemonClient A = mustConnect(Socket);
  EXPECT_TRUE(mustCall(A, frame("ping")).getBool("ok"));

  // The second connection is answered-then-closed without a handler
  // thread ever existing for it.
  Result<UnixSocket> B = UnixSocket::connectTo(Socket);
  ASSERT_TRUE(B.ok()) << B.error();
  std::string Line;
  Result<bool> Got = B->readLine(Line, DaemonMaxFrameBytes);
  ASSERT_TRUE(Got.ok()) << Got.error();
  ASSERT_TRUE(*Got);
  Result<JsonValue> Doc = parseJson(Line);
  ASSERT_TRUE(Doc.ok());
  EXPECT_FALSE(Doc->getBool("ok"));
  EXPECT_TRUE(Doc->getBool("overloaded"));
  EXPECT_EQ(Doc->getNumber("retry_after_ms"), 17.0);
  std::string Rest;
  Result<bool> Eof = B->readLine(Rest, DaemonMaxFrameBytes);
  ASSERT_TRUE(Eof.ok()) << Eof.error();
  EXPECT_FALSE(*Eof) << "the shed connection must be closed";

  // The admitted client is unaffected, and its seat frees on disconnect.
  EXPECT_TRUE(mustCall(A, frame("stats")).getBool("ok"));
}

//===----------------------------------------------------------------------===//
// Slow clients and hostile frames
//===----------------------------------------------------------------------===//

TEST(Chaos, SlowLorisClientHitsTheProgressTimeoutNotAThread) {
  DaemonOptions O;
  O.SocketPath = sockPath("loris");
  O.IoTimeoutMs = 150;
  TestDaemon TD(O);
  ASSERT_NE(TD.D, nullptr);

  auto T0 = std::chrono::steady_clock::now();
  Result<UnixSocket> S = UnixSocket::connectTo(TD.D->socketPath());
  ASSERT_TRUE(S.ok()) << S.error();
  // One byte per tick, never a newline: steady progress that would pin a
  // handler thread forever under an idle-based timeout. The frame
  // deadline (armed at the first byte) kills it instead.
  bool Disconnected = false;
  for (int I = 0; I < 200 && !Disconnected; ++I) {
    if (!S->sendAll("x").ok()) {
      Disconnected = true;
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(25));
  }
  if (!Disconnected) {
    std::string Out;
    Result<bool> R = S->readLine(Out, DaemonMaxFrameBytes);
    Disconnected = !R.ok() || !*R;
  }
  auto Elapsed = std::chrono::duration_cast<std::chrono::milliseconds>(
                     std::chrono::steady_clock::now() - T0)
                     .count();
  EXPECT_TRUE(Disconnected);
  EXPECT_LT(Elapsed, 5000) << "the trickler must die within a few windows";

  // The handler thread it occupied is free again.
  DaemonClient C = mustConnect(TD.D->socketPath());
  EXPECT_TRUE(mustCall(C, frame("ping")).getBool("ok"));
}

TEST(Chaos, OversizedFrameSplitAcrossManyWritesIsStillRejected) {
  DaemonOptions O;
  O.SocketPath = sockPath("bigsplit");
  TestDaemon TD(O);
  ASSERT_NE(TD.D, nullptr);

  Result<UnixSocket> S = UnixSocket::connectTo(TD.D->socketPath());
  ASSERT_TRUE(S.ok()) << S.error();
  // An over-limit frame dribbled in 64 KiB slices: the cap must trigger
  // on accumulated size, not on any single read.
  const std::string Chunk(64 * 1024, 'x');
  size_t Sent = 0;
  bool PeerGaveUp = false;
  while (Sent < DaemonMaxFrameBytes + 256 * 1024) {
    if (!S->sendAll(Chunk).ok()) {
      PeerGaveUp = true; // daemon already rejected and closed — fine
      break;
    }
    Sent += Chunk.size();
  }
  if (!PeerGaveUp)
    (void)S->sendAll("\n");
  std::string Resp;
  Result<bool> Got = S->readLine(Resp, DaemonMaxFrameBytes);
  if (Got.ok() && *Got) {
    EXPECT_NE(Resp.find("frame too large"), std::string::npos) << Resp;
  }

  DaemonClient C = mustConnect(TD.D->socketPath());
  EXPECT_TRUE(mustCall(C, frame("ping")).getBool("ok"));
}

//===----------------------------------------------------------------------===//
// Seeded socket chaos
//===----------------------------------------------------------------------===//

TEST(Chaos, ShortReadsWritesAndDelaysAreAbsorbedByteIdentically) {
  // Every server-side read is forced through 1-8-byte chunks and every
  // write is delayed: the retry loops must reassemble the exact stream.
  FaultPlan Chunky;
  Chunky.addRule({"sock.read", "", FaultKind::Truncate});
  Chunky.addRule({"sock.write", "", FaultKind::Delay});
  DaemonOptions O;
  O.SocketPath = sockPath("chunky");
  O.SockFaults = &Chunky;
  TestDaemon TD(O);
  ASSERT_NE(TD.D, nullptr);

  const kernels::KernelDef &K = kernels::ssh2();
  ProgramPtr P = kernels::load(K);
  VerificationReport Want = freshReport(*P);
  DaemonClient C = mustConnect(TD.D->socketPath());
  JsonValue Resp = mustCall(C, frame("verify", "", K.Source));
  ASSERT_TRUE(Resp.getBool("ok")) << Resp.getString("error");
  expectResultsMatch(Resp, Want, "chunked+delayed transport");
}

TEST(Chaos, RandomSocketFaultsNeverCorruptVerdictsAndTheDaemonSurvives) {
  // A seeded background of connection resets, short transfers, and
  // delays on every server socket. Clients may lose their connection;
  // no client may ever receive a wrong verdict.
  FaultPlan Stormy(0xC0FFEE, 60); // 6% of socket ops misbehave
  DaemonOptions O;
  O.SocketPath = sockPath("storm");
  O.SockFaults = &Stormy;
  TestDaemon TD(O);
  ASSERT_NE(TD.D, nullptr);

  const kernels::KernelDef &K = kernels::ssh2();
  ProgramPtr P = kernels::load(K);
  VerificationReport Want = freshReport(*P);
  unsigned OkCount = 0, LostCount = 0;
  for (int I = 0; I < 12; ++I) {
    Result<DaemonClient> C = DaemonClient::connect(TD.D->socketPath());
    if (!C.ok()) {
      ++LostCount;
      continue;
    }
    Result<JsonValue> R = C->call(frame("verify", "", K.Source));
    if (!R.ok()) {
      ++LostCount; // injected reset mid-exchange: an honest failure
      continue;
    }
    if (R->getBool("ok")) {
      expectResultsMatch(*R, Want, "client " + std::to_string(I) +
                                       " under socket storm");
      ++OkCount;
    }
  }
  EXPECT_GT(OkCount, 0u) << "the storm must not take out every client";

  // The daemon itself survived the storm (retry past injected faults).
  bool Alive = false;
  for (int I = 0; I < 20 && !Alive; ++I) {
    Result<DaemonClient> C = DaemonClient::connect(TD.D->socketPath());
    if (C.ok()) {
      Result<JsonValue> R = C->call(frame("ping"));
      Alive = R.ok() && R->getBool("ok");
    }
  }
  EXPECT_TRUE(Alive);
}

//===----------------------------------------------------------------------===//
// Supervision
//===----------------------------------------------------------------------===//

TEST(Chaos, SupervisorRestartsACrashedChildThenStopsCleanly) {
  std::string Dir = tempDir("chaos_sup");
  std::string Counter = Dir + "/runs";
  std::string LogPath = Dir + "/log";
  FILE *Log = std::fopen(LogPath.c_str(), "w");
  ASSERT_NE(Log, nullptr);

  SupervisorOptions SO;
  SO.BackoffMs = 5;
  SO.BackoffCapMs = 20;
  SO.Log = Log;
  int Exit = runSupervised(SO, [&Counter] {
    // Crash on the first run, exit cleanly on the second. The runs
    // communicate through the filesystem — the child is a fork.
    size_t Runs = slurp(Counter).size();
    std::ofstream(Counter, std::ios::app) << "x";
    return Runs == 0 ? 9 : 0;
  });
  std::fclose(Log);

  EXPECT_EQ(Exit, 0);
  EXPECT_EQ(slurp(Counter).size(), 2u);
  std::string Events = slurp(LogPath);
  EXPECT_NE(Events.find("\"event\":\"serving\""), std::string::npos);
  EXPECT_NE(Events.find("\"event\":\"exited\""), std::string::npos);
  EXPECT_NE(Events.find("\"code\":9"), std::string::npos);
  EXPECT_NE(Events.find("\"event\":\"restarting\""), std::string::npos);
  EXPECT_NE(Events.find("\"event\":\"stopped\""), std::string::npos);
}

TEST(Chaos, SupervisorGivesUpOnACrashLoopWithAStructuredEvent) {
  std::string Dir = tempDir("chaos_suploop");
  std::string LogPath = Dir + "/log";
  FILE *Log = std::fopen(LogPath.c_str(), "w");
  ASSERT_NE(Log, nullptr);

  SupervisorOptions SO;
  SO.MaxRestarts = 2;
  SO.RestartWindowMs = 60000;
  SO.BackoffMs = 1;
  SO.BackoffCapMs = 2;
  SO.Log = Log;
  int Exit = runSupervised(SO, [] { return 7; });
  std::fclose(Log);

  EXPECT_EQ(Exit, 1);
  std::string Events = slurp(LogPath);
  EXPECT_NE(Events.find("\"event\":\"giving-up\""), std::string::npos);
  // MaxRestarts restarts = MaxRestarts + 1 serving attempts, no more.
  size_t Serving = 0;
  for (size_t P = Events.find("\"event\":\"serving\"");
       P != std::string::npos;
       P = Events.find("\"event\":\"serving\"", P + 1))
    ++Serving;
  EXPECT_EQ(Serving, 3u);
}

//===----------------------------------------------------------------------===//
// Proof cache hygiene: manifest atomicity, quarantine bound
//===----------------------------------------------------------------------===//

TEST(Chaos, TruncatedGcManifestIsEmptyWithAWarningNotACrash) {
  std::string Dir = tempDir("chaos_manifest");
  ProgramPtr P = kernels::load(kernels::ssh2());
  std::string Live = ProofCache::declId(ProgramFingerprints::compute(*P).DeclFp);
  {
    Result<std::unique_ptr<ProofCache>> Cache = ProofCache::open(Dir);
    ASSERT_TRUE(Cache.ok()) << Cache.error();
    SchedulerOptions S;
    S.Cache = Cache->get();
    verifyPrograms({P.get()}, S);
    ASSERT_GT(Cache->get()->stats().Stores, 0u);
    (*Cache)->gc({Live}); // writes a valid manifest
  }

  // Tear the manifest the way a crash mid-write would (if the atomic
  // publish path were ever broken): cut it in half.
  std::string Manifest = Dir + "/gc.manifest";
  std::string Bytes = slurp(Manifest);
  ASSERT_GT(Bytes.size(), 2u);
  spit(Manifest, Bytes.substr(0, Bytes.size() / 2));

  Result<std::unique_ptr<ProofCache>> Cache = ProofCache::open(Dir);
  ASSERT_TRUE(Cache.ok()) << Cache.error();
  ProofCache::GcOutcome G = (*Cache)->gc({Live});
  EXPECT_EQ((*Cache)->stats().ManifestCorrupt, 1u);
  EXPECT_EQ(G.Dropped, 0u) << "live entries must survive a lost manifest";
  EXPECT_GT(G.Kept, 0u);

  // That gc stored a fresh, valid manifest: the damage does not recur.
  (*Cache)->gc({Live});
  EXPECT_EQ((*Cache)->stats().ManifestCorrupt, 1u);
}

TEST(Chaos, QuarantineIsBoundedWithOldestFirstEviction) {
  std::string Dir = tempDir("chaos_quar");
  Result<std::unique_ptr<ProofCache>> Cache = ProofCache::open(Dir);
  ASSERT_TRUE(Cache.ok()) << Cache.error();
  (*Cache)->setQuarantineMax(3);

  fs::path QDir = fs::path(Dir) / "quarantine";
  fs::create_directories(QDir);
  auto Now = fs::file_time_type::clock::now();
  for (int I = 0; I < 6; ++I) {
    fs::path F = QDir / ("q" + std::to_string(I) + ".json");
    spit(F.string(), "evidence " + std::to_string(I));
    // Distinct ages, q0 the oldest.
    fs::last_write_time(F, Now - std::chrono::minutes(60 - I));
  }

  ProofCache::GcOutcome G = (*Cache)->gc({});
  EXPECT_EQ(G.QuarantineEvicted, 3u);
  EXPECT_EQ(G.QuarantineKept, 3u);
  for (int I = 0; I < 3; ++I)
    EXPECT_FALSE(fs::exists(QDir / ("q" + std::to_string(I) + ".json")))
        << "q" << I << " is among the oldest and must be evicted";
  for (int I = 3; I < 6; ++I)
    EXPECT_TRUE(fs::exists(QDir / ("q" + std::to_string(I) + ".json")))
        << "q" << I << " is among the newest and must survive";
}

//===----------------------------------------------------------------------===//
// Client retry schedule
//===----------------------------------------------------------------------===//

TEST(Chaos, RetryingClientRidesOutADaemonRestartWindow) {
  // No daemon at first: connect failures are retried on the backoff
  // schedule (a supervised daemon mid-restart looks exactly like this).
  std::string Socket = sockPath("ride");
  std::thread Late([&Socket] {
    std::this_thread::sleep_for(std::chrono::milliseconds(300));
    DaemonOptions O;
    O.SocketPath = Socket;
    Result<std::unique_ptr<ReflexDaemon>> D = ReflexDaemon::start(O);
    ASSERT_TRUE(D.ok()) << D.error();
    (*D)->serveInBackground();
    std::this_thread::sleep_for(std::chrono::milliseconds(2500));
    (*D)->stop();
  });
  DaemonRetryOptions RO;
  RO.MaxAttempts = 30;
  RO.BaseBackoffMs = 50;
  RO.BackoffCapMs = 200;
  RO.Seed = 3;
  unsigned Attempts = 0;
  Result<JsonValue> R =
      DaemonClient::callWithRetry(Socket, frame("ping"), RO, &Attempts);
  Late.join();
  ASSERT_TRUE(R.ok()) << R.error();
  EXPECT_TRUE(R->getBool("ok"));
  EXPECT_GT(Attempts, 1u) << "the first attempts must have found no socket";
}

} // namespace
} // namespace reflex
