//===- tests/service_test.cc - Verification service -------------*- C++ -*-===//
//
// The parallel verification service and its persistent proof cache:
// thread pool lifecycle, deterministic scheduler merges, SHA-256 /
// JSON-parser support pieces, cold/warm cache flows, and the trust
// story — a tampered cache entry must be rejected by the certificate
// checker and the property fully re-verified.
//
//===----------------------------------------------------------------------===//

#include "kernels/kernels.h"
#include "service/scheduler.h"
#include "service/threadpool.h"
#include "support/json.h"
#include "support/sha256.h"
#include "test_util.h"
#include "verify/incremental.h"

#include <atomic>
#include <filesystem>
#include <thread>
#include <fstream>
#include <sstream>

#include <unistd.h>

namespace reflex {
namespace {

namespace fs = std::filesystem;

/// A throwaway cache directory, removed on destruction.
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

/// A kernel with one provable and one unprovable property — exercises
/// both cacheable verdict kinds without a 41-property run.
const char *MixedSrc = R"(
component A "a";
message Ping(num);
message Mark(num);
init { X <- spawn A(); }
handler A => Ping(n) { send(X, Mark(n)); }
property Bad: forall n.
  [Recv(A, Mark(n))] Enables [Send(A, Mark(n))];
property Fine: forall n.
  [Recv(A, Ping(n))] Ensures [Send(A, Mark(n))];
)";

std::unique_ptr<ProofCache> mustOpen(const std::string &Dir) {
  Result<std::unique_ptr<ProofCache>> C = ProofCache::open(Dir);
  EXPECT_TRUE(C.ok()) << (C.ok() ? "" : C.error());
  return C.ok() ? C.take() : nullptr;
}

//===----------------------------------------------------------------------===//
// ThreadPool
//===----------------------------------------------------------------------===//

TEST(ThreadPool, RunsEveryPostedTask) {
  ThreadPool Pool(4);
  EXPECT_EQ(Pool.workerCount(), 4u);
  std::atomic<int> Ran{0};
  for (int I = 0; I < 200; ++I)
    EXPECT_TRUE(Pool.post([&] { Ran.fetch_add(1); }));
  Pool.wait();
  EXPECT_EQ(Ran.load(), 200);

  // The pool is reusable after a drain.
  for (int I = 0; I < 50; ++I)
    EXPECT_TRUE(Pool.post([&] { Ran.fetch_add(1); }));
  Pool.wait();
  EXPECT_EQ(Ran.load(), 250);
}

TEST(ThreadPool, ShutdownIsIdempotentAndRejectsLatePosts) {
  ThreadPool Pool(2);
  std::atomic<int> Ran{0};
  for (int I = 0; I < 20; ++I)
    Pool.post([&] { Ran.fetch_add(1); });
  Pool.shutdown();
  EXPECT_EQ(Ran.load(), 20) << "shutdown drains already-accepted work";
  EXPECT_FALSE(Pool.post([&] { Ran.fetch_add(1); }));
  Pool.shutdown(); // second shutdown is a no-op
  EXPECT_EQ(Ran.load(), 20);
}

TEST(ThreadPool, ZeroWorkersMeansHardwareConcurrency) {
  ThreadPool Pool(0);
  EXPECT_EQ(Pool.workerCount(), ThreadPool::defaultWorkerCount());
  EXPECT_GE(ThreadPool::defaultWorkerCount(), 1u);
}

//===----------------------------------------------------------------------===//
// Support pieces the cache key rests on
//===----------------------------------------------------------------------===//

TEST(Sha256, MatchesKnownVectors) {
  // FIPS 180-4 test vectors.
  EXPECT_EQ(
      sha256Hex(""),
      "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
  EXPECT_EQ(
      sha256Hex("abc"),
      "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
  // Multi-block input (448 bits of message + padding spills a block).
  EXPECT_EQ(
      sha256Hex("abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"),
      "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1");
  // Incremental updates equal one-shot hashing.
  Sha256 H;
  H.update("ab");
  H.update("c");
  EXPECT_EQ(H.hexDigest(), sha256Hex("abc"));
}

TEST(Sha256, FieldFramingPreventsConcatenationCollisions) {
  Sha256 A;
  A.updateField("ab");
  A.updateField("c");
  Sha256 B;
  B.updateField("a");
  B.updateField("bc");
  EXPECT_NE(A.hexDigest(), B.hexDigest());
}

TEST(Json, ParserReadsWriterOutput) {
  JsonWriter W;
  W.beginObject();
  W.field("name", "quote\" slash\\ tab\t");
  W.field("count", int64_t(41));
  W.field("flag", true);
  W.key("xs");
  W.beginArray();
  W.value(int64_t(1));
  W.nullValue();
  W.value(-2.5);
  W.endArray();
  W.endObject();

  Result<JsonValue> Doc = parseJson(W.take());
  ASSERT_TRUE(Doc.ok()) << Doc.error();
  ASSERT_TRUE(Doc->isObject());
  EXPECT_EQ(Doc->getString("name"), "quote\" slash\\ tab\t");
  EXPECT_EQ(Doc->getNumber("count", 0), 41);
  EXPECT_TRUE(Doc->getBool("flag", false));
  const JsonValue *Xs = Doc->get("xs");
  ASSERT_NE(Xs, nullptr);
  ASSERT_TRUE(Xs->isArray());
  ASSERT_EQ(Xs->items().size(), 3u);
  EXPECT_EQ(Xs->items()[0].numberValue(), 1);
  EXPECT_TRUE(Xs->items()[1].isNull());
  EXPECT_EQ(Xs->items()[2].numberValue(), -2.5);
}

TEST(Json, RejectsMalformedDocuments) {
  EXPECT_FALSE(parseJson("").ok());
  EXPECT_FALSE(parseJson("{").ok());
  EXPECT_FALSE(parseJson("{\"a\":1,}").ok());
  EXPECT_FALSE(parseJson("{\"a\":1} trailing").ok());
  EXPECT_FALSE(parseJson("\"bad escape \\q\"").ok());
  EXPECT_FALSE(parseJson("{\"a\" 1}").ok());
  // Unicode escapes decode to UTF-8.
  Result<JsonValue> U = parseJson("\"\\u00e9\"");
  ASSERT_TRUE(U.ok()) << U.error();
  EXPECT_EQ(U->stringValue(), "\xc3\xa9");
}

//===----------------------------------------------------------------------===//
// Scheduler determinism
//===----------------------------------------------------------------------===//

TEST(Scheduler, ParallelVerdictsMatchSequential) {
  ProgramPtr Ssh = kernels::load(kernels::ssh());
  ProgramPtr Ssh2 = kernels::load(kernels::ssh2());
  ProgramPtr Web = kernels::load(kernels::webserver());
  std::vector<const Program *> Programs{Ssh.get(), Ssh2.get(), Web.get()};

  SchedulerOptions Seq;
  Seq.Jobs = 1;
  BatchOutcome A = verifyPrograms(Programs, Seq);

  SchedulerOptions Par;
  Par.Jobs = 4;
  BatchOutcome B = verifyPrograms(Programs, Par);

  ASSERT_EQ(A.Reports.size(), Programs.size());
  ASSERT_EQ(B.Reports.size(), Programs.size());
  for (size_t P = 0; P < Programs.size(); ++P) {
    const VerificationReport &RA = A.Reports[P];
    const VerificationReport &RB = B.Reports[P];
    EXPECT_EQ(RB.ProgramName, Programs[P]->Name);
    ASSERT_EQ(RA.Results.size(), RB.Results.size());
    ASSERT_EQ(RB.Results.size(), Programs[P]->Properties.size());
    for (size_t I = 0; I < RA.Results.size(); ++I) {
      // Declaration order, byte-identical status + reason.
      EXPECT_EQ(RB.Results[I].Name, Programs[P]->Properties[I].Name);
      EXPECT_EQ(RA.Results[I].Status, RB.Results[I].Status)
          << RA.Results[I].Name;
      EXPECT_EQ(RA.Results[I].Reason, RB.Results[I].Reason)
          << RA.Results[I].Name;
    }
  }
  EXPECT_EQ(A.provedCount(), B.provedCount());
  EXPECT_EQ(B.propertyCount(),
            unsigned(Ssh->Properties.size() + Ssh2->Properties.size() +
                     Web->Properties.size()));
  EXPECT_TRUE(B.allProved());
}

TEST(Scheduler, SingleProgramParallelReportLooksLikeVerifyAll) {
  ProgramPtr P = kernels::load(kernels::car());
  SchedulerOptions Opts;
  Opts.Jobs = 4;
  VerificationReport R = verifyParallel(*P, Opts);
  VerificationReport Fresh = verifyProgram(*P);

  ASSERT_EQ(R.Results.size(), Fresh.Results.size());
  for (size_t I = 0; I < R.Results.size(); ++I) {
    EXPECT_EQ(R.Results[I].Name, Fresh.Results[I].Name);
    EXPECT_EQ(R.Results[I].Status, Fresh.Results[I].Status);
    EXPECT_EQ(R.Results[I].Reason, Fresh.Results[I].Reason);
    if (R.Results[I].Status == VerifyStatus::Proved) {
      EXPECT_TRUE(R.Results[I].CertChecked);
      EXPECT_FALSE(R.Results[I].CertJson.empty())
          << "merged results must carry session-independent certificates";
    }
  }
  EXPECT_GT(R.SolverQueries, 0u);
}

//===----------------------------------------------------------------------===//
// Proof cache
//===----------------------------------------------------------------------===//

TEST(ProofCache, KeyIsStableAndContentAddressed) {
  ProgramPtr P = mustLoad(MixedSrc);
  ASSERT_NE(P, nullptr);
  ProgramFingerprints FP = ProgramFingerprints::compute(*P);
  VerifyOptions Opts;

  std::string K1 = ProofCache::keyFor(FP.DeclFp, P->Properties[0], Opts);
  EXPECT_EQ(K1.size(), 64u);
  EXPECT_EQ(K1.find_first_not_of("0123456789abcdef"), std::string::npos);
  EXPECT_EQ(K1, ProofCache::keyFor(FP.DeclFp, P->Properties[0], Opts));

  // Any input change changes the key.
  EXPECT_NE(K1, ProofCache::keyFor(FP.DeclFp, P->Properties[1], Opts));
  EXPECT_NE(K1, ProofCache::keyFor(FP.DeclFp + "x", P->Properties[0], Opts));
  VerifyOptions NoSimp = Opts;
  NoSimp.Simplify = false;
  EXPECT_NE(K1, ProofCache::keyFor(FP.DeclFp, P->Properties[0], NoSimp));
}

TEST(ProofCache, ColdMissThenRevalidatedWarmHit) {
  TempDir Dir("cache-warm");
  ProgramPtr P = mustLoad(MixedSrc);
  ASSERT_NE(P, nullptr);
  ProgramFingerprints FP = ProgramFingerprints::compute(*P);

  // Cold: both verdict kinds (Proved "Fine", Unknown "Bad") miss + store.
  {
    std::unique_ptr<ProofCache> Cache = mustOpen(Dir.str());
    ASSERT_NE(Cache, nullptr);
    VerifySession S(*P);
    for (const Property &Prop : P->Properties) {
      PropertyResult R = verifyPropertyCached(S, Prop, Cache.get(), &FP);
      EXPECT_FALSE(R.CacheHit);
    }
    EXPECT_EQ(Cache->stats().Misses, 2u);
    EXPECT_EQ(Cache->stats().Stores, 2u);
    EXPECT_EQ(Cache->stats().Hits, 0u);
  }

  // Warm, in a fresh process-equivalent (new cache handle, new session):
  // the proved verdict is served only after checker re-validation; the
  // unknown verdict is reused directly.
  std::unique_ptr<ProofCache> Cache = mustOpen(Dir.str());
  ASSERT_NE(Cache, nullptr);
  VerifySession S(*P);
  PropertyResult Bad =
      verifyPropertyCached(S, P->Properties[0], Cache.get(), &FP);
  PropertyResult Fine =
      verifyPropertyCached(S, P->Properties[1], Cache.get(), &FP);

  EXPECT_EQ(Bad.Status, VerifyStatus::Unknown);
  EXPECT_TRUE(Bad.CacheHit);
  EXPECT_FALSE(Bad.Reason.empty());

  EXPECT_EQ(Fine.Status, VerifyStatus::Proved);
  EXPECT_TRUE(Fine.CacheHit);
  EXPECT_TRUE(Fine.CertChecked) << "proved hits must be re-validated";
  EXPECT_FALSE(Fine.CertJson.empty());
  EXPECT_EQ(Cache->stats().Hits, 2u);
  EXPECT_EQ(Cache->stats().Rejected, 0u);
}

TEST(ProofCache, TamperedCertificateIsRejectedAndReVerified) {
  TempDir Dir("cache-tamper");
  ProgramPtr P = mustLoad(MixedSrc);
  ASSERT_NE(P, nullptr);
  ProgramFingerprints FP = ProgramFingerprints::compute(*P);
  const Property &Fine = P->Properties[1];
  std::string Key = ProofCache::keyFor(FP.DeclFp, Fine, VerifyOptions{});
  std::string EntryPath = Dir.str() + "/" + Key + ".json";

  std::unique_ptr<ProofCache> Cache = mustOpen(Dir.str());
  ASSERT_NE(Cache, nullptr);
  {
    VerifySession S(*P);
    PropertyResult R = verifyPropertyCached(S, Fine, Cache.get(), &FP);
    ASSERT_EQ(R.Status, VerifyStatus::Proved);
  }

  // Tamper: prepend junk to the canonical certificate inside the entry.
  // The file stays valid JSON; only the proof content is wrong.
  std::string Entry;
  {
    std::ifstream In(EntryPath);
    ASSERT_TRUE(In.good()) << "no entry at " << EntryPath;
    std::stringstream SS;
    SS << In.rdbuf();
    Entry = SS.str();
  }
  size_t Pos = Entry.find("\"canonical_cert\":\"");
  ASSERT_NE(Pos, std::string::npos);
  Entry.insert(Pos + std::string("\"canonical_cert\":\"").size(), "XX");
  {
    std::ofstream Out(EntryPath, std::ios::trunc);
    Out << Entry;
  }

  // The checker must refuse the tampered proof; the property is then
  // re-verified from scratch (not served from the cache) and the entry
  // overwritten with an honest one.
  {
    VerifySession S(*P);
    PropertyResult R = verifyPropertyCached(S, Fine, Cache.get(), &FP);
    EXPECT_EQ(R.Status, VerifyStatus::Proved);
    EXPECT_FALSE(R.CacheHit);
    EXPECT_TRUE(R.CertChecked);
  }
  EXPECT_EQ(Cache->stats().Rejected, 1u);

  // The overwritten entry is trustworthy again.
  {
    VerifySession S(*P);
    PropertyResult R = verifyPropertyCached(S, Fine, Cache.get(), &FP);
    EXPECT_TRUE(R.CacheHit);
    EXPECT_TRUE(R.CertChecked);
  }
}

TEST(ProofCache, MalformedEntryIsAMiss) {
  TempDir Dir("cache-garbage");
  ProgramPtr P = mustLoad(MixedSrc);
  ASSERT_NE(P, nullptr);
  ProgramFingerprints FP = ProgramFingerprints::compute(*P);
  const Property &Fine = P->Properties[1];
  std::string Key = ProofCache::keyFor(FP.DeclFp, Fine, VerifyOptions{});

  std::unique_ptr<ProofCache> Cache = mustOpen(Dir.str());
  ASSERT_NE(Cache, nullptr);
  {
    std::ofstream Out(Dir.str() + "/" + Key + ".json");
    Out << "this is not json{{{";
  }
  EXPECT_FALSE(Cache->lookup(Key).has_value());

  VerifySession S(*P);
  PropertyResult R = verifyPropertyCached(S, Fine, Cache.get(), &FP);
  EXPECT_EQ(R.Status, VerifyStatus::Proved);
  EXPECT_FALSE(R.CacheHit);
  EXPECT_EQ(Cache->stats().Misses, 1u);
  EXPECT_EQ(Cache->stats().Stores, 1u) << "the garbage entry is replaced";
  EXPECT_TRUE(Cache->lookup(Key).has_value());
}

//===----------------------------------------------------------------------===//
// Cache hardening: orphan sweep + corruption quarantine
//===----------------------------------------------------------------------===//

std::string readAll(const std::string &Path) {
  std::ifstream In(Path, std::ios::binary);
  std::stringstream SS;
  SS << In.rdbuf();
  return SS.str();
}

void writeAll(const std::string &Path, const std::string &Bytes) {
  std::ofstream Out(Path, std::ios::binary | std::ios::trunc);
  Out << Bytes;
}

/// The version field a current binary writes into every entry.
std::string currentVersionField() {
  return "\"version\":" + std::to_string(ProofCache::EntryVersion);
}

size_t fileCount(const fs::path &Dir) {
  size_t N = 0;
  std::error_code EC;
  for (const fs::directory_entry &DE : fs::directory_iterator(Dir, EC))
    if (DE.is_regular_file())
      ++N;
  return N;
}

TEST(ProofCache, OrphanedTmpFilesAreSweptAtOpen) {
  TempDir Dir("cache-sweep");
  fs::create_directories(Dir.str() + "/tmp");
  // Two stranded temp files from "crashed writers", one real entry.
  writeAll(Dir.str() + "/tmp/aaaa.json.tmp.1234", "half-written junk");
  writeAll(Dir.str() + "/tmp/bbbb.json.tmp.99", "{\"version\":1");
  writeAll(Dir.str() + "/keep.json", "{}");

  std::unique_ptr<ProofCache> Cache = mustOpen(Dir.str());
  ASSERT_NE(Cache, nullptr);
  EXPECT_EQ(Cache->stats().SweptTmp, 2u);
  EXPECT_FALSE(fs::exists(Dir.str() + "/tmp/aaaa.json.tmp.1234"));
  EXPECT_FALSE(fs::exists(Dir.str() + "/tmp/bbbb.json.tmp.99"));
  EXPECT_TRUE(fs::exists(Dir.str() + "/keep.json"))
      << "only tmp/ files may be swept";
}

TEST(ProofCache, GcRemovesLegacyRootLevelTmpFiles) {
  TempDir Dir("cache-gc-legacy-tmp");
  ProgramPtr Live = kernels::load(kernels::ssh2());
  std::string LiveId =
      ProofCache::declId(ProgramFingerprints::compute(*Live).DeclFp);
  std::unique_ptr<ProofCache> Cache = mustOpen(Dir.str());
  ASSERT_NE(Cache, nullptr);
  SchedulerOptions S;
  S.Cache = Cache.get();
  verifyPrograms({Live.get()}, S);
  uint64_t Stores = Cache->stats().Stores;
  ASSERT_GT(Stores, 0u);
  EXPECT_EQ(fileCount(fs::path(Dir.str()) / "tmp"), 0u)
      << "every temp file was renamed over its entry";

  // Orphans of writers that predate tmp/, stranded beside the entries:
  // open leaves them alone (it lists only tmp/), gc reclaims them.
  writeAll(Dir.str() + "/aaaa.json.tmp.1234", "half-written junk");
  writeAll(Dir.str() + "/bbbb.json.tmp.99", "{\"version\":1");
  std::unique_ptr<ProofCache> Reopened = mustOpen(Dir.str());
  ASSERT_NE(Reopened, nullptr);
  EXPECT_EQ(Reopened->stats().SweptTmp, 0u);
  ProofCache::GcOutcome G = Reopened->gc({LiveId});
  EXPECT_EQ(G.SweptTmp, 2u);
  EXPECT_FALSE(fs::exists(Dir.str() + "/aaaa.json.tmp.1234"));
  EXPECT_FALSE(fs::exists(Dir.str() + "/bbbb.json.tmp.99"));
  EXPECT_EQ(G.Scanned, Stores) << "temp files are not entries";
  EXPECT_EQ(G.Kept, Stores);
  EXPECT_EQ(G.Dropped, 0u);
}

/// Populates the cache with MixedSrc's provable property and corrupts the
/// stored entry via \p Mutate; the damaged entry must be quarantined (the
/// evidence preserved on disk, not deleted), the property fully
/// re-verified, and a fresh trustworthy entry published.
void corruptionRoundTrip(const char *Tag,
                         void (*Mutate)(std::string &Entry)) {
  TempDir Dir(std::string("cache-") + Tag);
  ProgramPtr P = mustLoad(MixedSrc);
  ASSERT_NE(P, nullptr);
  ProgramFingerprints FP = ProgramFingerprints::compute(*P);
  const Property &Fine = P->Properties[1];
  std::string Key = ProofCache::keyFor(FP.DeclFp, Fine, VerifyOptions{});
  std::string EntryPath = Dir.str() + "/" + Key + ".json";

  std::unique_ptr<ProofCache> Cache = mustOpen(Dir.str());
  ASSERT_NE(Cache, nullptr);
  {
    VerifySession S(*P);
    PropertyResult R = verifyPropertyCached(S, Fine, Cache.get(), &FP);
    ASSERT_EQ(R.Status, VerifyStatus::Proved);
  }

  std::string Entry = readAll(EntryPath);
  ASSERT_FALSE(Entry.empty());
  Mutate(Entry);
  writeAll(EntryPath, Entry);

  {
    VerifySession S(*P);
    PropertyResult R = verifyPropertyCached(S, Fine, Cache.get(), &FP);
    EXPECT_EQ(R.Status, VerifyStatus::Proved);
    EXPECT_FALSE(R.CacheHit) << "damaged entries must not be served";
    EXPECT_TRUE(R.CertChecked);
  }
  EXPECT_EQ(Cache->stats().Rejected, 1u);
  EXPECT_EQ(Cache->stats().Quarantined, 1u);
  EXPECT_TRUE(
      fs::exists(fs::path(Dir.str()) / "quarantine" / (Key + ".json")))
      << "quarantine preserves the evidence under the entry's key";

  // The re-verification published an honest replacement.
  {
    VerifySession S(*P);
    PropertyResult R = verifyPropertyCached(S, Fine, Cache.get(), &FP);
    EXPECT_TRUE(R.CacheHit);
    EXPECT_TRUE(R.CertChecked);
  }
  EXPECT_EQ(Cache->stats().Quarantined, 1u) << "no second quarantine";
}

TEST(ProofCache, TruncatedEntryIsQuarantinedAndReVerified) {
  corruptionRoundTrip("truncated", [](std::string &Entry) {
    Entry.resize(Entry.size() / 2); // a torn write that got published
  });
}

TEST(ProofCache, BitFlippedCertificateIsQuarantinedAndReVerified) {
  corruptionRoundTrip("bitflip", [](std::string &Entry) {
    size_t Pos = Entry.find("\"canonical_cert\":\"");
    ASSERT_NE(Pos, std::string::npos);
    size_t Target = Pos + std::string("\"canonical_cert\":\"").size() + 5;
    ASSERT_LT(Target, Entry.size());
    Entry[Target] = char(Entry[Target] ^ 0x04); // silent bit rot
  });
}

TEST(ProofCache, Version3EntryIsStaleMissNotQuarantined) {
  // Version 3 entries carried a step for every syntactically skipped
  // handler; their certificates no longer match any re-derivation. Such
  // an entry left by an older binary is stale, never damage: a plain
  // miss, not rejected, not quarantined — even when its certificate
  // would pass today's re-check — then overwritten by a current entry.
  TempDir Dir("cache-v3");
  ProgramPtr P = mustLoad(MixedSrc);
  ASSERT_NE(P, nullptr);
  ProgramFingerprints FP = ProgramFingerprints::compute(*P);
  const Property &Fine = P->Properties[1];
  std::string Key = ProofCache::keyFor(FP.DeclFp, Fine, VerifyOptions{});
  std::string EntryPath = Dir.str() + "/" + Key + ".json";
  ASSERT_EQ(ProofCache::EntryVersion, 4);

  std::unique_ptr<ProofCache> Cache = mustOpen(Dir.str());
  ASSERT_NE(Cache, nullptr);
  {
    VerifySession S(*P);
    ASSERT_EQ(verifyPropertyCached(S, Fine, Cache.get(), &FP).Status,
              VerifyStatus::Proved);
  }
  std::string Entry = readAll(EntryPath);
  size_t Pos = Entry.find(currentVersionField());
  ASSERT_NE(Pos, std::string::npos);
  Entry.replace(Pos, currentVersionField().size(), "\"version\":3");
  writeAll(EntryPath, Entry);

  std::unique_ptr<ProofCache> Reopened = mustOpen(Dir.str());
  ASSERT_NE(Reopened, nullptr);
  {
    VerifySession S(*P);
    PropertyResult R = verifyPropertyCached(S, Fine, Reopened.get(), &FP);
    EXPECT_EQ(R.Status, VerifyStatus::Proved);
    EXPECT_FALSE(R.CacheHit);
    EXPECT_TRUE(R.CertChecked);
  }
  EXPECT_EQ(Reopened->stats().Misses, 1u);
  EXPECT_EQ(Reopened->stats().Rejected, 0u);
  EXPECT_EQ(Reopened->stats().Quarantined, 0u);
  EXPECT_FALSE(
      fs::exists(fs::path(Dir.str()) / "quarantine" / (Key + ".json")));
  EXPECT_NE(readAll(EntryPath).find(currentVersionField()), std::string::npos);
}

TEST(ProofCache, WrongVersionEntryIsStaleMissNotQuarantined) {
  // A well-formed entry whose version field is simply from another release
  // is *stale*, not damaged: it must decode to a plain miss — no
  // quarantine, no rejection — and be overwritten by the re-verification.
  TempDir Dir("cache-stale");
  ProgramPtr P = mustLoad(MixedSrc);
  ASSERT_NE(P, nullptr);
  ProgramFingerprints FP = ProgramFingerprints::compute(*P);
  const Property &Fine = P->Properties[1];
  std::string Key = ProofCache::keyFor(FP.DeclFp, Fine, VerifyOptions{});
  std::string EntryPath = Dir.str() + "/" + Key + ".json";

  std::unique_ptr<ProofCache> Cache = mustOpen(Dir.str());
  ASSERT_NE(Cache, nullptr);
  {
    VerifySession S(*P);
    PropertyResult R = verifyPropertyCached(S, Fine, Cache.get(), &FP);
    ASSERT_EQ(R.Status, VerifyStatus::Proved);
  }

  std::string Entry = readAll(EntryPath);
  size_t Pos = Entry.find(currentVersionField());
  ASSERT_NE(Pos, std::string::npos);
  Entry.replace(Pos, currentVersionField().size(), "\"version\":99");
  writeAll(EntryPath, Entry);

  {
    VerifySession S(*P);
    PropertyResult R = verifyPropertyCached(S, Fine, Cache.get(), &FP);
    EXPECT_EQ(R.Status, VerifyStatus::Proved);
    EXPECT_FALSE(R.CacheHit) << "stale entries are misses, never served";
    EXPECT_TRUE(R.CertChecked);
  }
  EXPECT_EQ(Cache->stats().Rejected, 0u) << "stale is not damage";
  EXPECT_EQ(Cache->stats().Quarantined, 0u) << "stale is not damage";
  EXPECT_FALSE(
      fs::exists(fs::path(Dir.str()) / "quarantine" / (Key + ".json")));

  // The re-verification overwrote the stale entry with a current one.
  EXPECT_NE(readAll(EntryPath).find(currentVersionField()), std::string::npos);
  {
    VerifySession S(*P);
    PropertyResult R = verifyPropertyCached(S, Fine, Cache.get(), &FP);
    EXPECT_TRUE(R.CacheHit);
    EXPECT_TRUE(R.CertChecked);
  }
}

TEST(ProofCache, InjectedIOFaultsNeverServeDamage) {
  TempDir Dir("cache-faultio");
  ProgramPtr P = mustLoad(MixedSrc);
  ASSERT_NE(P, nullptr);
  ProgramFingerprints FP = ProgramFingerprints::compute(*P);
  const Property &Fine = P->Properties[1];
  std::string Key = ProofCache::keyFor(FP.DeclFp, Fine, VerifyOptions{});

  std::unique_ptr<ProofCache> Cache = mustOpen(Dir.str());
  ASSERT_NE(Cache, nullptr);
  {
    VerifySession S(*P);
    ASSERT_EQ(verifyPropertyCached(S, Fine, Cache.get(), &FP).Status,
              VerifyStatus::Proved);
  }

  // Read failure: the verdict is still right, served by re-verification;
  // the intact file is not quarantined (an IO error is not damage).
  FaultPlan ReadFail;
  ReadFail.addRule({"cache.read", "", FaultKind::Fail});
  Cache->setFaultPlan(&ReadFail);
  {
    VerifySession S(*P);
    PropertyResult R = verifyPropertyCached(S, Fine, Cache.get(), &FP);
    EXPECT_EQ(R.Status, VerifyStatus::Proved);
    EXPECT_FALSE(R.CacheHit);
  }
  EXPECT_EQ(Cache->stats().Quarantined, 0u);
  EXPECT_TRUE(fs::exists(Dir.str() + "/" + Key + ".json"));

  // Truncated read: the bytes handed back are damaged even though the
  // file is fine — lookup must reject rather than trust them.
  FaultPlan ReadTorn;
  ReadTorn.addRule({"cache.read", "", FaultKind::Truncate});
  Cache->setFaultPlan(&ReadTorn);
  {
    VerifySession S(*P);
    PropertyResult R = verifyPropertyCached(S, Fine, Cache.get(), &FP);
    EXPECT_EQ(R.Status, VerifyStatus::Proved);
    EXPECT_FALSE(R.CacheHit);
  }

  // Rename failure: the store is refused, no half-published entry and no
  // leftover temp file in the cache directory.
  Cache->setFaultPlan(nullptr);
  TempDir Dir2("cache-faultrename");
  std::unique_ptr<ProofCache> Cache2 = mustOpen(Dir2.str());
  ASSERT_NE(Cache2, nullptr);
  FaultPlan NoRename;
  NoRename.addRule({"cache.rename", "", FaultKind::Fail});
  Cache2->setFaultPlan(&NoRename);
  {
    VerifySession S(*P);
    PropertyResult R = verifyPropertyCached(S, Fine, Cache2.get(), &FP);
    EXPECT_EQ(R.Status, VerifyStatus::Proved) << "verdict survives";
  }
  EXPECT_EQ(Cache2->stats().Stores, 0u);
  EXPECT_EQ(fileCount(Dir2.str()), 0u) << "failed publishes leave no junk";
}

TEST(ProofCache, OpenFailsOnUnwritableDirectory) {
  Result<std::unique_ptr<ProofCache>> C =
      ProofCache::open("/proc/reflex-no-such-cache");
  EXPECT_FALSE(C.ok());
}

TEST(Scheduler, WarmCacheServesWholeBatch) {
  TempDir Dir("cache-batch");
  ProgramPtr Ssh = kernels::load(kernels::ssh());
  ProgramPtr Ssh2 = kernels::load(kernels::ssh2());
  std::vector<const Program *> Programs{Ssh.get(), Ssh2.get()};

  std::unique_ptr<ProofCache> Cache = mustOpen(Dir.str());
  ASSERT_NE(Cache, nullptr);
  SchedulerOptions Opts;
  Opts.Jobs = 4;
  Opts.Cache = Cache.get();

  BatchOutcome Cold = verifyPrograms(Programs, Opts);
  EXPECT_EQ(Cold.CacheStats.Hits, 0u);
  EXPECT_EQ(Cold.CacheStats.Misses, Cold.propertyCount());

  BatchOutcome Warm = verifyPrograms(Programs, Opts);
  EXPECT_EQ(Warm.CacheStats.Hits, Warm.propertyCount());
  EXPECT_EQ(Warm.CacheStats.Misses, 0u);
  EXPECT_EQ(Warm.CacheStats.Rejected, 0u);
  ASSERT_EQ(Warm.Reports.size(), Cold.Reports.size());
  for (size_t P = 0; P < Warm.Reports.size(); ++P) {
    EXPECT_EQ(Warm.Reports[P].ProofCacheHits,
              Warm.Reports[P].Results.size());
    for (size_t I = 0; I < Warm.Reports[P].Results.size(); ++I) {
      const PropertyResult &W = Warm.Reports[P].Results[I];
      const PropertyResult &C = Cold.Reports[P].Results[I];
      EXPECT_EQ(W.Status, C.Status) << W.Name;
      EXPECT_EQ(W.Reason, C.Reason) << W.Name;
      EXPECT_TRUE(W.CacheHit);
      if (W.Status == VerifyStatus::Proved) {
        EXPECT_TRUE(W.CertChecked);
      }
    }
  }
}

TEST(ProofCache, FootprintRelativeHitSurvivesUnrelatedEdit) {
  TempDir Dir("cache-footprint");
  const kernels::KernelDef &K = kernels::ssh();
  ProgramPtr P1 = kernels::load(K);

  // Warm the cache from the pristine kernel.
  std::unique_ptr<ProofCache> Cache = mustOpen(Dir.str());
  ASSERT_NE(Cache, nullptr);
  ProgramFingerprints Fp1 = ProgramFingerprints::compute(*P1);
  {
    VerifySession S(*P1);
    for (const Property &Prop : P1->Properties)
      ASSERT_EQ(verifyPropertyCached(S, Prop, Cache.get(), &Fp1).Status,
                VerifyStatus::Proved);
  }

  // Edit one handler body without changing its interface or its symbolic
  // behaviour: Password=>Auth gains a duplicated assignment. The printed
  // body (and so the handler fingerprint) changes, but every path's
  // symbolic post-state is identical — path-granular validation serves
  // the whole batch, including the proofs that consulted the handler.
  std::string Src2 = K.Source;
  size_t Pos = Src2.find("auth_ok = true;");
  ASSERT_NE(Pos, std::string::npos);
  Src2.insert(Pos, "auth_user = user;\n  ");
  ProgramPtr P2 = mustLoad(Src2);
  ASSERT_NE(P2, nullptr);
  ProgramFingerprints Fp2 = ProgramFingerprints::compute(*P2);
  ASSERT_EQ(Fp1.DeclFp, Fp2.DeclFp);
  ASSERT_NE(Fp1.HandlersFp, Fp2.HandlersFp);

  uint64_t FootprintHits = 0, Misses = 0;
  {
    VerifySession S(*P2);
    for (const Property &Prop : P2->Properties) {
      PropertyResult R = verifyPropertyCached(S, Prop, Cache.get(), &Fp2);
      EXPECT_EQ(R.Status, VerifyStatus::Proved) << Prop.Name;
      if (R.FootprintHit) {
        EXPECT_TRUE(R.CacheHit);
        EXPECT_TRUE(R.CertChecked)
            << "footprint-relative proved hits replay the checker too";
        ++FootprintHits;
      }
      if (!R.CacheHit)
        ++Misses;
    }
  }
  EXPECT_EQ(Misses, 0u)
      << "a symbolically invisible edit re-verifies nothing";
  EXPECT_EQ(FootprintHits, uint64_t(P2->Properties.size()));
  EXPECT_EQ(Cache->stats().FootprintHits, FootprintHits);
  EXPECT_EQ(Cache->stats().Quarantined, 0u)
      << "a stale entry is a miss, not damage";

  // A semantically *visible* body edit of Connection=>ReqAuth — the third
  // attempt now parks the counter at 4 instead of 3 — changes the entered
  // paths' full fingerprints. Proofs that consulted that path fall back
  // and re-verify; proofs disjoint from the handler still hit.
  std::string SrcV = K.Source;
  Pos = SrcV.find("attempts = 3;");
  ASSERT_NE(Pos, std::string::npos);
  SrcV.replace(Pos, std::string("attempts = 3;").size(), "attempts = 4;");
  ProgramPtr PV = mustLoad(SrcV);
  ASSERT_NE(PV, nullptr);
  ProgramFingerprints FpV = ProgramFingerprints::compute(*PV);
  ASSERT_EQ(Fp1.DeclFp, FpV.DeclFp);

  uint64_t VisHits = 0, VisMisses = 0;
  {
    VerifySession S(*PV);
    for (const Property &Prop : PV->Properties) {
      PropertyResult R = verifyPropertyCached(S, Prop, Cache.get(), &FpV);
      EXPECT_EQ(R.Status, VerifyStatus::Proved) << Prop.Name;
      if (R.FootprintHit)
        ++VisHits;
      if (!R.CacheHit) {
        ++VisMisses;
        EXPECT_TRUE(R.PathFallback) << Prop.Name;
      }
    }
  }
  EXPECT_GT(VisHits, 0u)
      << "proofs disjoint from Connection=>ReqAuth must still be served";
  EXPECT_GT(VisMisses, 0u)
      << "proofs that consulted the edited path must re-verify";
  EXPECT_GE(Cache->stats().PathFallbacks, VisMisses);

  // An interface-changing edit of the same handler invalidates even the
  // disjoint proofs: the skip predicates factor through the interface.
  std::string Src3 = K.Source;
  Pos = Src3.find("auth_ok = true;");
  ASSERT_NE(Pos, std::string::npos);
  Src3.insert(Pos, "attempts = attempts;\n  ");
  ProgramPtr P3 = mustLoad(Src3);
  ASSERT_NE(P3, nullptr);
  ProgramFingerprints Fp3 = ProgramFingerprints::compute(*P3);
  {
    VerifySession S(*P3);
    PropertyResult R =
        verifyPropertyCached(S, P3->Properties[0], Cache.get(), &Fp3);
    EXPECT_EQ(R.Status, VerifyStatus::Proved);
    EXPECT_FALSE(R.CacheHit);
  }
}

TEST(Scheduler, IdenticalJobsAreDedupedBeforeDispatch) {
  // The same kernel loaded twice: every (program, property) pair of the
  // second copy is byte-identical to the first's, so only the first
  // copy's jobs dispatch and the duplicates' slots carry copies.
  ProgramPtr A = kernels::load(kernels::ssh());
  ProgramPtr B = kernels::load(kernels::ssh());
  SchedulerOptions Opts;
  Opts.Jobs = 4;
  BatchOutcome Out = verifyPrograms({A.get(), B.get()}, Opts);

  EXPECT_EQ(Out.DedupedJobs, uint64_t(B->Properties.size()));
  ASSERT_EQ(Out.Reports.size(), 2u);
  ASSERT_EQ(Out.Reports[0].Results.size(), Out.Reports[1].Results.size());
  EXPECT_TRUE(Out.allProved());
  for (size_t I = 0; I < Out.Reports[0].Results.size(); ++I) {
    const PropertyResult &R0 = Out.Reports[0].Results[I];
    const PropertyResult &R1 = Out.Reports[1].Results[I];
    EXPECT_EQ(R0.Name, R1.Name);
    EXPECT_EQ(R0.Status, R1.Status);
    EXPECT_EQ(R0.Reason, R1.Reason);
    EXPECT_EQ(R0.CertJson, R1.CertJson)
        << "deduped slots carry the canonical job's certificate";
  }

  // Distinct programs never dedupe.
  ProgramPtr C = kernels::load(kernels::ssh2());
  BatchOutcome Mixed = verifyPrograms({A.get(), C.get()}, Opts);
  EXPECT_EQ(Mixed.DedupedJobs, 0u);
}

//===----------------------------------------------------------------------===//
// Scheduler fault tolerance: retries, crash isolation, injected budgets
//===----------------------------------------------------------------------===//

TEST(Scheduler, WorkerCrashIsRetriedThenIsolated) {
  ProgramPtr P = mustLoad(MixedSrc);
  ASSERT_NE(P, nullptr);
  // Property order in MixedSrc: Bad (Unknown), Fine (Proved).
  FaultPlan Plan;
  // Fine's worker throws on attempt 0 only: the retry must succeed.
  Plan.addRule({"worker", "/Fine#0", FaultKind::Fail});
  // Bad's worker throws on every attempt: the job must exhaust its
  // retries and report the crash in place — the batch still completes.
  Plan.addRule({"worker", "/Bad", FaultKind::Fail});

  SchedulerOptions Opts;
  Opts.Jobs = 1;
  Opts.Retries = 1;
  Opts.RetryBackoffMs = 0;
  Opts.Faults = &Plan;
  BatchOutcome Out = verifyPrograms({P.get()}, Opts);

  ASSERT_EQ(Out.Reports.size(), 1u);
  ASSERT_EQ(Out.Reports[0].Results.size(), 2u);
  const PropertyResult &Bad = Out.Reports[0].Results[0];
  const PropertyResult &Fine = Out.Reports[0].Results[1];

  EXPECT_EQ(Bad.Name, "Bad");
  EXPECT_EQ(Bad.Status, VerifyStatus::Aborted);
  EXPECT_NE(Bad.Reason.find("worker crashed"), std::string::npos)
      << Bad.Reason;
  EXPECT_NE(Bad.Reason.find("injected worker fault"), std::string::npos);
  EXPECT_NE(Bad.Reason.find("2 attempts"), std::string::npos);
  EXPECT_EQ(Bad.Attempts, 2u);

  EXPECT_EQ(Fine.Name, "Fine");
  EXPECT_EQ(Fine.Status, VerifyStatus::Proved)
      << "a crash on the first attempt must not cost the verdict";
  EXPECT_TRUE(Fine.CertChecked);
  EXPECT_EQ(Fine.Attempts, 2u);
}

TEST(Scheduler, InjectedBudgetExhaustionIsReportedNotCached) {
  TempDir Dir("cache-budget");
  ProgramPtr P = mustLoad(MixedSrc);
  ASSERT_NE(P, nullptr);
  std::unique_ptr<ProofCache> Cache = mustOpen(Dir.str());
  ASSERT_NE(Cache, nullptr);

  FaultPlan Plan;
  Plan.addRule({"budget", "/Fine", FaultKind::Fail}); // one-step budget
  SchedulerOptions Opts;
  Opts.Jobs = 1;
  Opts.Retries = 1;
  Opts.RetryBackoffMs = 0;
  Opts.Faults = &Plan;
  Opts.Cache = Cache.get();
  BatchOutcome Out = verifyPrograms({P.get()}, Opts);

  ASSERT_EQ(Out.Reports.size(), 1u);
  const PropertyResult &Fine = Out.Reports[0].Results[1];
  EXPECT_EQ(Fine.Status, VerifyStatus::ResourceExhausted);
  EXPECT_NE(Fine.Reason.find("step budget"), std::string::npos)
      << Fine.Reason;
  EXPECT_EQ(Fine.Attempts, 2u) << "budget statuses are transient: retried";

  // Budget statuses are circumstances, not verdicts: never persisted.
  std::string Key = ProofCache::keyFor(ProgramFingerprints::compute(*P).DeclFp,
                                       P->Properties[1], VerifyOptions{});
  EXPECT_FALSE(fs::exists(Dir.str() + "/" + Key + ".json"));

  // Without the fault the same batch proves Fine — and the cached entry
  // appears.
  SchedulerOptions Clean = Opts;
  Clean.Faults = nullptr;
  BatchOutcome Ok = verifyPrograms({P.get()}, Clean);
  EXPECT_EQ(Ok.Reports[0].Results[1].Status, VerifyStatus::Proved);
  EXPECT_TRUE(fs::exists(Dir.str() + "/" + Key + ".json"));
}

/// The PR's acceptance scenario: a warm cache with three unusable
/// entries (truncated, bit-flipped — damage; wrong version — stale),
/// one property whose worker crashes on every attempt, and one property
/// that exhausts an injected budget. The batch must complete with a
/// declaration-ordered report, identical verdicts at 1 and 4 workers,
/// the two damaged entries quarantined on disk, and the stale entry
/// re-verified in place without quarantine.
std::vector<std::string> runFaultedAcceptanceBatch(unsigned Jobs) {
  ProgramPtr Ssh = kernels::load(kernels::ssh());
  ProgramPtr Car = kernels::load(kernels::car());
  std::vector<const Program *> Programs{Ssh.get(), Car.get()};

  TempDir Dir("cache-accept-" + std::to_string(Jobs));
  std::unique_ptr<ProofCache> Cache = mustOpen(Dir.str());
  EXPECT_NE(Cache, nullptr);

  // Warm the cache faultlessly.
  SchedulerOptions Fill;
  Fill.Jobs = Jobs;
  Fill.Cache = Cache.get();
  BatchOutcome Cold = verifyPrograms(Programs, Fill);
  EXPECT_TRUE(Cold.allProved());

  // Corrupt three of car's entries on disk, three different ways.
  EXPECT_GE(Car->Properties.size(), 3u);
  std::vector<std::string> CorruptKeys;
  for (size_t I = 0; I < 3; ++I) {
    std::string Key = ProofCache::keyFor(ProgramFingerprints::compute(*Car).DeclFp,
                                         Car->Properties[I],
                                         VerifyOptions{});
    std::string Path = Dir.str() + "/" + Key + ".json";
    std::string Entry = readAll(Path);
    EXPECT_FALSE(Entry.empty()) << Path;
    if (I == 0) {
      Entry.resize(Entry.size() / 2);
    } else if (I == 1) {
      size_t Pos = Entry.find("\"canonical_cert\":\"");
      EXPECT_NE(Pos, std::string::npos);
      Entry[Pos + 25] = char(Entry[Pos + 25] ^ 0x04);
    } else {
      size_t Pos = Entry.find(currentVersionField());
      EXPECT_NE(Pos, std::string::npos);
      Entry.replace(Pos, currentVersionField().size(), "\"version\":99");
    }
    writeAll(Path, Entry);
    CorruptKeys.push_back(Key);
  }

  // Stage the runtime faults: ssh's first property crashes its worker on
  // every attempt, ssh's second runs under an injected one-step budget.
  FaultPlan Plan;
  Plan.addRule({"worker", Ssh->Name + "/" + Ssh->Properties[0].Name,
                FaultKind::Fail});
  Plan.addRule({"budget", Ssh->Name + "/" + Ssh->Properties[1].Name,
                FaultKind::Fail});

  SchedulerOptions Opts;
  Opts.Jobs = Jobs;
  Opts.Cache = Cache.get();
  Opts.Faults = &Plan;
  Opts.Retries = 1;
  Opts.RetryBackoffMs = 0;
  BatchOutcome Out = verifyPrograms(Programs, Opts);

  // Complete, declaration-ordered report.
  EXPECT_EQ(Out.Reports.size(), 2u);
  std::vector<std::string> Flat;
  for (size_t PI = 0; PI < Programs.size(); ++PI) {
    EXPECT_EQ(Out.Reports[PI].Results.size(),
              Programs[PI]->Properties.size());
    for (size_t I = 0; I < Out.Reports[PI].Results.size(); ++I) {
      const PropertyResult &R = Out.Reports[PI].Results[I];
      EXPECT_EQ(R.Name, Programs[PI]->Properties[I].Name)
          << "declaration order";
      Flat.push_back(R.Name + "|" + verifyStatusName(R.Status) + "|" +
                     R.Reason + "|" + std::to_string(R.Attempts));
    }
  }

  // The staged outcomes.
  EXPECT_EQ(Out.Reports[0].Results[0].Status, VerifyStatus::Aborted);
  EXPECT_NE(Out.Reports[0].Results[0].Reason.find("worker crashed"),
            std::string::npos);
  EXPECT_EQ(Out.Reports[0].Results[1].Status,
            VerifyStatus::ResourceExhausted);
  for (size_t I = 2; I < Out.Reports[0].Results.size(); ++I)
    EXPECT_EQ(Out.Reports[0].Results[I].Status, VerifyStatus::Proved);
  for (const PropertyResult &R : Out.Reports[1].Results)
    EXPECT_EQ(R.Status, VerifyStatus::Proved)
        << "corrupted entries re-verify: " << R.Name;

  // The evidence: both damaged entries quarantined, counted once; the
  // stale (wrong-version) entry is a plain miss, never quarantined.
  EXPECT_EQ(Out.CacheStats.Quarantined, 2u);
  EXPECT_EQ(Out.CacheStats.Rejected, 2u);
  for (size_t I = 0; I < 2; ++I)
    EXPECT_TRUE(fs::exists(fs::path(Dir.str()) / "quarantine" /
                           (CorruptKeys[I] + ".json")))
        << CorruptKeys[I];
  EXPECT_FALSE(fs::exists(fs::path(Dir.str()) / "quarantine" /
                          (CorruptKeys[2] + ".json")))
      << "stale entries are not evidence of damage";
  return Flat;
}

TEST(Scheduler, FaultedBatchIsCompleteAndDeterministicAcrossWorkerCounts) {
  std::vector<std::string> OneWorker = runFaultedAcceptanceBatch(1);
  std::vector<std::string> FourWorkers = runFaultedAcceptanceBatch(4);
  EXPECT_EQ(OneWorker, FourWorkers)
      << "verdicts, reasons, and attempt counts must not depend on the "
         "worker count";
}

/// Footprint-relative warm batch under faults: warm a cache from the
/// pristine ssh kernel, edit one handler body interface-preservingly but
/// semantically visibly (the third login attempt parks the counter at 4),
/// then re-verify the edited kernel from the warm cache with an injected
/// first-attempt worker crash. Footprint-relative hits must serve the
/// edit-disjoint proofs, and the flattened verdicts must not depend on
/// the worker count.
std::vector<std::string> runFootprintWarmBatch(unsigned Jobs) {
  const kernels::KernelDef &K = kernels::ssh();
  ProgramPtr P1 = kernels::load(K);
  std::string Src2 = K.Source;
  size_t Pos = Src2.find("attempts = 3;");
  EXPECT_NE(Pos, std::string::npos);
  Src2.replace(Pos, std::string("attempts = 3;").size(), "attempts = 4;");
  ProgramPtr P2 = mustLoad(Src2);
  EXPECT_NE(P2, nullptr);

  TempDir Dir("cache-fpwarm-" + std::to_string(Jobs));
  std::unique_ptr<ProofCache> Cache = mustOpen(Dir.str());
  EXPECT_NE(Cache, nullptr);
  SchedulerOptions Fill;
  Fill.Jobs = Jobs;
  Fill.Cache = Cache.get();
  BatchOutcome Cold = verifyPrograms({P1.get()}, Fill);
  EXPECT_TRUE(Cold.allProved());

  FaultPlan Plan;
  Plan.addRule({"worker", P2->Name + "/" + P2->Properties[0].Name + "#0",
                FaultKind::Fail});
  SchedulerOptions Opts;
  Opts.Jobs = Jobs;
  Opts.Cache = Cache.get();
  Opts.Faults = &Plan;
  Opts.Retries = 1;
  Opts.RetryBackoffMs = 0;
  BatchOutcome Out = verifyPrograms({P2.get()}, Opts);
  EXPECT_TRUE(Out.allProved());
  EXPECT_GT(Out.CacheStats.FootprintHits, 0u)
      << "edit-disjoint proofs must be served footprint-relatively";
  EXPECT_GT(Out.CacheStats.Misses, 0u)
      << "the edited handler's dependents must re-verify";

  std::vector<std::string> Flat;
  for (const PropertyResult &R : Out.Reports[0].Results)
    Flat.push_back(R.Name + "|" + verifyStatusName(R.Status) + "|" +
                   R.Reason + "|" + std::to_string(R.Attempts) + "|" +
                   (R.FootprintHit ? "fp" : "-"));
  return Flat;
}

TEST(Scheduler, FootprintWarmBatchDeterministicAcrossWorkerCounts) {
  std::vector<std::string> OneWorker = runFootprintWarmBatch(1);
  std::vector<std::string> FourWorkers = runFootprintWarmBatch(4);
  EXPECT_EQ(OneWorker, FourWorkers)
      << "footprint-relative reuse must not depend on the worker count";
}

//===----------------------------------------------------------------------===//
// Two-phase sharing: one frozen abstraction, many racing sessions
//===----------------------------------------------------------------------===//

/// Serializes a report with the run-to-run-varying fields (wall clock and
/// work-effort counters — timing and effort, never verdicts) zeroed, so
/// what remains must be byte-identical across worker counts and
/// interleavings: names, statuses, reasons, certificate checks, attempt
/// counts.
std::string stableReportJson(VerificationReport R) {
  R.TotalMillis = 0;
  R.TermCount = 0;
  R.SolverQueries = 0;
  R.InvariantCacheHits = 0;
  R.SolverMemoHits = 0;
  R.SolverAssumptionChecks = 0;
  R.SolverTrailUndos = 0;
  R.SolverReasonLogBytes = 0;
  for (PropertyResult &PR : R.Results)
    PR.Millis = 0;
  return R.toJson();
}

TEST(Scheduler, RacingSessionsOverOneFrozenAbstractionAgree) {
  // The cross-thread schedule the scheduler cannot produce on a small
  // machine (it never runs more OS threads than cores): four raw threads,
  // each with a private overlay session, racing over one shared
  // FrozenAbstraction. Under TSan (tools/run_tsan.sh) this is the
  // data-race check for the frozen base shared by every worker; on any
  // host it checks that every racing session produces the one-worker
  // report, byte for byte.
  ProgramPtr P = kernels::load(kernels::ssh2());
  std::shared_ptr<const FrozenAbstraction> Abs =
      FrozenAbstraction::build(*P);
  ASSERT_EQ(Abs->buildOutcome(), BudgetOutcome::Ok);

  SchedulerOptions Seq;
  Seq.Jobs = 1;
  VerificationReport RefReport = verifyParallel(*P, Seq);
  std::vector<std::string> RefCerts;
  for (const PropertyResult &PR : RefReport.Results)
    RefCerts.push_back(PR.CertJson);
  std::string Ref = stableReportJson(std::move(RefReport));

  constexpr unsigned NumThreads = 4;
  std::vector<std::string> Got(NumThreads);
  std::vector<std::vector<std::string>> Certs(NumThreads);
  {
    std::vector<std::thread> Threads;
    for (unsigned T = 0; T < NumThreads; ++T)
      Threads.emplace_back([&, T] {
        VerifySession S(Abs);
        VerificationReport R = S.verifyAll();
        for (const PropertyResult &PR : R.Results)
          Certs[T].push_back(PR.CertJson);
        Got[T] = stableReportJson(std::move(R));
      });
    for (std::thread &T : Threads)
      T.join();
  }
  for (unsigned T = 0; T < NumThreads; ++T) {
    EXPECT_EQ(Got[T], Ref) << "thread " << T;
    EXPECT_EQ(Certs[T], RefCerts)
        << "thread " << T << ": certificates must be interleaving-free";
  }
}

//===----------------------------------------------------------------------===//
// Incremental verifier backed by the persistent cache
//===----------------------------------------------------------------------===//

TEST(Incremental, PersistentCacheSurvivesVerifierInstances) {
  TempDir Dir("cache-incr");
  ProgramPtr P = kernels::load(kernels::ssh2());
  std::unique_ptr<ProofCache> Cache = mustOpen(Dir.str());
  ASSERT_NE(Cache, nullptr);

  // First instance: populates the cache.
  {
    IncrementalVerifier IV(VerifyOptions{}, Cache.get());
    auto Out = IV.verify(*P);
    EXPECT_EQ(Out.CacheHits, 0u);
    EXPECT_EQ(Out.Reverified, P->Properties.size());
    EXPECT_TRUE(Out.Report.allProved());
  }

  // Second instance (a "restarted process"): no in-memory verdicts, so
  // everything re-verifies — but every verdict is answered by the
  // persistent cache, checker-validated.
  IncrementalVerifier IV(VerifyOptions{}, Cache.get());
  auto Out = IV.verify(*P);
  EXPECT_EQ(Out.Reused, 0u);
  EXPECT_EQ(Out.Reverified, P->Properties.size());
  EXPECT_EQ(Out.CacheHits, P->Properties.size());
  EXPECT_TRUE(Out.Report.allProved());

  // Third call on the same instance: in-memory reuse, and the reused
  // proved verdicts still carry their certificate JSON.
  auto Again = IV.verify(*P);
  EXPECT_EQ(Again.Reused, P->Properties.size());
  for (const PropertyResult &R : Again.Report.Results) {
    if (R.Status == VerifyStatus::Proved) {
      EXPECT_FALSE(R.CertJson.empty())
          << "reused verdicts must retain certificates: " << R.Name;
    }
  }
}

//===----------------------------------------------------------------------===//
// Batch cancellation (SchedulerOptions::Cancel)
//===----------------------------------------------------------------------===//

TEST(Scheduler, CancelledBatchAbortsEveryJobInPlace) {
  ProgramPtr P = kernels::load(kernels::ssh());
  SchedulerOptions S;
  S.Jobs = 2;
  S.Cancel = std::make_shared<CancelFlag>();
  S.Cancel->cancel(); // beats dispatch: every job aborts without running
  BatchOutcome B = verifyPrograms({P.get()}, S);
  ASSERT_EQ(B.Reports[0].Results.size(), P->Properties.size());
  for (const PropertyResult &R : B.Reports[0].Results) {
    EXPECT_EQ(R.Status, VerifyStatus::Aborted) << R.Name;
    EXPECT_EQ(R.Reason, "verification budget exhausted: cancelled by caller");
    EXPECT_EQ(R.Attempts, 1u) << "Aborted must never be retried: " << R.Name;
  }
}

TEST(Scheduler, CancelledBatchLeavesLaterIdenticalBatchesByteIdentical) {
  ProgramPtr P = kernels::load(kernels::ssh2());
  TempDir Dir("cache-cancel");
  std::unique_ptr<ProofCache> Cache = mustOpen(Dir.str());
  ASSERT_NE(Cache, nullptr);

  // The baseline: the batch's verdicts with no cancellation anywhere in
  // the process's history (fresh share, fresh cache-free run).
  SchedulerOptions Base;
  Base.Jobs = 2;
  BatchOutcome Want = verifyPrograms({P.get()}, Base);

  // A cancelled batch against a persistent share and a proof cache: the
  // worst case for poisoning, since both outlive the batch.
  VerifyShare Share;
  SchedulerOptions S = Base;
  S.Cache = Cache.get();
  S.Share = &Share;
  S.Cancel = std::make_shared<CancelFlag>();
  S.Cancel->cancel();
  BatchOutcome Cancelled = verifyPrograms({P.get()}, S);
  for (const PropertyResult &R : Cancelled.Reports[0].Results)
    EXPECT_EQ(R.Status, VerifyStatus::Aborted) << R.Name;
  EXPECT_EQ(Cache->stats().Stores, 0u)
      << "Aborted results must never be cached";

  // The identical batch with a live (unfired) token, reusing the same
  // share and cache: byte-identical to the never-cancelled baseline.
  S.Cancel = std::make_shared<CancelFlag>();
  BatchOutcome Clean = verifyPrograms({P.get()}, S);
  ASSERT_EQ(Clean.Reports[0].Results.size(), Want.Reports[0].Results.size());
  for (size_t I = 0; I < Want.Reports[0].Results.size(); ++I) {
    const PropertyResult &Got = Clean.Reports[0].Results[I];
    const PropertyResult &W = Want.Reports[0].Results[I];
    EXPECT_EQ(Got.Name, W.Name);
    EXPECT_EQ(Got.Status, W.Status) << W.Name;
    EXPECT_EQ(Got.Reason, W.Reason) << W.Name;
    EXPECT_EQ(Got.CertJson, W.CertJson) << W.Name;
  }
}

//===----------------------------------------------------------------------===//
// Session-scoped batches and persistent shares
//===----------------------------------------------------------------------===//

TEST(Scheduler, PropertySubsetVerifiesExactlyTheRequestedIndices) {
  ProgramPtr P = kernels::load(kernels::ssh());
  SchedulerOptions S;
  S.Jobs = 2;
  BatchOutcome Full = verifyPrograms({P.get()}, S);

  // Reversed order, with an out-of-range index that must be ignored.
  std::vector<size_t> Idx;
  for (size_t I = P->Properties.size(); I-- > 0;)
    Idx.push_back(I);
  Idx.push_back(P->Properties.size() + 7);
  BatchOutcome Sub = verifyPropertySubset(*P, Idx, S);
  ASSERT_EQ(Sub.Reports.size(), 1u);
  ASSERT_EQ(Sub.Reports[0].Results.size(), P->Properties.size());
  for (size_t J = 0; J < P->Properties.size(); ++J) {
    const PropertyResult &Got = Sub.Reports[0].Results[J];
    const PropertyResult &W =
        Full.Reports[0].Results[P->Properties.size() - 1 - J];
    EXPECT_EQ(Got.Name, W.Name) << "subset order must follow PropIdx";
    EXPECT_EQ(Got.Status, W.Status) << W.Name;
    EXPECT_EQ(Got.Reason, W.Reason) << W.Name;
    EXPECT_EQ(Got.CertJson, W.CertJson) << W.Name;
  }
}

TEST(Scheduler, PersistentShareStaysWarmAndVerdictIdenticalAcrossBatches) {
  ProgramPtr P = kernels::load(kernels::ssh2());
  SchedulerOptions S;
  S.Jobs = 2;
  BatchOutcome Want = verifyPrograms({P.get()}, S);

  VerifyShare Share;
  EXPECT_FALSE(Share.warm());
  S.Share = &Share;
  for (int Round = 0; Round < 3; ++Round) {
    BatchOutcome B = verifyPrograms({P.get()}, S);
    EXPECT_TRUE(Share.warm()) << "round " << Round
                              << " should leave the abstraction built";
    ASSERT_EQ(B.Reports[0].Results.size(), Want.Reports[0].Results.size());
    for (size_t I = 0; I < Want.Reports[0].Results.size(); ++I) {
      const PropertyResult &Got = B.Reports[0].Results[I];
      const PropertyResult &W = Want.Reports[0].Results[I];
      EXPECT_EQ(Got.Status, W.Status) << W.Name << " round " << Round;
      EXPECT_EQ(Got.Reason, W.Reason) << W.Name << " round " << Round;
      EXPECT_EQ(Got.CertJson, W.CertJson) << W.Name << " round " << Round;
    }
  }
}

//===----------------------------------------------------------------------===//
// Footprint-aware cache GC
//===----------------------------------------------------------------------===//

TEST(ProofCache, GcDropsDeadProgramsAndKeepsLiveOnesWarm) {
  TempDir Dir("cache-gc");
  ProgramPtr Live = kernels::load(kernels::ssh2());
  ProgramPtr Dead = kernels::load(kernels::car());
  std::string LiveId =
      ProofCache::declId(ProgramFingerprints::compute(*Live).DeclFp);

  uint64_t LiveStores = 0, DeadStores = 0;
  {
    std::unique_ptr<ProofCache> Cache = mustOpen(Dir.str());
    ASSERT_NE(Cache, nullptr);
    SchedulerOptions S;
    S.Cache = Cache.get();
    verifyPrograms({Live.get()}, S);
    LiveStores = Cache->stats().Stores;
    verifyPrograms({Dead.get()}, S);
    DeadStores = Cache->stats().Stores - LiveStores;
  }
  ASSERT_GT(LiveStores, 0u);
  ASSERT_GT(DeadStores, 0u);
  auto CountEntries = [&] {
    size_t N = 0;
    for (const auto &E : fs::directory_iterator(Dir.str()))
      if (E.is_regular_file() && E.path().extension() == ".json")
        ++N;
    return N;
  };
  ASSERT_EQ(CountEntries(), size_t(LiveStores + DeadStores));

  // Reopen (a fresh process) and collect everything but Live.
  std::unique_ptr<ProofCache> Cache = mustOpen(Dir.str());
  ASSERT_NE(Cache, nullptr);
  ProofCache::GcOutcome G = Cache->gc({LiveId});
  EXPECT_EQ(G.Scanned, LiveStores + DeadStores);
  EXPECT_EQ(G.Dropped, DeadStores);
  EXPECT_EQ(G.Kept, LiveStores);
  EXPECT_EQ(CountEntries(), size_t(LiveStores))
      << "GC must shrink the directory to the live entries";
  EXPECT_EQ(Cache->stats().GcRuns, 1u);
  EXPECT_EQ(Cache->stats().GcDropped, DeadStores);

  // The survivors still serve checker-validated warm hits...
  SchedulerOptions S;
  S.Cache = Cache.get();
  BatchOutcome Warm = verifyPrograms({Live.get()}, S);
  EXPECT_EQ(Warm.Reports[0].ProofCacheHits, Live->Properties.size());
  EXPECT_EQ(Warm.Reports[0].ProofCacheMisses, 0u);
  // ...and the collected program is simply a cold miss again.
  BatchOutcome Cold = verifyPrograms({Dead.get()}, S);
  EXPECT_EQ(Cold.Reports[0].ProofCacheHits, 0u);
  EXPECT_GT(Cold.Reports[0].ProofCacheMisses, 0u);
}

TEST(ProofCache, GcTreatsUndecodableEntriesAsDead) {
  TempDir Dir("cache-gc-junk");
  ProgramPtr Live = kernels::load(kernels::ssh2());
  std::string LiveId =
      ProofCache::declId(ProgramFingerprints::compute(*Live).DeclFp);
  std::unique_ptr<ProofCache> Cache = mustOpen(Dir.str());
  ASSERT_NE(Cache, nullptr);
  SchedulerOptions S;
  S.Cache = Cache.get();
  verifyPrograms({Live.get()}, S);
  uint64_t Stores = Cache->stats().Stores;
  ASSERT_GT(Stores, 0u);

  // An entry nobody can decode carries no provenance; dropping it only
  // costs a re-verification, so GC collects it.
  std::ofstream(fs::path(Dir.str()) / "garbage.json") << "{not json";
  ProofCache::GcOutcome G = Cache->gc({LiveId});
  EXPECT_EQ(G.Scanned, Stores + 1);
  EXPECT_EQ(G.Dropped, 1u);
  EXPECT_EQ(G.Kept, Stores);
}

//===----------------------------------------------------------------------===//
// Proof engines through the service layer (docs/ENGINES.md)
//===----------------------------------------------------------------------===//

/// The whole suite plus the engine-separating pdrlock kernel, verified
/// under \p Kind, flattened to byte-comparable verdict strings.
std::vector<std::string> runEngineBatch(EngineKind Kind, unsigned Jobs,
                                        uint64_t FaultSeed = 0) {
  ProgramPtr Ssh2 = kernels::load(kernels::ssh2());
  ProgramPtr Car = kernels::load(kernels::car());
  ProgramPtr Lock = kernels::load(kernels::pdrlock());
  std::vector<const Program *> Programs{Ssh2.get(), Car.get(), Lock.get()};

  SchedulerOptions Opts;
  Opts.Jobs = Jobs;
  Opts.Verify.Engine = Kind;
  // A seeded probabilistic plan plus one staged crash: every fault
  // decision is a pure function of (site, key, seed), so the flattened
  // verdicts must be identical for the same seed at any worker count.
  FaultPlan Plan(FaultSeed, FaultSeed ? 10 : 0);
  if (FaultSeed) {
    Plan.addRule({"worker", Lock->Name + "/" +
                      Lock->Properties[0].Name + "#0",
                  FaultKind::Fail});
    Opts.Faults = &Plan;
    Opts.Retries = 1;
    Opts.RetryBackoffMs = 0;
  }
  BatchOutcome Out = verifyPrograms(Programs, Opts);
  std::vector<std::string> Flat;
  for (const VerificationReport &Rep : Out.Reports)
    for (const PropertyResult &R : Rep.Results)
      Flat.push_back(R.Name + "|" + verifyStatusName(R.Status) + "|" +
                     R.Reason + "|" + R.ServedBy + "|" + R.CertJson);
  return Flat;
}

TEST(Scheduler, PdrVerdictsDeterministicAcrossWorkersAndSharing) {
  std::vector<std::string> Base = runEngineBatch(EngineKind::Pdr, 1);
  EXPECT_EQ(Base, runEngineBatch(EngineKind::Pdr, 4));
}

TEST(Scheduler, PortfolioVerdictsDeterministicAcrossWorkersAndSharing) {
  // The canonical selection rule makes portfolio verdicts independent
  // of scheduling: statuses, reasons, serving engines, and certificate
  // bytes all agree across worker counts.
  std::vector<std::string> Base = runEngineBatch(EngineKind::Portfolio, 1);
  EXPECT_EQ(Base, runEngineBatch(EngineKind::Portfolio, 4));
}

TEST(Scheduler, FaultedPortfolioVerdictsAreSeedDeterministic) {
  // A seeded worker crash on pdrlock's property, retried once: the final
  // verdicts (portfolio selection included) must not depend on the
  // worker count.
  std::vector<std::string> One = runEngineBatch(EngineKind::Portfolio, 1, 7);
  std::vector<std::string> Four = runEngineBatch(EngineKind::Portfolio, 4, 7);
  EXPECT_EQ(One, Four);
}

TEST(ProofCache, EngineJoinsTheCacheKey) {
  ProgramPtr P = kernels::load(kernels::pdrlock());
  ASSERT_NE(P, nullptr);
  ProgramFingerprints FP = ProgramFingerprints::compute(*P);
  const Property &Prop = P->Properties[0];
  VerifyOptions Ind, Pdr, Port;
  Pdr.Engine = EngineKind::Pdr;
  Port.Engine = EngineKind::Portfolio;
  std::string KInd = ProofCache::keyFor(FP.DeclFp, Prop, Ind);
  std::string KPdr = ProofCache::keyFor(FP.DeclFp, Prop, Pdr);
  std::string KPort = ProofCache::keyFor(FP.DeclFp, Prop, Port);
  // Different engines may return different verdicts for the same
  // property, so they must never share an entry.
  EXPECT_NE(KInd, KPdr);
  EXPECT_NE(KInd, KPort);
  EXPECT_NE(KPdr, KPort);
}

TEST(ProofCache, PdrWarmHitRestoresServingEngine) {
  TempDir Dir("cache-pdr-warm");
  ProgramPtr P = kernels::load(kernels::pdrlock());
  ASSERT_NE(P, nullptr);
  ProgramFingerprints FP = ProgramFingerprints::compute(*P);
  VerifyOptions VO;
  VO.Engine = EngineKind::Pdr;
  const Property &Prop = P->Properties[0];

  std::unique_ptr<ProofCache> Cache = mustOpen(Dir.str());
  ASSERT_NE(Cache, nullptr);
  std::string ColdCert, ColdServed;
  {
    VerifySession S(*P, VO);
    PropertyResult R = verifyPropertyCached(S, Prop, Cache.get(), &FP);
    ASSERT_EQ(R.Status, VerifyStatus::Proved) << R.Reason;
    EXPECT_FALSE(R.CacheHit);
    ColdCert = R.CertJson;
    ColdServed = R.ServedBy;
  }
  EXPECT_EQ(ColdServed, "pdr");
  {
    VerifySession S(*P, VO);
    PropertyResult R = verifyPropertyCached(S, Prop, Cache.get(), &FP);
    EXPECT_EQ(R.Status, VerifyStatus::Proved);
    EXPECT_TRUE(R.CacheHit);
    EXPECT_EQ(R.ServedBy, ColdServed)
        << "warm hits must say which engine produced the proof";
    EXPECT_EQ(R.CertJson, ColdCert);
  }
  // The same property under the default engine is a separate key: the
  // warm PDR proof must not leak into an induction lookup.
  {
    VerifySession S(*P);
    PropertyResult R = verifyPropertyCached(S, Prop, Cache.get(), &FP);
    EXPECT_FALSE(R.CacheHit);
    EXPECT_EQ(R.Status, VerifyStatus::Unknown);
  }
}

TEST(ProofCache, DamagedPdrEntryIsQuarantinedAndReVerified) {
  TempDir Dir("cache-pdr-damage");
  ProgramPtr P = kernels::load(kernels::pdrlock());
  ASSERT_NE(P, nullptr);
  ProgramFingerprints FP = ProgramFingerprints::compute(*P);
  VerifyOptions VO;
  VO.Engine = EngineKind::Pdr;
  const Property &Prop = P->Properties[0];
  std::string Key = ProofCache::keyFor(FP.DeclFp, Prop, VO);
  std::string EntryPath = Dir.str() + "/" + Key + ".json";

  std::unique_ptr<ProofCache> Cache = mustOpen(Dir.str());
  ASSERT_NE(Cache, nullptr);
  {
    VerifySession S(*P, VO);
    PropertyResult R = verifyPropertyCached(S, Prop, Cache.get(), &FP);
    ASSERT_EQ(R.Status, VerifyStatus::Proved) << R.Reason;
  }

  // Corrupt a clause literal inside the stored clausal certificate.
  std::string Entry = readAll(EntryPath);
  size_t Pos = Entry.find("!armed");
  ASSERT_NE(Pos, std::string::npos) << Entry;
  Entry.replace(Pos, 6, "!prime");
  writeAll(EntryPath, Entry);

  {
    VerifySession S(*P, VO);
    PropertyResult R = verifyPropertyCached(S, Prop, Cache.get(), &FP);
    EXPECT_EQ(R.Status, VerifyStatus::Proved);
    EXPECT_FALSE(R.CacheHit) << "a tampered PDR certificate was served";
    EXPECT_TRUE(R.CertChecked);
  }
  EXPECT_EQ(Cache->stats().Quarantined, 1u);
  EXPECT_TRUE(
      fs::exists(fs::path(Dir.str()) / "quarantine" / (Key + ".json")));
}

/// Stores \p Prop's verdict under \p VO, serves it warm once (so the
/// recheck memo holds it), then rewrites the entry's served_by from
/// \p From to \p To. The re-check re-derives with the engine the entry
/// names, and the other engine cannot produce this canonical form, so the
/// hit must be rejected (the memo included), the entry quarantined, and
/// the property re-verified to its cold verdict.
void servedByFlipRoundTrip(const char *Tag, const Program &P,
                           const Property &Prop, const VerifyOptions &VO,
                           const std::string &From, const std::string &To) {
  TempDir Dir(std::string("cache-servedby-") + Tag);
  ProgramFingerprints FP = ProgramFingerprints::compute(P);
  std::string Key = ProofCache::keyFor(FP.DeclFp, Prop, VO);
  std::string EntryPath = Dir.str() + "/" + Key + ".json";

  std::unique_ptr<ProofCache> Cache = mustOpen(Dir.str());
  ASSERT_NE(Cache, nullptr);
  PropertyResult Cold;
  {
    VerifySession S(P, VO);
    Cold = verifyPropertyCached(S, Prop, Cache.get(), &FP);
    ASSERT_EQ(Cold.Status, VerifyStatus::Proved) << Cold.Reason;
    ASSERT_EQ(Cold.ServedBy, From);
  }
  {
    VerifySession S(P, VO);
    PropertyResult R = verifyPropertyCached(S, Prop, Cache.get(), &FP);
    ASSERT_TRUE(R.CacheHit);
    ASSERT_TRUE(R.CertChecked);
  }

  std::string Entry = readAll(EntryPath);
  std::string Field = "\"served_by\":\"" + From + "\"";
  size_t Pos = Entry.find(Field);
  ASSERT_NE(Pos, std::string::npos) << Entry;
  Entry.replace(Pos, Field.size(), "\"served_by\":\"" + To + "\"");
  writeAll(EntryPath, Entry);

  {
    VerifySession S(P, VO);
    PropertyResult R = verifyPropertyCached(S, Prop, Cache.get(), &FP);
    EXPECT_FALSE(R.CacheHit) << "an entry naming the wrong engine was served";
    EXPECT_EQ(R.Status, Cold.Status);
    EXPECT_EQ(R.Reason, Cold.Reason);
    EXPECT_EQ(R.ServedBy, Cold.ServedBy);
    EXPECT_EQ(R.CertJson, Cold.CertJson);
    EXPECT_TRUE(R.CertChecked);
  }
  EXPECT_EQ(Cache->stats().Rejected, 1u);
  EXPECT_EQ(Cache->stats().Quarantined, 1u);
  EXPECT_TRUE(
      fs::exists(fs::path(Dir.str()) / "quarantine" / (Key + ".json")));
  EXPECT_NE(readAll(EntryPath).find(Field), std::string::npos)
      << "the re-verification publishes the honest engine again";
}

TEST(ProofCache, PdrEntryRelabelledInductionIsQuarantinedAndReVerified) {
  ProgramPtr P = kernels::load(kernels::pdrlock());
  ASSERT_NE(P, nullptr);
  VerifyOptions VO;
  VO.Engine = EngineKind::Pdr;
  servedByFlipRoundTrip("pdr", *P, P->Properties[0], VO, "pdr",
                        "induction");
}

TEST(ProofCache, InductionEntryRelabelledPdrIsQuarantinedAndReVerified) {
  ProgramPtr P = mustLoad(MixedSrc);
  ASSERT_NE(P, nullptr);
  servedByFlipRoundTrip("induction", *P, P->Properties[1], VerifyOptions{},
                        "induction", "pdr");
}

//===----------------------------------------------------------------------===//
// Lazy open: every lookup reads its own entry from disk, whatever the
// directory held when the cache was opened.
//===----------------------------------------------------------------------===//

/// Verifies both of MixedSrc's properties into \p Dir through a handle
/// that is closed again, so the caller's next open is a fresh process's.
void populateMixed(const std::string &Dir, const Program &P,
                   const ProgramFingerprints &FP) {
  std::unique_ptr<ProofCache> Cache = mustOpen(Dir);
  ASSERT_NE(Cache, nullptr);
  VerifySession S(P);
  for (const Property &Prop : P.Properties)
    ASSERT_FALSE(verifyPropertyCached(S, Prop, Cache.get(), &FP).CacheHit);
  ASSERT_EQ(Cache->stats().Stores, 2u);
}

TEST(ProofCache, EntryReplacedAfterOpenIsServedFromItsNewBytes) {
  TempDir Dir("cache-replaced");
  ProgramPtr P = mustLoad(MixedSrc);
  ASSERT_NE(P, nullptr);
  ProgramFingerprints FP = ProgramFingerprints::compute(*P);
  populateMixed(Dir.str(), *P, FP);
  const Property &Bad = P->Properties[0];
  const Property &Fine = P->Properties[1];
  std::string BadPath =
      Dir.str() + "/" + ProofCache::keyFor(FP.DeclFp, Bad, {}) + ".json";
  std::string FineKey = ProofCache::keyFor(FP.DeclFp, Fine, {});
  std::string FinePath = Dir.str() + "/" + FineKey + ".json";

  std::unique_ptr<ProofCache> Cache = mustOpen(Dir.str());
  ASSERT_NE(Cache, nullptr);

  // A well-formed replacement: the Unknown verdict's reason is served
  // as-is, so the hit shows which bytes were read.
  std::string Entry = readAll(BadPath);
  size_t Pos = Entry.find("\"reason\":\"");
  ASSERT_NE(Pos, std::string::npos);
  Entry.insert(Pos + std::string("\"reason\":\"").size(), "replaced: ");
  writeAll(BadPath, Entry);
  // A tampered replacement: still valid JSON, wrong certificate.
  Entry = readAll(FinePath);
  Pos = Entry.find("\"canonical_cert\":\"");
  ASSERT_NE(Pos, std::string::npos);
  Entry.insert(Pos + std::string("\"canonical_cert\":\"").size(), "XX");
  writeAll(FinePath, Entry);

  VerifySession S(*P);
  PropertyResult RB = verifyPropertyCached(S, Bad, Cache.get(), &FP);
  EXPECT_TRUE(RB.CacheHit);
  EXPECT_EQ(RB.Status, VerifyStatus::Unknown);
  EXPECT_EQ(RB.Reason.rfind("replaced: ", 0), 0u) << RB.Reason;
  PropertyResult RF = verifyPropertyCached(S, Fine, Cache.get(), &FP);
  EXPECT_FALSE(RF.CacheHit);
  EXPECT_EQ(RF.Status, VerifyStatus::Proved);
  EXPECT_TRUE(RF.CertChecked);
  EXPECT_EQ(Cache->stats().Rejected, 1u);
  EXPECT_EQ(Cache->stats().Quarantined, 1u);
  EXPECT_TRUE(
      fs::exists(fs::path(Dir.str()) / "quarantine" / (FineKey + ".json")));
}

TEST(ProofCache, EntryDeletedAfterOpenIsAPlainMiss) {
  TempDir Dir("cache-deleted");
  ProgramPtr P = mustLoad(MixedSrc);
  ASSERT_NE(P, nullptr);
  ProgramFingerprints FP = ProgramFingerprints::compute(*P);
  populateMixed(Dir.str(), *P, FP);
  const Property &Fine = P->Properties[1];
  std::string FinePath =
      Dir.str() + "/" + ProofCache::keyFor(FP.DeclFp, Fine, {}) + ".json";

  std::unique_ptr<ProofCache> Cache = mustOpen(Dir.str());
  ASSERT_NE(Cache, nullptr);
  ASSERT_TRUE(fs::remove(FinePath));

  VerifySession S(*P);
  PropertyResult R = verifyPropertyCached(S, Fine, Cache.get(), &FP);
  EXPECT_FALSE(R.CacheHit);
  EXPECT_EQ(R.Status, VerifyStatus::Proved);
  EXPECT_EQ(Cache->stats().Misses, 1u);
  EXPECT_EQ(Cache->stats().Rejected, 0u);
  EXPECT_EQ(Cache->stats().Quarantined, 0u);
  EXPECT_EQ(Cache->stats().Stores, 1u);
  EXPECT_TRUE(fs::exists(FinePath));
}

TEST(ProofCache, DamagedEntryOfAnotherProgramIsQuarantinedOnlyOnItsLookup) {
  TempDir Dir("cache-neighbour");
  ProgramPtr P = mustLoad(MixedSrc);
  ASSERT_NE(P, nullptr);
  ProgramFingerprints FP = ProgramFingerprints::compute(*P);
  populateMixed(Dir.str(), *P, FP);
  std::string OtherKey =
      ProofCache::keyFor("another program", P->Properties[1], {});
  std::string OtherPath = Dir.str() + "/" + OtherKey + ".json";
  writeAll(OtherPath, "{\"version\":3,\"status\":");

  std::unique_ptr<ProofCache> Cache = mustOpen(Dir.str());
  ASSERT_NE(Cache, nullptr);
  VerifySession S(*P);
  for (const Property &Prop : P->Properties) {
    PropertyResult R = verifyPropertyCached(S, Prop, Cache.get(), &FP);
    EXPECT_TRUE(R.CacheHit) << Prop.Name;
  }
  EXPECT_EQ(Cache->stats().Hits, 2u);
  EXPECT_EQ(Cache->stats().Rejected, 0u);
  EXPECT_EQ(Cache->stats().Quarantined, 0u);
  EXPECT_TRUE(fs::exists(OtherPath)) << "open and other lookups leave it be";

  EXPECT_FALSE(Cache->lookup(OtherKey).has_value());
  EXPECT_EQ(Cache->stats().Rejected, 1u);
  EXPECT_EQ(Cache->stats().Quarantined, 1u);
  EXPECT_FALSE(fs::exists(OtherPath));
  EXPECT_TRUE(
      fs::exists(fs::path(Dir.str()) / "quarantine" / (OtherKey + ".json")));
}

TEST(ProofCache, RecheckMemoServesRepeatHitsOnlyForTheAcceptedCertificate) {
  TempDir Dir("cache-memo");
  ProgramPtr P = mustLoad(MixedSrc);
  ASSERT_NE(P, nullptr);
  ProgramFingerprints FP = ProgramFingerprints::compute(*P);
  populateMixed(Dir.str(), *P, FP);
  const Property &Fine = P->Properties[1];
  std::string FinePath =
      Dir.str() + "/" + ProofCache::keyFor(FP.DeclFp, Fine, {}) + ".json";

  std::unique_ptr<ProofCache> Cache = mustOpen(Dir.str());
  ASSERT_NE(Cache, nullptr);
  VerifySession S(*P);
  PropertyResult First = verifyPropertyCached(S, Fine, Cache.get(), &FP);
  ASSERT_TRUE(First.CacheHit);
  ASSERT_TRUE(First.CertChecked);
  double Replayed = Cache->stats().RecheckMillis;
  EXPECT_GT(Replayed, 0.0) << "a fresh process replays its first hit";

  PropertyResult Second = verifyPropertyCached(S, Fine, Cache.get(), &FP);
  EXPECT_TRUE(Second.CacheHit);
  EXPECT_TRUE(Second.CertChecked);
  EXPECT_EQ(Second.Status, VerifyStatus::Proved);
  EXPECT_EQ(Cache->stats().RecheckMillis, Replayed)
      << "the memo serves the byte-identical certificate without a replay";

  // Another certificate under the same key is replayed, not memo-served.
  std::string Entry = readAll(FinePath);
  size_t Pos = Entry.find("\"canonical_cert\":\"");
  ASSERT_NE(Pos, std::string::npos);
  Entry.insert(Pos + std::string("\"canonical_cert\":\"").size(), "XX");
  writeAll(FinePath, Entry);
  PropertyResult Third = verifyPropertyCached(S, Fine, Cache.get(), &FP);
  EXPECT_FALSE(Third.CacheHit);
  EXPECT_EQ(Third.Status, VerifyStatus::Proved);
  EXPECT_GT(Cache->stats().RecheckMillis, Replayed);
  EXPECT_EQ(Cache->stats().Rejected, 1u);
}

//===----------------------------------------------------------------------===//
// GC live-set manifest: liveness persists across cache reopenings
//===----------------------------------------------------------------------===//

TEST(ProofCache, GcManifestKeepsRecentlyLiveProgramsAcrossReopen) {
  TempDir Dir("cache-gc-manifest");
  ProgramPtr A = kernels::load(kernels::ssh2());
  ProgramPtr B = kernels::load(kernels::car());
  std::string AId =
      ProofCache::declId(ProgramFingerprints::compute(*A).DeclFp);
  std::string BId =
      ProofCache::declId(ProgramFingerprints::compute(*B).DeclFp);

  uint64_t AStores = 0, BStores = 0;
  {
    // Process 1 verifies both programs and runs a gc naming both live —
    // the manifest now remembers when each was last claimed.
    std::unique_ptr<ProofCache> Cache = mustOpen(Dir.str());
    ASSERT_NE(Cache, nullptr);
    SchedulerOptions S;
    S.Cache = Cache.get();
    verifyPrograms({A.get()}, S);
    AStores = Cache->stats().Stores;
    verifyPrograms({B.get()}, S);
    BStores = Cache->stats().Stores - AStores;
    ProofCache::GcOutcome G = Cache->gc({AId, BId});
    EXPECT_EQ(G.Dropped, 0u);
  }
  ASSERT_GT(AStores, 0u);
  ASSERT_GT(BStores, 0u);
  EXPECT_TRUE(fs::exists(fs::path(Dir.str()) / "gc.manifest"));

  {
    // Process 2 (a daemon restart) only names A live. B was claimed
    // within the manifest window, so its entries survive the restart
    // instead of being dropped by the first post-restart gc.
    std::unique_ptr<ProofCache> Cache = mustOpen(Dir.str());
    ASSERT_NE(Cache, nullptr);
    ProofCache::GcOutcome G = Cache->gc({AId});
    EXPECT_EQ(G.Dropped, 0u)
        << "recently-live programs must survive a restart's gc";
    EXPECT_EQ(G.Kept, AStores + BStores);
    EXPECT_EQ(G.ManifestLive, 1u)
        << "exactly one program (B) is alive only through the manifest";
  }

  {
    // With the manifest contribution disabled the old semantics return:
    // anything outside the caller's live set is collected immediately.
    std::unique_ptr<ProofCache> Cache = mustOpen(Dir.str());
    ASSERT_NE(Cache, nullptr);
    Cache->setGcManifestMaxAge(0);
    ProofCache::GcOutcome G = Cache->gc({AId});
    EXPECT_EQ(G.Dropped, BStores);
    EXPECT_EQ(G.Kept, AStores);
    EXPECT_EQ(G.ManifestLive, 0u);
  }

  // The manifest itself is metadata, never a collectable entry.
  EXPECT_TRUE(fs::exists(fs::path(Dir.str()) / "gc.manifest"));
}

TEST(ProofCache, GcManifestExpiredStampsDoNotKeepEntriesAlive) {
  TempDir Dir("cache-gc-manifest-age");
  ProgramPtr A = kernels::load(kernels::ssh2());
  ProgramPtr B = kernels::load(kernels::car());
  std::string AId =
      ProofCache::declId(ProgramFingerprints::compute(*A).DeclFp);
  std::string BId =
      ProofCache::declId(ProgramFingerprints::compute(*B).DeclFp);
  {
    std::unique_ptr<ProofCache> Cache = mustOpen(Dir.str());
    ASSERT_NE(Cache, nullptr);
    SchedulerOptions S;
    S.Cache = Cache.get();
    verifyPrograms({A.get()}, S);
    verifyPrograms({B.get()}, S);
    Cache->gc({AId, BId});
  }
  // Rewrite B's stamp as ancient so the window has lapsed.
  fs::path Manifest = fs::path(Dir.str()) / "gc.manifest";
  std::string Bytes = readAll(Manifest.string());
  size_t Pos = Bytes.find("\"" + BId + "\":");
  ASSERT_NE(Pos, std::string::npos) << Bytes;
  size_t ValStart = Pos + BId.size() + 3;
  size_t ValEnd = Bytes.find_first_of(",}", ValStart);
  ASSERT_NE(ValEnd, std::string::npos);
  Bytes.replace(ValStart, ValEnd - ValStart, "1");
  writeAll(Manifest.string(), Bytes);

  std::unique_ptr<ProofCache> Cache = mustOpen(Dir.str());
  ASSERT_NE(Cache, nullptr);
  ProofCache::GcOutcome G = Cache->gc({AId});
  EXPECT_GT(G.Dropped, 0u)
      << "an expired manifest stamp must not keep dead entries alive";
  EXPECT_EQ(G.ManifestLive, 0u);
}

} // namespace
} // namespace reflex
