//===- service/proofcache.cc - Persistent content-addressed cache ---------===//

#include "service/proofcache.h"

#include "support/json.h"
#include "support/sha256.h"
#include "support/timer.h"
#include "verify/checker.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <thread>
#include <utility>
#include <vector>

namespace reflex {

namespace fs = std::filesystem;

namespace {

/// Temp files live in their own subdirectory, so the orphan sweep at
/// open reads only what crashed writers left behind, never the entries.
constexpr const char *TmpDirName = "tmp";

/// The GC manifest's filename. Lives beside the entries (same .json
/// extension a key file has, but keys are 64 hex chars, so no collision);
/// the directory scans skip it by name.
// Deliberately not *.json: directory scans (gc, tests) treat
// every .json file as a cache entry, and the manifest is not one.
constexpr const char *GcManifestName = "gc.manifest";

/// Decodes one entry file's bytes. Returns nullopt for anything a lookup
/// would treat as damage (unparsable, junk status, proved without
/// certificate) — and for other-version entries, which additionally set
/// \p Stale so lookup() reports a plain miss instead of quarantining.
/// Shared by lookup() and gc().
std::optional<ProofCacheEntry> decodeEntry(const std::string &Bytes,
                                           bool *Stale = nullptr) {
  Result<JsonValue> Doc = parseJson(Bytes);
  if (!Doc.ok() || !Doc->isObject())
    return std::nullopt;
  if (int64_t(Doc->getNumber("version", 0)) != ProofCache::EntryVersion) {
    // A well-formed entry written under another layout generation (an
    // old process's v3 file, or a newer process's) is not evidence of
    // damage — it is simply unusable here.
    if (Stale && int64_t(Doc->getNumber("version", 0)) > 0)
      *Stale = true;
    return std::nullopt;
  }

  ProofCacheEntry E;
  std::string Status = Doc->getString("status");
  if (Status == verifyStatusName(VerifyStatus::Proved))
    E.Status = VerifyStatus::Proved;
  else if (Status == verifyStatusName(VerifyStatus::Unknown))
    E.Status = VerifyStatus::Unknown;
  else
    return std::nullopt; // Refuted/budget statuses never cached
  E.Reason = Doc->getString("reason");
  E.Millis = Doc->getNumber("millis", 0);
  E.CertChecked = Doc->getBool("cert_checked", false);
  E.CanonicalCert = Doc->getString("canonical_cert");
  E.CertJson = Doc->getString("cert_json");
  E.DeclSha256 = Doc->getString("decl_sha256");
  E.ServedBy = Doc->getString("served_by");
  if (E.Status == VerifyStatus::Proved && E.CanonicalCert.empty())
    return std::nullopt; // proved entry without its certificate
  E.FootprintCollected = Doc->getBool("footprint_collected", false);
  E.FootprintAll = Doc->getBool("footprint_all", false);
  if (const JsonValue *FP = Doc->get("footprint")) {
    if (!FP->isArray())
      return std::nullopt;
    for (const JsonValue &K : FP->items()) {
      if (!K.isString())
        return std::nullopt;
      E.Footprint.push_back(K.stringValue());
    }
  }
  // Per-handler fingerprints, encoded as {"Comp=>Msg": "bodyfp:ifacefp"}.
  // An entry without them (or with a malformed pair) is treated as damage:
  // version-2 entries always record them, and serving a hit without being
  // able to compare handler bodies would be unsound.
  const JsonValue *HF = Doc->get("handler_fps");
  if (!HF || !HF->isObject())
    return std::nullopt;
  for (const auto &[Key, Val] : HF->entries()) {
    if (!Val.isString())
      return std::nullopt;
    const std::string &Pair = Val.stringValue();
    size_t Colon = Pair.find(':');
    if (Colon == std::string::npos)
      return std::nullopt;
    HandlerFingerprint F;
    F.BodyFp = Pair.substr(0, Colon);
    F.IfaceFp = Pair.substr(Colon + 1);
    E.HandlerFps.emplace(Key, std::move(F));
  }
  // Rendered path fingerprints of the footprint's handlers. Optional as a
  // whole (entries for AllHandlers or uncollected footprints have none);
  // malformed content is damage like any other field.
  if (const JsonValue *PF = Doc->get("path_fps")) {
    if (!PF->isObject())
      return std::nullopt;
    for (const auto &[Key, Val] : PF->entries()) {
      if (!Val.isObject())
        return std::nullopt;
      SummaryFingerprint SF;
      SF.SummaryFp = Val.getString("summary");
      SF.Incomplete = Val.getBool("incomplete", false);
      const JsonValue *Paths = Val.get("paths");
      if (SF.SummaryFp.empty() || !Paths || !Paths->isArray())
        return std::nullopt;
      for (const JsonValue &PV : Paths->items()) {
        if (!PV.isObject())
          return std::nullopt;
        PathFingerprint F;
        F.Id = PV.getString("id");
        F.EmitFp = PV.getString("emit");
        F.FullFp = PV.getString("full");
        if (F.Id.empty() || F.EmitFp.empty() || F.FullFp.empty())
          return std::nullopt;
        SF.Paths.push_back(std::move(F));
      }
      E.PathFps.emplace(Key, std::move(SF));
    }
  }
  return E;
}

} // namespace

Result<std::unique_ptr<ProofCache>> ProofCache::open(const std::string &Dir) {
  std::error_code EC;
  fs::create_directories(Dir, EC);
  if (EC)
    return Error("cannot create cache directory '" + Dir +
                 "': " + EC.message());
  // Probe writability now so a read-only directory fails loudly at open
  // time rather than silently degrading every store.
  fs::path Probe = fs::path(Dir) / ".probe";
  {
    std::ofstream Out(Probe);
    if (!Out)
      return Error("cache directory '" + Dir + "' is not writable");
  }
  fs::remove(Probe, EC);

  // Sweep orphaned temp files from crashed writers. Everything in tmp/
  // predates this process (live writers rename their temp away within
  // one store() call), so removing it only reclaims junk that would
  // otherwise accumulate forever. Entries are never listed.
  fs::path TmpDir = fs::path(Dir) / TmpDirName;
  fs::create_directories(TmpDir, EC);
  if (EC)
    return Error("cannot create '" + TmpDir.string() + "': " + EC.message());
  uint64_t Swept = 0;
  for (const fs::directory_entry &DE : fs::directory_iterator(TmpDir, EC)) {
    std::error_code RmEC;
    if (DE.is_regular_file(RmEC) && fs::remove(DE.path(), RmEC))
      ++Swept;
  }

  auto Cache = std::unique_ptr<ProofCache>(new ProofCache(Dir));
  Cache->S.SweptTmp = Swept;
  return Cache;
}

std::string ProofCache::optionsFingerprint(const VerifyOptions &Opts) {
  std::ostringstream OS;
  OS << "skip=" << Opts.SyntacticSkip << ";inv-cache=" << Opts.CacheInvariants
     << ";simplify=" << Opts.Simplify << ";check=" << Opts.CheckCertificates
     << ";bmc=" << Opts.BmcDepthOnUnknown
     << ";bmc-states=" << Opts.Bmc.MaxStates
     << ";bmc-payloads=" << Opts.Bmc.MaxPayloadsPerMessage
     << ";max-disjuncts=" << Opts.Limits.MaxDisjuncts
     << ";max-paths=" << Opts.Limits.MaxPaths
     << ";engine=" << engineKindName(Opts.Engine);
  return OS.str();
}

std::string ProofCache::keyFor(const std::string &DeclFingerprint,
                               const Property &Prop,
                               const VerifyOptions &Opts) {
  Sha256 H;
  H.updateField(DeclFingerprint);
  H.updateField(Prop.str());
  H.updateField(optionsFingerprint(Opts));
  return H.hexDigest();
}

std::string ProofCache::pathFor(const std::string &Key) const {
  return (fs::path(Dir) / (Key + ".json")).string();
}

std::optional<ProofCacheEntry> ProofCache::lookup(const std::string &Key) {
  WallTimer DecodeTimer;
  FaultyIO IO(Faults);
  Result<std::string> Bytes = IO.readFile(pathFor(Key), Key);
  if (!Bytes.ok()) {
    // Distinguish absence (a plain miss) from an unreadable file (an IO
    // error, possibly injected): neither tells us the entry is damaged,
    // so neither quarantines.
    noteDecodeMillis(DecodeTimer.elapsedMillis());
    return std::nullopt;
  }

  // From here on the file exists and was read; anything undecodable is
  // damage — quarantine the evidence and report a miss — except an entry
  // from another layout version, which is stale: a plain miss, left in
  // place to be overwritten by the re-verification's store.
  bool Stale = false;
  std::optional<ProofCacheEntry> E = decodeEntry(*Bytes, &Stale);
  noteDecodeMillis(DecodeTimer.elapsedMillis());
  if (!E) {
    if (Stale)
      return std::nullopt;
    quarantine(Key);
    noteRejected();
    return std::nullopt;
  }
  return E;
}

void ProofCache::quarantine(const std::string &Key) {
  std::error_code EC;
  fs::path QDir = fs::path(Dir) / "quarantine";
  fs::create_directories(QDir, EC);
  if (EC)
    return; // best effort: evidence preservation must not block verification
  fs::rename(pathFor(Key), QDir / (Key + ".json"), EC);
  if (EC)
    return; // entry vanished (concurrent quarantine/overwrite) — fine
  std::lock_guard<std::mutex> Lock(Mu);
  ++S.Quarantined;
}

Result<void> ProofCache::store(const std::string &Key,
                               const ProofCacheEntry &Entry,
                               const std::string &ProgramName,
                               const std::string &PropertyName) {
  JsonWriter W;
  W.beginObject();
  W.field("version", EntryVersion);
  W.field("program", ProgramName);
  W.field("property", PropertyName);
  W.field("status", verifyStatusName(Entry.Status));
  W.field("reason", Entry.Reason);
  W.key("millis");
  W.value(Entry.Millis);
  W.field("cert_checked", Entry.CertChecked);
  W.field("canonical_cert", Entry.CanonicalCert);
  W.field("cert_json", Entry.CertJson);
  if (!Entry.DeclSha256.empty())
    W.field("decl_sha256", Entry.DeclSha256);
  if (!Entry.ServedBy.empty())
    W.field("served_by", Entry.ServedBy);
  W.field("footprint_collected", Entry.FootprintCollected);
  W.field("footprint_all", Entry.FootprintAll);
  W.key("footprint");
  W.beginArray();
  for (const std::string &K : Entry.Footprint)
    W.value(K);
  W.endArray();
  W.key("handler_fps");
  W.beginObject();
  for (const auto &[K, F] : Entry.HandlerFps)
    W.field(K, F.BodyFp + ":" + F.IfaceFp);
  W.endObject();
  if (!Entry.PathFps.empty()) {
    W.key("path_fps");
    W.beginObject();
    for (const auto &[K, SF] : Entry.PathFps) {
      W.key(K);
      W.beginObject();
      W.field("summary", SF.SummaryFp);
      W.field("incomplete", SF.Incomplete);
      W.key("paths");
      W.beginArray();
      for (const PathFingerprint &F : SF.Paths) {
        W.beginObject();
        W.field("id", F.Id);
        W.field("emit", F.EmitFp);
        W.field("full", F.FullFp);
        W.endObject();
      }
      W.endArray();
      W.endObject();
    }
    W.endObject();
  }
  W.endObject();

  // Atomic publish: write and fsync a per-thread temp file, then rename
  // over the final path. Readers either see the old entry or the complete
  // new one; the fsync ensures a crash right after the rename cannot
  // publish an empty or torn entry.
  std::string Final = pathFor(Key);
  std::ostringstream TmpName;
  TmpName << (fs::path(Dir) / TmpDirName / Key).string() << ".json.tmp."
          << std::this_thread::get_id();
  FaultyIO IO(Faults);
  if (Result<void> W1 = IO.writeFile(TmpName.str(), W.take() + "\n", Key);
      !W1.ok())
    return Error("cannot write cache entry: " + W1.error());
  if (Result<void> R1 = IO.renameFile(TmpName.str(), Final, Key); !R1.ok()) {
    std::error_code EC;
    fs::remove(TmpName.str(), EC);
    return Error("cannot publish cache entry: " + R1.error());
  }
  {
    std::lock_guard<std::mutex> Lock(Mu);
    ++S.Stores;
  }
  return {};
}

std::string ProofCache::declId(const std::string &DeclFingerprint) {
  return sha256Hex(DeclFingerprint);
}

std::map<std::string, uint64_t> ProofCache::loadGcManifest() {
  std::map<std::string, uint64_t> Seen;
  fs::path Path = fs::path(Dir) / GcManifestName;
  std::ifstream In(Path, std::ios::binary);
  if (!In)
    return Seen; // absent: the normal empty state, no warning
  std::ostringstream Buf;
  Buf << In.rdbuf();
  // Present but unreadable as JSON: a torn or corrupt manifest. Treat it
  // as empty — the cost is at most early eviction plus re-verification,
  // and the fresh manifest stored by this gc() replaces the damage — but
  // say so, because silent resets hide a failing disk.
  auto Corrupt = [&](const char *What) {
    std::fprintf(stderr,
                 "warning: proof cache manifest %s is %s; treating as "
                 "empty\n",
                 Path.string().c_str(), What);
    std::lock_guard<std::mutex> Lock(Mu);
    ++S.ManifestCorrupt;
    return Seen;
  };
  Result<JsonValue> Doc = parseJson(Buf.str());
  if (!Doc.ok() || !Doc->isObject())
    return Corrupt("not a JSON object (torn write or corruption)");
  const JsonValue *Decls = Doc->get("decls");
  if (!Decls || !Decls->isObject())
    return Corrupt("missing its decls table");
  for (const auto &[Id, When] : Decls->entries())
    if (When.isNumber() && When.numberValue() >= 0)
      Seen.emplace(Id, uint64_t(When.numberValue()));
  return Seen;
}

void ProofCache::storeGcManifest(
    const std::map<std::string, uint64_t> &Seen) const {
  JsonWriter W;
  W.beginObject();
  W.field("version", int64_t(1));
  W.key("decls");
  W.beginObject();
  for (const auto &[Id, When] : Seen)
    W.field(Id, int64_t(When));
  W.endObject();
  W.endObject();
  // Same atomic publish discipline as entries — FaultyIO::writeFile
  // fsyncs the temp before the rename, so a crash between the two leaves
  // the previous manifest intact and can never publish a torn one. Best
  // effort beyond that: a failed write or rename just keeps the old
  // manifest (costing at most an early eviction and a re-verification).
  fs::path Final = fs::path(Dir) / GcManifestName;
  std::ostringstream TmpName;
  TmpName << (fs::path(Dir) / TmpDirName / GcManifestName).string()
          << ".tmp." << std::this_thread::get_id();
  FaultyIO IO(Faults);
  if (!IO.writeFile(TmpName.str(), W.take() + "\n", GcManifestName).ok())
    return;
  if (!IO.renameFile(TmpName.str(), Final.string(), GcManifestName).ok()) {
    std::error_code EC;
    fs::remove(TmpName.str(), EC);
  }
}

void ProofCache::boundQuarantine(GcOutcome &Out) {
  if (QuarantineMax == 0)
    return;
  fs::path QDir = fs::path(Dir) / "quarantine";
  std::error_code EC;
  // Oldest first by (mtime, name): mtime is when the evidence arrived,
  // the name breaks ties deterministically for same-second bursts.
  std::vector<std::pair<fs::file_time_type, fs::path>> Files;
  for (const fs::directory_entry &DE : fs::directory_iterator(QDir, EC)) {
    if (!DE.is_regular_file(EC))
      continue;
    Files.emplace_back(DE.last_write_time(EC), DE.path());
  }
  std::sort(Files.begin(), Files.end(),
            [](const auto &A, const auto &B) {
              return A.first != B.first ? A.first < B.first
                                        : A.second < B.second;
            });
  size_t Excess =
      Files.size() > QuarantineMax ? Files.size() - QuarantineMax : 0;
  for (size_t I = 0; I < Files.size(); ++I) {
    std::error_code RmEC;
    if (I < Excess && fs::remove(Files[I].second, RmEC) && !RmEC)
      ++Out.QuarantineEvicted;
    else
      ++Out.QuarantineKept;
  }
}

ProofCache::GcOutcome
ProofCache::gc(const std::set<std::string> &LiveDeclSha256) {
  GcOutcome Out;

  // Merge the caller's live set into the persisted manifest, then widen
  // the live set with every program the manifest saw within the retention
  // window: a daemon that restarted since a program was last verified has
  // an empty live set for it, but its entries are still warm capital.
  const uint64_t Now = uint64_t(std::chrono::duration_cast<std::chrono::seconds>(
                                    std::chrono::system_clock::now()
                                        .time_since_epoch())
                                    .count());
  std::map<std::string, uint64_t> Seen = loadGcManifest();
  for (const std::string &Id : LiveDeclSha256)
    Seen[Id] = Now;
  std::set<std::string> Live = LiveDeclSha256;
  for (auto It = Seen.begin(); It != Seen.end();) {
    uint64_t Age = It->second > Now ? 0 : Now - It->second;
    if (ManifestMaxAge == 0 ? LiveDeclSha256.count(It->first) == 0
                            : Age > ManifestMaxAge) {
      It = Seen.erase(It);
      continue;
    }
    if (ManifestMaxAge != 0 && Live.insert(It->first).second)
      ++Out.ManifestLive;
    ++It;
  }
  storeGcManifest(Seen);

  std::error_code EC;
  for (const fs::directory_entry &DE : fs::directory_iterator(Dir, EC)) {
    if (!DE.is_regular_file(EC))
      continue;
    const fs::path &P = DE.path();
    // Stores before tmp/ existed left their orphaned temps beside the
    // entries; open no longer looks there, so gc reclaims them.
    if (P.filename().string().find(".json.tmp.") != std::string::npos) {
      std::error_code RmEC;
      if (fs::remove(P, RmEC))
        ++Out.SweptTmp;
      continue;
    }
    if (P.extension() != ".json" || P.filename() == GcManifestName)
      continue;
    ++Out.Scanned;
    std::string Bytes;
    {
      std::ifstream In(P, std::ios::binary);
      std::ostringstream Buf;
      if (In)
        Buf << In.rdbuf();
      Bytes = Buf.str();
    }
    std::optional<ProofCacheEntry> E = decodeEntry(Bytes);
    bool IsLive = E && !E->DeclSha256.empty() &&
                  Live.count(E->DeclSha256) != 0;
    if (IsLive) {
      ++Out.Kept;
      continue;
    }
    std::error_code RmEC;
    if (!fs::remove(P, RmEC) || RmEC) {
      ++Out.Kept; // could not delete: it stays findable
      continue;
    }
    ++Out.Dropped;
  }
  boundQuarantine(Out);
  std::lock_guard<std::mutex> Lock(Mu);
  ++S.GcRuns;
  S.GcDropped += Out.Dropped;
  return Out;
}

ProofCache::Stats ProofCache::stats() const {
  std::lock_guard<std::mutex> Lock(Mu);
  return S;
}

void ProofCache::noteHit() {
  std::lock_guard<std::mutex> Lock(Mu);
  ++S.Hits;
}

void ProofCache::noteMiss() {
  std::lock_guard<std::mutex> Lock(Mu);
  ++S.Misses;
}

void ProofCache::noteRejected() {
  std::lock_guard<std::mutex> Lock(Mu);
  ++S.Rejected;
}

void ProofCache::noteFootprintHit() {
  std::lock_guard<std::mutex> Lock(Mu);
  ++S.FootprintHits;
}

void ProofCache::notePathHit() {
  std::lock_guard<std::mutex> Lock(Mu);
  ++S.PathHits;
}

void ProofCache::notePathFallback() {
  std::lock_guard<std::mutex> Lock(Mu);
  ++S.PathFallbacks;
}

const PathFingerprints &
ProofCache::pathFingerprintsFor(const std::string &MemoKey,
                                VerifySession &Live) {
  std::lock_guard<std::mutex> Lock(PathFpsMu);
  auto It = PathFpsMemo.find(MemoKey);
  if (It == PathFpsMemo.end())
    // Computed under the lock on purpose: concurrent workers asking for
    // the same program should wait for one computation, not race N.
    It = PathFpsMemo
             .emplace(MemoKey, computePathFingerprints(Live.termContext(),
                                                       Live.behAbs()))
             .first;
  return It->second;
}

void ProofCache::noteDecodeMillis(double Ms) {
  std::lock_guard<std::mutex> Lock(Mu);
  S.DecodeMillis += Ms;
}

void ProofCache::noteRecheckMillis(double Ms) {
  std::lock_guard<std::mutex> Lock(Mu);
  S.RecheckMillis += Ms;
}

bool ProofCache::fullRecheckMemoized(const std::string &MemoKey,
                                     const std::string &CanonicalCert) const {
  std::lock_guard<std::mutex> Lock(RecheckMu);
  auto It = RecheckOk.find(MemoKey);
  return It != RecheckOk.end() && It->second == CanonicalCert;
}

void ProofCache::noteFullRecheckOk(const std::string &MemoKey,
                                   const std::string &CanonicalCert) {
  std::lock_guard<std::mutex> Lock(RecheckMu);
  RecheckOk.insert_or_assign(MemoKey, CanonicalCert);
}

PropertyResult verifyPropertyCached(
    const Program &P, const VerifyOptions &Opts,
    const std::function<VerifySession &()> &Session, const Property &Prop,
    ProofCache *Cache, const ProgramFingerprints *Fps, Deadline *Budget,
    const PathFingerprints *CurPaths) {
  auto Verify = [&] {
    VerifySession &Live = Session();
    return Budget ? Live.verify(Prop, *Budget) : Live.verify(Prop);
  };
  if (!Cache)
    return Verify();

  ProgramFingerprints LocalFps;
  if (!Fps) {
    LocalFps = ProgramFingerprints::compute(P);
    Fps = &LocalFps;
  }
  std::string Key = ProofCache::keyFor(Fps->DeclFp, Prop, Opts);

  // The current program's rendered path fingerprints — the "new" side of
  // any path comparison, and what a stored verdict records for the next
  // process. Lazy: a byte-identical program (the warm case) never needs
  // them, so the no-edit fast path still serves without a session.
  auto CurPathsFor = [&]() -> const PathFingerprints & {
    if (CurPaths)
      return *CurPaths;
    return Cache->pathFingerprintsFor(
        Fps->DeclFp + '\x1f' + Fps->HandlersFp + '\x1f' +
            ProofCache::optionsFingerprint(Opts),
        Session());
  };

  std::optional<ProofCacheEntry> E = Cache->lookup(Key);
  // Footprint-relative validation (verify/footprint.h): the key covers
  // only declarations, so the entry may have been stored for different
  // handler bodies. Serve it only when the delta to the current program
  // is provably irrelevant to the proof — comparing the stored path
  // fingerprints of the footprint's handlers against the current rendered
  // abstraction; an incompatible entry is stale, not damaged — a plain
  // miss, overwritten after re-verification.
  ProofFootprint EntryFP;
  bool FootprintRelative = false;
  bool PathOnly = false;
  bool PathFellBack = false;
  if (E) {
    FingerprintDelta D = fingerprintDelta(E->HandlerFps, Fps->Handlers);
    EntryFP.Collected = E->FootprintCollected;
    EntryFP.AllHandlers = E->FootprintAll;
    EntryFP.Handlers = decodeFootprintHandlers(E->Footprint);
    if (!D.empty()) {
      const PathFingerprints &New = CurPathsFor();
      if (footprintReusable(EntryFP, D, E->PathFps, New,
                            FootprintGranularity::Path)) {
        FootprintRelative = true;
        PathOnly = !footprintReusable(EntryFP, D, E->PathFps, New,
                                      FootprintGranularity::Handler);
      } else {
        PathFellBack = true;
        Cache->notePathFallback();
        E.reset();
      }
    }
  }

  if (E) {
    WallTimer Timer;
    auto ServeHit = [&](PropertyResult &R) {
      R.Name = Prop.Name;
      R.ServedBy = E->ServedBy;
      R.CacheHit = true;
      R.FootprintHit = FootprintRelative;
      R.PathHit = PathOnly;
      R.Footprint = EntryFP;
      R.Millis = Timer.elapsedMillis();
      Cache->noteHit();
      if (FootprintRelative)
        Cache->noteFootprintHit();
      if (PathOnly)
        Cache->notePathHit();
    };
    if (E->Status == VerifyStatus::Unknown) {
      // Reusing "the automation could not prove this" needs no proof
      // object; the key + footprint validation tie it to code the search
      // actually consulted.
      PropertyResult R;
      R.Status = VerifyStatus::Unknown;
      R.Reason = std::move(E->Reason);
      ServeHit(R);
      return R;
    }
    // Proved. The entry is untrusted: re-derive in a live session and
    // require the canonical forms to agree (the checker is the trust
    // anchor, exactly as for freshly produced certificates).
    if (!Opts.CheckCertificates) {
      PropertyResult R;
      R.Status = VerifyStatus::Proved;
      R.CertJson = std::move(E->CertJson);
      R.CertChecked = false;
      ServeHit(R);
      return R;
    }
    // Full-mode memo: replaying a byte-identical certificate with the
    // same engine against byte-identical handler bodies is deterministic,
    // so once this process has accepted this certificate under (key,
    // handler bodies, engine), later hits are served without rebuilding a
    // session or replaying obligations — this is what keeps warm
    // full-mode re-checking cheaper than re-proving.
    std::string MemoKey = Key + ":" + Fps->HandlersFp + ":" + E->ServedBy;
    if (Cache->fullRecheckMemoized(MemoKey, E->CanonicalCert)) {
      PropertyResult R;
      R.Status = VerifyStatus::Proved;
      R.CertJson = std::move(E->CertJson);
      R.CertChecked = true;
      ServeHit(R);
      return R;
    }
    VerifySession &Live = Session();
    ProverOptions RecheckOpts = proverOptions(Opts);
    RecheckOpts.Budget = Budget;
    WallTimer RecheckTimer;
    RecheckOutcome Chk = checkCanonicalCertificate(
        Live.termContext(), Live.program(), Live.behAbs(), Prop,
        E->CanonicalCert, E->ServedBy, RecheckOpts);
    Cache->noteRecheckMillis(RecheckTimer.elapsedMillis());
    if (Chk.Ok) {
      Cache->noteFullRecheckOk(MemoKey, E->CanonicalCert);
      PropertyResult R;
      R.Status = VerifyStatus::Proved;
      R.Cert = std::move(Chk.Rederived);
      R.Cert.Footprint = E->FootprintAll
                             ? std::vector<std::string>{"*"}
                             : E->Footprint;
      R.CertJson = R.Cert.toJson(Live.termContext());
      R.CertChecked = true;
      ServeHit(R);
      return R;
    }
    if (Budget && Budget->expiredNow()) {
      // The re-check failed only because the budget ran out mid-way —
      // that says nothing about the entry, so it stays where it is. The
      // full verification below fails fast with the budget status.
    } else {
      // Tampered/corrupt/stale: quarantine the evidence and fall
      // through to a full verification, which will publish a fresh
      // entry.
      Cache->noteRejected();
      Cache->quarantine(Key);
    }
  } else {
    Cache->noteMiss();
  }

  PropertyResult R = Verify();
  R.PathFallback = PathFellBack;
  if (R.Status == VerifyStatus::Proved || R.Status == VerifyStatus::Unknown) {
    ProofCacheEntry NewE;
    NewE.Status = R.Status;
    NewE.Reason = R.Reason;
    NewE.Millis = R.Millis;
    NewE.CertChecked = R.CertChecked;
    if (R.Status == VerifyStatus::Proved) {
      NewE.CanonicalCert = R.Cert.canonical(Session().termContext());
      NewE.CertJson = R.CertJson;
    }
    NewE.FootprintCollected = R.Footprint.Collected;
    NewE.FootprintAll = R.Footprint.AllHandlers;
    NewE.Footprint = encodeFootprintHandlers(R.Footprint.Handlers);
    // Record the rendered path fingerprints of exactly the footprint's
    // handlers — what a later lookup needs as the "old" side of its path
    // comparison. The session exists (Verify just ran in it).
    if (R.Footprint.Collected && !R.Footprint.AllHandlers &&
        !R.Footprint.Handlers.empty()) {
      const PathFingerprints &Cur = CurPathsFor();
      for (const auto &[HKey, HF] : R.Footprint.Handlers) {
        (void)HF;
        auto It = Cur.find(HKey);
        if (It != Cur.end())
          NewE.PathFps.emplace(HKey, It->second);
      }
    }
    NewE.HandlerFps = Fps->Handlers;
    NewE.DeclSha256 = ProofCache::declId(Fps->DeclFp);
    NewE.ServedBy = R.ServedBy;
    // Store failures are non-fatal: the cache is an accelerator, the
    // verdict in hand is what matters.
    (void)Cache->store(Key, NewE, P.Name, Prop.Name);
  }
  return R;
}

PropertyResult verifyPropertyCached(VerifySession &Session,
                                    const Property &Prop, ProofCache *Cache,
                                    const ProgramFingerprints *Fps,
                                    Deadline *Budget,
                                    const PathFingerprints *CurPaths) {
  return verifyPropertyCached(
      Session.program(), Session.options(),
      [&Session]() -> VerifySession & { return Session; }, Prop, Cache, Fps,
      Budget, CurPaths);
}

} // namespace reflex
