//===- service/proofcache.h - Persistent content-addressed cache -*- C++ -*-===//
//
// Part of the Reflex/C++ reproduction of "Automating Formal Proofs for
// Reactive Systems" (PLDI 2014).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The on-disk proof cache behind `reflex verify --cache-dir` and the
/// incremental verifier: verdicts keyed by SHA-256 of
///
///     declaration fingerprint  +  property text  +  canonical options
///
/// where the declaration fingerprint (ProgramFingerprints::DeclFp,
/// verify/footprint.h) covers everything *except* handler bodies. Handler
/// bodies are validated per-entry instead: an entry records the
/// per-handler fingerprints of the program it was proved against, the
/// proof's footprint (path-granular: which paths of each consulted
/// handler the proof entered), and the rendered path fingerprints of the
/// footprint's handlers. A lookup against an edited program is served
/// when the edit is provably irrelevant to the proof: interface
/// fingerprints preserved and, for every footprint handler, the rendered
/// summary unchanged on everything the proof consulted — the whole
/// summary, or every path's emit structure plus the full content of just
/// the entered paths (footprintReusable). This is what makes warm hits
/// survive unrelated edits — including edits *inside* a footprint
/// handler, on branches the proof never entered. Entries store
/// the status, reason, original timing, and — for proved properties —
/// the certificate in two renderings: the audit JSON
/// (Certificate::toJson) and the canonical form (Certificate::canonical)
/// the checker compares.
///
/// Trust model (the paper's de Bruijn criterion, extended across process
/// boundaries): the cache is *untrusted*. Certificates reference
/// hash-consed terms, so a cached proof cannot be rehydrated into a live
/// session; instead, a hit for a proved property is only served after
/// checkCanonicalCertificate re-runs the deterministic derivation in the
/// live session, with the engine the entry names (`served_by`), and
/// confirms its canonical form matches the cached certificate
/// byte-for-byte. A corrupt, tampered, or simply stale entry fails that
/// comparison — a wrong `served_by` included, since another engine
/// re-derives another canonical form — and the property is re-verified
/// in full (and the entry quarantined, then overwritten). Every lookup
/// reads its entry from disk; nothing decoded is kept between lookups
/// except the full-recheck memo, which holds certificates this process
/// has itself accepted. What a warm hit buys is skipping the independent
/// checker pass (the comparison subsumes it) and skipping BMC refutation
/// searches for cached Unknowns — and, through the incremental verifier,
/// carrying verdicts across process restarts.
///
/// Thread safety: all public methods are safe to call concurrently (the
/// scheduler's workers share one ProofCache). Writes are atomic
/// (temp-file + rename), so concurrent processes sharing a cache
/// directory at worst duplicate work, never read torn entries.
///
//===----------------------------------------------------------------------===//

#ifndef REFLEX_SERVICE_PROOFCACHE_H
#define REFLEX_SERVICE_PROOFCACHE_H

#include "support/faultinject.h"
#include "support/result.h"
#include "verify/footprint.h"
#include "verify/verifier.h"

#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <set>
#include <string>
#include <unordered_map>

namespace reflex {

/// One cached verdict, as read from disk. Refuted verdicts are never
/// cached (their counterexample traces reference a live runtime; BMC is
/// cheap to re-run relative to proofs), so Status is Proved or Unknown.
struct ProofCacheEntry {
  VerifyStatus Status = VerifyStatus::Unknown;
  std::string Reason;
  /// Wall-clock of the original (cold) verification, for reporting.
  double Millis = 0;
  bool CertChecked = false;
  /// Proved only: canonical certificate (what the checker compares).
  std::string CanonicalCert;
  /// Proved only: audit JSON (what --certs exports on an unchecked hit).
  std::string CertJson;
  /// The proof footprint recorded when the verdict was produced
  /// (verify/footprint.h), in wire encoding — "key" for all paths,
  /// "key@id1,id2" for the entered paths. Not collected -> the entry is
  /// only served for a byte-identical program.
  bool FootprintCollected = false;
  bool FootprintAll = false;
  std::vector<std::string> Footprint;
  /// Rendered path fingerprints of the footprint's handlers, as they were
  /// in the program the verdict was proved against (the "old" side of the
  /// path-granular reuse comparison). Recorded only for collected,
  /// non-AllHandlers footprints; an entry without them can only be served
  /// for a byte-identical program.
  PathFingerprints PathFps;
  /// Per-handler fingerprints of the program the verdict was proved
  /// against, recorded at store time. Lookups compare them against the
  /// current program's fingerprints to decide footprint-relative reuse.
  std::map<std::string, HandlerFingerprint> HandlerFps;
  /// SHA-256 (hex) of the declaration fingerprint the entry was keyed
  /// under (ProofCache::declId), recorded at store time so garbage
  /// collection can group entries by program without re-deriving keys.
  /// Optional: entries stored before the field existed simply have it
  /// empty — gc() treats them as unclaimed (dropping one only ever costs
  /// a re-verification, never a wrong verdict).
  std::string DeclSha256;
  /// The engine that produced the verdict ("induction" / "pdr"), restored
  /// into PropertyResult::ServedBy on hits so reports stay byte-identical
  /// across cache states. Empty in pre-portfolio entries (which can no
  /// longer hit anyway: the engine joined the options fingerprint).
  std::string ServedBy;
};

/// A persistent content-addressed store of verification verdicts.
class ProofCache {
public:
  /// Bumped whenever the entry layout or the canonical certificate form
  /// changes. An entry from another version is *stale, not damaged*: it
  /// decodes to a plain miss (never quarantined) and is overwritten after
  /// re-verification. (cert_sha256 was once written without a bump; it
  /// is no longer written, and entries carrying it still decode, since
  /// unknown fields are ignored. Version 2 moved the key to the
  /// declaration fingerprint and added the proof footprint and
  /// per-handler fingerprints. Version 3 made footprints path-granular —
  /// entries record which paths of each consulted handler the proof
  /// entered, plus the rendered path fingerprints reuse compares; v2
  /// entries carry neither, and their guard order may predate
  /// render-stable sorting, so they cannot be validated against an edited
  /// program and simply miss. Version 4 certificates record only the
  /// steps search found: no step for a syntactically skipped handler.)
  static constexpr int64_t EntryVersion = 4;

  /// Opens (creating if needed) a cache rooted at \p Dir. Sweeps the
  /// orphaned temp files crashed writers left in `<dir>/tmp/` (any file
  /// there at open predates this process; a *concurrent* process sharing
  /// the directory could in the worst case lose an in-flight store —
  /// which costs a re-verification, never a wrong verdict).
  /// Opening reads and lists no entries: each lookup() reads and decodes
  /// just the file its key names, so opening costs the same however many
  /// entries the directory holds, and a request pays only for its own
  /// program's entries.
  static Result<std::unique_ptr<ProofCache>> open(const std::string &Dir);

  const std::string &directory() const { return Dir; }

  /// Attaches a fault-injection plan; all subsequent file IO consults it
  /// (sites "cache.read", "cache.write", "cache.rename", keyed by cache
  /// key). Call before sharing the cache across threads; \p Plan must
  /// outlive the cache. Null detaches.
  void setFaultPlan(const FaultPlan *Plan) { Faults = Plan; }

  /// The canonical serialization of the options that shape proofs and
  /// certificates. Part of the key: an entry produced under different
  /// options is a different proof.
  static std::string optionsFingerprint(const VerifyOptions &Opts);

  /// The content-addressed key (64 hex chars). \p DeclFingerprint is
  /// ProgramFingerprints::DeclFp — the program minus handler bodies and
  /// properties — so entries for the same declarations remain findable
  /// across handler edits (per-handler validation happens at lookup).
  static std::string keyFor(const std::string &DeclFingerprint,
                            const Property &Prop, const VerifyOptions &Opts);

  /// Reads the entry for \p Key. A missing file is a plain miss; a file
  /// that is present but damaged — unparsable, truncated, wrong version,
  /// junk status, a proved entry without its certificate — is quarantined
  /// (renamed into quarantine/, preserving the evidence) and counted as
  /// Rejected, then reported as a miss so the caller re-verifies.
  std::optional<ProofCacheEntry> lookup(const std::string &Key);

  /// Moves the entry for \p Key aside into `<dir>/quarantine/<key>.json`,
  /// overwriting any previous quarantined copy of the same key. Used by
  /// lookup for undecodable entries and by verifyPropertyCached for
  /// well-formed entries whose certificate fails the canonical re-check.
  /// No-op if the entry vanished meanwhile (a concurrent quarantine).
  void quarantine(const std::string &Key);

  /// Atomically writes the entry for \p Key (a temp file in `<dir>/tmp/`,
  /// fsynced, then renamed over the entry). \p ProgramName and
  /// \p PropertyName are stored for human auditing only.
  Result<void> store(const std::string &Key, const ProofCacheEntry &Entry,
                     const std::string &ProgramName,
                     const std::string &PropertyName);

  /// The program identity gc() groups entries by: SHA-256 (hex) of the
  /// declaration fingerprint (ProgramFingerprints::DeclFp). Stored in
  /// every entry at store time (ProofCacheEntry::DeclSha256).
  static std::string declId(const std::string &DeclFingerprint);

  struct GcOutcome {
    uint64_t Scanned = 0; ///< entry files examined
    uint64_t Dropped = 0; ///< entries deleted
    uint64_t Kept = 0;    ///< entries retained (their program is live)
    /// Programs treated as live because the persisted manifest saw them
    /// recently, though the caller's live set did not name them (e.g. a
    /// daemon restarted since they were last verified).
    uint64_t ManifestLive = 0;
    /// Quarantined evidence files surveyed / evicted (oldest first) to
    /// keep quarantine/ within its bound.
    uint64_t QuarantineKept = 0;
    uint64_t QuarantineEvicted = 0;
    /// Orphaned `*.json.tmp.*` files removed from the cache root, where
    /// stores wrote their temps before `tmp/` existed.
    uint64_t SweptTmp = 0;
  };

  /// Footprint-aware garbage collection: scans every entry on disk and
  /// deletes those whose recorded declaration identity
  /// (ProofCacheEntry::DeclSha256) matches no element of
  /// \p LiveDeclSha256 — i.e. no program the caller still knows about.
  /// Entries missing the field (pre-field stores) and undecodable files
  /// are dropped too: eviction costs at most a re-verification, and the
  /// trust model never believes an entry without validating it anyway.
  /// Surviving entries are untouched on disk (warm hits keep hitting).
  /// Safe to run concurrently with lookups and stores — a concurrently
  /// stored entry for a dead program at worst survives until the next
  /// collection. Counted in Stats (GcRuns, GcDropped).
  GcOutcome gc(const std::set<std::string> &LiveDeclSha256);

  /// How long a program's entries survive gc() after it was last named in
  /// a live set, via the persisted manifest (`<dir>/gc.manifest`:
  /// decl id -> last-seen wall-clock seconds). Each gc() stamps the
  /// caller's live set into the manifest and treats every program stamped
  /// within the window as live, so compaction works across daemon
  /// restarts without a warm-up pass — a restart empties the caller's
  /// live set, not the manifest. 0 disables the manifest contribution
  /// (only the caller's set counts; the manifest is still stamped).
  void setGcManifestMaxAge(uint64_t Seconds) { ManifestMaxAge = Seconds; }
  uint64_t gcManifestMaxAge() const { return ManifestMaxAge; }

  /// Bound on quarantine/ entries. lookup() moves damaged entries there
  /// as evidence rather than deleting them; without a bound a persistent
  /// corruption source (bad disk, bit-flipping fault plan) grows it
  /// forever. gc() evicts oldest-first — by (mtime, name), so the
  /// newest evidence survives — down to this many files. 0 keeps
  /// quarantine unbounded.
  void setQuarantineMax(uint64_t N) { QuarantineMax = N; }
  uint64_t quarantineMax() const { return QuarantineMax; }

  /// Cumulative traffic counters (process-lifetime, all threads).
  struct Stats {
    uint64_t Hits = 0;     ///< entry found and (for Proved) re-validated
    uint64_t Misses = 0;   ///< no usable entry
    uint64_t Stores = 0;   ///< entries written
    uint64_t Rejected = 0;    ///< entries refused: undecodable on disk, or
                              ///< the checker rejected the certificate
    uint64_t Quarantined = 0; ///< entries moved aside into quarantine/
    uint64_t SweptTmp = 0;    ///< orphaned tmp/ files removed at open
    uint64_t GcRuns = 0;      ///< gc() invocations
    uint64_t GcDropped = 0;   ///< entries deleted across all gc() runs
    /// Times a gc.manifest existed on disk but would not parse (torn or
    /// corrupt); each is replayed as an empty manifest with a warning.
    uint64_t ManifestCorrupt = 0;
    /// Of the hits, how many were footprint-relative (the entry was
    /// stored for an edited-since program version).
    uint64_t FootprintHits = 0;
    /// Of the footprint-relative hits, how many only the path-granular
    /// rule could serve (a footprint handler's rendered summary changed,
    /// but only on paths the proof never entered)…
    uint64_t PathHits = 0;
    /// …and how many footprint-relative candidates (entry present, program
    /// changed) fell back to re-verification.
    uint64_t PathFallbacks = 0;
    /// Phase timings (wall-clock, summed across threads): time spent
    /// reading + decoding entries in lookup(), and time spent
    /// re-validating certificates on hits (full canonical replay). The
    /// parallel bench reports the split.
    double DecodeMillis = 0;
    double RecheckMillis = 0;
  };
  Stats stats() const;

  // Traffic accounting, called by verifyPropertyCached.
  void noteHit();
  void noteMiss();
  void noteRejected();
  void noteFootprintHit();
  void notePathHit();
  void notePathFallback();
  void noteDecodeMillis(double Ms);
  void noteRecheckMillis(double Ms);

  /// The current program's rendered path fingerprints, memoized per
  /// (program, options) identity for the life of the process — \p MemoKey
  /// must pin both (DeclFp + HandlersFp + options fingerprint). Computed
  /// from \p Live's abstraction on first demand; later lookups for the
  /// same program (any property, any worker) reuse the map. The returned
  /// reference lives as long as the cache.
  const PathFingerprints &pathFingerprintsFor(const std::string &MemoKey,
                                              VerifySession &Live);

  /// The full-recheck memo: once checkCanonicalCertificate has accepted
  /// \p CanonicalCert against a given program with a given engine
  /// (identified by \p MemoKey — cache key + ":" + handler-body digest +
  /// ":" + served_by), replaying the byte-identical certificate against
  /// the byte-identical program is guaranteed to accept again (the
  /// derivation is deterministic), so later warm hits skip the replay. A
  /// hit is memoized only when its certificate equals the accepted one
  /// byte for byte; a different certificate under the same key is
  /// replayed (and, if accepted, replaces the memoized one). This is what
  /// keeps warm full-mode re-checking cheaper than re-proving: each
  /// certificate is replayed through the checker at most once per process
  /// while it stays the key's latest accepted one.
  bool fullRecheckMemoized(const std::string &MemoKey,
                           const std::string &CanonicalCert) const;
  void noteFullRecheckOk(const std::string &MemoKey,
                         const std::string &CanonicalCert);

private:
  explicit ProofCache(std::string Dir) : Dir(std::move(Dir)) {}

  std::string pathFor(const std::string &Key) const;

  /// The persisted GC live-set (decl id -> last-seen seconds since the
  /// Unix epoch). Best-effort on both ends: a missing manifest is an
  /// empty one; a present-but-corrupt manifest (torn write, bad disk) is
  /// also treated as empty, with a stderr warning and a Stats counter —
  /// losing it costs at most early evictions, never wrong verdicts. The
  /// store fsyncs a temp file and renames it over the final path, so a
  /// crash can tear at most the temp, not the published manifest.
  std::map<std::string, uint64_t> loadGcManifest();
  void storeGcManifest(const std::map<std::string, uint64_t> &Seen) const;
  /// Oldest-first eviction keeping quarantine/ within QuarantineMax.
  void boundQuarantine(GcOutcome &Out);

  std::string Dir;
  /// Default: two weeks — long enough to ride out restarts and weekends,
  /// short enough that abandoned programs' entries do get reclaimed.
  uint64_t ManifestMaxAge = 14 * 24 * 60 * 60;
  /// Default: enough evidence to diagnose a corruption burst without
  /// letting a persistent source grow the directory unboundedly.
  uint64_t QuarantineMax = 64;
  const FaultPlan *Faults = nullptr;
  mutable std::mutex Mu;
  Stats S;

  /// The last canonical certificate accepted by a full re-check this
  /// process, per memo key (see fullRecheckMemoized): one certificate per
  /// key, so memory stays bounded by the keys looked up. Only successes
  /// are memoized — a failed replay quarantines the entry.
  mutable std::mutex RecheckMu;
  std::unordered_map<std::string, std::string> RecheckOk;

  /// Per-program rendered path fingerprints (see pathFingerprintsFor).
  /// unordered_map value references are stable across inserts, so handing
  /// them out under the lock is safe.
  mutable std::mutex PathFpsMu;
  std::unordered_map<std::string, PathFingerprints> PathFpsMemo;
};

/// Cache-aware verification of one property in \p Session:
///
///  * \p Cache == nullptr — plain Session.verify(Prop);
///  * miss — full verification, then the verdict is stored;
///  * hit, Proved — checkCanonicalCertificate re-derives the proof in the
///    session and compares; on success the result carries the re-derived
///    (live) certificate with CertChecked = CacheHit = true. Rejection
///    falls back to full verification and overwrites the entry. When the
///    session's options disable certificate checking, the hit is served
///    without re-validation (matching the user's chosen trust level);
///  * hit, Unknown — status and reason are reused directly.
///
/// \p Fps must be ProgramFingerprints::compute(Session.program()), or
/// null to have it computed here (callers verifying many properties
/// should precompute it). The cache key is derived from its DeclFp; a
/// hit whose stored handler fingerprints differ from the current ones is
/// served only when footprintReusable holds against the entry's recorded
/// path-granular footprint and stored path fingerprints (the edit kept
/// every interface and left everything the proof consulted rendered
/// byte-identical), in which case the result carries FootprintHit = true
/// (and PathHit = true when only the path-granular rule could serve it);
/// an incompatible entry is a plain miss (stale, not damaged — no
/// quarantine) and is overwritten after re-verification, with the
/// re-verified result carrying PathFallback = true.
///
/// \p CurPaths, when non-null, must be
/// computePathFingerprints(<current program's abstraction>) — the "new"
/// side of the path comparison; when null it is computed on demand from
/// the live session and memoized in the cache per program, so only
/// lookups that actually face a changed program pay for it.
///
/// \p Budget optionally bounds the whole operation, including the
/// certificate re-check on a warm hit; a re-check that fails only because
/// the budget ran out is *not* a rejection (the entry stays), the
/// property just reports its budget status. Budget statuses are never
/// stored.
///
/// A Proved hit whose certificate equals, byte for byte, the one this
/// process last accepted for the same (key, handler bodies, engine) is
/// served from the recheck memo without replaying (CertChecked = true, no
/// live certificate — CertJson comes from the entry).
PropertyResult verifyPropertyCached(VerifySession &Session,
                                    const Property &Prop, ProofCache *Cache,
                                    const ProgramFingerprints *Fps = nullptr,
                                    Deadline *Budget = nullptr,
                                    const PathFingerprints *CurPaths = nullptr);

/// Lazy-session variant: \p Session is invoked only if a live session is
/// actually needed — a cache miss, a full certificate re-check, or a
/// rejected entry. Unknown hits, unchecked Proved hits, and Proved hits
/// already in the full-recheck memo are served without ever building
/// one; this is what makes the warm path cheap (no symbolic re-execution
/// of the program) and what the scheduler uses to avoid building
/// sessions for fully cached programs. The provider may be called
/// multiple times and must return the same session (for \p P, with
/// \p Opts) each time.
PropertyResult verifyPropertyCached(
    const Program &P, const VerifyOptions &Opts,
    const std::function<VerifySession &()> &Session, const Property &Prop,
    ProofCache *Cache, const ProgramFingerprints *Fps = nullptr,
    Deadline *Budget = nullptr, const PathFingerprints *CurPaths = nullptr);

} // namespace reflex

#endif // REFLEX_SERVICE_PROOFCACHE_H
