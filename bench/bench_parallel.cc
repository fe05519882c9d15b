//===- bench/bench_parallel.cc - Parallel + cached verification -----------===//
//
// The verification-service bench: all seven kernels (41 properties)
// verified sequentially, then on N workers (one frozen abstraction per
// program shared by every worker), then against a cold and a warm
// persistent proof cache, every warm hit re-checked in full by the
// certificate checker. Writes BENCH_parallel.json so later PRs can track
// the perf trajectory. Timings are medians over `reps`
// repetitions (medians resist scheduler noise; minima hide it), the
// sequential-vs-parallel speedups are medians of *paired*
// adjacent-batch ratios (neighboring batches see nearly the same
// machine, so container jitter cancels instead of masquerading as a
// speedup or slowdown), and speedups are reported to two decimals —
// the honest precision at this host's noise floor.
//
// Correctness gates (exit non-zero on failure):
//  * every parallel run's per-property statuses and reasons are identical
//    to the sequential run's (the scheduler's determinism contract);
//  * the warm-cache run serves every property from the cache, with every
//    proved verdict re-validated by the checker.
//
// Flags:
//   --jobs N    largest worker count to measure (default 4; 0 = cores)
//   --smoke     one repetition, no speedup expectations — the TSan
//               harness uses this to race-check the service cheaply
//   --out FILE  JSON output path (default BENCH_parallel.json)
//
//===----------------------------------------------------------------------===//

#include "bench_util.h"
#include "kernels/kernels.h"
#include "service/scheduler.h"
#include "service/threadpool.h"
#include "support/json.h"
#include "support/timer.h"

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include <unistd.h>

using namespace reflex;

namespace {

struct Suite {
  std::vector<ProgramPtr> Owned;
  std::vector<const Program *> Programs;
};

Suite loadSuite() {
  Suite S;
  for (const kernels::KernelDef *K : kernels::all()) {
    S.Owned.push_back(kernels::load(*K));
    S.Programs.push_back(S.Owned.back().get());
  }
  return S;
}

/// Median wall clock over \p Runs repetitions (odd Runs → true median).
/// Medians, not minima: a minimum under-reports contended phases and can
/// even go negative in derived overhead percentages when noise exceeds
/// the effect; the median is a consistent estimator of the typical run.
double medianOverRuns(unsigned Runs,
                      const std::vector<const Program *> &Programs,
                      const SchedulerOptions &Opts, BatchOutcome *Last) {
  std::vector<double> Ms;
  Ms.reserve(Runs);
  for (unsigned I = 0; I < Runs; ++I) {
    BatchOutcome Out = verifyPrograms(Programs, Opts);
    Ms.push_back(Out.TotalMillis);
    if (Last)
      *Last = std::move(Out);
  }
  return benchutil::median(std::move(Ms));
}

} // namespace

int main(int Argc, char **Argv) {
  benchutil::BenchArgs BA;
  if (!benchutil::parseBenchArgs(Argc, Argv, "bench_parallel",
                                 "BENCH_parallel.json", {"--jobs"}, BA))
    return 2;
  unsigned MaxJobs = unsigned(BA.num("--jobs", 4));
  const bool Smoke = BA.Smoke;
  const std::string &OutPath = BA.OutPath;
  if (MaxJobs == 0)
    MaxJobs = ThreadPool::defaultWorkerCount();
  const unsigned Runs = Smoke ? 1 : 5;
  // Paired samples per repetition, and batches per sample: a speedup is
  // estimated from Runs * Inner paired ratios, each ratio formed from
  // two adjacent samples of Sub whole batches (median). A batch is a few
  // milliseconds, so even Runs * Inner * Sub batches per configuration
  // total a couple of seconds — cheap insurance against the container's
  // heavy-tailed scheduling noise.
  const unsigned Inner = Smoke ? 1 : 10;
  const unsigned Sub = Smoke ? 1 : 3;

  Suite S = loadSuite();
  std::printf("=== Parallel verification service: %zu kernels, %u "
              "properties ===\n\n",
              S.Programs.size(), kernels::totalProperties());

  // Measured configurations: the sequential baseline, the parallel sweep
  // (2, 4, ..., MaxJobs; dedup, ascending).
  std::vector<unsigned> JobCounts;
  for (unsigned J = 2; J < MaxJobs; J *= 2)
    JobCounts.push_back(J);
  if (MaxJobs >= 2)
    JobCounts.push_back(MaxJobs);

  // Paired batches: every parallel configuration is measured as a series
  // of (sequential batch, parallel batch) pairs run back to back, and its
  // speedup is the median of the per-pair ratios over all Runs * Inner
  // pairs. Container jitter on this host is batch-scale (a batch is a
  // few milliseconds; neighboring batches see nearly the same machine,
  // batches seconds apart do not), so pairing at the batch level is what
  // actually cancels it — ratios of phase medians measured far apart
  // absorb the drift between the phases. Within a pair the order
  // alternates (seq-then-par, par-then-seq), so any systematic
  // first-vs-second-of-pair effect cancels too.
  SchedulerOptions Seq;
  Seq.Jobs = 1;
  verifyPrograms(S.Programs, Seq); // untimed warm-up
  std::vector<double> SeqSamples;
  BatchOutcome SeqOut;
  std::vector<benchutil::PairedSamples> ParPairs(JobCounts.size());
  std::vector<BatchOutcome> ParOut(JobCounts.size());
  for (size_t JI = 0; JI < JobCounts.size(); ++JI) {
    SchedulerOptions Par;
    Par.Jobs = JobCounts[JI];
    ParPairs[JI] = benchutil::measurePaired(
        Runs * Inner,
        [&] { return medianOverRuns(Sub, S.Programs, Seq, &SeqOut); },
        [&] { return medianOverRuns(Sub, S.Programs, Par, &ParOut[JI]); });
    SeqSamples.insert(SeqSamples.end(), ParPairs[JI].NumMs.begin(),
                      ParPairs[JI].NumMs.end());
  }
  if (JobCounts.empty())
    for (unsigned R = 0; R < Runs * Inner; ++R)
      SeqSamples.push_back(medianOverRuns(Sub, S.Programs, Seq, &SeqOut));

  double SeqMs = benchutil::median(SeqSamples);
  auto SeqVerdicts = benchutil::flatVerdicts(SeqOut);
  std::printf("%-24s %10.2f ms   (%u/%u proved)\n", "sequential (1 worker)",
              SeqMs, SeqOut.provedCount(), SeqOut.propertyCount());

  struct ParallelRow {
    unsigned Jobs;
    double Ms;
    double Speedup;
  };
  std::vector<ParallelRow> Rows;
  bool Deterministic = true;
  for (size_t JI = 0; JI < JobCounts.size(); ++JI) {
    unsigned J = JobCounts[JI];
    if (benchutil::flatVerdicts(ParOut[JI]) != SeqVerdicts) {
      std::fprintf(stderr,
                   "FAIL: %u-worker verdicts differ from sequential\n", J);
      Deterministic = false;
    }
    double Ms = ParPairs[JI].denMedian();
    double Speedup = ParPairs[JI].speedup();
    Rows.push_back({J, Ms, Speedup});
    char Label[64];
    std::snprintf(Label, sizeof(Label), "parallel (%u workers)", J);
    std::printf("%-24s %10.2f ms   %.2fx\n", Label, Ms, Speedup);
  }

  // Proof cache: cold populate, then a warm phase that must serve all 41
  // verdicts from disk, each Proved one re-checked by the checker.
  std::filesystem::path CacheDir =
      std::filesystem::temp_directory_path() /
      ("reflex-bench-cache-" + std::to_string(::getpid()));
  double ColdMs = 0, WarmFullMs = 0;
  // Per-phase costs inside the warm lookups (last measured batch): JSON
  // decode of the cached entries vs certificate re-validation. With the
  // content-keyed re-check memo, a warm steady-state batch replays no
  // certificate it has already replayed this process, so the full-path
  // recheck_ms collapses after the first warm batch.
  double WarmDecodeMs = 0, WarmRecheckMs = 0;
  uint64_t WarmHits = 0, WarmRejected = 0;
  bool WarmAllCached = false;
  {
    Result<std::unique_ptr<ProofCache>> Cache =
        ProofCache::open(CacheDir.string());
    if (!Cache.ok()) {
      std::fprintf(stderr, "FAIL: %s\n", Cache.error().c_str());
      return 1;
    }
    SchedulerOptions Cached;
    Cached.Jobs = MaxJobs;
    Cached.Cache = Cache->get();
    BatchOutcome Cold = verifyPrograms(S.Programs, Cached);
    ColdMs = Cold.TotalMillis;
    BatchOutcome Warm;
    WarmFullMs = medianOverRuns(Runs, S.Programs, Cached, &Warm);
    WarmHits = Warm.CacheStats.Hits;
    WarmRejected = Warm.CacheStats.Rejected;
    WarmDecodeMs = Warm.CacheStats.DecodeMillis;
    WarmRecheckMs = Warm.CacheStats.RecheckMillis;
    WarmAllCached = WarmHits == Warm.propertyCount();
    for (const VerificationReport &R : Warm.Reports)
      for (const PropertyResult &PR : R.Results)
        if (PR.Status == VerifyStatus::Proved && !PR.CertChecked)
          WarmAllCached = false;
    if (benchutil::flatVerdicts(Warm) != SeqVerdicts) {
      std::fprintf(stderr, "FAIL: warm-cache verdicts differ from "
                           "sequential\n");
      Deterministic = false;
    }
    std::printf("%-24s %10.2f ms\n", "cache cold (populate)", ColdMs);
    std::printf("%-24s %10.2f ms   %.2fx vs sequential, %llu/%u from "
                "cache\n",
                "cache warm (full)", WarmFullMs,
                WarmFullMs > 0 ? SeqMs / WarmFullMs : 0,
                (unsigned long long)WarmHits, Warm.propertyCount());
    std::printf("%-24s decode %.2f ms, re-check %.2f ms\n", "",
                WarmDecodeMs, WarmRecheckMs);
  }
  std::error_code EC;
  std::filesystem::remove_all(CacheDir, EC);

  // JSON trajectory record.
  JsonWriter W;
  W.beginObject();
  W.field("bench", "parallel");
  W.field("smoke", Smoke);
  W.field("reps", int64_t(Runs));
  W.field("kernels", int64_t(S.Programs.size()));
  W.field("properties", int64_t(SeqOut.propertyCount()));
  W.field("proved", int64_t(SeqOut.provedCount()));
  W.key("sequential_ms");
  W.value(SeqMs);
  W.key("parallel");
  W.beginArray();
  for (const ParallelRow &R : Rows) {
    W.beginObject();
    W.field("jobs", int64_t(R.Jobs));
    W.key("ms");
    W.value(R.Ms);
    W.key("speedup");
    W.value(R.Speedup);
    W.endObject();
  }
  W.endArray();
  W.key("cache");
  W.beginObject();
  W.key("cold_ms");
  W.value(ColdMs);
  W.key("warm_full_ms");
  W.value(WarmFullMs);
  W.key("warm_full_decode_ms");
  W.value(WarmDecodeMs);
  W.key("warm_full_recheck_ms");
  W.value(WarmRecheckMs);
  W.key("warm_speedup_vs_sequential");
  W.value(benchutil::round2(WarmFullMs > 0 ? SeqMs / WarmFullMs : 0));
  W.field("warm_hits", int64_t(WarmHits));
  W.field("warm_rejected", int64_t(WarmRejected));
  W.field("warm_all_cached", WarmAllCached);
  W.endObject();
  W.field("deterministic", Deterministic);
  W.endObject();
  if (!benchutil::writeJsonRecord(W, OutPath))
    return 1;

  if (!Deterministic || !WarmAllCached) {
    std::fprintf(stderr, "FAIL: %s\n",
                 !Deterministic ? "nondeterministic verdicts"
                                : "warm cache did not serve all verdicts");
    return 1;
  }
  return 0;
}
