/**
 * @file
 * Reuse-distance analytical fast path for the working-set sweep.
 *
 * The exact Figure-3 engine (sim/sweep.h) walks every reference once
 * per application to simulate all 34 cache configurations.  This
 * component collapses that sweep into a post-processing step over a
 * compact profile: per-processor line-grain reuse-distance histograms
 * (exact small-distance bins, log2 buckets above) recorded by one
 * pass over the reference stream -- and from one profile, predicted
 * miss-rate curves for *every* capacity:
 *
 *  - Fully associative LRU: directly from the histogram CDF.  The
 *    profiler shares the exact sweep's StackDistance core and
 *    VersionCoherence invalidation model, and every bucket boundary
 *    is a power of two, so the prediction is bit-identical to the
 *    exact Mattson sweep at every power-of-two capacity -- including
 *    coherence misses on sharing streams.
 *  - Finite associativity: the standard binomial correction.  A
 *    random set-index spreads the d distinct lines touched between
 *    reuses over S sets, so a reuse at distance d misses in an A-way
 *    cache with probability P[Binomial(d, 1/S) >= A]; the model
 *    applies it per bucket at the bucket's mean distance.  This is
 *    where model error lives (the exact sweep's victim preference for
 *    coherence-stale lines is not modeled either); the committed
 *    error table (results/fig3_model_error.csv) quantifies it per
 *    application.
 *
 * Profiles are tiny (a few hundred counters per processor,
 * independent of the reference count) and can be saved next to a
 * recorded trace as a ".rdp" sidecar, so a later `--sweep model` run
 * needs neither fiber execution nor trace replay: it loads the
 * sidecar and evaluates curves in microseconds.
 *
 * The profiler is a RefSink, so it attaches anywhere the trace
 * recorder or race detector does -- including as one replica of the
 * broadcast replay engine (sim/replay.h).
 */
#ifndef SPLASH2_SIM_REUSEDIST_H
#define SPLASH2_SIM_REUSEDIST_H

#include <cstdint>
#include <string>
#include <vector>

#include "base/types.h"
#include "sim/sweep.h"
#include "sim/trace.h"
#include "sim/tracestore.h"

namespace splash::sim {

/** Working-set sweep engine selection (--sweep):
 *  Exact = the Mattson + tag-array simulation (sim/sweep.h),
 *  Model = reuse-distance profile + analytical predictions,
 *  Both  = run both and report model-vs-exact error. */
enum class SweepMode : std::uint8_t { Exact, Model, Both };

inline const char*
sweepModeName(SweepMode m)
{
    switch (m) {
    case SweepMode::Exact: return "exact";
    case SweepMode::Model: return "model";
    default: return "both";
    }
}

inline bool
parseSweepMode(const std::string& s, SweepMode* out)
{
    if (s == "exact") *out = SweepMode::Exact;
    else if (s == "model") *out = SweepMode::Model;
    else if (s == "both") *out = SweepMode::Both;
    else return false;
    return true;
}

/** Histogram layout shared by the profiler and the profile.  Buckets
 *  are keyed by the capacity b = distance + 1 (in lines) a reuse
 *  needs to hit: one exact bin per b <= kExact, then one bucket per
 *  power-of-two range (2^(j-1), 2^j].  Every boundary is a power of
 *  two, so power-of-two capacity queries never split a bucket. */
namespace rdbucket {

constexpr std::uint64_t kExact = 256;
/** Exact bins + log2 buckets covering b = 257 .. 2^64. */
constexpr int kBuckets = static_cast<int>(kExact) + 56;

/** Bucket index of needed capacity @p b (>= 1). */
int bucketOf(std::uint64_t b);
/** Smallest / largest needed capacity mapping to bucket @p i. */
std::uint64_t bucketMin(int i);
std::uint64_t bucketMax(int i);

} // namespace rdbucket

/** Snapshot of one profiling pass: everything the analytical sweep
 *  needs, decoupled from the (heavy) profiler state. */
struct ReuseDistProfile
{
    /** Per-processor histogram row. */
    struct Row
    {
        std::uint64_t accesses = 0;  ///< line references issued
        std::uint64_t cold = 0;      ///< first touches
        std::uint64_t stale = 0;     ///< coherence-invalidated reuses
        /** count[i]: reuses whose needed capacity falls in bucket i;
         *  sumDist[i]: their summed stack distances (for the bucket's
         *  mean distance, the associativity correction's input). */
        std::vector<std::uint64_t> count;
        std::vector<std::uint64_t> sumDist;

        Row();
        /** Misses at every capacity: cold + coherence-invalidated. */
        std::uint64_t coldOrStale() const { return cold + stale; }
        bool operator==(const Row& o) const;
    };

    ReuseDistProfile() = default;
    /** An all-zero profile of @p procCount rows at @p line bytes. */
    ReuseDistProfile(int procCount, int line)
        : nprocs(procCount), lineSize(line), procs(procCount)
    {
    }

    int nprocs = 0;
    int lineSize = 64;
    std::vector<Row> procs;
    /** Execution profile of the producing run, so a model sweep from
     *  a sidecar can report execution statistics without opening the
     *  trace. */
    ExecProfile exec;

    /** Count one line reference of processor @p p whose
     *  StackDistance::touch outcome was @p distance. */
    void record(ProcId p, std::uint64_t distance);
    /** Zero every row's counters (a measurement boundary). */
    void clearCounts();

    std::uint64_t accesses() const;
    /** Total misses at every capacity (cold + invalidated). */
    std::uint64_t coldOrStale() const;
    /** Fraction of all-capacity misses caused by coherence
     *  invalidation rather than first touch (the sharing signal the
     *  error report explains misfits with). */
    double staleFraction() const;

    /** Predicted misses in a fully associative LRU cache of
     *  @p sizeBytes.  Bit-identical to CacheSweep::misses(size, 0)
     *  when @p sizeBytes / lineSize is a power of two (every bucket
     *  boundary aligns); other capacities interpolate inside the one
     *  straddled bucket. */
    std::uint64_t faMisses(std::uint64_t sizeBytes) const;

    /** Predicted miss rate at (@p sizeBytes, @p assoc); assoc 0 =
     *  fully associative (exact, see faMisses), assoc >= 1 = binomial
     *  associativity correction at each bucket's mean distance. */
    double missRate(std::uint64_t sizeBytes, int assoc) const;

    /** Histogram equality (exec profile excluded: it describes the
     *  producing run, not the reuse behavior). */
    bool operator==(const ReuseDistProfile& o) const;
    bool operator!=(const ReuseDistProfile& o) const
    {
        return !(*this == o);
    }

    /** Serialize to @p path (atomic: staged + renamed), stamped with
     *  the producing run's identity @p meta and a CRC.  False with
     *  @p err on I/O failure. */
    bool save(const std::string& path, const TraceMeta& meta,
              std::string* err) const;

    /** Load @p path and require its recorded identity to equal
     *  @p meta (and its line size to equal @p out->lineSize if set by
     *  the caller via expectLineSize).  False with a diagnostic on a
     *  missing file, corruption, or identity mismatch. */
    static bool load(const std::string& path, const TraceMeta& meta,
                     int expectLineSize, ReuseDistProfile* out,
                     std::string* err);
};

/** Canonical sidecar path of @p m's profile next to its trace in
 *  store @p dirOrFile: "<trace path>.rdp". */
std::string profilePathFor(const std::string& dirOrFile,
                           const TraceMeta& m);

/** The profiling pass: a RefSink accumulating per-processor
 *  reuse-distance histograms over the line-grain reference stream,
 *  with cross-processor invalidations modeled by the exact sweep's
 *  own VersionCoherence (so coherence misses are counted, not lost).
 *  It walks its own Mattson stacks, so it serves runs without an exact
 *  sweep; a CacheSweep given a profile fills it from the stacks it
 *  already walks.
 */
class ReuseDistProfiler final : public RefSink
{
  public:
    ReuseDistProfiler(int nprocs, int lineSize);

    void access(const AccessRec& r) override;
    /** Zero the histogram counters while keeping stack and coherence
     *  contents (measurement boundary past cold start), mirroring
     *  CacheSweep::resetStats. */
    void resetStats() override;

    /** Snapshot the histograms (exec profile left empty; drivers fill
     *  it in before saving a sidecar). */
    ReuseDistProfile profile() const;

    int nprocs() const { return profile_.nprocs; }
    int lineSize() const { return profile_.lineSize; }

  private:
    void touchLine(ProcId p, Addr lineAddr, bool isWrite);

    int lineShift_;
    VersionCoherence coh_;
    std::vector<StackDistance> stacks_;
    ReuseDistProfile profile_;
};

} // namespace splash::sim

#endif // SPLASH2_SIM_REUSEDIST_H
