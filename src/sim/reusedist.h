/**
 * @file
 * Reuse-distance profiles: the working-set sweep's fully associative
 * column, and the analytical fast path built on it.
 *
 * The sweep (sim/sweep.h) records every line reference's Mattson
 * stack distance into a compact profile: per-processor line-grain
 * reuse-distance histograms (exact small-distance bins, log2 buckets
 * above) plus cold and coherence-invalidated counts.  From one
 * profile follow miss-rate curves for *every* capacity:
 *
 *  - Fully associative LRU: directly from the histogram CDF.  Every
 *    bucket boundary is a power of two, so at power-of-two capacities
 *    the count is exact -- this is how the sweep answers its
 *    kFullyAssoc column.  "Exact" means exact for the stack model:
 *    coherence misses are counted on sharing streams, but an
 *    invalidated line keeps its stack position, so the count can
 *    exceed that of a fully associative cache which frees the slot.
 *  - Finite associativity (the model): the standard binomial
 *    correction.  A random set-index spreads the d distinct lines
 *    touched between reuses over S sets, so a reuse at distance d
 *    misses in an A-way cache with probability P[Binomial(d, 1/S) >=
 *    A]; the model applies it per bucket at the bucket's mean
 *    distance.  This is where model error lives (the exact sweep's
 *    victim preference for coherence-stale lines is not modeled
 *    either); the committed error table
 *    (results/fig3_model_error.csv) quantifies it per application.
 *
 * Profiles are tiny (a few hundred counters per processor,
 * independent of the reference count) and live only as long as the
 * run that filled them: a model sweep of a recorded program replays
 * its trace through the one-column sweep, like any other sweep.
 */
#ifndef SPLASH2_SIM_REUSEDIST_H
#define SPLASH2_SIM_REUSEDIST_H

#include <cstdint>
#include <string>
#include <vector>

#include "base/types.h"
#include "sim/grid.h"
#include "sim/trace.h"

namespace splash::sim {

/** Working-set sweep engine selection (--sweep):
 *  Exact = the Mattson + tag-array simulation (sim/sweep.h),
 *  Model = the fully associative column's profile + analytical
 *          predictions,
 *  Both  = the whole grid, reporting model-vs-exact error. */
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

/** Histogram layout of the profile.  Buckets
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
 *  needs, decoupled from the (heavy) stack state. */
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
        bool operator==(const Row& o) const = default;
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

    /** Count one line reference of processor @p p whose
     *  StackDistance::touch outcome was @p distance. */
    void record(ProcId p, std::uint64_t distance);
    /** Zero every row's counters (a measurement boundary). */
    void clearCounts();
    /** Add another shard's rows (an empty profile takes @p o's). */
    ReuseDistProfile& operator+=(const ReuseDistProfile& o);

    std::uint64_t accesses() const;
    /** Total misses at every capacity (cold + invalidated). */
    std::uint64_t coldOrStale() const;
    /** Fraction of all-capacity misses caused by coherence
     *  invalidation rather than first touch (the sharing signal the
     *  error report explains misfits with). */
    double staleFraction() const;

    /** Misses in a fully associative LRU cache of @p sizeBytes: exact
     *  when @p sizeBytes / lineSize is a power of two (every bucket
     *  boundary aligns), which is the sweep's kFullyAssoc column;
     *  other capacities interpolate inside the one straddled
     *  bucket. */
    std::uint64_t faMisses(std::uint64_t sizeBytes) const;

    /** Predicted miss rate at (@p sizeBytes, @p assoc); kFullyAssoc =
     *  fully associative (exact, see faMisses), assoc >= 1 = binomial
     *  associativity correction at each bucket's mean distance. */
    double missRate(std::uint64_t sizeBytes, int assoc) const;

    bool operator==(const ReuseDistProfile& o) const = default;
};

} // namespace splash::sim

#endif // SPLASH2_SIM_REUSEDIST_H
