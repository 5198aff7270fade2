// Tests for the reuse-distance analytical fast path: histogram bucket
// geometry, hand-computable predictions on synthetic streams, the
// differential of a sweep of the fully associative column alone
// (--sweep model) against the full grid's profile, and the profiler
// as a broadcast replica.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "../rt/run_compare.h"
#include "sim/grid.h"
#include "sim/replay.h"
#include "sim/reusedist.h"
#include "sim/sweep.h"

using namespace splash;
using namespace splash::sim;

namespace {

constexpr int kLine = 64;

AccessRec
rec(ProcId p, Addr a, AccessType t)
{
    AccessRec r;
    r.addr = a;
    r.size = 4;
    r.proc = static_cast<std::int16_t>(p);
    r.type = t;
    return r;
}

/** Feed the same line-aligned stream to a profiler. */
void
feed(ReuseDistProfiler& prof, const std::vector<AccessRec>& recs)
{
    for (const AccessRec& r : recs)
        prof.access(r);
}

std::vector<AccessRec>
randomStream(int nprocs, int n, std::uint64_t lines, std::uint64_t seed,
             bool privateLines)
{
    std::vector<AccessRec> out;
    out.reserve(n);
    std::uint64_t x = seed;
    for (int i = 0; i < n; ++i) {
        x = x * 6364136223846793005ull + 1442695040888963407ull;
        const ProcId p = static_cast<ProcId>((x >> 33) % nprocs);
        std::uint64_t line = (x >> 13) % lines;
        if (privateLines)
            line += std::uint64_t(p) * lines;
        out.push_back(rec(p, line * kLine, (x >> 7) & 1
                                               ? AccessType::Write
                                               : AccessType::Read));
    }
    return out;
}

// ----------------------------------------------------------------------
// Bucket geometry.

TEST(RdBucket, ExactBinsBelowThreshold)
{
    for (std::uint64_t b = 1; b <= rdbucket::kExact; ++b) {
        const int i = rdbucket::bucketOf(b);
        EXPECT_EQ(i, static_cast<int>(b) - 1);
        EXPECT_EQ(rdbucket::bucketMin(i), b);
        EXPECT_EQ(rdbucket::bucketMax(i), b);
    }
}

TEST(RdBucket, Log2BucketsAboveThreshold)
{
    // (256, 512] is the first log2 bucket; every boundary is a power
    // of two, so power-of-two capacities never split a bucket.
    EXPECT_EQ(rdbucket::bucketOf(257), rdbucket::bucketOf(512));
    EXPECT_NE(rdbucket::bucketOf(512), rdbucket::bucketOf(513));
    EXPECT_EQ(rdbucket::bucketOf(513), rdbucket::bucketOf(1024));
    const int i = rdbucket::bucketOf(257);
    EXPECT_EQ(rdbucket::bucketMin(i), 257u);
    EXPECT_EQ(rdbucket::bucketMax(i), 512u);
    const int j = rdbucket::bucketOf(513);
    EXPECT_EQ(rdbucket::bucketMin(j), 513u);
    EXPECT_EQ(rdbucket::bucketMax(j), 1024u);
}

TEST(RdBucket, CoversFullRange)
{
    // The top bucket holds the largest representable capacities.
    const std::uint64_t top = ~std::uint64_t{0};
    const int i = rdbucket::bucketOf(top);
    EXPECT_LT(i, rdbucket::kBuckets);
    EXPECT_GE(rdbucket::bucketMax(i), top);
    // Every bucket index round-trips through its min and max.
    for (int k = 0; k < rdbucket::kBuckets; ++k) {
        EXPECT_EQ(rdbucket::bucketOf(rdbucket::bucketMin(k)), k);
        EXPECT_EQ(rdbucket::bucketOf(rdbucket::bucketMax(k)), k);
    }
}

// ----------------------------------------------------------------------
// Hand-computable predictions.

TEST(ReuseDistModel, PureStreamingMissesEverywhere)
{
    // Every reference touches a new line: all cold, miss rate 1 at
    // every capacity and associativity.
    ReuseDistProfiler prof(1, kLine);
    for (std::uint64_t i = 0; i < 1000; ++i)
        prof.access(rec(0, i * kLine, AccessType::Read));
    const ReuseDistProfile p = prof.profile();
    EXPECT_EQ(p.accesses(), 1000u);
    EXPECT_EQ(p.coldOrStale(), 1000u);
    for (std::uint64_t size : fig3Sizes())
        for (int assoc : fig3ReportAssocs())
            EXPECT_DOUBLE_EQ(p.missRate(size, assoc), 1.0)
                << size << "/" << assoc;
}

TEST(ReuseDistModel, PerfectLoopReuse)
{
    // One processor loops over L=4 lines N times: 4 cold misses, then
    // every reuse at stack distance 3.
    constexpr std::uint64_t N = 500, L = 4;
    ReuseDistProfiler prof(1, kLine);
    for (std::uint64_t it = 0; it < N; ++it)
        for (std::uint64_t l = 0; l < L; ++l)
            prof.access(rec(0, l * kLine, AccessType::Read));
    const ReuseDistProfile p = prof.profile();
    EXPECT_EQ(p.accesses(), N * L);
    EXPECT_EQ(p.coldOrStale(), L);
    // Fully associative: fits from 4 lines up -> only the cold
    // misses; a 2-line cache misses every reference.
    EXPECT_EQ(p.faMisses(4 * kLine), L);
    EXPECT_EQ(p.faMisses(1u << 20), L);
    EXPECT_EQ(p.faMisses(2 * kLine), N * L);
    // Direct-mapped 8-line cache (S=8 sets): a reuse at distance 3
    // misses when any of the 3 intervening lines lands in its set,
    // P = 1 - (7/8)^3 = 169/512.
    const double pmiss = 169.0 / 512.0;
    const double want =
        (double(L) + double(N * L - L) * pmiss) / double(N * L);
    EXPECT_NEAR(p.missRate(8 * kLine, 1), want, 1e-12);
}

TEST(ReuseDistModel, ProducerConsumerInvalidation)
{
    // P0 writes a line, P1 reads it, N times: after the cold pair,
    // every P0 write is a distance-0 hit and every P1 read is
    // coherence-stale.  Misses = N + 1 at EVERY operating point --
    // capacity and associativity cannot help communication.
    constexpr std::uint64_t N = 300;
    ReuseDistProfiler prof(2, kLine);
    for (std::uint64_t i = 0; i < N; ++i) {
        prof.access(rec(0, 0, AccessType::Write));
        prof.access(rec(1, 0, AccessType::Read));
    }
    const ReuseDistProfile p = prof.profile();
    EXPECT_EQ(p.accesses(), 2 * N);
    EXPECT_EQ(p.procs[0].cold, 1u);
    EXPECT_EQ(p.procs[0].stale, 0u);
    EXPECT_EQ(p.procs[1].cold, 1u);
    EXPECT_EQ(p.procs[1].stale, N - 1);
    EXPECT_GT(p.staleFraction(), 0.9);
    for (std::uint64_t size : fig3Sizes())
        for (int assoc : fig3ReportAssocs())
            EXPECT_NEAR(p.missRate(size, assoc),
                        double(N + 1) / double(2 * N), 1e-12)
                << size << "/" << assoc;
}

// ----------------------------------------------------------------------
// Differential: a sweep of the fully associative column alone, which
// --sweep model runs, records the full grid's profile and fully
// associative counts exactly -- on sharing streams too, because every
// column reads the same coherence stamps.  (The fully associative
// column's independent oracle is SweepVsMemSystem.)

/** The sweep --sweep model runs for @p sc: its only column is fully
 *  associative. */
SweepConfig
modelColumns(SweepConfig sc)
{
    sc.assocs = {kFullyAssoc};
    return sc;
}

void
expectFaBitIdentical(const std::vector<AccessRec>& recs, int nprocs)
{
    SweepConfig sc;
    sc.nprocs = nprocs;
    sc.lineSize = kLine;
    CacheSweep sweep(sc);
    CacheSweep fa(modelColumns(sc));
    for (const AccessRec& r : recs) {
        sweep.access(r);
        fa.access(r);
    }
    const ReuseDistProfile& p = fa.profile();
    ASSERT_EQ(p.accesses(), sweep.accesses());
    for (std::uint64_t size : fig3Sizes()) {
        EXPECT_EQ(fa.misses(size, kFullyAssoc),
                  sweep.misses(size, kFullyAssoc))
            << size;
        EXPECT_DOUBLE_EQ(p.missRate(size, kFullyAssoc),
                         sweep.missRate(size, kFullyAssoc))
            << size;
    }
    EXPECT_TRUE(sweep.profile() == p);
}

TEST(ReuseDistDifferential, FaMatchesExactSweepPrivateStreams)
{
    // Invalidation-free: each processor owns its lines.
    for (std::uint64_t seed : {1ull, 7ull, 99ull})
        expectFaBitIdentical(randomStream(4, 20000, 300, seed, true),
                             4);
}

TEST(ReuseDistDifferential, FaMatchesExactSweepSharedStreams)
{
    // Heavy sharing: all processors hit one small line pool, so
    // cross-processor invalidations dominate.
    for (std::uint64_t seed : {3ull, 1234ull, 777ull})
        expectFaBitIdentical(randomStream(8, 30000, 150, seed, false),
                             8);
}

TEST(ReuseDistDifferential, FaMatchesAfterResetStats)
{
    // resetStats is the measurement boundary of every column: zeroed
    // counters, warm stacks and coherence state.  The profile (whole,
    // or summed over processor-range shards) is zeroed at the same
    // boundary.
    auto recs = randomStream(4, 20000, 200, 55, false);
    SweepConfig sc;
    sc.nprocs = 4;
    sc.lineSize = kLine;
    CacheSweep sweep(sc);
    CacheSweep fa(modelColumns(sc));
    for (std::size_t i = 0; i < recs.size(); ++i) {
        if (i == recs.size() / 2) {
            sweep.resetStats();
            fa.resetStats();
        }
        sweep.access(recs[i]);
        fa.access(recs[i]);
    }
    const ReuseDistProfile& p = fa.profile();
    ASSERT_EQ(p.accesses(), sweep.accesses());
    for (std::uint64_t size : fig3Sizes())
        EXPECT_EQ(fa.misses(size, kFullyAssoc),
                  sweep.misses(size, kFullyAssoc))
            << size;
    EXPECT_TRUE(sweep.profile() == p);

    for (int k : {2, 4}) {
        splash::testing::SweepShards shards(modelColumns(sc), k,
                                            /*chunkRecords=*/256);
        for (std::size_t i = 0; i < recs.size(); ++i) {
            if (i == recs.size() / 2)
                shards.sink().resetStats();
            shards.sink().access(recs[i]);
        }
        EXPECT_TRUE(shards.profile() == p) << k << " shards";
    }
}

TEST(ReuseDistDifferential, UnalignedAccessesSplitLikeSweep)
{
    // Line-spanning references count once per touched line in every
    // column list.
    SweepConfig sc;
    sc.nprocs = 1;
    sc.lineSize = kLine;
    CacheSweep sweep(sc);
    CacheSweep fa(modelColumns(sc));
    AccessRec r = rec(0, kLine - 2, AccessType::Read);
    r.size = 8;  // spans two lines
    sweep.access(r);
    fa.access(r);
    EXPECT_EQ(fa.profile().accesses(), 2u);
    EXPECT_EQ(fa.accesses(), sweep.accesses());
    EXPECT_TRUE(fa.profile() == sweep.profile());
}

// ----------------------------------------------------------------------
// The profiler as a broadcast replica (--sweep model, --replicas on).

TEST(ReuseDistBroadcast, ReplicaMatchesDirectProfiler)
{
    auto recs = randomStream(4, 20000, 200, 21, false);
    ReuseDistProfiler direct(4, kLine);
    feed(direct, recs);
    for (bool threaded : {false, true}) {
        ReuseDistProfiler replica(4, kLine);
        {
            BroadcastReplay cast({&replica}, threaded);
            for (const AccessRec& r : recs)
                cast.access(r);
        }
        EXPECT_TRUE(replica.profile() == direct.profile())
            << (threaded ? "threaded" : "inline");
    }
}

} // namespace
