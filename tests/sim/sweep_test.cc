// Tests for the single-pass multi-configuration cache sweep, including
// cross-validation against the full MemSystem simulator (every
// column, fully associative too), column lists that leave the listed
// columns' counts unchanged, exactness of processor-range shards on a
// threaded broadcast, and reproduction of the committed Figure 3
// curves.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <tuple>
#include <vector>

#include "../rt/run_compare.h"
#include "harness/workingset.h"
#include "sim/memsys.h"
#include "sim/sweep.h"

using namespace splash;
using namespace splash::sim;

namespace {

SweepConfig
sweepCfg(int nprocs)
{
    SweepConfig c;
    c.nprocs = nprocs;
    return c;
}

struct Access
{
    ProcId p;
    Addr a;
    AccessType t;
};

/** Build a sink record (generic sinks take the full AccessRec). */
AccessRec
rec(ProcId p, Addr a, int size, AccessType t)
{
    AccessRec r;
    r.addr = a;
    r.size = size;
    r.proc = static_cast<std::int16_t>(p);
    r.type = t;
    return r;
}

std::vector<Access>
randomStream(int nprocs, int n, std::uint64_t lines, std::uint64_t seed,
             bool readOnly = false)
{
    std::vector<Access> out;
    out.reserve(n);
    std::uint64_t x = seed;
    for (int i = 0; i < n; ++i) {
        x = x * 6364136223846793005ull + 1442695040888963407ull;
        Access acc;
        acc.p = static_cast<ProcId>((x >> 60) % nprocs);
        acc.a = 0x200000 + ((x >> 30) % lines) * 64 + ((x >> 20) % 8) * 8;
        acc.t = ((x >> 13) & 3) == 0 && !readOnly ? AccessType::Write
                                                  : AccessType::Read;
        out.push_back(acc);
    }
    return out;
}

} // namespace

TEST(Sweep, MissRateMonotonicInCacheSize)
{
    CacheSweep sw(sweepCfg(4));
    for (const auto& acc : randomStream(4, 50000, 3000, 777))
        sw.access(acc.p, acc.a, 8, acc.t);
    for (int assoc : {1, 2, 4, 0}) {
        double prev = 1.1;
        for (std::uint64_t size = 1024; size <= (1u << 20); size *= 2) {
            double mr = sw.missRate(size, assoc);
            EXPECT_LE(mr, prev + 1e-12)
                << "size " << size << " assoc " << assoc;
            prev = mr;
        }
    }
}

TEST(Sweep, FullyAssociativeEliminatesConflictMisses)
{
    // A strided stream whose lines all collide in one set of a
    // direct-mapped cache: fully associative must hold them all.
    CacheSweep sw(sweepCfg(1));
    const int kStride = 1024;  // 1 KB direct-mapped: all map to set 0
    for (int rep = 0; rep < 16; ++rep)
        for (int i = 0; i < 8; ++i)
            sw.access(0, 0x100000 + Addr(i) * kStride, 8,
                      AccessType::Read);
    // 8 distinct lines, footprint 512 B of lines: fits fully assoc 1 KB.
    EXPECT_EQ(sw.misses(1024, 0), 8u);
    // Direct-mapped 1 KB: all 8 lines fight over one set: all miss.
    EXPECT_EQ(sw.misses(1024, 1), 16u * 8u);
    // 4-way 1 KB: 8 lines over one 4-way set still thrash.
    EXPECT_GT(sw.misses(1024, 4), 8u);
}

TEST(Sweep, SingleProcessorSequentialScanWorkingSet)
{
    // A repeated scan over a 32 KB footprint must fit exactly in
    // fully-associative caches >= 32 KB (zero non-cold misses) and
    // thrash LRU caches smaller than the footprint.
    CacheSweep sw(sweepCfg(1));
    const int kLines = 512;  // 32 KB of 64 B lines
    for (int rep = 0; rep < 4; ++rep)
        for (int i = 0; i < kLines; ++i)
            sw.access(0, 0x100000 + Addr(i) * 64, 8, AccessType::Read);
    std::uint64_t accesses = sw.accesses();
    EXPECT_EQ(accesses, 4u * kLines);
    // >= 32 KB fully associative: only the 512 cold misses.
    EXPECT_EQ(sw.misses(32 << 10, 0), 512u);
    EXPECT_EQ(sw.misses(1 << 20, 0), 512u);
    // 16 KB LRU with a cyclic scan of 2x capacity: every access misses.
    EXPECT_EQ(sw.misses(16 << 10, 0), accesses);
}

TEST(Sweep, CoherenceInvalidationMissesAtEverySize)
{
    // P0 and P1 ping-pong writes to one line: after warmup, every
    // access by the other processor misses regardless of cache size.
    CacheSweep sw(sweepCfg(2));
    for (int i = 0; i < 100; ++i) {
        sw.access(0, 0x1000, 8, AccessType::Write);
        sw.access(1, 0x1000, 8, AccessType::Write);
    }
    EXPECT_EQ(sw.misses(1 << 20, 0), 200u);
    EXPECT_EQ(sw.misses(1 << 20, 4), 200u);
}

TEST(Sweep, WriterRereadingOwnLineHits)
{
    CacheSweep sw(sweepCfg(2));
    sw.access(0, 0x1000, 8, AccessType::Write);
    for (int i = 0; i < 9; ++i)
        sw.access(0, 0x1000, 8, AccessType::Write);
    for (int i = 0; i < 10; ++i)
        sw.access(0, 0x1000, 8, AccessType::Read);
    EXPECT_EQ(sw.misses(1024, 1), 1u);  // only the cold miss
}

TEST(Sweep, UpgradeOfSharedLineIsAHit)
{
    // P0 reads (caches), P1 reads (caches), P0 writes: in MESI that is
    // an upgrade, not a miss, for P0 -- and P1's next read misses.
    CacheSweep sw(sweepCfg(2));
    sw.access(0, 0x1000, 8, AccessType::Read);   // cold
    sw.access(1, 0x1000, 8, AccessType::Read);   // cold
    sw.access(0, 0x1000, 8, AccessType::Write);  // upgrade: hit
    EXPECT_EQ(sw.misses(1 << 20, 4), 2u);
    sw.access(1, 0x1000, 8, AccessType::Read);   // invalidated: miss
    EXPECT_EQ(sw.misses(1 << 20, 4), 3u);
}

// Cross-validation: for any operating point present in both simulators
// (same size/assoc/line, LRU, MESI), total misses must agree exactly on
// the same deterministic stream.  A fully associative MemSystem (assoc
// 0, Cache's list mode) is an LRU independent of the Mattson stack, but
// it agrees only without invalidations: an invalidated line keeps its
// stack position, while MemSystem frees its slot.  So the fully
// associative cases at P > 1 run the read-only variant of the stream.
class SweepVsMemSystem
    : public ::testing::TestWithParam<std::tuple<int, int, std::uint64_t>>
{};

TEST_P(SweepVsMemSystem, MissCountsAgree)
{
    auto [nprocs, assoc, size] = GetParam();
    const bool readOnly = assoc == kFullyAssoc && nprocs > 1;

    SweepConfig sc;
    sc.nprocs = nprocs;
    CacheSweep sw(sc);

    MachineConfig mc;
    mc.nprocs = nprocs;
    mc.cache.size = size;
    mc.cache.assoc = assoc;
    mc.cache.lineSize = 64;
    MemSystem mem(mc);

    for (const auto& acc :
         randomStream(nprocs, 60000, 1500, size + assoc, readOnly)) {
        sw.access(acc.p, acc.a, 8, acc.t);
        mem.access(acc.p, acc.a, 8, acc.t);
    }
    EXPECT_EQ(sw.misses(size, assoc), mem.total().totalMisses());
}

INSTANTIATE_TEST_SUITE_P(
    OperatingPoints, SweepVsMemSystem,
    ::testing::Combine(::testing::Values(1, 2, 4, 8),
                       ::testing::Values(1, 2, 4),
                       ::testing::Values(std::uint64_t(1) << 10,
                                         std::uint64_t(1) << 13,
                                         std::uint64_t(1) << 16)));

INSTANTIATE_TEST_SUITE_P(
    FullyAssociative, SweepVsMemSystem,
    ::testing::Combine(::testing::Values(1, 2, 4, 8),
                       ::testing::Values(kFullyAssoc),
                       ::testing::Values(std::uint64_t(1) << 10,
                                         std::uint64_t(1) << 13,
                                         std::uint64_t(1) << 16)));

// A sweep simulates only the columns it lists, and listing fewer never
// changes a listed column: Table 2 sweeps {4} alone.  Each column sees
// the same coherence stamps whatever else is simulated, so the counts
// match the full grid's even under heavy invalidation.
TEST(SweepColumns, FourWayAloneMatchesFullGrid)
{
    SweepConfig sc;
    sc.nprocs = 8;
    CacheSweep full(sc);
    sc.assocs = {4};
    CacheSweep fourWay(sc);
    // 8 processors on a 300-line pool: most references invalidate.
    for (const auto& acc : randomStream(8, 60000, 300, 31)) {
        full.access(acc.p, acc.a, 8, acc.t);
        fourWay.access(acc.p, acc.a, 8, acc.t);
    }
    EXPECT_EQ(fourWay.accesses(), full.accesses());
    for (std::uint64_t size : sc.sizes)
        EXPECT_EQ(fourWay.misses(size, 4), full.misses(size, 4)) << size;
    EXPECT_TRUE(fourWay.profile().procs.empty())
        << "no stack walk without the fully associative column";
}

TEST(Sweep, CompactionPreservesCounts)
{
    // Drive enough accesses to force many Fenwick compactions (the
    // tree's capacity adapts to the live line count, so a small
    // footprint keeps it tiny and compacts often) and verify the
    // fully-associative profile is unaffected.
    CacheSweep sw(sweepCfg(1));
    const std::uint64_t kTotal = (1u << 21) + 5000;
    for (std::uint64_t i = 0; i < kTotal; ++i) {
        Addr a = 0x100000 + (i % 64) * 64;  // 64-line loop: always hits
        sw.access(0, a, 8, AccessType::Read);
    }
    // 64 cold misses; everything else hits at >= 4 KB fully assoc.
    EXPECT_EQ(sw.misses(4 << 10, 0), 64u);
    EXPECT_EQ(sw.accesses(), kTotal);
}

TEST(Sweep, AdaptiveFenwickGrowsWithFootprint)
{
    // A footprint far beyond the minimum tree capacity (2^16 slots)
    // forces the capacity to grow across compactions; distances must
    // stay exact.  Scan 40000 distinct lines twice: all cold the first
    // pass, and on the second pass every line's reuse distance is the
    // full footprint -- hits only in fully-associative caches that hold
    // it (>= 40000 * 64 B), misses in all smaller ones.
    CacheSweep sw(sweepCfg(1));
    const std::uint64_t kLines = 40000;
    for (int rep = 0; rep < 2; ++rep)
        for (std::uint64_t i = 0; i < kLines; ++i)
            sw.access(0, 0x100000 + i * 64, 8, AccessType::Read);
    EXPECT_EQ(sw.misses(1 << 20, 0), 2 * kLines);  // 1 MB < footprint
    EXPECT_EQ(sw.accesses(), 2 * kLines);
}

// ----------------------------------------------------------------------
// Processor-range shards: K shards on one threaded broadcast count
// exactly what one whole sweep counts.

using splash::testing::SweepShards;
using splash::testing::expectSameSweep;

TEST(SweepShards, MatchWholeSweepForAnyShardCount)
{
    SweepConfig sc;
    sc.nprocs = 8;
    CacheSweep whole(sc);
    auto stream = randomStream(8, 80000, 2500, 4242);
    for (const auto& acc : stream)
        whole.access(acc.p, acc.a, 8, acc.t);

    for (int k : {2, 3, 4}) {
        // Tiny chunks force constant publish/recycle cycling.
        SweepShards shards(sc, k, /*chunkRecords=*/256);
        for (const auto& acc : stream)
            shards.sink().access(rec(acc.p, acc.a, 8, acc.t));
        expectSameSweep(whole, shards.result(),
                        std::to_string(k) + " shards");
    }
}

TEST(SweepShards, ShardCountClampedToProcessorCount)
{
    // runWorkingSets runs min(threads, P) shards: one shard per
    // processor when the host has more threads than P.
    for (int nprocs : {1, 2}) {
        SweepConfig sc;
        sc.nprocs = nprocs;
        CacheSweep whole(sc);
        auto stream = randomStream(nprocs, 20000, 800, 7 + nprocs);
        for (const auto& acc : stream)
            whole.access(acc.p, acc.a, 8, acc.t);
        const int k = std::min(4, nprocs);
        SweepShards shards(sc, k);
        for (const auto& acc : stream)
            shards.sink().access(rec(acc.p, acc.a, 8, acc.t));
        expectSameSweep(whole, shards.result(),
                        "P=" + std::to_string(nprocs));
        CacheSweep last(sc, k - 1, k);
        EXPECT_EQ(last.firstProc(), nprocs - 1);
        EXPECT_EQ(last.endProc(), nprocs);
    }
}

TEST(SweepShards, ResetStatsMidStreamMatchesWholeSweep)
{
    // The reset rides the broadcast's chunks, so every shard zeroes
    // its counters at the same stream position as the whole sweep.
    SweepConfig sc;
    sc.nprocs = 4;
    auto stream = randomStream(4, 30000, 1200, 99);

    CacheSweep whole(sc);
    SweepShards shards(sc, 3, /*chunkRecords=*/512);
    for (std::size_t i = 0; i < stream.size(); ++i) {
        if (i == stream.size() / 2) {
            whole.resetStats();
            shards.sink().resetStats();
        }
        whole.access(stream[i].p, stream[i].a, 8, stream[i].t);
        shards.sink().access(
            rec(stream[i].p, stream[i].a, 8, stream[i].t));
    }
    expectSameSweep(whole, shards.result(), "reset mid-stream");
}

TEST(SweepShards, LineSpanningAccessCountsOncePerLine)
{
    SweepConfig sc;
    sc.nprocs = 2;
    CacheSweep whole(sc);
    SweepShards shards(sc, 2);
    // 16 bytes straddling a 64 B line boundary: two line touches.
    whole.access(1, 0x1038, 16, AccessType::Read);
    shards.sink().access(rec(1, 0x1038, 16, AccessType::Read));
    EXPECT_EQ(whole.accesses(), 2u);
    expectSameSweep(whole, shards.result(), "line-spanning");
}

TEST(SweepShards, ProfileRowsEqualWholeSweep)
{
    // Each shard's stacks fill its own processors' rows; the shards'
    // profiles sum to the whole sweep's.
    SweepConfig sc;
    sc.nprocs = 8;
    CacheSweep whole(sc);
    auto stream = randomStream(8, 40000, 600, 2024);
    SweepShards shards(sc, 3, /*chunkRecords=*/512);
    for (const auto& acc : stream) {
        whole.access(acc.p, acc.a, 8, acc.t);
        shards.sink().access(rec(acc.p, acc.a, 8, acc.t));
    }
    EXPECT_TRUE(shards.profile() == whole.profile());
}

// ----------------------------------------------------------------------
// Regression against the committed Figure 3 curves: the sweep engine
// --replicas on selects (processor-range shards on a threaded broadcast
// when the process may use several CPUs) at the default configuration
// must reproduce results/fig3.csv.

#ifdef SPLASH2_SOURCE_DIR
TEST(SweepRegression, ReplicasOnReproducesCommittedFig3Fft)
{
    std::string path =
        std::string(SPLASH2_SOURCE_DIR) + "/results/fig3.csv";
    std::ifstream in(path);
    ASSERT_TRUE(in.good()) << path;
    // (size, assoc) -> committed miss rate for FFT.
    std::map<std::pair<std::uint64_t, int>, double> committed;
    std::string line;
    while (std::getline(in, line)) {
        std::istringstream ss(line);
        std::string app, szs, as, mrs;
        std::getline(ss, app, ',');
        std::getline(ss, szs, ',');
        std::getline(ss, as, ',');
        std::getline(ss, mrs, ',');
        if (app != "FFT")
            continue;
        committed[{std::stoull(szs), std::stoi(as)}] = std::stod(mrs);
    }
    ASSERT_EQ(committed.size(), 44u) << "11 sizes x 4 associativities";

    using namespace splash::harness;
    App* app = findApp("fft");
    ASSERT_NE(app, nullptr);
    AppConfig cfg;  // default scale 1.0, default problem size
    SweepConfig sc; // default: 32 procs, 64 B lines
    SimOpts simOpts;
    simOpts.replicas = Replicas::On;
    const WorkingSetRun run =
        runWorkingSets(*app, sc.nprocs, sc, cfg, simOpts);

    for (const auto& [point, mr] : committed)
        EXPECT_NEAR(run.exact.missRate(point.first, point.second), mr,
                    5e-7)
            << point.first << "B " << point.second << "-way";
}
#endif
