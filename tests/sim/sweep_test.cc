// Tests for the single-pass multi-configuration cache sweep, including
// cross-validation against the full MemSystem simulator (every
// column, fully associative too) and against a per-configuration
// engine (every finite column, every line size, one or three shards),
// column lists that leave the listed columns' counts unchanged,
// exactness of processor-range shards on a threaded broadcast, and
// reproduction of the committed Figure 3 curves.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <tuple>
#include <unordered_map>
#include <vector>

#include "../rt/run_compare.h"
#include "base/rng.h"
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
// Parameters: (processors, assoc, size, line bytes).
class SweepVsMemSystem
    : public ::testing::TestWithParam<
          std::tuple<int, int, std::uint64_t, int>>
{};

TEST_P(SweepVsMemSystem, MissCountsAgree)
{
    auto [nprocs, assoc, size, lineSize] = GetParam();
    const bool readOnly = assoc == kFullyAssoc && nprocs > 1;

    SweepConfig sc;
    sc.nprocs = nprocs;
    sc.lineSize = lineSize;
    CacheSweep sw(sc);

    MachineConfig mc;
    mc.nprocs = nprocs;
    mc.cache.size = size;
    mc.cache.assoc = assoc;
    mc.cache.lineSize = lineSize;
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
                                         std::uint64_t(1) << 16),
                       ::testing::Values(64)));

INSTANTIATE_TEST_SUITE_P(
    FullyAssociative, SweepVsMemSystem,
    ::testing::Combine(::testing::Values(1, 2, 4, 8),
                       ::testing::Values(kFullyAssoc),
                       ::testing::Values(std::uint64_t(1) << 10,
                                         std::uint64_t(1) << 13,
                                         std::uint64_t(1) << 16),
                       ::testing::Values(64)));

// The line edges the coherence checker runs at: 8 B (a way's level
// fills the three low address bits) and 256 B (four lines per 1 KB).
INSTANTIATE_TEST_SUITE_P(
    LineEdges, SweepVsMemSystem,
    ::testing::Combine(::testing::Values(1, 2, 4, 8),
                       ::testing::Values(1, 2, 4),
                       ::testing::Values(std::uint64_t(1) << 10,
                                         std::uint64_t(1) << 13,
                                         std::uint64_t(1) << 16),
                       ::testing::Values(8, 256)));

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

// ----------------------------------------------------------------------
// Exactness of the sweep's finite columns against an independent
// per-configuration engine: one tag array per (size, way count) of
// 16-byte {tag, version} ways, lazy version stamps, and a victim that
// is the first free or stale way, else the LRU way.

namespace {

/** The finite columns of a sweep, one tag array per operating point
 *  per processor, with its own lazy coherence. */
class PerConfigSweep
{
  public:
    explicit PerConfigSweep(const SweepConfig& cfg) : cfg_(cfg)
    {
        arrays_.resize(cfg.nprocs);
        for (auto& cols : arrays_)
            for (std::uint64_t size : cfg.sizes)
                for (int assoc : cfg.assocs) {
                    if (assoc == kFullyAssoc)
                        continue;
                    const std::uint64_t lines = size / cfg.lineSize;
                    Array a;
                    a.size = size;
                    a.assoc = assoc;
                    a.ways = static_cast<int>(
                        std::min<std::uint64_t>(assoc, lines));
                    a.setMask = lines / a.ways - 1;
                    a.entries.resize(lines);
                    cols.push_back(std::move(a));
                }
    }

    void
    access(ProcId p, Addr addr, int size, AccessType t)
    {
        const Addr line = cfg_.lineSize;
        for (Addr l = alignDown(addr, line);
             l <= alignDown(addr + size - 1, line); l += line)
            accessLine(p, l, t == AccessType::Write);
    }

    void
    resetStats()
    {
        accesses_ = 0;
        for (auto& cols : arrays_)
            for (Array& a : cols)
                a.misses = 0;
    }

    std::uint64_t accesses() const { return accesses_; }

    std::uint64_t
    misses(std::uint64_t size, int assoc) const
    {
        std::uint64_t m = 0;
        for (const auto& cols : arrays_)
            for (const Array& a : cols)
                if (a.size == size && a.assoc == assoc)
                    m += a.misses;
        return m;
    }

  private:
    static constexpr Addr kNoTag = ~Addr{0};

    struct Way
    {
        Addr tag = kNoTag;
        std::uint64_t version = 0;
    };

    struct Array
    {
        std::uint64_t size = 0;
        int assoc = 0;
        int ways = 0;
        std::uint64_t setMask = 0;
        std::vector<Way> entries;
        std::uint64_t misses = 0;
    };

    /** A line's version is bumped by a write that must invalidate
     *  other copies: a new writer, or a read by another processor
     *  since the last write. */
    struct Coherence
    {
        std::uint64_t version = 0;
        ProcId lastWriter = -1;
        bool readSince = false;
    };

    bool
    stale(const Way& w) const
    {
        auto it = coh_.find(w.tag);
        return (it == coh_.end() ? 0 : it->second.version) != w.version;
    }

    void
    accessLine(ProcId p, Addr line, bool isWrite)
    {
        ++accesses_;
        Coherence& c = coh_[line];
        const std::uint64_t oldVer = c.version;
        if (isWrite) {
            if (c.lastWriter != p || c.readSince) {
                ++c.version;
                c.lastWriter = p;
                c.readSince = false;
            }
        } else if (c.lastWriter != p) {
            c.readSince = true;
        }
        const Way e{line, c.version};
        const std::uint64_t lineId = line / cfg_.lineSize;
        for (Array& a : arrays_[p]) {
            Way* set = &a.entries[(lineId & a.setMask) * a.ways];
            int w = 0;
            while (w < a.ways && set[w].tag != line)
                ++w;
            if (w == a.ways || set[w].version != oldVer) {
                ++a.misses;
                if (w == a.ways) {
                    w = 0;
                    while (w < a.ways - 1 && set[w].tag != kNoTag &&
                           !stale(set[w]))
                        ++w;
                }
            }
            for (; w > 0; --w)
                set[w] = set[w - 1];
            set[0] = e;
        }
    }

    SweepConfig cfg_;
    std::uint64_t accesses_ = 0;
    std::unordered_map<Addr, Coherence> coh_;
    /** arrays_[p]: one per finite operating point. */
    std::vector<std::vector<Array>> arrays_;
};

/** (processors, line bytes, columns, footprint in lines, shards). */
using PerConfigCase =
    std::tuple<int, int, std::vector<int>, std::uint64_t, int>;

std::string
perConfigName(const ::testing::TestParamInfo<PerConfigCase>& info)
{
    const auto& [nprocs, lineSize, assocs, footprint, shards] = info.param;
    std::string cols;
    for (int a : assocs)
        cols += a == kFullyAssoc ? "F" : std::to_string(a);
    return "P" + std::to_string(nprocs) + "_L" + std::to_string(lineSize) +
           "_C" + cols + "_F" + std::to_string(footprint) + "_S" +
           std::to_string(shards);
}

} // namespace

class SweepVsPerConfig : public ::testing::TestWithParam<PerConfigCase>
{};

// Random accesses of 1-16 bytes (some spanning lines), a quarter of
// them writes, over a footprint of 40 lines (nearly every write
// invalidates) to 5000 (capacity misses at every size), with the
// counters reset mid-stream.  Each shard sees every reference.
TEST_P(SweepVsPerConfig, EveryListedColumnMatchesAtEverySize)
{
    const auto& [nprocs, lineSize, assocs, footprint, shards] = GetParam();
    SweepConfig sc;
    sc.nprocs = nprocs;
    sc.lineSize = lineSize;
    sc.assocs = assocs;
    // 1-64 KB: up to 8K lines at 8 B, one line per 1 KB at 1 KB lines.
    sc.sizes = {1u << 10, 1u << 11, 1u << 12, 1u << 13,
                1u << 14, 1u << 15, 1u << 16};
    PerConfigSweep oracle(sc);
    std::vector<std::unique_ptr<CacheSweep>> parts;
    for (int k = 0; k < shards; ++k)
        parts.push_back(std::make_unique<CacheSweep>(sc, k, shards));

    constexpr int kRefs = 12000;
    Rng rng(footprint * 1000003 + std::uint64_t(nprocs) * 1009 +
            std::uint64_t(lineSize));
    for (int i = 0; i < kRefs; ++i) {
        if (i == kRefs / 2) {
            oracle.resetStats();
            for (auto& s : parts)
                s->resetStats();
        }
        const std::uint64_t x = rng.next();
        const ProcId p = static_cast<ProcId>(x % nprocs);
        const Addr a = 0x400000 + ((x >> 8) % footprint) * lineSize +
                       (x >> 32) % lineSize;
        const int size = 1 + static_cast<int>((x >> 48) % 16);
        const AccessType t =
            (x >> 60) % 4 == 0 ? AccessType::Write : AccessType::Read;
        oracle.access(p, a, size, t);
        for (auto& s : parts)
            s->access(p, a, size, t);
    }

    SweepResult got;
    for (const auto& s : parts)
        got += s->result();
    EXPECT_EQ(got.accesses(), oracle.accesses());
    std::vector<std::uint64_t> want, have;
    for (std::uint64_t size : sc.sizes)
        for (int assoc : assocs)
            if (assoc != kFullyAssoc) {
                want.push_back(oracle.misses(size, assoc));
                have.push_back(got.misses(size, assoc));
            }
    EXPECT_EQ(have, want) << "misses per (size, listed finite column)";
}

// At 1 KB lines the 1 KB columns collapse into one 1-line cache.
INSTANTIATE_TEST_SUITE_P(
    Grid, SweepVsPerConfig,
    ::testing::Combine(
        ::testing::Values(1, 2, 8, 32), ::testing::Values(8, 64, 512, 1024),
        ::testing::Values(std::vector<int>{1, 2, 4, kFullyAssoc},
                          std::vector<int>{4}, std::vector<int>{1, 4},
                          std::vector<int>{2}, std::vector<int>{2, 4},
                          std::vector<int>{1}),
        ::testing::Values(std::uint64_t{40}, std::uint64_t{300},
                          std::uint64_t{5000}),
        ::testing::Values(1, 3)),
    perConfigName);

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
