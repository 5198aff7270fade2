// Tests for base utilities and configuration error handling.
#include <gtest/gtest.h>

#include "base/rng.h"
#include "base/types.h"
#include "sim/config.h"
#include "sim/memsys.h"
#include "sim/sweep.h"

using namespace splash;

TEST(Rng, DeterministicAndWellDistributed)
{
    Rng a(42), b(42);
    for (int i = 0; i < 1000; ++i)
        ASSERT_EQ(a.next(), b.next());
    Rng c(42);
    double sum = 0;
    int buckets[10] = {};
    for (int i = 0; i < 100000; ++i) {
        double u = c.uniform();
        ASSERT_GE(u, 0.0);
        ASSERT_LT(u, 1.0);
        sum += u;
        ++buckets[int(u * 10)];
    }
    EXPECT_NEAR(sum / 100000, 0.5, 0.01);
    for (int k = 0; k < 10; ++k)
        EXPECT_NEAR(buckets[k], 10000, 500);
}

TEST(Rng, NormalHasUnitVariance)
{
    Rng r(7);
    double sum = 0, sq = 0;
    const int n = 100000;
    for (int i = 0; i < n; ++i) {
        double v = r.normal();
        sum += v;
        sq += v * v;
    }
    EXPECT_NEAR(sum / n, 0.0, 0.02);
    EXPECT_NEAR(sq / n, 1.0, 0.03);
}

TEST(Types, BitHelpers)
{
    EXPECT_EQ(log2i(1), 0);
    EXPECT_EQ(log2i(64), 6);
    EXPECT_EQ(log2i(1u << 20), 20);
    EXPECT_TRUE(isPow2(1));
    EXPECT_TRUE(isPow2(4096));
    EXPECT_FALSE(isPow2(0));
    EXPECT_FALSE(isPow2(48));
    EXPECT_EQ(alignDown(127, 64), 64u);
    EXPECT_EQ(alignDown(128, 64), 128u);
}

TEST(CacheConfigErrors, RejectsBadGeometry)
{
    sim::CacheConfig c;
    c.size = 1000;  // not a power of two
    EXPECT_DEATH(c.validate(), "power");
    c = sim::CacheConfig{};
    c.assoc = 3;  // does not divide line count
    EXPECT_DEATH(c.validate(), "associativity");
    c = sim::CacheConfig{};
    c.lineSize = 4;  // < one word
    EXPECT_DEATH(c.validate(), "line size");
}

TEST(MachineConfigErrors, RejectsBadProcessorCount)
{
    sim::MachineConfig mc;
    mc.nprocs = 0;
    EXPECT_DEATH(mc.validate(), "processor count");
    mc.nprocs = 65;
    EXPECT_DEATH(mc.validate(), "processor count");
}

TEST(MemSystemErrors, RejectsInvalidProcessorId)
{
    sim::MachineConfig mc;
    mc.nprocs = 2;
    sim::MemSystem m(mc);
    EXPECT_DEATH(m.access(5, 0x1000, 8, AccessType::Read),
                 "processor id");
}

TEST(SweepErrors, RejectsUnknownOperatingPoint)
{
    sim::SweepConfig sc;
    sc.nprocs = 1;
    sim::CacheSweep sw(sc);
    sw.access(0, 0x1000, 8, AccessType::Read);
    EXPECT_DEATH((void)sw.misses(3000, 1), "operating point");
    EXPECT_DEATH((void)sw.misses(1024, 8), "operating point");
    // A column the sweep does not list is no operating point either,
    // fully associative included.
    sc.assocs = {4};
    sim::CacheSweep fourWay(sc);
    fourWay.access(0, 0x1000, 8, AccessType::Read);
    EXPECT_EQ(fourWay.misses(1024, 4), 1u);
    EXPECT_DEATH((void)fourWay.misses(1024, 1), "operating point");
    EXPECT_DEATH((void)fourWay.misses(1024, sim::kFullyAssoc),
                 "operating point");
    EXPECT_DEATH((void)fourWay.result().missRate(1024, sim::kFullyAssoc),
                 "operating point");
}

// The sweep keeps a line's level in the three low address bits, the
// bound MachineConfig already enforces.
TEST(SweepErrors, RejectsLinesBelowEightBytes)
{
    sim::SweepConfig sc;
    sc.nprocs = 1;
    sc.lineSize = 4;
    EXPECT_EXIT(sim::CacheSweep refused(sc), ::testing::ExitedWithCode(1),
                "line size must be in \\[8, size\\]");
    sc.lineSize = 8;
    sim::CacheSweep sw(sc);
    sw.access(0, 0x1004, 8, AccessType::Read);  // spans two 8 B lines
    EXPECT_EQ(sw.accesses(), 2u);
}

// Coherence tracks each line's holders in a 64-bit mask.
TEST(SweepErrors, RejectsProcessorCountsOutsideTheMask)
{
    sim::SweepConfig sc;
    for (int bad : {0, -1, 65}) {
        sc.nprocs = bad;
        EXPECT_EXIT(sim::CacheSweep refused(sc), ::testing::ExitedWithCode(1),
                    "sweep processor count must be in \\[1, 64\\]");
    }
    sc.nprocs = 64;
    sc.assocs = {1};
    sim::CacheSweep sw(sc);
    sw.access(63, 0x1000, 8, AccessType::Read);
    sw.access(0, 0x1000, 8, AccessType::Write);
    sw.access(63, 0x1000, 8, AccessType::Read);  // invalidated by P0
    EXPECT_EQ(sw.misses(1024, 1), 3u);
}

TEST(SweepErrors, RejectsWayCountsThatAreNotPowersOfTwo)
{
    sim::SweepConfig sc;
    sc.nprocs = 1;
    for (int bad : {3, -2, 128}) {
        sc.assocs = {bad};
        EXPECT_EXIT(sim::CacheSweep refused(sc), ::testing::ExitedWithCode(1),
                    "way counts must be powers of two");
    }
}
