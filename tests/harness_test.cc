// Integration tests: the whole suite runs valid under the harness, at
// several processor counts, with and without the memory system.
#include <gtest/gtest.h>

#include <limits>

#include "harness/workingset.h"
#include "harness/report.h"

using namespace splash;
using namespace splash::harness;

TEST(Harness, SuiteHasTwelveProgramsInPaperOrder)
{
    const auto& apps = suite();
    ASSERT_EQ(apps.size(), 12u);
    EXPECT_EQ(apps.front()->name(), "Barnes");
    EXPECT_EQ(apps.back()->name(), "Water-Sp");
    EXPECT_NE(findApp("fft"), nullptr);
    EXPECT_NE(findApp("WATER-NSQ"), nullptr);
    EXPECT_EQ(findApp("nosuch"), nullptr);
}

class SuiteRuns : public ::testing::TestWithParam<int>
{};

TEST_P(SuiteRuns, EveryProgramValidUnderPram)
{
    AppConfig cfg;
    cfg.scale = 0.1;
    for (App* app : suite()) {
        RunStats r = runPram(*app, GetParam(), cfg);
        EXPECT_TRUE(r.valid) << app->name();
        EXPECT_GT(r.elapsed, 0u) << app->name();
        EXPECT_GT(r.exec.instructions(), 0u) << app->name();
        if (app->isFloatingPoint()) {
            EXPECT_GT(r.exec.flops, 0u) << app->name();
        }
    }
}

INSTANTIATE_TEST_SUITE_P(Procs, SuiteRuns, ::testing::Values(1, 4, 16));

TEST(Harness, EveryProgramValidUnderMemSystem)
{
    AppConfig cfg;
    cfg.scale = 0.1;
    sim::MachineConfig machine;
    machine.cache.size = 64 << 10;  // small cache: exercises replacements
    for (App* app : suite()) {
        RunStats r = runCharacterizations(*app, 4, {machine}, cfg)[0];
        EXPECT_TRUE(r.valid) << app->name();
        EXPECT_GT(r.mem.accesses(), 0u) << app->name();
        // Traffic sanity: every component non-negative and total
        // consistent.
        EXPECT_EQ(r.mem.totalTraffic(),
                  r.mem.remoteData() + r.mem.remoteOverhead +
                      r.mem.localData)
            << app->name();
    }
}

TEST(Harness, SweepAndMemSystemSeeSameAccessCounts)
{
    AppConfig cfg;
    cfg.scale = 0.1;
    App* fft = findApp("FFT");
    RunStats a = runCharacterizations(*fft, 4, {sim::MachineConfig{}}, cfg)[0];
    sim::SweepConfig sc;
    sc.nprocs = 4;
    RunStats b = runWorkingSets(*fft, 4, sc, cfg).stats;
    // Same deterministic program: identical shared-reference streams.
    EXPECT_EQ(a.exec.reads, b.exec.reads);
    EXPECT_EQ(a.exec.writes, b.exec.writes);
}

// Problem sizes no program can build are refused with a diagnostic at
// the pipeline entry, before anything executes: log2 of a zero or
// negative scale, or the square root of a negative one, would
// otherwise reach the programs' size formulas.
TEST(HarnessDeathTest, OutOfRangeProblemSizesAreRejected)
{
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    App* fft = findApp("FFT");
    ASSERT_NE(fft, nullptr);
    for (double scale : {0.0, -1.0, std::numeric_limits<double>::quiet_NaN(),
                         std::numeric_limits<double>::infinity()}) {
        AppConfig cfg;
        cfg.scale = scale;
        EXPECT_EXIT(runPram(*fft, 2, cfg), ::testing::ExitedWithCode(1),
                    "--scale must be a positive finite number")
            << scale;
    }
    for (long AppConfig::*knob :
         {&AppConfig::n, &AppConfig::iters, &AppConfig::aux}) {
        AppConfig cfg;
        cfg.*knob = -2;
        EXPECT_EXIT(runPram(*fft, 2, cfg), ::testing::ExitedWithCode(1),
                    "--n, --iters and --aux must be >= 0");
    }
}

TEST(Harness, ScaleChangesProblemSize)
{
    App* lu = findApp("LU");
    AppConfig small;
    small.scale = 0.25;
    AppConfig big;
    big.scale = 1.0;
    RunStats a = runPram(*lu, 2, small);
    RunStats b = runPram(*lu, 2, big);
    EXPECT_GT(b.exec.flops, 2 * a.exec.flops);
}
