// Tests for the parallel experiment runner: every job runs exactly
// once in any mode, concurrent simulations stay bit-identical to
// serial ones (the stable simulated address space at work), and job
// exceptions propagate.
#include <gtest/gtest.h>
#include <sched.h>

#include <atomic>
#include <set>
#include <stdexcept>
#include <vector>

#include "../rt/run_compare.h"
#include "harness/experiment.h"
#include "harness/runner.h"

using namespace splash;
using namespace splash::harness;

TEST(Runner, EveryJobRunsExactlyOnce)
{
    for (int jobs : {1, 2, 4, 7}) {
        Runner r(jobs);
        const int n = 23;
        std::vector<std::atomic<int>> counts(n);
        for (int i = 0; i < n; ++i)
            r.add("job" + std::to_string(i), double(n - i),
                  [&counts, i] { counts[i].fetch_add(1); });
        r.run();
        for (int i = 0; i < n; ++i)
            EXPECT_EQ(counts[i].load(), 1) << "jobs=" << jobs;
    }
}

TEST(Runner, SerialModeRunsInSubmissionOrder)
{
    Runner r(1);
    std::vector<int> order;
    // Costs deliberately inverted: serial mode must ignore them.
    for (int i = 0; i < 8; ++i)
        r.add("j", double(i), [&order, i] { order.push_back(i); });
    r.run();
    for (int i = 0; i < 8; ++i)
        EXPECT_EQ(order[std::size_t(i)], i);
}

TEST(Runner, PropagatesFirstJobException)
{
    Runner r(3);
    std::atomic<int> ran{0};
    for (int i = 0; i < 6; ++i)
        r.add("j", 1.0, [&ran, i] {
            ran.fetch_add(1);
            if (i == 2)
                throw std::runtime_error("boom");
        });
    EXPECT_THROW(r.run(), std::runtime_error);
    EXPECT_EQ(ran.load(), 6);  // one failure doesn't cancel the rest
}

TEST(Runner, ResolveMapsZeroToHardwareConcurrency)
{
    EXPECT_EQ(Runner::resolve(3), 3);
    EXPECT_GE(Runner::resolve(0), 1);
}

// `taskset -c 0` leaves hardware_concurrency() at the machine's CPU
// count; --jobs 0 and --replicas on must count the affinity mask.
TEST(Runner, UsableCpusFollowTheAffinityMask)
{
    cpu_set_t saved;
    ASSERT_EQ(::sched_getaffinity(0, sizeof(saved), &saved), 0);
    int cpu = 0;
    while (!CPU_ISSET(cpu, &saved))
        ++cpu;
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpu, &one);
    ASSERT_EQ(::sched_setaffinity(0, sizeof(one), &one), 0);
    const int pinned = usableCpus();
    const int jobs = Runner::resolve(0);
    const int replicas = replicaThreads();
    ASSERT_EQ(::sched_setaffinity(0, sizeof(saved), &saved), 0);
    EXPECT_EQ(pinned, 1);
    EXPECT_EQ(jobs, 1);
    EXPECT_EQ(replicas, 1);
    EXPECT_EQ(usableCpus(), CPU_COUNT(&saved));
}

// The determinism claim behind --jobs: simulations running beside each
// other on worker threads produce exactly the statistics they produce
// alone.  Runs the same PRAM+MemSystem experiment serially and then
// four copies concurrently, and requires equality (not tolerance).
TEST(Runner, ConcurrentSimulationsAreBitIdenticalToSerial)
{
    App* app = findApp("lu");
    ASSERT_NE(app, nullptr);
    AppConfig cfg;
    cfg.scale = 0.25;
    sim::CacheConfig cache;
    cache.size = 64 << 10;

    const std::vector<MemExperiment> exps = {experimentFor(cache, {})};
    RunStats alone = runCharacterizations(*app, 4, exps, cfg)[0];

    const int kCopies = 4;
    std::vector<RunStats> together(kCopies);
    Runner r(kCopies);
    for (int i = 0; i < kCopies; ++i)
        r.add("copy", 1.0, [&, i] {
            together[std::size_t(i)] =
                runCharacterizations(*app, 4, exps, cfg)[0];
        });
    r.run();

    for (const RunStats& got : together)
        splash::testing::expectSameRun(alone, got);
}
