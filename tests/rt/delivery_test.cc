// Differential tests for the reference-delivery seam.
//
// The runtime can hand references to the simulator one call at a time
// (direct) or append them to a ring buffer drained at every control
// transfer (batched).  Because exactly one simulated processor runs at
// a time and the ring is drained before every switch, the drained
// order equals the execution order -- so the two shapes must produce
// bit-identical characterizations.  These tests enforce that on full
// FFT/LU/Ocean runs at 8 processors, including the multi-threaded
// sweep replay pipeline that rides on batched delivery.
#include <gtest/gtest.h>

#include <memory>
#include <string>

#include "harness/app.h"
#include "harness/experiment.h"
#include "run_compare.h"

using namespace splash;
using namespace splash::harness;
using namespace splash::rt;
using splash::testing::characterize;
using splash::testing::expectSameRun;

namespace {

void
expectDeliveryIdentical(const std::string& app, long n)
{
    auto direct = characterize(app, n, BackendKind::Fiber, Delivery::Direct);
    auto batched = characterize(app, n, BackendKind::Fiber);
    ASSERT_TRUE(direct.valid) << app;
    expectSameRun(direct, batched);
}

} // namespace

TEST(DeliveryDifferential, FftStatsIdentical)
{
    // log2n = 12 -> 4096 points on 8 processors.
    expectDeliveryIdentical("fft", 12);
}

TEST(DeliveryDifferential, LuStatsIdentical)
{
    // 128x128 matrix on 8 processors.
    expectDeliveryIdentical("lu", 128);
}

TEST(DeliveryDifferential, OceanStatsIdentical)
{
    // 32x32 grid on 8 processors.
    expectDeliveryIdentical("ocean", 32);
}

TEST(DeliveryDifferential, QuantumOneStressIdentical)
{
    // Quantum 1 forces a drain after every instrumentation event --
    // the ring never holds more than one record, the harshest test of
    // the drain-at-switch protocol.
    auto direct = characterize("fft", 10, BackendKind::Fiber,
                               Delivery::Direct, 1);
    auto batched = characterize("fft", 10, BackendKind::Fiber,
                                Delivery::Batched, 1);
    expectSameRun(direct, batched);
}

namespace {

/** Run the working-set sweep for @p app at 8 processors under the
 *  given delivery shape: serially (@p poolThreads == 1) or through a
 *  ParallelSweep pool of that many workers. */
sim::CacheSweep
sweepRun(const std::string& name, long n, rt::Delivery delivery,
         int poolThreads)
{
    App* app = findApp(name);
    EXPECT_NE(app, nullptr) << name;
    AppConfig cfg;
    cfg.n = n;
    sim::SweepConfig sc;
    sc.nprocs = 8;
    sim::CacheSweep sweep(sc);
    rt::Env env({rt::Mode::Sim, sc.nprocs, 250, rt::BackendKind::Fiber,
                 delivery});
    std::unique_ptr<sim::ParallelSweep> pool;
    if (poolThreads > 1) {
        pool = std::make_unique<sim::ParallelSweep>(sweep, poolThreads);
        env.attachSink(pool.get());
    } else {
        env.attachSink(&sweep);
    }
    app->run(env, cfg);
    pool.reset();  // flushes
    return sweep;
}

void
expectSameSweep(const sim::CacheSweep& a, const sim::CacheSweep& b)
{
    EXPECT_EQ(a.accesses(), b.accesses());
    const sim::SweepConfig& sc = a.config();
    for (std::uint64_t size : sc.sizes) {
        for (int assoc : {1, 2, 4, 0}) {
            EXPECT_EQ(a.misses(size, assoc), b.misses(size, assoc))
                << size << "B " << assoc << "-way";
            EXPECT_EQ(a.missRate(size, assoc), b.missRate(size, assoc))
                << size << "B " << assoc << "-way";
        }
    }
}

} // namespace

TEST(SweepDifferential, ParallelReplayIdenticalToSerialOnline)
{
    // The acceptance pairing: classic direct delivery + serial online
    // sweep versus batched delivery + multi-threaded capture/replay.
    auto serial = sweepRun("fft", 12, rt::Delivery::Direct, 1);
    auto parallel = sweepRun("fft", 12, rt::Delivery::Batched, 3);
    expectSameSweep(serial, parallel);
}

TEST(SweepDifferential, WorkerCountInvariant)
{
    auto one = sweepRun("lu", 64, rt::Delivery::Batched, 1);
    for (int threads : {2, 5}) {
        auto many = sweepRun("lu", 64, rt::Delivery::Batched, threads);
        expectSameSweep(one, many);
    }
}
