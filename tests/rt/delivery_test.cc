// Differential tests for the reference-delivery seam.
//
// The runtime can hand references to the simulator one call at a time
// (direct) or append them to a ring buffer drained at every control
// transfer (batched).  Because exactly one simulated processor runs at
// a time and the ring is drained before every switch, the drained
// order equals the execution order -- so the two shapes must produce
// bit-identical characterizations.  These tests enforce that on full
// FFT/LU/Ocean runs at 8 processors, including the working-set sweep
// split into processor-range shards on a threaded broadcast.
#include <gtest/gtest.h>

#include <string>

#include "harness/app.h"
#include "harness/experiment.h"
#include "run_compare.h"

using namespace splash;
using namespace splash::harness;
using namespace splash::rt;
using splash::testing::characterize;
using splash::testing::expectSameRun;
using splash::testing::SweepShards;

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
 *  given delivery shape: whole (@p shards == 1) or split into that
 *  many processor-range shards on a threaded broadcast. */
sim::SweepResult
sweepRun(const std::string& name, long n, rt::Delivery delivery,
         int shards)
{
    App* app = findApp(name);
    EXPECT_NE(app, nullptr) << name;
    AppConfig cfg;
    cfg.n = n;
    sim::SweepConfig sc;
    sc.nprocs = 8;
    rt::Env env({rt::Mode::Sim, sc.nprocs, 250, rt::BackendKind::Fiber,
                 delivery});
    if (shards == 1) {
        sim::CacheSweep sweep(sc);
        env.attachSink(&sweep);
        app->run(env, cfg);
        return sweep.result();
    }
    SweepShards split(sc, shards);
    env.attachSink(&split.sink());
    app->run(env, cfg);
    return split.result();
}

void
expectSameSweep(const sim::SweepResult& a, const sim::SweepResult& b)
{
    EXPECT_EQ(a.accesses(), b.accesses());
    for (std::uint64_t size : sim::SweepConfig{}.sizes) {
        for (int assoc : {1, 2, 4, 0}) {
            EXPECT_EQ(a.misses(size, assoc), b.misses(size, assoc))
                << size << "B " << assoc << "-way";
            EXPECT_EQ(a.missRate(size, assoc), b.missRate(size, assoc))
                << size << "B " << assoc << "-way";
        }
    }
}

} // namespace

TEST(SweepDifferential, ShardedReplayIdenticalToWholeOnline)
{
    // The acceptance pairing: classic direct delivery + the whole
    // online sweep versus batched delivery + shards on a broadcast.
    auto whole = sweepRun("fft", 12, rt::Delivery::Direct, 1);
    auto sharded = sweepRun("fft", 12, rt::Delivery::Batched, 3);
    expectSameSweep(whole, sharded);
}

TEST(SweepDifferential, ShardCountInvariant)
{
    auto one = sweepRun("lu", 64, rt::Delivery::Batched, 1);
    for (int shards : {2, 5}) {
        auto many = sweepRun("lu", 64, rt::Delivery::Batched, shards);
        expectSameSweep(one, many);
    }
}
