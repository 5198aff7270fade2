// Differential and determinism tests for the execution backends.
//
// The ExecutionBackend seam is pure mechanism: the fiber and thread
// backends must produce bit-identical interleavings, and therefore
// bit-identical execution and memory-system statistics, for any
// deterministic program.  These tests enforce that equivalence at two
// levels: raw scheduler traces, and full application characterizations
// (ProcStats + MemStats per processor) for FFT and LU at 8 processors.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "harness/app.h"
#include "harness/experiment.h"
#include "rt/exec_backend.h"
#include "rt/scheduler.h"
#include "run_compare.h"

using namespace splash;
using namespace splash::rt;
using namespace splash::harness;
using splash::testing::characterize;
using splash::testing::expectSameRun;

namespace {

/** Scheduler-level event trace: the exact sequence of (proc, clock)
 *  control transfers under a mix of yields, blocks and unblocks. */
std::vector<std::uint64_t>
schedulerTrace(BackendKind kind)
{
    Scheduler s(6, /*quantum=*/5, kind);
    std::vector<std::uint64_t> trace;
    s.run([&](ProcId p) {
        for (int i = 0; i < 100; ++i) {
            trace.push_back(std::uint64_t(p) << 32 |
                            (s.time(p) & 0xFFFFFFFF));
            s.advance(p, 1 + (p % 3));
            if (i % 17 == p) {
                s.unblock((p + 1) % 6);
                s.yield(p);
            } else if (i % 23 == p && p > 0) {
                s.unblock(p - 1);
                s.advance(p, 7);
            }
            s.event(p);
        }
    });
    return trace;
}

} // namespace

TEST(BackendDifferential, SchedulerTraceIdenticalAcrossBackends)
{
    auto fiber = schedulerTrace(BackendKind::Fiber);
    auto thread = schedulerTrace(BackendKind::Thread);
    EXPECT_EQ(fiber, thread);
    EXPECT_EQ(fiber, schedulerTrace(BackendKind::Fiber));
}

TEST(BackendDifferential, FftStatsIdenticalAcrossBackends)
{
    // log2n = 12 -> 4096 points on 8 processors.
    auto fiber = characterize("fft", 12, BackendKind::Fiber);
    auto thread = characterize("fft", 12, BackendKind::Thread);
    ASSERT_TRUE(fiber.valid);
    expectSameRun(fiber, thread);
}

TEST(BackendDifferential, LuStatsIdenticalAcrossBackends)
{
    // 128x128 matrix on 8 processors.
    auto fiber = characterize("lu", 128, BackendKind::Fiber);
    auto thread = characterize("lu", 128, BackendKind::Thread);
    ASSERT_TRUE(fiber.valid);
    expectSameRun(fiber, thread);
}

TEST(BackendDifferential, QuantumOneStressIdenticalAcrossBackends)
{
    // Quantum 1 maximizes context switches -- the harshest test of the
    // backend handoff path.
    auto fiber =
        characterize("fft", 10, BackendKind::Fiber, Delivery::Batched, 1);
    auto thread =
        characterize("fft", 10, BackendKind::Thread, Delivery::Batched, 1);
    expectSameRun(fiber, thread);
}

TEST(Determinism, RepeatedFiberRunsAreBitIdentical)
{
    auto a = characterize("fft", 12, BackendKind::Fiber);
    auto b = characterize("fft", 12, BackendKind::Fiber);
    expectSameRun(a, b);
}

TEST(Determinism, RepeatedThreadRunsAreBitIdentical)
{
    auto a = characterize("fft", 12, BackendKind::Thread);
    auto b = characterize("fft", 12, BackendKind::Thread);
    expectSameRun(a, b);
}

TEST(Backend, PingPongBlockUnblockCompletes)
{
    // The pattern the context-switch microbenchmark uses; assert its
    // correctness here so the bench can trust it.
    for (BackendKind kind :
         {BackendKind::Fiber, BackendKind::Thread}) {
        Scheduler s(2, 250, kind);
        const int rounds = 1000;
        int switches = 0;
        s.run([&](ProcId p) {
            ProcId other = 1 - p;
            for (int i = 0; i < rounds; ++i) {
                s.advance(p, 1);
                s.unblock(other);
                s.block(p, "ping-pong");
                ++switches;
            }
            s.unblock(other);
        });
        EXPECT_EQ(switches, 2 * rounds) << backendName(kind);
        EXPECT_EQ(s.time(0), Tick(rounds));
        EXPECT_EQ(s.time(1), Tick(rounds));
    }
}

TEST(Backend, Names)
{
    EXPECT_STREQ(backendName(BackendKind::Fiber), "fiber");
    EXPECT_STREQ(backendName(BackendKind::Thread), "thread");
}
