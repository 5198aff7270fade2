// Edge-case tests for runtime primitives: flag reuse, subset barriers,
// lock fairness, idle accounting, and scheduler stress patterns.
#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <vector>

#include "rt/env.h"
#include "rt/shared.h"
#include "rt/sync.h"

using namespace splash;
using namespace splash::rt;

TEST(FlagEdge, ClearAndReuseAcrossPhases)
{
    Env env({Mode::Sim, 3});
    Flag flag(env);
    Barrier bar(env);
    SharedArray<int> seen(env, 3);
    env.run([&](ProcCtx& c) {
        for (int phase = 0; phase < 5; ++phase) {
            if (c.id() == 0) {
                seen[phase % 3] = phase;
                flag.set(c);
            } else {
                flag.wait(c);
                EXPECT_EQ(int(seen[phase % 3]), phase);
            }
            bar.arrive(c);
            if (c.id() == 0)
                flag.clear(c);
            bar.arrive(c);
        }
    });
    EXPECT_EQ(env.stats(1).pauses, 5u);
}

TEST(BarrierEdge, SubsetBarrierOnlyBlocksParticipants)
{
    Env env({Mode::Sim, 4});
    Barrier half(env, 2);  // only procs 0 and 1 participate
    Barrier all(env);
    SharedVar<int> done(env, 0);
    Lock lock(env);
    env.run([&](ProcCtx& c) {
        if (c.id() < 2) {
            half.arrive(c);
        } else {
            Lock::Guard g(lock, c);
            *done += 1;
        }
        all.arrive(c);
    });
    EXPECT_EQ(done.get(), 2);
}

TEST(LockEdge, ContendedHandoffIsDeterministicAndExclusive)
{
    // Queue order under contention is scheduler-defined, but it must
    // be (a) a permutation (everyone gets the lock exactly once) and
    // (b) bit-identical across runs.
    auto once = [] {
        Env env({Mode::Sim, 4});
        Lock lock(env);
        Barrier bar(env);
        SharedArray<int> order(env, 4);
        SharedVar<int> next(env, 0);
        env.run([&](ProcCtx& c) {
            if (c.id() == 0) {
                lock.acquire(c);
                bar.arrive(c);
                c.work(1000);  // others queue meanwhile
                lock.release(c);
            } else {
                bar.arrive(c);
                c.work(10 * c.id());
                lock.acquire(c);
                int slot = next.get();
                order[slot] = c.id();
                next.set(slot + 1);
                lock.release(c);
            }
        });
        return std::vector<int>{order.raw()[0], order.raw()[1],
                                order.raw()[2]};
    };
    auto a = once();
    auto sorted = a;
    std::sort(sorted.begin(), sorted.end());
    EXPECT_EQ(sorted, (std::vector<int>{1, 2, 3}));
    EXPECT_EQ(once(), a);  // deterministic handoff
}

TEST(IdleAccounting, IdleChargesPauseWaitNotInstructions)
{
    Env env({Mode::Sim, 1});
    env.run([&](ProcCtx& c) {
        c.work(100);
        c.idle(400);
    });
    EXPECT_EQ(env.stats(0).work, 100u);
    EXPECT_EQ(env.stats(0).pauseWait, 400u);
    EXPECT_EQ(env.elapsed(), 500u);  // idle advances logical time
}

TEST(SchedulerStress, ChainedProducerConsumer)
{
    // A pipeline of flags: P0 -> P1 -> ... -> P7; each stage waits for
    // its predecessor. Exercises repeated block/unblock chains.
    const int kProcs = 8;
    Env env({Mode::Sim, kProcs});
    std::vector<std::unique_ptr<Flag>> flags;
    for (int i = 0; i < kProcs; ++i)
        flags.push_back(std::make_unique<Flag>(env));
    SharedArray<int> value(env, kProcs);
    env.run([&](ProcCtx& c) {
        int id = c.id();
        if (id == 0) {
            value[0] = 1;
            flags[0]->set(c);
        } else {
            flags[id - 1]->wait(c);
            value[id] = int(value[id - 1]) + 1;
            flags[id]->set(c);
        }
    });
    EXPECT_EQ(int(value[kProcs - 1]), kProcs);
    // Logical clocks propagate along the chain monotonically.
    for (int i = 1; i < kProcs; ++i)
        EXPECT_GE(env.stats(i).finishTime, env.stats(i - 1).finishTime);
}

TEST(SharedHeapEdge, AdjacentAllocationsNeverShareLines)
{
    Env env({Mode::Sim, 2});
    SharedArray<char> a(env, 3);
    SharedArray<char> b(env, 3);
    Addr la = reinterpret_cast<Addr>(a.raw()) / 64;
    Addr lb = reinterpret_cast<Addr>(b.raw()) / 64;
    EXPECT_NE(la, lb);
}

TEST(EnvEdge, RunTwiceAccumulatesClocks)
{
    Env env({Mode::Sim, 2});
    env.run([&](ProcCtx& c) { c.work(100); });
    env.run([&](ProcCtx& c) { c.work(50); });
    EXPECT_EQ(env.stats(0).finishTime, 150u);
    // startMeasurement resets the window but not the clocks.
    env.startMeasurement();
    env.run([&](ProcCtx& c) { c.work(25); });
    EXPECT_EQ(env.elapsed(), 25u);
    EXPECT_EQ(env.stats(0).finishTime, 175u);
}

TEST(SchedulerEdge, UnblockOfDoneProcessorIsNoOp)
{
    // P0 exits immediately; P1 later "unblocks" it.  The unblock must
    // not resurrect a finished processor (which would make the
    // scheduler switch into a dead context).
    Scheduler s(2);
    std::vector<int> bodyRuns(2, 0);
    s.run([&](ProcId p) {
        ++bodyRuns[p];
        if (p == 1) {
            s.advance(p, 1);
            s.yield(p);  // P0 is long done by now
            s.unblock(0);
            s.advance(p, 1);
            s.yield(p);  // must keep running P1, not P0
        }
    });
    EXPECT_EQ(bodyRuns[0], 1);
    EXPECT_EQ(bodyRuns[1], 1);
    EXPECT_EQ(s.time(1), 2u);
}

TEST(SchedulerEdge, DeadlockReportShowsStatusAndClock)
{
    // The deadlock diagnostic must name each processor's status, what
    // it is blocked on, and its logical time.
    EXPECT_DEATH(
        {
            Env env({Mode::Sim, 2});
            Flag f(env);
            env.run([&](ProcCtx& c) {
                c.work(3 + c.id());
                f.wait(c);
            });
        },
        "deadlock: no runnable processor");
    EXPECT_DEATH(
        {
            Env env({Mode::Sim, 2});
            Flag f(env);
            env.run([&](ProcCtx& c) {
                c.work(3 + c.id());
                f.wait(c);
            });
        },
        "P1: Blocked\\(flag\\) @t=4");
}

TEST(EnvEdge, NestedTeamOnSeparateEnvRunsInsideABody)
{
    // A team body may create and run a second, independent Env (e.g.
    // an app solving a subproblem with its own simulated machine).
    // The inner episode's instrumentation must charge the inner Env
    // and the outer context must be restored afterwards.
    Env outer({Mode::Sim, 2});
    long innerSum = 0;
    Tick innerElapsed = 0;
    outer.run([&](ProcCtx& c) {
        c.work(10);
        if (c.id() == 0) {
            Env inner({Mode::Sim, 3, 100});
            SharedArray<int> acc(inner, 3);
            inner.run([&](ProcCtx& ic) {
                ic.work(5);
                acc[ic.id()] = ic.id() + 1;
            });
            for (int i = 0; i < 3; ++i)
                innerSum += acc.raw()[i];
            innerElapsed = inner.elapsed();
            EXPECT_EQ(inner.stats(0).work, 5u);
        }
        c.work(10);  // instrumentation resolves to the outer ctx again
    });
    EXPECT_EQ(innerSum, 6);
    EXPECT_GE(innerElapsed, 5u);
    EXPECT_EQ(outer.stats(0).work, 20u);  // inner work not charged here
    EXPECT_EQ(outer.stats(1).work, 20u);
}

TEST(EnvEdge, NestedRunOnSameEnvPanics)
{
    EXPECT_DEATH(
        {
            Env env({Mode::Sim, 2});
            env.run([&](ProcCtx& c) {
                if (c.id() == 0)
                    env.run([](ProcCtx&) {});
            });
        },
        "already running");
}

// The processor count is checked before any member is sized from it:
// an out-of-range count gets the diagnostic, never a std::length_error
// from a vector sized -2 (splash2run --procs -2 used to abort).
TEST(EnvEdge, OutOfRangeProcessorCountIsRejectedBeforeAllocation)
{
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    for (Mode mode : {Mode::Sim, Mode::Native})
        for (int nprocs : {-2, 0, kMaxProcs + 1})
            EXPECT_EXIT({ Env env({mode, nprocs}); },
                        ::testing::ExitedWithCode(1),
                        "processor count must be in")
                << nprocs;
}

class QuantumSweep : public ::testing::TestWithParam<int>
{};

TEST_P(QuantumSweep, ResultsIndependentOfQuantum)
{
    // The scheduler quantum is a performance knob; deterministic
    // programs must compute identical results at any quantum.
    auto run = [&](std::uint64_t quantum) {
        EnvConfig ec{Mode::Sim, 4, quantum};
        Env env(ec);
        SharedArray<long> acc(env, 4);
        Barrier bar(env);
        env.run([&](ProcCtx& c) {
            for (int i = 0; i < 500; ++i)
                acc[c.id()] += i ^ c.id();
            bar.arrive(c);
        });
        long total = 0;
        for (int i = 0; i < 4; ++i)
            total += acc.raw()[i];
        return total;
    };
    EXPECT_EQ(run(GetParam()), run(250));
}

INSTANTIATE_TEST_SUITE_P(Quanta, QuantumSweep,
                         ::testing::Values(1, 7, 100, 5000));
