// Build-system smoke test: the runtime and simulator link and run a
// trivial team in both modes.
#include <gtest/gtest.h>

#include "rt/env.h"
#include "rt/shared.h"
#include "rt/sync.h"
#include "sim/memsys.h"

using namespace splash;

TEST(Smoke, NativeTeamRuns)
{
    rt::Env env({rt::Mode::Native, 4});
    rt::SharedArray<int> a(env, 4);
    rt::Barrier bar(env);
    env.run([&](rt::ProcCtx& c) {
        a[c.id()] = c.id() + 1;
        bar.arrive(c);
    });
    int sum = 0;
    for (int i = 0; i < 4; ++i)
        sum += a.raw()[i];
    EXPECT_EQ(sum, 10);
}

TEST(Smoke, SimTeamRunsWithMemSystem)
{
    rt::Env env({rt::Mode::Sim, 4});
    sim::MachineConfig mc;
    mc.nprocs = 4;
    sim::MemSystem mem(mc, &env.heap());
    env.attachSink(&mem);

    rt::SharedArray<double> a(env, 1024);
    rt::Barrier bar(env);
    env.run([&](rt::ProcCtx& c) {
        for (int i = c.id(); i < 1024; i += 4)
            a[i] = i * 2.0;
        bar.arrive(c);
        double s = 0;
        for (int i = 0; i < 1024; ++i)
            s += a[i];
        c.flops(1024);
        EXPECT_DOUBLE_EQ(s, 1023.0 * 1024.0);
    });
    EXPECT_GT(mem.total().accesses(), 0u);
    EXPECT_TRUE(mem.checkCoherenceInvariants());
    EXPECT_GT(env.elapsed(), 0u);
}
