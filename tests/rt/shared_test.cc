// Tests for the shared heap, placement, and instrumented containers.
#include <gtest/gtest.h>

#include "rt/env.h"
#include "rt/shared.h"
#include "sim/memsys.h"

using namespace splash;
using namespace splash::rt;

TEST(SharedHeap, AllocationsAreLineAlignedAndZeroed)
{
    SharedHeap heap(4);
    for (int i = 0; i < 10; ++i) {
        char* p = static_cast<char*>(heap.alloc(100 + i));
        EXPECT_EQ(reinterpret_cast<std::uintptr_t>(p) % 64, 0u);
        for (int j = 0; j < 100 + i; ++j)
            EXPECT_EQ(p[j], 0);
    }
}

TEST(SharedHeap, ExplicitPlacementWins)
{
    // homeOf operates on simulated addresses (see toSim).
    SharedHeap heap(4);
    char* a = static_cast<char*>(heap.alloc(4096));
    heap.setHome(a, 2048, 3);
    heap.setHome(a + 2048, 2048, 1);
    Addr s = heap.toSim(reinterpret_cast<Addr>(a));
    EXPECT_EQ(heap.homeOf(s), 3);
    EXPECT_EQ(heap.homeOf(s + 2047), 3);
    EXPECT_EQ(heap.homeOf(s + 2048), 1);
    EXPECT_EQ(heap.homeOf(s + 4095), 1);
}

TEST(SharedHeap, UnplacedDataInterleavesAcrossNodes)
{
    SharedHeap heap(4);
    char* a = static_cast<char*>(heap.alloc(64 * 16));
    Addr base = heap.toSim(reinterpret_cast<Addr>(a));
    int seen[4] = {0, 0, 0, 0};
    for (int i = 0; i < 16; ++i)
        ++seen[heap.homeOf(base + Addr(i) * 64)];
    for (int n = 0; n < 4; ++n)
        EXPECT_EQ(seen[n], 4);
}

TEST(SharedHeap, LargeAllocationsSpanBlocks)
{
    SharedHeap heap(2);
    void* big = heap.alloc(40u << 20);  // larger than one arena block
    ASSERT_NE(big, nullptr);
    void* more = heap.alloc(1024);
    ASSERT_NE(more, nullptr);
    EXPECT_GE(heap.bytesAllocated(), (40u << 20) + 1024u);
}

TEST(SharedHeap, SimulatedAddressesAreStableAcrossHeaps)
{
    // Two heaps performing the same allocation sequence hand out the
    // same *simulated* addresses even though the host arenas differ --
    // the property that makes concurrent experiments bit-identical to
    // serial ones.
    SharedHeap h1(4), h2(4);
    for (std::size_t bytes : {100u, 4096u, 64u, 333u, 128u}) {
        Addr s1 = h1.toSim(reinterpret_cast<Addr>(h1.alloc(bytes)));
        Addr s2 = h2.toSim(reinterpret_cast<Addr>(h2.alloc(bytes)));
        EXPECT_EQ(s1, s2) << bytes;
        EXPECT_GE(s1, SharedHeap::kSimBase);
    }
    // Addresses outside the arena pass through untranslated.
    int local = 0;
    EXPECT_EQ(h1.toSim(reinterpret_cast<Addr>(&local)),
              reinterpret_cast<Addr>(&local));
}

TEST(SharedArray, ProxyReadsAndWritesAreCounted)
{
    Env env({Mode::Sim, 2});
    SharedArray<double> a(env, 64);
    env.run([&](ProcCtx& c) {
        if (c.id() == 0) {
            for (int i = 0; i < 64; ++i)
                a[i] = i * 1.5;
        } else {
            // Nothing; P1 idles.
        }
    });
    EXPECT_EQ(env.stats(0).writes, 64u);
    env.run([&](ProcCtx& c) {
        if (c.id() == 1) {
            double s = 0;
            for (int i = 0; i < 64; ++i)
                s += a[i];
            EXPECT_DOUBLE_EQ(s, 1.5 * (63.0 * 64.0 / 2.0));
        }
    });
    EXPECT_EQ(env.stats(1).reads, 64u);
}

TEST(SharedArray, CompoundAssignmentCountsReadAndWrite)
{
    Env env({Mode::Sim, 1});
    SharedArray<int> a(env, 4);
    env.run([&](ProcCtx& c) {
        a[0] = 5;
        a[0] += 3;
        (void)c;
    });
    EXPECT_EQ(*a.raw(), 8);
    EXPECT_EQ(env.stats(0).writes, 2u);
    EXPECT_EQ(env.stats(0).reads, 1u);
}

namespace {
struct Body
{
    double pos[3];
    double mass;
};
} // namespace

TEST(SharedArray, FieldAccessReferencesOnlyMemberBytes)
{
    Env env({Mode::Sim, 2});
    sim::MachineConfig mc;
    mc.nprocs = 2;
    sim::MemSystem mem(mc, &env.heap());
    env.attachSink(&mem);

    SharedArray<Body> bodies(env, 8);
    env.run([&](ProcCtx& c) {
        if (c.id() == 1)
            (void)bodies.ldf(0, &Body::mass);  // warm P1's cache (cold)
    });
    env.run([&](ProcCtx& c) {
        if (c.id() == 0)
            bodies.stf(0, &Body::mass, 2.5);  // invalidates P1
    });
    env.run([&](ProcCtx& c) {
        if (c.id() == 1) {
            EXPECT_DOUBLE_EQ(bodies.ldf(0, &Body::mass), 2.5);
        }
    });
    // P1's re-read is a true-sharing miss: it read the written word.
    EXPECT_EQ(mem.procStats(1).misses[int(sim::MissType::TrueSharing)], 1u);
}

TEST(SharedArray, SetupAccessesAreNotInstrumented)
{
    Env env({Mode::Sim, 1});
    SharedArray<int> a(env, 16);
    for (int i = 0; i < 16; ++i)
        a[i] = i;  // outside any team: cur() == nullptr
    EXPECT_EQ(env.stats(0).writes, 0u);
    EXPECT_EQ(a.ld(3), 3);
}

TEST(SharedVar, BehavesAsSingleElement)
{
    Env env({Mode::Native, 2});
    SharedVar<long> v(env, 7);
    EXPECT_EQ(v.get(), 7);
    v.set(9);
    EXPECT_EQ(*v.raw(), 9);
}
