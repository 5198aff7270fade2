/**
 * @file
 * Micro-benchmarks (google-benchmark) of the simulation substrate
 * itself, plus the DESIGN.md ablation on scheduler quantum size.
 *
 *  - MemSystem reference throughput: hit fast path (BM_MemSysHit),
 *    miss/coherence slow path (BM_MemSysMiss, BM_MemSysSharingMiss),
 *    each also captured per coherence protocol (BM_MemSysHitProto/msi,
 *    BM_MemSysMissProto/dragon, ...) to show the table-driven dispatch
 *    costs the same across the zoo
 *  - Working-set sweep throughput: serial online (BM_SweepAccess) and
 *    processor-range shards on a threaded broadcast (BM_SweepBatched)
 *  - Reference delivery shape under a full Env (BM_Delivery)
 *  - Scheduler context-switch cost and quantum sensitivity
 *  - Backend handoff cost (fiber vs thread): ping-pong benchmarks
 *    where two processors alternate via yield and via block/unblock,
 *    so items/sec is context switches per second.
 *
 * The timings depend on the host and the build type, so no output of
 * this binary is committed.  Whole-suite cost per layer and per
 * program comes from `python3 perfbench/run.py --workload W --trace 1`.
 */
#include <benchmark/benchmark.h>

#include <memory>
#include <vector>

#include "rt/env.h"
#include "rt/scheduler.h"
#include "rt/shared.h"
#include "sim/memsys.h"
#include "sim/replay.h"
#include "sim/sweep.h"

using namespace splash;

/** Hit-dominated reference stream: after the 64 cold fills every
 *  access takes the silent-hit fast path (tag probe + mask test +
 *  counters, no directory consult).  Mixes reads (M-state hits) and
 *  writes (silent stores) 3:1 like typical SPLASH-2 codes. */
static void
BM_MemSysHitProto(benchmark::State& state, sim::ProtocolKind proto)
{
    sim::MachineConfig mc;
    mc.nprocs = 4;
    mc.protocol = proto;
    sim::MemSystem mem(mc);
    std::uint64_t i = 0;
    for (auto _ : state) {
        Addr a = 0x10000 + (i % 64) * 8;
        mem.access(0, a, 8,
                   (i & 3) == 3 ? AccessType::Write : AccessType::Read);
        ++i;
    }
    state.SetItemsProcessed(state.iterations());
}

/** The headline number (MESI, the paper default): must not regress
 *  against the hand-inlined hit path the protocol table replaced. */
static void
BM_MemSysHit(benchmark::State& state)
{
    BM_MemSysHitProto(state, sim::ProtocolKind::MESI);
}
BENCHMARK(BM_MemSysHit);
BENCHMARK_CAPTURE(BM_MemSysHitProto, msi, sim::ProtocolKind::MSI);
BENCHMARK_CAPTURE(BM_MemSysHitProto, moesi, sim::ProtocolKind::MOESI);
BENCHMARK_CAPTURE(BM_MemSysHitProto, dragon, sim::ProtocolKind::Dragon);

/** Miss-dominated stream: a cyclic scan over 2x the cache capacity in
 *  a direct-mapped cache, so every reference takes the slow path
 *  (classification, directory, table-driven transition, victim
 *  writeback accounting). */
static void
BM_MemSysMissProto(benchmark::State& state, sim::ProtocolKind proto)
{
    sim::MachineConfig mc;
    mc.nprocs = 4;
    mc.cache.size = 1u << 16;
    mc.cache.assoc = 1;
    mc.protocol = proto;
    sim::MemSystem mem(mc);
    const std::uint64_t kLines = (mc.cache.size / 64) * 2;
    std::uint64_t i = 0;
    for (auto _ : state) {
        mem.access(0, 0x100000 + (i % kLines) * 64, 8, AccessType::Read);
        ++i;
    }
    state.SetItemsProcessed(state.iterations());
}

static void
BM_MemSysMiss(benchmark::State& state)
{
    BM_MemSysMissProto(state, sim::ProtocolKind::MESI);
}
BENCHMARK(BM_MemSysMiss);
BENCHMARK_CAPTURE(BM_MemSysMissProto, msi, sim::ProtocolKind::MSI);
BENCHMARK_CAPTURE(BM_MemSysMissProto, moesi, sim::ProtocolKind::MOESI);
BENCHMARK_CAPTURE(BM_MemSysMissProto, dragon, sim::ProtocolKind::Dragon);

static void
BM_MemSysSharingMiss(benchmark::State& state)
{
    sim::MachineConfig mc;
    mc.nprocs = 2;
    sim::MemSystem mem(mc);
    bool flip = false;
    for (auto _ : state) {
        mem.access(flip ? 0 : 1, 0x10000, 8, AccessType::Write);
        flip = !flip;
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_MemSysSharingMiss);

namespace {

/** Pseudo-random 4-proc reference mix shared by the sweep benches. */
inline void
sweepStep(sim::RefSink& sink, std::uint64_t& x)
{
    x = x * 6364136223846793005ull + 1442695040888963407ull;
    sim::AccessRec r;
    r.addr = 0x100000 + ((x >> 30) % 4096) * 64;
    r.size = 8;
    r.proc = static_cast<std::int16_t>((x >> 62) & 3);
    r.type = ((x >> 11) & 3) == 0 ? AccessType::Write : AccessType::Read;
    sink.access(r);
}

} // namespace

/** Serial online sweep: the 13 set arrays behind the 33 finite
 *  configurations, plus the Mattson stack, updated per reference. */
static void
BM_SweepAccess(benchmark::State& state)
{
    sim::SweepConfig sc;
    sc.nprocs = 4;
    sim::CacheSweep sweep(sc);
    std::uint64_t x = 12345;
    for (auto _ : state)
        sweepStep(sweep, x);
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SweepAccess);

/** The sweep split into N processor-range shards on a threaded
 *  broadcast -- the engine --replicas on runs; cost includes staging,
 *  every shard's coherence advance, and the slowest shard's replay. */
static void
BM_SweepBatched(benchmark::State& state)
{
    sim::SweepConfig sc;
    sc.nprocs = 4;
    const int k = static_cast<int>(state.range(0));
    std::vector<std::unique_ptr<sim::CacheSweep>> shards;
    std::vector<sim::RefSink*> sinks;
    for (int i = 0; i < k; ++i) {
        shards.push_back(std::make_unique<sim::CacheSweep>(sc, i, k));
        sinks.push_back(shards.back().get());
    }
    sim::BroadcastReplay cast(sinks);
    std::uint64_t x = 12345;
    for (auto _ : state)
        sweepStep(cast, x);
    cast.flush();
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SweepBatched)->Arg(2)->Arg(4)->UseRealTime();

/** Broadcast replay throughput: the sweepStep reference mix fanned
 *  out to N MemSystem replicas on consumer threads (N > 0) or
 *  replayed inline on the producer (N == 0 runs one replica inline).
 *  items/sec is producer-side references absorbed, so it shows how
 *  back-pressure scales with the replica count. */
static void
BM_Broadcast(benchmark::State& state)
{
    const int replicas = static_cast<int>(state.range(0));
    std::vector<sim::ReplicaSpec> specs(
        static_cast<std::size_t>(replicas ? replicas : 1));
    for (std::size_t i = 0; i < specs.size(); ++i) {
        specs[i].machine.nprocs = 4;
        specs[i].machine.cache.lineSize = 8 << (i % 6);
    }
    sim::BroadcastReplay replay(specs, /*threaded=*/replicas > 0);
    std::uint64_t x = 12345;
    for (auto _ : state)
        sweepStep(replay, x);
    replay.flush();
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_Broadcast)->Arg(0)->Arg(1)->Arg(2)->Arg(6)->UseRealTime();

/** End-to-end reference delivery under a full Env + MemSystem: the
 *  instrumented read hook, clock bump, scheduling, and sink delivery.
 *  Compares the call-per-access shape against the batched ring. */
static void
deliveryLoop(benchmark::State& state, rt::Delivery d)
{
    const int procs = 4;
    const int refsPerProc = 8192;
    for (auto _ : state) {
        rt::Env env({rt::Mode::Sim, procs, /*quantum=*/250,
                     rt::BackendKind::Fiber, d});
        sim::MachineConfig mc;
        mc.nprocs = procs;
        sim::MemSystem mem(mc);
        env.attachSink(&mem);
        env.run([&](rt::ProcCtx& ctx) {
            Addr base = 0x100000 + Addr(ctx.id()) * 65536;
            for (int i = 0; i < refsPerProc; ++i)
                ctx.read(reinterpret_cast<const void*>(
                             base + Addr(i % 512) * 8),
                         8);
        });
    }
    state.SetItemsProcessed(state.iterations() * procs * refsPerProc);
}

static void
BM_Delivery_Direct(benchmark::State& state)
{
    deliveryLoop(state, rt::Delivery::Direct);
}
BENCHMARK(BM_Delivery_Direct);

static void
BM_Delivery_Batched(benchmark::State& state)
{
    deliveryLoop(state, rt::Delivery::Batched);
}
BENCHMARK(BM_Delivery_Batched);

/** Ablation: scheduler quantum size vs simulation throughput. */
static void
BM_SchedulerQuantum(benchmark::State& state)
{
    const int procs = 8;
    const std::uint64_t quantum = state.range(0);
    for (auto _ : state) {
        rt::Scheduler s(procs, quantum);
        s.run([&](ProcId p) {
            for (int i = 0; i < 2000; ++i) {
                s.advance(p, 1);
                s.event(p);
            }
        });
    }
    state.SetItemsProcessed(state.iterations() * procs * 2000);
}
BENCHMARK(BM_SchedulerQuantum)->Arg(10)->Arg(50)->Arg(250)->Arg(1000);

/** Pure handoff cost, block/unblock flavor: two processors take turns,
 *  each round is advance + unblock(partner) + block(self), i.e. two
 *  context switches per round.  items/sec == switches/sec. */
static void
pingPongBlockUnblock(benchmark::State& state, rt::BackendKind kind)
{
    const int rounds = 4096;
    for (auto _ : state) {
        // Quantum never expires: every switch is an explicit handoff.
        rt::Scheduler s(2, /*quantum=*/1u << 30, kind);
        s.run([&](ProcId p) {
            ProcId other = 1 - p;
            for (int i = 0; i < rounds; ++i) {
                s.advance(p, 1);
                s.unblock(other);
                s.block(p, "ping-pong");
            }
            s.unblock(other);  // release the partner's final block
        });
    }
    state.SetItemsProcessed(state.iterations() * rounds * 2);
}

/** Pure handoff cost, yield flavor: equal clock rates make the
 *  smallest-time-first policy alternate the two processors, so each
 *  yield is one context switch. */
static void
pingPongYield(benchmark::State& state, rt::BackendKind kind)
{
    const int rounds = 4096;
    for (auto _ : state) {
        rt::Scheduler s(2, /*quantum=*/1u << 30, kind);
        s.run([&](ProcId p) {
            for (int i = 0; i < rounds; ++i) {
                s.advance(p, 1);
                s.yield(p);
            }
        });
    }
    state.SetItemsProcessed(state.iterations() * rounds * 2);
}

static void
BM_SchedulerPingPong_Fiber(benchmark::State& state)
{
    pingPongBlockUnblock(state, rt::BackendKind::Fiber);
}
BENCHMARK(BM_SchedulerPingPong_Fiber)->UseRealTime();

static void
BM_SchedulerPingPong_Thread(benchmark::State& state)
{
    pingPongBlockUnblock(state, rt::BackendKind::Thread);
}
BENCHMARK(BM_SchedulerPingPong_Thread)->UseRealTime();

static void
BM_SchedulerYield_Fiber(benchmark::State& state)
{
    pingPongYield(state, rt::BackendKind::Fiber);
}
BENCHMARK(BM_SchedulerYield_Fiber)->UseRealTime();

static void
BM_SchedulerYield_Thread(benchmark::State& state)
{
    pingPongYield(state, rt::BackendKind::Thread);
}
BENCHMARK(BM_SchedulerYield_Thread)->UseRealTime();

BENCHMARK_MAIN();
