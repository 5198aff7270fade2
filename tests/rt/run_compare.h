// Shared helpers for differential tests that prove two simulation
// mechanisms (execution backends, reference-delivery shapes, a whole
// sweep versus processor-range shards, broadcast replica threading)
// produce bit-identical characterizations.
#ifndef SPLASH2_TESTS_RT_RUN_COMPARE_H
#define SPLASH2_TESTS_RT_RUN_COMPARE_H

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "harness/app.h"
#include "harness/experiment.h"
#include "sim/sweep.h"

namespace splash::testing {

/** Full characterization of one app in an Env with the given
 *  execution backend, delivery shape and quantum: 8 processors,
 *  default 1 MB caches, problem size @p n.  Backend and delivery are
 *  differential oracles that live only inside rt::Env, so the Env is
 *  built here rather than by the run pipeline. */
inline harness::RunStats
characterize(const std::string& name, long n,
             rt::BackendKind backend = rt::BackendKind::Fiber,
             rt::Delivery delivery = rt::Delivery::Batched,
             std::uint64_t quantum = 250)
{
    harness::App* app = harness::findApp(name);
    EXPECT_NE(app, nullptr) << name;
    harness::AppConfig cfg;
    cfg.n = n;
    const int procs = 8;
    rt::Env env({rt::Mode::Sim, procs, quantum, backend, delivery});
    sim::MachineConfig mc;
    mc.nprocs = procs;
    sim::MemSystem mem(mc, &env.heap());
    env.attachSink(&mem);
    harness::RunStats r;
    r.valid = app->run(env, cfg).valid;
    for (int p = 0; p < procs; ++p) {
        r.perProc.push_back(env.stats(p));
        r.exec += env.stats(p);
    }
    r.elapsed = env.elapsed();
    return harness::withMem(std::move(r), mem);
}

/** The sweep of @p sc split into @p k processor-range shards behind
 *  a threaded broadcast: the engine --replicas on runs.  Feed sink();
 *  result() and profile() flush it first. */
class SweepShards
{
  public:
    SweepShards(const sim::SweepConfig& sc, int k,
                std::size_t chunkRecords =
                    sim::BroadcastReplay::kChunkRecords)
    {
        std::vector<sim::RefSink*> sinks;
        for (int i = 0; i < k; ++i) {
            shards_.push_back(std::make_unique<sim::CacheSweep>(sc, i, k));
            sinks.push_back(shards_.back().get());
        }
        cast_ = std::make_unique<sim::BroadcastReplay>(sinks, true,
                                                       chunkRecords);
    }

    sim::RefSink& sink() { return *cast_; }

    /** The shards' counters, summed. */
    sim::SweepResult
    result()
    {
        cast_->flush();
        sim::SweepResult r;
        for (const auto& s : shards_)
            r += s->result();
        return r;
    }

    /** The shards' fully associative profiles, summed. */
    sim::ReuseDistProfile
    profile()
    {
        cast_->flush();
        sim::ReuseDistProfile p;
        for (const auto& s : shards_)
            p += s->profile();
        return p;
    }

  private:
    std::vector<std::unique_ptr<sim::CacheSweep>> shards_;
    /** Declared last, so it is destroyed before the shards it feeds. */
    std::unique_ptr<sim::BroadcastReplay> cast_;
};

/** Every operating point of @p got equals the whole sweep @p want. */
inline void
expectSameSweep(const sim::CacheSweep& want, const sim::SweepResult& got,
                const std::string& what)
{
    EXPECT_EQ(want.accesses(), got.accesses()) << what;
    for (std::uint64_t size : want.config().sizes)
        for (int assoc : want.config().assocs)
            EXPECT_EQ(want.misses(size, assoc), got.misses(size, assoc))
                << what << ", " << size << "B " << assoc << "-way";
}

inline void
expectSameProcStats(const rt::ProcStats& a, const rt::ProcStats& b,
                    int p)
{
    EXPECT_EQ(a.reads, b.reads) << "P" << p;
    EXPECT_EQ(a.writes, b.writes) << "P" << p;
    EXPECT_EQ(a.flops, b.flops) << "P" << p;
    EXPECT_EQ(a.work, b.work) << "P" << p;
    EXPECT_EQ(a.barriers, b.barriers) << "P" << p;
    EXPECT_EQ(a.locks, b.locks) << "P" << p;
    EXPECT_EQ(a.pauses, b.pauses) << "P" << p;
    EXPECT_EQ(a.barrierWait, b.barrierWait) << "P" << p;
    EXPECT_EQ(a.lockWait, b.lockWait) << "P" << p;
    EXPECT_EQ(a.pauseWait, b.pauseWait) << "P" << p;
    EXPECT_EQ(a.startTime, b.startTime) << "P" << p;
    EXPECT_EQ(a.finishTime, b.finishTime) << "P" << p;
}

inline void
expectSameMemStats(const sim::MemStats& a, const sim::MemStats& b,
                   int p)
{
    EXPECT_EQ(a.reads, b.reads) << "P" << p;
    EXPECT_EQ(a.writes, b.writes) << "P" << p;
    for (int m = 0; m < sim::kNumMissTypes; ++m)
        EXPECT_EQ(a.misses[m], b.misses[m]) << "P" << p << " type " << m;
    EXPECT_EQ(a.upgrades, b.upgrades) << "P" << p;
    EXPECT_EQ(a.remoteSharedData, b.remoteSharedData) << "P" << p;
    EXPECT_EQ(a.remoteColdData, b.remoteColdData) << "P" << p;
    EXPECT_EQ(a.remoteCapacityData, b.remoteCapacityData) << "P" << p;
    EXPECT_EQ(a.remoteWriteback, b.remoteWriteback) << "P" << p;
    EXPECT_EQ(a.remoteOverhead, b.remoteOverhead) << "P" << p;
    EXPECT_EQ(a.localData, b.localData) << "P" << p;
    EXPECT_EQ(a.trueSharedData, b.trueSharedData) << "P" << p;
}

inline void
expectSameRun(const harness::RunStats& a, const harness::RunStats& b)
{
    EXPECT_EQ(a.valid, b.valid);
    EXPECT_EQ(a.elapsed, b.elapsed);
    ASSERT_EQ(a.perProc.size(), b.perProc.size());
    for (std::size_t p = 0; p < a.perProc.size(); ++p)
        expectSameProcStats(a.perProc[p], b.perProc[p], int(p));
    ASSERT_EQ(a.memPerProc.size(), b.memPerProc.size());
    for (std::size_t p = 0; p < a.memPerProc.size(); ++p)
        expectSameMemStats(a.memPerProc[p], b.memPerProc[p], int(p));
}

} // namespace splash::testing

#endif // SPLASH2_TESTS_RT_RUN_COMPARE_H
