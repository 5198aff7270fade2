/**
 * @file
 * Working-set sweep driver shared by the Figure-3 benches and
 * splash2run's --sweep mode: run one application and produce the
 * exact multi-configuration cache sweep (sim/sweep.h), the
 * reuse-distance analytical model (sim/reusedist.h), or both, under
 * both sources of the run pipeline (harness/experiment.h runPass) --
 * live execution and trace replay from disk -- or (for the model)
 * from a recorded ".rdp" profile sidecar with no execution or replay
 * at all.
 *
 * Sidecar life cycle mirrors the trace store's record-once rule: a
 * live or replayed model pass saves its profile next to the trace
 * (--record store, or best effort into the --replay store) unless one
 * already exists; a later `--sweep model --replay STORE` run loads it
 * and evaluates the predicted curves in microseconds.
 */
#ifndef SPLASH2_HARNESS_WORKINGSET_H
#define SPLASH2_HARNESS_WORKINGSET_H

#include <sys/stat.h>

#include <memory>
#include <vector>

#include "harness/experiment.h"
#include "sim/reusedist.h"

namespace splash::harness {

/** Results of one working-set sweep of one application. */
struct WorkingSetRun
{
    RunStats stats;
    /** The exact engine's counters (sweep mode != Model; otherwise
     *  empty, and a miss query is fatal).  The sweep itself, tag
     *  arrays and stacks, is freed when the run ends. */
    sim::SweepResult exact;
    /** The analytical profile (sweep mode != Exact). */
    sim::ReuseDistProfile model;
    bool haveModel = false;
    /** The model came straight from a saved sidecar: neither fiber
     *  execution nor trace replay happened. */
    bool modelFromProfile = false;
};

/** Miss rate of @p run at one Figure-3 operating point from the
 *  requested engine (@p useModel selects the analytical curve). */
inline double
wsMissRate(const WorkingSetRun& run, std::uint64_t size, int assoc,
           bool useModel)
{
    return useModel ? run.model.missRate(size, assoc)
                    : run.exact.missRate(size, assoc);
}

/** Run @p app once and produce the sweep(s) requested by
 *  @p simOpts.sweep over @p sc's operating points, plus the race
 *  verdict when --race is on.  @p sc.nprocs must equal @p nprocs. */
inline WorkingSetRun
runWorkingSets(App& app, int nprocs, const sim::SweepConfig& sc,
               const AppConfig& cfg, const SimOpts& simOpts = {})
{
    ensure(sc.nprocs == nprocs,
           "sweep config and run disagree on the processor count");
    const bool needExact = simOpts.sweep != sim::SweepMode::Model;
    const bool needModel = simOpts.sweep != sim::SweepMode::Exact;
    const bool raceOn = simOpts.race != sim::RaceGranularity::Off;
    const sim::TraceMeta meta = traceMetaFor(app, nprocs, cfg, simOpts);

    WorkingSetRun out;
    // Fastest path: a model-bearing sweep with a saved sidecar in the
    // replay store skips straight to post-processing -- unless the
    // race detector needs the stream itself.
    if (needModel && !raceOn && !simOpts.replay.empty()) {
        std::string err;
        sim::ReuseDistProfile pr;
        if (sim::ReuseDistProfile::load(
                sim::profilePathFor(simOpts.replay, meta), meta,
                sc.lineSize, &pr, &err) &&
            pr.nprocs == sc.nprocs) {
            out.model = std::move(pr);
            out.haveModel = true;
            out.modelFromProfile = true;
            if (!needExact) {
                out.stats = statsFromProfile(out.model.exec);
                return out;
            }
        }
    }
    const bool profileLive = needModel && !out.haveModel;
    // Under --sweep both the exact sweep's Mattson stacks fill the
    // profile; a profiler of its own runs only for --sweep model.
    const bool profilerLive = profileLive && !needExact;

    // Replicas::On with several CPUs: the exact sweep splits into at
    // most one shard per processor, and the shards, the profiler and
    // the race checker replay one broadcast, each on its own thread.
    const int threads =
        simOpts.replicas == Replicas::On ? replicaThreads() : 1;
    const int nshards = needExact ? std::min(threads, nprocs) : 0;
    // Each shard fills its own processors' rows of its own profile.
    std::vector<sim::ReuseDistProfile> rows(nshards);
    std::vector<std::unique_ptr<sim::CacheSweep>> shards;
    for (int k = 0; k < nshards; ++k)
        shards.push_back(std::make_unique<sim::CacheSweep>(
            sc, profileLive ? &rows[k] : nullptr, k, nshards));
    std::unique_ptr<sim::ReuseDistProfiler> prof;
    if (profilerLive)
        prof = std::make_unique<sim::ReuseDistProfiler>(sc.nprocs,
                                                        sc.lineSize);
    std::unique_ptr<sim::RaceChecker> race;
    if (raceOn)
        race = std::make_unique<sim::RaceChecker>(
            raceConfigFor(simOpts.race, nprocs, sc.lineSize));
    std::unique_ptr<sim::BroadcastReplay> cast;  // destroyed first
    out.stats = runPass(
        app, nprocs, cfg, simOpts, [&](const sim::HomeResolver*) {
            std::vector<sim::RefSink*> sinks;
            for (auto& shard : shards)
                sinks.push_back(shard.get());
            if (prof)
                sinks.push_back(prof.get());
            if (race)
                sinks.push_back(race.get());
            if (threads == 1)
                return sinks;
            cast = std::make_unique<sim::BroadcastReplay>(std::move(sinks));
            return std::vector<sim::RefSink*>{cast.get()};
        });
    cast.reset();
    noteRace(&out.stats, race.get());
    // Keep the counters, free the tag arrays and stacks (about 50 MB
    // per program at 32 processors) before the next run.  Each
    // processor's profile row comes from the shard that owns it.
    if (nshards > 0 && profileLive)
        out.model = sim::ReuseDistProfile(sc.nprocs, sc.lineSize);
    for (int k = 0; k < nshards; ++k) {
        const sim::CacheSweep& shard = *shards[k];
        out.exact += shard.result();
        for (int p = shard.firstProc(); profileLive && p < shard.endProc();
             ++p)
            out.model.procs[p] = std::move(rows[k].procs[p]);
        shards[k].reset();
    }

    if (profileLive) {
        if (profilerLive)
            out.model = prof->profile();
        out.model.exec = execProfileFrom(
            out.stats.perProc, out.stats.elapsed, out.stats.valid);
        out.haveModel = true;
        // Save the sidecar next to the trace (record once): into the
        // --record store, or -- best effort -- back into the --replay
        // store so later model sweeps skip the replay too.
        const std::string& store =
            !simOpts.record.empty() ? simOpts.record : simOpts.replay;
        if (!store.empty()) {
            const std::string path =
                sim::profilePathFor(store, meta);
            struct stat st{};
            if (::stat(path.c_str(), &st) != 0) {
                std::string err;
                if (!out.model.save(path, meta, &err) &&
                    !simOpts.record.empty())
                    fatal(err);
            }
        }
    }
    return out;
}

} // namespace splash::harness

#endif // SPLASH2_HARNESS_WORKINGSET_H
