/**
 * @file
 * Working-set sweep driver shared by the Figure-3 and Table-2 benches
 * and splash2run's --sweep mode: run one application through the
 * multi-configuration cache sweep (sim/sweep.h) and produce its exact
 * counters, the reuse-distance analytical model (sim/reusedist.h), or
 * both, under both sources of the run pipeline (harness/experiment.h
 * runPass) -- live execution and trace replay from disk -- or (for
 * the model) from a recorded ".rdp" profile sidecar with no execution
 * or replay at all.  The model is the sweep's fully associative
 * column, so every mode runs the same sweep; `--sweep model` merely
 * lists that one column.
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
#include "sim/sweep.h"

namespace splash::harness {

/** Results of one working-set sweep of one application. */
struct WorkingSetRun
{
    RunStats stats;
    /** The sweep's counters over the columns it simulated (only fully
     *  associative under Model; empty when the model came from a
     *  sidecar, and a query for a column not simulated is fatal).
     *  The sweep itself, set arrays and stacks, is freed when the run
     *  ends. */
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
 *  verdict when --race is on.  @p sc.nprocs must equal @p nprocs, and
 *  under Both @p sc must list kFullyAssoc, the column the model
 *  reads. */
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
    // Model mode simulates only the column the model reads.
    sim::SweepConfig cols = sc;
    if (!needExact)
        cols.assocs = {sim::kFullyAssoc};
    const bool profileLive = needModel && !out.haveModel;

    // Replicas::On with several CPUs: the sweep splits into at most
    // one shard per processor, and the shards and the race checker
    // replay one broadcast, each on its own thread.
    const int threads =
        simOpts.replicas == Replicas::On ? replicaThreads() : 1;
    const int nshards = std::min(threads, nprocs);
    std::vector<std::unique_ptr<sim::CacheSweep>> shards;
    for (int k = 0; k < nshards; ++k)
        shards.push_back(std::make_unique<sim::CacheSweep>(cols, k, nshards));
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
            if (race)
                sinks.push_back(race.get());
            if (threads == 1)
                return sinks;
            cast = std::make_unique<sim::BroadcastReplay>(std::move(sinks));
            return std::vector<sim::RefSink*>{cast.get()};
        });
    cast.reset();
    noteRace(&out.stats, race.get());
    // Keep the counters, free the set arrays and stacks (about 17 MB
    // of set arrays per program at 32 processors) before the next run.
    for (auto& shard : shards) {
        out.exact += shard->result();
        if (profileLive)
            out.model += shard->profile();
        shard.reset();
    }

    if (profileLive) {
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
