/**
 * @file
 * Working-set sweep driver shared by the Figure-3 and Table-2 benches
 * and splash2run's --sweep mode: run one application through the
 * multi-configuration cache sweep (sim/sweep.h) and produce its exact
 * counters, the reuse-distance analytical model (sim/reusedist.h), or
 * both, from one pass of the run pipeline (harness/experiment.h
 * runPass) -- live execution or trace replay from disk.  The model is
 * the sweep's fully associative column, so every mode runs the same
 * sweep; `--sweep model` merely lists that one column.  A replayed
 * sweep reads its trace store and writes nothing back to it.
 */
#ifndef SPLASH2_HARNESS_WORKINGSET_H
#define SPLASH2_HARNESS_WORKINGSET_H

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
     *  associative under Model; a query for a column not simulated is
     *  fatal).  The sweep itself, set arrays and stacks, is freed when
     *  the run ends. */
    sim::SweepResult exact;
    /** The analytical profile (sweep mode != Exact; empty otherwise). */
    sim::ReuseDistProfile model;
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
    const bool needModel = simOpts.sweep != sim::SweepMode::Exact;
    // Model mode simulates only the column the model reads.
    sim::SweepConfig cols = sc;
    if (simOpts.sweep == sim::SweepMode::Model)
        cols.assocs = {sim::kFullyAssoc};

    // Replicas::On with several CPUs: the sweep splits into at most
    // one shard per processor, and fanOut gives the shards and the race
    // checker a thread each.
    const int nshards = simOpts.replicas == Replicas::On
                            ? std::min(replicaThreads(), nprocs)
                            : 1;
    std::vector<std::unique_ptr<sim::CacheSweep>> shards;
    for (int k = 0; k < nshards; ++k)
        shards.push_back(std::make_unique<sim::CacheSweep>(cols, k, nshards));
    std::unique_ptr<sim::RaceChecker> race;
    if (simOpts.race != sim::RaceGranularity::Off)
        race = std::make_unique<sim::RaceChecker>(
            raceConfigFor(simOpts.race, nprocs, sc.lineSize));
    std::unique_ptr<sim::BroadcastReplay> cast;  // destroyed first
    WorkingSetRun out;
    out.stats = runPass(
        app, nprocs, cfg, simOpts, [&](const sim::HomeResolver*) {
            std::vector<sim::RefSink*> sinks;
            for (auto& shard : shards)
                sinks.push_back(shard.get());
            if (race)
                sinks.push_back(race.get());
            return fanOut(std::move(sinks), simOpts.replicas, &cast);
        });
    cast.reset();
    noteRace(&out.stats, race.get());
    // Keep the counters, free the set arrays and stacks (about 17 MB
    // of set arrays per program at 32 processors) before the next run.
    for (auto& shard : shards) {
        out.exact += shard->result();
        if (needModel)
            out.model += shard->profile();
        shard.reset();
    }
    return out;
}

} // namespace splash::harness

#endif // SPLASH2_HARNESS_WORKINGSET_H
