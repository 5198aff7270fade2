/**
 * @file
 * The run pipeline shared by splash2run and the characterization
 * benches.  One pass feeds a program's reference stream from its
 * source -- live execution in an rt::Env, or a --replay trace -- into
 * a sink set, the simulators that consume the stream (runPass).  The
 * drivers below (and runWorkingSets, harness/workingset.h) only build
 * sink sets and read their statistics: every result comes from one
 * pass of its program, whatever --replicas says.
 */
#ifndef SPLASH2_HARNESS_EXPERIMENT_H
#define SPLASH2_HARNESS_EXPERIMENT_H

#include <algorithm>
#include <cmath>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "base/log.h"
#include "harness/app.h"
#include "harness/runner.h"
#include "rt/env.h"
#include "sim/memsys.h"
#include "sim/racecheck.h"
#include "sim/replay.h"
#include "sim/reusedist.h"
#include "sim/sweep.h"
#include "sim/tracestore.h"

namespace splash::harness {

/** Results of one instrumented execution. */
struct RunStats
{
    rt::ProcStats exec;            ///< aggregate execution counters
    std::vector<rt::ProcStats> perProc;
    sim::MemStats mem;             ///< aggregate memory-system counters
    std::vector<sim::MemStats> memPerProc;
    Tick elapsed = 0;              ///< PRAM time of the measured window
    bool valid = true;
    /** Race-detection verdict (SimOpts::race != Off only). */
    bool raceChecked = false;
    sim::RaceOutcome race;
};

/** How many host threads one job's simulators use (--replicas);
 *  never how many passes it makes.  Every job makes one pass of its
 *  program into one sink set, and results are byte-identical either
 *  way.
 *
 *  - Off: one host thread feeds every sink directly, and the
 *    working-set sweep is one whole sweep.  The serial differential
 *    oracle.
 *  - On: with more than one usable CPU, a pass into more than one
 *    sink gives each sink a consumer thread on a BroadcastReplay
 *    (fanOut), and a working-set run splits its sweep into
 *    processor-range shards, one per thread.  On one CPU it runs as
 *    Off does. */
enum class Replicas : std::uint8_t { Off, On };

inline bool
parseReplicas(const std::string& s, Replicas* out)
{
    if (s == "off") *out = Replicas::Off;
    else if (s == "on") *out = Replicas::On;
    else return false;
    return true;
}

/** Host threads Replicas::On spreads one job's simulators over: the
 *  CPUs the process may use, at most 16. */
inline int
replicaThreads()
{
    return std::min(usableCpus(), 16);
}

/** The sinks a pass hands its source: @p sinks themselves, or --
 *  under Replicas::On with more than one usable CPU and more than one
 *  sink -- one threaded BroadcastReplay over them, kept in @p cast
 *  (declared after the sinks it feeds, so it is destroyed first).
 *  The one place --replicas chooses host threads. */
inline std::vector<sim::RefSink*>
fanOut(std::vector<sim::RefSink*> sinks, Replicas replicas,
       std::unique_ptr<sim::BroadcastReplay>* cast)
{
    if (replicas == Replicas::Off || sinks.size() < 2 ||
        replicaThreads() < 2)
        return sinks;
    *cast = std::make_unique<sim::BroadcastReplay>(std::move(sinks));
    return {cast->get()};
}

/** Run-wide simulation knobs shared by the pipeline below.  The
 *  quantum and --replicas change simulation speed, never results;
 *  `protocol` and `interconnect` select the machine being measured. */
struct SimOpts
{
    std::uint64_t quantum = 250;
    /** Coherence protocol for memory-system runs (--protocol). */
    sim::ProtocolKind protocol = sim::ProtocolKind::MESI;
    /** Interconnect organization for memory-system runs
     *  (--interconnect): the paper's point-to-point directory machine
     *  or a snoopy broadcast bus (sim/bus.h).  Like `protocol`, this
     *  selects the machine being measured. */
    sim::Interconnect interconnect = sim::Interconnect::Directory;
    /** Working-set sweep engine (--sweep): the exact Mattson +
     *  tag-array simulation, the reuse-distance analytical model, or
     *  both side by side (sim/reusedist.h). */
    sim::SweepMode sweep = sim::SweepMode::Exact;
    /** Host threads for one job's simulators (--replicas). */
    Replicas replicas = Replicas::On;
    /** Coherence invariant checker: run the full sweep every N
     *  slow-path transactions (0 = off).  Observation only -- results
     *  are identical with any value; violations abort. */
    std::uint64_t checkPeriod = 0;
    /** Happens-before race detection over the reference stream
     *  (--race).  Observation only: every characterization statistic
     *  is byte-identical with any value.  Word granularity verifies
     *  the suite's synchronization; Line quantifies false sharing. */
    sim::RaceGranularity race = sim::RaceGranularity::Off;
    /** Trace-store directory (or single .s2t file) to record this
     *  run's reference stream into (--record; empty = off).  Records
     *  ride alongside the live sinks, so recording never changes
     *  results; an already-recorded (app, P, problem, quantum) is
     *  skipped (record once). */
    std::string record;
    /** Trace-store directory (or single .s2t file) to replay from
     *  (--replay; empty = off).  The application never executes:
     *  every sink is fed the recorded stream, and execution counters
     *  come from the trace footer -- statistics are byte-identical to
     *  a live run. */
    std::string replay;
};

/** RaceChecker for one operating point: Word granules are fixed at 4
 *  bytes; Line granules follow the experiment's line size. */
inline sim::RaceConfig
raceConfigFor(sim::RaceGranularity gran, int nprocs, int lineSize)
{
    sim::RaceConfig rc;
    rc.gran = gran;
    rc.nprocs = nprocs;
    rc.lineSize = lineSize;
    return rc;
}

// ----------------------------------------------------------------------
// Trace-store glue (sim/tracestore.h): identity of a recording and the
// execution-profile <-> ProcStats conversions.

/** Identity a trace is recorded under: everything the reference
 *  stream of (app, P) depends on.  The quantum is pinned because
 *  batched delivery drains at quantum boundaries, making the stream
 *  *order* (not its statistics) quantum-dependent. */
inline sim::TraceMeta
traceMetaFor(const App& app, int nprocs, const AppConfig& cfg,
             const SimOpts& simOpts)
{
    sim::TraceMeta m;
    m.app = app.name();
    m.nprocs = nprocs;
    m.scale = cfg.scale;
    m.n = cfg.n;
    m.iters = cfg.iters;
    m.aux = cfg.aux;
    m.seed = cfg.seed;
    m.quantum = simOpts.quantum;
    return m;
}

/** Pack per-processor execution counters into the footer image. */
inline sim::ExecProfile
execProfileFrom(const std::vector<rt::ProcStats>& perProc, Tick elapsed,
                bool valid)
{
    sim::ExecProfile e;
    e.valid = valid;
    e.elapsed = elapsed;
    for (const rt::ProcStats& s : perProc)
        e.procs.push_back({s.reads, s.writes, s.flops, s.work,
                           s.barriers, s.locks, s.pauses, s.barrierWait,
                           s.lockWait, s.pauseWait, s.startTime,
                           s.finishTime});
    return e;
}

/** Rebuild the execution half of a RunStats from a trace footer. */
inline RunStats
statsFromProfile(const sim::ExecProfile& e)
{
    RunStats r;
    r.valid = e.valid;
    r.elapsed = e.elapsed;
    for (const sim::ExecProfile::Row& row : e.procs) {
        rt::ProcStats s;
        s.reads = row[0];
        s.writes = row[1];
        s.flops = row[2];
        s.work = row[3];
        s.barriers = row[4];
        s.locks = row[5];
        s.pauses = row[6];
        s.barrierWait = row[7];
        s.lockWait = row[8];
        s.pauseWait = row[9];
        s.startTime = row[10];
        s.finishTime = row[11];
        r.perProc.push_back(s);
        r.exec += s;
    }
    return r;
}

/** Reject a problem size no program can build -- a non-finite or
 *  non-positive scale, or a negative n, iters or aux -- before
 *  anything runs. */
inline void
checkProblem(const AppConfig& cfg)
{
    if (!std::isfinite(cfg.scale) || cfg.scale <= 0)
        fatal("--scale must be a positive finite number (got " +
              std::to_string(cfg.scale) + ")");
    if (cfg.n < 0 || cfg.iters < 0 || cfg.aux < 0)
        fatal("--n, --iters and --aux must be >= 0 (got " +
              std::to_string(cfg.n) + ", " + std::to_string(cfg.iters) +
              ", " + std::to_string(cfg.aux) + ")");
}

/** One replayed stream fanned out to several sinks in order (the
 *  trace reader takes a single sink). */
class TeeRefSink final : public sim::RefSink
{
  public:
    explicit TeeRefSink(std::vector<sim::RefSink*> sinks)
        : sinks_(std::move(sinks))
    {
    }
    void
    access(const sim::AccessRec& r) override
    {
        for (sim::RefSink* s : sinks_)
            s->access(r);
    }
    void
    sync(const sim::SyncRec& r) override
    {
        for (sim::RefSink* s : sinks_)
            s->sync(r);
    }
    void
    place(const sim::PlaceRec& r) override
    {
        for (sim::RefSink* s : sinks_)
            s->place(r);
    }
    void
    resetStats() override
    {
        for (sim::RefSink* s : sinks_)
            s->resetStats();
    }
    void
    streamBarrier() override
    {
        for (sim::RefSink* s : sinks_)
            s->streamBarrier();
    }

  private:
    std::vector<sim::RefSink*> sinks_;
};

/** Builds a pass's sink set -- the simulators that consume its
 *  reference stream -- once the source's home resolver is known (the
 *  live heap, or the replayed trace's placement).  The builder owns
 *  the sinks; they must outlive the pass, and after it only their
 *  statistics may be read: the home resolver dies with the source. */
using SinkSetBuilder =
    std::function<std::vector<sim::RefSink*>(const sim::HomeResolver*)>;

/** The run pipeline: one pass of @p app's reference stream from its
 *  source into the sink set @p build returns.  The source is live
 *  execution in an rt::Env, or -- with --replay -- the recorded trace,
 *  in which case nothing executes and the execution counters come
 *  from the trace footer.  A live pass is recorded when --record is
 *  set.  Every sink is quiesced (streamBarrier) before this returns
 *  the execution half of the RunStats. */
inline RunStats
runPass(App& app, int nprocs, const AppConfig& cfg, const SimOpts& so,
        const SinkSetBuilder& build)
{
    checkProblem(cfg);
    const sim::TraceMeta meta = traceMetaFor(app, nprocs, cfg, so);
    std::string err;
    if (!so.replay.empty()) {
        auto rd = sim::tracestore::openFor(so.replay, meta, &err);
        if (rd == nullptr)
            fatal(err);
        const std::vector<sim::RefSink*> sinks = build(rd->placement());
        if (!sinks.empty()) {
            TeeRefSink tee(sinks);
            if (!rd->replay(sinks.size() == 1 ? sinks[0] : &tee, &err))
                fatal(err);
            tee.streamBarrier();
        }
        return statsFromProfile(rd->exec());
    }
    rt::Env env({rt::Mode::Sim, nprocs, so.quantum});
    const std::vector<sim::RefSink*> sinks = build(&env.heap());
    for (sim::RefSink* s : sinks)
        env.attachSink(s);
    // Record once: skip an identity the store already holds.
    std::unique_ptr<sim::TraceWriter> rec;
    if (!so.record.empty() && !sim::tracestore::haveTrace(so.record, meta)) {
        rec = std::make_unique<sim::TraceWriter>(
            sim::tracestore::pathFor(so.record, meta), meta);
        env.attachSink(rec.get());
    }
    RunStats out;
    out.valid = app.run(env, cfg).valid;
    for (sim::RefSink* s : sinks)
        s->streamBarrier();
    for (int p = 0; p < nprocs; ++p) {
        out.perProc.push_back(env.stats(p));
        out.exec += env.stats(p);
    }
    out.elapsed = env.elapsed();
    if (rec && !rec->finalize(
                   execProfileFrom(out.perProc, out.elapsed, out.valid),
                   &err))
        fatal(err);
    return out;
}

/** Attach @p race's verdict to @p r (no-op when null). */
inline void
noteRace(RunStats* r, const sim::RaceChecker* race)
{
    if (race == nullptr)
        return;
    r->raceChecked = true;
    r->race = race->outcome();
}

/** Run @p app on @p nprocs with no memory system attached (PRAM-only;
 *  Figures 1 and 2, Table 1).  An optional pre-built RaceChecker can
 *  be attached (the injection harness arms drops on it beforehand);
 *  otherwise SimOpts::race != Off attaches an internal one. */
inline RunStats
runPram(App& app, int nprocs, const AppConfig& cfg,
        const SimOpts& sim = {}, sim::RaceChecker* race = nullptr)
{
    std::unique_ptr<sim::RaceChecker> owned;
    if (race == nullptr && sim.race != sim::RaceGranularity::Off) {
        owned = std::make_unique<sim::RaceChecker>(
            raceConfigFor(sim.race, nprocs, 64));
        race = owned.get();
    }
    RunStats out = runPass(app, nprocs, cfg, sim,
                           [&](const sim::HomeResolver*) {
                               std::vector<sim::RefSink*> s;
                               if (race != nullptr)
                                   s.push_back(race);
                               return s;
                           });
    noteRace(&out, race);
    return out;
}

/** One memory-system operating point of a multi-configuration
 *  characterization. */
struct MemExperiment
{
    sim::CacheConfig cache;
    bool hints = true;   ///< replacement hints (protocol ablation)
    bool placed = true;  ///< placement-aware homes vs pure interleave
    /** Coherence protocol of this replica; benches forward the
     *  --protocol flag here (one broadcast replay can feed replicas
     *  running different protocols side by side). */
    sim::ProtocolKind protocol = sim::ProtocolKind::MESI;
    /** Interconnect of this replica; one broadcast replay can feed a
     *  directory replica and a bus replica from the same execution
     *  (results/interconnect.csv is produced exactly that way). */
    sim::Interconnect interconnect = sim::Interconnect::Directory;
};

/** The single operating point the run-wide flags select: @p cache
 *  under SimOpts' protocol and interconnect. */
inline MemExperiment
experimentFor(const sim::CacheConfig& cache, const SimOpts& so)
{
    MemExperiment e;
    e.cache = cache;
    e.protocol = so.protocol;
    e.interconnect = so.interconnect;
    return e;
}

/** The simulated machine of experiment @p e on @p nprocs. */
inline sim::MachineConfig
machineFor(const MemExperiment& e, int nprocs)
{
    sim::MachineConfig mc;
    mc.nprocs = nprocs;
    mc.cache = e.cache;
    mc.replacementHints = e.hints;
    mc.protocol = e.protocol;
    mc.interconnect = e.interconnect;
    return mc;
}

/** @p r with its memory-system half read from @p mem. */
inline RunStats
withMem(RunStats r, const sim::MemSystem& mem)
{
    for (int p = 0; p < mem.config().nprocs; ++p)
        r.memPerProc.push_back(mem.procStats(p));
    r.mem = mem.total();
    return r;
}

/** Experiment @p e's MemSystem on @p nprocs under the run's checker
 *  period; a placed experiment resolves homes through @p homes. */
inline std::unique_ptr<sim::MemSystem>
memSystemFor(const MemExperiment& e, int nprocs,
             const sim::HomeResolver* homes, const SimOpts& simOpts)
{
    auto mem = std::make_unique<sim::MemSystem>(machineFor(e, nprocs),
                                                e.placed ? homes : nullptr);
    mem->setCheckPeriod(simOpts.checkPeriod);
    return mem;
}

/** Characterize @p app on @p nprocs under every configuration in
 *  @p exps from ONE pass.  The PRAM reference stream of a given
 *  (app, P) does not depend on the memory system, so the pass feeds
 *  one MemSystem per experiment and, with race detection on, one
 *  RaceChecker per granule size -- Word granules are line-size
 *  independent, so one serves every experiment; Line granules need
 *  one per line size.  Statistics equal those of a dedicated pass per
 *  experiment (tests/sim/replay_test.cc). */
inline std::vector<RunStats>
runCharacterizations(App& app, int nprocs,
                     const std::vector<MemExperiment>& exps,
                     const AppConfig& cfg, const SimOpts& simOpts = {})
{
    const bool raceOn = simOpts.race != sim::RaceGranularity::Off;
    auto granule = [&](const MemExperiment& e) {
        return simOpts.race == sim::RaceGranularity::Word
                   ? 4
                   : e.cache.lineSize;
    };
    std::vector<std::unique_ptr<sim::MemSystem>> mems;
    std::map<int, std::unique_ptr<sim::RaceChecker>> races;
    std::unique_ptr<sim::BroadcastReplay> cast;  // destroyed first
    const RunStats base = runPass(
        app, nprocs, cfg, simOpts, [&](const sim::HomeResolver* homes) {
            std::vector<sim::RefSink*> sinks;
            for (const MemExperiment& e : exps) {
                mems.push_back(memSystemFor(e, nprocs, homes, simOpts));
                sinks.push_back(mems.back().get());
            }
            for (std::size_t i = 0; raceOn && i < exps.size(); ++i) {
                auto& race = races[granule(exps[i])];
                if (race == nullptr) {
                    race = std::make_unique<sim::RaceChecker>(raceConfigFor(
                        simOpts.race, nprocs, exps[i].cache.lineSize));
                    sinks.push_back(race.get());
                }
            }
            return fanOut(std::move(sinks), simOpts.replicas, &cast);
        });
    std::vector<RunStats> out;
    for (std::size_t i = 0; i < exps.size(); ++i) {
        RunStats r = withMem(base, *mems[i]);
        if (raceOn)
            noteRace(&r, races.at(granule(exps[i])).get());
        out.push_back(std::move(r));
    }
    return out;
}

/** Denominator for traffic ratios: FLOPS for floating-point codes,
 *  instructions for integer codes (paper Section 6). */
inline double
trafficDenominator(const App& app, const rt::ProcStats& exec)
{
    return app.isFloatingPoint() ? double(exec.flops)
                                 : double(exec.instructions());
}

} // namespace splash::harness

#endif // SPLASH2_HARNESS_EXPERIMENT_H
