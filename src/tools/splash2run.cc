/**
 * @file
 * splash2run -- run any SPLASH-2 program under any machine
 * configuration and print the full characterization: execution
 * profile, per-processor balance, miss decomposition, and traffic
 * breakdown. The general-purpose driver behind the per-figure benches.
 *
 * Usage:
 *   splash2run --app fft [--procs 32] [--scale 1.0] [--n 0]
 *              [--iters 0] [--aux 0] [--cachekb 1024] [--assoc 4]
 *              [--line 64] [--nohints] [--nomem] [--seed 1234]
 *              [--protocol msi|mesi|moesi|dragon]
 *              [--interconnect directory|bus]
 *              [--quantum 250] [--jobs N] [--replicas off|on]
 *              [--race off|word|line] [--csv FILE]
 *              [--sweep exact|model|both]
 *              [--record DIR | --replay DIR]
 *
 *   splash2run --app all       # whole suite, one job per program
 *   splash2run --list          # enumerate programs
 *   splash2run --app fft --inject all [--seed N]
 *                              # fault-injection harness: seed protocol
 *                              # corruptions, prove the checker fires
 *   splash2run --app fft --race-inject all [--seed N]
 *                              # race-injection harness: drop one sync
 *                              # edge, prove the race detector fires
 *
 * --record writes each executed (app, P, problem, quantum) reference
 * stream into a compact trace store (sim/tracestore.h) alongside the
 * live characterization; --replay re-runs any later characterization
 * of the same identity from that store with zero fiber execution,
 * byte-identical output (an already-recorded identity is skipped, so
 * recording is idempotent).
 *
 * --race runs the FastTrack happens-before detector over each
 * program's pass, one checker per program whose line granules follow
 * --line; only this binary reads it.  Word granularity is the
 * verification mode: any report is a true data race and the exit
 * status is 1 (CI runs the whole suite this way).  Line granularity
 * is the false-sharing census of the paper's Figs. 8-9 discussion:
 * conflicts are informational (exit 0) and --csv writes the per-app
 * census rows (results/races.csv).  Either way the characterization
 * statistics are byte-identical to --race off.
 *
 * --protocol selects the coherence protocol of the simulated machine;
 * --protocol list prints the registered zoo.  --interconnect selects
 * the interconnect organization: the default directory CC-NUMA
 * machine, or a snoopy bus where misses broadcast and every cache
 * answers from its tag array (same protocol descriptors, no sharer
 * vectors, bus occupancy accounted instead of packet bytes); this is
 * the only binary that reads it.  Those two change results: they
 * change the machine.  --quantum sets the instrumentation events per
 * scheduling slice, and with it the interleaving and the statistics
 * (every committed result uses 250).  --jobs schedules independent
 * programs across host cores; --replicas off keeps each program on
 * one host thread.  Each program runs once whatever those two say,
 * and they change simulation speed only -- output bytes are
 * bit-identical across job counts and replica modes, and a --sweep
 * replayed from a store prints what the live sweep printed.
 */
#include <algorithm>
#include <cstdio>
#include <cstring>
#include <memory>
#include <utility>
#include <vector>

#include "harness/cli.h"
#include "harness/runner.h"
#include "harness/workingset.h"
#include "sim/check.h"
#include "sim/faultinject.h"
#include "sim/grid.h"
#include "sim/racecheck.h"

using namespace splash;
using namespace splash::harness;

namespace {

void
report(const App& app, const RunStats& r, bool with_mem,
       const sim::CacheConfig& cache, bool hints, int procs,
       const AppConfig& cfg, const SimOpts& simOpts)
{
    std::printf("%s on %d processors (scale %.3g)\n",
                app.name().c_str(), procs, cfg.scale);
    if (with_mem && simOpts.interconnect == sim::Interconnect::Bus)
        std::printf("machine: %llu KB %d-way %dB-line caches, "
                    "snoopy bus %s\n",
                    static_cast<unsigned long long>(cache.size >> 10),
                    cache.assoc, cache.lineSize,
                    sim::protocol(simOpts.protocol).display);
    else if (with_mem)
        std::printf("machine: %llu KB %d-way %dB-line caches, "
                    "directory %s%s\n",
                    static_cast<unsigned long long>(cache.size >> 10),
                    cache.assoc, cache.lineSize,
                    sim::protocol(simOpts.protocol).display,
                    hints ? " + replacement hints" : "");
    else
        std::printf("machine: PRAM (perfect memory)\n");
    std::printf("interleaver: fiber backend, quantum %llu, batched "
                "delivery\n",
                static_cast<unsigned long long>(simOpts.quantum));

    std::printf("\n-- execution --\n");
    std::printf("valid: %s\n", r.valid ? "yes" : "NO");
    std::printf("PRAM cycles: %llu\n",
                static_cast<unsigned long long>(r.elapsed));
    std::printf("instructions: %.3f M (%.3f M flops)\n",
                r.exec.instructions() / 1e6, r.exec.flops / 1e6);
    std::printf("shared reads/writes: %.3f M / %.3f M\n",
                r.exec.reads / 1e6, r.exec.writes / 1e6);
    std::printf("sync: %llu barriers/proc, %llu locks, %llu pauses\n",
                static_cast<unsigned long long>(
                    r.perProc.empty() ? 0 : r.perProc[0].barriers),
                static_cast<unsigned long long>([&] {
                    std::uint64_t t = 0;
                    for (auto& p : r.perProc)
                        t += p.locks;
                    return t;
                }()),
                static_cast<unsigned long long>([&] {
                    std::uint64_t t = 0;
                    for (auto& p : r.perProc)
                        t += p.pauses;
                    return t;
                }()));

    // Load balance.
    Tick max_t = 0, min_t = ~Tick{0};
    double sync_pct = 0;
    for (const auto& p : r.perProc) {
        max_t = std::max(max_t, p.elapsed());
        min_t = std::min(min_t, p.elapsed());
        sync_pct += p.elapsed()
                        ? 100.0 * double(p.syncWait()) /
                              double(p.elapsed())
                        : 0.0;
    }
    std::printf("balance: min/max processor time %.3f, avg sync %.1f%%\n",
                max_t ? double(min_t) / double(max_t) : 0.0,
                sync_pct / procs);

    if (with_mem) {
        std::printf("\n-- memory system --\n");
        std::printf("references: %.3f M, miss rate %.3f%%\n",
                    r.mem.accesses() / 1e6, 100.0 * r.mem.missRate());
        auto pct = [&](std::uint64_t m) {
            return r.mem.totalMisses()
                       ? 100.0 * double(m) / double(r.mem.totalMisses())
                       : 0.0;
        };
        std::printf(
            "misses: %.1f%% cold, %.1f%% capacity, %.1f%% true-share, "
            "%.1f%% false-share (+%llu upgrades)\n",
            pct(r.mem.misses[int(sim::MissType::Cold)]),
            pct(r.mem.misses[int(sim::MissType::Capacity)]),
            pct(r.mem.misses[int(sim::MissType::TrueSharing)]),
            pct(r.mem.misses[int(sim::MissType::FalseSharing)]),
            static_cast<unsigned long long>(r.mem.upgrades));
        double den = trafficDenominator(app, r.exec);
        if (den <= 0)
            den = 1;
        if (simOpts.interconnect == sim::Interconnect::Bus)
            // Broadcast transactions have no packet decomposition;
            // occupancy of the shared wires is the traffic metric.
            std::printf("bus occupancy (cycles per %s): %.4f "
                        "(address %.4f, data %.4f; %llu "
                        "transactions)\n",
                        app.isFloatingPoint() ? "FLOP" : "instr",
                        r.mem.busCycles() / den,
                        r.mem.busAddrCycles / den,
                        r.mem.busDataCycles / den,
                        static_cast<unsigned long long>(
                            r.mem.busTransactions));
        else
            std::printf("traffic (bytes per %s): remote data %.4f "
                        "(shared %.4f, cold %.4f, capacity %.4f, "
                        "writeback %.4f), overhead %.4f, local %.4f\n",
                        app.isFloatingPoint() ? "FLOP" : "instr",
                        r.mem.remoteData() / den,
                        r.mem.remoteSharedData / den,
                        r.mem.remoteColdData / den,
                        r.mem.remoteCapacityData / den,
                        r.mem.remoteWriteback / den,
                        r.mem.remoteOverhead / den,
                        r.mem.localData / den);
        std::printf("true-sharing (inherent communication) proxy: "
                    "%.4f bytes per %s\n",
                    r.mem.trueSharedData / den,
                    app.isFloatingPoint() ? "FLOP" : "instr");
    }
}

/** One --csv row per app: the race/false-sharing census behind
 *  results/races.csv (EXPERIMENTS.md). */
void
raceCsvRow(std::FILE* f, const App& app, int procs,
           const sim::RaceOutcome& o)
{
    std::fprintf(
        f,
        "%s,%d,%s,%d,%llu,%llu,%llu,%llu,%llu,%llu,%llu,%llu,%llu,"
        "%llu\n",
        app.name().c_str(), procs, sim::raceGranularityName(o.gran),
        o.granuleBytes, static_cast<unsigned long long>(o.races),
        static_cast<unsigned long long>(o.racyGranules),
        static_cast<unsigned long long>(o.dynamicRaces),
        static_cast<unsigned long long>(o.granulesTracked),
        static_cast<unsigned long long>(o.census.barrierArrivals),
        static_cast<unsigned long long>(o.census.barrierDepartures),
        static_cast<unsigned long long>(o.census.lockAcquires),
        static_cast<unsigned long long>(o.census.lockReleases),
        static_cast<unsigned long long>(o.census.flagSets),
        static_cast<unsigned long long>(o.census.flagWaits));
}

/** One --sweep report: the Figure-3 working-set curves of @p app from
 *  the engine(s) selected by --sweep.  In Both mode each row also
 *  carries the largest model-vs-exact absolute error across the row's
 *  operating points. */
void
reportSweep(const App& app, const WorkingSetRun& run,
            sim::SweepMode mode, int procs, int line,
            const AppConfig& cfg)
{
    const bool both = mode == sim::SweepMode::Both;
    const bool model = mode == sim::SweepMode::Model;
    std::printf("%s on %d processors (scale %.3g)\n",
                app.name().c_str(), procs, cfg.scale);
    std::printf("working-set sweep: %s engine, %d B lines\n",
                sim::sweepModeName(mode), line);
    if (mode != sim::SweepMode::Exact)
        std::printf("profile: %.3f M line references, %.2f%% of "
                    "all-capacity misses coherence-invalidated\n",
                    run.model.accesses() / 1e6,
                    100.0 * run.model.staleFraction());
    std::printf("\nmiss rate (%%) vs cache size and associativity%s\n",
                both ? " (exact; max |exact-model| per row)" : "");
    std::vector<std::string> cols = {"Size", "1-way", "2-way", "4-way",
                                     "full"};
    if (both)
        cols.push_back("max|err|");
    Table t(std::move(cols));
    for (std::uint64_t size : sim::fig3Sizes()) {
        std::string label = size >= (1u << 20)
                                ? std::to_string(size >> 20) + "MB"
                                : std::to_string(size >> 10) + "KB";
        std::vector<std::string> row = {label};
        double maxErr = 0.0;
        for (int assoc : sim::fig3ReportAssocs()) {
            row.push_back(fmt(
                "%.3f", 100.0 * wsMissRate(run, size, assoc, model)));
            if (both) {
                double e = wsMissRate(run, size, assoc, false) -
                           wsMissRate(run, size, assoc, true);
                maxErr = std::max(maxErr, e < 0 ? -e : e);
            }
        }
        if (both)
            row.push_back(fmt("%.4f", maxErr));
        t.row(row);
    }
    t.print();
}

/** Race-injection harness (--race-inject): for each requested edge
 *  kind, run @p app under the word-granularity detector to prove the
 *  baseline is race-free and count the eligible acquire edges, then
 *  re-run with one seeded edge dropped and require the detector to
 *  report a race involving the processor whose edge was elided.
 *  Mirrors the --inject protocol-corruption harness.  Returns 0 when
 *  every eligible drop was detected and attributed. */
int
runRaceInjection(App& app, int procs, const AppConfig& cfg,
                 const SimOpts& simOpts, const std::string& which,
                 std::uint64_t seed)
{
    std::vector<sim::RaceFault> todo;
    if (which == "all") {
        for (int k = 0; k < sim::kNumRaceFaults; ++k)
            todo.push_back(static_cast<sim::RaceFault>(k));
    } else {
        sim::RaceFault k;
        if (!sim::parseRaceFault(which, &k)) {
            std::fprintf(stderr, "unknown --race-inject '%s' (all",
                         which.c_str());
            for (int i = 0; i < sim::kNumRaceFaults; ++i)
                std::fprintf(stderr, ", %s",
                             sim::raceFaultName(
                                 static_cast<sim::RaceFault>(i)));
            std::fprintf(stderr, ")\n");
            return 2;
        }
        todo.push_back(k);
    }

    std::printf("race injection: %s on %d processors, seed %llu\n\n",
                app.name().c_str(), procs,
                static_cast<unsigned long long>(seed));

    // Baseline run: must be race-free, and sizes the eligible-edge
    // occurrence space for every kind at once.
    sim::RaceConfig rcfg;
    rcfg.nprocs = procs;
    std::uint64_t edges[sim::kNumRaceFaults] = {};
    {
        sim::RaceChecker base(rcfg);
        RunStats r = runPram(app, procs, cfg, simOpts, &base);
        if (!r.valid) {
            std::fprintf(stderr, "%s: run failed validation\n",
                         app.name().c_str());
            return 1;
        }
        if (!base.outcome().clean()) {
            std::fprintf(stderr,
                         "baseline already reports races (detector "
                         "bug?):\n%s",
                         base.summary().c_str());
            return 1;
        }
        for (int k = 0; k < sim::kNumRaceFaults; ++k)
            edges[k] = base.edgeCount(static_cast<sim::RaceFault>(k));
    }

    // Not every occurrence of an edge is load-bearing: a lock's
    // first acquire after the phase barrier is ordered by that
    // barrier anyway, and a final barrier departure orders no later
    // access.  Benign occurrences cluster (e.g. the whole first
    // force-merge sweep), so the attempts stride across the entire
    // occurrence space from a seeded origin rather than scanning
    // consecutively, bounded to keep the harness finite.
    constexpr std::uint64_t kMaxAttempts = 64;
    int missed = 0;
    for (sim::RaceFault k : todo) {
        const std::uint64_t n = edges[static_cast<int>(k)];
        if (n == 0) {
            std::printf("%-18s SKIP    no eligible edge in this "
                        "program\n",
                        sim::raceFaultName(k));
            continue;
        }
        const std::uint64_t tries = std::min(kMaxAttempts, n);
        const std::uint64_t stride = std::max<std::uint64_t>(1, n / tries);
        bool caught = false;
        bool fireFailed = false;
        std::uint64_t benign = 0;
        for (std::uint64_t t = 0; t < tries && !caught; ++t) {
            const std::uint64_t occ = (seed + t * stride) % n;
            sim::RaceChecker chk(rcfg);
            chk.dropEdge(k, occ);
            RunStats r = runPram(app, procs, cfg, simOpts, &chk);
            (void)r;  // validation may legitimately fail without sync
            if (!chk.dropFired()) {
                std::printf("%-18s MISSED  edge %llu/%llu never "
                            "reached\n",
                            sim::raceFaultName(k),
                            static_cast<unsigned long long>(occ),
                            static_cast<unsigned long long>(n));
                ++missed;
                fireFailed = true;
                break;
            }
            sim::RaceOutcome o = chk.outcome();
            const int victim = chk.droppedProc();
            const sim::RaceReport* hit = nullptr;
            for (const sim::RaceReport& rep : o.reports)
                if (rep.prev.proc == victim || rep.cur.proc == victim) {
                    hit = &rep;
                    break;
                }
            if (o.clean() || hit == nullptr) {
                ++benign;  // drop changed no outcome; next occurrence
                continue;
            }
            caught = true;
            std::printf("%-18s detected (%llu race pair%s, %llu "
                        "benign drop%s skipped)\n"
                        "    injected: dropped P%d's acquire edge "
                        "%llu of %llu\n"
                        "    caught:   %#llx (%dB granule) P%d vs "
                        "P%d\n",
                        sim::raceFaultName(k),
                        static_cast<unsigned long long>(o.races),
                        o.races == 1 ? "" : "s",
                        static_cast<unsigned long long>(benign),
                        benign == 1 ? "" : "s", victim,
                        static_cast<unsigned long long>(occ),
                        static_cast<unsigned long long>(n),
                        static_cast<unsigned long long>(hit->granule),
                        hit->bytes, hit->prev.proc, hit->cur.proc);
        }
        if (!caught && !fireFailed) {
            std::printf("%-18s MISSED  %llu dropped occurrences from "
                        "%llu, none exposed an attributed race\n",
                        sim::raceFaultName(k),
                        static_cast<unsigned long long>(tries),
                        static_cast<unsigned long long>(seed % n));
            ++missed;
        }
    }
    std::printf("\n%s\n", missed
                              ? "FAIL: detector missed dropped edges"
                              : "all dropped edges detected");
    return missed ? 1 : 0;
}

/** Fault-injection harness (--inject): for each requested fault kind,
 *  run @p app to a realistic protocol state, prove the checker is
 *  silent on it, seed the corruption, and prove the checker fires.
 *  Returns 0 when every eligible fault was detected. */
int
runInjection(App& app, int procs, const sim::CacheConfig& cache,
             bool hints, const AppConfig& cfg, const SimOpts& simOpts,
             const std::string& which, std::uint64_t seed)
{
    std::vector<sim::FaultKind> todo;
    if (which == "all") {
        for (int k = 0; k < sim::kNumFaultKinds; ++k)
            todo.push_back(static_cast<sim::FaultKind>(k));
    } else {
        sim::FaultKind k;
        if (!sim::parseFaultKind(which, &k)) {
            std::fprintf(stderr,
                         "unknown --inject '%s' (all", which.c_str());
            for (int i = 0; i < sim::kNumFaultKinds; ++i)
                std::fprintf(stderr, ", %s",
                             sim::faultKindName(
                                 static_cast<sim::FaultKind>(i)));
            std::fprintf(stderr, ")\n");
            return 2;
        }
        todo.push_back(k);
    }

    std::printf("fault injection: %s on %d processors, seed %llu%s\n\n",
                app.name().c_str(), procs,
                static_cast<unsigned long long>(seed),
                hints ? "" : " (replacement hints off)");
    int missed = 0;
    for (sim::FaultKind k : todo) {
        // Fresh simulator state per fault: injections must not compound.
        rt::Env env({rt::Mode::Sim, procs, simOpts.quantum});
        MemExperiment e = experimentFor(cache, simOpts);
        e.hints = hints;
        sim::MemSystem mem(machineFor(e, procs), &env.heap());
        env.attachSink(&mem);
        if (!app.run(env, cfg).valid) {
            std::fprintf(stderr, "%s: run failed validation\n",
                         app.name().c_str());
            return 1;
        }

        sim::CoherenceChecker chk(mem);
        std::vector<sim::Violation> v;
        if (chk.checkAll(&v) != 0) {
            std::fprintf(stderr,
                         "baseline state already violates invariants "
                         "(checker bug?):\n%s",
                         sim::formatViolations(v).c_str());
            return 1;
        }

        std::string what = sim::FaultInjector(mem).inject(k, seed);
        if (what.empty()) {
            std::printf("%-16s SKIP    no eligible target in this "
                        "state\n",
                        sim::faultKindName(k));
            continue;
        }
        v.clear();
        std::size_t n = chk.checkAll(&v);
        if (n == 0) {
            std::printf("%-16s MISSED  injected %s\n",
                        sim::faultKindName(k), what.c_str());
            ++missed;
        } else {
            std::printf("%-16s detected (%zu violation%s)\n"
                        "    injected: %s\n"
                        "    caught:   %s: %s\n",
                        sim::faultKindName(k), n, n == 1 ? "" : "s",
                        what.c_str(), v[0].rule.c_str(),
                        v[0].what.c_str());
        }
    }
    std::printf("\n%s\n", missed ? "FAIL: checker missed seeded faults"
                                 : "all seeded faults detected");
    return missed ? 1 : 0;
}

} // namespace

int
main(int argc, char** argv)
{
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--list") == 0) {
            for (App* app : suite())
                std::printf("%-10s (%s)\n", app->name().c_str(),
                            app->isFloatingPoint() ? "floating-point"
                                                   : "integer");
            return 0;
        }
    }

    Options opt(argc, argv);
    // Engine flags first: informational requests (--protocol list)
    // and bad engine values resolve without requiring --app.
    EngineOpts eng;
    if (!parseEngineOpts(opt, &eng) ||
        !parseMachineFlags(opt, MachineFlags::Interconnect, &eng) ||
        !parseSweepFlag(opt, &eng) || !parseRaceFlag(opt, &eng))
        return eng.listRequested ? 0 : 2;
    (void)opt.getI("sweep-threads", 1);  // retired; the benchmark passes it
    std::string name = opt.getS("app", "");
    std::vector<App*> apps;
    if (name == "all") {
        for (App* app : suite())
            apps.push_back(app);
    } else if (App* app = findApp(name)) {
        apps.push_back(app);
    }
    if (apps.empty()) {
        std::fprintf(
            stderr,
            "usage: splash2run --app <name|all> [options]\n"
            "       splash2run --list\n"
            "options: --procs N --scale F --n N --iters N --aux N\n"
            "         --seed N --cachekb N --assoc N --line N\n"
            "         --nohints --nomem\n"
            "         --protocol msi|mesi|moesi|dragon  coherence\n"
            "             protocol of the simulated machine (default\n"
            "             mesi; 'list' prints the registered zoo)\n"
            "         --interconnect directory|bus  interconnect\n"
            "             organization of the simulated machine\n"
            "             (default directory CC-NUMA; bus snoops the\n"
            "             tag arrays and accounts bus occupancy; read\n"
            "             by splash2run only)\n"
            "         --quantum N  instrumentation events per\n"
            "             scheduling slice (default 250; it sets the\n"
            "             interleaving, and with it the statistics)\n"
            "         --jobs N  host threads running independent\n"
            "             programs (--app all; N >= 1, default 1;\n"
            "             output bytes identical for every value)\n"
            "         --replicas off|on  host threads within one\n"
            "             program (default on: sized from the host's\n"
            "             cores; off: one thread; one execution either\n"
            "             way, output identical)\n"
            "         --check N  coherence invariant checker: full\n"
            "             directory/cache cross-validation every N\n"
            "             slow-path transactions (default 0 = off;\n"
            "             observation only, violations abort)\n"
            "         --inject all|<kind>  fault-injection harness:\n"
            "             run, seed a protocol corruption, and verify\n"
            "             the checker detects it (see --inject help)\n"
            "         --race off|word|line  happens-before race\n"
            "             detection, one checker per program (default\n"
            "             off).  word: any report is a true data race\n"
            "             and the exit status is 1.  line: conflicts\n"
            "             quantify false sharing at --line granules\n"
            "             (informational)\n"
            "         --csv FILE  write per-app race census rows\n"
            "             (requires --race word|line)\n"
            "         --race-inject all|<kind>  race-injection\n"
            "             harness: drop one seeded sync edge and\n"
            "             verify the detector reports the race\n"
            "         --sweep exact|model|both  run the working-set\n"
            "             sweep (Figure 3 curves) instead of the\n"
            "             single-point characterization: exact Mattson\n"
            "             engine, reuse-distance analytical model, or\n"
            "             both side by side with per-row error; with\n"
            "             --replay it replays the trace like any run\n"
            "         --record DIR  record the reference stream of\n"
            "             each executed (app, P) into trace store DIR\n"
            "             (created if missing; recorded identities\n"
            "             are skipped -- record once)\n"
            "         --replay DIR  replay from trace store DIR (or a\n"
            "             single .s2t file) instead of executing --\n"
            "             byte-identical output, no fiber execution\n");
        return name.empty() ? 2 : 1;
    }

    int procs = static_cast<int>(opt.getI("procs", 32));
    AppConfig cfg;
    cfg.scale = opt.getD("scale", 1.0);
    cfg.n = opt.getI("n", 0);
    cfg.iters = opt.getI("iters", 0);
    cfg.aux = opt.getI("aux", 0);
    cfg.seed = static_cast<unsigned>(opt.getI("seed", 1234));
    checkProblem(cfg);

    bool with_mem = !opt.has("nomem");
    bool hints = !opt.has("nohints");
    sim::CacheConfig cache;
    cache.size = std::uint64_t(opt.getI("cachekb", 1024)) << 10;
    cache.assoc = static_cast<int>(opt.getI("assoc", 4));
    cache.lineSize = static_cast<int>(opt.getI("line", 64));

    if (!checkModeConflicts(opt, eng))
        return 2;
    const bool csv = opt.has("csv");
    const std::string csvPath = opt.getS("csv", "");
    const bool raceOn = eng.race != sim::RaceGranularity::Off;
    if (csv && (!raceOn || csvPath.empty())) {
        std::fprintf(stderr, "--csv FILE needs --race word|line\n");
        return 2;
    }
    if (!opt.allRead())
        return 2;

    if (opt.has("inject")) {
        if (!with_mem) {
            std::fprintf(stderr,
                         "--inject needs the memory system (drop "
                         "--nomem)\n");
            return 2;
        }
        int rc = 0;
        for (App* app : apps)
            rc = std::max(rc, runInjection(*app, procs, cache, hints,
                                           cfg, eng.sim,
                                           opt.getS("inject", "all"),
                                           cfg.seed));
        return rc;
    }

    if (opt.has("race-inject")) {
        int rc = 0;
        for (App* app : apps)
            rc = std::max(rc,
                          runRaceInjection(*app, procs, cfg, eng.sim,
                                           opt.getS("race-inject",
                                                    "all"),
                                           cfg.seed));
        return rc;
    }

    // With --sweep: the Figure-3 working-set engine instead of the
    // single-point memory-system characterization.  The line size is
    // the one cache parameter the sweep honors; --cachekb and --assoc
    // are the grid's axes, and checkModeConflicts rejects them.
    std::vector<WorkingSetRun> sweeps(apps.size());
    std::vector<RunStats> results(apps.size());
    std::vector<sim::RaceOutcome> races(apps.size());
    Runner runner(eng.jobs);
    for (std::size_t i = 0; i < apps.size(); ++i) {
        runner.add(apps[i]->name(), 1, [&, i] {
            std::unique_ptr<sim::RaceChecker> race;
            if (raceOn)
                race = std::make_unique<sim::RaceChecker>(
                    sim::RaceConfig{eng.race, procs, cache.lineSize});
            if (eng.sweepRequested) {
                sim::SweepConfig sc;
                sc.nprocs = procs;
                sc.lineSize = cache.lineSize;
                sweeps[i] = runWorkingSets(*apps[i], procs, sc, cfg,
                                           eng.sim, race.get());
                results[i] = sweeps[i].stats;
            } else if (with_mem) {
                MemExperiment e = experimentFor(cache, eng.sim);
                e.hints = hints;
                results[i] = runCharacterizations(*apps[i], procs, {e},
                                                  cfg, eng.sim,
                                                  race.get())[0];
            } else {
                results[i] =
                    runPram(*apps[i], procs, cfg, eng.sim, race.get());
            }
            if (race)
                races[i] = race->outcome();
        });
    }
    runner.run();

    bool all_valid = true;
    bool word_races = false;
    for (std::size_t i = 0; i < apps.size(); ++i) {
        const RunStats& r = results[i];
        if (i)
            std::printf("\n================\n\n");
        if (eng.sweepRequested)
            reportSweep(*apps[i], sweeps[i], eng.sim.sweep, procs,
                        cache.lineSize, cfg);
        else
            report(*apps[i], r, with_mem, cache, hints, procs, cfg,
                   eng.sim);
        if (raceOn) {
            std::printf("\n-- race detection --\n");
            std::fputs(sim::raceSummary(races[i]).c_str(), stdout);
        }
        all_valid = all_valid && r.valid;
        // Word-granularity conflicts are true data races: fail the
        // run (CI leans on this).  Line-granularity conflicts are the
        // false-sharing census -- informational by design.
        word_races = word_races ||
                     (eng.race == sim::RaceGranularity::Word &&
                      !races[i].clean());
    }

    if (csv) {
        std::FILE* f = std::fopen(csvPath.c_str(), "w");
        if (!f) {
            std::fprintf(stderr, "cannot write '%s'\n", csvPath.c_str());
            return 2;
        }
        std::fprintf(f,
                     "app,procs,granularity,granule_bytes,race_pairs,"
                     "racy_granules,dynamic_conflicts,granules_tracked,"
                     "barrier_arrivals,barrier_departures,lock_acquires,"
                     "lock_releases,flag_sets,flag_waits\n");
        for (std::size_t i = 0; i < apps.size(); ++i)
            raceCsvRow(f, *apps[i], procs, races[i]);
        std::fclose(f);
    }

    if (word_races) {
        std::fprintf(stderr,
                     "\nFAIL: data race(s) at word granularity -- the "
                     "suite must be race-free\n");
        return 1;
    }
    return all_valid ? 0 : 1;
}
