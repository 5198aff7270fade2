/**
 * @file
 * Figure 6: traffic with 8 KB caches for the four applications whose
 * important working set realistically may NOT fit in the cache (FFT,
 * Ocean, Radix, Raytrace), 1..32 processors.
 *
 * Expect total traffic much larger than with 1 MB caches (Figure 4),
 * the increase appearing as local data for FFT and Ocean (capacity
 * misses to locally-allocated partitions) and as remote/communication
 * traffic for Raytrace -- the paper's argument for modeling contention
 * when working sets do not fit.
 *
 * Engine: (app, P) points are scheduled across host cores (--jobs).
 * The text report shows the small cache only.  --csv FILE adds
 * Figure 4's 1 MB configuration as a second sink of the same pass per
 * (app, P), so the comparison comes from the identical reference
 * stream, and writes both sizes' rows to FILE (results/fig6.csv).
 *
 * Usage: fig6_small_cache [--scale 1.0] [--maxprocs 32] [--cachekb 8]
 *                         [--csv FILE] [--jobs N] [--replicas off|on]
 *                         [--protocol P] [--check N]
 */
#include <cstdio>
#include <vector>

#include "harness/cli.h"
#include "harness/runner.h"

using namespace splash;
using namespace splash::harness;

int
main(int argc, char** argv)
{
    Options opt(argc, argv);
    EngineOpts eng;
    if (!parseEngineOpts(opt, &eng) ||
        !parseMachineFlags(opt, MachineFlags::Protocol, &eng))
        return 2;
    const bool quick = opt.flag("quick");
    AppConfig cfg;
    cfg.scale = opt.getD("scale", quick ? 0.25 : 1.0);
    const long maxp =
        getInRange(opt, "maxprocs", quick ? 8 : 32, 1, kMaxProcs);
    // Figure 4's 1 MB baseline, and the small cache this figure varies.
    const sim::MachineConfig large = eng.machine;
    sim::MachineConfig small = large;
    small.cache.size = getCacheBytes(opt, 8);
    CsvFile csv(opt);
    if (!opt.allRead())
        return 2;
    csv.open("app,procs,cachekb," + kTrafficCsv);

    const std::vector<const char*> names = {"FFT", "Ocean", "Radix",
                                            "Raytrace"};
    std::vector<int> procs;
    for (int p = 1; p <= maxp; p *= 2)
        procs.push_back(p);

    // results[i][j] holds {small}, and {small, large} when --csv is
    // given -- both cache sizes fed by one pass.
    std::vector<std::vector<std::vector<RunStats>>> results(
        names.size(),
        std::vector<std::vector<RunStats>>(procs.size()));
    Runner runner(eng.jobs);
    for (std::size_t i = 0; i < names.size(); ++i) {
        App* app = findApp(names[i]);
        for (std::size_t j = 0; j < procs.size(); ++j) {
            runner.add(app->name() + "/P" + std::to_string(procs[j]),
                       procs[j], [&, app, i, j] {
                           std::vector<sim::MachineConfig> machines = {
                               small};
                           if (csv)
                               machines.push_back(large);
                           results[i][j] = runCharacterizations(
                               *app, procs[j], machines, cfg, eng.sim);
                       });
        }
    }
    runner.run();

    std::printf("Figure 6: traffic with %llu KB 4-way 64 B caches "
                "(bytes/FLOP for FFT and Ocean, bytes/instr for "
                "the others), scale %.3g\n",
                static_cast<unsigned long long>(small.cache.size >> 10),
                cfg.scale);
    for (std::size_t i = 0; i < names.size(); ++i) {
        App* app = findApp(names[i]);
        std::printf("\n%s (per %s)\n", app->name().c_str(),
                    app->isFloatingPoint() ? "FLOP" : "instr");
        Table t(trafficHeader("P"));
        for (std::size_t j = 0; j < procs.size(); ++j) {
            const std::string p = std::to_string(procs[j]);
            for (std::size_t k = 0; k < results[i][j].size(); ++k) {
                const RunStats& r = results[i][j][k];
                double den = trafficDenominator(*app, r.exec);
                if (den <= 0)
                    den = 1;
                const std::vector<double> v = trafficColumns(r.mem, den);
                if (k == 0)
                    t.row(cells({p}, v, "%.4f"));
                const std::uint64_t bytes =
                    k == 0 ? small.cache.size : large.cache.size;
                csv.row(cells({app->name(), p, fmtU(bytes >> 10)}, v,
                              "%.6f"));
            }
        }
        t.print();
    }
    return 0;
}
