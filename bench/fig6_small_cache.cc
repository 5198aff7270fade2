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
 * Engine: in --csv mode the 8 KB and 1 MB configurations are two
 * sinks of ONE pass per (app, P) so the comparison with Figure 4
 * comes from the identical reference stream; (app, P) points are
 * scheduled across host cores (--jobs).  Text mode reports and
 * simulates the small cache only.
 *
 * Usage: fig6_small_cache [--scale 1.0] [--maxprocs 32] [--cachekb 8]
 *                         [--csv] [--jobs N] [--replicas off|on]
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
        return eng.listRequested ? 0 : 2;
    AppConfig cfg;
    cfg.scale = opt.getD("scale", opt.has("quick") ? 0.25 : 1.0);
    int maxp = static_cast<int>(
        opt.getI("maxprocs", opt.has("quick") ? 8 : 32));
    bool csv = opt.has("csv");
    sim::CacheConfig small;
    small.size = std::uint64_t(opt.getI("cachekb", 8)) << 10;
    if (!opt.allRead())
        return 2;
    sim::CacheConfig large;  // Figure 4's 1 MB baseline

    const std::vector<const char*> names = {"FFT", "Ocean", "Radix",
                                            "Raytrace"};
    std::vector<int> procs;
    for (int p = 1; p <= maxp; p *= 2)
        procs.push_back(p);

    // results[i][j] holds {small} in text mode, {small, large} in CSV
    // mode -- both cache sizes fed by one pass.
    std::vector<std::vector<std::vector<RunStats>>> results(
        names.size(),
        std::vector<std::vector<RunStats>>(procs.size()));
    Runner runner(eng.jobs);
    for (std::size_t i = 0; i < names.size(); ++i) {
        App* app = findApp(names[i]);
        for (std::size_t j = 0; j < procs.size(); ++j) {
            runner.add(app->name() + "/P" + std::to_string(procs[j]),
                       procs[j], [&, app, i, j] {
                           std::vector<MemExperiment> exps;
                           MemExperiment e;
                           e.protocol = eng.sim.protocol;
                           e.cache = small;
                           exps.push_back(e);
                           if (csv) {
                               e.cache = large;
                               exps.push_back(e);
                           }
                           results[i][j] = runCharacterizations(
                               *app, procs[j], exps, cfg, eng.sim);
                       });
        }
    }
    runner.run();

    if (csv)
        std::printf("app,procs,cachekb,rem_shared,rem_cold,rem_cap,"
                    "rem_wb,rem_ovhd,local,true_shared,total\n");
    else
        std::printf("Figure 6: traffic with %llu KB 4-way 64 B caches "
                    "(bytes/FLOP for FFT and Ocean, bytes/instr for "
                    "the others), scale %.3g\n",
                    static_cast<unsigned long long>(small.size >> 10),
                    cfg.scale);
    for (std::size_t i = 0; i < names.size(); ++i) {
        App* app = findApp(names[i]);
        if (!csv)
            std::printf("\n%s (per %s)\n", app->name().c_str(),
                        app->isFloatingPoint() ? "FLOP" : "instr");
        Table t({"P", "RemShared", "RemCold", "RemCap", "RemWB",
                 "RemOvhd", "Local", "TrueShared", "Total"});
        for (std::size_t j = 0; j < procs.size(); ++j) {
            for (std::size_t k = 0; k < results[i][j].size(); ++k) {
                const RunStats& r = results[i][j][k];
                double den = trafficDenominator(*app, r.exec);
                if (den <= 0)
                    den = 1;
                if (csv) {
                    std::uint64_t kb =
                        (k == 0 ? small.size : large.size) >> 10;
                    std::printf(
                        "%s,%d,%llu,%.6f,%.6f,%.6f,%.6f,%.6f,%.6f,"
                        "%.6f,%.6f\n",
                        app->name().c_str(), procs[j],
                        static_cast<unsigned long long>(kb),
                        double(r.mem.remoteSharedData) / den,
                        double(r.mem.remoteColdData) / den,
                        double(r.mem.remoteCapacityData) / den,
                        double(r.mem.remoteWriteback) / den,
                        double(r.mem.remoteOverhead) / den,
                        double(r.mem.localData) / den,
                        double(r.mem.trueSharedData) / den,
                        double(r.mem.totalTraffic()) / den);
                    continue;
                }
                auto b = [&](double v) {
                    return fmt("%.4f", v / den);
                };
                t.row({std::to_string(procs[j]),
                       b(double(r.mem.remoteSharedData)),
                       b(double(r.mem.remoteColdData)),
                       b(double(r.mem.remoteCapacityData)),
                       b(double(r.mem.remoteWriteback)),
                       b(double(r.mem.remoteOverhead)),
                       b(double(r.mem.localData)),
                       b(double(r.mem.trueSharedData)),
                       b(double(r.mem.totalTraffic()))});
            }
        }
        if (!csv)
            t.print();
    }
    return 0;
}
