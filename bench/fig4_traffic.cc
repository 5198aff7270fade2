/**
 * @file
 * Figure 4: traffic breakdown in bytes per FLOP (floating-point codes)
 * or bytes per instruction (integer codes), for 1..32 processors with
 * 1 MB 4-way 64-byte-line caches.
 *
 * Categories as in the paper: remote data split by miss type (shared =
 * true+false sharing, cold, capacity) plus remote writebacks, remote
 * overhead (8-byte protocol packets and data headers), local data, and
 * the true-sharing traffic that approximates inherent communication.
 *
 * Engine: each (app, P) point is an independent execution, scheduled
 * across host cores by the experiment runner (--jobs); output bytes
 * are identical for every jobs value.  --csv FILE writes the same
 * breakdown as CSV rows (results/fig4.csv) beside the text report.
 *
 * Usage: fig4_traffic [--scale 1.0] [--maxprocs 32] [--app <name>]
 *                     [--cachekb 1024] [--csv FILE] [--jobs N]
 *                     [--protocol P] [--check N]
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
    const std::vector<App*> apps = selectApps(opt);
    sim::MachineConfig machine = eng.machine;
    machine.cache.size = getCacheBytes(opt, 1024);
    CsvFile csv(opt);
    if (!opt.allRead())
        return 2;
    csv.open("app,procs," + kTrafficCsv);

    std::vector<int> procs;
    for (int p = 1; p <= maxp; p *= 2)
        procs.push_back(p);

    std::vector<std::vector<RunStats>> results(
        apps.size(), std::vector<RunStats>(procs.size()));
    Runner runner(eng.jobs);
    for (std::size_t i = 0; i < apps.size(); ++i) {
        for (std::size_t j = 0; j < procs.size(); ++j) {
            runner.add(apps[i]->name() + "/P" +
                           std::to_string(procs[j]),
                       procs[j], [&, i, j] {
                           results[i][j] = runCharacterizations(
                               *apps[i], procs[j], {machine}, cfg,
                               eng.sim)[0];
                       });
        }
    }
    runner.run();

    std::printf("Figure 4: traffic breakdown (bytes per FLOP for "
                "FP codes, bytes per instruction otherwise); %llu "
                "KB 4-way 64 B caches, scale %.3g\n",
                static_cast<unsigned long long>(machine.cache.size >> 10),
                cfg.scale);
    for (std::size_t i = 0; i < apps.size(); ++i) {
        App* app = apps[i];
        Table t(trafficHeader("P"));
        std::printf("\n%s (per %s)\n", app->name().c_str(),
                    app->isFloatingPoint() ? "FLOP" : "instr");
        for (std::size_t j = 0; j < procs.size(); ++j) {
            const RunStats& r = results[i][j];
            double den = trafficDenominator(*app, r.exec);
            if (den <= 0)
                den = 1;
            const std::vector<double> v = trafficColumns(r.mem, den);
            const std::string p = std::to_string(procs[j]);
            t.row(cells({p}, v, "%.4f"));
            csv.row(cells({app->name(), p}, v, "%.6f"));
        }
        t.print();
    }
    return 0;
}
