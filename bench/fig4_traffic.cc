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
 * are identical for every jobs value.
 *
 * Usage: fig4_traffic [--scale 1.0] [--maxprocs 32] [--app <name>]
 *                     [--cachekb 1024] [--csv] [--jobs N]
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
        return eng.listRequested ? 0 : 2;
    AppConfig cfg;
    cfg.scale = opt.getD("scale", opt.has("quick") ? 0.25 : 1.0);
    int maxp = static_cast<int>(
        opt.getI("maxprocs", opt.has("quick") ? 8 : 32));
    std::string only = opt.getS("app", "");
    bool csv = opt.has("csv");
    sim::CacheConfig cache;
    cache.size = std::uint64_t(opt.getI("cachekb", 1024)) << 10;
    if (!opt.allRead())
        return 2;

    std::vector<int> procs;
    for (int p = 1; p <= maxp; p *= 2)
        procs.push_back(p);
    std::vector<App*> apps;
    for (App* app : suite())
        if (only.empty() || findApp(only) == app)
            apps.push_back(app);

    std::vector<std::vector<RunStats>> results(
        apps.size(), std::vector<RunStats>(procs.size()));
    Runner runner(eng.jobs);
    for (std::size_t i = 0; i < apps.size(); ++i) {
        for (std::size_t j = 0; j < procs.size(); ++j) {
            runner.add(apps[i]->name() + "/P" +
                           std::to_string(procs[j]),
                       procs[j], [&, i, j] {
                           results[i][j] = runCharacterizations(
                               *apps[i], procs[j],
                               {experimentFor(cache, eng.sim)}, cfg,
                               eng.sim)[0];
                       });
        }
    }
    runner.run();

    if (csv)
        std::printf("app,procs,rem_shared,rem_cold,rem_cap,rem_wb,"
                    "rem_ovhd,local,true_shared,total\n");
    else
        std::printf("Figure 4: traffic breakdown (bytes per FLOP for "
                    "FP codes, bytes per instruction otherwise); %llu "
                    "KB 4-way 64 B caches, scale %.3g\n",
                    static_cast<unsigned long long>(cache.size >> 10),
                    cfg.scale);
    for (std::size_t i = 0; i < apps.size(); ++i) {
        App* app = apps[i];
        Table t({"P", "RemShared", "RemCold", "RemCap", "RemWB",
                 "RemOvhd", "Local", "TrueShared", "Total"});
        if (!csv)
            std::printf("\n%s (per %s)\n", app->name().c_str(),
                        app->isFloatingPoint() ? "FLOP" : "instr");
        for (std::size_t j = 0; j < procs.size(); ++j) {
            const RunStats& r = results[i][j];
            double den = trafficDenominator(*app, r.exec);
            if (den <= 0)
                den = 1;
            if (csv) {
                std::printf("%s,%d,%.6f,%.6f,%.6f,%.6f,%.6f,%.6f,"
                            "%.6f,%.6f\n",
                            app->name().c_str(), procs[j],
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
            auto b = [&](double v) { return fmt("%.4f", v / den); };
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
        if (!csv)
            t.print();
    }
    return 0;
}
