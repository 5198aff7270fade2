/**
 * @file
 * Figure 5: Ocean traffic at two problem sizes (bytes per FLOP, 1 MB
 * caches) -- the paper's 258x258 vs 514x514 comparison, sim-scaled to
 * 130x130 vs 258x258 (interior 128 vs 256).
 *
 * Expect sharing traffic per FLOP to *decrease* with the larger data
 * set while capacity-related (local) traffic increases -- the paper's
 * point that data-set size and processor count pull the traffic
 * components in opposite directions.
 *
 * Engine: the two grid sizes are independent executions scheduled by
 * the experiment runner (--jobs 2 overlaps them); output bytes are
 * identical in every mode.
 *
 * Usage: fig5_ocean_scaling [--procs 32] [--n1 128] [--n2 256]
 *                           [--csv] [--jobs N] [--protocol P]
 *                           [--check N]
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
    int procs = static_cast<int>(
        opt.getI("procs", opt.has("quick") ? 8 : 32));
    long n1 = opt.getI("n1", opt.has("quick") ? 64 : 128);
    long n2 = opt.getI("n2", opt.has("quick") ? 128 : 256);
    bool csv = opt.has("csv");
    if (!opt.allRead())
        return 2;

    App* ocean = findApp("Ocean");
    sim::CacheConfig cache;  // 1 MB 4-way 64 B

    const std::vector<long> grids = {n1, n2};
    std::vector<RunStats> results(grids.size());
    Runner runner(eng.jobs);
    for (std::size_t i = 0; i < grids.size(); ++i) {
        runner.add("Ocean/n" + std::to_string(grids[i]),
                   double(grids[i]) * double(grids[i]), [&, i] {
                       AppConfig cfg;
                       cfg.n = grids[i];
                       results[i] = runCharacterizations(
                           *ocean, procs,
                           {experimentFor(cache, eng.sim)}, cfg,
                           eng.sim)[0];
                   });
    }
    runner.run();

    if (csv)
        std::printf("grid,procs,rem_shared,rem_cold,rem_cap,rem_wb,"
                    "rem_ovhd,local,true_shared,total\n");
    else
        std::printf("Figure 5: Ocean traffic (bytes/FLOP), %d procs, "
                    "1 MB caches, grids (%ld+2)^2 vs (%ld+2)^2\n\n",
                    procs, n1, n2);
    Table t({"Grid", "RemShared", "RemCold", "RemCap", "RemWB",
             "RemOvhd", "Local", "TrueShared", "Total"});
    for (std::size_t i = 0; i < grids.size(); ++i) {
        const RunStats& r = results[i];
        double den = double(r.exec.flops);
        if (csv) {
            std::printf("%ld,%d,%.6f,%.6f,%.6f,%.6f,%.6f,%.6f,%.6f,"
                        "%.6f\n",
                        grids[i] + 2, procs,
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
        t.row({std::to_string(grids[i] + 2) + "^2",
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
    return 0;
}
