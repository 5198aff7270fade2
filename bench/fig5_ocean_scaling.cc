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
 * identical in every mode.  --csv FILE writes the same rows as CSV
 * (results/fig5.csv) beside the text report.
 *
 * Usage: fig5_ocean_scaling [--procs 32] [--n1 128] [--n2 256]
 *                           [--csv FILE] [--jobs N] [--protocol P]
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
        return 2;
    const bool quick = opt.flag("quick");
    int procs = static_cast<int>(
        getInRange(opt, "procs", quick ? 8 : 32, 1, kMaxProcs));
    // Ocean's grid is a power of two >= 4; 0 would mean its default.
    long n1 = getPow2InRange(opt, "n1", quick ? 64 : 128, 4);
    long n2 = getPow2InRange(opt, "n2", quick ? 128 : 256, 4);
    CsvFile csv(opt);
    if (!opt.allRead())
        return 2;
    csv.open("grid,procs," + kTrafficCsv);

    App* ocean = findApp("Ocean");

    const std::vector<long> grids = {n1, n2};
    std::vector<RunStats> results(grids.size());
    Runner runner(eng.jobs);
    for (std::size_t i = 0; i < grids.size(); ++i) {
        runner.add("Ocean/n" + std::to_string(grids[i]),
                   double(grids[i]) * double(grids[i]), [&, i] {
                       AppConfig cfg;
                       cfg.n = grids[i];
                       results[i] = runCharacterizations(
                           *ocean, procs, {eng.machine}, cfg, eng.sim)[0];
                   });
    }
    runner.run();

    std::printf("Figure 5: Ocean traffic (bytes/FLOP), %d procs, "
                "1 MB caches, grids (%ld+2)^2 vs (%ld+2)^2\n\n",
                procs, n1, n2);
    Table t(trafficHeader("Grid"));
    for (std::size_t i = 0; i < grids.size(); ++i) {
        const RunStats& r = results[i];
        const std::vector<double> v =
            trafficColumns(r.mem, double(r.exec.flops));
        const std::string grid = std::to_string(grids[i] + 2);
        t.row(cells({grid + "^2"}, v, "%.4f"));
        csv.row(cells({grid, std::to_string(procs)}, v, "%.6f"));
    }
    t.print();
    return 0;
}
