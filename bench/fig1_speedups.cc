/**
 * @file
 * Figure 1: PRAM speedups for the SPLASH-2 programs, 1..64 processors,
 * default data sets, perfect memory system.
 *
 * Deviations from ideal speedup are attributable to load imbalance,
 * serialization in critical sections, and redundant work -- exactly
 * the quantities the PRAM logical-time model captures.  Expect the
 * paper's shape: most codes near-ideal; LU, Cholesky, and Radiosity
 * limited by small problem sizes; Radix limited by its O(r log p)
 * prefix phase.
 *
 * Engine: each application's processor sweep is one runner job
 * (--jobs overlaps applications); output bytes are identical for
 * every jobs value.
 *
 * Usage: fig1_speedups [--scale 1.0] [--maxprocs 64] [--app <name>]
 *                      [--csv] [--jobs N]
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
    if (!parseEngineOpts(opt, &eng))
        return 2;
    AppConfig cfg;
    cfg.scale = opt.getD("scale", opt.has("quick") ? 0.25 : 1.0);
    int maxp = static_cast<int>(
        opt.getI("maxprocs", opt.has("quick") ? 16 : 64));
    std::string only = opt.getS("app", "");
    bool csv = opt.has("csv");
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
        runner.add(apps[i]->name(), 1, [&, i] {
            for (std::size_t j = 0; j < procs.size(); ++j)
                results[i][j] =
                    runPram(*apps[i], procs[j], cfg, eng.sim);
        });
    }
    runner.run();

    if (csv)
        std::printf("app,procs,speedup\n");
    else
        std::printf("Figure 1: PRAM speedups (T1 / Tp), scale %.3g\n\n",
                    cfg.scale);
    std::vector<std::string> hdr{"Code"};
    for (int p : procs)
        hdr.push_back("P=" + std::to_string(p));
    Table t(hdr);
    for (std::size_t i = 0; i < apps.size(); ++i) {
        std::vector<std::string> row{apps[i]->name()};
        double t1 = double(results[i][0].elapsed);
        for (std::size_t j = 0; j < procs.size(); ++j) {
            double s = t1 / double(results[i][j].elapsed);
            if (csv)
                std::printf("%s,%d,%.4f\n", apps[i]->name().c_str(),
                            procs[j], s);
            else
                row.push_back(fmt("%.2f", s));
        }
        if (!csv)
            t.row(row);
    }
    if (!csv) {
        t.print();
        std::printf("\n(ideal speedup at P equals P)\n");
    }
    return 0;
}
