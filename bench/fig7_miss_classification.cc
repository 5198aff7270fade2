/**
 * @file
 * Figure 7 / Section 7: miss decomposition by type (cold, capacity,
 * true sharing, false sharing) as the cache line size varies -- the
 * spatial-locality and false-sharing characterization.
 *
 * With 1 MB caches, capacity misses are small; growing the line from
 * 8 B to 256 B should show cold and true-sharing miss *counts*
 * falling for codes with good spatial locality (prefetching effect)
 * while false sharing appears for codes with fine-grained interleaved
 * write sharing.
 *
 * Engine: the reference stream of an (app, P) pair is the same for
 * every line size, so each application executes ONCE and its pass
 * feeds all six line-size configurations (--replicas on gives each its
 * own thread); applications run concurrently across host cores
 * (--jobs).  Output bytes are identical in every mode.
 *
 * Usage: fig7_miss_classification [--procs 32] [--scale 1.0]
 *                                 [--app <name>] [--csv]
 *                                 [--jobs N] [--replicas off|on]
 *                                 [--protocol P] [--check N]
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
    AppConfig cfg;
    cfg.scale = opt.getD("scale", opt.has("quick") ? 0.25 : 1.0);
    std::string only = opt.getS("app", "");
    bool csv = opt.has("csv");
    if (!opt.allRead())
        return 2;

    const std::vector<int> lines = {8, 16, 32, 64, 128, 256};
    std::vector<App*> apps;
    for (App* app : suite())
        if (only.empty() || findApp(only) == app)
            apps.push_back(app);

    std::vector<std::vector<RunStats>> results(apps.size());
    Runner runner(eng.jobs);
    for (std::size_t i = 0; i < apps.size(); ++i) {
        runner.add(apps[i]->name(), 1, [&, i] {
            std::vector<MemExperiment> exps;
            for (int line : lines) {
                MemExperiment e;
                e.protocol = eng.sim.protocol;
                e.cache.lineSize = line;
                exps.push_back(e);
            }
            results[i] = runCharacterizations(*apps[i], procs, exps,
                                              cfg, eng.sim);
        });
    }
    runner.run();

    if (csv)
        std::printf("app,line,cold,capacity,true_share,false_share,"
                    "miss_rate\n");
    else
        std::printf("Figure 7: misses per 1000 references by type vs "
                    "line size; %d procs, 1 MB 4-way caches, scale "
                    "%.3g\n",
                    procs, cfg.scale);
    for (std::size_t i = 0; i < apps.size(); ++i) {
        if (!csv) {
            std::printf("\n%s\n", apps[i]->name().c_str());
            Table t({"Line", "Cold", "Capacity", "TrueShare",
                     "FalseShare", "MissRate%"});
            for (std::size_t j = 0; j < lines.size(); ++j) {
                const RunStats& r = results[i][j];
                double acc = double(r.mem.accesses());
                if (acc <= 0)
                    acc = 1;
                auto k = [&](sim::MissType m) {
                    return fmt("%.3f",
                               1000.0 * double(r.mem.misses[int(m)]) /
                                   acc);
                };
                t.row({std::to_string(lines[j]) + "B",
                       k(sim::MissType::Cold),
                       k(sim::MissType::Capacity),
                       k(sim::MissType::TrueSharing),
                       k(sim::MissType::FalseSharing),
                       fmt("%.3f", 100.0 * r.mem.missRate())});
            }
            t.print();
            continue;
        }
        for (std::size_t j = 0; j < lines.size(); ++j) {
            const RunStats& r = results[i][j];
            double acc = double(r.mem.accesses());
            if (acc <= 0)
                acc = 1;
            auto per1000 = [&](sim::MissType m) {
                return 1000.0 * double(r.mem.misses[int(m)]) / acc;
            };
            std::printf("%s,%d,%.6f,%.6f,%.6f,%.6f,%.6f\n",
                        apps[i]->name().c_str(), lines[j],
                        per1000(sim::MissType::Cold),
                        per1000(sim::MissType::Capacity),
                        per1000(sim::MissType::TrueSharing),
                        per1000(sim::MissType::FalseSharing),
                        100.0 * r.mem.missRate());
        }
    }
    return 0;
}
