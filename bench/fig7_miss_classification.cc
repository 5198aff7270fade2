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
 * (--jobs).  Output bytes are identical in every mode.  --csv FILE
 * writes the same decomposition as CSV rows (results/fig7.csv) beside
 * the text report.
 *
 * Usage: fig7_miss_classification [--procs 32] [--scale 1.0]
 *                                 [--app <name>] [--csv FILE]
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
        return 2;
    const bool quick = opt.flag("quick");
    int procs = static_cast<int>(
        getInRange(opt, "procs", quick ? 8 : 32, 1, kMaxProcs));
    AppConfig cfg;
    cfg.scale = opt.getD("scale", quick ? 0.25 : 1.0);
    const std::vector<App*> apps = selectApps(opt);
    CsvFile csv(opt);
    if (!opt.allRead())
        return 2;
    csv.open("app,line,cold,capacity,true_share,false_share,miss_rate");

    const std::vector<int> lines = {8, 16, 32, 64, 128, 256};
    std::vector<std::vector<RunStats>> results(apps.size());
    Runner runner(eng.jobs);
    for (std::size_t i = 0; i < apps.size(); ++i) {
        runner.add(apps[i]->name(), 1, [&, i] {
            std::vector<sim::MachineConfig> machines;
            for (int line : lines) {
                machines.push_back(eng.machine);
                machines.back().cache.lineSize = line;
            }
            results[i] = runCharacterizations(*apps[i], procs, machines,
                                              cfg, eng.sim);
        });
    }
    runner.run();

    std::printf("Figure 7: misses per 1000 references by type vs "
                "line size; %d procs, 1 MB 4-way caches, scale "
                "%.3g\n",
                procs, cfg.scale);
    for (std::size_t i = 0; i < apps.size(); ++i) {
        std::printf("\n%s\n", apps[i]->name().c_str());
        Table t({"Line", "Cold", "Capacity", "TrueShare", "FalseShare",
                 "MissRate%"});
        for (std::size_t j = 0; j < lines.size(); ++j) {
            const sim::MemStats& m = results[i][j].mem;
            auto misses = [&](sim::MissType type) {
                return per1000(m, m.misses[int(type)]);
            };
            const std::vector<double> v = {
                misses(sim::MissType::Cold),
                misses(sim::MissType::Capacity),
                misses(sim::MissType::TrueSharing),
                misses(sim::MissType::FalseSharing),
                100.0 * m.missRate()};
            const std::string line = std::to_string(lines[j]);
            t.row(cells({line + "B"}, v, "%.3f"));
            csv.row(cells({apps[i]->name(), line}, v, "%.6f"));
        }
        t.print();
    }
    return 0;
}
