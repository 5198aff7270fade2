/**
 * @file
 * Figure 3: miss rate versus cache size and associativity.
 *
 * For every program, a single execution feeds the multi-configuration
 * cache sweep, which simulates all power-of-two cache sizes from 1 KB
 * to 1 MB at 1-, 2-, and 4-way set associativity plus fully
 * associative LRU, with 64-byte lines and the default processor count
 * (32).  Expect the paper's shape: sharp knees where the important
 * working sets (WS1/WS2 of Table 2) start to fit, near-zero miss
 * rates by 1 MB for all codes, a big 1-way -> 2-way improvement and a
 * small 2-way -> 4-way one.
 *
 * Engine: each application (execution + sweep) is one runner job
 * (--jobs overlaps applications); --replicas on splits the sweep
 * within a job into processor-range shards, one thread each, one per
 * usable CPU (at most one per processor); --replicas off keeps it
 * serial.  Both change wall clock only --
 * output bytes are identical.  --sweep selects the engine:
 * exact (default; the output above), model (reuse-distance analytical
 * predictions from a sweep of the fully associative column alone, same
 * schema), or both (the table shows the exact curves; the CSV reports
 * each point from both engines plus the absolute error -- the
 * model-validation artifact).  --csv FILE writes the curves as CSV
 * rows (results/fig3.csv, fig3_model.csv) beside the text report.
 *
 * Usage: fig3_working_sets [--procs 32] [--scale 1.0] [--app <name>]
 *                          [--n N] [--sweep exact|model|both]
 *                          [--jobs N] [--replicas off|on] [--csv FILE]
 */
#include <cstdio>
#include <memory>
#include <vector>

#include "harness/cli.h"
#include "harness/runner.h"
#include "harness/workingset.h"
#include "sim/grid.h"

using namespace splash;
using namespace splash::harness;

int
main(int argc, char** argv)
{
    Options opt(argc, argv);
    EngineOpts eng;
    if (!parseEngineOpts(opt, &eng) || !parseSweepFlag(opt, &eng))
        return 2;
    int procs = static_cast<int>(getInRange(opt, "procs", 32, 1, kMaxProcs));
    // A way keeps its level in a line address's low three bits, and
    // the line must fit the smallest capacity.
    int line = static_cast<int>(getPow2InRange(
        opt, "line", 64, 8, static_cast<long>(sim::fig3Sizes().front())));
    AppConfig cfg;
    cfg.scale = opt.getD("scale", opt.flag("quick") ? 0.25 : 1.0);
    cfg.n = opt.getI("n", 0);
    const std::vector<App*> apps = selectApps(opt);
    CsvFile csv(opt);
    if (!opt.allRead())
        return 2;
    const sim::SweepMode mode = eng.sim.sweep;
    // The engine the table and the single-value CSV quote; Both's
    // table shows the exact curves and its CSV quotes the two side by
    // side.
    const bool model = mode == sim::SweepMode::Model;
    const bool both = mode == sim::SweepMode::Both;
    csv.open(both ? "app,size_bytes,assoc,miss_rate_exact,"
                    "miss_rate_model,abs_error"
                  : "app,size_bytes,assoc,miss_rate");

    std::vector<WorkingSetRun> runs(apps.size());
    Runner runner(eng.jobs);
    for (std::size_t i = 0; i < apps.size(); ++i) {
        runner.add(apps[i]->name(), 1, [&, i] {
            sim::SweepConfig sc;
            sc.nprocs = procs;
            sc.lineSize = line;
            runs[i] = runWorkingSets(*apps[i], procs, sc, cfg, eng.sim);
        });
    }
    runner.run();

    // The exact sweep's title names no engine, as in
    // results/fig3_working_sets.txt.
    const std::string engine =
        mode == sim::SweepMode::Exact
            ? ""
            : std::string(" (") + sim::sweepModeName(mode) + ")";
    std::printf("Figure 3%s: miss rate (%%) vs cache size and "
                "associativity; %d procs, %d B lines, scale %.3g\n",
                engine.c_str(), procs, line, cfg.scale);
    for (std::size_t i = 0; i < apps.size(); ++i) {
        const WorkingSetRun& run = runs[i];
        std::printf("\n%s\n", apps[i]->name().c_str());
        Table t({"Size", "1-way", "2-way", "4-way", "full"});
        for (std::uint64_t size : sim::fig3Sizes()) {
            std::vector<std::string> row{
                size >= (1u << 20) ? std::to_string(size >> 20) + "MB"
                                   : std::to_string(size >> 10) + "KB"};
            for (int assoc : sim::fig3ReportAssocs()) {
                const double mr = wsMissRate(run, size, assoc, model);
                row.push_back(fmt("%.3f", 100.0 * mr));
                std::vector<double> values{mr};
                if (both) {
                    const double md = wsMissRate(run, size, assoc, true);
                    values.push_back(md);
                    values.push_back(mr > md ? mr - md : md - mr);
                }
                csv.row(cells({apps[i]->name(), fmtU(size),
                               std::to_string(assoc)},
                              values, "%.6f"));
            }
            t.row(row);
        }
        t.print();
    }
    return 0;
}
