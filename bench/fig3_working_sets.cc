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
 * schema), or both (each point reported from both engines plus the
 * absolute error -- the model-validation artifact).
 *
 * Usage: fig3_working_sets [--procs 32] [--scale 1.0] [--app <name>]
 *                          [--n N] [--sweep exact|model|both]
 *                          [--jobs N] [--replicas off|on] [--csv]
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
    int procs = static_cast<int>(opt.getI("procs", 32));
    int line = static_cast<int>(opt.getI("line", 64));
    bool csv = opt.has("csv");
    AppConfig cfg;
    cfg.scale = opt.getD("scale", opt.has("quick") ? 0.25 : 1.0);
    cfg.n = opt.getI("n", 0);
    std::string only = opt.getS("app", "");
    if (!opt.allRead())
        return 2;
    const sim::SweepMode mode = eng.sim.sweep;
    // Which engine the single-value outputs quote (Both's CSV quotes
    // the two side by side; its table shows the exact curves).
    const bool model = mode == sim::SweepMode::Model;

    std::vector<App*> apps;
    for (App* app : suite())
        if (only.empty() || findApp(only) == app)
            apps.push_back(app);

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

    if (csv) {
        std::printf(mode == sim::SweepMode::Both
                        ? "app,size_bytes,assoc,miss_rate_exact,"
                          "miss_rate_model,abs_error\n"
                        : "app,size_bytes,assoc,miss_rate\n");
    } else if (mode == sim::SweepMode::Exact) {
        // Byte-identical to the historical exact-only output
        // (results/fig3_working_sets.txt).
        std::printf("Figure 3: miss rate (%%) vs cache size and "
                    "associativity; %d procs, %d B lines, scale %.3g\n",
                    procs, line, cfg.scale);
    } else {
        std::printf("Figure 3 (%s): miss rate (%%) vs cache size and "
                    "associativity; %d procs, %d B lines, scale %.3g\n",
                    sim::sweepModeName(mode), procs, line, cfg.scale);
    }
    for (std::size_t i = 0; i < apps.size(); ++i) {
        const WorkingSetRun& run = runs[i];
        if (csv) {
            for (std::uint64_t size : sim::fig3Sizes())
                for (int assoc : sim::fig3ReportAssocs()) {
                    if (mode == sim::SweepMode::Both) {
                        double ex = wsMissRate(run, size, assoc, false);
                        double md = wsMissRate(run, size, assoc, true);
                        std::printf(
                            "%s,%llu,%d,%.6f,%.6f,%.6f\n",
                            apps[i]->name().c_str(),
                            static_cast<unsigned long long>(size),
                            assoc, ex, md,
                            ex > md ? ex - md : md - ex);
                    } else {
                        std::printf(
                            "%s,%llu,%d,%.6f\n",
                            apps[i]->name().c_str(),
                            static_cast<unsigned long long>(size),
                            assoc, wsMissRate(run, size, assoc, model));
                    }
                }
            continue;
        }
        std::printf("\n%s\n", apps[i]->name().c_str());
        Table t({"Size", "1-way", "2-way", "4-way", "full"});
        for (std::uint64_t size : sim::fig3Sizes()) {
            std::string label =
                size >= (1u << 20)
                    ? std::to_string(size >> 20) + "MB"
                    : std::to_string(size >> 10) + "KB";
            t.row({label,
                   fmt("%.3f", 100.0 * wsMissRate(run, size, 1, model)),
                   fmt("%.3f", 100.0 * wsMissRate(run, size, 2, model)),
                   fmt("%.3f", 100.0 * wsMissRate(run, size, 4, model)),
                   fmt("%.3f",
                       100.0 * wsMissRate(run, size, 0, model))});
        }
        t.print();
    }
    return 0;
}
