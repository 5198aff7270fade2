/**
 * @file
 * Figure 2: synchronization characteristics for 32 processors --
 * minimum, maximum, and average fraction of execution time spent at
 * synchronization points (locks, barriers, and pauses) across
 * processors.
 *
 * The paper highlights Cholesky, LU, and Radiosity exceeding 50%
 * average synchronization time at their default data sets; expect the
 * same ordering here.
 *
 * Engine: each application is one runner job (--jobs overlaps
 * applications); output bytes are identical for every jobs value.
 *
 * Usage: fig2_synchronization [--procs 32] [--scale 1.0] [--jobs N]
 */
#include <algorithm>
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
    int procs = static_cast<int>(getInRange(opt, "procs", 32, 1, kMaxProcs));
    AppConfig cfg;
    cfg.scale = opt.getD("scale", opt.flag("quick") ? 0.25 : 1.0);
    const std::vector<App*> apps = selectApps(opt);
    if (!opt.allRead())
        return 2;

    std::vector<RunStats> results(apps.size());
    Runner runner(eng.jobs);
    for (std::size_t i = 0; i < apps.size(); ++i) {
        runner.add(apps[i]->name(), 1, [&, i] {
            results[i] = runPram(*apps[i], procs, cfg, eng.sim);
        });
    }
    runner.run();

    std::printf("Figure 2: %% execution time in synchronization, "
                "%d processors, scale %.3g\n\n",
                procs, cfg.scale);
    Table t({"Code", "Min%", "Avg%", "Max%", "Barrier%", "Lock%",
             "Pause%"});
    for (std::size_t i = 0; i < apps.size(); ++i) {
        const RunStats& r = results[i];
        double mn = 100, mx = 0, sum = 0;
        double bsum = 0, lsum = 0, psum = 0, tsum = 0;
        for (const auto& ps : r.perProc) {
            double el = std::max<double>(1.0, double(ps.elapsed()));
            double frac = 100.0 * double(ps.syncWait()) / el;
            mn = std::min(mn, frac);
            mx = std::max(mx, frac);
            sum += frac;
            bsum += double(ps.barrierWait);
            lsum += double(ps.lockWait);
            psum += double(ps.pauseWait);
            tsum += el;
        }
        t.row({apps[i]->name(), fmt("%.1f", mn),
               fmt("%.1f", sum / procs), fmt("%.1f", mx),
               fmt("%.1f", 100.0 * bsum / tsum),
               fmt("%.1f", 100.0 * lsum / tsum),
               fmt("%.1f", 100.0 * psum / tsum)});
    }
    t.print();
    return 0;
}
