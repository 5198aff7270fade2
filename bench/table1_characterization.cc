/**
 * @file
 * Table 1: breakdown of instructions executed for the default problem
 * sizes on a 32-processor machine.
 *
 * Columns follow the paper: total instructions, total FLOPS (for the
 * floating-point codes), shared reads and writes, and synchronization
 * operations (barriers per processor; locks and pauses totaled across
 * processors).  Our instrumentation counts shared-data references
 * exactly and models non-memory instructions with per-site work
 * annotations, so "Total Instr" is an annotation-based estimate (see
 * DESIGN.md).
 *
 * Engine: each application is one runner job (--jobs overlaps
 * applications); output bytes are identical for every jobs value.
 *
 * Usage: table1_characterization [--procs 32] [--scale 1.0]
 *                                [--app <name>] [--jobs N]
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
    int procs = static_cast<int>(opt.getI("procs", 32));
    AppConfig cfg;
    cfg.scale = opt.getD("scale", opt.has("quick") ? 0.25 : 1.0);
    std::string only = opt.getS("app", "");
    if (!opt.allRead())
        return 2;

    std::vector<App*> apps;
    for (App* app : suite())
        if (only.empty() || findApp(only) == app)
            apps.push_back(app);

    std::vector<RunStats> results(apps.size());
    Runner runner(eng.jobs);
    for (std::size_t i = 0; i < apps.size(); ++i) {
        runner.add(apps[i]->name(), 1, [&, i] {
            results[i] = runPram(*apps[i], procs, cfg, eng.sim);
        });
    }
    runner.run();

    std::printf("Table 1: instruction breakdown, %d processors, "
                "scale %.3g\n\n",
                procs, cfg.scale);
    Table t({"Code", "Instr(M)", "FLOPS(M)", "ShRd(M)", "ShWr(M)",
             "Barriers/proc", "Locks", "Pauses", "valid"});
    for (std::size_t i = 0; i < apps.size(); ++i) {
        const RunStats& r = results[i];
        std::uint64_t locks = 0, pauses = 0, barriers = 0;
        for (const auto& ps : r.perProc) {
            locks += ps.locks;
            pauses += ps.pauses;
        }
        barriers = r.perProc.empty() ? 0 : r.perProc[0].barriers;
        t.row({apps[i]->name(),
               fmt("%.2f", r.exec.instructions() / 1e6),
               apps[i]->isFloatingPoint()
                   ? fmt("%.2f", r.exec.flops / 1e6)
                   : "-",
               fmt("%.2f", r.exec.reads / 1e6),
               fmt("%.2f", r.exec.writes / 1e6),
               fmtU(barriers), fmtU(locks), fmtU(pauses),
               r.valid ? "yes" : "NO"});
    }
    t.print();
    return 0;
}
