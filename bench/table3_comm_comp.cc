/**
 * @file
 * Table 3: growth rate of the communication-to-computation ratio with
 * processor count and data-set size.
 *
 * Inherent communication is approximated by true-sharing traffic (as
 * in the paper); the ratio divides by FLOPS (or instructions for the
 * integer codes).  The measured ratio is reported at (P, DS), (4P,
 * DS), and (P, 4xDS), with growth factors to compare against the
 * paper's analytic expressions -- e.g. sqrt(P) / sqrt(DS) for Ocean,
 * ~(P-1)/P flattening for FFT and Radix, sqrt(P/DS) for Barnes.
 *
 * Engine: each of an application's three ratio points is an
 * independent runner job (--jobs); output bytes are identical for
 * every jobs value.
 *
 * Usage: table3_comm_comp [--procs 8] [--scale 1.0] [--jobs N]
 *                         [--protocol P] [--check N]
 */
#include <cstdio>
#include <string>
#include <vector>

#include "harness/cli.h"
#include "harness/runner.h"

using namespace splash;
using namespace splash::harness;

namespace {

struct Ratio
{
    double trueShare = 0;  ///< repeated-communication proxy
    double withCold = 0;   ///< + remote cold: single-read
                           ///< producer-consumer communication (LU)
};

Ratio
ratioAt(App& app, int procs, double scale, const SimOpts& simOpts)
{
    sim::CacheConfig cache;  // 1 MB: capacity effects minimized
    AppConfig cfg;
    cfg.scale = scale;
    RunStats r = runCharacterizations(
        app, procs, {experimentFor(cache, simOpts)}, cfg, simOpts)[0];
    double den = trafficDenominator(app, r.exec);
    Ratio out;
    if (den > 0) {
        out.trueShare = double(r.mem.trueSharedData) / den;
        out.withCold = double(r.mem.trueSharedData +
                              r.mem.remoteColdData) /
                       den;
    }
    return out;
}

const char*
paperGrowth(const std::string& name)
{
    if (name == "Barnes")
        return "~sqrt(P)/sqrt(DS) (input dependent)";
    if (name == "Cholesky")
        return "~sqrt(P)/sqrt(DS) approx";
    if (name == "FFT")
        return "(P-1)/P (flattens with P)";
    if (name == "FMM")
        return "~sqrt(P)/sqrt(DS) approx";
    if (name == "LU")
        return "sqrt(P)/sqrt(DS)";
    if (name == "Ocean")
        return "sqrt(P)/sqrt(DS)";
    if (name == "Radiosity")
        return "unpredictable";
    if (name == "Radix")
        return "(P-1)/P (flattens with P)";
    if (name == "Raytrace")
        return "unpredictable";
    if (name == "Volrend")
        return "unpredictable";
    if (name == "Water-Nsq")
        return "~P/DS";
    return "~sqrt(P)/DS";  // Water-Sp
}

} // namespace

int
main(int argc, char** argv)
{
    Options opt(argc, argv);
    EngineOpts eng;
    if (!parseEngineOpts(opt, &eng) ||
        !parseMachineFlags(opt, MachineFlags::Protocol, &eng))
        return eng.listRequested ? 0 : 2;
    int procs = static_cast<int>(opt.getI("procs", 8));
    double base = opt.getD("scale", opt.has("quick") ? 0.25 : 1.0);
    if (!opt.allRead())
        return 2;

    std::vector<App*> apps;
    for (App* app : suite())
        apps.push_back(app);

    // Three points per application: (P, DS), (4P, DS), (P, 4xDS).
    std::vector<std::vector<Ratio>> ratios(apps.size(),
                                           std::vector<Ratio>(3));
    Runner runner(eng.jobs);
    for (std::size_t i = 0; i < apps.size(); ++i) {
        struct Point
        {
            const char* tag;
            int procs;
            double scale;
        };
        const Point points[3] = {
            {"base", procs, base},
            {"4P", procs * 4, base},
            {"4xDS", procs, base * 4.0},
        };
        for (int v = 0; v < 3; ++v) {
            const Point& pt = points[v];
            runner.add(apps[i]->name() + "/" + pt.tag,
                       pt.scale * pt.procs,
                       [&, i, v, pt] {
                           ratios[i][v] = ratioAt(*apps[i], pt.procs,
                                                  pt.scale, eng.sim);
                       });
        }
    }
    runner.run();

    std::printf("Table 3: communication-to-computation ratio "
                "(true-sharing bytes per FLOP or instr) and its "
                "growth; base P=%d, scale %.3g\n\n",
                procs, base);
    Table t({"Code", "C/C", "+cold", "C/C @4P", "x(4P)", "C/C @4xDS",
             "x(4DS)", "paper growth"});
    for (std::size_t i = 0; i < apps.size(); ++i) {
        const Ratio& r0 = ratios[i][0];
        const Ratio& rp = ratios[i][1];
        const Ratio& rd = ratios[i][2];
        // LU communicates producer-to-consumer exactly once per block,
        // which the Dubois scheme classifies as (remote) cold; use the
        // cold-inclusive ratio for growth when true sharing is absent.
        bool use_cold = r0.trueShare < 1e-9;
        auto pick = [&](const Ratio& r) {
            return use_cold ? r.withCold : r.trueShare;
        };
        auto safe = [](double a, double b) {
            return b > 0 ? a / b : 0.0;
        };
        t.row({apps[i]->name(), fmt("%.5f", r0.trueShare),
               fmt("%.5f", r0.withCold), fmt("%.5f", pick(rp)),
               fmt("%.2f", safe(pick(rp), pick(r0))),
               fmt("%.5f", pick(rd)),
               fmt("%.2f", safe(pick(rd), pick(r0))),
               paperGrowth(apps[i]->name())});
    }
    t.print();
    std::printf("\n(x(4P) > 1: communication grows with processors; "
                "x(4DS) < 1: it shrinks with data-set size)\n");
    return 0;
}
