/**
 * @file
 * Ablation benches for two design points the paper's machine model
 * takes as given:
 *
 *  1. Replacement hints -- the paper assumes processors notify the
 *     home when they drop shared copies so sharer lists stay exact.
 *     Disabling them trades hint packets for spurious invalidations.
 *  2. Data placement -- each program distributes its data per the
 *     paper's guidelines (blocks at owners, subgrids local, bands
 *     local). Ignoring placement and interleaving all lines across
 *     nodes shows how much of the "local data" traffic placement buys.
 *
 *  3. Coherence protocol -- the paper's machine keeps caches coherent
 *     with an invalidation-based protocol.  Replaying the same stream
 *     under the whole protocol zoo (MSI, MESI, MOESI, update-based
 *     Dragon) separates what the program does from what the protocol
 *     makes of it: upgrades MSI pays for MESI's silent E->M, the
 *     sharing writebacks MOESI's Owned state avoids, the
 *     invalidations Dragon never sends.
 *
 * Engine: all configurations (small-cache hints on/off, 1 MB
 * placed/interleaved, 1 MB under each protocol) are fed from ONE pass
 * per application -- the ablation differences come from the identical
 * reference stream by construction.  Applications are scheduled
 * across host cores (--jobs); output bytes are identical in every
 * mode.  --csv prints the protocol-zoo rows as CSV
 * (results/ablation.csv) and simulates only those four machines.
 *
 * Usage: ablation_protocol [--procs 16] [--scale 0.5] [--app <name>]
 *                          [--csv] [--jobs N] [--replicas off|on]
 *                          [--protocol P] [--check N]
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
    int procs = static_cast<int>(opt.getI("procs", 16));
    AppConfig cfg;
    cfg.scale = opt.getD("scale", opt.has("quick") ? 0.25 : 0.5);
    std::string only = opt.getS("app", "");
    bool csv = opt.has("csv");

    std::uint64_t small = std::uint64_t(opt.getI("cachekb", 16)) << 10;
    if (!opt.allRead())
        return 2;
    std::vector<App*> apps;
    for (App* app : suite())
        if (only.empty() || findApp(only) == app)
            apps.push_back(app);

    // Experiment order: [0] small+hints, [1] small no hints,
    // [2] 1 MB placed (under --protocol, default MESI),
    // [3] 1 MB interleaved, [4..6] 1 MB placed under the three
    // protocols other than [2]'s -- the zoo reuses [2] for the base
    // protocol rather than simulating it twice.  --csv prints only the
    // zoo, so it simulates only the zoo, in zoo order.
    std::vector<MemExperiment> exps;
    if (!csv) {
        exps.resize(4);
        exps[0].cache.size = small;
        exps[1].cache.size = small;
        exps[1].hints = false;
        exps[3].placed = false;
        for (MemExperiment& e : exps)
            e.protocol = eng.sim.protocol;
    }
    std::vector<std::size_t> zooIdx(sim::kNumProtocols);
    for (int k = 0; k < sim::kNumProtocols; ++k) {
        auto proto = static_cast<sim::ProtocolKind>(k);
        if (!csv && proto == eng.sim.protocol) {
            zooIdx[k] = 2;
            continue;
        }
        MemExperiment e;
        e.protocol = proto;
        zooIdx[k] = exps.size();
        exps.push_back(e);
    }

    std::vector<std::vector<RunStats>> results(apps.size());
    Runner runner(eng.jobs);
    for (std::size_t i = 0; i < apps.size(); ++i) {
        runner.add(apps[i]->name(), 1, [&, i] {
            results[i] = runCharacterizations(*apps[i], procs, exps,
                                              cfg, eng.sim);
        });
    }
    runner.run();

    // Protocol-zoo metrics, all per 1000 references of the identical
    // stream; six decimals so goldens can pin rows exactly.
    auto per1000 = [](const RunStats& r, std::uint64_t v) {
        double acc = double(r.mem.accesses());
        return acc > 0 ? 1000.0 * double(v) / acc : 0.0;
    };
    auto perRef = [](const RunStats& r, double v) {
        double acc = double(r.mem.accesses());
        return acc > 0 ? v / acc : 0.0;
    };

    if (csv) {
        std::printf("app,protocol,miss_per_1000,upgrade_per_1000,"
                    "inval_per_1000,update_per_1000,remote_per_ref,"
                    "traffic_per_ref\n");
        for (std::size_t i = 0; i < apps.size(); ++i) {
            for (int k = 0; k < sim::kNumProtocols; ++k) {
                const RunStats& r = results[i][zooIdx[k]];
                std::printf(
                    "%s,%s,%.6f,%.6f,%.6f,%.6f,%.6f,%.6f\n",
                    apps[i]->name().c_str(),
                    sim::protocolName(
                        static_cast<sim::ProtocolKind>(k)),
                    per1000(r, r.mem.totalMisses()),
                    per1000(r, r.mem.upgrades),
                    per1000(r, r.mem.invalidations),
                    per1000(r, r.mem.updates),
                    perRef(r, double(r.mem.remoteData())),
                    perRef(r, double(r.mem.totalTraffic())));
            }
        }
        return 0;
    }

    std::printf("Ablation 1: replacement hints with %llu KB caches "
                "(remote overhead bytes per reference), %d procs\n\n",
                static_cast<unsigned long long>(small >> 10), procs);
    Table t1({"Code", "Ovhd/ref (hints)", "Ovhd/ref (none)", "ratio"});
    for (std::size_t i = 0; i < apps.size(); ++i) {
        const RunStats& with = results[i][0];
        const RunStats& without = results[i][1];
        double a = double(with.mem.remoteOverhead) /
                   double(with.mem.accesses());
        double b = double(without.mem.remoteOverhead) /
                   double(without.mem.accesses());
        t1.row({apps[i]->name(), fmt("%.4f", a), fmt("%.4f", b),
                fmt("%.2f", a > 0 ? b / a : 0.0)});
    }
    t1.print();

    std::printf("\nAblation 2: data placement (fraction of data "
                "traffic that is local), %d procs\n\n",
                procs);
    Table t2({"Code", "Local% (placed)", "Local% (interleaved)",
              "RemoteData/ref placed", "interleaved"});
    for (std::size_t i = 0; i < apps.size(); ++i) {
        const RunStats& placed = results[i][2];
        const RunStats& inter = results[i][3];
        auto localPct = [](const RunStats& r) {
            double data = double(r.mem.localData + r.mem.remoteData());
            return data > 0 ? 100.0 * double(r.mem.localData) / data
                            : 0.0;
        };
        t2.row({apps[i]->name(), fmt("%.1f", localPct(placed)),
                fmt("%.1f", localPct(inter)),
                fmt("%.3f", double(placed.mem.remoteData()) /
                                double(placed.mem.accesses())),
                fmt("%.3f", double(inter.mem.remoteData()) /
                                double(inter.mem.accesses()))});
    }
    t2.print();

    std::printf("\nAblation 3: coherence protocol with 1 MB caches "
                "(per 1000 references of the same stream), %d procs\n\n",
                procs);
    Table t3({"Code", "Proto", "Miss/1000", "Upgr/1000", "Inval/1000",
              "Upd/1000", "RemData/ref", "Traffic/ref"});
    for (std::size_t i = 0; i < apps.size(); ++i) {
        for (int k = 0; k < sim::kNumProtocols; ++k) {
            const RunStats& r = results[i][zooIdx[k]];
            t3.row({k == 0 ? apps[i]->name() : std::string(),
                    sim::protocol(static_cast<sim::ProtocolKind>(k))
                        .display,
                    fmt("%.3f", per1000(r, r.mem.totalMisses())),
                    fmt("%.3f", per1000(r, r.mem.upgrades)),
                    fmt("%.3f", per1000(r, r.mem.invalidations)),
                    fmt("%.3f", per1000(r, r.mem.updates)),
                    fmt("%.3f", perRef(r, double(r.mem.remoteData()))),
                    fmt("%.3f",
                        perRef(r, double(r.mem.totalTraffic())))});
        }
    }
    t3.print();
    return 0;
}
