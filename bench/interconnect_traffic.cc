/**
 * @file
 * Bus-vs-directory interconnect comparison (results/interconnect.csv).
 *
 * The paper's machine is a directory CC-NUMA, but the SPLASH-2 suite
 * was equally a workhorse of snoopy-bus studies.  This bench replays
 * the identical reference stream of each application under the full
 * protocol zoo on both interconnect organizations -- every row pair
 * differs ONLY in how coherence is discovered (full-map directory
 * consult vs broadcast snoop of the tag arrays), never in what the
 * program did:
 *
 *  - PRAM timing, miss decomposition, and upgrades are identical by
 *    construction between the members of a pair (the bus snoop
 *    observes silent E->M promotions directly, so even the
 *    true/false-sharing split cannot move).
 *  - Invalidation counts meet bus >= directory: replacement hints
 *    keep the directory's sharer vector exact, so an invalidating
 *    broadcast kills exactly the copies the directory would have
 *    targeted -- any slack would come from stale sharers only.
 *  - The traffic metric is organization-specific: bytes of
 *    request/data/hint packets for the directory, address+data-phase
 *    occupancy cycles of the shared wires for the bus.
 *
 * Engine: all 2 x kNumProtocols machine configurations are fed from
 * ONE pass per application, so the bench reads --check but neither
 * --protocol nor --interconnect.  --csv prints rows with six decimals
 * so goldens can pin them exactly.
 *
 * Usage: interconnect_traffic [--procs 16] [--scale 0.5] [--quick]
 *                             [--app <name>] [--csv] [--jobs N]
 *                             [--replicas off|on] [--check N]
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
        !parseMachineFlags(opt, MachineFlags::Check, &eng))
        return 2;
    int procs = static_cast<int>(opt.getI("procs", 16));
    AppConfig cfg;
    cfg.scale = opt.getD("scale", opt.has("quick") ? 0.25 : 0.5);
    std::string only = opt.getS("app", "");
    bool csv = opt.has("csv");
    if (!opt.allRead())
        return 2;

    std::vector<App*> apps;
    for (App* app : suite())
        if (only.empty() || findApp(only) == app)
            apps.push_back(app);

    // Replica order: protocol-major, directory before bus, so
    // exps[2*k] and exps[2*k+1] form the comparison pair of zoo
    // protocol k.
    std::vector<MemExperiment> exps;
    for (int k = 0; k < sim::kNumProtocols; ++k) {
        for (int ic = 0; ic < sim::kNumInterconnects; ++ic) {
            MemExperiment e;
            e.protocol = static_cast<sim::ProtocolKind>(k);
            e.interconnect = static_cast<sim::Interconnect>(ic);
            exps.push_back(e);
        }
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

    auto per1000 = [](const RunStats& r, std::uint64_t v) {
        double acc = double(r.mem.accesses());
        return acc > 0 ? 1000.0 * double(v) / acc : 0.0;
    };
    auto perRef = [](const RunStats& r, double v) {
        double acc = double(r.mem.accesses());
        return acc > 0 ? v / acc : 0.0;
    };

    if (csv) {
        std::printf("app,protocol,interconnect,miss_per_1000,"
                    "upgrade_per_1000,inval_per_1000,update_per_1000,"
                    "traffic_bytes_per_ref,bus_cycles_per_ref\n");
        for (std::size_t i = 0; i < apps.size(); ++i) {
            for (std::size_t j = 0; j < exps.size(); ++j) {
                const RunStats& r = results[i][j];
                bool bus = exps[j].interconnect ==
                           sim::Interconnect::Bus;
                std::printf(
                    "%s,%s,%s,%.6f,%.6f,%.6f,%.6f,%.6f,%.6f\n",
                    apps[i]->name().c_str(),
                    sim::protocolName(exps[j].protocol),
                    sim::interconnectName(exps[j].interconnect),
                    per1000(r, r.mem.totalMisses()),
                    per1000(r, r.mem.upgrades),
                    per1000(r, r.mem.invalidations),
                    per1000(r, r.mem.updates),
                    bus ? 0.0
                        : perRef(r, double(r.mem.totalTraffic())),
                    bus ? perRef(r, double(r.mem.busCycles()))
                        : 0.0);
            }
        }
        return 0;
    }

    std::printf("Interconnect comparison: one execution per "
                "application, replayed under every (protocol, "
                "interconnect) pair, %d procs (scale %.3g)\n\n",
                procs, cfg.scale);
    Table t({"Code", "Proto", "Interconn", "Miss/1000", "Inval/1000",
             "Upd/1000", "Bytes/ref", "BusCyc/ref"});
    for (std::size_t i = 0; i < apps.size(); ++i) {
        for (std::size_t j = 0; j < exps.size(); ++j) {
            const RunStats& r = results[i][j];
            bool bus =
                exps[j].interconnect == sim::Interconnect::Bus;
            t.row({j == 0 ? apps[i]->name() : std::string(),
                   sim::protocol(exps[j].protocol).display,
                   sim::interconnectName(exps[j].interconnect),
                   fmt("%.3f", per1000(r, r.mem.totalMisses())),
                   fmt("%.3f", per1000(r, r.mem.invalidations)),
                   fmt("%.3f", per1000(r, r.mem.updates)),
                   bus ? std::string("-")
                       : fmt("%.3f", perRef(r, double(
                                            r.mem.totalTraffic()))),
                   bus ? fmt("%.3f",
                             perRef(r, double(r.mem.busCycles())))
                       : std::string("-")});
        }
    }
    t.print();

    // The differential contract this bench (and the golden CSV)
    // rests on: the bus pair member may not disagree with the
    // directory member on anything the interconnect cannot touch.
    int bad = 0;
    for (std::size_t i = 0; i < apps.size(); ++i) {
        for (int k = 0; k < sim::kNumProtocols; ++k) {
            const RunStats& d = results[i][2 * k];
            const RunStats& b = results[i][2 * k + 1];
            if (d.mem.totalMisses() != b.mem.totalMisses() ||
                d.mem.upgrades != b.mem.upgrades ||
                d.mem.updates != b.mem.updates ||
                b.mem.invalidations < d.mem.invalidations) {
                std::fprintf(
                    stderr,
                    "DIFFERENTIAL VIOLATION: %s under %s\n",
                    apps[i]->name().c_str(),
                    sim::protocolName(
                        static_cast<sim::ProtocolKind>(k)));
                ++bad;
            }
        }
    }
    if (bad)
        return 1;
    std::printf("\ndifferential check: bus agrees with directory on "
                "misses/upgrades/updates for every (app, protocol) "
                "pair\n");
    return 0;
}
