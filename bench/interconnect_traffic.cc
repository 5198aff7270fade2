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
 * --protocol nor --interconnect.  Every run ends with the bus-versus-
 * directory differential check.  --csv FILE writes the rows with six
 * decimals, so goldens can pin them exactly, beside the text report.
 *
 * Usage: interconnect_traffic [--procs 16] [--scale 0.5] [--quick]
 *                             [--app <name>] [--csv FILE] [--jobs N]
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
    int procs = static_cast<int>(getInRange(opt, "procs", 16, 1, kMaxProcs));
    AppConfig cfg;
    cfg.scale = opt.getD("scale", opt.flag("quick") ? 0.25 : 0.5);
    const std::vector<App*> apps = selectApps(opt);
    CsvFile csv(opt);
    if (!opt.allRead())
        return 2;
    csv.open("app,protocol,interconnect,miss_per_1000,upgrade_per_1000,"
             "inval_per_1000,update_per_1000,traffic_bytes_per_ref,"
             "bus_cycles_per_ref");

    // Machine order: protocol-major, directory before bus, so
    // machines[2*k] and machines[2*k+1] form the comparison pair of zoo
    // protocol k.
    std::vector<sim::MachineConfig> machines;
    for (int k = 0; k < sim::kNumProtocols; ++k) {
        for (int ic = 0; ic < sim::kNumInterconnects; ++ic) {
            machines.push_back(eng.machine);
            machines.back().protocol = static_cast<sim::ProtocolKind>(k);
            machines.back().interconnect = static_cast<sim::Interconnect>(ic);
        }
    }

    std::vector<std::vector<RunStats>> results(apps.size());
    Runner runner(eng.jobs);
    for (std::size_t i = 0; i < apps.size(); ++i) {
        runner.add(apps[i]->name(), 1, [&, i] {
            results[i] = runCharacterizations(*apps[i], procs, machines,
                                              cfg, eng.sim);
        });
    }
    runner.run();

    std::printf("Interconnect comparison: one execution per "
                "application, replayed under every (protocol, "
                "interconnect) pair, %d procs (scale %.3g)\n\n",
                procs, cfg.scale);
    Table t({"Code", "Proto", "Interconn", "Miss/1000", "Inval/1000",
             "Upd/1000", "Bytes/ref", "BusCyc/ref"});
    for (std::size_t i = 0; i < apps.size(); ++i) {
        for (std::size_t j = 0; j < machines.size(); ++j) {
            const sim::MachineConfig& mc = machines[j];
            const sim::MemStats& m = results[i][j].mem;
            const char* ic = sim::interconnectName(mc.interconnect);
            const bool bus = mc.interconnect == sim::Interconnect::Bus;
            const double miss = per1000(m, m.totalMisses());
            const double inval = per1000(m, m.invalidations);
            const double upd = per1000(m, m.updates);
            // The organization's own traffic metric; the other is 0.
            const double bytes = bus ? 0.0 : perRef(m, m.totalTraffic());
            const double cycles = bus ? perRef(m, m.busCycles()) : 0.0;
            t.row({j == 0 ? apps[i]->name() : std::string(),
                   sim::protocol(mc.protocol).display, ic,
                   fmt("%.3f", miss), fmt("%.3f", inval),
                   fmt("%.3f", upd),
                   bus ? std::string("-") : fmt("%.3f", bytes),
                   bus ? fmt("%.3f", cycles) : std::string("-")});
            csv.row(cells({apps[i]->name(),
                           sim::protocolName(mc.protocol), ic},
                          {miss, per1000(m, m.upgrades), inval, upd,
                           bytes, cycles},
                          "%.6f"));
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
