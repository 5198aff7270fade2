// Tests for the snoopy-bus interconnect mode: differential invariants
// against the directory organization on identical reference streams
// (PRAM timing and miss decomposition may never move; only coherence
// bookkeeping may), bus-occupancy accounting, the bus-specific
// checker rules and fault kinds, the interconnect eligibility gate of
// the fault injector, the 64-processor configuration bound, and a
// golden regression pinning the committed FFT rows of
// results/interconnect.csv.
#include <gtest/gtest.h>

#include <cstdint>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "harness/experiment.h"
#include "sim/bus.h"
#include "sim/check.h"
#include "sim/faultinject.h"
#include "sim/memsys.h"

using namespace splash;
using namespace splash::sim;

namespace {

struct Access
{
    ProcId p;
    Addr a;
    AccessType t;
};

std::vector<Access>
randomStream(int nprocs, int n, std::uint64_t lines, std::uint64_t seed)
{
    std::vector<Access> out;
    out.reserve(n);
    std::uint64_t x = seed;
    for (int i = 0; i < n; ++i) {
        x = x * 6364136223846793005ull + 1442695040888963407ull;
        Access acc;
        acc.p = static_cast<ProcId>((x >> 60) % nprocs);
        acc.a = 0x400000 + ((x >> 30) % lines) * 64 + ((x >> 20) % 8) * 8;
        acc.t = ((x >> 13) & 3) == 0 ? AccessType::Write
                                     : AccessType::Read;
        out.push_back(acc);
    }
    return out;
}

void
warmUp(MemSystem& mem, int nprocs, std::uint64_t seed)
{
    for (const auto& acc : randomStream(nprocs, 30000, 400, seed))
        mem.access(acc.p, acc.a, 8, acc.t);
}

MachineConfig
busMachine(int nprocs, ProtocolKind proto = ProtocolKind::MESI)
{
    MachineConfig mc;
    mc.nprocs = nprocs;
    mc.cache.size = 16 << 10;  // small cache: forces replacements
    mc.protocol = proto;
    mc.interconnect = Interconnect::Bus;
    return mc;
}

/** The rule each bus fault kind must trip (its primary signature).
 *  MOESI and Dragon catch SnoopMissedInval through the owner rule
 *  instead: the surviving copy may legally be Owned, so the seeded
 *  Modified makes a second owner before it makes a dirty-shared
 *  line. */
bool
expectedBusRule(const std::vector<Violation>& v, FaultKind k)
{
    auto has = [&](const char* rule) {
        for (const auto& viol : v)
            if (viol.rule == rule)
                return true;
        return false;
    };
    switch (k) {
      case FaultKind::SnoopMissedInval:
          return has("bus-modified-shared") || has("bus-multiple-owner");
      case FaultKind::DoubleOwner:
          return has("bus-multiple-owner");
      case FaultKind::GhostExclusive:
          return has("bus-exclusive-shared");
      case FaultKind::BusTrafficSkew:
          return has("bus-traffic-conservation");
      default:
          return false;
    }
}

/** One characterization per (protocol, interconnect) pair from ONE
 *  broadcast execution of @p appName -- the bench's replica layout:
 *  [2k] directory, [2k+1] bus of zoo protocol k. */
std::vector<harness::RunStats>
runPairs(const std::string& appName, int procs, double scale)
{
    using namespace splash::harness;
    App* app = findApp(appName);
    EXPECT_NE(app, nullptr) << appName;
    AppConfig cfg;
    cfg.scale = scale;
    std::vector<MachineConfig> machines;
    for (int k = 0; k < kNumProtocols; ++k) {
        for (int ic = 0; ic < kNumInterconnects; ++ic) {
            machines.emplace_back();
            machines.back().protocol = static_cast<ProtocolKind>(k);
            machines.back().interconnect = static_cast<Interconnect>(ic);
        }
    }
    return runCharacterizations(*app, procs, machines, cfg);
}

} // namespace

TEST(Bus, NamesRoundTrip)
{
    for (int i = 0; i < kNumInterconnects; ++i) {
        auto ic = static_cast<Interconnect>(i);
        Interconnect back;
        ASSERT_TRUE(parseInterconnect(interconnectName(ic), &back));
        EXPECT_EQ(back, ic);
    }
    Interconnect ic;
    EXPECT_FALSE(parseInterconnect("crossbar", &ic));
    EXPECT_FALSE(parseInterconnect("Bus", &ic));
    EXPECT_FALSE(parseInterconnect("", &ic));
}

TEST(Bus, OccupancyModelArithmetic)
{
    BusModel b{64, 8};
    EXPECT_EQ(b.addrCycles(), 1);
    EXPECT_EQ(b.lineCycles(), 8);
    EXPECT_EQ(b.updateCycles(), 1);
    // Narrow wires stretch the data phase; the address phase is fixed.
    BusModel narrow{64, 2};
    EXPECT_EQ(narrow.addrCycles(), 1);
    EXPECT_EQ(narrow.lineCycles(), 32);
    EXPECT_EQ(narrow.updateCycles(), 4);
    // Non-multiple line sizes round the last beat up.
    BusModel odd{48, 32};
    EXPECT_EQ(odd.lineCycles(), 2);
}

// The interconnect may change coherence bookkeeping and the traffic
// metric, but never what the program did: misses (per class),
// upgrades, and update broadcasts come from the identical stream and
// the identical protocol table.  Invalidations meet bus >= directory
// (exact-hint directories target exactly the copies a broadcast
// kills).  The two organizations' traffic counters are disjoint.
TEST(Bus, DifferentialAgainstDirectory)
{
    for (const char* name : {"fft", "radix"}) {
        auto r = runPairs(name, 8, 0.25);
        ASSERT_EQ(r.size(), std::size_t(2 * kNumProtocols));
        for (int k = 0; k < kNumProtocols; ++k) {
            const harness::RunStats& d = r[2 * k];
            const harness::RunStats& b = r[2 * k + 1];
            SCOPED_TRACE(std::string(name) + " under " +
                         protocolName(static_cast<ProtocolKind>(k)));
            EXPECT_TRUE(d.valid);
            EXPECT_TRUE(b.valid);
            EXPECT_EQ(d.elapsed, b.elapsed);
            EXPECT_EQ(d.mem.reads, b.mem.reads);
            EXPECT_EQ(d.mem.writes, b.mem.writes);
            for (int m = 0; m < kNumMissTypes; ++m)
                EXPECT_EQ(d.mem.misses[m], b.mem.misses[m])
                    << "miss class " << m;
            EXPECT_EQ(d.mem.upgrades, b.mem.upgrades);
            EXPECT_EQ(d.mem.updates, b.mem.updates);
            EXPECT_GE(b.mem.invalidations, d.mem.invalidations);
            // True sharing is inherent communication -- organization-
            // independent by definition.
            EXPECT_EQ(d.mem.trueSharedData, b.mem.trueSharedData);
            // Disjoint traffic metrics: packets vs occupancy.
            EXPECT_EQ(b.mem.remoteData(), 0u);
            EXPECT_EQ(b.mem.remoteOverhead, 0u);
            EXPECT_EQ(b.mem.localData, 0u);
            EXPECT_GT(b.mem.busTransactions, 0u);
            EXPECT_GT(b.mem.busCycles(), 0u);
            EXPECT_EQ(d.mem.busTransactions, 0u);
            EXPECT_EQ(d.mem.busCycles(), 0u);
            // Every transaction opens with one address phase.
            EXPECT_EQ(b.mem.busAddrCycles, b.mem.busTransactions);
        }
    }
}

// A legitimately reached bus-mode state must be silent under the full
// checker sweep for every registered protocol (the bus-specific rules
// replace the directory cross-validation).
TEST(Bus, CheckerSilentOnCleanStates)
{
    for (int pi = 0; pi < kNumProtocols; ++pi) {
        auto proto = static_cast<ProtocolKind>(pi);
        for (std::uint64_t seed : {1u, 77u, 4096u}) {
            MemSystem mem(busMachine(8, proto));
            warmUp(mem, 8, seed);
            std::vector<Violation> v;
            EXPECT_EQ(CoherenceChecker(mem).checkAll(&v), 0u)
                << protocolName(proto) << " seed=" << seed << "\n"
                << formatViolations(v);
        }
    }
}

// Detection matrix for the bus fault kinds: under every protocol and
// several seeds, each seeded snoop-path corruption must trip the
// checker with the rule that corresponds to it.  The only legal
// ineligibility is GhostExclusive under a protocol without a
// clean-exclusive state (MSI).
TEST(Bus, DetectsEverySeededBusFault)
{
    for (int pi = 0; pi < kNumProtocols; ++pi) {
        auto proto = static_cast<ProtocolKind>(pi);
        for (int ki = 0; ki < kNumFaultKinds; ++ki) {
            auto kind = static_cast<FaultKind>(ki);
            if (!faultKindIsBus(kind))
                continue;
            for (std::uint64_t seed : {0u, 1u, 13u, 1234u}) {
                MemSystem mem(busMachine(8, proto));
                warmUp(mem, 8, 42);
                ASSERT_EQ(CoherenceChecker(mem).checkAll(), 0u)
                    << protocolName(proto);

                std::string what =
                    FaultInjector(mem).inject(kind, seed);
                if (kind == FaultKind::GhostExclusive &&
                    !protocol(proto).hasExclusive) {
                    EXPECT_TRUE(what.empty())
                        << protocolName(proto)
                        << ": no clean-exclusive state to fake";
                    continue;
                }
                ASSERT_FALSE(what.empty())
                    << protocolName(proto) << " " << faultKindName(kind)
                    << " seed " << seed
                    << ": no eligible target in a warmed-up state";

                std::vector<Violation> v;
                std::size_t n = CoherenceChecker(mem).checkAll(&v);
                EXPECT_GT(n, 0u)
                    << protocolName(proto) << " " << faultKindName(kind)
                    << " seed " << seed << ": checker missed " << what;
                EXPECT_TRUE(expectedBusRule(v, kind))
                    << protocolName(proto) << " " << faultKindName(kind)
                    << " seed " << seed
                    << ": expected rule absent from:\n"
                    << formatViolations(v);
            }
        }
    }
}

// Each fault kind corrupts one organization's state: directory kinds
// must report no eligible target on a bus machine (there is no
// directory to corrupt) and bus kinds none on a directory machine.
TEST(Bus, FaultKindsGateOnInterconnect)
{
    MemSystem busMem(busMachine(8));
    warmUp(busMem, 8, 42);
    MachineConfig dmc = busMachine(8);
    dmc.interconnect = Interconnect::Directory;
    MemSystem dirMem(dmc);
    warmUp(dirMem, 8, 42);

    for (int ki = 0; ki < kNumFaultKinds; ++ki) {
        auto kind = static_cast<FaultKind>(ki);
        MemSystem& wrong = faultKindIsBus(kind) ? dirMem : busMem;
        EXPECT_EQ(FaultInjector(wrong).inject(kind, 0), "")
            << faultKindName(kind)
            << " must be ineligible on the other interconnect";
    }
    // ...and the gate must not have perturbed either machine.
    EXPECT_EQ(CoherenceChecker(busMem).checkAll(), 0u);
    EXPECT_EQ(CoherenceChecker(dirMem).checkAll(), 0u);
}

// The wired-in sampled checker works on the bus path too: a live
// violation must abort the run at the next slow-path transaction.
TEST(BusDeathTest, SampledCheckerAbortsOnBusCorruption)
{
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    EXPECT_DEATH(
        {
            MemSystem mem(busMachine(8));
            mem.setCheckPeriod(1);
            warmUp(mem, 8, 42);
            // Occupancy skew can never be repaired by later traffic.
            FaultInjector(mem).inject(FaultKind::BusTrafficSkew, 0);
            warmUp(mem, 8, 43);
        },
        "coherence invariant violated");
}

// The full-map directory tracks sharers in a kMaxProcs-bit mask;
// shifting by >= 64 would be undefined behavior, so the configuration
// layer must reject oversized machines with a clear diagnostic
// instead of wrapping.
TEST(BusDeathTest, SixtyFiveProcessorMachineIsRejected)
{
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    MachineConfig mc;
    mc.nprocs = kMaxProcs + 1;
    EXPECT_EXIT({ MemSystem mem(mc); }, ::testing::ExitedWithCode(1),
                "full-map directory");
    mc.nprocs = 0;
    EXPECT_EXIT({ MemSystem mem(mc); }, ::testing::ExitedWithCode(1),
                "processor count");
    // Validation runs before any member is sized from the config: a
    // negative count or a zero line must get the diagnostic, not a
    // crash inside a member's constructor.
    mc.nprocs = -2;
    EXPECT_EXIT({ MemSystem mem(mc); }, ::testing::ExitedWithCode(1),
                "processor count");
    mc.nprocs = 4;
    mc.cache.lineSize = 0;
    EXPECT_EXIT({ MemSystem mem(mc); }, ::testing::ExitedWithCode(1),
                "line size");
    // A way keeps its state in a line address's low three bits.
    mc.cache.lineSize = 4;
    EXPECT_EXIT({ MemSystem mem(mc); }, ::testing::ExitedWithCode(1),
                "line size must be in \\[8, size\\]");
    mc.cache.lineSize = 64;
    // 2^31 lines, one more than numLines()'s int can count.
    mc.cache.size = std::uint64_t(1) << 37;
    EXPECT_EXIT({ MemSystem mem(mc); }, ::testing::ExitedWithCode(1),
                "line count");
    mc.cache.size = std::uint64_t(1) << 20;
    // The boundary itself is legal.
    mc.nprocs = kMaxProcs;
    mc.interconnect = Interconnect::Bus;
    MemSystem mem(mc);
    warmUp(mem, kMaxProcs, 7);
    EXPECT_EQ(CoherenceChecker(mem).checkAll(), 0u);
}

// An invalid bus width (zero, non-power-of-two, wider than a line)
// must be rejected by the same configuration validation.
TEST(BusDeathTest, BadBusWidthIsRejected)
{
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    MachineConfig mc;
    mc.interconnect = Interconnect::Bus;
    mc.busWidthBytes = 0;
    EXPECT_EXIT({ MemSystem mem(mc); }, ::testing::ExitedWithCode(1),
                "bus width");
    mc.busWidthBytes = 24;
    EXPECT_EXIT({ MemSystem mem(mc); }, ::testing::ExitedWithCode(1),
                "bus width");
    mc.busWidthBytes = 128;  // lineSize is 64
    EXPECT_EXIT({ MemSystem mem(mc); }, ::testing::ExitedWithCode(1),
                "bus width");
}

#ifdef SPLASH2_SOURCE_DIR
// Golden regression: the committed FFT rows of results/interconnect.csv
// must be reproducible bit-for-bit at the bench's default operating
// point (the same broadcast-replica layout, 16 procs, scale 0.5).
TEST(Bus, GoldenInterconnectCsvRowsFFT)
{
    std::ifstream in(std::string(SPLASH2_SOURCE_DIR) +
                     "/results/interconnect.csv");
    ASSERT_TRUE(in.is_open()) << "results/interconnect.csv missing";
    std::map<std::string, std::vector<double>> committed;
    std::string line;
    std::getline(in, line);  // header
    while (std::getline(in, line)) {
        std::istringstream ss(line);
        std::string app, proto, ic, cell;
        std::getline(ss, app, ',');
        if (app != "FFT")
            continue;
        std::getline(ss, proto, ',');
        std::getline(ss, ic, ',');
        std::vector<double> vals;
        while (std::getline(ss, cell, ','))
            vals.push_back(std::stod(cell));
        committed[proto + "," + ic] = vals;
    }
    ASSERT_EQ(committed.size(),
              std::size_t(kNumProtocols * kNumInterconnects));

    auto got = runPairs("fft", 16, 0.5);
    ASSERT_EQ(got.size(),
              std::size_t(kNumProtocols * kNumInterconnects));
    for (int k = 0; k < kNumProtocols; ++k) {
        for (int ic = 0; ic < kNumInterconnects; ++ic) {
            auto proto = static_cast<ProtocolKind>(k);
            auto icv = static_cast<Interconnect>(ic);
            const std::string key = std::string(protocolName(proto)) +
                                    "," + interconnectName(icv);
            auto it = committed.find(key);
            ASSERT_NE(it, committed.end()) << key;
            const auto& want = it->second;
            ASSERT_EQ(want.size(), 6u) << key;
            const MemStats& m = got[2 * k + ic].mem;
            double acc = double(m.accesses());
            ASSERT_GT(acc, 0) << key;
            const bool bus = icv == Interconnect::Bus;
            EXPECT_NEAR(1000.0 * double(m.totalMisses()) / acc,
                        want[0], 5e-7) << key;
            EXPECT_NEAR(1000.0 * double(m.upgrades) / acc, want[1],
                        5e-7) << key;
            EXPECT_NEAR(1000.0 * double(m.invalidations) / acc,
                        want[2], 5e-7) << key;
            EXPECT_NEAR(1000.0 * double(m.updates) / acc, want[3],
                        5e-7) << key;
            EXPECT_NEAR(bus ? 0.0 : double(m.totalTraffic()) / acc,
                        want[4], 5e-7) << key;
            EXPECT_NEAR(bus ? double(m.busCycles()) / acc : 0.0,
                        want[5], 5e-7) << key;
        }
    }
}
#endif
