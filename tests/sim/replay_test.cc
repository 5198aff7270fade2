// Tests for the broadcast replay engine: exactness of every replica
// against dedicated serial simulations under fuzzed ring geometries,
// stream-ordered control events (resetStats, streamBarrier), app-level
// differential runs of one multi-configuration pass against a dedicated
// pass per configuration, and golden regressions that pin the
// committed Figure 4 / Figure 7 FFT rows.
#include <gtest/gtest.h>

#include <cstdint>
#include <fstream>
#include <map>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "../rt/run_compare.h"
#include "harness/experiment.h"
#include "sim/memsys.h"
#include "sim/replay.h"

using namespace splash;
using namespace splash::sim;

namespace {

void
expectSameStats(const MemStats& a, const MemStats& b,
                const std::string& what)
{
    EXPECT_EQ(a.reads, b.reads) << what;
    EXPECT_EQ(a.writes, b.writes) << what;
    for (int m = 0; m < kNumMissTypes; ++m)
        EXPECT_EQ(a.misses[m], b.misses[m]) << what << " miss type " << m;
    EXPECT_EQ(a.upgrades, b.upgrades) << what;
    EXPECT_EQ(a.remoteSharedData, b.remoteSharedData) << what;
    EXPECT_EQ(a.remoteColdData, b.remoteColdData) << what;
    EXPECT_EQ(a.remoteCapacityData, b.remoteCapacityData) << what;
    EXPECT_EQ(a.remoteWriteback, b.remoteWriteback) << what;
    EXPECT_EQ(a.remoteOverhead, b.remoteOverhead) << what;
    EXPECT_EQ(a.localData, b.localData) << what;
    EXPECT_EQ(a.trueSharedData, b.trueSharedData) << what;
}

/** Replica set exercising every config axis the benches use: line
 *  sizes, cache sizes, associativity, and replacement hints. */
std::vector<ReplicaSpec>
mixedSpecs(int nprocs)
{
    std::vector<ReplicaSpec> specs(4);
    for (auto& s : specs)
        s.machine.nprocs = nprocs;
    specs[0].machine.cache.lineSize = 16;
    specs[1].machine.cache.size = 8 << 10;
    specs[1].machine.cache.assoc = 1;
    specs[2].machine.replacementHints = false;
    // specs[3] is the default machine.
    return specs;
}

struct Access
{
    ProcId p;
    Addr a;
    AccessType t;
};

/** Build a sink record (sinks now take the full AccessRec). */
AccessRec
rec(ProcId p, Addr a, int size, AccessType t)
{
    AccessRec r;
    r.addr = a;
    r.size = size;
    r.proc = static_cast<std::int16_t>(p);
    r.type = t;
    return r;
}

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
        acc.a = 0x200000 + ((x >> 30) % lines) * 64 + ((x >> 20) % 8) * 8;
        acc.t = ((x >> 13) & 3) == 0 ? AccessType::Write
                                     : AccessType::Read;
        out.push_back(acc);
    }
    return out;
}

} // namespace

// Fuzz: for many (chunk size, ring size, threading) geometries --
// including chunks tiny enough to force constant publish/recycle
// cycling and rings small enough to stall the producer on back-pressure
// -- every replica's statistics must equal a dedicated serial
// simulation of the same stream.
TEST(BroadcastReplay, FuzzedGeometriesMatchSerial)
{
    const int nprocs = 4;
    const auto stream = randomStream(nprocs, 60000, 900, 31337);

    auto specs = mixedSpecs(nprocs);
    std::vector<MemStats> serial;
    for (const auto& spec : specs) {
        MemSystem mem(spec.machine);
        for (const auto& acc : stream)
            mem.access(acc.p, acc.a, 8, acc.t);
        serial.push_back(mem.total());
    }

    struct Geometry
    {
        bool threaded;
        std::size_t chunkRecords;
        int ringChunks;
    };
    const Geometry geoms[] = {
        {true, 64, 2},     // constant back-pressure stalls
        {true, 257, 3},    // odd chunk size, tiny ring
        {true, 1 << 12, 8},
        {false, 128, 2},   // inline replay, tiny chunks
        {false, 1 << 15, 8},
    };
    for (const auto& g : geoms) {
        BroadcastReplay replay(specs, g.threaded, g.chunkRecords,
                               g.ringChunks);
        for (const auto& acc : stream)
            replay.access(rec(acc.p, acc.a, 8, acc.t));
        replay.flush();
        for (int i = 0; i < replay.replicas(); ++i)
            expectSameStats(
                serial[std::size_t(i)], replay.replica(i).total(),
                "replica " + std::to_string(i) + " threaded=" +
                    std::to_string(g.threaded) + " chunk=" +
                    std::to_string(g.chunkRecords) + " ring=" +
                    std::to_string(g.ringChunks));
    }
}

// resetStats must land at the exact stream position in every replica,
// including positions that fall mid-chunk.
TEST(BroadcastReplay, MidStreamResetMatchesSerial)
{
    const int nprocs = 4;
    const auto stream = randomStream(nprocs, 30000, 700, 4242);
    const std::size_t resetAt[] = {1, stream.size() / 3,
                                   stream.size() / 2 + 7};

    auto specs = mixedSpecs(nprocs);
    std::vector<MemStats> serial;
    for (const auto& spec : specs) {
        MemSystem mem(spec.machine);
        for (std::size_t i = 0; i < stream.size(); ++i) {
            for (std::size_t r : resetAt)
                if (i == r)
                    mem.resetStats();
            mem.access(stream[i].p, stream[i].a, 8, stream[i].t);
        }
        serial.push_back(mem.total());
    }

    for (bool threaded : {true, false}) {
        BroadcastReplay replay(specs, threaded, /*chunkRecords=*/512,
                               /*ringChunks=*/3);
        for (std::size_t i = 0; i < stream.size(); ++i) {
            for (std::size_t r : resetAt)
                if (i == r)
                    replay.resetStats();
            replay.access(rec(stream[i].p, stream[i].a, 8, stream[i].t));
        }
        replay.flush();
        for (int i = 0; i < replay.replicas(); ++i)
            expectSameStats(serial[std::size_t(i)],
                            replay.replica(i).total(),
                            "reset replica " + std::to_string(i) +
                                " threaded=" + std::to_string(threaded));
    }
}

// streamBarrier (the placement-mutation quiesce) may appear anywhere in
// the stream, including back-to-back and on empty streams, without
// perturbing any statistics.
TEST(BroadcastReplay, StreamBarriersAreStatisticallyInvisible)
{
    const int nprocs = 2;
    const auto stream = randomStream(nprocs, 20000, 500, 777);

    auto specs = mixedSpecs(nprocs);
    std::vector<MemStats> serial;
    for (const auto& spec : specs) {
        MemSystem mem(spec.machine);
        for (const auto& acc : stream)
            mem.access(acc.p, acc.a, 8, acc.t);
        serial.push_back(mem.total());
    }

    BroadcastReplay replay(specs, true, /*chunkRecords=*/256,
                           /*ringChunks=*/2);
    replay.streamBarrier();  // before any reference
    replay.streamBarrier();  // back-to-back
    for (std::size_t i = 0; i < stream.size(); ++i) {
        replay.access(rec(stream[i].p, stream[i].a, 8, stream[i].t));
        if (i % 3001 == 0)
            replay.streamBarrier();
    }
    replay.flush();
    for (int i = 0; i < replay.replicas(); ++i)
        expectSameStats(serial[std::size_t(i)],
                        replay.replica(i).total(),
                        "barrier replica " + std::to_string(i));
}

// ----------------------------------------------------------------------
// Abort path: a producer that throws mid-stream must never hang the
// consumer pool.  The destructor runs during unwinding, detects it, and
// aborts -- waking consumers blocked waiting for the next chunk --
// instead of flushing a torn stream.

TEST(BroadcastReplay, ProducerExceptionWakesIdleConsumers)
{
    const int nprocs = 4;
    auto specs = mixedSpecs(nprocs);
    const auto stream = randomStream(nprocs, 100, 50, 99);
    // Feed fewer records than one chunk: nothing is ever published, so
    // every consumer is parked waiting for the first chunk when the
    // exception unwinds the producer scope.  If the destructor tried to
    // flush (or forgot to wake them) this test would hang.
    EXPECT_THROW(
        {
            BroadcastReplay replay(specs, /*threaded=*/true,
                                   /*chunkRecords=*/1 << 12,
                                   /*ringChunks=*/2);
            for (const auto& acc : stream)
                replay.access(rec(acc.p, acc.a, 8, acc.t));
            throw std::runtime_error("producer failed mid-stream");
        },
        std::runtime_error);
}

TEST(BroadcastReplay, ProducerExceptionWakesBusyConsumers)
{
    const int nprocs = 4;
    auto specs = mixedSpecs(nprocs);
    // Tiny chunks and minimal ring: consumers are replaying and the
    // producer takes the back-pressure wait; throw from deep inside the
    // stream with chunks in every pipeline state.
    const auto stream = randomStream(nprocs, 40000, 900, 7);
    EXPECT_THROW(
        {
            BroadcastReplay replay(specs, /*threaded=*/true,
                                   /*chunkRecords=*/64,
                                   /*ringChunks=*/2);
            for (std::size_t i = 0; i < stream.size(); ++i) {
                if (i == stream.size() / 2)
                    throw std::runtime_error("producer failed");
                replay.access(rec(stream[i].p, stream[i].a, 8, stream[i].t));
            }
        },
        std::runtime_error);
}

// Differential companion: explicitly aborting leaves the object in a
// safe, quiescent state (idempotent abort, dead-stream accessors), and
// -- unlike a clean flush -- does NOT guarantee replica statistics, so
// the clean half of the same stream must still match serial replay
// while the aborted half makes no promise but must not crash or hang.
TEST(BroadcastReplay, AbortStreamQuiescesAndCleanRunStillMatches)
{
    const int nprocs = 4;
    auto specs = mixedSpecs(nprocs);
    const auto stream = randomStream(nprocs, 20000, 600, 55);

    std::vector<MemStats> serial;
    for (const auto& spec : specs) {
        MemSystem mem(spec.machine);
        for (const auto& acc : stream)
            mem.access(acc.p, acc.a, 8, acc.t);
        serial.push_back(mem.total());
    }

    {
        BroadcastReplay replay(specs, /*threaded=*/true,
                               /*chunkRecords=*/128, /*ringChunks=*/2);
        for (std::size_t i = 0; i < stream.size() / 2; ++i)
            replay.access(rec(stream[i].p, stream[i].a, 8, stream[i].t));
        replay.abortStream();
        EXPECT_TRUE(replay.aborted());
        // Dead stream: further traffic is dropped, quiesce and flush
        // are no-ops, and a second abort is harmless.
        replay.access(rec(0, 0x200000, 8, AccessType::Write));
        replay.streamBarrier();
        replay.flush();
        replay.abortStream();
        EXPECT_TRUE(replay.aborted());
    }  // destructor after abort: must not flush or hang

    BroadcastReplay clean(specs, /*threaded=*/true,
                          /*chunkRecords=*/128, /*ringChunks=*/2);
    for (const auto& acc : stream)
        clean.access(rec(acc.p, acc.a, 8, acc.t));
    clean.flush();
    for (int i = 0; i < clean.replicas(); ++i)
        expectSameStats(serial[std::size_t(i)], clean.replica(i).total(),
                        "post-abort clean replica " + std::to_string(i));
}

// ----------------------------------------------------------------------
// App-level differential: a real application (with barriers, locks,
// placement calls, and measurement resets) characterized under several
// configurations from one pass must produce bit-identical statistics
// to a dedicated pass per configuration, whether that one pass feeds
// its MemSystems directly (Off) or through a threaded broadcast (On,
// on a host with more than one usable CPU).

namespace {

/** The oracle: one single-experiment pass per experiment of @p exps. */
std::vector<harness::RunStats>
dedicatedRuns(harness::App& app, int procs,
              const std::vector<harness::MemExperiment>& exps,
              const harness::AppConfig& cfg)
{
    harness::SimOpts off;
    off.replicas = harness::Replicas::Off;
    std::vector<harness::RunStats> out;
    out.reserve(exps.size());
    for (const harness::MemExperiment& e : exps)
        out.push_back(
            harness::runCharacterizations(app, procs, {e}, cfg, off)[0]);
    return out;
}

} // namespace

TEST(BroadcastReplay, AppCharacterizationsMatchDedicatedRuns)
{
    using namespace splash::harness;
    App* app = findApp("fft");
    ASSERT_NE(app, nullptr);
    AppConfig cfg;
    cfg.scale = 0.25;
    const int procs = 8;

    std::vector<MemExperiment> exps(3);
    exps[0].cache.lineSize = 16;
    exps[1].cache.size = 8 << 10;
    exps[2].hints = false;

    const auto oracle = dedicatedRuns(*app, procs, exps, cfg);
    for (Replicas replicas : {Replicas::Off, Replicas::On}) {
        SimOpts so;
        so.replicas = replicas;
        auto got = runCharacterizations(*app, procs, exps, cfg, so);
        ASSERT_EQ(got.size(), exps.size());
        for (std::size_t i = 0; i < exps.size(); ++i) {
            SCOPED_TRACE("experiment " + std::to_string(i) +
                         (replicas == Replicas::On ? " on" : " off"));
            splash::testing::expectSameRun(oracle[i], got[i]);
        }
    }
}

// Radiosity exercises task stealing, pause/resume, and explicit
// placement (setHome during execution -> streamBarrier under load).
TEST(BroadcastReplay, PlacementHeavyAppMatchesDedicatedRuns)
{
    using namespace splash::harness;
    App* app = findApp("radiosity");
    ASSERT_NE(app, nullptr);
    AppConfig cfg;
    cfg.scale = 0.1;
    const int procs = 4;

    std::vector<MemExperiment> exps(2);
    exps[0].cache.size = 16 << 10;
    exps[1].placed = false;  // interleaved homes replica

    const auto oracle = dedicatedRuns(*app, procs, exps, cfg);
    for (Replicas replicas : {Replicas::Off, Replicas::On}) {
        SimOpts so;
        so.replicas = replicas;
        auto got = runCharacterizations(*app, procs, exps, cfg, so);
        ASSERT_EQ(got.size(), oracle.size());
        for (std::size_t i = 0; i < oracle.size(); ++i)
            expectSameStats(oracle[i].mem, got[i].mem,
                            "radiosity experiment " + std::to_string(i) +
                                (replicas == Replicas::On ? " on"
                                                          : " off"));
    }
}

// ----------------------------------------------------------------------
// Golden regressions: the broadcast engine at the committed benchmark
// operating points must reproduce the committed Figure 4 / Figure 7
// FFT rows exactly (results/fig4.csv and results/fig7.csv are
// generated by the benches themselves; see results/README note in
// EXPERIMENTS.md).

#ifdef SPLASH2_SOURCE_DIR
namespace {

/** Parse a committed CSV into rows keyed by the first two columns. */
std::map<std::pair<std::string, std::string>, std::vector<double>>
loadCsv(const std::string& path, const std::string& app)
{
    std::ifstream in(path);
    EXPECT_TRUE(in.good()) << path;
    std::map<std::pair<std::string, std::string>, std::vector<double>>
        rows;
    std::string line;
    std::getline(in, line);  // header
    while (std::getline(in, line)) {
        std::istringstream ss(line);
        std::string a, key, cell;
        std::getline(ss, a, ',');
        if (a != app)
            continue;
        std::getline(ss, key, ',');
        std::vector<double> vals;
        while (std::getline(ss, cell, ','))
            vals.push_back(std::stod(cell));
        rows[{a, key}] = vals;
    }
    return rows;
}

} // namespace

TEST(BroadcastRegression, ReproducesCommittedFig7FftRows)
{
    using namespace splash::harness;
    auto committed = loadCsv(
        std::string(SPLASH2_SOURCE_DIR) + "/results/fig7.csv", "FFT");
    ASSERT_EQ(committed.size(), 6u) << "six line sizes";

    App* app = findApp("fft");
    ASSERT_NE(app, nullptr);
    AppConfig cfg;  // default scale and problem size (as committed)
    const int procs = 32;
    const int lines[] = {8, 16, 32, 64, 128, 256};
    std::vector<MemExperiment> exps;
    for (int line : lines) {
        MemExperiment e;
        e.cache.lineSize = line;
        exps.push_back(e);
    }
    SimOpts simOpts;
    simOpts.replicas = Replicas::On;
    auto got = runCharacterizations(*app, procs, exps, cfg, simOpts);
    ASSERT_EQ(got.size(), exps.size());

    for (std::size_t j = 0; j < got.size(); ++j) {
        auto it = committed.find({"FFT", std::to_string(lines[j])});
        ASSERT_NE(it, committed.end()) << lines[j];
        const auto& want = it->second;  // cold, cap, true, false, mr%
        ASSERT_EQ(want.size(), 5u);
        const RunStats& r = got[j];
        double acc = double(r.mem.accesses());
        auto per1000 = [&](MissType m) {
            return 1000.0 * double(r.mem.misses[int(m)]) / acc;
        };
        EXPECT_NEAR(per1000(MissType::Cold), want[0], 5e-7);
        EXPECT_NEAR(per1000(MissType::Capacity), want[1], 5e-7);
        EXPECT_NEAR(per1000(MissType::TrueSharing), want[2], 5e-7);
        EXPECT_NEAR(per1000(MissType::FalseSharing), want[3], 5e-7);
        EXPECT_NEAR(100.0 * r.mem.missRate(), want[4], 5e-7);
    }
}

TEST(BroadcastRegression, ReproducesCommittedFig4FftRow)
{
    using namespace splash::harness;
    auto committed = loadCsv(
        std::string(SPLASH2_SOURCE_DIR) + "/results/fig4.csv", "FFT");
    ASSERT_FALSE(committed.empty());

    App* app = findApp("fft");
    ASSERT_NE(app, nullptr);
    AppConfig cfg;  // default scale (as committed)
    const int procs = 32;
    sim::CacheConfig cache;  // 1 MB 4-way 64 B, the Figure 4 machine
    RunStats r = runCharacterizations(
        *app, procs, {experimentFor(cache, {})}, cfg)[0];

    auto it = committed.find({"FFT", std::to_string(procs)});
    ASSERT_NE(it, committed.end());
    const auto& want = it->second;
    ASSERT_EQ(want.size(), 8u);
    double den = trafficDenominator(*app, r.exec);
    ASSERT_GT(den, 0);
    EXPECT_NEAR(double(r.mem.remoteSharedData) / den, want[0], 5e-7);
    EXPECT_NEAR(double(r.mem.remoteColdData) / den, want[1], 5e-7);
    EXPECT_NEAR(double(r.mem.remoteCapacityData) / den, want[2], 5e-7);
    EXPECT_NEAR(double(r.mem.remoteWriteback) / den, want[3], 5e-7);
    EXPECT_NEAR(double(r.mem.remoteOverhead) / den, want[4], 5e-7);
    EXPECT_NEAR(double(r.mem.localData) / den, want[5], 5e-7);
    EXPECT_NEAR(double(r.mem.trueSharedData) / den, want[6], 5e-7);
    EXPECT_NEAR(double(r.mem.totalTraffic()) / den, want[7], 5e-7);
}
#endif
