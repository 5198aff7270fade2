// The happens-before race detector, tested at three levels:
//
//  1. Hand-built streams into a bare RaceChecker: lock-, barrier-, and
//     flag-ordered streams must be clean; genuinely racy streams must
//     be reported with exact address and processor-pair attribution;
//     the FastTrack read-shared promotion, atomic exclusion, and
//     word-vs-line granularity behaviors are pinned.
//  2. Seeded edge-drop injection on real programs (mirroring the
//     --race-inject harness): every dropped acquire edge must surface
//     as a race involving the processor whose edge was elided, across
//     several seeds.
//  3. The verification result itself: the whole suite is race-free at
//     word granularity, the detector's sync census agrees exactly with
//     the runtime's Figure-2 wait counters, attaching the detector
//     changes no characterization statistic, and broadcast-replay race
//     replicas reproduce the dedicated-run outcome bit for bit.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>

#include "harness/app.h"
#include "harness/experiment.h"
#include "sim/racecheck.h"

using namespace splash;
using namespace splash::sim;
using namespace splash::harness;

namespace {

AccessRec
acc(int p, Addr a, int size, AccessType t, std::uint8_t flags = 0,
    Tick lt = 0)
{
    AccessRec r;
    r.addr = a;
    r.ltime = lt;
    r.size = size;
    r.proc = static_cast<std::int16_t>(p);
    r.type = t;
    r.flags = flags;
    return r;
}

SyncRec
syn(int p, std::uint32_t obj, SyncOp op, SyncPrim prim)
{
    SyncRec r;
    r.obj = obj;
    r.proc = static_cast<std::int16_t>(p);
    r.op = op;
    r.prim = prim;
    return r;
}

RaceConfig
wordCfg(int nprocs)
{
    RaceConfig c;
    c.gran = RaceGranularity::Word;
    c.nprocs = nprocs;
    return c;
}

RaceConfig
lineCfg(int nprocs, int line)
{
    RaceConfig c;
    c.gran = RaceGranularity::Line;
    c.nprocs = nprocs;
    c.lineSize = line;
    return c;
}

constexpr Addr kA = 0x100000000ull;  // sim-address-like base

} // namespace

// ---------------------------------------------------------------------
// Hand-built streams
// ---------------------------------------------------------------------

TEST(RaceCheckCore, LockOrderedStreamIsClean)
{
    RaceChecker rc(wordCfg(2));
    rc.sync(syn(0, 0, SyncOp::Acquire, SyncPrim::Lock));
    rc.access(acc(0, kA, 4, AccessType::Write));
    rc.sync(syn(0, 0, SyncOp::Release, SyncPrim::Lock));
    rc.sync(syn(1, 0, SyncOp::Acquire, SyncPrim::Lock));
    rc.access(acc(1, kA, 4, AccessType::Read));
    rc.access(acc(1, kA, 4, AccessType::Write));
    rc.sync(syn(1, 0, SyncOp::Release, SyncPrim::Lock));
    EXPECT_TRUE(rc.outcome().clean());
    EXPECT_EQ(rc.outcome().census.lockAcquires, 2u);
    EXPECT_EQ(rc.outcome().census.lockReleases, 2u);
}

TEST(RaceCheckCore, UnorderedWritesRaceWithExactAttribution)
{
    RaceChecker rc(wordCfg(4));
    rc.access(acc(0, kA + 64, 4, AccessType::Write, 0, /*lt=*/7));
    rc.access(acc(2, kA + 64, 4, AccessType::Write, 0, /*lt=*/9));
    RaceOutcome o = rc.outcome();
    ASSERT_EQ(o.races, 1u);
    ASSERT_EQ(o.reports.size(), 1u);
    const RaceReport& r = o.reports[0];
    EXPECT_EQ(r.granule, kA + 64);
    EXPECT_EQ(r.bytes, 4);
    EXPECT_EQ(r.prev.proc, 0);
    EXPECT_EQ(r.prev.type, AccessType::Write);
    EXPECT_EQ(r.prev.ltime, 7u);
    EXPECT_EQ(r.cur.proc, 2);
    EXPECT_EQ(r.cur.type, AccessType::Write);
    EXPECT_EQ(r.cur.ltime, 9u);
}

TEST(RaceCheckCore, UnorderedWriteThenReadRaces)
{
    RaceChecker rc(wordCfg(2));
    rc.access(acc(0, kA, 4, AccessType::Write));
    rc.access(acc(1, kA, 4, AccessType::Read));
    RaceOutcome o = rc.outcome();
    ASSERT_EQ(o.races, 1u);
    EXPECT_EQ(o.reports[0].prev.type, AccessType::Write);
    EXPECT_EQ(o.reports[0].cur.type, AccessType::Read);
}

TEST(RaceCheckCore, ConcurrentReadsDoNotRace)
{
    RaceChecker rc(wordCfg(3));
    rc.access(acc(0, kA, 4, AccessType::Read));
    rc.access(acc(1, kA, 4, AccessType::Read));
    rc.access(acc(2, kA, 4, AccessType::Read));
    EXPECT_TRUE(rc.outcome().clean());
}

TEST(RaceCheckCore, BarrierRendezvousOrdersAllPairs)
{
    // Each processor writes its own word, all cross a barrier, then
    // each reads (and rewrites) its neighbor's word: the all-to-all
    // rendezvous must order every pair, including two processors that
    // arrived in either order.
    const int n = 3;
    RaceChecker rc(wordCfg(n));
    for (int p = 0; p < n; ++p)
        rc.access(acc(p, kA + 4 * Addr(p), 4, AccessType::Write));
    for (int p = 0; p < n; ++p)
        rc.sync(syn(p, 0, SyncOp::Release, SyncPrim::Barrier));
    for (int p = 0; p < n; ++p)
        rc.sync(syn(p, 0, SyncOp::Acquire, SyncPrim::Barrier));
    for (int p = 0; p < n; ++p) {
        Addr other = kA + 4 * Addr((p + 1) % n);
        rc.access(acc(p, other, 4, AccessType::Read));
    }
    EXPECT_TRUE(rc.outcome().clean());
    EXPECT_EQ(rc.census().barrierArrivals, 3u);
    EXPECT_EQ(rc.census().barrierDepartures, 3u);
}

TEST(RaceCheckCore, MissingBarrierDepartureRaces)
{
    // Same rendezvous, but P1 never acquires (skipped departure):
    // P1's read of P0's word is unordered with P0's write.
    RaceChecker rc(wordCfg(2));
    rc.access(acc(0, kA, 4, AccessType::Write));
    rc.sync(syn(0, 0, SyncOp::Release, SyncPrim::Barrier));
    rc.sync(syn(1, 0, SyncOp::Release, SyncPrim::Barrier));
    rc.sync(syn(0, 0, SyncOp::Acquire, SyncPrim::Barrier));
    // P1's acquire elided.
    rc.access(acc(1, kA, 4, AccessType::Read));
    RaceOutcome o = rc.outcome();
    ASSERT_EQ(o.races, 1u);
    EXPECT_EQ(o.reports[0].prev.proc, 0);
    EXPECT_EQ(o.reports[0].cur.proc, 1);
}

TEST(RaceCheckCore, FlagOrderedStreamIsClean)
{
    RaceChecker rc(wordCfg(2));
    rc.access(acc(0, kA, 4, AccessType::Write));
    rc.sync(syn(0, 5, SyncOp::Release, SyncPrim::Flag));  // set
    rc.sync(syn(1, 5, SyncOp::Acquire, SyncPrim::Flag));  // wait
    rc.access(acc(1, kA, 4, AccessType::Read));
    EXPECT_TRUE(rc.outcome().clean());
    EXPECT_EQ(rc.census().flagSets, 1u);
    EXPECT_EQ(rc.census().flagWaits, 1u);
}

TEST(RaceCheckCore, ReadWithoutFlagWaitRaces)
{
    RaceChecker rc(wordCfg(2));
    rc.access(acc(0, kA, 4, AccessType::Write));
    rc.sync(syn(0, 5, SyncOp::Release, SyncPrim::Flag));
    rc.access(acc(1, kA, 4, AccessType::Read));  // no wait
    EXPECT_EQ(rc.outcome().races, 1u);
}

TEST(RaceCheckCore, ReadSharedPromotionReportsEveryReader)
{
    // Two concurrent readers force the epoch -> vector-clock
    // promotion; an unordered write must then race with *both*.
    RaceChecker rc(wordCfg(3));
    rc.access(acc(1, kA, 4, AccessType::Read));
    rc.access(acc(2, kA, 4, AccessType::Read));
    EXPECT_TRUE(rc.outcome().clean());
    rc.access(acc(0, kA, 4, AccessType::Write));
    RaceOutcome o = rc.outcome();
    EXPECT_EQ(o.races, 2u);  // (0,1) and (0,2) on the same word
    EXPECT_EQ(o.racyGranules, 1u);
    bool saw1 = false, saw2 = false;
    for (const RaceReport& r : o.reports) {
        EXPECT_EQ(r.cur.proc, 0);
        EXPECT_EQ(r.prev.type, AccessType::Read);
        saw1 = saw1 || r.prev.proc == 1;
        saw2 = saw2 || r.prev.proc == 2;
    }
    EXPECT_TRUE(saw1);
    EXPECT_TRUE(saw2);
}

TEST(RaceCheckCore, AtomicAnnotatedAccessesAreExcluded)
{
    RaceChecker rc(wordCfg(2));
    rc.access(acc(0, kA, 4, AccessType::Write, AccessRec::kAtomic));
    rc.access(acc(1, kA, 4, AccessType::Write, AccessRec::kAtomic));
    rc.access(acc(1, kA, 4, AccessType::Read, AccessRec::kAtomic));
    EXPECT_TRUE(rc.outcome().clean());
    EXPECT_EQ(rc.outcome().granulesTracked, 0u);
}

TEST(RaceCheckCore, LineGranularityFlagsFalseSharingWordDoesNot)
{
    // Two processors write *different* words of the same 64-byte
    // line, unordered: no data race, pure false sharing.
    RaceChecker word(wordCfg(2));
    word.access(acc(0, kA, 4, AccessType::Write));
    word.access(acc(1, kA + 40, 4, AccessType::Write));
    EXPECT_TRUE(word.outcome().clean());

    RaceChecker line(lineCfg(2, 64));
    line.access(acc(0, kA, 4, AccessType::Write));
    line.access(acc(1, kA + 40, 4, AccessType::Write));
    RaceOutcome o = line.outcome();
    ASSERT_EQ(o.races, 1u);
    EXPECT_EQ(o.granuleBytes, 64);
    EXPECT_EQ(o.reports[0].granule, kA);  // line-aligned
    EXPECT_EQ(o.reports[0].bytes, 64);
}

TEST(RaceCheckCore, SpanningAccessChecksEveryGranule)
{
    // An 8-byte access covers two words; a conflicting write to the
    // *second* word must still be caught, attributed to that word.
    RaceChecker rc(wordCfg(2));
    rc.access(acc(0, kA, 8, AccessType::Write));
    rc.access(acc(1, kA + 4, 4, AccessType::Write));
    RaceOutcome o = rc.outcome();
    ASSERT_EQ(o.races, 1u);
    EXPECT_EQ(o.reports[0].granule, kA + 4);
}

TEST(RaceCheckCore, RepeatedConflictsDedupToOnePair)
{
    RaceChecker rc(wordCfg(2));
    for (int i = 0; i < 3; ++i) {
        rc.access(acc(0, kA, 4, AccessType::Write));
        rc.access(acc(1, kA, 4, AccessType::Write));
    }
    RaceOutcome o = rc.outcome();
    EXPECT_EQ(o.races, 1u);
    EXPECT_EQ(o.racyGranules, 1u);
    EXPECT_GE(o.dynamicRaces, 2u);
    EXPECT_EQ(o.reports.size(), 1u);
}

TEST(RaceCheckCore, ResetStatsKeepsOrderingState)
{
    // A pre-window write still races with an in-window access: the
    // reset drops tallies, never the clocks or shadow state.
    RaceChecker rc(wordCfg(2));
    rc.access(acc(0, kA, 4, AccessType::Write));
    rc.resetStats();
    EXPECT_TRUE(rc.outcome().clean());
    rc.access(acc(1, kA, 4, AccessType::Read));
    EXPECT_EQ(rc.outcome().races, 1u);
}

TEST(RaceCheckCore, SummaryMentionsConflicts)
{
    RaceChecker rc(wordCfg(2));
    rc.access(acc(0, kA, 4, AccessType::Write));
    rc.access(acc(1, kA, 4, AccessType::Write));
    std::string s = rc.summary();
    EXPECT_NE(s.find("1 conflict pair"), std::string::npos);
    EXPECT_NE(s.find("P0 write"), std::string::npos);
    EXPECT_NE(s.find("P1 write"), std::string::npos);
}

TEST(RaceCheckCore, ProcessorCountOutsideTheClocksIsFatal)
{
    // splash2run refuses such a --procs at the flag; a library caller
    // gets the checker's own diagnostic.
    EXPECT_EXIT({ RaceChecker rc(wordCfg(100)); },
                ::testing::ExitedWithCode(1),
                "race checker processor count must be in \\[1, 64\\] "
                "\\(got 100\\)");
}

TEST(RaceCheckCore, LineGranuleBelowFourBytesIsFatal)
{
    // splash2run refuses a --line below 8 at the flag; a library
    // caller gets the checker's own diagnostic.
    EXPECT_EXIT({ RaceChecker rc(lineCfg(2, 3)); },
                ::testing::ExitedWithCode(1),
                "race line size must be a power of two >= 4");
}

TEST(RaceCheckCore, GranularityNamesRoundTrip)
{
    RaceGranularity g;
    EXPECT_TRUE(parseRaceGranularity("off", &g));
    EXPECT_EQ(g, RaceGranularity::Off);
    EXPECT_TRUE(parseRaceGranularity("word", &g));
    EXPECT_EQ(g, RaceGranularity::Word);
    EXPECT_TRUE(parseRaceGranularity("line", &g));
    EXPECT_EQ(g, RaceGranularity::Line);
    EXPECT_FALSE(parseRaceGranularity("byte", &g));
    EXPECT_FALSE(parseRaceGranularity("", &g));
    RaceFault k;
    for (int i = 0; i < kNumRaceFaults; ++i) {
        RaceFault want = static_cast<RaceFault>(i);
        ASSERT_TRUE(parseRaceFault(raceFaultName(want), &k));
        EXPECT_EQ(k, want);
    }
    EXPECT_FALSE(parseRaceFault("drop-everything", &k));
}

// ---------------------------------------------------------------------
// Edge-drop injection on hand-built streams
// ---------------------------------------------------------------------

TEST(RaceCheckInject, DroppedLockAcquireExposesTheRace)
{
    // Two lock-ordered critical sections; dropping the second
    // acquire (occurrence 1) makes them race.
    auto run = [](RaceChecker& rc) {
        rc.sync(syn(0, 0, SyncOp::Acquire, SyncPrim::Lock));
        rc.access(acc(0, kA, 4, AccessType::Write));
        rc.sync(syn(0, 0, SyncOp::Release, SyncPrim::Lock));
        rc.sync(syn(1, 0, SyncOp::Acquire, SyncPrim::Lock));
        rc.access(acc(1, kA, 4, AccessType::Write));
        rc.sync(syn(1, 0, SyncOp::Release, SyncPrim::Lock));
    };
    RaceChecker base(wordCfg(2));
    run(base);
    EXPECT_TRUE(base.outcome().clean());
    ASSERT_EQ(base.edgeCount(RaceFault::DropLockAcquire), 2u);

    RaceChecker rc(wordCfg(2));
    rc.dropEdge(RaceFault::DropLockAcquire, 1);
    run(rc);
    EXPECT_TRUE(rc.dropFired());
    EXPECT_EQ(rc.droppedProc(), 1);
    RaceOutcome o = rc.outcome();
    ASSERT_EQ(o.races, 1u);
    EXPECT_EQ(o.reports[0].granule, kA);
    EXPECT_EQ(o.reports[0].prev.proc, 0);
    EXPECT_EQ(o.reports[0].cur.proc, 1);
}

TEST(RaceCheckInject, EdgeCountsAreKeyedByKind)
{
    RaceChecker rc(wordCfg(2));
    rc.sync(syn(0, 0, SyncOp::Acquire, SyncPrim::Lock));
    rc.sync(syn(0, 1, SyncOp::Release, SyncPrim::Barrier));
    rc.sync(syn(0, 1, SyncOp::Acquire, SyncPrim::Barrier));
    rc.sync(syn(1, 2, SyncOp::Acquire, SyncPrim::Flag));
    EXPECT_EQ(rc.edgeCount(RaceFault::DropLockAcquire), 1u);
    EXPECT_EQ(rc.edgeCount(RaceFault::DropBarrierEdge), 1u);
    EXPECT_EQ(rc.edgeCount(RaceFault::DropFlagWait), 1u);
}

// ---------------------------------------------------------------------
// Real programs
// ---------------------------------------------------------------------

namespace {

AppConfig
smallCfg()
{
    AppConfig cfg;
    cfg.scale = 0.25;
    return cfg;
}

/** Injection on a real program, mirroring splash2run --race-inject:
 *  baseline must be clean, and for every fault kind selected in the
 *  @p kinds bitmask (bit = RaceFault value) a dropped edge must be
 *  reported as a race involving the dropped processor.  Kinds whose
 *  edges are all individually redundant in this program -- radix
 *  brackets each pass with back-to-back barriers, so either one alone
 *  orders the cross-pass accesses -- are excluded by the caller. */
void
expectInjectedRacesCaught(const char* appName, int procs,
                          unsigned kinds, bool* exercised)
{
    App* app = findApp(appName);
    ASSERT_NE(app, nullptr) << appName;
    AppConfig cfg = smallCfg();
    SimOpts so;

    std::uint64_t edges[kNumRaceFaults] = {};
    {
        RaceChecker base(wordCfg(procs));
        RunStats r = runPram(*app, procs, cfg, so, &base);
        ASSERT_TRUE(r.valid) << appName;
        ASSERT_TRUE(base.outcome().clean())
            << appName << " baseline:\n"
            << base.summary();
        for (int k = 0; k < kNumRaceFaults; ++k)
            edges[k] = base.edgeCount(static_cast<RaceFault>(k));
    }

    // Not every occurrence of an edge is load-bearing: a lock's first
    // acquire after the phase barrier is ordered by that barrier
    // anyway, and a final barrier departure orders no later access.
    // Benign occurrences cluster, so attempts stride across the whole
    // occurrence space from a seeded origin until a dropped edge is
    // exposed as a race attributed to the dropped processor.
    constexpr std::uint64_t kMaxAttempts = 16;
    for (int k = 0; k < kNumRaceFaults; ++k) {
        if (edges[k] == 0 || !(kinds & (1u << k)))
            continue;
        for (std::uint64_t seed : {1ull, 12345ull, 987654321ull}) {
            bool caught = false;
            const std::uint64_t tries = std::min(kMaxAttempts, edges[k]);
            const std::uint64_t stride =
                std::max<std::uint64_t>(1, edges[k] / tries);
            for (std::uint64_t t = 0; t < tries && !caught; ++t) {
                RaceChecker chk(wordCfg(procs));
                chk.dropEdge(static_cast<RaceFault>(k),
                             (seed + t * stride) % edges[k]);
                runPram(*app, procs, cfg, so, &chk);
                EXPECT_TRUE(chk.dropFired())
                    << appName << " " << raceFaultName(RaceFault(k))
                    << " seed " << seed << " attempt " << t;
                if (!chk.dropFired())
                    break;
                RaceOutcome o = chk.outcome();
                if (o.clean())
                    continue;  // benign drop; try the next occurrence
                for (const RaceReport& rep : o.reports)
                    caught = caught ||
                             rep.prev.proc == chk.droppedProc() ||
                             rep.cur.proc == chk.droppedProc();
            }
            EXPECT_TRUE(caught)
                << appName << " " << raceFaultName(RaceFault(k))
                << " seed " << seed << ": none of " << tries
                << " dropped occurrences exposed an attributed race";
            if (caught)
                exercised[k] = true;
        }
    }
}

} // namespace

TEST(RaceCheckApps, InjectedRacesDetectedAcrossSeeds)
{
    // Water-Sp covers locks, Radix covers flags, FFT covers barriers;
    // together every fault kind must be exercised.  Radix's barriers
    // are deliberately not injected: each pass is bracketed by
    // back-to-back barriers (permute, barrier, swap, barrier), so
    // every single departure edge is individually redundant and no
    // drop can expose a race -- which the CLI harness reports as
    // benign, not as a miss.
    bool exercised[kNumRaceFaults] = {false, false, false};
    const unsigned lock = 1u << int(RaceFault::DropLockAcquire);
    const unsigned barrier = 1u << int(RaceFault::DropBarrierEdge);
    const unsigned flag = 1u << int(RaceFault::DropFlagWait);
    expectInjectedRacesCaught("water-sp", 4, lock, exercised);
    expectInjectedRacesCaught("radix", 4, flag, exercised);
    expectInjectedRacesCaught("fft", 4, barrier, exercised);
    for (int k = 0; k < kNumRaceFaults; ++k)
        EXPECT_TRUE(exercised[k])
            << raceFaultName(static_cast<RaceFault>(k))
            << " never had an eligible edge";
}

TEST(RaceCheckApps, SuiteIsRaceFreeAtWordGranularityAndCensusAgrees)
{
    // The verification result (CI re-runs it at 8 processors through
    // splash2run --race word), plus the golden cross-check: the
    // detector's sync census must agree exactly with the runtime's
    // Figure-2 wait counters -- two independent paths from the same
    // primitives.
    const int procs = 4;
    for (App* app : suite()) {
        RaceChecker race(wordCfg(procs));
        RunStats r = runPram(*app, procs, smallCfg(), {}, &race);
        ASSERT_TRUE(r.valid) << app->name();
        const RaceOutcome o = race.outcome();
        EXPECT_TRUE(o.clean()) << app->name() << ":\n" << raceSummary(o);
        std::uint64_t barriers = 0, locks = 0, pauses = 0;
        for (const rt::ProcStats& p : r.perProc) {
            barriers += p.barriers;
            locks += p.locks;
            pauses += p.pauses;
        }
        EXPECT_EQ(o.census.barrierArrivals, barriers) << app->name();
        EXPECT_EQ(o.census.lockAcquires, locks) << app->name();
        EXPECT_EQ(o.census.flagWaits, pauses) << app->name();
        EXPECT_EQ(o.census.lockReleases, locks) << app->name();
    }
}

TEST(RaceCheckApps, FftSyncCensusPinned)
{
    // Golden counts for one app at a fixed operating point: FFT at 4
    // processors does only barriers (no locks, no flags), and every
    // processor crosses each of the program's barriers.
    const int procs = 4;
    App* fft = findApp("fft");
    ASSERT_NE(fft, nullptr);
    RaceChecker race(wordCfg(procs));
    RunStats r = runPram(*fft, procs, smallCfg(), {}, &race);
    ASSERT_TRUE(r.valid);
    const SyncCensus& c = race.census();
    EXPECT_EQ(c.lockAcquires, 0u);
    EXPECT_EQ(c.flagWaits, 0u);
    EXPECT_EQ(c.flagSets, 0u);
    ASSERT_FALSE(r.perProc.empty());
    const std::uint64_t perProc = r.perProc[0].barriers;
    EXPECT_GT(perProc, 0u);
    for (const rt::ProcStats& p : r.perProc)
        EXPECT_EQ(p.barriers, perProc);  // SPMD: same barrier count
    EXPECT_EQ(c.barrierArrivals, perProc * procs);
    EXPECT_EQ(c.barrierDepartures, c.barrierArrivals);
}

TEST(RaceCheckApps, CharacterizationStatsUnchangedByRaceChecking)
{
    // --race is observation only: every execution and memory-system
    // statistic must be byte-identical with the detector attached.
    const int procs = 4;
    App* app = findApp("lu");
    ASSERT_NE(app, nullptr);
    const std::vector<MachineConfig> paper(1);  // the paper's machine

    const SimOpts so;
    RunStats a = runCharacterizations(*app, procs, paper, smallCfg(), so)[0];
    RaceChecker word(wordCfg(procs));
    RunStats b = runCharacterizations(*app, procs, paper, smallCfg(), so,
                                      &word)[0];

    ASSERT_TRUE(a.valid);
    ASSERT_TRUE(b.valid);
    EXPECT_GT(word.census().barrierArrivals, 0u) << "checker rode the pass";
    EXPECT_EQ(a.elapsed, b.elapsed);
    EXPECT_EQ(0, std::memcmp(&a.mem, &b.mem, sizeof(a.mem)));
    ASSERT_EQ(a.perProc.size(), b.perProc.size());
    for (std::size_t p = 0; p < a.perProc.size(); ++p)
        EXPECT_EQ(0, std::memcmp(&a.perProc[p], &b.perProc[p],
                                 sizeof(rt::ProcStats)))
            << "P" << p;
    ASSERT_EQ(a.memPerProc.size(), b.memPerProc.size());
    for (std::size_t p = 0; p < a.memPerProc.size(); ++p)
        EXPECT_EQ(0, std::memcmp(&a.memPerProc[p], &b.memPerProc[p],
                                 sizeof(MemStats)))
            << "P" << p;
}

namespace {

void
expectSameOutcome(const RaceOutcome& a, const RaceOutcome& b,
                  const char* what)
{
    EXPECT_EQ(a.gran, b.gran) << what;
    EXPECT_EQ(a.granuleBytes, b.granuleBytes) << what;
    EXPECT_EQ(a.races, b.races) << what;
    EXPECT_EQ(a.racyGranules, b.racyGranules) << what;
    EXPECT_EQ(a.dynamicRaces, b.dynamicRaces) << what;
    EXPECT_EQ(a.granulesTracked, b.granulesTracked) << what;
    EXPECT_EQ(a.census.barrierArrivals, b.census.barrierArrivals)
        << what;
    EXPECT_EQ(a.census.barrierDepartures, b.census.barrierDepartures)
        << what;
    EXPECT_EQ(a.census.lockAcquires, b.census.lockAcquires) << what;
    EXPECT_EQ(a.census.lockReleases, b.census.lockReleases) << what;
    EXPECT_EQ(a.census.flagSets, b.census.flagSets) << what;
    EXPECT_EQ(a.census.flagWaits, b.census.flagWaits) << what;
}

} // namespace

TEST(RaceCheckApps, BroadcastRaceReplicasMatchDedicatedRuns)
{
    // A caller-owned checker shares the one pass with the memory
    // systems: riding a two-line-size characterization, it must report
    // exactly what a checker riding a dedicated PRAM pass reports, in
    // both replica modes (under On, on the threaded broadcast beside
    // the two MemSystems) and at word and line grain.
    const int procs = 4;
    App* app = findApp("radix");  // barriers + flags in one program
    ASSERT_NE(app, nullptr);
    std::vector<MachineConfig> exps(2);
    exps[0].cache.lineSize = 64;
    exps[1].cache.lineSize = 32;

    for (RaceConfig rc : {wordCfg(procs), lineCfg(procs, 32)}) {
        SimOpts off;
        off.replicas = Replicas::Off;
        RaceChecker dedicated(rc);
        runPram(*app, procs, smallCfg(), off, &dedicated);
        const RaceOutcome want = dedicated.outcome();
        ASSERT_EQ(want.granuleBytes, rc.gran == RaceGranularity::Word
                                         ? 4
                                         : rc.lineSize);

        for (Replicas replicas : {Replicas::Off, Replicas::On}) {
            SimOpts so;
            so.replicas = replicas;
            const std::string what =
                std::string(rc.gran == RaceGranularity::Word ? "word"
                                                             : "line") +
                (replicas == Replicas::On ? "/on" : "/off");
            RaceChecker rider(rc);
            auto got = runCharacterizations(*app, procs, exps, smallCfg(),
                                            so, &rider);
            ASSERT_EQ(got.size(), 2u);
            expectSameOutcome(want, rider.outcome(), what.c_str());
        }
    }
}
