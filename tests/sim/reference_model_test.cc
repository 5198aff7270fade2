// Cross-validation of MemSystem against an independently written
// reference model of the same protocol (unbounded maps instead of tag
// arrays for the infinite-cache case; straightforward per-line state
// machine). Any divergence in hit/miss decisions, state transitions,
// or invalidation sets is a bug in one of the two implementations.
//
// The same seeded streams also cross-validate the two reference
// delivery shapes (direct call-per-access versus the batched ring
// drained at scheduling boundaries) and processor-range sweep shards
// against the whole sweep: all must be state- and statistics-exact.
#include <gtest/gtest.h>

#include <map>
#include <set>
#include <vector>

#include "../rt/run_compare.h"
#include "rt/env.h"
#include "sim/memsys.h"
#include "sim/sweep.h"

using namespace splash;
using namespace splash::sim;

namespace {

/** Reference MESI model with infinite caches. */
class RefModel
{
  public:
    explicit RefModel(int nprocs) : caches_(nprocs) {}

    enum class St { I, S, E, M };

    /** Returns true on a miss (line not valid in p's cache). */
    bool
    access(int p, Addr line, bool write)
    {
        St st = stateOf(p, line);
        if (!write) {
            if (st != St::I)
                return false;
            // Read miss: downgrade any M/E owner; join sharers.
            for (std::size_t q = 0; q < caches_.size(); ++q) {
                auto it = caches_[q].find(line);
                if (it != caches_[q].end() && it->second != St::I)
                    it->second = St::S;
            }
            bool others = anyValid(line);
            caches_[p][line] = others ? St::S : St::E;
            if (others)
                demoteAll(line);
            return true;
        }
        // Write.
        if (st == St::M)
            return false;
        if (st == St::E) {
            caches_[p][line] = St::M;
            return false;
        }
        // S upgrade or I miss: invalidate all others.
        bool miss = st == St::I;
        for (std::size_t q = 0; q < caches_.size(); ++q) {
            if (static_cast<int>(q) == p)
                continue;
            auto it = caches_[q].find(line);
            if (it != caches_[q].end())
                it->second = St::I;
        }
        caches_[p][line] = St::M;
        return miss;
    }

    St
    stateOf(int p, Addr line) const
    {
        auto it = caches_[p].find(line);
        return it == caches_[p].end() ? St::I : it->second;
    }

  private:
    bool
    anyValid(Addr line) const
    {
        for (const auto& c : caches_) {
            auto it = c.find(line);
            if (it != c.end() && it->second != St::I)
                return true;
        }
        return false;
    }

    void
    demoteAll(Addr line)
    {
        for (auto& c : caches_) {
            auto it = c.find(line);
            if (it != c.end() && it->second != St::I)
                it->second = St::S;
        }
    }

    std::vector<std::map<Addr, St>> caches_;
};

LineState
toLineState(RefModel::St s)
{
    switch (s) {
      case RefModel::St::I:
        return LineState::Invalid;
      case RefModel::St::S:
        return LineState::Shared;
      case RefModel::St::E:
        return LineState::Exclusive;
      default:
        return LineState::Modified;
    }
}

} // namespace

class ReferenceFuzz : public ::testing::TestWithParam<std::uint64_t>
{};

TEST_P(ReferenceFuzz, MemSystemMatchesReferenceModel)
{
    const int nprocs = 6;
    // Caches big enough that nothing is ever replaced: the reference
    // model has infinite caches.
    MachineConfig mc;
    mc.nprocs = nprocs;
    mc.cache.size = 1u << 22;
    mc.cache.assoc = 0;  // fully associative
    MemSystem mem(mc);
    RefModel ref(nprocs);

    std::uint64_t x = GetParam();
    std::uint64_t prev_misses = 0;
    for (int i = 0; i < 40000; ++i) {
        x = x * 6364136223846793005ull + 1442695040888963407ull;
        int p = static_cast<int>((x >> 60) % nprocs);
        Addr line = 0x400000 + ((x >> 33) % 700) * 64;
        bool write = ((x >> 10) & 3) == 0;
        bool ref_miss = ref.access(p, line, write);
        mem.access(p, line, 8,
                   write ? AccessType::Write : AccessType::Read);
        std::uint64_t misses = mem.total().totalMisses();
        ASSERT_EQ(misses - prev_misses, ref_miss ? 1u : 0u)
            << "access " << i << " p" << p << (write ? " W " : " R ")
            << std::hex << line;
        prev_misses = misses;
        // States agree for every processor on the touched line.
        for (int q = 0; q < nprocs; ++q) {
            ASSERT_EQ(mem.lineState(q, line),
                      toLineState(ref.stateOf(q, line)))
                << "access " << i << " state of p" << q;
        }
    }
    EXPECT_TRUE(mem.checkCoherenceInvariants());
}

INSTANTIATE_TEST_SUITE_P(Seeds, ReferenceFuzz,
                         ::testing::Values(1ull, 42ull, 9999ull,
                                           123456789ull));

namespace {

/** One step of the per-processor fuzz stream: a synthetic address and
 *  read/write choice.  ProcCtx::read/write never dereference, so
 *  fabricated addresses give identical streams across Env instances. */
struct FuzzStep
{
    Addr addr;
    bool write;
};

FuzzStep
fuzzStep(std::uint64_t& x)
{
    x = x * 6364136223846793005ull + 1442695040888963407ull;
    FuzzStep s;
    s.addr = 0x400000 + ((x >> 33) % 700) * 64 + ((x >> 21) % 7) * 8;
    s.write = ((x >> 10) & 3) == 0;
    return s;
}

/** Run the seeded fuzz stream as a real team program: each processor
 *  issues its own deterministic subsequence, interleaved by the
 *  scheduler.  Returns per-proc MemStats; @p touched collects every
 *  line referenced so callers can compare final states. */
std::vector<MemStats>
fuzzMemRun(std::uint64_t seed, rt::Delivery delivery,
           std::set<Addr>* touched, MemSystem** memOut,
           std::unique_ptr<MemSystem>& memHold)
{
    const int nprocs = 6;
    rt::Env env({rt::Mode::Sim, nprocs, /*quantum=*/97,
                 rt::BackendKind::Fiber, delivery});
    MachineConfig mc;
    mc.nprocs = nprocs;
    mc.cache.size = 1u << 22;
    mc.cache.assoc = 0;
    memHold = std::make_unique<MemSystem>(mc);
    env.attachSink(memHold.get());
    env.run([&](rt::ProcCtx& ctx) {
        std::uint64_t x = seed * 1000003ull + std::uint64_t(ctx.id());
        for (int i = 0; i < 6000; ++i) {
            FuzzStep s = fuzzStep(x);
            const void* a = reinterpret_cast<const void*>(s.addr);
            if (s.write)
                ctx.write(a, 8);
            else
                ctx.read(a, 8);
        }
    });
    if (touched) {
        std::uint64_t x;
        for (int p = 0; p < nprocs; ++p) {
            x = seed * 1000003ull + std::uint64_t(p);
            for (int i = 0; i < 6000; ++i)
                touched->insert(fuzzStep(x).addr & ~Addr(63));
        }
    }
    *memOut = memHold.get();
    std::vector<MemStats> out;
    for (int p = 0; p < nprocs; ++p)
        out.push_back(memHold->procStats(p));
    return out;
}

void
expectSameStats(const MemStats& a, const MemStats& b, int p)
{
    EXPECT_EQ(a.reads, b.reads) << "P" << p;
    EXPECT_EQ(a.writes, b.writes) << "P" << p;
    for (int m = 0; m < kNumMissTypes; ++m)
        EXPECT_EQ(a.misses[m], b.misses[m]) << "P" << p << " type " << m;
    EXPECT_EQ(a.upgrades, b.upgrades) << "P" << p;
    EXPECT_EQ(a.remoteSharedData, b.remoteSharedData) << "P" << p;
    EXPECT_EQ(a.remoteColdData, b.remoteColdData) << "P" << p;
    EXPECT_EQ(a.remoteCapacityData, b.remoteCapacityData) << "P" << p;
    EXPECT_EQ(a.remoteWriteback, b.remoteWriteback) << "P" << p;
    EXPECT_EQ(a.remoteOverhead, b.remoteOverhead) << "P" << p;
    EXPECT_EQ(a.localData, b.localData) << "P" << p;
    EXPECT_EQ(a.trueSharedData, b.trueSharedData) << "P" << p;
}

} // namespace

/** Batched delivery must be state- and stat-exact versus direct on the
 *  same scheduled fuzz streams: per-proc counters, traffic bytes, and
 *  the final MESI state of every touched line. */
TEST_P(ReferenceFuzz, BatchedDeliveryStateAndStatExact)
{
    std::set<Addr> touched;
    MemSystem* memD = nullptr;
    MemSystem* memB = nullptr;
    std::unique_ptr<MemSystem> holdD, holdB;
    auto direct = fuzzMemRun(GetParam(), rt::Delivery::Direct, &touched,
                             &memD, holdD);
    auto batched = fuzzMemRun(GetParam(), rt::Delivery::Batched, nullptr,
                              &memB, holdB);
    ASSERT_EQ(direct.size(), batched.size());
    for (std::size_t p = 0; p < direct.size(); ++p)
        expectSameStats(direct[p], batched[p], int(p));
    for (Addr line : touched)
        for (int q = 0; q < 6; ++q)
            ASSERT_EQ(memD->lineState(q, line), memB->lineState(q, line))
                << "p" << q << " line " << std::hex << line;
    EXPECT_TRUE(memD->checkCoherenceInvariants());
    EXPECT_TRUE(memB->checkCoherenceInvariants());
}

/** Processor-range shards on a threaded broadcast must reproduce the
 *  whole sweep exactly at every operating point, for any shard count
 *  -- with small chunks forcing constant publish/recycle cycling. */
TEST_P(ReferenceFuzz, ShardedSweepStatExact)
{
    const int nprocs = 6;
    SweepConfig sc;
    sc.nprocs = nprocs;
    CacheSweep whole(sc);
    std::uint64_t x = GetParam();
    std::vector<AccessRec> recs;
    for (int i = 0; i < 40000; ++i) {
        const FuzzStep step = fuzzStep(x);
        AccessRec r;
        r.addr = step.addr;
        r.size = 8;
        r.proc = static_cast<std::int16_t>((x >> 60) % nprocs);
        r.type = step.write ? AccessType::Write : AccessType::Read;
        recs.push_back(r);
    }
    for (const AccessRec& r : recs)
        whole.access(r);
    for (int k : {2, 3, 4}) {
        splash::testing::SweepShards shards(sc, k, /*chunkRecords=*/512);
        for (const AccessRec& r : recs)
            shards.sink().access(r);
        splash::testing::expectSameSweep(whole, shards.result(),
                                         std::to_string(k) + " shards");
    }
}
