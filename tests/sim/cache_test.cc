// Unit tests for the set-associative LRU cache tag array.
#include <gtest/gtest.h>

#include <tuple>
#include <vector>

#include "sim/cache.h"

using namespace splash;
using namespace splash::sim;

namespace {

CacheConfig
smallCache(std::uint64_t size, int assoc, int line = 64)
{
    CacheConfig c;
    c.size = size;
    c.assoc = assoc;
    c.lineSize = line;
    return c;
}

} // namespace

TEST(Cache, MissThenHit)
{
    Cache c(smallCache(1024, 2));
    EXPECT_EQ(c.probeFor(0, AccessType::Read), LineState::Invalid);
    c.fill(0, LineState::Shared);
    EXPECT_EQ(c.probeFor(0, AccessType::Read), LineState::Shared);
}

TEST(Cache, LruEvictsLeastRecentlyUsed)
{
    // 1 KB, 2-way, 64 B lines -> 8 sets. Lines 0, 512*?, ... map by
    // (addr/64) % 8; choose three lines in the same set.
    Cache c(smallCache(1024, 2));
    Addr a = 0, b = 8 * 64, d = 16 * 64;  // all set 0
    c.fill(a, LineState::Shared);
    c.fill(b, LineState::Shared);
    // a becomes MRU.
    EXPECT_EQ(c.probeFor(a, AccessType::Read), LineState::Shared);
    auto v = c.fill(d, LineState::Shared);     // must evict b
    ASSERT_TRUE(v.valid);
    EXPECT_EQ(v.lineAddr, b);
    EXPECT_EQ(c.peek(a), LineState::Shared);
    EXPECT_EQ(c.peek(b), LineState::Invalid);
    EXPECT_EQ(c.peek(d), LineState::Shared);
}

TEST(Cache, VictimReportsState)
{
    Cache c(smallCache(128, 1));  // 2 sets, direct mapped
    c.fill(0, LineState::Modified);
    auto v = c.fill(2 * 64, LineState::Shared);  // same set as 0
    ASSERT_TRUE(v.valid);
    EXPECT_EQ(v.lineAddr, 0u);
    EXPECT_EQ(v.state, LineState::Modified);
}

TEST(Cache, InvalidateRemovesLine)
{
    Cache c(smallCache(1024, 4));
    c.fill(64, LineState::Exclusive);
    c.invalidate(64);
    EXPECT_EQ(c.probeFor(64, AccessType::Read), LineState::Invalid);
    EXPECT_EQ(c.residentLines(), 0u);
}

TEST(Cache, SetStateTransitions)
{
    Cache c(smallCache(1024, 4));
    c.fill(64, LineState::Exclusive);
    c.setState(64, LineState::Modified);
    EXPECT_EQ(c.peek(64), LineState::Modified);
    c.setState(64, LineState::Shared);
    EXPECT_EQ(c.peek(64), LineState::Shared);
}

TEST(Cache, FullyAssociativeUsesWholeCapacity)
{
    // Fully associative: 32 lines; 32 distinct lines all fit even
    // though a set-associative cache of equal size would conflict.
    Cache c(smallCache(2048, 0));
    for (int i = 0; i < 32; ++i) {
        auto v = c.fill(static_cast<Addr>(i) * 64, LineState::Shared);
        EXPECT_FALSE(v.valid) << "line " << i;
    }
    EXPECT_EQ(c.residentLines(), 32u);
    // One more evicts exactly the LRU (line 0).
    auto v = c.fill(32 * 64, LineState::Shared);
    ASSERT_TRUE(v.valid);
    EXPECT_EQ(v.lineAddr, 0u);
}

TEST(Cache, FullyAssociativeLruOrder)
{
    Cache c(smallCache(256, 0));  // 4 lines
    for (Addr i = 0; i < 4; ++i)
        c.fill(i * 64, LineState::Shared);
    // 0 becomes MRU; the LRU line is 1.
    EXPECT_EQ(c.probeFor(0, AccessType::Read), LineState::Shared);
    auto v = c.fill(4 * 64, LineState::Shared);
    ASSERT_TRUE(v.valid);
    EXPECT_EQ(v.lineAddr, 64u);
}

// Property: a direct-mapped cache of N lines behaves identically to N
// independent one-line caches selected by the set index.
TEST(Cache, DirectMappedEquivalence)
{
    const int kLines = 8;
    Cache c(smallCache(kLines * 64, 1));
    std::vector<Addr> shadow(kLines, ~Addr{0});
    std::uint64_t expected_misses = 0, misses = 0;
    std::uint64_t x = 12345;
    for (int i = 0; i < 20000; ++i) {
        x = x * 6364136223846793005ull + 1442695040888963407ull;
        Addr line = ((x >> 33) % 64) * 64;
        int set = static_cast<int>((line / 64) % kLines);
        if (shadow[set] != line) {
            ++expected_misses;
            shadow[set] = line;
        }
        if (c.probeFor(line, AccessType::Read) == LineState::Invalid) {
            ++misses;
            c.fill(line, LineState::Shared);
        }
    }
    EXPECT_EQ(misses, expected_misses);
}

// Parameterized sweep: capacity is always fully utilized before any
// eviction happens, for every geometry.
class CacheGeometry : public ::testing::TestWithParam<std::tuple<int, int>>
{};

TEST_P(CacheGeometry, NoEvictionUntilFull)
{
    auto [size_kb, assoc] = GetParam();
    Cache c(smallCache(std::uint64_t(size_kb) * 1024, assoc));
    int lines = c.config().numLines();
    int sets = c.config().numSets();
    int ways = assoc == 0 ? lines : assoc;
    // Fill each set to capacity with distinct lines.
    for (int s = 0; s < sets; ++s) {
        for (int w = 0; w < ways; ++w) {
            Addr line = (static_cast<Addr>(w) * sets + s) * 64;
            auto v = c.fill(line, LineState::Shared);
            EXPECT_FALSE(v.valid);
        }
    }
    EXPECT_EQ(c.residentLines(), static_cast<std::uint64_t>(lines));
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, CacheGeometry,
    ::testing::Combine(::testing::Values(1, 4, 16, 64),
                       ::testing::Values(1, 2, 4, 8, 0)));

namespace {

/** Timestamp LRU: the way array the one-word MRU sets replaced.  A hit
 *  or a fill stamps its way from a use clock; the victim is the first
 *  invalid way in storage order, else the way with the oldest stamp.
 *  setState and invalidate leave the stamps alone. */
class StampLru
{
  public:
    StampLru(const CacheConfig& cfg, const Protocol& proto)
        : lineSize_(cfg.lineSize), ways_(cfg.assoc),
          sets_(cfg.numLines() / cfg.assoc), proto_(proto),
          way_(cfg.numLines())
    {}

    LineState
    probeFor(Addr line, AccessType type)
    {
        Way* w = find(line);
        if (!w)
            return LineState::Invalid;
        w->lastUse = ++clock_;
        LineState st = w->state;
        if (type == AccessType::Write)
            w->state = proto_.silentWriteNext[static_cast<int>(st)];
        return st;
    }

    LineState
    peek(Addr line)
    {
        Way* w = find(line);
        return w ? w->state : LineState::Invalid;
    }

    void setState(Addr line, LineState st) { find(line)->state = st; }

    void
    invalidate(Addr line)
    {
        if (Way* w = find(line))
            w->state = LineState::Invalid;
    }

    Cache::Victim
    fill(Addr line, LineState st)
    {
        Way* base = &way_[set(line) * ways_];
        Way* slot = nullptr;
        for (int i = 0; i < ways_ && !slot; ++i)
            if (base[i].state == LineState::Invalid)
                slot = &base[i];
        Cache::Victim v;
        if (!slot) {
            slot = &base[0];
            for (int i = 1; i < ways_; ++i)
                if (base[i].lastUse < slot->lastUse)
                    slot = &base[i];
            v.valid = true;
            v.lineAddr = slot->tag;
            v.state = slot->state;
        }
        *slot = {line, st, ++clock_};
        return v;
    }

    std::uint64_t
    residentLines() const
    {
        std::uint64_t n = 0;
        for (const Way& w : way_)
            n += w.state != LineState::Invalid;
        return n;
    }

  private:
    struct Way
    {
        Addr tag = 0;
        LineState state = LineState::Invalid;
        std::uint64_t lastUse = 0;
    };

    std::size_t set(Addr line) const { return (line / lineSize_) % sets_; }

    Way*
    find(Addr line)
    {
        Way* base = &way_[set(line) * ways_];
        for (int i = 0; i < ways_; ++i)
            if (base[i].state != LineState::Invalid && base[i].tag == line)
                return &base[i];
        return nullptr;
    }

    int lineSize_;
    int ways_;
    std::size_t sets_;
    const Protocol& proto_;
    std::vector<Way> way_;
    std::uint64_t clock_ = 0;
};

} // namespace

// Differential: the one-word MRU sets against timestamp LRU under
// random probes, fills, invalidations and state changes.  Four sets
// and three times as many lines as ways per set keep every set under
// pressure; line 0 is in the pool (its way is 0 | state).
class CacheVsStampLru
    : public ::testing::TestWithParam<std::tuple<int, int, ProtocolKind>>
{};

TEST_P(CacheVsStampLru, EveryResultMatches)
{
    auto [assoc, line, kind] = GetParam();
    const Protocol& proto = protocol(kind);
    const int kSets = 4;
    CacheConfig cfg = smallCache(std::uint64_t(assoc) * kSets * line,
                                 assoc, line);
    Cache c(cfg, proto);
    StampLru ref(cfg, proto);
    std::vector<LineState> fillStates;
    for (int s = 1; s < kNumLineStates; ++s)
        if (stateIn(proto.legalStates, static_cast<LineState>(s)))
            fillStates.push_back(static_cast<LineState>(s));
    const std::uint64_t lines = std::uint64_t(assoc) * kSets * 3;
    std::uint64_t x = 0x9E3779B97F4A7C15ull ^ std::uint64_t(assoc * line);
    auto next = [&] {
        x = x * 6364136223846793005ull + 1442695040888963407ull;
        return x >> 33;
    };
    for (int i = 0; i < 40000; ++i) {
        const Addr a = static_cast<Addr>(next() % lines) * line;
        const unsigned op = next() % 16;
        SCOPED_TRACE(::testing::Message() << "op " << i << " line 0x"
                                          << std::hex << a);
        if (op < 12) {
            AccessType t = op < 8 ? AccessType::Read : AccessType::Write;
            LineState got = c.probeFor(a, t);
            ASSERT_EQ(got, ref.probeFor(a, t));
            if (got == LineState::Invalid) {
                LineState st = fillStates[next() % fillStates.size()];
                Cache::Victim v = c.fill(a, st), w = ref.fill(a, st);
                ASSERT_EQ(v.valid, w.valid);
                ASSERT_EQ(v.lineAddr, w.lineAddr);
                ASSERT_EQ(v.state, w.state);
            }
        } else if (ref.peek(a) != LineState::Invalid) {
            if (op < 14) {
                c.invalidate(a);
                ref.invalidate(a);
            } else {
                LineState st = fillStates[next() % fillStates.size()];
                c.setState(a, st);
                ref.setState(a, st);
            }
        }
        ASSERT_EQ(c.peek(a), ref.peek(a));
        ASSERT_EQ(c.residentLines(), ref.residentLines());
    }
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, CacheVsStampLru,
    ::testing::Combine(::testing::Values(1, 2, 4, 8, 16),
                       ::testing::Values(8, 64, 256),
                       ::testing::Values(ProtocolKind::MESI,
                                         ProtocolKind::MOESI)));
