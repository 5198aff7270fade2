// Unit tests for the extended-Dubois miss classifier.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <unordered_map>
#include <vector>

#include "sim/classify.h"

using namespace splash;
using namespace splash::sim;

TEST(Classify, FirstMissIsCold)
{
    MissClassifier mc(2, 64);
    EXPECT_EQ(mc.classifyMiss(0, 0x1000, 8), MissType::Cold);
    EXPECT_EQ(mc.classifyMiss(1, 0x1000, 8), MissType::Cold);
}

TEST(Classify, ReplacementLossIsCapacity)
{
    MissClassifier mc(2, 64);
    (void)mc.classifyMiss(0, 0x1000, 8);
    mc.noteReplaced(0, 0x1000);
    EXPECT_EQ(mc.classifyMiss(0, 0x1000, 8), MissType::Capacity);
}

TEST(Classify, InvalidationWithAccessedWordWrittenIsTrueSharing)
{
    MissClassifier mc(2, 64);
    (void)mc.classifyMiss(0, 0x1000, 8);   // P0 caches the line
    mc.noteInvalidated(0, 0x1000);         // P1 writes word 0 ...
    mc.recordWrite(0x1000, 8);
    // ... and P0 re-reads the same word.
    EXPECT_EQ(mc.classifyMiss(0, 0x1000, 8), MissType::TrueSharing);
}

TEST(Classify, InvalidationWithOtherWordWrittenIsFalseSharing)
{
    MissClassifier mc(2, 64);
    (void)mc.classifyMiss(0, 0x1000, 8);
    mc.noteInvalidated(0, 0x1000);   // P1 writes word 7
    mc.recordWrite(0x1038, 8);
    // P0 re-reads word 0, untouched by P1: false sharing.
    EXPECT_EQ(mc.classifyMiss(0, 0x1000, 8), MissType::FalseSharing);
}

TEST(Classify, SnapshotTakenBeforeTriggeringWrite)
{
    // P0 held the line with word 3 already written once; P1 rewrites
    // the same word. True sharing must still be detected even though
    // the word had a nonzero version at snapshot time.
    MissClassifier mc(2, 64);
    mc.recordWrite(0x1018, 8);               // earlier write by P0
    (void)mc.classifyMiss(0, 0x1000, 8);
    mc.noteInvalidated(0, 0x1000);
    mc.recordWrite(0x1018, 8);               // P1's write, same word
    EXPECT_EQ(mc.classifyMiss(0, 0x1018, 8), MissType::TrueSharing);
}

TEST(Classify, MultiWordAccessSeesAnyChangedWord)
{
    MissClassifier mc(2, 64);
    (void)mc.classifyMiss(0, 0x1000, 8);
    mc.noteInvalidated(0, 0x1000);
    mc.recordWrite(0x1020, 8);  // word 4
    // P0 reads a 32-byte range covering words 2..5 -> true sharing.
    EXPECT_EQ(mc.classifyMiss(0, 0x1010, 32), MissType::TrueSharing);
}

TEST(Classify, EightByteLinesCannotFalseShare)
{
    // With one word per line every invalidation miss is true sharing.
    MissClassifier mc(2, 8);
    (void)mc.classifyMiss(0, 0x1000, 4);
    mc.noteInvalidated(0, 0x1000);
    mc.recordWrite(0x1004, 4);
    EXPECT_EQ(mc.classifyMiss(0, 0x1000, 4), MissType::TrueSharing);
}

TEST(Classify, IndependentPerProcessorHistory)
{
    MissClassifier mc(3, 64);
    (void)mc.classifyMiss(0, 0x1000, 8);
    (void)mc.classifyMiss(1, 0x1000, 8);
    mc.noteReplaced(0, 0x1000);
    mc.noteInvalidated(1, 0x1000);
    mc.recordWrite(0x1000, 8);
    EXPECT_EQ(mc.classifyMiss(0, 0x1000, 8), MissType::Capacity);
    EXPECT_EQ(mc.classifyMiss(1, 0x1000, 8), MissType::TrueSharing);
    EXPECT_EQ(mc.classifyMiss(2, 0x1000, 8), MissType::Cold);
}

TEST(Classify, LatestLossWins)
{
    // A line lost to invalidation, refetched, then lost to replacement
    // classifies as capacity on the next miss.
    MissClassifier mc(2, 64);
    (void)mc.classifyMiss(0, 0x1000, 8);
    mc.noteInvalidated(0, 0x1000);
    mc.recordWrite(0x1000, 8);
    (void)mc.classifyMiss(0, 0x1000, 8);  // refetch (true sharing)
    mc.noteReplaced(0, 0x1000);
    EXPECT_EQ(mc.classifyMiss(0, 0x1000, 8), MissType::Capacity);
}

namespace {

/** The snapshot classifier the write clock replaced: per-word write
 *  versions per line, and per (processor, line) the cause of the last
 *  loss plus, for an invalidation, a copy of the line's versions. */
class SnapshotClassifier
{
  public:
    SnapshotClassifier(int nprocs, int lineSize)
        : words_(lineSize / 8), lineSize_(lineSize), lost_(nprocs)
    {}

    void
    recordWrite(Addr addr, int size)
    {
        Addr line = addr - addr % lineSize_;
        auto& v = version_[line];
        if (v.empty())
            v.assign(words_, 0);
        for (Addr w = (addr - line) / 8; w <= (addr + size - 1 - line) / 8;
             ++w)
            ++v[w];
    }

    void
    noteInvalidated(ProcId p, Addr line)
    {
        auto it = version_.find(line);
        lost_[p][line] = {false, it == version_.end()
                                     ? std::vector<std::uint64_t>()
                                     : it->second};
    }

    void noteReplaced(ProcId p, Addr line) { lost_[p][line] = {true, {}}; }

    MissType
    classifyMiss(ProcId p, Addr addr, int size)
    {
        Addr line = addr - addr % lineSize_;
        auto it = lost_[p].find(line);
        if (it == lost_[p].end())
            return MissType::Cold;
        if (it->second.replaced)
            return MissType::Capacity;
        const auto& cur = version_.at(line);
        const auto& snap = it->second.snapshot;
        for (Addr w = (addr - line) / 8; w <= (addr + size - 1 - line) / 8;
             ++w)
            if (cur[w] != (snap.empty() ? 0 : snap[w]))
                return MissType::TrueSharing;
        return MissType::FalseSharing;
    }

  private:
    struct Loss
    {
        bool replaced;
        std::vector<std::uint64_t> snapshot;
    };

    int words_;
    int lineSize_;
    std::unordered_map<Addr, std::vector<std::uint64_t>> version_;
    std::vector<std::unordered_map<Addr, Loss>> lost_;
};

} // namespace

// Differential: the write clock against the snapshot classifier on
// random interleavings of writes, invalidations (recorded before the
// write that triggers them, as MemSystem does), replacements and
// classifications of 1-16 byte accesses clipped to their line.
class ClassifyVsSnapshot : public ::testing::TestWithParam<int>
{};

TEST_P(ClassifyVsSnapshot, EveryClassificationMatches)
{
    const int line = GetParam();
    const int kProcs = 4, kLines = 32;
    MissClassifier mc(kProcs, line);
    SnapshotClassifier ref(kProcs, line);
    std::vector<bool> written(kLines, false);
    std::uint64_t x = 0x2545F4914F6CDD1Dull ^ std::uint64_t(line);
    auto next = [&] {
        x = x * 6364136223846793005ull + 1442695040888963407ull;
        return x >> 33;
    };
    int classified[4] = {};
    for (int i = 0; i < 60000; ++i) {
        const int l = static_cast<int>(next() % kLines);
        const Addr base = 0x40000 + Addr(l) * line;
        const Addr addr = base + next() % line;
        const int size = static_cast<int>(
            std::min<Addr>(1 + next() % 16, base + line - addr));
        const ProcId p = static_cast<ProcId>(next() % kProcs);
        SCOPED_TRACE(::testing::Message() << "op " << i);
        switch (next() % 8) {
          case 0:
          case 1:
            // An invalidating write: the other holders lose the line
            // first, then the write is recorded.
            for (ProcId q = 0; q < kProcs; ++q) {
                if (q != p && next() % 2) {
                    mc.noteInvalidated(q, base);
                    ref.noteInvalidated(q, base);
                }
            }
            [[fallthrough]];
          case 2:
            mc.recordWrite(addr, size);
            ref.recordWrite(addr, size);
            written[l] = true;
            break;
          case 3:
            // A loss with no write yet: classify only written lines.
            if (written[l]) {
                mc.noteInvalidated(p, base);
                ref.noteInvalidated(p, base);
            }
            break;
          case 4:
            mc.noteReplaced(p, base);
            ref.noteReplaced(p, base);
            break;
          default: {
            MissType want = ref.classifyMiss(p, addr, size);
            ASSERT_EQ(mc.classifyMiss(p, addr, size), want);
            ++classified[static_cast<int>(want)];
            break;
          }
        }
    }
    // Every class occurs, so each comparison above was exercised.
    for (int t = 0; t < 4; ++t)
        EXPECT_GT(classified[t], 0) << "miss type " << t;
}

INSTANTIATE_TEST_SUITE_P(LineSizes, ClassifyVsSnapshot,
                         ::testing::Values(8, 16, 64, 256));
