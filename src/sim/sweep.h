/**
 * @file
 * Single-pass multi-configuration cache sweep.
 *
 * Figure 3 of the paper needs miss rate as a function of cache size
 * (1 KB ... 1 MB) for 1/2/4-way and fully-associative caches -- 34
 * configurations per processor.  Simulating them one at a time would
 * require 34 executions per application, so this component simulates
 * all of them simultaneously in a single pass over the reference
 * stream.  SweepConfig::assocs lists the columns: a sweep simulates
 * those and no others.
 *
 *  - The finite-associativity columns share one set array per
 *    distinct set count (13 for the Figure-3 grid at 64-byte lines),
 *    as deep as the largest way count at that set count.  LRU caches
 *    with the same sets are nested (Mattson et al., IBM Systems
 *    Journal 1970; Hill & Smith, IEEE TC 1989): each holds a most
 *    recently used prefix of the next larger one's lines.  So a set
 *    keeps the largest cache's lines most recently used first, each
 *    way one word: the line address with its level -- the smallest
 *    listed way count whose cache holds the line -- in the low three
 *    bits (lines are at least 8 bytes).  A reference probes 13 sets,
 *    not one per column.
 *  - Coherence is eager: a per-line version is bumped whenever a
 *    write must invalidate other copies (another processor referenced
 *    the line since the last bump), and the bump empties the line's
 *    way in every set array of each processor that referenced it
 *    since the previous bump.  Those are exactly the copies the bump
 *    makes stale, at every geometry, because invalidations are
 *    independent of capacity and associativity.
 *  - The fully associative column (kFullyAssoc) is one Mattson
 *    stack-distance walk per processor (Fenwick-tree implementation
 *    with periodic timestamp compaction; the tree's capacity adapts
 *    to the live line count so it stays cache resident) recorded into
 *    the sweep's reuse-distance profile (sim/reusedist.h).  The stack
 *    keeps its lines' version stamps, and a copy stored at a stale
 *    version misses at every capacity.  Every bucket boundary of that
 *    profile is a power of two, so it yields the stack's miss count at
 *    every power-of-two capacity without rounding, and the same
 *    profile is the analytical model's input.
 *
 * Upgrades (a processor writing a Shared line it still holds) are
 * hits, matching the full MemSystem's accounting.
 *
 * The same independence splits the sweep across host threads: a
 * CacheSweep can simulate a contiguous range of processors only.  The
 * version stamps and holder masks are the only state shared between
 * processors, and every shard advances its own copy of both on every
 * reference, so K shards fed one stream (BroadcastReplay,
 * sim/replay.h) count exactly what one whole sweep counts -- their
 * results and profiles sum.  The whole sweep is the one-shard case.
 */
#ifndef SPLASH2_SIM_SWEEP_H
#define SPLASH2_SIM_SWEEP_H

#include <array>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "base/types.h"
#include "sim/grid.h"
#include "sim/linetable.h"
#include "sim/reusedist.h"
#include "sim/trace.h"

namespace splash::sim {

/** Parameters of a sweep; the defaults are the Figure-3 grid
 *  (sim/grid.h). */
struct SweepConfig
{
    int nprocs = 32;
    int lineSize = 64;
    /** Cache capacities in bytes (powers of two). */
    std::vector<std::uint64_t> sizes = fig3Sizes();
    /** The columns to simulate at every size: way counts, and
     *  kFullyAssoc for the Mattson stack.  A column not listed is
     *  neither simulated nor queryable. */
    std::vector<int> assocs = fig3ReportAssocs();
};

/** Version stamps with holder masks: a per-line version is bumped
 *  whenever a write must invalidate other copies -- another processor
 *  referenced the line since the last bump.  A bump makes stale
 *  exactly the copies of the processors that referenced the line since
 *  the previous bump, at *every* cache geometry, because invalidations
 *  are independent of capacity and associativity.  The single piece of
 *  cross-configuration state of a sweep. */
class VersionCoherence
{
  public:
    /** Advance the state of @p lineAddr for one access by @p p and
     *  report the (before, after) versions.  Returns the processors
     *  whose copies the access invalidated, as a mask: on a bump, the
     *  line's holders less @p p; otherwise 0. */
    std::uint64_t advance(Addr lineAddr, ProcId p, bool isWrite,
                          std::uint64_t* oldVer, std::uint64_t* newVer);

  private:
    struct Line
    {
        std::uint64_t version = 0;
        /** Processors that referenced the line since its last bump
         *  (the bumping writer included). */
        std::uint64_t holders = 0;
    };
    LineTable<Line> map_;
};

/** Mattson LRU stack-distance core for one processor's line stream
 *  (Fenwick-tree implementation with periodic timestamp compaction;
 *  the tree's capacity adapts to the live line count so it stays
 *  cache resident).  CacheSweep records each outcome in its
 *  reuse-distance profile (ReuseDistProfile::record). */
class StackDistance
{
  public:
    /** touch() outcomes that are not distances: kCold is a first
     *  touch, kStale a copy whose stored version was invalidated by
     *  coherence -- both miss at every capacity. */
    static constexpr std::uint64_t kCold = ~std::uint64_t{0};
    static constexpr std::uint64_t kStale = ~std::uint64_t{0} - 1;

    StackDistance();

    /** Reference @p line at the version transition (@p oldVer ->
     *  @p newVer) reported by VersionCoherence::advance.  Returns
     *  kCold, kStale, or the LRU stack distance d in lines: d
     *  distinct lines were touched since the previous reference, so
     *  the line hits in a fully associative LRU cache of capacity
     *  >= d + 1 lines. */
    std::uint64_t touch(Addr line, std::uint64_t oldVer,
                        std::uint64_t newVer, bool isWrite);

  private:
    struct LineInfo
    {
        std::uint64_t lastTime = 0;
        std::uint64_t version = 0;
    };

    void bitAdd(std::uint64_t i, int delta);
    std::uint64_t bitSum(std::uint64_t i) const;
    void compact();

    /** lastTime 0 marks a line this stack has not seen. */
    LineTable<LineInfo> lines_;
    std::vector<std::uint32_t> bit_;  // Fenwick tree over timestamps
    std::uint64_t timeCap_ = 0;       // current tree capacity
    std::uint64_t now_ = 0;
};

/** What a finished sweep measured: references and misses at every
 *  simulated operating point, without the set arrays and stacks that
 *  produced them (CacheSweep::result). */
class SweepResult
{
  public:
    std::uint64_t accesses() const { return accesses_; }

    /** Aggregate misses at a simulated operating point (@p assoc
     *  kFullyAssoc = fully associative); fatal for a point the sweep
     *  did not run. */
    std::uint64_t misses(std::uint64_t size, int assoc) const;

    /** Aggregate miss rate at a simulated operating point. */
    double missRate(std::uint64_t size, int assoc) const;

    /** Add another shard's counters over the same grid (an empty
     *  result takes @p o's). */
    SweepResult& operator+=(const SweepResult& o);

  private:
    friend class CacheSweep;

    SweepConfig cfg_;
    std::uint64_t accesses_ = 0;
    /** Per size, the misses at each of cfg_.assocs. */
    std::vector<std::uint64_t> misses_;
};

class CacheSweep final : public RefSink
{
  public:
    /** Simulate the columns @p cfg lists for the @p shard-th of
     *  @p shards contiguous processor ranges (default: all of them).
     *  Counters, set arrays and stacks exist for those processors
     *  only, and only their profile rows fill; coherence still
     *  advances on every reference, which is what makes a shard
     *  exact.  Fatal for a processor count outside [1, 64], a line
     *  below 8 bytes, or a way count that is not a power of two in
     *  [1, 64]. */
    explicit CacheSweep(const SweepConfig& cfg, int shard = 0,
                        int shards = 1);

    /** Issue one reference from processor @p p. */
    void access(ProcId p, Addr addr, int size, AccessType type);

    void
    access(const AccessRec& r) override
    {
        access(r.proc, r.addr, r.size, r.type);
    }

    void
    accessBatch(const AccessRec* recs, std::size_t n) override
    {
        for (std::size_t i = 0; i < n; ++i)
            access(recs[i].proc, recs[i].addr, recs[i].size,
                   recs[i].type);
    }

    const SweepConfig& config() const { return cfg_; }

    /** The processors this sweep simulates: [firstProc, endProc). */
    int firstProc() const { return first_; }
    int endProc() const { return first_ + static_cast<int>(nmine_); }

    /** Total references the simulated processors issued
     *  (line-spanning references count once per line). */
    std::uint64_t accesses() const;

    /** Aggregate miss rate at capacity @p size bytes and associativity
     *  @p assoc (kFullyAssoc = fully associative). */
    double
    missRate(std::uint64_t size, int assoc) const
    {
        return result().missRate(size, assoc);
    }

    /** Aggregate misses at the given operating point. */
    std::uint64_t
    misses(std::uint64_t size, int assoc) const
    {
        return result().misses(size, assoc);
    }

    /** The counters at every operating point of the grid. */
    SweepResult result() const;

    /** The fully associative column: one reuse-distance row per
     *  processor of the machine, filled for the simulated ones (an
     *  empty profile when cfg.assocs does not list kFullyAssoc).
     *  Shards' profiles sum like their results. */
    const ReuseDistProfile& profile() const { return profile_; }

    /** Zero miss/access counters while keeping cache contents (for
     *  measuring past cold start). */
    void resetStats() override;

  private:
    /** A way is lineAddr | level, 0 when empty.  Level l (1..7) is the
     *  l-th smallest way count of its set array; a valid way of line 0
     *  still carries a nonzero level. */
    static constexpr Addr kLevelMask = 7;
    /** Hit counters per set array: one per level, slot 0 unused. */
    static constexpr std::size_t kLevelSlots = kLevelMask + 1;

    /** The finite columns at one set count.  Each set keeps its lines
     *  most recently used first and its empty ways last, and its levels
     *  never decrease from front to back: the cache of level l holds
     *  the ways tagged 1..l, a most recently used prefix of the set. */
    struct SetArray
    {
        std::uint64_t setMask = 0;
        /** Ways per set: the way count of the deepest level. */
        int depth = 0;
        /** wayCount[l]: the way count of level l. */
        std::array<int, kLevelSlots> wayCount{};
        /** Word offset of set 0 in each processor's ways. */
        std::size_t offset = 0;
    };

    /** One listed finite column: a level of a set array. */
    struct Column
    {
        std::size_t array = 0;
        int level = 0;
    };

    void accessLine(ProcId p, Addr lineAddr, AccessType type);
    /** Empty @p lineAddr's way in every set array of the @p i-th
     *  simulated processor. */
    void invalidate(std::size_t i, Addr lineAddr);
    /** Position of @p lineAddr's way in @p set, else of the set's
     *  first empty way, else @p depth. */
    static int wayOf(const Addr* set, int depth, Addr lineAddr);

    SweepConfig cfg_;
    int lineShift_ = 0;
    /** The simulated processors: first_ .. first_ + nmine_ - 1, and
     *  the same as a processor mask.  The per-processor vectors below
     *  are indexed by p - first_. */
    int first_ = 0;
    std::size_t nmine_ = 0;
    std::uint64_t mine_ = 0;
    VersionCoherence coh_;
    /** In increasing set count. */
    std::vector<SetArray> arrays_;
    /** The finite columns in (size, assoc) order. */
    std::vector<Column> columns_;
    /** Words of one processor's set arrays. */
    std::size_t procWords_ = 0;
    /** Way w of set s of a set array:
     *  ways_[(p - first_) * procWords_ + offset + s * depth + w]. */
    std::vector<Addr> ways_;
    /** hits_[((p - first_) * arrays_.size() + a) * kLevelSlots + l]:
     *  references that found their line at level l of set array a,
     *  so hit at level l and every level above it. */
    std::vector<std::uint64_t> hits_;
    /** stacks_[p - first_]; empty unless kFullyAssoc is listed. */
    std::vector<StackDistance> stacks_;
    std::vector<std::uint64_t> accesses_;
    ReuseDistProfile profile_;
};

/** The fully associative column alone: a sweep for callers that want
 *  only the reuse-distance profile. */
class ReuseDistProfiler final : public RefSink
{
  public:
    ReuseDistProfiler(int nprocs, int lineSize)
        : sweep_({nprocs, lineSize, {}, {kFullyAssoc}})
    {
    }

    void access(const AccessRec& r) override { sweep_.access(r); }
    void resetStats() override { sweep_.resetStats(); }
    ReuseDistProfile profile() const { return sweep_.profile(); }

  private:
    CacheSweep sweep_;
};

} // namespace splash::sim

#endif // SPLASH2_SIM_SWEEP_H
