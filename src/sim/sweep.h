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
 *  - Each finite-associativity column keeps only a tag array per size
 *    of 16-byte {tag, version} ways, each set most recently used
 *    first.
 *  - Coherence is modeled with lazy version stamps: a per-line global
 *    version is bumped whenever a write must invalidate other copies
 *    (writer changed, or somebody else read since the last write).  A
 *    cached tag whose stored version is stale counts as a coherence
 *    miss in *every* configuration -- which is exact, because
 *    invalidations are independent of cache geometry.
 *  - The fully associative column (kFullyAssoc) is one Mattson
 *    stack-distance walk per processor (Fenwick-tree implementation
 *    with periodic timestamp compaction; the tree's capacity adapts
 *    to the live line count so it stays cache resident) recorded into
 *    the sweep's reuse-distance profile (sim/reusedist.h).  Every
 *    bucket boundary of that profile is a power of two, so it yields
 *    the stack's miss count at every power-of-two capacity without
 *    rounding, and the same profile is the analytical model's input.
 *
 * Upgrades (a processor writing a Shared line it still holds) are
 * hits, matching the full MemSystem's accounting.
 *
 * The same independence splits the sweep across host threads: a
 * CacheSweep can simulate a contiguous range of processors only.  The
 * version stamps are the only state shared between processors, and
 * every shard advances its own copy of them on every reference, so K
 * shards fed one stream (BroadcastReplay, sim/replay.h) count exactly
 * what one whole sweep counts -- their results and profiles sum.  The
 * whole sweep is the one-shard case.
 */
#ifndef SPLASH2_SIM_SWEEP_H
#define SPLASH2_SIM_SWEEP_H

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

/** Version-stamp lazy coherence: a per-line global version is bumped
 *  whenever a write must invalidate other copies (writer changed, or
 *  somebody else read since the last write).  A copy stored at a now
 *  stale version has been coherence-invalidated -- at *every* cache
 *  geometry, because invalidations are independent of capacity and
 *  associativity.  The single piece of cross-configuration state of a
 *  sweep, read by every column. */
class VersionCoherence
{
  public:
    /** Advance the state of @p lineAddr for one access by @p p and
     *  report the (before, after) versions. */
    void advance(Addr lineAddr, ProcId p, bool isWrite,
                 std::uint64_t* oldVer, std::uint64_t* newVer);

    /** Current version of @p lineAddr (0 until the first bump). */
    std::uint64_t
    version(Addr lineAddr) const
    {
        const Line* c = map_.find(lineAddr);
        return c ? c->version : 0;
    }

    /** True when a copy of @p lineAddr stored at @p ver has been
     *  invalidated by a later conflicting write. */
    bool
    stale(Addr lineAddr, std::uint64_t ver) const
    {
        return version(lineAddr) != ver;
    }

  private:
    struct Line
    {
        std::uint64_t version = 0;
        ProcId lastWriter = -1;
        bool readSince = false;
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
 *  simulated operating point, without the tag arrays and stacks that
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
     *  Counters, tag arrays and stacks exist for those processors
     *  only, and only their profile rows fill; coherence still
     *  advances on every reference, which is what makes a shard
     *  exact. */
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
    /** Tag of a way that has never been filled (no line address). */
    static constexpr Addr kNoTag = ~Addr{0};

    /** One way.  Version stamps are 64-bit: they advance with the
     *  reference count, which exceeds 2^32 at large problem scales. */
    struct TagEntry
    {
        Addr tag = kNoTag;
        std::uint64_t version = 0;
    };

    /** One finite-associativity tag array.  Each set keeps its ways
     *  most recently used first, so the last way is the LRU one. */
    struct TagArray
    {
        int ways = 0;
        std::uint64_t setMask = 0;
        std::vector<TagEntry> entries;
        std::uint64_t misses = 0;
    };

    void accessLine(ProcId p, Addr lineAddr, AccessType type);

    SweepConfig cfg_;
    int lineShift_;
    /** The simulated processors: first_ .. first_ + nmine_ - 1.  The
     *  per-processor vectors below are indexed by p - first_. */
    int first_ = 0;
    std::size_t nmine_ = 0;
    VersionCoherence coh_;
    /** arrays_[p - first_][i]: the i-th finite column in (size,
     *  assoc) order. */
    std::vector<std::vector<TagArray>> arrays_;
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
