/**
 * @file
 * Directory state and home-node resolution for the CC-NUMA model.
 *
 * Each cache line has a home node (the node whose main memory backs it);
 * the home keeps a full-map directory entry listing current sharers.
 * Because processors send replacement hints when they drop shared
 * copies (as assumed in the paper), the sharer list is always exact.
 */
#ifndef SPLASH2_SIM_DIRECTORY_H
#define SPLASH2_SIM_DIRECTORY_H

#include <cstdint>
#include <map>

#include "base/log.h"
#include "base/types.h"

namespace splash::sim {

/** Full-map directory entry for one cache line.  The sharer mask has
 *  one bit per processor, which bounds the machine to kMaxProcs (64)
 *  processors; MachineConfig::validate() rejects larger configs, and
 *  the accessors guard the shift so an out-of-range index can never
 *  silently corrupt sharer state (1 << p is UB for p >= 64). */
struct DirEntry
{
    /** Bitmask of processors with a valid copy. */
    std::uint64_t sharers = 0;
    /** Owner when dirty. */
    ProcId owner = -1;
    /** True when exactly one cache holds the line Modified. */
    bool dirty = false;

    bool empty() const { return sharers == 0; }

    static void
    checkIndex(ProcId p)
    {
        ensure(p >= 0 && p < kMaxProcs,
               "sharer index outside the 64-bit directory mask");
    }

    void
    addSharer(ProcId p)
    {
        checkIndex(p);
        sharers |= (std::uint64_t{1} << p);
    }

    void
    dropSharer(ProcId p)
    {
        checkIndex(p);
        sharers &= ~(std::uint64_t{1} << p);
    }

    bool
    isSharer(ProcId p) const
    {
        checkIndex(p);
        return (sharers >> p) & 1;
    }

    int
    numSharers() const
    {
        return __builtin_popcountll(sharers);
    }
};

/** Maps cache lines to their home node. */
class HomeResolver
{
  public:
    virtual ~HomeResolver() = default;
    virtual ProcId homeOf(Addr lineAddr) const = 0;
};

/** Fallback policy: lines interleaved round-robin across nodes. */
class InterleavedHome : public HomeResolver
{
  public:
    InterleavedHome(int nprocs, int lineSize)
        : nprocs_(nprocs), lineShift_(log2i(lineSize))
    {}

    ProcId
    homeOf(Addr lineAddr) const override
    {
        return static_cast<ProcId>((lineAddr >> lineShift_) % nprocs_);
    }

  private:
    int nprocs_;
    int lineShift_;
};

/** Home placement by address span, with the line-interleaved fallback
 *  of InterleavedHome for unplaced lines.  rt::SharedHeap keeps the
 *  live placement in one (SharedHeap::setHome); a replay rebuilds one
 *  from the recorded placement events, in stream order, so replayed
 *  MemSystem replicas resolve homes without the runtime.  A span
 *  applied at an existing start address replaces that span. */
class ReplayPlacement final : public HomeResolver
{
  public:
    void
    reset(int nprocs, int lineSize = 64)
    {
        nprocs_ = nprocs;
        lineShift_ = log2i(static_cast<std::uint64_t>(lineSize));
        homes_.clear();
    }

    /** [start, start+bytes) is homed at node @p home. */
    void
    apply(Addr start, std::uint64_t bytes, ProcId home)
    {
        homes_[start] = Span{start + bytes, home};
    }

    ProcId
    homeOf(Addr lineAddr) const override
    {
        auto it = homes_.upper_bound(lineAddr);
        if (it != homes_.begin()) {
            --it;
            if (lineAddr < it->second.end)
                return it->second.home;
        }
        // Unplaced data: interleave lines round-robin across nodes.
        return static_cast<ProcId>((lineAddr >> lineShift_) % nprocs_);
    }

  private:
    struct Span
    {
        Addr end;
        ProcId home;
    };
    int nprocs_ = 1;
    int lineShift_ = 6;
    std::map<Addr, Span> homes_;  ///< keyed by span start
};

} // namespace splash::sim

#endif // SPLASH2_SIM_DIRECTORY_H
