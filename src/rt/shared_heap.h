/**
 * @file
 * Placement-aware shared heap with a stable simulated address space.
 *
 * All shared application data is carved from this arena so the memory
 * simulator can (a) identify shared addresses and (b) resolve each
 * cache line's home node.  Applications follow the paper's per-program
 * data-distribution guidelines through setHome(): e.g. LU homes each
 * block at its owning processor, Ocean homes each square subgrid
 * locally, FFT homes each contiguous row band locally.  Regions with no
 * explicit placement are interleaved across nodes at line granularity.
 *
 * Simulated addresses: the arena is one contiguous mmap reservation,
 * and every instrumented reference is translated to a *simulated*
 * address (arena offset + kSimBase) before it reaches any sink.  Cache
 * set indices, line interleaving, and home resolution therefore depend
 * only on the (deterministic) allocation sequence, never on where the
 * host kernel happened to map the arena -- so repeated runs, runs in
 * different processes, and runs sharing a process with concurrent
 * experiments all produce bit-identical characterizations.  Placement
 * spans (setHome) are stored in simulated coordinates; homeOf expects
 * simulated line addresses.
 *
 * Placement changes are stream-ordered: a mutation observer installed
 * by the Env fires before every setHome so buffering sinks (e.g. the
 * broadcast replay engine) can finish delivering references issued
 * under the old placement first.
 */
#ifndef SPLASH2_RT_SHARED_HEAP_H
#define SPLASH2_RT_SHARED_HEAP_H

#include <cstddef>
#include <functional>

#include "base/types.h"
#include "sim/directory.h"

namespace splash::rt {

class SharedHeap : public sim::HomeResolver
{
  public:
    /** Base of the simulated address range all arenas translate to. */
    static constexpr Addr kSimBase = Addr(1) << 32;
    /** Reserved (not committed) arena span; pages are backed lazily. */
    static constexpr std::size_t kArenaBytes = std::size_t(1) << 30;

    explicit SharedHeap(int nprocs, int lineSize = 64);
    ~SharedHeap() override;

    SharedHeap(const SharedHeap&) = delete;
    SharedHeap& operator=(const SharedHeap&) = delete;

    /** Allocate @p bytes aligned to @p align (>= one cache line so that
     *  distinct allocations never false-share by construction unless
     *  the application wants them to). Memory is zero-initialized and
     *  lives until the heap is destroyed. */
    void* alloc(std::size_t bytes, std::size_t align = 64);

    /** Declare that [p, p+bytes) is homed at node @p home. Later calls
     *  override earlier ones for overlapping ranges only if they start
     *  at distinct addresses; apps are expected to place each range
     *  once. */
    void setHome(const void* p, std::size_t bytes, ProcId home);

    /** HomeResolver: home node of the line containing @p lineAddr
     *  (a *simulated* address). */
    ProcId
    homeOf(Addr lineAddr) const override
    {
        return placement_.homeOf(lineAddr);
    }

    /** Translate a host address into the simulated address space.
     *  Addresses outside the arena pass through unchanged (private or
     *  stack data an application chose to instrument). */
    Addr
    toSim(Addr hostAddr) const
    {
        return hostAddr - base_ < kArenaBytes
                   ? hostAddr - base_ + kSimBase
                   : hostAddr;
    }

    /** Install a hook fired before any placement mutation (setHome),
     *  carrying the span about to change (simulated start, length,
     *  new home); the Env uses it to quiesce buffering reference
     *  sinks so home resolution stays stream-ordered and to forward
     *  the span to recording sinks. */
    void
    setPlacementObserver(
        std::function<void(Addr, std::size_t, ProcId)> f)
    {
        preMutate_ = std::move(f);
    }

    std::size_t bytesAllocated() const { return allocated_; }

  private:
    int nprocs_;
    std::size_t allocated_ = 0;
    Addr base_ = 0;           ///< host base of the mmap reservation
    std::size_t cursor_ = 0;  ///< next free arena offset
    std::function<void(Addr, std::size_t, ProcId)> preMutate_;
    sim::ReplayPlacement placement_;  ///< spans in simulated addresses
};

} // namespace splash::rt

#endif // SPLASH2_RT_SHARED_HEAP_H
