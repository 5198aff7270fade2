/**
 * @file
 * Reference-stream records and sinks.
 *
 * The runtime -> simulator boundary moves shared-memory references in
 * one of two shapes (rt::Delivery): a synchronous call per reference,
 * or batches of AccessRec drained at scheduling boundaries.  Because
 * exactly one simulated processor executes at a time and the batch is
 * drained at every context switch, the drained order equals the
 * execution order, so both shapes deliver the identical stream.
 *
 * Besides data references the stream carries *synchronization edges*
 * (SyncRec): every PARMACS primitive (rt/sync.h Barrier/Lock/Flag)
 * emits acquire/release records at its exact stream position, so a
 * consumer can reconstruct the happens-before order of the execution
 * (sim/racecheck.h) rather than just the reference sequence.  Sync
 * records are rare compared to references; the batched delivery drains
 * pending references before forwarding one, which preserves order
 * without widening the hot record ring.
 *
 * RefSink is the one consumer interface: every simulator that reads
 * the stream -- MemSystem, CacheSweep, the broadcast replay, the
 * race detector, the trace recorder -- is a RefSink, fed the same way
 * by a live rt::Env or by a trace replay (harness/experiment.h
 * runPass): accessBatch runs cut at every event, then the event.
 */
#ifndef SPLASH2_SIM_TRACE_H
#define SPLASH2_SIM_TRACE_H

#include <cstddef>
#include <cstdint>

#include "base/types.h"

namespace splash::sim {

/** One captured shared-memory reference. */
struct AccessRec
{
    /** Flag: the access is a host-level atomic (SharedArray::ldAtomic /
     *  stAtomic).  Identical to a plain access for every memory-system
     *  statistic; the race detector treats it as a annotated lock-free
     *  access that never participates in a data race. */
    static constexpr std::uint8_t kAtomic = 1u << 0;

    Addr addr = 0;
    Tick ltime = 0;  ///< issuing processor's logical clock at the access
    std::int32_t size = 0;
    std::int16_t proc = -1;
    AccessType type = AccessType::Read;
    std::uint8_t flags = 0;  ///< kAtomic

    bool atomic() const { return (flags & kAtomic) != 0; }
};

/** Direction of a happens-before edge through a sync object. */
enum class SyncOp : std::uint8_t {
    Acquire,  ///< the processor *joins* the object's accumulated order
    Release   ///< the processor *publishes* its order into the object
};

/** Primitive that emitted a SyncRec (sync-census accounting). */
enum class SyncPrim : std::uint8_t { Barrier, Lock, Flag };

/** One synchronization edge, ordered within the reference stream.
 *
 *  The three PARMACS primitives map onto acquire/release pairs:
 *  a barrier arrival releases into the barrier object and every
 *  departure acquires from it (all-to-all rendezvous); a lock acquire
 *  acquires from / a lock release releases into the lock object; a
 *  flag set releases into / a completed flag wait acquires from the
 *  flag object. */
struct SyncRec
{
    std::uint32_t obj = 0;  ///< per-Env registration id (rt::Env)
    Tick ltime = 0;         ///< processor's logical clock at the edge
    std::int16_t proc = -1;
    SyncOp op = SyncOp::Acquire;
    SyncPrim prim = SyncPrim::Barrier;
};

/** One home-placement change (rt::SharedHeap::setHome), ordered
 *  within the reference stream.  Live sinks resolve homes through the
 *  heap itself and may ignore these; recording sinks persist them so
 *  replay-from-disk can rebuild placement without the runtime. */
struct PlaceRec
{
    Addr addr = 0;            ///< simulated span start
    std::uint64_t bytes = 0;  ///< span length
    ProcId home = 0;          ///< owning node
};

/** Consumer of a reference stream. */
class RefSink
{
  public:
    virtual ~RefSink() = default;

    /** Deliver one reference.  The record carries the issuing
     *  processor, its logical clock at the access, and the atomic
     *  flag; consumers that only care about (proc, addr, size, type)
     *  read just those fields. */
    virtual void access(const AccessRec& r) = 0;

    /** Deliver @p n consecutive references: one call per sink per run of
     *  the ring drain or the trace reader.  Default: access() each in
     *  order.  Sinks with an inlined per-reference path override it so
     *  their hot loop makes no virtual call per reference. */
    virtual void
    accessBatch(const AccessRec* recs, std::size_t n)
    {
        for (std::size_t i = 0; i < n; ++i)
            access(recs[i]);
    }

    /** Deliver one synchronization edge at its stream position.
     *  Default: ignore (most sinks only consume references). */
    virtual void sync(const SyncRec&) {}

    /** Deliver one placement change at its stream position, after the
     *  preceding streamBarrier() quiesce.  Default: ignore (live
     *  sinks resolve homes through the heap; only recording sinks
     *  need the span data). */
    virtual void place(const PlaceRec&) {}

    /** Zero statistics while keeping simulation state (measurement
     *  windows); buffering sinks must deliver pending records first. */
    virtual void resetStats() {}

    /** Quiesce: finish processing every reference delivered so far.
     *  Fired before stream-ordered events outside the reference
     *  stream itself (e.g. a placement change) so buffering sinks see
     *  them at the right position, and once when the stream ends.
     *  No-op for synchronous sinks. */
    virtual void streamBarrier() {}
};

} // namespace splash::sim

#endif // SPLASH2_SIM_TRACE_H
