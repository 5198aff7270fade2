/**
 * @file
 * ExecutionBackend -- the mechanism seam under the Scheduler.
 *
 * The Scheduler owns *policy*: which simulated processor runs next
 * (smallest logical time, tie-break by processor id) and when a slice
 * ends (the quantum).  An ExecutionBackend owns *mechanism*: it
 * materializes one execution context per simulated processor and
 * performs the actual transfer of control between them.  Because
 * every scheduling decision is taken by the (deterministic) policy
 * layer and the backend only carries it out, the interleaving -- and
 * therefore every statistic the simulation produces -- is bit-identical
 * across backends.
 *
 * Two implementations:
 *
 *  - FiberBackend (default): each processor is a stackful user-level
 *    fiber; a handoff is a single in-process context switch costing
 *    tens of nanoseconds.  The whole simulation runs on one host
 *    thread, which is what the logically-serial interleaver wants.
 *
 *  - ThreadBackend: each processor is a host thread parked on its own
 *    condition variable; a handoff is a notify + wait (two kernel
 *    wakeups).  This preserves the historical behavior and serves as a
 *    differential-testing oracle for the fiber path.
 *
 * Protocol (all calls made by the Scheduler):
 *   run(n, entry, first)  -- create contexts 0..n-1, transfer control
 *                            to `first`, return after finish().
 *   switchTo(from, to)    -- called on context `from`; returns when
 *                            `from` is next scheduled.
 *   exitTo(from, to)      -- `from` is done and never resumes.
 *   finish(last)          -- all processors done; control returns to
 *                            the run() caller. `last` never resumes.
 */
#ifndef SPLASH2_RT_EXEC_BACKEND_H
#define SPLASH2_RT_EXEC_BACKEND_H

#include <functional>
#include <memory>
#include <string>

#include "base/types.h"

namespace splash::rt {

enum class BackendKind { Fiber, Thread };

/** Human-readable backend name ("fiber" / "thread"). */
const char* backendName(BackendKind kind);

class ExecutionBackend
{
  public:
    virtual ~ExecutionBackend() = default;

    /** Run one team episode: create @p nprocs contexts that each
     *  execute entry(p) when first scheduled, hand control to
     *  @p first, and return once finish() has been called.  entry must
     *  not return normally on the context of the last processor; it
     *  ends every context via exitTo()/finish(). */
    virtual void run(int nprocs,
                     const std::function<void(ProcId)>& entry,
                     ProcId first) = 0;

    /** Transfer control from the running context @p from to @p to;
     *  returns when @p from is scheduled again. */
    virtual void switchTo(ProcId from, ProcId to) = 0;

    /** Transfer control to @p to; context @p from never resumes. */
    virtual void exitTo(ProcId from, ProcId to) = 0;

    /** Return control to the run() caller; @p last never resumes. */
    virtual void finish(ProcId last) = 0;
};

std::unique_ptr<ExecutionBackend> makeExecutionBackend(BackendKind kind);

} // namespace splash::rt

#endif // SPLASH2_RT_EXEC_BACKEND_H
