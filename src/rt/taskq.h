/**
 * @file
 * Distributed task queues with task stealing.
 *
 * Radiosity, Raytrace, and Volrend manage parallelism with one task
 * queue per processor plus stealing for load balance.  The queues here
 * are backed by shared ring buffers and shared head/tail indices (one
 * cache line per queue header), so queue manipulation generates real
 * simulated traffic, as it does in the original programs.
 *
 * A task is an opaque 64-bit value (typically an index or a packed
 * descriptor).  Completion is tracked with a shared pending-task
 * counter: push() increments it, done() decrements it, and get()
 * returns false only when every queue is empty *and* no pushed task is
 * still executing -- so tasks may spawn further tasks, as Radiosity's
 * subdivision does.
 */
#ifndef SPLASH2_RT_TASKQ_H
#define SPLASH2_RT_TASKQ_H

#include <cstdint>
#include <memory>
#include <vector>

#include "rt/shared.h"
#include "rt/sync.h"

namespace splash::rt {

class TaskQueues
{
  public:
    /** @param nqueues queue count (usually nprocs);
     *  @param capacity per-queue ring capacity (power of two). */
    TaskQueues(Env& env, int nqueues, std::size_t capacity = 1u << 14);

    /** Enqueue @p task on queue @p q. */
    void push(ProcCtx& c, int q, std::uint64_t task);

    /** One attempt: pop LIFO from own queue, else steal FIFO from the
     *  others (scanning q+1, q+2, ...). */
    bool tryGet(ProcCtx& c, int q, std::uint64_t& out);

    /** Blocking get: retries until a task is found or all work in the
     *  system has completed (returns false). */
    bool get(ProcCtx& c, int q, std::uint64_t& out);

    /** Mark one previously-gotten task as completed. */
    void done(ProcCtx& c);

  private:
    static constexpr int kHeaderStride = 8;  // u64s; one line per header

    bool popLifo(ProcCtx& c, int q, std::uint64_t& out);
    bool stealFifo(ProcCtx& c, int q, std::uint64_t& out);

    Env& env_;
    int nqueues_;
    std::size_t mask_;
    /** Per-queue [head, tail] indices; monotonically increasing. */
    SharedArray<std::uint64_t> headers_;
    std::vector<SharedArray<std::uint64_t>> rings_;
    std::vector<std::unique_ptr<Lock>> locks_;
    SharedVar<std::int64_t> pending_;
    std::unique_ptr<Lock> pendingLock_;
};

} // namespace splash::rt

#endif // SPLASH2_RT_TASKQ_H
