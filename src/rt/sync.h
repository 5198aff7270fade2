/**
 * @file
 * Synchronization primitives -- the PARMACS-macro equivalents.
 *
 * Three primitives cover everything the SPLASH-2 programs use:
 *
 *  - Barrier  (BARRIER)       -- all-processor rendezvous
 *  - Lock     (LOCK/ALOCK)    -- mutual exclusion
 *  - Flag     (PAUSE/SETPAUSE)-- flag-based producer/consumer sync
 *
 * In native mode they wrap the obvious std primitives.  In sim mode
 * they cooperate with the Scheduler and implement the paper's PRAM
 * timing model:
 *
 *  - a barrier sets every participant's logical clock to the maximum
 *    arrival clock, charging each the difference as barrier wait;
 *  - a lock serializes critical sections in logical time: an acquirer
 *    starts no earlier than the previous holder's release clock, and
 *    the delay is charged as lock wait;
 *  - a flag wait completes at the setter's clock.
 *
 * Figure 2 (synchronization time breakdown) is produced entirely from
 * the wait counters these primitives maintain.
 *
 * Each primitive also registers a sync-object id with its Env and, in
 * sim mode, emits SyncRec acquire/release edges into the reference
 * stream (Env::syncEvent) at the exact point the primitive takes
 * effect.  Happens-before analysis (sim/racecheck.h) reconstructs the
 * program's synchronization order from these edges alone:
 *
 *  - barrier: every arrival releases into the barrier object *before*
 *    any participant departs, and every departure acquires from it,
 *    so all pre-barrier work happens-before all post-barrier work;
 *  - lock: acquire edges at acquisition, release edges at release --
 *    critical sections on the same lock are totally ordered;
 *  - flag: set releases, a completed wait acquires.  clear() emits
 *    nothing; the object keeps its accumulated order, which is exact
 *    for the suite's single-setter flags and conservative (extra
 *    edges, never missing ones) if a re-cleared flag is set by a
 *    different processor later.
 */
#ifndef SPLASH2_RT_SYNC_H
#define SPLASH2_RT_SYNC_H

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <mutex>
#include <vector>

#include "base/types.h"
#include "rt/env.h"

namespace splash::rt {

/** All-processor rendezvous. */
class Barrier
{
  public:
    /** @param n participant count; 0 means the whole team. */
    explicit Barrier(Env& env, int n = 0);

    /** Arrive and wait for all participants. */
    void arrive(ProcCtx& c);

    /** Stream-wide sync-object id (Env::registerSyncObj). */
    std::uint32_t id() const { return id_; }

  private:
    Env& env_;
    int n_;
    std::uint32_t id_;

    // Native mode.
    std::mutex mu_;
    std::condition_variable cv_;
    std::uint64_t generation_ = 0;

    // Shared.
    int count_ = 0;

    // Sim mode.
    Tick maxArrival_ = 0;
    std::vector<ProcId> waiters_;
};

/** Mutual exclusion lock. */
class Lock
{
  public:
    explicit Lock(Env& env);

    void acquire(ProcCtx& c);
    void release(ProcCtx& c);

    /** RAII critical section. */
    class Guard
    {
      public:
        Guard(Lock& l, ProcCtx& c) : l_(l), c_(c) { l_.acquire(c_); }
        ~Guard() { l_.release(c_); }
        Guard(const Guard&) = delete;
        Guard& operator=(const Guard&) = delete;

      private:
        Lock& l_;
        ProcCtx& c_;
    };

    /** Stream-wide sync-object id (Env::registerSyncObj). */
    std::uint32_t id() const { return id_; }

  private:
    Env& env_;
    std::uint32_t id_;

    // Native mode.
    std::mutex mu_;

    // Sim mode.
    bool held_ = false;
    Tick freeTime_ = 0;
    std::deque<ProcId> waiters_;
};

/** Flag-based synchronization (PAUSE/SETPAUSE/CLEARPAUSE). */
class Flag
{
  public:
    explicit Flag(Env& env);

    /** Set the flag and release all current and future waiters. */
    void set(ProcCtx& c);
    /** Clear the flag. */
    void clear(ProcCtx& c);
    /** Wait until the flag is set. */
    void wait(ProcCtx& c);

    /** Stream-wide sync-object id (Env::registerSyncObj). */
    std::uint32_t id() const { return id_; }

  private:
    Env& env_;
    std::uint32_t id_;

    // Native mode.
    std::mutex mu_;
    std::condition_variable cv_;

    // Shared.
    bool set_ = false;

    // Sim mode.
    Tick setTime_ = 0;
    std::vector<ProcId> waiters_;
};

} // namespace splash::rt

#endif // SPLASH2_RT_SYNC_H
