/**
 * @file
 * The execution environment tying applications to the simulator.
 *
 * An Env owns P simulated processors and runs an application body once
 * per processor, in one of two modes:
 *
 *  - Mode::Native -- plain std::thread parallelism, no interleaving
 *    control. Used by the examples and correctness tests.
 *  - Mode::Sim -- the deterministic cooperative Scheduler interleaves
 *    processors by logical (PRAM) time, and every shared-memory
 *    reference is routed to the attached sinks (sim/trace.h RefSink:
 *    MemSystem, CacheSweep, ...).  This is the Tango-Lite role.
 *    The execution mechanism (stackful fibers on one host thread, or
 *    one parked host thread per processor) is chosen by
 *    EnvConfig::backend; the interleaving is identical either way.
 *
 * Instruction accounting (Table 1 of the paper): every instrumented
 * read or write counts as one instruction, and applications annotate
 * their computation with work(n) / flops(n) at compute sites.  Logical
 * time advances identically, which is exactly the paper's PRAM model
 * (every instruction and memory reference completes in one cycle).
 *
 * Measurement windows: startMeasurement() zeroes all statistics while
 * preserving cache and logical-clock state, implementing the paper's
 * "start measuring after initialization and cold start" methodology.
 * It must be called at a point where all processors are quiescent
 * (typically by one processor between two barriers).
 */
#ifndef SPLASH2_RT_ENV_H
#define SPLASH2_RT_ENV_H

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "base/types.h"
#include "rt/scheduler.h"
#include "rt/shared_heap.h"
#include "sim/trace.h"

namespace splash::rt {

enum class Mode { Native, Sim };

/** How instrumented references reach the attached sinks (sim mode).
 *
 *  - Direct: every reference calls each sink synchronously.
 *  - Batched: references append to a record ring drained at every
 *    scheduling boundary (quantum expiry, block, exit) and at
 *    measurement boundaries.  Exactly one simulated processor runs at
 *    a time and the ring is drained before control transfers, so the
 *    delivered order equals the execution order and all statistics are
 *    bit-identical to Direct -- only the call pattern changes.
 *
 *  Batched is the shape every run uses; Direct stays as the
 *  differential oracle of the delivery tests.
 */
enum class Delivery : std::uint8_t { Direct, Batched };

/** Per-processor execution statistics (Table 1 / Figure 2 inputs). */
struct ProcStats
{
    std::uint64_t reads = 0;
    std::uint64_t writes = 0;
    std::uint64_t flops = 0;
    std::uint64_t work = 0;  ///< non-memory instructions (includes flops)

    std::uint64_t barriers = 0;  ///< barrier episodes encountered
    std::uint64_t locks = 0;     ///< lock acquisitions
    std::uint64_t pauses = 0;    ///< flag-based waits

    Tick barrierWait = 0;
    Tick lockWait = 0;
    Tick pauseWait = 0;

    Tick startTime = 0;   ///< logical clock at measurement start
    Tick finishTime = 0;  ///< logical clock at body completion

    std::uint64_t instructions() const { return work + reads + writes; }
    Tick syncWait() const { return barrierWait + lockWait + pauseWait; }
    Tick elapsed() const
    {
        return finishTime > startTime ? finishTime - startTime : 0;
    }

    ProcStats&
    operator+=(const ProcStats& o)
    {
        reads += o.reads;
        writes += o.writes;
        flops += o.flops;
        work += o.work;
        barriers += o.barriers;
        locks += o.locks;
        pauses += o.pauses;
        barrierWait += o.barrierWait;
        lockWait += o.lockWait;
        pauseWait += o.pauseWait;
        return *this;
    }
};

struct EnvConfig
{
    Mode mode = Mode::Native;
    int nprocs = 1;
    /** Scheduler quantum (instrumentation events per slice), sim mode. */
    std::uint64_t quantum = 250;
    /** Execution mechanism for the sim-mode interleaver: fibers on one
     *  host thread (default, fast) or one parked host thread per
     *  processor (the historical baton; differential oracle of the
     *  backend tests). */
    BackendKind backend = BackendKind::Fiber;
    /** Reference delivery shape (batched by default; bit-identical). */
    Delivery delivery = Delivery::Batched;
};

class Env;

/** Per-processor handle passed to application bodies. */
class ProcCtx
{
  public:
    ProcId id() const { return id_; }
    Env& env() const { return *env_; }
    int nprocs() const;

    /** Instrumented shared-memory read of [a, a+n). */
    void read(const void* a, std::size_t n);
    /** Instrumented shared-memory write of [a, a+n). */
    void write(const void* a, std::size_t n);
    /** Instrumented *atomic* read/write: identical to read()/write()
     *  for every statistic and for the memory system, but the record
     *  carries AccessRec::kAtomic so happens-before analysis treats it
     *  as an annotated lock-free access (rt/shared.h ldAtomic). */
    void readAtomic(const void* a, std::size_t n);
    void writeAtomic(const void* a, std::size_t n);
    /** Account @p n non-memory instructions. */
    void work(std::uint64_t n);
    /** Account @p n floating-point operations (each one instruction). */
    void flops(std::uint64_t n);
    /** Advance logical time by @p n cycles of *idle* spinning (charged
     *  as pause wait, not instructions) -- used by busy-wait loops
     *  such as task-queue polling. */
    void idle(std::uint64_t n);

    ProcStats& stats() { return *stats_; }

  private:
    friend class Env;
    Env* env_ = nullptr;
    ProcId id_ = -1;
    ProcStats* stats_ = nullptr;
};

/** Current processor context; null outside a team body (e.g. during
 *  problem setup), in which case instrumentation hooks are no-ops.
 *
 *  In sim mode the context is resolved through the scheduler's
 *  running-processor id rather than per-host-thread state, so it is
 *  correct under both execution backends -- with fibers, every
 *  simulated processor shares one host thread and a plain thread_local
 *  would go stale at each context switch. */
ProcCtx* cur();

class Env
{
  public:
    explicit Env(const EnvConfig& cfg);
    ~Env();

    Env(const Env&) = delete;
    Env& operator=(const Env&) = delete;

    /** Run @p body once per processor to completion (a "team"). May be
     *  called multiple times; logical clocks persist across calls. */
    void run(const std::function<void(ProcCtx&)>& body);

    /** Attach a reference sink (sim mode only).  Each sink sees the
     *  whole stream in execution order; sinks are fed in attach
     *  order. */
    void attachSink(sim::RefSink* s) { sinks_.push_back(s); }

    /** Deliver any batched records still in the ring.  Called
     *  automatically at every scheduling boundary and after run();
     *  public so tests can force a boundary. */
    void drainRefs();

    /** Allocate a stream-wide id for a synchronization object
     *  (rt/sync.h Barrier/Lock/Flag).  Ids are dense, assigned in
     *  construction order, and deterministic run to run. */
    std::uint32_t registerSyncObj() { return nextSyncId_++; }

    /** Forward one synchronization edge to the attached sinks at its
     *  exact stream position (sim mode; no-op otherwise).  Pending
     *  batched references are drained first, so a sink's sync() call
     *  lands between the same two access() calls as it would under
     *  direct delivery. */
    void syncEvent(ProcId p, std::uint32_t obj, sim::SyncOp op,
                   sim::SyncPrim prim);

    /** Zero all statistics (Env + attached sinks) while keeping cache
     *  and clock state. Callable from inside a team when all other
     *  processors are at a barrier, or between runs. */
    void startMeasurement();

    Mode mode() const { return cfg_.mode; }
    int nprocs() const { return cfg_.nprocs; }

    const ProcStats& stats(ProcId p) const { return stats_[p]; }
    /** Mutable access for the runtime's sync primitives, which charge
     *  wait time to processors other than the caller. */
    ProcStats& mutableStats(ProcId p) { return stats_[p]; }
    ProcStats totalStats() const;

    /** PRAM execution time of the measured window: max over processors
     *  of (finish - measurement start). Sim mode only. */
    Tick elapsed() const;

    SharedHeap& heap() { return heap_; }
    Scheduler* scheduler() { return sched_.get(); }

    /** Context of the processor the scheduler is currently running;
     *  null outside a sim-mode team episode. Used by cur(). */
    ProcCtx* runningCtx();

  private:
    friend class ProcCtx;

    /** Ring capacity: big enough that drains are amortized over many
     *  references, small enough to stay L1/L2-resident. */
    static constexpr std::size_t kRingCap = 4096;

    /** Hot path of the instrumented read/write hooks (sim mode). */
    void simAccess(ProcId p, Addr a, int n, AccessType t,
                   std::uint8_t flags = 0);
    /** Direct-delivery shape: call every sink for one reference. */
    void deliver(const sim::AccessRec& r);

    EnvConfig cfg_;
    SharedHeap heap_;
    std::unique_ptr<Scheduler> sched_;
    std::vector<ProcStats> stats_;
    /** Team contexts of the episode in progress (sim mode only). */
    ProcCtx* episodeCtxs_ = nullptr;
    std::vector<sim::RefSink*> sinks_;
    /** Batched-delivery record ring; ringN_ is the fill level.  One
     *  ring serves all processors: only the running processor appends,
     *  and the ring is drained before control transfers. */
    std::vector<sim::AccessRec> ring_;
    std::size_t ringN_ = 0;
    /** Next sync-object id (registerSyncObj). */
    std::uint32_t nextSyncId_ = 0;
};

// ----------------------------------------------------------------------
// Inline instrumentation hot path.  One branch on mode, one clock
// bump, then either a record append (batched) or sink calls (direct).

inline void
Env::simAccess(ProcId p, Addr a, int n, AccessType t, std::uint8_t flags)
{
    Scheduler& s = *sched_;
    s.advance(p, 1);
    // Sinks see simulated (arena-relative) addresses, so set indices,
    // interleaving, and home resolution never depend on where the host
    // kernel mapped the arena.
    a = heap_.toSim(a);
    if (cfg_.delivery == Delivery::Batched) [[likely]] {
        sim::AccessRec& r = ring_[ringN_];
        r.addr = a;
        r.ltime = s.time(p);
        r.size = n;
        r.proc = static_cast<std::int16_t>(p);
        r.type = t;
        r.flags = flags;
        if (++ringN_ == kRingCap) [[unlikely]]
            drainRefs();
    } else {
        sim::AccessRec r;
        r.addr = a;
        r.ltime = s.time(p);
        r.size = n;
        r.proc = static_cast<std::int16_t>(p);
        r.type = t;
        r.flags = flags;
        deliver(r);
    }
    s.event(p);
}

inline void
ProcCtx::read(const void* a, std::size_t n)
{
    ++stats_->reads;
    if (env_->cfg_.mode == Mode::Sim)
        env_->simAccess(id_, reinterpret_cast<Addr>(a),
                        static_cast<int>(n), AccessType::Read);
}

inline void
ProcCtx::write(const void* a, std::size_t n)
{
    ++stats_->writes;
    if (env_->cfg_.mode == Mode::Sim)
        env_->simAccess(id_, reinterpret_cast<Addr>(a),
                        static_cast<int>(n), AccessType::Write);
}

inline void
ProcCtx::readAtomic(const void* a, std::size_t n)
{
    ++stats_->reads;
    if (env_->cfg_.mode == Mode::Sim)
        env_->simAccess(id_, reinterpret_cast<Addr>(a),
                        static_cast<int>(n), AccessType::Read,
                        sim::AccessRec::kAtomic);
}

inline void
ProcCtx::writeAtomic(const void* a, std::size_t n)
{
    ++stats_->writes;
    if (env_->cfg_.mode == Mode::Sim)
        env_->simAccess(id_, reinterpret_cast<Addr>(a),
                        static_cast<int>(n), AccessType::Write,
                        sim::AccessRec::kAtomic);
}

inline void
ProcCtx::work(std::uint64_t n)
{
    stats_->work += n;
    if (env_->cfg_.mode == Mode::Sim) {
        Scheduler& s = *env_->sched_;
        s.advance(id_, n);
        s.event(id_);
    }
}

inline void
ProcCtx::flops(std::uint64_t n)
{
    stats_->flops += n;
    work(n);
}

inline void
ProcCtx::idle(std::uint64_t n)
{
    stats_->pauseWait += n;
    if (env_->cfg_.mode == Mode::Sim) {
        Scheduler& s = *env_->sched_;
        s.advance(id_, n);
        s.event(id_);
    }
}

} // namespace splash::rt

#endif // SPLASH2_RT_ENV_H
