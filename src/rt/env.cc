#include "rt/env.h"

#include <algorithm>
#include <thread>

#include "base/log.h"

namespace splash::rt {

namespace {
/** Native mode: one host thread per processor, context pinned here. */
thread_local ProcCtx* tls_ctx = nullptr;
/** Sim mode: the Env whose team episode is executing on this host
 *  thread.  The running processor is resolved through the scheduler on
 *  every cur() call, which stays correct across fiber switches (all
 *  fibers share one host thread) and across nested Envs (the previous
 *  value is restored when an inner episode ends). */
thread_local Env* tls_env = nullptr;
} // namespace

ProcCtx*
cur()
{
    if (tls_ctx)
        return tls_ctx;
    if (tls_env)
        return tls_env->runningCtx();
    return nullptr;
}

ProcCtx*
Env::runningCtx()
{
    if (!episodeCtxs_ || !sched_ || !sched_->active())
        return nullptr;
    ProcId r = sched_->running();
    return r >= 0 ? &episodeCtxs_[r] : nullptr;
}

int
ProcCtx::nprocs() const
{
    return env_->nprocs();
}

void
Env::deliver(const sim::AccessRec& r)
{
    for (sim::RefSink* s : sinks_)
        s->access(r);
}

void
Env::drainRefs()
{
    if (ringN_ == 0)
        return;
    const sim::AccessRec* recs = ring_.data();
    const std::size_t n = ringN_;
    ringN_ = 0;
    // Per-sink, not per-record: sinks share no state, so only each
    // sink's own delivery order matters, and that equals execution
    // order either way.
    for (sim::RefSink* s : sinks_)
        s->accessBatch(recs, n);
}

void
Env::syncEvent(ProcId p, std::uint32_t obj, sim::SyncOp op,
               sim::SyncPrim prim)
{
    if (cfg_.mode != Mode::Sim || sinks_.empty())
        return;
    // References issued before this edge must reach the sinks first;
    // the edge then lands at its exact stream position.
    drainRefs();
    sim::SyncRec r;
    r.obj = obj;
    r.ltime = sched_ ? sched_->time(p) : 0;
    r.proc = static_cast<std::int16_t>(p);
    r.op = op;
    r.prim = prim;
    for (sim::RefSink* s : sinks_)
        s->sync(r);
}

namespace {
/** @p cfg once its processor count is known to be in range: the
 *  members sized from it are built only after this check. */
const EnvConfig&
validated(const EnvConfig& cfg)
{
    if (cfg.nprocs < 1 || cfg.nprocs > kMaxProcs)
        fatal("processor count must be in [1, " +
              std::to_string(kMaxProcs) +
              "]: per-processor sharer and vector-clock state lives "
              "in " +
              std::to_string(kMaxProcs) + "-bit masks (got " +
              std::to_string(cfg.nprocs) + ")");
    return cfg;
}
} // namespace

Env::Env(const EnvConfig& cfg)
    : cfg_(validated(cfg)), heap_(cfg.nprocs), stats_(cfg.nprocs)
{
    if (cfg_.mode == Mode::Sim) {
        sched_ = std::make_unique<Scheduler>(cfg_.nprocs, cfg_.quantum,
                                             cfg_.backend);
        // Home placement must stay stream-ordered for buffering sinks:
        // deliver (and fully replay) everything issued under the old
        // placement before the span map changes.
        heap_.setPlacementObserver(
            [this](Addr start, std::size_t bytes, ProcId home) {
                drainRefs();
                for (sim::RefSink* s : sinks_) {
                    s->streamBarrier();
                    s->place({start, bytes, home});
                }
            });
        if (cfg_.delivery == Delivery::Batched) {
            ring_.resize(kRingCap);
            // Drain before every control transfer so the delivered
            // order equals the execution order.
            sched_->setPreSwitchHook(
                [](void* env, ProcId) {
                    static_cast<Env*>(env)->drainRefs();
                },
                this);
        }
    }
}

Env::~Env() = default;

void
Env::run(const std::function<void(ProcCtx&)>& body)
{
    std::vector<ProcCtx> ctxs(cfg_.nprocs);
    for (int p = 0; p < cfg_.nprocs; ++p) {
        ctxs[p].env_ = this;
        ctxs[p].id_ = p;
        ctxs[p].stats_ = &stats_[p];
    }

    if (cfg_.mode == Mode::Sim) {
        ProcCtx* prevCtxs = episodeCtxs_;
        Env* prevEnv = tls_env;
        episodeCtxs_ = ctxs.data();
        tls_env = this;
        sched_->run([&](ProcId p) {
            // Under the thread backend each processor runs on its own
            // host thread, which has not seen the assignment above.
            tls_env = this;
            body(ctxs[p]);
            stats_[p].finishTime = sched_->time(p);
        });
        // The last processor to finish exits through the backend's
        // finish path, which bypasses the pre-switch hook.
        drainRefs();
        tls_env = prevEnv;
        episodeCtxs_ = prevCtxs;
        return;
    }

    std::vector<std::thread> threads;
    threads.reserve(cfg_.nprocs);
    for (int p = 0; p < cfg_.nprocs; ++p) {
        threads.emplace_back([&, p] {
            tls_ctx = &ctxs[p];
            body(ctxs[p]);
            tls_ctx = nullptr;
        });
    }
    for (auto& t : threads)
        t.join();
}

void
Env::startMeasurement()
{
    // Pending batched records precede the measurement window; deliver
    // them so the resets below discard them exactly as direct delivery
    // would have.
    drainRefs();
    for (int p = 0; p < cfg_.nprocs; ++p) {
        Tick lt = sched_ ? sched_->time(p) : 0;
        stats_[p] = ProcStats{};
        stats_[p].startTime = lt;
        stats_[p].finishTime = lt;
    }
    for (sim::RefSink* s : sinks_)
        s->resetStats();
}

ProcStats
Env::totalStats() const
{
    ProcStats t;
    for (const auto& s : stats_)
        t += s;
    return t;
}

Tick
Env::elapsed() const
{
    Tick e = 0;
    for (const auto& s : stats_)
        e = std::max(e, s.elapsed());
    return e;
}

} // namespace splash::rt
