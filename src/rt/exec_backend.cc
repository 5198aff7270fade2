#include "rt/exec_backend.h"

#include <condition_variable>
#include <mutex>
#include <thread>
#include <vector>

#include "base/log.h"
#include "rt/fiber.h"

namespace splash::rt {

namespace {

// --------------------------------------------------------------------
// FiberBackend
// --------------------------------------------------------------------

/** All simulated processors are fibers multiplexed on the calling host
 *  thread; a handoff is one user-space context switch. */
class FiberBackend final : public ExecutionBackend
{
  public:
    BackendKind kind() const override { return BackendKind::Fiber; }

    void
    run(int nprocs, const std::function<void(ProcId)>& entry,
        ProcId first) override
    {
        entry_ = &entry;
        procs_.clear();
        procs_.reserve(nprocs);
        for (ProcId p = 0; p < nprocs; ++p)
            procs_.push_back(std::make_unique<Proc>(this, p));

        // Adopt the caller's context fresh each episode: successive
        // episodes may legally start from different host threads (or
        // from inside another Env's fiber).
        Fiber home;
        home_ = &home;
        Fiber::switchTo(home, procs_[first]->fiber);
        home_ = nullptr;
        procs_.clear();
        entry_ = nullptr;
    }

    void
    switchTo(ProcId from, ProcId to) override
    {
        Fiber::switchTo(procs_[from]->fiber, procs_[to]->fiber);
    }

    void
    exitTo(ProcId from, ProcId to) override
    {
        Fiber::exitTo(procs_[from]->fiber, procs_[to]->fiber);
    }

    void
    finish(ProcId last) override
    {
        Fiber::exitTo(procs_[last]->fiber, *home_);
    }

  private:
    struct Proc
    {
        Proc(FiberBackend* b, ProcId p)
            : backend(b), id(p), fiber(&Proc::main, this)
        {
        }

        /** Fiber entry: run the scheduler's per-processor body. It
         *  terminates the context via exitTo()/finish(), so control
         *  never falls off the end. */
        static void
        main(void* raw)
        {
            auto* self = static_cast<Proc*>(raw);
            (*self->backend->entry_)(self->id);
        }

        FiberBackend* backend;
        ProcId id;
        Fiber fiber;
    };

    const std::function<void(ProcId)>* entry_ = nullptr;
    std::vector<std::unique_ptr<Proc>> procs_;
    Fiber* home_ = nullptr;
};

// --------------------------------------------------------------------
// ThreadBackend
// --------------------------------------------------------------------

/** One host thread per simulated processor, parked on a per-processor
 *  condition variable; the historical baton implementation, kept as
 *  the Mode::Native-era behavior and as a differential oracle. */
class ThreadBackend final : public ExecutionBackend
{
  public:
    BackendKind kind() const override { return BackendKind::Thread; }

    void
    run(int nprocs, const std::function<void(ProcId)>& entry,
        ProcId first) override
    {
        cvs_.clear();
        cvs_.reserve(nprocs);
        for (int p = 0; p < nprocs; ++p)
            cvs_.push_back(std::make_unique<std::condition_variable>());
        cur_ = -1;
        finished_ = false;

        std::vector<std::thread> threads;
        threads.reserve(nprocs);
        for (ProcId p = 0; p < nprocs; ++p) {
            threads.emplace_back([this, p, &entry] {
                {
                    std::unique_lock<std::mutex> lock(mu_);
                    cvs_[p]->wait(lock,
                                  [this, p] { return cur_ == p; });
                }
                entry(p);
                // entry returns here only after exitTo()/finish(),
                // both of which already woke the successor.
            });
        }

        {
            std::unique_lock<std::mutex> lock(mu_);
            cur_ = first;
            cvs_[first]->notify_one();
            doneCv_.wait(lock, [this] { return finished_; });
        }
        for (auto& t : threads)
            t.join();
        cvs_.clear();
    }

    void
    switchTo(ProcId from, ProcId to) override
    {
        std::unique_lock<std::mutex> lock(mu_);
        cur_ = to;
        cvs_[to]->notify_one();
        cvs_[from]->wait(lock, [this, from] { return cur_ == from; });
    }

    void
    exitTo(ProcId from, ProcId to) override
    {
        (void)from;
        std::lock_guard<std::mutex> lock(mu_);
        cur_ = to;
        cvs_[to]->notify_one();
    }

    void
    finish(ProcId last) override
    {
        (void)last;
        std::lock_guard<std::mutex> lock(mu_);
        cur_ = -1;
        finished_ = true;
        doneCv_.notify_all();
    }

  private:
    std::mutex mu_;
    std::vector<std::unique_ptr<std::condition_variable>> cvs_;
    std::condition_variable doneCv_;
    ProcId cur_ = -1;
    bool finished_ = false;
};

} // namespace

const char*
backendName(BackendKind kind)
{
    switch (kind) {
    case BackendKind::Fiber: return "fiber";
    case BackendKind::Thread: return "thread";
    }
    return "?";
}

std::unique_ptr<ExecutionBackend>
makeExecutionBackend(BackendKind kind)
{
    switch (kind) {
    case BackendKind::Fiber:
        return std::make_unique<FiberBackend>();
    case BackendKind::Thread:
        return std::make_unique<ThreadBackend>();
    }
    panic("unknown execution backend");
}

} // namespace splash::rt
