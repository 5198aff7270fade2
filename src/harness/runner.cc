#include "harness/runner.h"

#include <sched.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <exception>
#include <mutex>
#include <numeric>
#include <thread>

#include "base/log.h"

namespace splash::harness {

int
usableCpus()
{
    cpu_set_t set;
    if (::sched_getaffinity(0, sizeof(set), &set) == 0 && CPU_COUNT(&set) > 0)
        return CPU_COUNT(&set);
    const unsigned hw = std::thread::hardware_concurrency();
    return hw ? static_cast<int>(hw) : 1;
}

int
Runner::resolve(long flag)
{
    return flag > 0 ? static_cast<int>(flag) : usableCpus();
}

Runner::Runner(int jobs) : jobs_(resolve(jobs)) {}

void
Runner::add(std::string label, double cost, std::function<void()> fn)
{
    queue_.push_back({std::move(label), cost, std::move(fn)});
}

void
Runner::run()
{
    jobs_run_.assign(queue_.size(), 0.0);
    auto timed = [&](std::size_t i) {
        auto t0 = std::chrono::steady_clock::now();
        queue_[i].fn();
        jobs_run_[i] =
            std::chrono::duration<double>(
                std::chrono::steady_clock::now() - t0)
                .count();
    };

    if (jobs_ <= 1 || queue_.size() <= 1) {
        for (std::size_t i = 0; i < queue_.size(); ++i)
            timed(i);
        return;
    }

    // LPT: longest (estimated) job first, ties in submission order.
    std::vector<std::size_t> order(queue_.size());
    std::iota(order.begin(), order.end(), 0);
    std::stable_sort(order.begin(), order.end(),
                     [&](std::size_t a, std::size_t b) {
                         return queue_[a].cost > queue_[b].cost;
                     });

    std::atomic<std::size_t> next{0};
    std::mutex errMu;
    std::exception_ptr firstErr;
    auto worker = [&] {
        for (;;) {
            std::size_t k = next.fetch_add(1);
            if (k >= order.size())
                return;
            try {
                timed(order[k]);
            } catch (...) {
                std::lock_guard<std::mutex> lk(errMu);
                if (!firstErr)
                    firstErr = std::current_exception();
            }
        }
    };

    int nthreads = static_cast<int>(std::min<std::size_t>(
        static_cast<std::size_t>(jobs_), queue_.size()));
    std::vector<std::thread> pool;
    pool.reserve(nthreads);
    for (int t = 0; t < nthreads; ++t)
        pool.emplace_back(worker);
    for (auto& t : pool)
        t.join();
    if (firstErr)
        std::rethrow_exception(firstErr);
}

} // namespace splash::harness
