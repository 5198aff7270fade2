/**
 * @file
 * Parallel experiment runner: schedule independent characterization
 * jobs across host cores.
 *
 * Each figure/table bench decomposes into jobs that share no state --
 * one per (application, processor-count, configuration-group)
 * execution.  The runner executes them on a pool of host threads,
 * ordered longest-processing-time-first by the caller's cost (the
 * problem size, where a bench's jobs differ in it) so the pool drains
 * evenly, while the caller assembles output strictly in submission
 * order after run() returns -- stdout bytes are identical for every
 * --jobs value, including the serial path (--jobs 1), which executes
 * jobs inline in submission order and is the differential oracle.
 *
 * Jobs must not touch shared mutable state; every simulation object
 * (Env, heap, memory systems) is per-job, and the stable simulated
 * address space (rt::SharedHeap) keeps results independent of host
 * allocation interleaving, so a job's statistics are bit-identical no
 * matter which worker runs it or what runs beside it.
 */
#ifndef SPLASH2_HARNESS_RUNNER_H
#define SPLASH2_HARNESS_RUNNER_H

#include <functional>
#include <string>
#include <vector>

namespace splash::harness {

/** CPUs this process may run on: the count of its sched_getaffinity
 *  mask (so `taskset -c 0` gives 1), or hardware_concurrency where
 *  the mask is unavailable; at least 1. */
int usableCpus();

class Runner
{
  public:
    /** @param jobs worker threads; 0 = usableCpus(), 1 =
     *  execute inline in submission order (serial oracle). */
    explicit Runner(int jobs);

    /** Queue one job. @p cost is a relative duration estimate used
     *  only for scheduling order (longest first); any monotone
     *  estimate works, and ties keep submission order. */
    void add(std::string label, double cost,
             std::function<void()> fn);

    /** Execute every queued job; returns when all have completed.
     *  Rethrows the first job exception (by submission order of the
     *  throwing job's start). May be called once. */
    void run();

    int jobs() const { return jobs_; }
    /** Wall seconds the last run() spent in job @p i (diagnostics). */
    double jobSeconds(std::size_t i) const { return jobs_run_[i]; }

    /** Resolve a --jobs flag value: 0 = usableCpus(). */
    static int resolve(long flag);

  private:
    struct Job
    {
        std::string label;
        double cost = 0;
        std::function<void()> fn;
    };

    int jobs_;
    std::vector<Job> queue_;
    std::vector<double> jobs_run_;
};

} // namespace splash::harness

#endif // SPLASH2_HARNESS_RUNNER_H
