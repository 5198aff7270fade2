/**
 * @file
 * Characterize-your-own-kernel example: the methodology half of the
 * paper applied to code that is *not* in SPLASH-2.
 *
 * We write a tiny parallel histogram kernel against the runtime API,
 * then reproduce the paper's methodology on it: miss rate vs. cache
 * size (working sets), traffic decomposition, and the false-sharing
 * effect of a deliberately bad data layout -- exactly the workflow an
 * architect would use to vet a new workload before a study.
 *
 *   $ ./characterize_custom
 */
#include <cstdio>

#include "rt/env.h"
#include "rt/shared.h"
#include "rt/sync.h"
#include "sim/memsys.h"
#include "sim/sweep.h"

using namespace splash;

namespace {

/** Deterministic filler for the example's input values. */
void
fillValues(rt::SharedArray<std::uint32_t>& a, long n)
{
    std::uint64_t x = 88172645463325252ull;
    for (long i = 0; i < n; ++i) {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        a.raw()[i] = static_cast<std::uint32_t>(x);
    }
}

/** Parallel histogram with per-processor sub-histograms merged at the
 *  end (the standard scalable formulation). `padded` gives each
 *  processor's counters their own cache lines; the packed layout
 *  interleaves different processors' counters in the same line, the
 *  textbook false-sharing bug. */
void
histogramKernel(rt::Env& env, int bins, long nvalues, bool padded)
{
    const int procs = env.nprocs();
    // Layout: padded   -> proc-major, line-aligned per processor;
    //         packed   -> bin-major: counters of all processors for a
    //                     bin sit adjacent in one line.
    rt::SharedArray<std::uint64_t> counts(
        env, std::size_t(bins) * (padded ? bins : procs) + 8 * procs *
                 bins);
    rt::SharedArray<std::uint32_t> values(env, nvalues);
    rt::SharedArray<std::uint64_t> merged(env, bins);
    fillValues(values, nvalues);
    rt::Barrier bar(env);

    auto slot = [&](int p, int bin) {
        // padded: one widely-spaced band per processor (no line ever
        // holds two processors' counters); packed: processors'
        // counters for a bin sit adjacent within one line.
        return padded ? std::size_t(p) * bins * 8 + std::size_t(bin)
                      : std::size_t(bin) * procs + p;
    };

    env.run([&](rt::ProcCtx& c) {
        long per = nvalues / c.nprocs();
        long first = c.id() * per;
        for (long i = first; i < first + per; ++i) {
            std::uint32_t v = values.ld(i);
            int bin = static_cast<int>(v % bins);
            counts[slot(c.id(), bin)] += 1;  // private counter...
            c.work(3);                       // ...maybe shared line
        }
        bar.arrive(c);
        // Merge: each processor reduces a band of bins.
        for (int b = c.id(); b < bins; b += c.nprocs()) {
            std::uint64_t total = 0;
            for (int p = 0; p < c.nprocs(); ++p)
                total += counts[slot(p, b)];
            merged[b] = total;
            c.work(2);
        }
    });
}

} // namespace

int
main()
{
    const int procs = 8;
    const int bins = 64;
    const long nvalues = 100000;

    // 1. Working sets: one pass, all cache sizes.
    {
        rt::Env env({rt::Mode::Sim, procs});
        sim::SweepConfig sc;
        sc.nprocs = procs;
        sc.assocs = {4};  // the one column printed below
        sim::CacheSweep sweep(sc);
        env.attachSink(&sweep);
        histogramKernel(env, bins, nvalues, true);
        std::printf("histogram kernel: miss rate vs cache size "
                    "(4-way)\n");
        for (std::uint64_t size = 1024; size <= (1u << 20); size *= 4)
            std::printf("  %4llu KB: %.3f%%\n",
                        static_cast<unsigned long long>(size >> 10),
                        100.0 * sweep.missRate(size, 4));
    }

    // 2. False sharing: packed vs. padded counters.
    for (bool padded : {true, false}) {
        rt::Env env({rt::Mode::Sim, procs});
        sim::MachineConfig mc;
        mc.nprocs = procs;
        sim::MemSystem mem(mc, &env.heap());
        env.attachSink(&mem);
        histogramKernel(env, bins, nvalues, padded);
        auto m = mem.total();
        std::printf("\n%s counters:\n", padded ? "padded" : "packed");
        std::printf("  miss rate %.3f%%, false-sharing misses %llu, "
                    "true-sharing %llu\n",
                    100.0 * m.missRate(),
                    static_cast<unsigned long long>(
                        m.misses[int(sim::MissType::FalseSharing)]),
                    static_cast<unsigned long long>(
                        m.misses[int(sim::MissType::TrueSharing)]));
        std::printf("  remote traffic %.4f bytes/ref\n",
                    double(m.remoteData() + m.remoteOverhead) /
                        double(m.accesses()));
    }
    std::printf("\n(the packed layout shows the classic false-sharing "
                "blowup the paper warns about)\n");
    return 0;
}
